import json
import math
import ntpath
from pathlib import Path
from types import SimpleNamespace

import pytest

from edgefed import metrics, simkernel
from edgefed.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from edgefed.metrics import CSV_COLUMNS
from edgefed.simkernel import MAX_TXS_PER_CELL, MAX_TXS_PER_RUN, run_transactions

SWEEP_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "sweep.json"


def write_config(tmp_path, name="scenario.json", **overrides):
    doc = {
        "scenario_id": overrides.pop("scenario_id", "cli"),
        "topology": {"n_systems": overrides.pop("n_systems", 2)},
        "consensus": {"algorithm": overrides.pop("algorithm", "clique")},
        "runs": overrides.pop("runs", 2),
        "seed": overrides.pop("seed", 7),
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_baseline_summary_and_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr().out
        assert "total" in captured and "variance population" in captured
        assert (out / "cli_clique_2.csv").exists()
        assert (out / "cli_clique_2.jsonl").exists()

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"wat": 1}')
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_same_seed_repeats_byte_identically(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "42"]) == EXIT_OK
        for name in ("cli_clique_2.csv", "cli_clique_2.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_consensus_override_changes_variant(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--consensus", "soa"]) == EXIT_OK
        assert (out / "cli_soa_2.csv").exists()

    def test_runs_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--runs", "3"]) == EXIT_OK
        rows = (out / "cli_clique_2.csv").read_text().splitlines()
        assert len(rows) == 1 + 3

    def test_runs_override_below_one_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--runs", "0"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "invalid config: runs must be >= 1\n"
        assert not out.exists()

    def test_timeout_without_completions_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario_timeout_s=1.0)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_env_var_out_dir_fallback(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        env_out = tmp_path / "env-out"
        monkeypatch.setenv("EDGEFED_OUT", str(env_out))
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert (env_out / "cli_clique_2.csv").exists()

    def test_outputs_confined_to_out_dir(self, tmp_path, capsys, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        cfg = write_config(tmp_path)
        out = tmp_path / "only-here"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert list(workdir.iterdir()) == []


class TestSweep:
    def test_default_grid_writes_one_file_per_cell(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            runs=1,
            sweep={"n_systems": [2, 10, 15, 25, 30], "variants": ["clique", "qbft", "soa"]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        cells = sorted(p.name for p in out.glob("cli_*_*.csv"))
        assert len(cells) == 15
        assert (out / "cli_summary.csv").exists()

    def test_restricted_sweep(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, runs=1,
            sweep={"n_systems": [2, 10, 15, 25, 30], "variants": ["clique"]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(list(out.glob("cli_clique_*.csv"))) == 5
        assert not list(out.glob("cli_qbft_*.csv"))

    def test_summary_has_one_row_per_cell(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, runs=1,
            sweep={"n_systems": [2, 10], "variants": ["clique", "soa"]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "cli_summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        assert lines[0].startswith("consensus,n_systems,n_samples")

    def test_paper_sweep_formats_each_distinct_segment_tuple_once_per_writer(
            self, tmp_path, capsys, monkeypatch):
        formatted = []
        format_micro = metrics.format_micro
        monkeypatch.setattr(metrics, "format_micro",
                            lambda us: formatted.append(us) or format_micro(us))
        argv = ["sweep", "--config", str(SWEEP_CONFIG), "--seed", "7", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        # The 3,900 rows hold 97 distinct segment tuples, and each of the two
        # writers formats the six segments of each once. Formatting every
        # complete row in both writers took 46,800 calls.
        assert len(formatted) == 2 * 6 * 97


class TestLineEndings:
    def test_every_output_is_opened_with_a_fixed_newline(self, tmp_path, capsys, written_newlines):
        cfg = write_config(tmp_path, runs=1, sweep={"n_systems": [2], "variants": ["clique", "soa"]})
        written_newlines.clear()  # the config file is the test's own
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        chain_csv, soa_csv = out / "cli_clique_2.csv", out / "cli_soa_2.csv"
        assert main(["compare", str(chain_csv), str(soa_csv), "--out", str(out)]) == EXIT_OK
        assert written_newlines == {
            "cli_clique_2.csv": "", "cli_soa_2.csv": "",
            "cli_clique_2.jsonl": "\n", "cli_soa_2.jsonl": "\n",
            "cli_summary.csv": "\n", "overhead_report.json": "\n",
        }


class TestCompare:
    def make_cells(self, tmp_path):
        cfg = write_config(
            tmp_path, runs=1,
            sweep={"n_systems": [2], "variants": ["clique", "soa"]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        return out / "cli_clique_2.csv", out / "cli_soa_2.csv", out

    def test_overhead_report(self, tmp_path, capsys):
        chain_csv, soa_csv, out = self.make_cells(tmp_path)
        assert main(["compare", str(chain_csv), str(soa_csv), "--out", str(out)]) == EXIT_OK
        table = capsys.readouterr().out
        assert "overhead_s" in table
        report = json.loads((out / "overhead_report.json").read_text())
        entry = report["per_n"][0]
        assert entry["n_systems"] == 2
        assert entry["overhead_s"] == pytest.approx(
            entry["blockchain_mean_total_s"] - entry["soa_mean_total_s"]
        )

    def test_identical_files_give_zero_overhead(self, tmp_path, capsys):
        chain_csv, _, out = self.make_cells(tmp_path)
        assert main(["compare", str(chain_csv), str(chain_csv), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "overhead_report.json").read_text())
        assert report["per_n"][0]["overhead_s"] == 0.0

    def test_mismatched_n_sets_exit_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, runs=1,
            sweep={"n_systems": [2, 10], "variants": ["clique", "soa"]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        code = main([
            "compare", str(out / "cli_clique_2.csv"), str(out / "cli_soa_10.csv"),
            "--out", str(out),
        ])
        assert code == EXIT_CONFIG

    def test_missing_input_is_io_failure(self, tmp_path, capsys):
        assert main(["compare", "a.csv", "b.csv", "--out", str(tmp_path)]) == EXIT_IO

    HEADER = ",".join(CSV_COLUMNS)
    ROW = "cli,clique,2,0,0,5.000000,5.000000,0.100000,4.900000,2.600000,17.600000,true"

    def compare_fails(self, tmp_path, capsys, chain_text, soa_text) -> str:
        chain_csv, soa_csv = tmp_path / "chain.csv", tmp_path / "soa.csv"
        chain_csv.write_text(chain_text)
        soa_csv.write_text(soa_text)
        out = tmp_path / "out"
        assert main(["compare", str(chain_csv), str(soa_csv), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("comparison failed: ") and err.count("\n") == 1
        assert not out.exists()
        return err

    @pytest.mark.parametrize("header, row, reason", [
        (HEADER.partition(",")[2], ROW.partition(",")[2],
         "row 1, column scenario_id: missing from the header"),
        (HEADER, ROW.replace("clique,2,", "clique,two,"),
         "row 2, column n_systems: cannot read 'two'"),
        (HEADER, "cli,clique,2,0,0,,,,,,,true", "row 2, column bidding_s: empty"),
        (HEADER, ROW.replace("17.600000", "17.6000001"),
         "row 2, column total_s: cannot read '17.6000001'"),
        # Segments 5 + 5 + 0.1 + 4.9 + 2.6 = 17.6 s: a total of 99 s would
        # otherwise enter the overhead as 81.4 s.
        (HEADER, ROW.replace("17.600000", "99.000000"),
         "row 2, column total_s: the segments sum to 17.600000, not 99.000000"),
        (HEADER, ROW + ",junk,more", "row 2: 2 more cell(s) than the header"),
        # Only ASCII digits, though int() takes each of these.
        (HEADER, ROW.replace("clique,2,", "clique,\u0662,"),
         "row 2, column n_systems: cannot read '\u0662'"),
        (HEADER, ROW.replace("clique,2,", "clique,1_0,"), "row 2, column n_systems: cannot read '1_0'"),
        (HEADER, ROW.replace("clique,2,0,", "clique,2,+0,"), "row 2, column run: cannot read '+0'"),
        (HEADER, ROW.replace("clique,2,0,0,", "clique,2,0, 0,"),
         "row 2, column ann_id: cannot read ' 0'"),
    ], ids=["missing_column", "non_numeric_n_systems", "complete_without_segments",
            "seventh_fraction_digit", "segments_do_not_sum_to_total", "cells_beyond_the_header",
            "arabic_indic_n_systems", "underscored_n_systems", "signed_run", "spaced_ann_id"])
    def test_malformed_csv_exits_1_naming_file_row_and_column(
            self, tmp_path, capsys, header, row, reason):
        err = self.compare_fails(
            tmp_path, capsys, f"{header}\n{row}\n", f"{self.HEADER}\n{self.ROW}\n")
        assert f"{tmp_path / 'chain.csv'} {reason}" in err

    def test_two_header_only_files_exit_1(self, tmp_path, capsys):
        err = self.compare_fails(tmp_path, capsys, self.HEADER + "\n", self.HEADER + "\n")
        assert "neither input holds a trace row" in err

    INCOMPLETE_ROW = "cli,clique,2,0,0,,,,,,,false"

    @pytest.mark.parametrize("incomplete_side, source", [("chain", "blockchain"), ("soa", "SOA")])
    def test_input_without_a_complete_row_at_some_n_exits_1_naming_it(
            self, tmp_path, capsys, incomplete_side, source):
        texts = {side: f"{self.HEADER}\n{self.ROW}\n" for side in ("chain", "soa")}
        texts[incomplete_side] = f"{self.HEADER}\n{self.INCOMPLETE_ROW}\n"
        err = self.compare_fails(tmp_path, capsys, texts["chain"], texts["soa"])
        assert f"the {source} input has no complete trace at n_systems=2" in err


class TestValidateConfig:
    def test_valid_config_reports_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"topology": {"n_systems": 1}}')
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG

    def test_a_windows_path_names_the_scenario_by_its_file_name(
            self, tmp_path, capsys, monkeypatch):
        # Windows splits paths at backslashes; here the file's own name holds one.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "configs\\baseline.json").write_text("{}")
        monkeypatch.setattr(simkernel, "os", SimpleNamespace(path=ntpath))
        assert main(["validate-config", "--config", "configs\\baseline.json"]) == EXIT_OK
        assert "ok: scenario baseline " in capsys.readouterr().out


class TestBadConfigExits1:
    @pytest.mark.parametrize("overrides, reason", [
        ({"agents": {"deployment": {"container_start_s": -1}}},
         "agents.deployment.container_start_s must be non-negative"),
        ({"agents": {"tariffs": ["x"]}}, "agents.tariffs"),
        ({"agents": {"jitter_fraction": 1.5}}, "agents.jitter_fraction must be in [0, 1)"),
        ({"scenario_timeout_s": -5}, "scenario_timeout_s must be positive"),
        ({"runs": True}, "runs must be an integer"),
        ({"sweep": {"n_systems": [1, 10]}}, "sweep.n_systems"),
        ({"agents": {"reaction_delay_s": -1}}, "agents.reaction_delay_s must be non-negative"),
        ({"consensus": {"message_delay_s": -1}}, "consensus.message_delay_s must be non-negative"),
        ({"agents": {"genesis_balance": 1}},
         "agents.genesis_balance must be at least agents.announce_deposit"),
        ({"agents": {"announce_deposit": 1}},
         "agents.announce_deposit must be at least agents.sla.penalty"),
        ({"topology": 5}, "topology must be a JSON object"),
        ({"agents": []}, "agents must be a JSON object"),
        ({"agents": {"deployment": []}}, "agents.deployment must be a JSON object"),
        ({"agents": {"sla": []}}, "agents.sla must be a JSON object"),
        ({"output": []}, "output must be a JSON object"),
        ({"sweep": {"variants": 5}}, "sweep.variants must be a list"),
        ({"sweep": {"variants": "clique"}}, "sweep.variants must be a list"),
        ({"scenario_timeout_s": math.inf}, "scenario_timeout_s must be a finite number"),
        ({"consensus": {"block_period_s": math.inf}}, "consensus.block_period_s must be a finite number"),
        ({"consensus": {"block_period_s": math.nan}}, "consensus.block_period_s must be a finite number"),
        ({"agents": {"tariffs": [math.inf]}}, "agents.tariffs[0] must be a finite number"),
        ({"agents": {"tariffs": [0.1, math.nan]}}, "agents.tariffs[1] must be a finite number"),
        ({"agents": {"tariffs": []}}, "agents.tariffs must not be empty"),
        ({"scenario_timeout_s": 1e303}, "scenario_timeout_s must be a finite number"),
        ({"output": {"dir": 5}}, "output.dir must be a string"),
        ({"scenario_id": [1]}, "scenario_id must be a plain file name"),
        ({"agents": {"abstain_probability": 2}}, "agents.abstain_probability must be in [0, 1]"),
        ({"agents": {"abstain_probability": -1}}, "agents.abstain_probability must be in [0, 1]"),
        ({"agents": {"tariffs": [-1]}}, "agents.tariffs must be positive"),
        ({"agents": {"tariffs": [0.1, 0]}}, "agents.tariffs must be positive"),
        ({"agents": {"hour_of_day": 24}}, "agents.hour_of_day must be in 0..23"),
        ({"agents": {"time_factor_curve": [1.0, 1.0]}},
         "agents.time_factor_curve needs one multiplier per hour"),
        ({"agents": {"time_factor_curve": [1.0] * 23 + [0]}},
         "agents.time_factor_curve values must be positive"),
        ({"sweep": {"n_systems": []}}, "sweep.n_systems must not be empty"),
        ({"sweep": {"variants": []}}, "sweep.variants must not be empty"),
        ({"sweep": {"n_systems": [2, 10, 2]}}, "sweep.n_systems must not repeat a value"),
        ({"sweep": {"variants": ["clique", "soa", "clique"]}},
         "sweep.variants must not repeat a value"),
        ({"agents": {"tariffs": [1.7e302], "hour_of_day": 17}, "runs": 1},
         "agents.tariffs x time_factor_curve[hour_of_day] x (1 + jitter_fraction) must be finite"),
        ({"agents": {"time_factor_curve": [1e-30] * 24}, "runs": 1, "topology": {"n_systems": 10}},
         "agents.tariffs x time_factor_curve[hour_of_day] x (1 - jitter_fraction) "
         "must be at least 1 micro-unit"),
        ({"agents": {"genesis_balance": -1, "announce_deposit": -2, "sla": {"penalty": -3}},
          "runs": 1}, "agents.sla.penalty must be non-negative"),
        ({"agents": {"sla": {"min_availability": 7.5}}},
         "agents.sla.min_availability must be in [0, 1]"),
        ({"agents": {"sla": {"min_availability": -0.1}}},
         "agents.sla.min_availability must be in [0, 1]"),
        ({"agents": {"sla": {"max_latency_ms": -3}}},
         "agents.sla.max_latency_ms must be non-negative"),
        ({"topology": {"n_systems": 2, "split": [8, 2]}},
         "topology.split (8,2) does not sum to topology.n_systems=2"),
        ({"agents": {"deployment": {"container_start_s": 1e300}}, "runs": 1,
          "scenario_timeout_s": 1e301},
         "scenario_timeout_s must span at most 1000000 block periods"),
        ({"scenario_timeout_s": 1e7}, "scenario_timeout_s must span at most 1000000 block periods"),
        # A nonzero value that reads as 0 millionths is refused, whatever its sign.
        ({"scenario_timeout_s": 1e-7}, "scenario_timeout_s rounds to 0"),
        ({"consensus": {"block_period_s": 1e-7}}, "consensus.block_period_s rounds to 0"),
        ({"consensus": {"message_delay_s": -1e-7}}, "consensus.message_delay_s rounds to 0"),
        ({"agents": {"deployment": {"vxlan_setup_s": -1e-7}}},
         "agents.deployment.vxlan_setup_s rounds to 0"),
        ({"agents": {"sla": {"penalty": -1e-7}}}, "agents.sla.penalty rounds to 0"),
        ({"agents": {"sla": {"min_availability": -1e-7}}}, "agents.sla.min_availability rounds to 0"),
        ({"agents": {"sla": {"max_latency_ms": -0.0001}}}, "agents.sla.max_latency_ms rounds to 0"),
        # Each reason names the one key that failed.
        ({"consensus": {"block_period_s": 0}}, "consensus.block_period_s must be positive"),
        ({"consensus": {"validation_cost_s": -1}}, "consensus.validation_cost_s must be non-negative"),
        ({"topology": {"n_systems": 1}}, "topology.n_systems must be at least 2, got 1"),
        ({"consensus": {"algorithm": "raft"}}, "unknown variant 'raft' in consensus.algorithm"),
        ({"sweep": {"variants": ["clique", "pow"]}}, "unknown variant 'pow' in sweep.variants[1]"),
        ({"concurrency_mode": "bursty"}, "unknown concurrency_mode 'bursty'"),
        # Work no run could finish is refused from its estimate, before any run.
        ({"runs": 1000000000000},
         "runs=1000000000000 at topology.n_systems=2 make 5,000,000,000,000 transactions "
         "a cell, over the limit of 100,000,000"),
        ({"topology": {"n_systems": 100000000}},
         "topology.n_systems=100000000 makes 1,600,000,320,000,000 transactions a run, "
         "over the limit of 10,000,000"),
        ({"sweep": {"n_systems": [30, 20000]}},
         "sweep.n_systems=20000 makes 64,064,000 transactions a run, over the limit of 10,000,000"),
        # Of several bad values, one that cannot be read is reported first, and
        # then an inner record's rule before an outer record's.
        ({"agents": {"jitter_fraction": 1.5}, "scenario_timeout_s": True},
         "scenario_timeout_s must be a finite number"),
        ({"agents": {"abstain_probability": 2, "sla": {"penalty": -3}}},
         "agents.sla.penalty must be non-negative"),
    ], ids=["negative_container_start", "non_numeric_tariff", "jitter_above_one",
            "negative_timeout", "boolean_runs", "sweep_below_two_systems",
            "negative_reaction_delay", "negative_message_delay",
            "genesis_balance_below_deposit", "deposit_below_penalty",
            "topology_not_object", "agents_not_object", "deployment_not_object",
            "sla_not_object", "output_not_object", "sweep_variants_number",
            "sweep_variants_string", "infinite_timeout", "infinite_block_period",
            "nan_block_period", "infinite_tariff", "nan_tariff", "empty_tariffs",
            "timeout_beyond_microsecond_range", "non_string_output_dir",
            "non_string_scenario_id", "abstain_above_one", "abstain_below_zero",
            "negative_tariff", "zero_tariff", "hour_of_day_24", "two_entry_curve",
            "zero_time_factor", "empty_sweep_n_systems", "empty_sweep_variants",
            "repeated_sweep_n_systems", "repeated_sweep_variants", "infinite_top_bid_price",
            "lowest_bid_price_below_one_micro_unit",
            "negative_sla_penalty", "availability_above_one", "availability_below_zero",
            "negative_max_latency", "split_contradicting_n_systems",
            "timeout_of_a_never_ending_deployment", "timeout_beyond_a_million_blocks",
            "timeout_rounding_to_zero", "block_period_rounding_to_zero",
            "message_delay_rounding_to_zero", "vxlan_setup_rounding_to_zero",
            "sla_penalty_rounding_to_zero", "availability_rounding_to_zero",
            "max_latency_rounding_to_zero", "zero_block_period", "negative_validation_cost",
            "one_system", "unknown_algorithm", "unknown_sweep_variant",
            "unknown_concurrency_mode", "runs_beyond_the_work_limit_of_a_cell",
            "n_systems_beyond_the_work_limit_of_a_run", "sweep_beyond_the_work_limit_of_a_run",
            "unreadable_value_before_a_range_rule", "inner_record_rule_before_outer"])
    def test_rejected_in_parsing_with_one_line_reason(self, tmp_path, capsys, overrides, reason):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        for command in ("validate-config", "run", "sweep"):
            argv = [command, "--config", str(cfg)]
            if command != "validate-config":
                argv += ["--out", str(out)]
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("invalid config: ") and reason in err
            assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not_utf8", "nested_100000_deep"])
    def test_unreadable_json_exits_1_with_one_line_reason(self, tmp_path, capsys, content):
        cfg = tmp_path / "scenario.json"
        cfg.write_bytes(content)
        out = tmp_path / "out"
        for command in ("validate-config", "run", "sweep"):
            argv = [command, "--config", str(cfg)]
            if command != "validate-config":
                argv += ["--out", str(out)]
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("invalid config: config is not valid JSON: ")
            assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("scenario_id", ["../escaped", "..", "sub/name", "back\\slash"])
    def test_scenario_id_cannot_leave_the_output_directory(self, tmp_path, capsys, scenario_id):
        cfg = write_config(tmp_path, scenario_id=scenario_id)
        for command in ("run", "sweep"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
            assert "scenario_id must be a plain file name" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("at_limit, over_limit", [
        # 1000 consumers x (9996 providers + 4) transactions a run.
        ({"topology": {"split": [1000, 9996]}, "runs": 1},
         {"topology": {"split": [1000, 9997]}, "runs": 1}),
        # 5 transactions a run at N=2, the sweep's only size, in each of 2 x 10^7 runs.
        ({"runs": 20_000_000, "sweep": {"n_systems": [2]}},
         {"runs": 20_000_001, "sweep": {"n_systems": [2]}}),
    ], ids=["per_run", "per_cell"])
    def test_a_document_at_the_work_limit_is_valid(self, tmp_path, capsys, at_limit, over_limit):
        assert run_transactions(1000, 9996) == MAX_TXS_PER_RUN
        assert run_transactions(1, 1) * 20_000_000 == MAX_TXS_PER_CELL
        at, over = write_config(tmp_path, **at_limit), write_config(tmp_path, "over.json", **over_limit)
        assert main(["validate-config", "--config", str(at)]) == EXIT_OK
        assert main(["validate-config", "--config", str(over)]) == EXIT_CONFIG
        assert "over the limit of" in capsys.readouterr().err

    def test_genesis_balance_equal_to_deposit_is_valid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, agents={"genesis_balance": 10, "announce_deposit": 10})
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_lowest_bid_price_of_one_micro_unit_is_valid(self, tmp_path, capsys):
        # 2 micro-units x 1.0 x (1 - 0.5): the lowest drawable price is exactly 1.
        cfg = write_config(tmp_path, agents={"tariffs": [2e-6], "time_factor_curve": [1.0] * 24,
                                             "jitter_fraction": 0.5})
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_deposit_equal_to_penalty_is_valid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, agents={"announce_deposit": 2, "sla": {"penalty": 2}})
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
