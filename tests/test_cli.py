import json

import pytest

from edgefed.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main


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


class TestValidateConfig:
    def test_valid_config_reports_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"topology": {"n_systems": 1}}')
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG


class TestBadConfigExits1:
    @pytest.mark.parametrize("overrides, reason", [
        ({"agents": {"deployment": {"container_start_s": -1}}}, "deployment durations must be non-negative"),
        ({"agents": {"tariffs": ["x"]}}, "agents.tariffs"),
        ({"agents": {"jitter_fraction": 1.5}}, "jitter fraction"),
        ({"scenario_timeout_s": -5}, "scenario timeout must be positive"),
        ({"runs": True}, "runs and seed must be integers"),
        ({"sweep": {"n_systems": [1, 10]}}, "sweep.n_systems"),
        ({"agents": {"reaction_delay_s": -1}}, "agent delays must be non-negative"),
        ({"consensus": {"message_delay_s": -1}}, "consensus delays must be non-negative"),
        ({"agents": {"genesis_balance": 1}},
         "agents.genesis_balance must be at least agents.announce_deposit"),
    ], ids=["negative_container_start", "non_numeric_tariff", "jitter_above_one",
            "negative_timeout", "boolean_runs", "sweep_below_two_systems",
            "negative_reaction_delay", "negative_message_delay",
            "genesis_balance_below_deposit"])
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

    def test_genesis_balance_equal_to_deposit_is_valid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, agents={"genesis_balance": 10, "announce_deposit": 10})
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
