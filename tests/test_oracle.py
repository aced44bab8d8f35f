"""Runs past the paper's N <= 30, the paper sweep itself, and trace export on
odd inputs, each checked byte for byte against the frozen reference copy of
the simulator in `perfbench/reference_edgefed`."""

from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgefed import cli, contract, ledger, metrics, simkernel, units
from perfbench.reference_edgefed import cli as ref_cli
from perfbench.reference_edgefed import contract as ref_contract
from perfbench.reference_edgefed import ledger as ref_ledger
from perfbench.reference_edgefed import metrics as ref_metrics
from perfbench.reference_edgefed import simkernel as ref_simkernel
from perfbench.reference_edgefed import units as ref_units

PROGRAM = (simkernel, ledger, contract, metrics)
REFERENCE = (ref_simkernel, ref_ledger, ref_contract, ref_metrics)

CASES = {
    # 96 consumers announce at once to 24 providers: 2,304 bids in one block.
    "clique_n120_all": {"topology": {"n_systems": 120}, "consensus": {"algorithm": "clique"}},
    # 240 consumers announce at once to 60 providers: 14,400 bids in one
    # block, the scale at which the bid path's per-transaction cost counts.
    "clique_n300_all": {"topology": {"n_systems": 300}, "consensus": {"algorithm": "clique"}},
    # One federation at a time with no delay anywhere, so every reaction is
    # scheduled at the instant its event is observed; a third of the
    # providers abstain.
    "qbft_n60_single_zero_delay": {
        "topology": {"n_systems": 60},
        "consensus": {"algorithm": "qbft", "message_delay_s": 0, "validation_cost_s": 0},
        "agents": {"reaction_delay_s": 0, "abstain_probability": 0.3},
        "concurrency_mode": "single",
        "scenario_timeout_s": 1500,
    },
}


TRACE_FIELDS = [f.name for f in fields(metrics.FederationTrace)]


def trace_fields(trace) -> dict:
    """A trace's fields, as this package names them. A trace is read off the
    chain, which shows when an announcement was submitted only once it is
    final, so a trace with no announcement id leaves that instant out."""
    return {name: getattr(trace, name) for name in TRACE_FIELDS
            if trace.ann_id is not None or name != "announce_submitted_us"}


def outcome(modules, doc, run_index, path) -> tuple:
    """One run of a scenario document, and its trace CSV bytes (written to
    `path`), every block digest, the event log and each trace's fields."""
    sim, led, con, met = modules
    cfg = sim.parse_config(doc, scenario_id="oracle")
    result = sim.run_once(cfg, run_index)
    met.write_csv(result.traces, path, cfg.scenario_id, cfg.variant, cfg.n_systems)
    return result, (
        path.read_bytes(),
        [led.block_digest(block) for block in result.blocks],
        con.event_log_lines(result.stamped_events),
        [trace_fields(trace) for trace in result.traces],
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_the_frozen_reference(case, tmp_path):
    doc = {**CASES[case], "runs": 1, "seed": 7}
    csv, digests, events, traces = outcome(PROGRAM, doc, 0, tmp_path / "program.csv")[1]
    ref_csv, ref_digests, ref_events, ref_traces = \
        outcome(REFERENCE, doc, 0, tmp_path / "reference.csv")[1]
    assert csv == ref_csv
    assert digests == ref_digests
    assert events == ref_events
    assert traces == ref_traces
    assert b",true\n" in csv  # federations complete, so the comparison covers them


def test_a_long_wait_in_empty_blocks_matches_the_frozen_reference():
    """One deployment that takes 50,000 s: the chain makes a block every
    period while it waits, 10,001 of its 10,006 blocks empty."""
    doc = {"agents": {"deployment": {"container_start_s": 50000}}, "runs": 1,
           "scenario_timeout_s": 100000, "seed": 7}
    chain, ref_chain = (sim.run_once(sim.parse_config(doc, scenario_id="oracle"), 0).blocks
                        for sim in (simkernel, ref_simkernel))
    assert len(chain) == len(ref_chain) == 10_006
    assert sum(not block.txs for block in chain) == 10_001
    assert [(block.timestamp_us, block.proposer.value, block.finality_time_us)
            for block in chain] == [(block.timestamp_us, block.proposer.value,
                                     block.finality_time_us) for block in ref_chain]
    assert chain[-1].parent_digest == ref_chain[-1].parent_digest


SWEEP_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "sweep.json"


def test_paper_sweep_matches_the_frozen_reference(tmp_path, capsys):
    """`edgefed sweep` on the paper's grid: every output file and stdout."""
    outputs = []
    for label, main in (("program", cli.main), ("reference", ref_cli.main)):
        out = tmp_path / label
        assert main(["sweep", "--config", str(SWEEP_CONFIG), "--seed", "7", "--out", str(out)]) == 0
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        outputs.append((files, capsys.readouterr().out))
    (files, stdout), (ref_files, ref_stdout) = outputs
    assert len(files) == 31  # 15 cells x (CSV, JSONL) and the summary
    assert files == ref_files
    assert stdout == ref_stdout


# -- export of odd inputs -------------------------------------------------------

ODD_IDS = ["plain", "a,b", 'say "hi"', "two\nlines", "100%s %d", "back\\slash", "héllo €, ☃"]
SECOND = units.MICRO
STAMPS = ("announce_submitted_us", "second_bid_finalized_us", "winner_finalized_us",
          "deployment_started_us", "confirm_finalized_us", "close_finalized_us")


def make_trace(run, ann_id, stamps, complete=True) -> metrics.FederationTrace:
    return metrics.FederationTrace(
        run=run, ann_id=ann_id, winner="p0" if complete else None,
        complete=complete, **dict(zip(STAMPS, stamps)),
    )


ODD_TRACES = [
    make_trace(0, 0, [0] * 6),  # every segment 0
    make_trace(1, None, [0, 2, 3, 4, 5, 6]),  # a null ann_id
    make_trace(2, 7, [0, 10**6 * SECOND, 10**6 * SECOND + 1,
                      3 * 10**6 * SECOND, 3 * 10**6 * SECOND + 999_999, 10**7 * SECOND]),
    make_trace(3, 8, [10 * SECOND, 5 * SECOND, 1, 2 * SECOND, 1_999_999, -SECOND]),  # negative
    make_trace(4, 9, [0, None, None, None, None, None], complete=False),
    make_trace(5, None, [None] * 6, complete=False),
]


def exported(met, traces, tmp_path, scenario_id, consensus="clique", n_systems=30) -> tuple:
    """The CSV and JSONL bytes written by one metrics module, or what it raised."""
    out = []
    for writer, suffix in ((met.write_csv, "csv"), (met.write_jsonl, "jsonl")):
        path = tmp_path / f"{met.__name__}.{suffix}"
        try:
            writer(traces, path, scenario_id, consensus, n_systems)
        except Exception as err:  # compared by type: both copies must fail alike
            out.append(type(err).__name__)
        else:
            out.append(path.read_bytes())
    return tuple(out)


def aggregated(met, traces):
    """`aggregate` as plain values, floats by repr so equality is bit-exact."""
    try:
        return repr(asdict(met.aggregate(traces)))
    except met.NoCompleteTraces:
        return "NoCompleteTraces"


@pytest.mark.parametrize("scenario_id", ODD_IDS)
def test_export_of_odd_inputs_matches_the_frozen_reference(scenario_id, tmp_path):
    csv, jsonl = exported(metrics, ODD_TRACES, tmp_path, scenario_id)
    assert (csv, jsonl) == exported(ref_metrics, ODD_TRACES, tmp_path, scenario_id)
    assert jsonl.count(b"\n") == len(ODD_TRACES)
    assert aggregated(metrics, ODD_TRACES) == aggregated(ref_metrics, ODD_TRACES)
    assert aggregated(metrics, ODD_TRACES[-2:]) == "NoCompleteTraces"


@pytest.mark.parametrize("value", [
    0, 1, -1, 999_999, -999_999, 10**6, -(10**6), 10**6 + 1, -(10**6) - 1,
    10**12, -(10**12) - 7, 2**63 - 1, -(2**63), 10**30 + 5,
])
def test_format_micro_matches_the_frozen_reference(value):
    assert units.format_micro(value) == ref_units.format_micro(value)


_STAMP = st.one_of(st.integers(-(10**13), 10**13), st.integers())
_STAMPS = st.lists(_STAMP, min_size=6, max_size=6)


def drawn_traces(stamps) -> st.SearchStrategy:
    return st.builds(
        lambda run, ann_id, stamps, complete: make_trace(
            run, ann_id, stamps if complete else [stamps[0]] + [None] * 5, complete),
        st.integers(0, 10**4), st.none() | st.integers(0, 10**6), stamps, st.booleans(),
    )


_TRACE = drawn_traces(_STAMPS)


@given(traces=st.lists(_TRACE, max_size=8), scenario_id=st.text(max_size=12),
       consensus=st.sampled_from(["clique", "qbft", "soa"]), n_systems=st.integers(2, 1000))
@settings(max_examples=150, deadline=None)
def test_export_of_drawn_traces_matches_the_frozen_reference(tmp_path_factory, traces,
                                                              scenario_id, consensus, n_systems):
    tmp_path = tmp_path_factory.mktemp("export")
    assert exported(metrics, traces, tmp_path, scenario_id, consensus, n_systems) == \
        exported(ref_metrics, traces, tmp_path, scenario_id, consensus, n_systems)
    assert aggregated(metrics, traces) == aggregated(ref_metrics, traces)


# -- export of repeated segment tuples ------------------------------------------

REPEATING_STAMPS = (
    [0, 2, 5, 9, 14, 20],  # segments 2, 3, 4, 5 and 6 µs, 20 µs in total
    [0, 3, 5, 9, 14, 20],  # the same segments with the first two swapped
    [SECOND, 3 * SECOND, 2 * SECOND + 1, 4 * SECOND, 4 * SECOND, 9 * SECOND],  # one negative
    [SECOND + 5, SECOND + 7, SECOND + 10, SECOND + 14, SECOND + 19, SECOND + 25],  # the first, later
)
REPEATED_TRACES = [
    make_trace(run, None, [run * SECOND] + [None] * 5, complete=False) if run % 9 == 4 else
    make_trace(run, None if run % 5 == 2 else 3 * run, REPEATING_STAMPS[run % 4])
    for run in range(50)
]


@pytest.mark.parametrize("scenario_id", ODD_IDS)
def test_export_of_repeated_segment_tuples_matches_the_frozen_reference(scenario_id, tmp_path):
    complete = [metrics.decompose(trace) for trace in REPEATED_TRACES if trace.complete]
    assert len(set(complete)) == 3 < len(complete)
    assert exported(metrics, REPEATED_TRACES, tmp_path, scenario_id) == \
        exported(ref_metrics, REPEATED_TRACES, tmp_path, scenario_id)


@given(traces=st.lists(_STAMPS, min_size=1, max_size=3).flatmap(
           lambda pool: st.lists(drawn_traces(st.sampled_from(pool)), max_size=12)),
       scenario_id=st.text(max_size=12))
@settings(max_examples=150, deadline=None)
def test_export_of_traces_drawn_from_few_stamps_matches_the_frozen_reference(
        tmp_path_factory, traces, scenario_id):
    tmp_path = tmp_path_factory.mktemp("export")
    assert exported(metrics, traces, tmp_path, scenario_id) == \
        exported(ref_metrics, traces, tmp_path, scenario_id)
