"""Runs past the paper's N <= 30, checked byte for byte against the frozen
reference copy of the simulator in `perfbench/reference_edgefed`."""

import pytest

from edgefed import contract, ledger, metrics, simkernel
from perfbench.reference_edgefed import contract as ref_contract
from perfbench.reference_edgefed import ledger as ref_ledger
from perfbench.reference_edgefed import metrics as ref_metrics
from perfbench.reference_edgefed import simkernel as ref_simkernel

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


def outcome(modules, doc, tmp_path) -> tuple:
    """Trace CSV bytes, every block digest and the event log of one run."""
    sim, led, con, met = modules
    cfg = sim.parse_config({**doc, "runs": 1, "seed": 7}, scenario_id="oracle")
    result = sim.run_once(cfg, 0)
    path = tmp_path / f"{sim.__name__}.csv"
    met.write_csv(result.traces, path, cfg.scenario_id, cfg.variant, cfg.n_systems)
    return (
        path.read_bytes(),
        [led.block_digest(block) for block in result.blocks],
        con.event_log_lines(result.stamped_events),
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_the_frozen_reference(case, tmp_path):
    csv, digests, events = outcome(PROGRAM, CASES[case], tmp_path)
    ref_csv, ref_digests, ref_events = outcome(REFERENCE, CASES[case], tmp_path)
    assert csv == ref_csv
    assert digests == ref_digests
    assert events == ref_events
    assert b",true\n" in csv  # federations complete, so the comparison covers them
