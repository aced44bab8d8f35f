"""Drawn scenario documents checked against the frozen reference copy of the
simulator in `perfbench/reference_edgefed`, and against the invariants that
must hold at any N: exact segment sums, funds conservation, replica
agreement at every height and byte-identical reruns.

Each document is parsed by each package's own `parse_config`, so the two
copies share only the JSON text.
"""

import sys
from contextlib import nullcontext
from dataclasses import astuple
from unittest import mock

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from edgefed import contract, metrics
from perfbench.reference_edgefed import contract as ref_contract

from test_oracle import PROGRAM, REFERENCE, outcome

# Valid documents. A federation takes about 20-30 simulated seconds once its
# announcement is in, so a timeout under a minute leaves some or all of them
# incomplete; in `single` mode, where they run one after another, so does a
# longer one at large N.
DOCUMENTS = st.fixed_dictionaries({
    "topology": st.fixed_dictionaries({"n_systems": st.integers(2, 120)}),
    "consensus": st.fixed_dictionaries({"algorithm": st.sampled_from(["clique", "qbft"])}),
    "agents": st.fixed_dictionaries({
        "abstain_probability": st.floats(0, 0.5),
        "jitter_fraction": st.floats(0, 0.3),
    }),
    "concurrency_mode": st.sampled_from(["single", "all_consumers_simultaneous"]),
    "scenario_timeout_s": st.integers(60, 2500) | st.integers(5, 60),
    "seed": st.integers(0, 2**32),
    "runs": st.just(1),
})


def _reference_phase_by_value():
    """The frozen reference writes its `Phase` (an IntEnum) into the state
    digest as str() does: its value from Python 3.11 on, but its name before.
    canonical writes the value on every Python, so before 3.11 the reference
    is replayed with the str() that 3.11 gives."""
    if sys.version_info >= (3, 11):
        return nullcontext()
    return mock.patch.object(ref_contract.Phase, "__str__", int.__repr__)


def replayed_state_digests(con, result) -> list:
    """The contract's state digest after each block, replayed into a fresh
    replica from the run's genesis."""
    replica = con.FederationContract(result.genesis)
    digests = []
    for block in result.blocks:
        replica.execute_block(block)
        digests.append(replica.state_digest())
    return digests


@given(doc=DOCUMENTS, run_index=st.integers(0, 3))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_drawn_run_matches_the_reference_and_keeps_its_invariants(tmp_path_factory, doc,
                                                                   run_index):
    tmp_path = tmp_path_factory.mktemp("drawn")
    result, observed = outcome(PROGRAM, doc, run_index, tmp_path / "program.csv")
    ref_result, expected = outcome(REFERENCE, doc, run_index, tmp_path / "reference.csv")
    assert observed == expected
    complete = sum(trace.complete for trace in result.traces)
    event("all complete" if complete == len(result.traces) else
          "none complete" if not complete else "some complete")

    for trace in result.traces:
        if trace.ann_id is None:  # the announcement is not final by the timeout
            assert (trace.announce_submitted_us, trace.winner) == (None, None)
        if trace.complete:
            *segments, total = astuple(metrics.decompose(trace))
            assert min(segments) >= 0
            assert sum(segments) == total == trace.close_finalized_us - trace.announce_submitted_us

    # Honest agents never submit a call the contract rejects.
    assert result.contract.rejected == []

    genesis_total = sum(micro for _, micro in result.genesis.balances)
    assert result.contract.total_funds_micro() == genesis_total

    digests = replayed_state_digests(contract, result)
    assert digests == replayed_state_digests(contract, result)
    with _reference_phase_by_value():
        assert digests == replayed_state_digests(ref_contract, ref_result)
    assert digests[-1] == result.contract.state_digest()

    assert outcome(PROGRAM, doc, run_index, tmp_path / "rerun.csv")[1] == observed
