import gc
import hashlib
import heapq
import itertools
import re
import weakref
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgefed import simkernel
from edgefed.agents import ConsumerAgent, DeploymentModel, PricingContext, ProviderAgent
from edgefed.canonical import digest
from edgefed.contract import (
    BidPlaced,
    ContractGenesis,
    FederationClosed,
    FederationContract,
    ServiceAnnounced,
    SlaTerms,
)
from edgefed.ledger import Address, Algorithm, ConsensusConfig, block_digest
from edgefed.metrics import read_csv, write_csv
from edgefed.simkernel import (
    MODE_ALL,
    MODE_SINGLE,
    AgentParams,
    ConfigInvalid,
    EventQueue,
    ScenarioConfig,
    SchedulingInPast,
    SeededRng,
    TooFewSystems,
    _ChainRun,
    build_cell,
    build_consensus,
    build_participants,
    generate_topology,
    load_config,
    parse_config,
    run_once,
    run_scenario,
)
from edgefed.units import check_field_types, to_micro

from conftest import scenario

_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestEventQueue:
    def test_fire_time_then_sequence_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(to_micro(1.0), lambda: fired.append("t1-first"))
        queue.schedule(to_micro(1.0), lambda: fired.append("t1-second"))
        queue.schedule(to_micro(2.0), lambda: fired.append("t2"))
        while queue.step():
            pass
        assert fired == ["t1-first", "t1-second", "t2"]

    def test_scheduling_in_past_rejected(self):
        queue = EventQueue()
        queue.schedule(to_micro(1.0), lambda: None)
        queue.step()
        with pytest.raises(SchedulingInPast):
            queue.schedule(to_micro(0.5), lambda: None)

    def test_empty_queue_signals_end(self):
        queue = EventQueue()
        assert queue.step() is None
        assert queue.peek_time() is None

    def test_an_action_scheduled_now_runs_in_the_next_step_after_its_bucket(self):
        queue = EventQueue()
        fired = []

        def first():
            fired.append("first")
            queue.schedule(queue.now_us, lambda: fired.append("now"))

        queue.schedule(to_micro(1.0), first)
        queue.schedule(to_micro(1.0), lambda: fired.append("second"))
        queue.schedule(to_micro(2.0), lambda: fired.append("later"))
        assert queue.step() and fired == ["first", "second"]
        assert queue.peek_time() == to_micro(1.0)
        assert queue.step() and fired == ["first", "second", "now"]
        assert queue.step() and fired[-1] == "later" and queue.step() is None

    def test_each_action_is_released_before_the_next_in_its_bucket_runs(self):
        queue = EventQueue()
        refs, alive = [], []

        class Action:
            def __call__(self):
                alive.append([ref() is not None for ref in refs])

        for _ in range(4):
            action = Action()
            refs.append(weakref.ref(action))
            queue.schedule(to_micro(1.0), action)
        del action
        queue.step()
        assert alive == [[True, True, True, True], [False, True, True, True],
                         [False, False, True, True], [False, False, False, True]]
        assert not any(ref() for ref in refs)

    def test_clock_is_monotone(self):
        queue = EventQueue()
        seen = []
        for t in (3.0, 1.0, 2.0):
            queue.schedule(to_micro(t), lambda t=t: seen.append(queue.now_us))
        while queue.step():
            pass
        assert seen == sorted(seen)


class HeapModel:
    """The event queue as one plain heap of (fire time, sequence, action),
    stepped one instant at a time."""

    def __init__(self):
        self._heap = []
        self._seq = itertools.count()
        self.now_us = 0

    def schedule(self, fire_us, action):
        if fire_us < self.now_us:
            raise SchedulingInPast(fire_us)
        heapq.heappush(self._heap, (fire_us, next(self._seq), action))

    def peek_time(self):
        return self._heap[0][0] if self._heap else None

    def step(self):
        """Pop every entry due at the earliest instant, then run them; what
        they schedule at that instant waits for the next step."""
        if not self._heap:
            return None
        self.now_us = self._heap[0][0]
        due = []
        while self._heap and self._heap[0][0] == self.now_us:
            due.append(heapq.heappop(self._heap)[2])
        for action in due:
            action()
        return True


def drive(queue, initial, plan) -> list:
    """Everything `queue` reports while it runs a drawn schedule.

    `initial` holds the fire times scheduled up front. The k-th action to
    fire schedules one action per offset in `plan[k]`, at the clock plus
    that offset: 0 is the current instant, also after its own bucket has
    drained, and -1 is in the past. Each action logs its name and the clock
    when it fires, so the log fixes the dispatch order.
    """
    log, fired = [], itertools.count()

    def action(name):
        def run():
            k = next(fired)
            log.append(("fire", name, queue.now_us))
            for j, offset in enumerate(plan[k] if k < len(plan) else ()):
                try:
                    log.append(("scheduled", queue.schedule(queue.now_us + offset,
                                                            action(f"{name}.{j}"))))
                except SchedulingInPast:
                    log.append(("past", queue.now_us + offset))
        return run

    for i, fire_us in enumerate(initial):
        log.append(("scheduled", queue.schedule(fire_us, action(str(i)))))
    while True:
        log.append(("state", queue.peek_time()))
        result = queue.step()
        log.append(("step", result))
        if result is None:
            return log


@given(
    initial=st.lists(st.integers(0, 4), max_size=8),
    plan=st.lists(st.lists(st.integers(-1, 2), max_size=4), max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_event_queue_matches_a_heap_model(initial, plan):
    assert drive(EventQueue(), initial, plan) == drive(HeapModel(), initial, plan)


class TestSeededRng:
    def test_same_stream_reproduces(self):
        a = SeededRng(42).stream("pricing/run0/p0")
        b = SeededRng(42).stream("pricing/run0/p0")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        base = SeededRng(42)
        first = [base.stream("pricing/run0/p0").random() for _ in range(3)]
        # Drawing from an unrelated stream must not perturb the original.
        base.stream("tariffs/run0").random()
        second = [base.stream("pricing/run0/p0").random() for _ in range(3)]
        assert first == second

    def test_different_seeds_differ(self):
        assert SeededRng(1).stream("s").random() != SeededRng(2).stream("s").random()


class TestTopology:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, (1, 1)), (10, (8, 2)), (15, (12, 3)), (25, (20, 5)), (30, (24, 6))],
    )
    def test_reference_splits(self, n, expected):
        assert generate_topology(n) == expected

    def test_rounding_rule_for_other_sizes(self):
        assert generate_topology(7) == (6, 1)
        assert generate_topology(8) == (6, 2)
        assert generate_topology(40) == (32, 8)

    def test_at_least_one_provider(self):
        assert generate_topology(3)[1] == 1

    def test_too_few_systems(self):
        with pytest.raises(TooFewSystems):
            generate_topology(1)


class TestRoles:
    def test_every_system_has_exactly_one_role(self):
        cfg = scenario(n=10)
        parts = build_participants(cfg)
        everyone = set(parts.consumers) | set(parts.providers) | {parts.bootstrap}
        assert len(everyone) == cfg.n_systems + 1
        assert not (set(parts.consumers) & set(parts.providers))

    @given(st.integers(0, 2**64), st.integers(2, 80))
    @settings(max_examples=50, deadline=None)
    def test_role_lists_are_in_address_order(self, seed, n):
        cfg = scenario(n=n, seed=seed)
        parts = build_participants(cfg)
        for role, count in ((parts.consumers, cfg.consumers), (parts.providers, cfg.providers)):
            assert type(role) is tuple and len(role) == count
            assert all(a < b for a, b in zip(role, role[1:]))  # Address.__lt__

    def test_validators_are_providers_plus_bootstrap(self):
        cfg = scenario(n=15, variant="qbft")
        parts = build_participants(cfg)
        consensus = build_consensus(cfg, parts)
        assert consensus.algorithm is Algorithm.QBFT
        assert set(consensus.validators) == set(parts.providers) | {parts.bootstrap}


class TestRunScenario:
    def test_identical_configs_replay_identically(self):
        cfg = scenario(n=2, runs=1, seed=7)
        assert run_scenario(cfg) == run_scenario(cfg)
        assert digest(run_scenario(cfg)) == digest(run_scenario(cfg))

    def test_twenty_runs_yield_one_trace_per_consumer_per_run(self):
        cfg = scenario(n=10, runs=20)
        traces = run_scenario(cfg)
        assert len(traces) == 20 * 8

    def test_traces_in_run_then_announcement_order(self):
        traces = run_scenario(scenario(n=10, runs=2))
        keys = [(t.run, t.ann_id) for t in traces]
        assert keys == sorted(keys)

    def test_short_timeout_marks_traces_incomplete(self):
        cfg = replace(scenario(n=2, runs=1), timeout_us=to_micro(1.0))
        traces = run_scenario(cfg)
        assert [t.complete for t in traces] == [False]

    def test_fresh_genesis_per_run(self):
        cfg = scenario(n=2, runs=2)
        first = run_once(cfg, 0)
        second = run_once(cfg, 1)
        assert first.blocks[0] == second.blocks[0]
        assert len(first.blocks) == len(second.blocks)

    def test_single_mode_serializes_federations(self):
        cfg = replace(scenario(n=4, runs=1), concurrency_mode=MODE_SINGLE)
        traces = run_scenario(cfg)
        assert all(t.complete for t in traces)
        starts = sorted(t.announce_submitted_us for t in traces)
        closes = sorted(t.close_finalized_us for t in traces)
        # Next federation starts only after the previous close lands on-chain.
        assert all(s > c for s, c in zip(starts[1:], closes))

    def test_runs_are_isolated(self):
        cfg = scenario(n=2, runs=3)
        per_run = [run_once(cfg, r).traces for r in range(3)]
        whole = run_scenario(cfg)
        flat = [t for chunk in per_run for t in chunk]
        assert flat == whole

    def test_qbft_chain_stays_valid(self):
        chain = run_once(scenario(n=10, variant="qbft", runs=1), 0).blocks
        for prev, block in zip(chain, chain[1:]):
            assert block.height == prev.height + 1
            assert block.parent_digest == block_digest(prev)

    def test_agents_submit_every_call_the_contract_handles(self):
        # A handler no agent reaches is dead code: delete it with its call type.
        submitted = set()
        for cfg in (scenario(n=10, variant="clique"),
                    replace(scenario(n=10, variant="qbft"), concurrency_mode=MODE_SINGLE)):
            for block in run_once(cfg, 0).blocks:
                submitted.update(type(tx.payload) for tx in block.txs)
        assert submitted == set(FederationContract._HANDLERS)


_BUILDERS = ("build_participants", "build_profiles", "build_genesis", "build_consensus")


def count_builds(monkeypatch) -> dict:
    """Calls to each cell builder made from now on, by name."""
    counts = dict.fromkeys(_BUILDERS, 0)
    for name in _BUILDERS:
        def counting(*args, _name=name, _original=getattr(simkernel, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(simkernel, name, counting)
    return counts


class TestCell:
    """A cell, what every run of one config shares, is built once per
    run_scenario; each run still makes its own streams, ledger and agents."""

    @pytest.mark.parametrize("variant, builders", [
        ("clique", _BUILDERS),
        ("qbft", _BUILDERS),
        ("soa", ("build_participants", "build_profiles")),
    ])
    def test_run_scenario_builds_its_cell_once(self, monkeypatch, variant, builders):
        counts = count_builds(monkeypatch)
        traces = run_scenario(scenario(n=10, variant=variant, runs=5))
        assert len(traces) == 5 * 8
        assert counts == {name: int(name in builders) for name in _BUILDERS}

    @pytest.mark.parametrize("variant", ["clique", "qbft", "soa"])
    def test_a_shared_cell_gives_the_runs_a_fresh_one_gives(self, variant):
        # Abstention is drawn per run, from the cell's shared profiles.
        cfg = scenario(n=10, variant=variant, runs=3)
        cfg = replace(cfg, agents=replace(cfg.agents, abstain_probability=0.3))
        cell = build_cell(cfg)
        for run_index in range(cfg.runs):
            shared, fresh = run_once(cfg, run_index, cell), run_once(cfg, run_index)
            assert shared.traces == fresh.traces
            assert shared.blocks == fresh.blocks
            assert digest(shared.blocks) == digest(fresh.blocks)
            if variant != "soa":
                assert shared.contract.state_digest() == fresh.contract.state_digest()


@pytest.fixture
def restore_collector():
    """Puts the cyclic collector back as it was, whatever the test left."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def spy_on_blocks(monkeypatch, fail: bool = False) -> list:
    """gc.isenabled() at each block executed from now on; each raises if `fail`."""
    seen = []
    original = FederationContract.execute_block

    def spy(self, block):
        seen.append(gc.isenabled())
        if fail:
            raise RuntimeError("block failed")
        return original(self, block)

    monkeypatch.setattr(FederationContract, "execute_block", spy)
    return seen


class TestCollector:
    """A run pauses the cyclic collector and leaves it as its caller had it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["entered_enabled", "entered_disabled"])
    def test_the_result_is_built_before_the_collector_resumes(
            self, monkeypatch, restore_collector, enabled):
        seen = []

        def traces(self, _original=_ChainRun._traces):
            seen.append(("traces", gc.isenabled()))
            return _original(self)

        def result(_original=simkernel.RunResult, **kwargs):
            seen.append(("result", gc.isenabled()))
            return _original(**kwargs)

        monkeypatch.setattr(_ChainRun, "_traces", traces)
        monkeypatch.setattr(simkernel, "RunResult", result)
        (gc.enable if enabled else gc.disable)()
        assert run_once(scenario(n=10), 0).traces[0].complete
        assert gc.isenabled() is enabled
        assert seen == [("traces", False), ("result", False)]

    @pytest.mark.parametrize("enabled", [True, False], ids=["entered_enabled", "entered_disabled"])
    def test_run_once_leaves_the_collector_as_it_found_it(
            self, monkeypatch, restore_collector, enabled):
        seen = spy_on_blocks(monkeypatch)
        (gc.enable if enabled else gc.disable)()
        assert run_once(scenario(n=10), 0).traces[0].complete
        assert gc.isenabled() is enabled
        assert seen and not any(seen)

    def test_a_run_whose_step_raises_restores_the_collector(
            self, monkeypatch, restore_collector):
        seen = spy_on_blocks(monkeypatch, fail=True)
        gc.enable()
        with pytest.raises(RuntimeError, match="block failed"):
            run_once(scenario(n=10), 0)
        assert gc.isenabled()
        assert seen == [False]


def record_handle_calls(monkeypatch) -> list:
    """(agent, event, whether the call scheduled anything) for every agent
    handle call made from now on."""
    calls = []
    for cls in (ConsumerAgent, ProviderAgent):
        def counting(self, event, observed_us, _original=cls.handle):
            scheduled = []
            schedule = self.schedule
            self.schedule = lambda *args: scheduled.append(args) or schedule(*args)
            try:
                return _original(self, event, observed_us)
            finally:
                self.schedule = schedule
                calls.append((self, event, bool(scheduled)))

        monkeypatch.setattr(cls, "handle", counting)
    return calls


def deliver_next_block(run: _ChainRun, events=None):
    """Produce and execute the run's next block, then deliver `events`, or
    the events the contract gave, as the kernel would at its finality."""
    block = run.ledger.produce_block(run.ledger.next_block_time_us())
    executed = run.contract.execute_block(block)
    run._deliver(block, executed if events is None else events)
    return executed


def announce(run: _ChainRun, owner: ConsumerAgent) -> int:
    """Submit `owner`'s announcement, deliver its block; the contract's ann_id."""
    owner.announce(0)
    (announced,) = deliver_next_block(run)
    assert type(announced) is ServiceAnnounced
    return announced.ann_id


class TestRoutedDelivery:
    def test_events_reach_only_the_agents_they_concern(self, monkeypatch):
        calls = record_handle_calls(monkeypatch)
        cfg = scenario(n=10)
        run = _ChainRun(cfg, 0, build_cell(cfg))
        owner = run.consumers[3]
        ann_id = announce(run, owner)
        assert [agent for agent, _, _ in calls] == run.providers
        assert run._consumer_by_ann[ann_id] is owner

        calls.clear()
        deliver_next_block(run, [BidPlaced(ann_id=ann_id, bid_count=1),
                                 FederationClosed(ann_id=ann_id)])
        assert calls == []

    @pytest.mark.parametrize("n, min_offers", [(10, 2), (2, 1)])
    def test_only_the_min_offers_bid_reaches_its_consumer(
            self, monkeypatch, n, min_offers):
        calls = record_handle_calls(monkeypatch)
        cfg = scenario(n=n)
        run = _ChainRun(cfg, 0, build_cell(cfg))
        assert run.genesis.min_offers == min_offers
        owner = run.consumers[-1]
        ann_id = announce(run, owner)
        calls.clear()
        deliver_next_block(run, [BidPlaced(ann_id=ann_id, bid_count=count) for count in (1, 2, 3)])
        assert calls == [(owner, BidPlaced(ann_id=ann_id, bid_count=min_offers), True)]

    @pytest.mark.parametrize("variant, mode", [("clique", MODE_ALL), ("qbft", MODE_SINGLE)],
                             ids=["clique_all", "qbft_single"])
    def test_consumers_sharing_one_app_id_federate_as_with_their_own(self, variant, mode):
        # An announcement reaches its consumer through the sender the contract
        # recorded, and the app id sets no timing, so sharing it changes no trace.
        cfg = scenario(n=10, variant=variant, concurrency_mode=mode)
        cell = build_cell(cfg)
        shared = replace(cell, consumer_profiles=tuple(
            replace(p, announcement=replace(p.announcement, requirements=replace(
                p.announcement.requirements, app_id="app-shared")))
            for p in cell.consumer_profiles))
        traces = run_once(cfg, 0, shared).traces
        assert [asdict(t) for t in traces] == [asdict(t) for t in run_once(cfg, 0, cell).traces]
        assert all(t.complete for t in traces)

    # Per-run handle calls: per federation, the announcement reaches every
    # provider that bids in the run, the bid reaching min_offers and the
    # confirmation reach the consumer, and the selection reaches only the
    # winner. At N=30 (24 consumers, 6 providers) that is 24 x (6 + 1 + 1 + 1)
    # = 216; at N=10 in single mode (8 consumers, 2 providers) it is
    # 8 x (2 + 1 + 1 + 1) = 40. With abstention at N=30, seed 7, one provider
    # sits the run out: 24 x (5 + 1 + 1 + 1) = 192. Broadcast made 7,200 at
    # N=30. The digests were recorded from broadcast delivery, and the
    # abstention row's from abstainers that received announcements and
    # ignored them; routing must not change a byte of the traces.
    @pytest.mark.parametrize("n, variant, mode, abstain_probability, handle_calls, csv_sha256", [
        (30, "clique", None, 0.0, 216,
         "a3ddfe9b045fd3110cde18c703810da5c0b211fbe99744b82a019719d0207961"),
        (30, "qbft", None, 0.0, 216,
         "94d7c49147ccd1ca7ac312933fdae3de3150c7f0cae0c93feb81ff2b3afa90f5"),
        (10, "qbft", "single", 0.0, 40,
         "6b3ac6d969fad474365a82cc93c873db71adcd08dee859b064a3ded66e08678b"),
        (30, "clique", None, 0.3, 192,
         "e978c90ae2b1f735832c54c48f1616d950ba7552b42fefd7485f05211597bc16"),
    ])
    def test_routing_keeps_traces_and_bounds_handle_calls(
            self, tmp_path, monkeypatch, n, variant, mode, abstain_probability, handle_calls,
            csv_sha256):
        doc = {"scenario_id": "route", "topology": {"n_systems": n},
               "consensus": {"algorithm": variant}, "runs": 1, "seed": 7,
               "agents": {"abstain_probability": abstain_probability}}
        if mode:
            doc["concurrency_mode"] = mode
        cfg = parse_config(doc)
        calls = record_handle_calls(monkeypatch)
        traces = run_scenario(cfg)
        assert len(calls) == handle_calls
        # Every call acts: it schedules a reaction.
        assert all(acted for _, _, acted in calls)
        path = tmp_path / "trace.csv"
        write_csv(traces, path, cfg.scenario_id, cfg.variant, cfg.n_systems)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha256


class TestTracesFromTheChain:
    """QBFT at N=10, seed 7: block 1, with the announcements, is produced at
    5 s and final at 5.25 s; block 2, with the bids, at 10 s and 10.25 s. A
    trace holds a step once its block is final by the timeout, and not once
    the block is merely produced."""

    def run(self, timeout_s: float):
        return run_once(scenario(n=10, variant="qbft", timeout_us=to_micro(timeout_s)), 0)

    def test_the_blocks_are_where_the_cases_need_them(self):
        blocks = self.run(10.5).blocks
        assert [(b.timestamp_us, b.finality_time_us) for b in blocks[1:3]] == [
            (to_micro(5.0), to_micro(5.25)), (to_micro(10.0), to_micro(10.25))]

    def test_an_announcement_produced_but_not_final_gives_no_ann_id(self, tmp_path):
        result = self.run(5.1)
        assert result.blocks[1].timestamp_us == to_micro(5.0)
        assert [t.ann_id for t in result.traces] == [None] * 8
        assert [t.announce_submitted_us for t in result.traces] == [None] * 8
        path = tmp_path / "trace.csv"
        write_csv(result.traces, path, "edge", "qbft", 10)
        assert [row["ann_id"] for row in read_csv(path)] == [None] * 8

    @pytest.mark.parametrize("timeout_s, second_bid_us", [(10.2, None), (10.5, to_micro(10.25))])
    def test_the_second_bid_counts_from_its_finality(self, timeout_s, second_bid_us):
        traces = self.run(timeout_s).traces
        assert [t.ann_id for t in traces] == list(range(8))
        assert [t.second_bid_finalized_us for t in traces] == [second_bid_us] * 8


class TestConfigParsing:
    def test_minimal_document_gets_defaults(self):
        assert parse_config({}, scenario_id="x") == ScenarioConfig(scenario_id="x")

    def test_readme_defaults_block_is_the_dataclass_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Defaults shown:\n\n```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.json"
        path.write_text(block, encoding="utf-8")
        assert load_config(path) == ScenarioConfig(scenario_id="baseline", output_dir="edgefed-out")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigInvalid, match="unknown key"):
            parse_config({"topollogy": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigInvalid, match="consensus"):
            parse_config({"consensus": {"blockperiod": 5}})

    def test_split_must_sum_to_n(self):
        with pytest.raises(ConfigInvalid):
            parse_config({"topology": {"n_systems": 10, "split": [5, 4]}})

    def test_split_alone_sets_n_systems(self):
        cfg = parse_config({"topology": {"split": [8, 2]}})
        assert (cfg.n_systems, cfg.consumers, cfg.providers) == (10, 8, 2)
        with pytest.raises(ConfigInvalid, match=r"topology.split must be \[consumers, providers\]"):
            parse_config({"topology": {"split": [8, 2, 1]}})

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_config({"consensus": {"algorithm": "raft"}})

    def test_sweep_axes_validated(self):
        with pytest.raises(ConfigInvalid):
            parse_config({"sweep": {"variants": ["clique", "pow"]}})

    def test_load_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_load_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid, match="not valid JSON"):
            load_config(path)

    def test_scenario_id_defaults_to_file_stem(self, tmp_path):
        path = tmp_path / "myscenario.json"
        path.write_text("{}")
        assert load_config(path).scenario_id == "myscenario"

    def test_bundled_configs_validate(self):
        baseline = load_config("configs/baseline.json")
        assert baseline.scenario_id == "baseline"
        assert baseline.n_systems == 2
        sweep = load_config("configs/sweep.json")
        assert sweep.sweep_n == (2, 10, 15, 25, 30)
        assert sweep.sweep_variants == ("clique", "qbft", "soa")

    @pytest.mark.parametrize("name", sorted(p.name for p in _CONFIGS.glob("*.json")))
    def test_a_bundled_config_hashes_and_equals_a_second_load_of_itself(self, name):
        first, second = load_config(_CONFIGS / name), load_config(_CONFIGS / name)
        assert first == second and hash(first) == hash(second)

    def test_timeout_and_modes(self):
        cfg = parse_config({"concurrency_mode": "single", "scenario_timeout_s": 10.0})
        assert cfg.concurrency_mode == MODE_SINGLE
        assert cfg.timeout_us == to_micro(10.0)
        with pytest.raises(ConfigInvalid):
            parse_config({"concurrency_mode": "bursty"})

    def test_a_record_refusal_reaches_the_caller_unconverted(self):
        with pytest.raises(ConfigInvalid, match="agents.hour_of_day must be in 0..23") as caught:
            parse_config({"agents": {"hour_of_day": 24}})
        assert caught.value.__cause__ is None and caught.value.__context__ is None

    def test_a_value_that_cannot_be_read_is_reported_before_any_range_rule(self):
        # The agents object comes first, but no record is built until the
        # whole document has been read.
        with pytest.raises(ConfigInvalid, match="^runs must be an integer$"):
            parse_config({"agents": {"jitter_fraction": 1.5}, "runs": True})

    def test_ranges_apply_to_the_rounded_value(self):
        cfg = parse_config({"agents": {"sla": {"min_availability": 1.0000004}}})
        assert cfg.agents.sla.min_availability_micro == to_micro(1.0)
        # Only a nonzero value that rounds to 0 is refused; a zero is read as 0.
        for zero in (0, 0.0, -0.0):
            assert parse_config({"consensus": {"message_delay_s": zero}}).message_delay_us == 0


class TestScenarioConfigInvariants:
    def test_split_consistency_enforced(self):
        with pytest.raises(ConfigInvalid):
            ScenarioConfig(n_systems=5, consumers=1, providers=1)

    @pytest.mark.parametrize("scenario_id", ["", ".", "..", "../x", "a/b", "a\\b", "a\0b", [1], None],
                             ids=["empty", "dot", "dotdot", "parent", "slash", "backslash", "nul",
                                  "list", "none"])
    def test_scenario_id_must_be_a_plain_file_name(self, scenario_id):
        with pytest.raises(ConfigInvalid, match="scenario_id must be a plain file name"):
            ScenarioConfig(scenario_id=scenario_id)

    def test_positive_roles_enforced(self):
        with pytest.raises(ConfigInvalid):
            ScenarioConfig(n_systems=2, consumers=2, providers=0)


_FOUR_VALIDATORS = tuple(Address.derive("validator", i) for i in range(4))


@pytest.mark.parametrize("build, reason", [
    (lambda: ScenarioConfig(timeout_us=0), "scenario_timeout_s must be positive"),
    (lambda: ScenarioConfig(block_period_us=0), "consensus.block_period_s must be positive"),
    (lambda: AgentParams(reaction_delay_us=-1), "agents.reaction_delay_s must be non-negative"),
    (lambda: PricingContext(hour_of_day=24, time_factor_curve=(1.0,) * 24),
     "agents.hour_of_day must be in 0..23"),
    (lambda: DeploymentModel(vxlan_setup_us=-1),
     "agents.deployment.vxlan_setup_s must be non-negative"),
    (lambda: ConsensusConfig(Algorithm.CLIQUE, 0, validators=_FOUR_VALIDATORS),
     "consensus.block_period_s must be positive"),
    (lambda: ConsensusConfig(Algorithm.QBFT, 5_000_000, message_delay_us=-10**6,
                             validators=_FOUR_VALIDATORS),
     "consensus.message_delay_s must be non-negative"),
    (lambda: ContractGenesis(min_offers=0), "min_offers must be at least 1, got 0"),
    (lambda: generate_topology(1), "topology.n_systems must be at least 2, got 1"),
    (lambda: SlaTerms(990_000, 50_000, -1), "agents.sla.penalty must be non-negative"),
    (lambda: SlaTerms(990_000, -1, 2_000_000), "agents.sla.max_latency_ms must be non-negative"),
    (lambda: SlaTerms(1_000_001, 50_000, 2_000_000),
     "agents.sla.min_availability must be in [0, 1]"),
], ids=["scenario_timeout", "scenario_block_period", "agent_reaction_delay", "pricing_hour",
        "deployment_vxlan_setup", "consensus_block_period", "consensus_negative_message_delay",
        "genesis_min_offers", "topology_one_system", "sla_negative_penalty",
        "sla_negative_max_latency", "sla_availability_above_one"])
def test_each_config_record_refuses_a_bad_value_with_one_exception_type(build, reason):
    """A library caller building a record directly is refused as a document is:
    by `ConfigInvalid`, which is a `ValueError`."""
    with pytest.raises(ValueError, match=re.escape(reason)) as caught:
        build()
    assert isinstance(caught.value, ConfigInvalid)


@pytest.mark.parametrize("build, reason", [
    (lambda: ScenarioConfig(runs="3"), "ScenarioConfig.runs must be an int, got '3'"),
    (lambda: ContractGenesis(min_offers="2"), "ContractGenesis.min_offers must be an int, got '2'"),
    (lambda: DeploymentModel(container_start_us="1"),
     "DeploymentModel.container_start_us must be an int, got '1'"),
    (lambda: ScenarioConfig(n_systems=2.0, consumers=1, providers=1.0),
     "ScenarioConfig.n_systems must be an int, got 2.0"),
    (lambda: ScenarioConfig(block_period_us=5e6),
     "ScenarioConfig.block_period_us must be an int, got 5000000.0"),
    (lambda: AgentParams(deposit_micro=1e7), "AgentParams.deposit_micro must be an int, got 10000000.0"),
    (lambda: ScenarioConfig(seed=1.5), "ScenarioConfig.seed must be an int, got 1.5"),
    (lambda: ScenarioConfig(runs=True), "ScenarioConfig.runs must be an int, got True"),
    (lambda: ScenarioConfig(sweep_n=(2, 10.0)), "ScenarioConfig.sweep_n[1] must be an int, got 10.0"),
    (lambda: ScenarioConfig(sweep_n=10), "ScenarioConfig.sweep_n must be a tuple, got 10"),
    (lambda: AgentParams(tariffs_micro=(100_000, "1")),
     "AgentParams.tariffs_micro[1] must be an int, got '1'"),
    (lambda: AgentParams(sla=replace(AgentParams().sla, penalty_micro=2e6)),
     "SlaTerms.penalty_micro must be an int, got 2000000.0"),
    (lambda: AgentParams(abstain_probability="0"),
     "AgentParams.abstain_probability must be a number, got '0'"),
    (lambda: PricingContext(hour_of_day=12.0, time_factor_curve=(1.0,) * 24),
     "PricingContext.hour_of_day must be an int, got 12.0"),
    (lambda: PricingContext(hour_of_day=12, time_factor_curve=(1.0,) * 23 + (None,)),
     "PricingContext.time_factor_curve[23] must be a number, got None"),
    (lambda: PricingContext(hour_of_day=12, time_factor_curve=(1.0,) * 24, jitter_fraction=False),
     "PricingContext.jitter_fraction must be a number, got False"),
    (lambda: ConsensusConfig(Algorithm.CLIQUE, 5e6, validators=_FOUR_VALIDATORS),
     "ConsensusConfig.block_period_us must be an int, got 5000000.0"),
    (lambda: ConsensusConfig("clique", 5_000_000, validators=_FOUR_VALIDATORS),
     "ConsensusConfig.algorithm must be an Algorithm, got 'clique'"),
    (lambda: ScenarioConfig(agents=None), "ScenarioConfig.agents must be an AgentParams, got None"),
    (lambda: AgentParams(deploy_model=None),
     "AgentParams.deploy_model must be a DeploymentModel, got None"),
    (lambda: AgentParams(pricing={"hour_of_day": 12}),
     "AgentParams.pricing must be a PricingContext, got {'hour_of_day': 12}"),
    (lambda: AgentParams(sla=(990_000, 50_000, 2_000_000)),
     "AgentParams.sla must be a SlaTerms, got (990000, 50000, 2000000)"),
    (lambda: ContractGenesis(operators=None), "ContractGenesis.operators must be a tuple, got None"),
    (lambda: ConsensusConfig(Algorithm.CLIQUE, 5_000_000, validators=None),
     "ConsensusConfig.validators must be a tuple, got None"),
    (lambda: ConsensusConfig(Algorithm.CLIQUE, 5_000_000, validators=("a", "b")),
     "ConsensusConfig.validators[0] must be an Address, got 'a'"),
    (lambda: ScenarioConfig(sweep_n=[2, 10]), "ScenarioConfig.sweep_n must be a tuple, got [2, 10]"),
    (lambda: ScenarioConfig(sweep_variants=["clique"]),
     "ScenarioConfig.sweep_variants must be a tuple, got ['clique']"),
    (lambda: ContractGenesis(operators=[]), "ContractGenesis.operators must be a tuple, got []"),
    (lambda: AgentParams(tariffs_micro=[100_000]),
     "AgentParams.tariffs_micro must be a tuple, got [100000]"),
    (lambda: SlaTerms(990_000, 50_000, 2.5e6), "SlaTerms.penalty_micro must be an int, got 2500000.0"),
], ids=["scenario_runs_str", "genesis_min_offers_str", "deployment_container_start_str",
        "scenario_float_split", "scenario_block_period_float", "agent_deposit_float",
        "scenario_seed_float", "scenario_runs_bool", "scenario_sweep_size_float",
        "scenario_sweep_not_a_tuple", "agent_tariff_str", "sla_penalty_float",
        "agent_abstain_str", "pricing_hour_float", "pricing_curve_none", "pricing_jitter_bool",
        "consensus_block_period_float", "consensus_algorithm_str", "scenario_agents_none",
        "agent_deploy_model_none", "agent_pricing_dict", "agent_sla_tuple",
        "genesis_operators_none", "consensus_validators_none", "consensus_validators_str",
        "scenario_sweep_list", "scenario_sweep_variants_list", "genesis_operators_list",
        "agent_tariffs_list", "sla_built_with_float_penalty"])
def test_a_record_built_with_a_wrong_type_is_refused_naming_its_field(build, reason):
    """A value of the wrong type is refused as a bad value is, not left to
    raise TypeError later in a run or a digest."""
    with pytest.raises(ConfigInvalid, match=f"^{re.escape(reason)}$"):
        build()


def test_an_optional_field_takes_none_or_its_declared_kind():
    @dataclass(frozen=True)
    class Holder:
        algorithm: Algorithm | None
        period_us: int | None

    check_field_types(Holder(None, None))
    check_field_types(Holder(Algorithm.QBFT, 5))
    with pytest.raises(ConfigInvalid,
                       match="^Holder.algorithm must be an Algorithm or None, got 'qbft'$"):
        check_field_types(Holder("qbft", None))
    with pytest.raises(ConfigInvalid, match="^Holder.period_us must be an int or None, got 5.0$"):
        check_field_types(Holder(None, 5.0))
