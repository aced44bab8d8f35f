import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgefed.agents import (
    ConsumerAgent,
    ConsumerProfile,
    DeploymentModel,
    DeploymentQueue,
    PricingContext,
    ProviderAgent,
    ProviderProfile,
    ProviderUnavailable,
    pricer,
    soa_federate,
)
from edgefed.contract import (
    AnnounceService,
    BidPlaced,
    ChooseProvider,
    CloseFederation,
    ConfirmDeployment,
    DeploymentConfirmed,
    OverlayEndpoint,
    PlaceBid,
    ProviderChosen,
    ServiceAnnounced,
    ServiceRequirements,
    SlaTerms,
)
from edgefed.metrics import decompose
from edgefed.simkernel import _ChainRun, build_cell, run_once
from edgefed.units import to_micro

from conftest import addr, scenario

FLAT_CURVE = tuple([1.0] * 24)
REQS = ServiceRequirements(app_id="app", replicas=1, bandwidth_mbps=100)
ENDPOINT = OverlayEndpoint(ip="10.0.0.1", udp_port=4789, vni=100)


def provider(tag="p", tariff=0.10, model=None) -> ProviderProfile:
    return ProviderProfile(
        address=addr(tag),
        base_tariff_micro=to_micro(tariff),
        deploy_model=model or DeploymentModel(),
    )


def consumer(tag="c", attach=0.5) -> ConsumerProfile:
    return ConsumerProfile(
        address=addr(tag),
        announcement=AnnounceService(requirements=REQS, consumer_endpoint=ENDPOINT,
                                     sla=SlaTerms.from_floats(0.99, 50.0, 2.0),
                                     deposit_micro=to_micro(10.0)),
        attach_time_us=to_micro(attach),
    )


def ctx(factor_curve=FLAT_CURVE, hour=0, jitter=0.0) -> PricingContext:
    return PricingContext(hour_of_day=hour, time_factor_curve=factor_curve, jitter_fraction=jitter)


class TestPricing:
    def test_identity_factors(self):
        price = pricer(to_micro(0.10), ctx(), random.Random(0))()
        assert price == to_micro(0.100000)

    def test_time_factor_multiplies(self):
        curve = (1.5,) + FLAT_CURVE[1:]
        price = pricer(to_micro(0.10), ctx(factor_curve=curve), random.Random(0))()
        assert price == to_micro(0.150000)

    def test_thousand_seeded_draws_stay_inside_jitter_band(self):
        price = pricer(to_micro(1.0), ctx(jitter=0.1), random.Random(99))
        bounds = (to_micro(0.9), to_micro(1.1))
        for _ in range(1000):
            assert bounds[0] <= price() <= bounds[1]

    def test_prices_are_strictly_positive(self):
        price = pricer(to_micro(0.0000004), ctx(jitter=0.1), random.Random(1))()
        assert price >= 1

    def test_curve_must_have_24_entries(self):
        with pytest.raises(ValueError):
            PricingContext(hour_of_day=0, time_factor_curve=(1.0,) * 23, jitter_fraction=0.0)

    @given(
        tariff=st.integers(min_value=1, max_value=10**7),
        factor=st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
        jitter=st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_price_positivity_property(self, tariff, factor, jitter, seed):
        curve = (factor,) + FLAT_CURVE[1:]
        price = pricer(tariff, ctx(factor_curve=curve, jitter=jitter), random.Random(seed))()
        assert price > 0


class TestDeploymentQueue:
    def test_three_simultaneous_wins_stack(self):
        queue = DeploymentQueue(DeploymentModel())
        t = to_micro(10.0)
        jobs = [queue.enqueue(i, t) for i in range(3)]
        service = to_micro(2.0)
        assert [j.started_us for j in jobs] == [t, t + service, t + 2 * service]
        assert [j.service_done_us - t for j in jobs] == [service, 2 * service, 3 * service]

    def test_job_waits_for_in_flight_job(self):
        queue = DeploymentQueue(DeploymentModel())
        first = queue.enqueue(0, to_micro(1.0))
        second = queue.enqueue(1, to_micro(1.5))
        assert second.started_us == first.service_done_us

    def test_idle_queue_starts_immediately(self):
        queue = DeploymentQueue(DeploymentModel())
        job = queue.enqueue(0, to_micro(7.0))
        assert job.started_us == to_micro(7.0)
        assert job.confirm_submitted_us == to_micro(7.0 + 2.0 + 0.1)

    def test_intervals_never_overlap(self):
        queue = DeploymentQueue(DeploymentModel())
        rng = random.Random(5)
        jobs = [queue.enqueue(i, rng.randrange(0, to_micro(30.0))) for i in range(50)]
        spans = sorted((j.started_us, j.service_done_us) for j in jobs)
        for (_, prev_end), (nxt_start, _) in zip(spans, spans[1:]):
            assert nxt_start >= prev_end

    def test_conservation_of_jobs(self):
        queue = DeploymentQueue(DeploymentModel())
        for i in range(7):
            queue.enqueue(i, 0)
        assert sorted(j.ann_id for j in queue.jobs) == list(range(7))


class TestProviderReactions:
    def test_every_provider_bids_on_announcement(self):
        result = run_once(scenario(n=4, runs=1), 0)  # (3 consumers, 1 provider)
        bid_txs = [tx for b in result.blocks for tx in b.txs if isinstance(tx.payload, PlaceBid)]
        assert len(bid_txs) == 3  # 1 provider x 3 announcements

    def test_n30_split_yields_144_bids(self):
        result = run_once(scenario(n=30, runs=1), 0)
        bid_txs = [tx for b in result.blocks for tx in b.txs if isinstance(tx.payload, PlaceBid)]
        assert len(bid_txs) == 24 * 6

    def test_abstaining_provider_never_bids(self):
        from dataclasses import replace

        cfg = scenario(n=2, runs=1)
        cfg = replace(cfg, agents=replace(cfg.agents, abstain_probability=1.0))
        result = run_once(cfg, 0)
        bid_txs = [tx for b in result.blocks for tx in b.txs if isinstance(tx.payload, PlaceBid)]
        assert bid_txs == []
        assert all(not t.complete for t in result.traces)

    def test_bid_submitted_one_reaction_delay_after_observation(self):
        result = run_once(scenario(n=2, runs=1), 0)
        bid_tx = next(tx for b in result.blocks for tx in b.txs if isinstance(tx.payload, PlaceBid))
        announce_block = result.blocks[1]
        assert bid_tx.submit_time_us == announce_block.finality_time_us + to_micro(0.1)


class TestConsumerReactions:
    def test_close_submitted_attach_time_after_confirmation(self):
        result = run_once(scenario(n=2, runs=1), 0)
        trace = result.traces[0]
        assert trace.close_finalized_us == trace.confirm_finalized_us + to_micro(0.5)

    def test_confirmation_timeout_leaves_trace_incomplete(self):
        from dataclasses import replace

        cfg = replace(scenario(n=2, runs=1), timeout_us=to_micro(1.0))
        result = run_once(cfg, 0)
        assert result.traces[0].complete is False

    def test_concurrent_consumers_proceed_independently(self):
        result = run_once(scenario(n=4, runs=1), 0)
        assert all(t.complete for t in result.traces)
        assert len({t.ann_id for t in result.traces}) == 3


class Recorder:
    """A recording `schedule` and `submit` in place of the kernel and the
    ledger, so an agent can be driven without either."""

    def __init__(self):
        self.scheduled = []  # (fire_us, action), in schedule order
        self.submitted = []  # (fire_us of the submitting action, sender, call, now_us)
        self.clock_us = None

    def schedule(self, fire_us, action):
        self.scheduled.append((fire_us, action))

    def submit(self, sender, call, now_us):
        self.submitted.append((self.clock_us, sender, call, now_us))

    def fire(self):
        """Run every scheduled action, and any it schedules, in (fire time,
        schedule order) as the kernel does."""
        while self.scheduled:
            self.scheduled.sort(key=lambda entry: entry[0])  # stable within an instant
            self.clock_us, action = self.scheduled.pop(0)
            action()


REACTION_US = to_micro(0.1)


def provider_agent(recorder) -> ProviderAgent:
    profile = provider()
    return ProviderAgent(profile, recorder.schedule, recorder.submit,
                         pricer(profile.base_tariff_micro, ctx(), random.Random(0)), REACTION_US)


def consumer_agent(recorder) -> ConsumerAgent:
    return ConsumerAgent(consumer(), recorder.schedule, recorder.submit, reaction_us=REACTION_US)


def uniform_rule(profile, ctx, rng) -> int:
    """The price rule written out with `rng.uniform`, as the pricer must
    compute it."""
    factor = ctx.time_factor_curve[ctx.hour_of_day]
    jitter = rng.uniform(-ctx.jitter_fraction, ctx.jitter_fraction) if ctx.jitter_fraction else 0.0
    return max(1, round(profile.base_tariff_micro * factor * (1.0 + jitter)))


class TestProviderPrices:
    # Small tariffs meet the 1 micro-unit floor. Above 2**53 micro-units a
    # float's last bit is worth more than one, so any other float formula
    # shows in the price; an int factor keeps the tariff product an int
    # until the rule makes it a float.
    @given(
        tariff=st.integers(min_value=1, max_value=10**6) | st.integers(2**53, 10**18),
        hour=st.integers(min_value=0, max_value=23),
        curve=st.lists(st.floats(min_value=1e-7, max_value=5.0) | st.integers(1, 5),
                       min_size=24, max_size=24),
        jitter=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        seed=st.integers(min_value=0, max_value=2**32),
        bids=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_bid_prices_are_the_rule_on_a_twin_stream(self, tariff, hour, curve, jitter, seed,
                                                      bids):
        pricing = ctx(factor_curve=tuple(curve), hour=hour, jitter=jitter)
        profile = ProviderProfile(address=addr("p"), base_tariff_micro=tariff,
                                  deploy_model=DeploymentModel())
        recorder, rng = Recorder(), random.Random(seed)
        agent = ProviderAgent(profile, recorder.schedule, recorder.submit,
                              pricer(tariff, pricing, rng), REACTION_US)
        twin, written_out = random.Random(seed), random.Random(seed)
        twin_price = pricer(tariff, pricing, twin)
        for ann_id in range(bids):
            agent.handle(ServiceAnnounced(ann_id, REQS), 0)
            [(_, action)] = recorder.scheduled[ann_id:]
            price = action.args[1].price_micro
            assert type(price) is int and price >= 1
            assert price == twin_price()
            assert price == uniform_rule(profile, pricing, written_out)
            # Draw for draw: the agent's stream is where the twin's is.
            assert rng.getstate() == twin.getstate() == written_out.getstate()


class TestAgentsWithFakes:
    def test_consumer_chooses_after_its_reaction_delay(self):
        # The kernel hands a consumer only the bid that reaches min_offers.
        recorder = Recorder()
        agent = consumer_agent(recorder)
        choose_us = to_micro(10.0) + REACTION_US
        agent.handle(BidPlaced(ann_id=4, bid_count=2), to_micro(10.0))
        assert [fire_us for fire_us, _ in recorder.scheduled] == [choose_us]
        recorder.fire()
        assert recorder.submitted == [(choose_us, agent.profile.address,
                                       ChooseProvider(ann_id=4), choose_us)]

    def test_abstaining_provider_schedules_nothing(self):
        # A provider that abstains in a run is handed no announcement, so it
        # never schedules a bid; the same run without abstention does.
        from dataclasses import replace

        for abstain_probability, bids in ((1.0, 0), (0.0, 3)):
            cfg = scenario(n=4, runs=1)  # (3 consumers, 1 provider)
            cfg = replace(cfg, agents=replace(cfg.agents, abstain_probability=abstain_probability))
            run, recorder = _ChainRun(cfg, 0, build_cell(cfg)), Recorder()
            [agent] = run.providers
            agent.schedule = recorder.schedule
            run.execute()
            placed = [action.args[1] for _, action in recorder.scheduled
                      if isinstance(action.args[1], PlaceBid)]
            assert len(placed) == bids
            if not bids:
                assert recorder.scheduled == []

    def test_bidding_provider_submits_at_its_reaction_instant(self):
        recorder = Recorder()
        agent = provider_agent(recorder)
        agent.handle(ServiceAnnounced(0, REQS), to_micro(5.0))
        recorder.fire()
        submit_us = to_micro(5.0) + REACTION_US
        assert recorder.submitted == [(submit_us, agent.profile.address,
                                       PlaceBid(0, to_micro(0.10)), submit_us)]

    def test_two_wins_at_one_instant_queue_fifo(self):
        recorder = Recorder()
        agent = provider_agent(recorder)
        t = to_micro(20.0)
        for ann_id in (0, 1):
            agent.handle(ProviderChosen(ann_id, agent.profile.address, ENDPOINT), t)
        assert [fire_us for fire_us, _ in recorder.scheduled] == [t + REACTION_US] * 2
        recorder.fire()
        first, second = agent.queue.jobs
        assert (first.ann_id, second.ann_id) == (0, 1)
        assert first.started_us == t + REACTION_US
        assert second.started_us == first.service_done_us
        assert [(fire_us, sender, type(call), call.ann_id, now_us)
                for fire_us, sender, call, now_us in recorder.submitted] == [
            (job.confirm_submitted_us, agent.profile.address, ConfirmDeployment,
             job.ann_id, job.confirm_submitted_us)
            for job in (first, second)
        ]

    def test_confirmation_schedules_close_after_attach_time(self):
        recorder = Recorder()
        agent = consumer_agent(recorder)
        t = to_micro(30.0)
        agent.handle(DeploymentConfirmed(4, ENDPOINT), t)
        established = t + agent.profile.attach_time_us
        assert [fire_us for fire_us, _ in recorder.scheduled] == [established]
        recorder.fire()
        assert recorder.submitted == [(established, agent.profile.address,
                                       CloseFederation(ann_id=4), established)]

    def test_announce_submits_at_the_instant_it_is_given(self):
        recorder = Recorder()
        agent = consumer_agent(recorder)
        agent.announce(to_micro(3.0))
        [(_, sender, call, now_us)] = recorder.submitted
        assert (sender, now_us) == (agent.profile.address, to_micro(3.0))
        assert call is agent.profile.announcement and recorder.scheduled == []


class TestSoaBaseline:
    def test_component_sum(self):
        trace = soa_federate(
            consumer(), [provider()], rtt_us=to_micro(0.05),
            prices=[pricer(to_micro(0.10), ctx(), random.Random(0))], run=0, ann_id=0,
        )
        parts = decompose(trace)
        assert parts.total_us == to_micro(0.05 + 0.05 + 2.0 + 0.05 + 0.5)

    def test_no_providers_is_an_error(self):
        with pytest.raises(ProviderUnavailable):
            soa_federate(consumer(), [], rtt_us=1, prices=[], run=0, ann_id=0)

    def test_zero_jitter_selection_matches_blockchain_winner(self):
        # Same tariffs, no jitter: the lowest-price provider must win on both
        # paths, even though the timings differ.
        from dataclasses import replace

        cfg = scenario(n=10, runs=1)
        agents = cfg.agents
        cfg = replace(cfg, agents=replace(agents, pricing=replace(agents.pricing, jitter_fraction=0.0)))
        chain_trace = run_once(cfg, 0).traces[0]
        soa_trace = run_once(replace(cfg, variant="soa"), 0).traces[0]
        assert chain_trace.winner == soa_trace.winner

    def test_totals_do_not_grow_with_concurrent_consumers(self):
        small = run_once(scenario(n=10, variant="soa", runs=1), 0)
        large = run_once(scenario(n=30, variant="soa", runs=1), 0)
        small_total = decompose(small.traces[0]).total_us
        assert all(decompose(t).total_us == small_total for t in large.traces)
