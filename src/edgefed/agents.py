"""Behavioral models of the participating MEC systems.

Providers price bids from a local tariff shaped by a time-of-day factor and
seeded jitter, react to contract events after a fixed processing delay, and
run their deployments through a strict FIFO queue (one job at a time, jobs
never overlap). Consumers announce, select, attach, and close. The SOA
baseline performs the same lowest-price federation over direct request and
response exchanges with pre-trusted peers, with no block-period waits; its
providers serve requests concurrently, so no cross-consumer queueing.
"""

from dataclasses import dataclass
from functools import partial

from .contract import (
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
from .ledger import Address
from .metrics import FederationTrace
from .units import to_micro


class ProviderUnavailable(Exception):
    pass


@dataclass(frozen=True)
class DeploymentModel:
    container_start_us: int = to_micro(1.5)
    vxlan_setup_us: int = to_micro(0.5)
    confirm_overhead_us: int = to_micro(0.1)

    def __post_init__(self):
        if min(self.container_start_us, self.vxlan_setup_us, self.confirm_overhead_us) < 0:
            raise ValueError("deployment durations must be non-negative")

    @property
    def service_time_us(self) -> int:
        return self.container_start_us + self.vxlan_setup_us


@dataclass(frozen=True)
class PricingContext:
    hour_of_day: int
    time_factor_curve: tuple
    jitter_fraction: float = 0.0

    def __post_init__(self):
        # Named by their keys in a scenario's `agents` object.
        if len(self.time_factor_curve) != 24:
            raise ValueError("agents.time_factor_curve needs one multiplier per hour")
        if any(f <= 0 for f in self.time_factor_curve):
            raise ValueError("agents.time_factor_curve values must be positive")
        if not 0 <= self.jitter_fraction < 1:
            raise ValueError("agents.jitter_fraction must be in [0, 1)")
        if not 0 <= self.hour_of_day <= 23:
            raise ValueError("agents.hour_of_day must be in 0..23")


@dataclass(frozen=True)
class ProviderProfile:
    address: Address
    country: str
    base_tariff_micro: int
    deploy_model: DeploymentModel
    abstain: bool = False


@dataclass(frozen=True)
class ConsumerProfile:
    address: Address
    requirements: ServiceRequirements
    attach_time_us: int


def compute_bid_price(profile: ProviderProfile, ctx: PricingContext, rng) -> int:
    """Tariff x time-of-day factor x (1 + jitter), micro-rounded, always > 0.

    The jitter draw must come from the scenario's seeded stream for the
    provider so runs replay identically.
    """
    factor = ctx.time_factor_curve[ctx.hour_of_day]
    jitter = rng.uniform(-ctx.jitter_fraction, ctx.jitter_fraction) if ctx.jitter_fraction else 0.0
    return max(1, round(profile.base_tariff_micro * factor * (1.0 + jitter)))


@dataclass
class DeploymentJob:
    ann_id: int
    enqueued_us: int
    started_us: int
    service_done_us: int
    confirm_submitted_us: int


class DeploymentQueue:
    """Strict FIFO, one job in service at a time."""

    def __init__(self, model: DeploymentModel):
        self.model = model
        self.free_at_us = 0
        self.jobs: list[DeploymentJob] = []

    def enqueue(self, ann_id: int, now_us: int) -> DeploymentJob:
        started = max(now_us, self.free_at_us)
        done = started + self.model.service_time_us
        self.free_at_us = done
        job = DeploymentJob(
            ann_id=ann_id,
            enqueued_us=now_us,
            started_us=started,
            service_done_us=done,
            confirm_submitted_us=done + self.model.confirm_overhead_us,
        )
        self.jobs.append(job)
        return job


class ProviderAgent:
    """Event-driven provider: bids on announcements, deploys on wins.

    `handle` receives every announcement and the selections this provider
    won; the kernel routes each event only to the agents it concerns.
    """

    def __init__(self, profile: ProviderProfile, runtime, pricing_ctx, pricing_rng,
                 reaction_us: int):
        self.profile = profile
        self.runtime = runtime
        self.pricing_ctx = pricing_ctx
        self.pricing_rng = pricing_rng
        self.reaction_us = reaction_us
        self.queue = DeploymentQueue(profile.deploy_model)

    def handle(self, event, observed_us: int) -> None:
        if isinstance(event, ServiceAnnounced):
            self.on_service_announced(event, observed_us)
        elif isinstance(event, ProviderChosen):
            self.on_provider_chosen(event, observed_us)

    def on_service_announced(self, event: ServiceAnnounced, observed_us: int) -> None:
        if self.profile.abstain:
            return
        price = compute_bid_price(self.profile, self.pricing_ctx, self.pricing_rng)
        submit_us = observed_us + self.reaction_us
        bid = PlaceBid(event.ann_id, price)
        self.runtime.schedule(submit_us,
                              partial(self.runtime.submit_at, self.profile.address, bid, submit_us))

    def on_provider_chosen(self, event: ProviderChosen, observed_us: int) -> None:
        ann_id = event.ann_id

        def start_deployment():
            job = self.queue.enqueue(ann_id, self.runtime.now_us())
            endpoint = OverlayEndpoint(
                ip=f"10.200.{ann_id % 250}.2", udp_port=4789, vni=1000 + ann_id
            )

            def submit_confirm():
                self.runtime.submit(
                    self.profile.address,
                    ConfirmDeployment(ann_id=ann_id, provider_endpoint=endpoint),
                )

            self.runtime.schedule(job.confirm_submitted_us, submit_confirm)

        self.runtime.schedule(observed_us + self.reaction_us, start_deployment)


class ConsumerAgent:
    """Announces a service extension, then drives selection, attach and close.

    `handle` receives only the events of this consumer's own federation.
    """

    def __init__(self, profile: ConsumerProfile, runtime, endpoint: OverlayEndpoint,
                 sla: SlaTerms, deposit_micro: int, min_offers: int, reaction_us: int):
        self.profile = profile
        self.runtime = runtime
        self.endpoint = endpoint
        self.sla = sla
        self.deposit_micro = deposit_micro
        self.min_offers = min_offers
        self.reaction_us = reaction_us
        self.ann_id: int | None = None
        self.winner: Address | None = None
        self.announce_submitted_us: int | None = None
        self.announce_finalized_us: int | None = None
        self.second_bid_finalized_us: int | None = None
        self.winner_finalized_us: int | None = None
        self.confirm_finalized_us: int | None = None
        self.established_us: int | None = None
        self._selection_issued = False

    def announce(self) -> None:
        self.announce_submitted_us = self.runtime.now_us()
        self.runtime.submit(
            self.profile.address,
            AnnounceService(
                requirements=self.profile.requirements,
                consumer_endpoint=self.endpoint,
                sla=self.sla,
                deposit_micro=self.deposit_micro,
            ),
        )

    def handle(self, event, observed_us: int) -> None:
        if isinstance(event, BidPlaced):  # most events: one per bid
            self.on_bid_placed(event, observed_us)
        elif isinstance(event, ServiceAnnounced):
            self.ann_id = event.ann_id
            self.announce_finalized_us = observed_us
        elif isinstance(event, ProviderChosen):
            self.winner = event.winner
            self.winner_finalized_us = observed_us
        elif isinstance(event, DeploymentConfirmed):
            self.on_deployment_confirmed(event, observed_us)

    def on_bid_placed(self, event: BidPlaced, observed_us: int) -> None:
        if self._selection_issued:
            return
        if event.bid_count < self.min_offers:
            return
        self._selection_issued = True
        self.second_bid_finalized_us = observed_us
        ann_id = self.ann_id

        def submit_choose():
            self.runtime.submit(self.profile.address, ChooseProvider(ann_id=ann_id))

        self.runtime.schedule(observed_us + self.reaction_us, submit_choose)

    def on_deployment_confirmed(self, event: DeploymentConfirmed, observed_us: int) -> None:
        self.confirm_finalized_us = observed_us
        established = observed_us + self.profile.attach_time_us
        self.established_us = established
        ann_id = self.ann_id

        def submit_close():
            self.runtime.submit(self.profile.address, CloseFederation(ann_id=ann_id))

        self.runtime.schedule(established, submit_close)


def soa_federate(consumer: ConsumerProfile, providers, rtt_us: int,
                 ctx: PricingContext, rng_for_provider) -> FederationTrace:
    """Direct request/response federation with pre-trusted peers.

    One parallel price-query round trip, a deployment request round trip, the
    provider's service time, an HTTP confirmation round trip, then consumer
    attach. Requests are served concurrently, so totals do not depend on how
    many consumers federate at once.
    """
    if not providers:
        raise ProviderUnavailable("no registered providers to query")
    priced = [
        (compute_bid_price(p, ctx, rng_for_provider(p)), p.address, p)
        for p in providers
    ]
    price, _, winner = min(priced, key=lambda entry: (entry[0], entry[1]))
    query_done = rtt_us
    request_done = query_done + rtt_us
    deploy_done = request_done + winner.deploy_model.service_time_us
    confirmed = deploy_done + rtt_us
    established = confirmed + consumer.attach_time_us
    return FederationTrace(
        run=0,
        ann_id=None,
        consumer=consumer.address.hex,
        winner=winner.address.hex,
        announce_submitted_us=0,
        announce_finalized_us=0,
        second_bid_finalized_us=query_done,
        winner_finalized_us=query_done,
        deployment_started_us=request_done,
        confirm_finalized_us=confirmed,
        close_finalized_us=established,
        complete=True,
    )
