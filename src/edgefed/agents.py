"""Behavioral models of the participating MEC systems.

Providers price bids from a local tariff shaped by a time-of-day factor and
seeded jitter, react to contract events after a fixed processing delay, and
run their deployments through a strict FIFO queue (one job at a time, jobs
never overlap). Consumers announce, select, attach, and close. The SOA
baseline performs the same lowest-price federation over direct request and
response exchanges with pre-trusted peers, with no block-period waits; its
providers serve requests concurrently, so no cross-consumer queueing.

Agents act on the simulation only through what they are built with: the
kernel's `schedule(fire_us, action)`, the ledger's `submit(sender, call,
now_us)` and a provider's `price()` for the run. Each reaction schedules
`partial(submit, address, call, t)` to fire at its submit instant t, or, for
a deployment, `start_deployment` at the instant it starts. A consumer's
profile holds its announcement call, built once per scenario; the kernel
schedules `announce(now_us)`, which submits it at once.
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
)
from .ledger import Address
from .metrics import FederationTrace
from .units import ConfigInvalid, check_non_negative, to_micro


class ProviderUnavailable(Exception):
    pass


@dataclass(frozen=True)
class DeploymentModel:
    """A provider's deployment durations: container start, VXLAN setup and confirmation."""
    container_start_us: int = to_micro(1.5)
    vxlan_setup_us: int = to_micro(0.5)
    confirm_overhead_us: int = to_micro(0.1)

    def __post_init__(self):
        check_non_negative("agents.deployment", container_start_s=self.container_start_us,
                           vxlan_setup_s=self.vxlan_setup_us,
                           confirm_overhead_s=self.confirm_overhead_us)

    @property
    def service_time_us(self) -> int:
        return self.container_start_us + self.vxlan_setup_us


@dataclass(frozen=True)
class PricingContext:
    """The time-of-day factor and jitter every provider prices its bids with."""
    hour_of_day: int
    time_factor_curve: tuple
    jitter_fraction: float = 0.0

    def __post_init__(self):
        if len(self.time_factor_curve) != 24:
            raise ConfigInvalid("agents.time_factor_curve needs one multiplier per hour")
        if any(f <= 0 for f in self.time_factor_curve):
            raise ConfigInvalid("agents.time_factor_curve values must be positive")
        if not 0 <= self.jitter_fraction < 1:
            raise ConfigInvalid("agents.jitter_fraction must be in [0, 1)")
        if not 0 <= self.hour_of_day <= 23:
            raise ConfigInvalid("agents.hour_of_day must be in 0..23")


@dataclass(frozen=True, repr=False)
class ProviderProfile:
    """One provider's address, base tariff and deployment model."""
    address: Address
    base_tariff_micro: int
    deploy_model: DeploymentModel


@dataclass(frozen=True, repr=False)
class ConsumerProfile:
    """One consumer's address, the announcement it makes and its overlay attach time."""
    address: Address
    announcement: AnnounceService
    attach_time_us: int


def pricer(base_tariff_micro: int, ctx: PricingContext, rng):
    """The bid price rule with its constants read once: a callable giving
    tariff x time-of-day factor x (1 + jitter), rounded to the nearest
    micro-unit (ties to even), at least 1. The jitter is uniform in
    [-jitter_fraction, jitter_fraction), one `rng.random()` per price, as
    `rng.uniform` draws it; no jitter draws nothing. `rng` is the provider's
    seeded stream, so runs replay identically."""
    scale = base_tariff_micro * ctx.time_factor_curve[ctx.hour_of_day]
    jitter = ctx.jitter_fraction
    if not jitter:
        price = max(1, round(float(scale)))  # rounded as a float, as a jittered price is
        return lambda: price
    low, draw = -jitter, rng.random
    span = jitter - low  # rng.uniform(low, jitter) is low + span * rng.random()
    return lambda: max(1, round(scale * (1.0 + (low + span * draw()))))


@dataclass(eq=False, repr=False)
class DeploymentJob:
    """One won federation in a provider's deployment queue, with its instants."""
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

    `handle` receives announcements only in a run it bids in, and only the
    selections this provider won: the kernel decides which agent acts on
    each event. `price` is the provider's `pricer` for the run.
    """

    def __init__(self, profile: ProviderProfile, schedule, submit, price, reaction_us: int):
        self.profile = profile
        self.schedule = schedule
        self.submit = submit
        self.price = price
        self.reaction_us = reaction_us
        self.queue = DeploymentQueue(profile.deploy_model)

    def handle(self, event, observed_us: int) -> None:
        react_us = observed_us + self.reaction_us
        kind = type(event)
        if kind is ServiceAnnounced:
            bid = PlaceBid(event.ann_id, self.price())
            self.schedule(react_us, partial(self.submit, self.profile.address, bid, react_us))
        elif kind is ProviderChosen:
            self.schedule(react_us, partial(self.start_deployment, event.ann_id, react_us))

    def start_deployment(self, ann_id: int, now_us: int) -> None:
        job = self.queue.enqueue(ann_id, now_us)
        endpoint = OverlayEndpoint(ip=f"10.200.{ann_id % 250}.2", udp_port=4789, vni=1000 + ann_id)
        confirm = ConfirmDeployment(ann_id=ann_id, provider_endpoint=endpoint)
        submit_us = job.confirm_submitted_us
        self.schedule(submit_us, partial(self.submit, self.profile.address, confirm, submit_us))


class ConsumerAgent:
    """Announces a service extension, then drives selection, attach and close.

    `announce` submits the profile's announcement call. `handle` receives
    only the events of this consumer's own federation that it acts on: the
    bid that reaches the contract's minimum offers and the deployment
    confirmation. It keeps no per-federation state: each reaction takes its
    announcement id from the event, and the timeline is read off the chain.
    """

    def __init__(self, profile: ConsumerProfile, schedule, submit, reaction_us: int):
        self.profile = profile
        self.schedule = schedule
        self.submit = submit
        self.reaction_us = reaction_us

    def announce(self, now_us: int) -> None:
        self.submit(self.profile.address, self.profile.announcement, now_us)

    def handle(self, event, observed_us: int) -> None:
        if isinstance(event, BidPlaced):
            choose_us = observed_us + self.reaction_us
            self.schedule(choose_us, partial(self.submit, self.profile.address,
                                             ChooseProvider(ann_id=event.ann_id), choose_us))
        elif isinstance(event, DeploymentConfirmed):
            established = observed_us + self.profile.attach_time_us
            self.schedule(established, partial(self.submit, self.profile.address,
                                               CloseFederation(ann_id=event.ann_id), established))


def soa_federate(consumer: ConsumerProfile, providers, rtt_us: int, prices, run: int,
                 ann_id: int) -> FederationTrace:
    """Direct request/response federation with pre-trusted peers.

    One parallel price-query round trip, a deployment request round trip, the
    provider's service time, an HTTP confirmation round trip, then consumer
    attach. Requests are served concurrently, so totals do not depend on how
    many consumers federate at once. The trace is filed under `run` and
    `ann_id`, the consumer's index, since no announcement is made.

    `prices` holds one `pricer` per provider, in the order of `providers`;
    each is called once per federation, in that order.
    """
    if not providers:
        raise ProviderUnavailable("no registered providers to query")
    priced = [(price(), p.address, p)
              for p, price in zip(providers, prices, strict=True)]
    price, _, winner = min(priced, key=lambda entry: (entry[0], entry[1]))
    query_done = rtt_us
    request_done = query_done + rtt_us
    deploy_done = request_done + winner.deploy_model.service_time_us
    confirmed = deploy_done + rtt_us
    established = confirmed + consumer.attach_time_us
    return FederationTrace(
        run=run,
        ann_id=ann_id,
        winner=winner.address.hex,
        announce_submitted_us=0,
        second_bid_finalized_us=query_done,
        winner_finalized_us=query_done,
        deployment_started_us=request_done,
        confirm_finalized_us=confirmed,
        close_finalized_us=established,
        complete=True,
    )
