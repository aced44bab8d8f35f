"""Deterministic discrete-event engine and scenario construction.

One logical thread per run: a clock, a (fire time, sequence) ordered event
queue, seeded per-purpose random streams, topology generation, and the wiring
that drives ledger, contract and agents through a full federation workflow.
Two executions with equal configs produce identical ledgers, digests and
traces.

Finalized contract events reach agents through one per-run routing table,
not by broadcast: an announcement goes to the consumer that made it and to
every provider, and every later event of a federation goes only to its
consumer and, for the selection, to the winner. Events no agent acts on go
to none. Recipients of one event are called consumers first, then providers,
in list order, which is the order broadcast used; that order fixes the
event queue's schedule sequence and so every output byte.
"""

import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field, replace

from .agents import (
    ConsumerAgent,
    DeploymentModel,
    PricingContext,
    ProviderAgent,
    ProviderProfile,
    ConsumerProfile,
    soa_federate,
)
from .contract import (
    BidPlaced,
    ContractGenesis,
    DeploymentConfirmed,
    FederationClosed,
    FederationContract,
    OverlayEndpoint,
    Phase,
    ProviderChosen,
    ServiceAnnounced,
    ServiceRequirements,
    SlaTerms,
)
from .ledger import Address, Algorithm, ConsensusConfig, Ledger
from .metrics import FederationTrace
from .units import to_micro


class SchedulingInPast(Exception):
    pass


class TooFewSystems(Exception):
    pass


class ConfigInvalid(Exception):
    pass


# -- event queue ---------------------------------------------------------------


class EventQueue:
    """Dispatches actions in (fire_time, schedule sequence) order."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now_us = 0

    def schedule(self, fire_us: int, action) -> int:
        if fire_us < self.now_us:
            raise SchedulingInPast(f"t={fire_us}us is before the clock ({self.now_us}us)")
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (fire_us, seq, action))
        return seq

    def empty(self) -> bool:
        return not self._heap

    def peek_time(self) -> int | None:
        return self._heap[0][0] if self._heap else None

    def step(self):
        """Advance the clock to the next event and run it; None at queue end."""
        if not self._heap:
            return None
        fire_us, seq, action = heapq.heappop(self._heap)
        self.now_us = fire_us
        action()
        return fire_us, seq


# -- seeded randomness -----------------------------------------------------------


class SeededRng:
    """Named, platform-independent random streams.

    Each consumer of randomness gets its own stream keyed by (seed, stream id),
    so adding a new consumer never perturbs existing draws.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def stream(self, stream_id: str) -> random.Random:
        material = f"{self.seed}/{stream_id}".encode("utf-8")
        return random.Random(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))


# -- topology ----------------------------------------------------------------------


_REFERENCE_SPLITS = {2: (1, 1), 10: (8, 2), 15: (12, 3), 25: (20, 5), 30: (24, 6)}


def generate_topology(n_systems: int) -> tuple[int, int]:
    """(consumers, providers) under the stub-heavy 80:20 role ratio."""
    if n_systems < 2:
        raise TooFewSystems(f"need at least 2 systems, got {n_systems}")
    if n_systems in _REFERENCE_SPLITS:
        return _REFERENCE_SPLITS[n_systems]
    # round(n/5) without float rounding artifacts; .5 halves cannot occur.
    providers = max(1, (2 * n_systems + 5) // 10)
    return (n_systems - providers, providers)


# -- configuration ------------------------------------------------------------------

DEFAULT_TARIFFS = (0.10, 0.12, 0.13, 0.10, 0.10, 0.11)

DEFAULT_TIME_FACTOR_CURVE = (
    0.85, 0.85, 0.85, 0.85, 0.85, 0.90, 0.95, 1.00,
    1.05, 1.10, 1.10, 1.05, 1.00, 1.00, 1.05, 1.10,
    1.15, 1.20, 1.20, 1.15, 1.10, 1.00, 0.95, 0.90,
)

VARIANTS = ("clique", "qbft", "soa")

MODE_SINGLE = "single"
MODE_ALL = "all_consumers_simultaneous"


@dataclass(frozen=True)
class AgentParams:
    deploy_model: DeploymentModel = DeploymentModel()
    attach_time_us: int = to_micro(0.5)
    reaction_delay_us: int = to_micro(0.1)
    rtt_us: int = to_micro(0.05)
    tariffs_micro: tuple = tuple(to_micro(t) for t in DEFAULT_TARIFFS)
    time_factor_curve: tuple = DEFAULT_TIME_FACTOR_CURVE
    hour_of_day: int = 12
    jitter_fraction: float = 0.05
    abstain_probability: float = 0.0
    deposit_micro: int = to_micro(10.0)
    sla: SlaTerms = SlaTerms.from_floats(0.99, 50.0, 2.0)
    genesis_balance_micro: int = to_micro(100.0)

    def __post_init__(self):
        if min(self.attach_time_us, self.reaction_delay_us, self.rtt_us) < 0:
            raise ConfigInvalid("agent delays must be non-negative")
        if self.genesis_balance_micro < self.deposit_micro:
            # The contract would reject every announcement as InsufficientBalance.
            raise ConfigInvalid("agents.genesis_balance must be at least agents.announce_deposit")
        self.pricing_context()  # rejects a bad hour, curve or jitter up front

    def pricing_context(self) -> PricingContext:
        return PricingContext(
            hour_of_day=self.hour_of_day,
            time_factor_curve=self.time_factor_curve,
            jitter_fraction=self.jitter_fraction,
        )


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str = "scenario"
    n_systems: int = 2
    consumers: int = 1
    providers: int = 1
    variant: str = "clique"  # clique | qbft | soa
    block_period_us: int = to_micro(5.0)
    message_delay_us: int = to_micro(0.05)
    validation_cost_us: int = to_micro(0.05)
    agents: AgentParams = AgentParams()
    runs: int = 20
    seed: int = 1
    concurrency_mode: str = MODE_ALL
    timeout_us: int = to_micro(300.0)
    sweep_n: tuple = (2, 10, 15, 25, 30)
    sweep_variants: tuple = VARIANTS
    output_dir: str | None = None

    def __post_init__(self):
        if self.consumers + self.providers != self.n_systems:
            raise ConfigInvalid(
                f"split ({self.consumers},{self.providers}) does not sum to n_systems={self.n_systems}"
            )
        if self.consumers < 1 or self.providers < 1:
            raise ConfigInvalid("need at least one consumer and one provider")
        if self.variant not in VARIANTS:
            raise ConfigInvalid(f"unknown variant {self.variant!r}")
        if self.concurrency_mode not in (MODE_SINGLE, MODE_ALL):
            raise ConfigInvalid(f"unknown concurrency mode {self.concurrency_mode!r}")
        if self.runs < 1:
            raise ConfigInvalid("runs must be >= 1")
        if self.block_period_us <= 0:
            raise ConfigInvalid("block period must be positive")
        if min(self.message_delay_us, self.validation_cost_us) < 0:
            raise ConfigInvalid("consensus delays must be non-negative")
        if self.timeout_us <= 0:
            raise ConfigInvalid("scenario timeout must be positive")


def _require_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigInvalid(f"unknown key(s) {sorted(unknown)} in {where}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _get_number(section, key, default, where):
    value = section.get(key, default)
    if not _is_number(value):
        raise ConfigInvalid(f"{where}.{key} must be a number")
    return value


def parse_config(data: dict, scenario_id: str = "scenario") -> ScenarioConfig:
    """Validate a scenario document; unknown keys are rejected outright."""
    if not isinstance(data, dict):
        raise ConfigInvalid("scenario document must be a JSON object")
    _require_keys(
        data,
        {"scenario_id", "topology", "consensus", "agents", "runs", "seed",
         "concurrency_mode", "scenario_timeout_s", "sweep", "output"},
        "scenario",
    )

    topology = data.get("topology", {})
    _require_keys(topology, {"n_systems", "split"}, "topology")
    n_systems = topology.get("n_systems", 2)
    if not _is_int(n_systems):
        raise ConfigInvalid("topology.n_systems must be an integer")
    if "split" in topology:
        split = topology["split"]
        if (not isinstance(split, (list, tuple)) or len(split) != 2
                or not all(_is_int(v) for v in split)):
            raise ConfigInvalid("topology.split must be [consumers, providers]")
        consumers, providers = split
    else:
        try:
            consumers, providers = generate_topology(n_systems)
        except TooFewSystems as err:
            raise ConfigInvalid(str(err)) from err

    consensus = data.get("consensus", {})
    _require_keys(
        consensus,
        {"algorithm", "block_period_s", "message_delay_s", "validation_cost_s"},
        "consensus",
    )
    variant = consensus.get("algorithm", "clique")
    if variant not in VARIANTS:
        raise ConfigInvalid(f"consensus.algorithm must be one of {VARIANTS}")

    agents_cfg = data.get("agents", {})
    _require_keys(
        agents_cfg,
        {"deployment", "attach_time_s", "reaction_delay_s", "rtt_s", "tariffs",
         "time_factor_curve", "hour_of_day", "jitter_fraction",
         "abstain_probability", "announce_deposit", "sla", "genesis_balance"},
        "agents",
    )
    deployment = agents_cfg.get("deployment", {})
    _require_keys(
        deployment,
        {"container_start_s", "vxlan_setup_s", "confirm_overhead_s"},
        "agents.deployment",
    )
    tariffs = agents_cfg.get("tariffs", list(DEFAULT_TARIFFS))
    if (not isinstance(tariffs, (list, tuple)) or not tariffs
            or not all(_is_number(t) for t in tariffs)):
        raise ConfigInvalid("agents.tariffs must be a non-empty list of numbers")
    curve = agents_cfg.get("time_factor_curve", list(DEFAULT_TIME_FACTOR_CURVE))
    if (not isinstance(curve, (list, tuple)) or len(curve) != 24
            or not all(_is_number(f) for f in curve)):
        raise ConfigInvalid("agents.time_factor_curve must list 24 multipliers")
    sla_cfg = agents_cfg.get("sla", {})
    _require_keys(sla_cfg, {"min_availability", "max_latency_ms", "penalty"}, "agents.sla")
    hour = agents_cfg.get("hour_of_day", 12)
    if not _is_int(hour) or not 0 <= hour <= 23:
        raise ConfigInvalid("agents.hour_of_day must be an integer in 0..23")

    sweep = data.get("sweep", {})
    _require_keys(sweep, {"n_systems", "variants"}, "sweep")
    sweep_n = sweep.get("n_systems", (2, 10, 15, 25, 30))
    if not isinstance(sweep_n, (list, tuple)) or not all(_is_int(n) and n >= 2 for n in sweep_n):
        raise ConfigInvalid("sweep.n_systems must be a list of integers >= 2")
    sweep_n = tuple(sweep_n)
    sweep_variants = tuple(sweep.get("variants", VARIANTS))
    for v in sweep_variants:
        if v not in VARIANTS:
            raise ConfigInvalid(f"sweep variant {v!r} must be one of {VARIANTS}")

    output = data.get("output", {})
    _require_keys(output, {"dir"}, "output")

    runs = data.get("runs", 20)
    seed = data.get("seed", 1)
    if not _is_int(runs) or not _is_int(seed):
        raise ConfigInvalid("runs and seed must be integers")

    # The dataclasses check value ranges; their ValueErrors become ConfigInvalid.
    try:
        deploy_model = DeploymentModel(
            container_start_us=to_micro(_get_number(deployment, "container_start_s", 1.5, "agents.deployment")),
            vxlan_setup_us=to_micro(_get_number(deployment, "vxlan_setup_s", 0.5, "agents.deployment")),
            confirm_overhead_us=to_micro(_get_number(deployment, "confirm_overhead_s", 0.1, "agents.deployment")),
        )
        agent_params = AgentParams(
            deploy_model=deploy_model,
            attach_time_us=to_micro(_get_number(agents_cfg, "attach_time_s", 0.5, "agents")),
            reaction_delay_us=to_micro(_get_number(agents_cfg, "reaction_delay_s", 0.1, "agents")),
            rtt_us=to_micro(_get_number(agents_cfg, "rtt_s", 0.05, "agents")),
            tariffs_micro=tuple(to_micro(t) for t in tariffs),
            time_factor_curve=tuple(float(f) for f in curve),
            hour_of_day=hour,
            jitter_fraction=float(_get_number(agents_cfg, "jitter_fraction", 0.05, "agents")),
            abstain_probability=float(_get_number(agents_cfg, "abstain_probability", 0.0, "agents")),
            deposit_micro=to_micro(_get_number(agents_cfg, "announce_deposit", 10.0, "agents")),
            sla=SlaTerms.from_floats(
                _get_number(sla_cfg, "min_availability", 0.99, "agents.sla"),
                _get_number(sla_cfg, "max_latency_ms", 50.0, "agents.sla"),
                _get_number(sla_cfg, "penalty", 2.0, "agents.sla"),
            ),
            genesis_balance_micro=to_micro(_get_number(agents_cfg, "genesis_balance", 100.0, "agents")),
        )
        return ScenarioConfig(
            scenario_id=str(data.get("scenario_id", scenario_id)),
            n_systems=n_systems,
            consumers=consumers,
            providers=providers,
            variant=variant,
            block_period_us=to_micro(_get_number(consensus, "block_period_s", 5.0, "consensus")),
            message_delay_us=to_micro(_get_number(consensus, "message_delay_s", 0.05, "consensus")),
            validation_cost_us=to_micro(_get_number(consensus, "validation_cost_s", 0.05, "consensus")),
            agents=agent_params,
            runs=runs,
            seed=seed,
            concurrency_mode=data.get("concurrency_mode", MODE_ALL),
            timeout_us=to_micro(_get_number(data, "scenario_timeout_s", 300.0, "scenario")),
            sweep_n=sweep_n,
            sweep_variants=sweep_variants,
            output_dir=output.get("dir"),
        )
    except (ValueError, TypeError) as err:
        raise ConfigInvalid(str(err)) from err


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as err:
        raise ConfigInvalid(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigInvalid(f"config is not valid JSON: {err}") from err
    stem = str(path).rsplit("/", 1)[-1]
    stem = stem[:-5] if stem.endswith(".json") else stem
    return parse_config(data, scenario_id=stem)


# -- participants ---------------------------------------------------------------


@dataclass(frozen=True)
class Participants:
    """Addresses are seed-derived and role lists are address-sorted so the
    ledger's (submit time, sender) ordering is stable per seed."""

    consumers: tuple
    providers: tuple
    bootstrap: Address


def build_participants(cfg: ScenarioConfig) -> Participants:
    consumers = sorted(
        Address.derive("edgefed", cfg.seed, "consumer", i) for i in range(cfg.consumers)
    )
    providers = sorted(
        Address.derive("edgefed", cfg.seed, "provider", j) for j in range(cfg.providers)
    )
    bootstrap = Address.derive("edgefed", cfg.seed, "bootstrap")
    return Participants(tuple(consumers), tuple(providers), bootstrap)


def build_profiles(cfg: ScenarioConfig, participants: Participants):
    a = cfg.agents
    consumer_profiles = [
        ConsumerProfile(
            address=addr,
            requirements=ServiceRequirements(app_id=f"app-c{i}", replicas=1, bandwidth_mbps=100),
            attach_time_us=a.attach_time_us,
        )
        for i, addr in enumerate(participants.consumers)
    ]
    countries = ("es", "de", "fr", "it", "pt", "nl")
    provider_profiles = [
        ProviderProfile(
            address=addr,
            country=countries[j % len(countries)],
            base_tariff_micro=a.tariffs_micro[j % len(a.tariffs_micro)],
            deploy_model=a.deploy_model,
        )
        for j, addr in enumerate(participants.providers)
    ]
    return consumer_profiles, provider_profiles


def build_genesis(cfg: ScenarioConfig, participants: Participants) -> ContractGenesis:
    operators = (
        [(addr, f"mec-c{i}") for i, addr in enumerate(participants.consumers)]
        + [(addr, f"mec-p{j}") for j, addr in enumerate(participants.providers)]
        + [(participants.bootstrap, "bootstrap")]
    )
    balances = tuple(
        (addr, cfg.agents.genesis_balance_micro) for addr in participants.consumers
    )
    return ContractGenesis(
        operators=tuple(operators),
        balances=balances,
        oracles=(participants.bootstrap,),
        min_offers=min(2, cfg.providers),
    )


def build_consensus(cfg: ScenarioConfig, participants: Participants) -> ConsensusConfig:
    return ConsensusConfig(
        algorithm=Algorithm.QBFT if cfg.variant == "qbft" else Algorithm.CLIQUE,
        block_period_us=cfg.block_period_us,
        message_delay_us=cfg.message_delay_us,
        validation_cost_us=cfg.validation_cost_us,
        validators=tuple(participants.providers) + (participants.bootstrap,),
    )


# -- run execution -----------------------------------------------------------------


@dataclass
class RunResult:
    run_index: int
    traces: list
    blocks: tuple = ()
    genesis: ContractGenesis | None = None
    contract: FederationContract | None = None
    ledger: Ledger | None = None
    stamped_events: list = field(default_factory=list)


class _Runtime:
    """What agents see of the kernel: a clock, a scheduler and tx submission."""

    def __init__(self, kernel: EventQueue, ledger: Ledger):
        self._kernel = kernel
        self._ledger = ledger

    def now_us(self) -> int:
        return self._kernel.now_us

    def schedule(self, fire_us: int, action) -> None:
        self._kernel.schedule(fire_us, action)

    def submit(self, sender: Address, call) -> None:
        self._ledger.submit(sender, call, self._kernel.now_us)


class _ChainRun:
    def __init__(self, cfg: ScenarioConfig, run_index: int):
        self.cfg = cfg
        self.run_index = run_index
        self.participants = build_participants(cfg)
        self.consumer_profiles, self.provider_profiles = build_profiles(cfg, self.participants)
        self.genesis = build_genesis(cfg, self.participants)
        self.ledger = Ledger(build_consensus(cfg, self.participants))
        self.contract = FederationContract(self.genesis)
        self.kernel = EventQueue()
        self.runtime = _Runtime(self.kernel, self.ledger)
        self.stamped_events = []
        rngs = SeededRng(cfg.seed)
        ctx = cfg.agents.pricing_context()
        abstain_prob = cfg.agents.abstain_probability

        self.providers = []
        for rank, profile in enumerate(self.provider_profiles):
            if abstain_prob > 0:
                draw = rngs.stream(f"abstain/run{run_index}/provider{rank}").random()
                profile = replace(profile, abstain=draw < abstain_prob)
            self.providers.append(
                ProviderAgent(
                    profile=profile,
                    runtime=self.runtime,
                    pricing_ctx=ctx,
                    pricing_rng=rngs.stream(f"pricing/run{run_index}/provider{rank}"),
                    reaction_us=cfg.agents.reaction_delay_us,
                )
            )
        self.consumers = [
            ConsumerAgent(
                profile=profile,
                runtime=self.runtime,
                endpoint=OverlayEndpoint(ip=f"10.{i % 250}.0.1", udp_port=4789, vni=100 + i),
                sla=cfg.agents.sla,
                deposit_micro=cfg.agents.deposit_micro,
                min_offers=self.genesis.min_offers,
                reaction_us=cfg.agents.reaction_delay_us,
            )
            for i, profile in enumerate(self.consumer_profiles)
        ]
        # Routing table for _deliver; _consumer_by_ann fills as announcements
        # finalize.
        self._consumer_by_app = {c.profile.requirements.app_id: c for c in self.consumers}
        if len(self._consumer_by_app) != len(self.consumers):
            raise ValueError("consumer app ids must be unique to route announcements")
        self._consumer_by_ann = {}
        self._provider_by_address = {p.profile.address: p for p in self.providers}

    def execute(self) -> RunResult:
        cfg = self.cfg
        if cfg.concurrency_mode == MODE_ALL:
            for consumer in self.consumers:
                self.kernel.schedule(0, consumer.announce)
        else:
            self.kernel.schedule(0, self.consumers[0].announce)
        self.kernel.schedule(self.ledger.next_block_time_us(), self._on_block_time)

        while not self.kernel.empty():
            if self.kernel.peek_time() > cfg.timeout_us:
                break
            self.kernel.step()

        return RunResult(
            run_index=self.run_index,
            traces=self._traces(),
            blocks=tuple(self.ledger.chain),
            genesis=self.genesis,
            contract=self.contract,
            ledger=self.ledger,
            stamped_events=self.stamped_events,
        )

    def _on_block_time(self):
        now = self.kernel.now_us
        block = self.ledger.produce_block(now)
        events = self.contract.execute_block(block)
        stamped = self.ledger.publish_events(block, events)
        self.stamped_events.extend(stamped)
        if stamped:
            self.kernel.schedule(
                block.finality_time_us, lambda batch=stamped: self._deliver(batch)
            )
        next_time = self.ledger.next_block_time_us()
        if not self._all_closed() and next_time <= self.cfg.timeout_us:
            self.kernel.schedule(next_time, self._on_block_time)

    def _deliver(self, batch):
        # Observation happens at finality; within a block, tx order is kept.
        for se in batch:
            for agent in self._recipients(se.event):
                agent.handle(se.event, se.finality_time_us)
            if self.cfg.concurrency_mode == MODE_SINGLE:
                self._maybe_start_next_consumer(se)

    def _recipients(self, event) -> list:
        """The agents that act on `event`: its consumer, then the providers
        concerned. Announcements carry no sender, so their consumer is found
        by app id, and the announcement id is bound to it here."""
        if isinstance(event, ServiceAnnounced):
            consumer = self._consumer_by_app[event.requirements.app_id]
            self._consumer_by_ann[event.ann_id] = consumer
            return [consumer, *self.providers]
        if isinstance(event, (BidPlaced, DeploymentConfirmed)):
            return [self._consumer_by_ann[event.ann_id]]
        if isinstance(event, ProviderChosen):
            return [self._consumer_by_ann[event.ann_id], self._provider_by_address[event.winner]]
        return []

    def _maybe_start_next_consumer(self, se):
        if not isinstance(se.event, FederationClosed):
            return
        closed_count = sum(
            1 for r in self.contract.federations.values() if r.phase >= Phase.CLOSED
        )
        if closed_count < len(self.consumers):
            nxt = self.consumers[closed_count]
            if nxt.announce_submitted_us is None:
                self.kernel.schedule(
                    se.finality_time_us + self.cfg.agents.reaction_delay_us, nxt.announce
                )

    def _all_closed(self) -> bool:
        feds = self.contract.federations
        if len(feds) < len(self.consumers):
            return False
        return all(r.phase >= Phase.CLOSED for r in feds.values())

    def _traces(self) -> list:
        jobs = {}
        for provider in self.providers:
            for job in provider.queue.jobs:
                jobs[job.ann_id] = job
        traces = []
        for consumer in self.consumers:
            job = jobs.get(consumer.ann_id) if consumer.ann_id is not None else None
            deployment_started = job.started_us if job else None
            complete = consumer.established_us is not None and deployment_started is not None
            traces.append(
                FederationTrace(
                    run=self.run_index,
                    ann_id=consumer.ann_id,
                    consumer=consumer.profile.address.hex,
                    winner=consumer.winner.hex if consumer.winner else None,
                    announce_submitted_us=consumer.announce_submitted_us,
                    announce_finalized_us=consumer.announce_finalized_us,
                    second_bid_finalized_us=consumer.second_bid_finalized_us,
                    winner_finalized_us=consumer.winner_finalized_us,
                    deployment_started_us=deployment_started,
                    confirm_finalized_us=consumer.confirm_finalized_us,
                    close_finalized_us=consumer.established_us,
                    complete=complete,
                )
            )
        return traces


def _run_soa(cfg: ScenarioConfig, run_index: int) -> RunResult:
    participants = build_participants(cfg)
    consumer_profiles, provider_profiles = build_profiles(cfg, participants)
    rngs = SeededRng(cfg.seed)
    ctx = cfg.agents.pricing_context()
    streams = {
        profile.address: rngs.stream(f"pricing/run{run_index}/provider{rank}")
        for rank, profile in enumerate(provider_profiles)
    }
    traces = []
    for i, consumer in enumerate(consumer_profiles):
        trace = soa_federate(
            consumer,
            provider_profiles,
            cfg.agents.rtt_us,
            ctx,
            rng_for_provider=lambda p: streams[p.address],
        )
        traces.append(replace(trace, run=run_index, ann_id=i))
    return RunResult(run_index=run_index, traces=traces)


def run_once(cfg: ScenarioConfig, run_index: int) -> RunResult:
    """One isolated run: fresh ledger and contract genesis, one trace per consumer."""
    if cfg.variant == "soa":
        return _run_soa(cfg, run_index)
    return _ChainRun(cfg, run_index).execute()


def run_scenario(cfg: ScenarioConfig) -> list:
    """Execute cfg.runs consecutive runs; traces in (run, announcement) order."""
    traces = []
    for run_index in range(cfg.runs):
        traces.extend(run_once(cfg, run_index).traces)
    return traces
