"""Deterministic discrete-event engine and scenario construction.

One logical thread per run: a clock, a time-ordered FIFO event queue,
seeded per-purpose random streams, topology generation, and the wiring that
drives ledger, contract and agents through a full federation workflow.
Two executions with equal configs produce identical ledgers, digests and
traces.

The event queue keeps one FIFO bucket per fire instant under a heap of the
distinct instants, and each step runs one whole instant. All reactions to
one block fire at one instant (14,400 bids at N=300), so dispatching an
event costs a list read, not a heap pop with tuple comparisons or a step
call of its own. A block's events stay one batch; they are stamped
with its height and finality only when `RunResult.stamped_events` is read.

Finalized contract events reach agents through one per-run routing table,
not by broadcast, and only the agents that act on an event receive it: an
announcement goes to every provider that bids in the run, the bid that
reaches the contract's minimum offers and the deployment confirmation to
the federation's consumer, and the selection to the winner. Events no agent
acts on go to none. Providers are called in list order, which is the order
broadcast used; that order fixes the event queue's schedule order and so
every output byte.

Agents keep only what they act on. Each federation's trace is read off the
run's chain: its steps are recorded as each block's events are delivered,
at the block's finality, so a step not final by the timeout is None. An
announcement's consumer is the sender the contract recorded for it.

Agents see nothing of the kernel but its bound `schedule` and nothing of the
ledger but its bound `submit`, both passed in when a run builds them. Each
submission is scheduled to fire at its own submit instant and carries that
instant, so no agent reads the clock.

Every run of one config starts from the same immutable `Cell`: the
consumer profiles with their announcement calls, the provider profiles, the
contract genesis and the consensus config. `run_scenario` builds it once for
all its runs; each run draws its providers' prices and abstentions.
"""

import gc
import hashlib
import heapq
import json
import math
import os
import random
from dataclasses import replace
from functools import partial

from . import canonical
from .agents import (
    ConsumerAgent,
    DeploymentModel,
    PricingContext,
    ProviderAgent,
    ProviderProfile,
    ConsumerProfile,
    pricer,
    soa_federate,
)
from .contract import (
    AnnounceService,
    BidPlaced,
    ContractGenesis,
    DeploymentConfirmed,
    FederationClosed,
    FederationContract,
    OverlayEndpoint,
    ProviderChosen,
    ServiceAnnounced,
    ServiceRequirements,
    SlaTerms,
)
from .ledger import Address, Algorithm, ConsensusConfig, Ledger, StampedEvent, check_timing
from .metrics import FederationTrace
from .units import ConfigInvalid, check_field_types, check_non_negative, ms_to_micro, to_micro


class SchedulingInPast(Exception):
    pass


class TooFewSystems(ConfigInvalid):
    pass


# -- event queue ---------------------------------------------------------------


class EventQueue:
    """Dispatches actions in (fire time, schedule order) order, one instant
    per step.

    A FIFO bucket per instant holds its actions in the order they were
    scheduled, so list position is the only sequence; a heap orders only
    the distinct instants. A step takes the earliest instant and its bucket
    off the queue and runs the whole bucket, so dispatch costs one heap pop
    per instant and a list read per action.
    """

    def __init__(self):
        self._instants = []  # heap of the instants that have a bucket
        self._buckets = {}  # instant -> its actions, in schedule order
        self.now_us = 0

    def schedule(self, fire_us: int, action) -> None:
        if fire_us < self.now_us:
            raise SchedulingInPast(f"t={fire_us}us is before the clock ({self.now_us}us)")
        bucket = self._buckets.get(fire_us)
        if bucket is None:
            bucket = self._buckets[fire_us] = []
            heapq.heappush(self._instants, fire_us)
        bucket.append(action)

    def peek_time(self) -> int | None:
        return self._instants[0] if self._instants else None

    def step(self) -> bool | None:
        """Advance the clock to the next instant and run every action
        scheduled for it: True once they have run, None at queue end. Not
        the fire instant, which can be 0."""
        if not self._instants:
            return None
        # Off the queue before any action runs: whatever one schedules at
        # this instant opens a new bucket, which the next step runs.
        fire_us = heapq.heappop(self._instants)
        bucket = self._buckets.pop(fire_us)
        self.now_us = fire_us
        for i, action in enumerate(bucket):
            bucket[i] = None  # the action is not kept alive once run
            action()
        return True


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


def generate_topology(n_systems: int) -> tuple[int, int]:
    """(consumers, providers) under the stub-heavy 80:20 role ratio."""
    if n_systems < 2:
        raise TooFewSystems(f"topology.n_systems must be at least 2, got {n_systems}")
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

# A chain run holds about 391 B of each transaction it makes until it ends
# and spends about 5 µs on it (README "Memory"), so 10^7 transactions are
# about 4 GB and 50 s a run, and 10^8 about 8 minutes a cell of runs.
MAX_TXS_PER_RUN = 10**7
MAX_TXS_PER_CELL = 10**8


def run_transactions(consumers: int, providers: int) -> int:
    """Transactions one chain run makes when every federation completes: a
    bid per consumer and provider, and each consumer's announcement,
    selection, confirmation and close."""
    return consumers * (providers + 4)


@canonical.record
class AgentParams(canonical.Record):
    """A scenario's `agents` object: delays, tariffs, pricing, deposits and SLA."""
    deploy_model: DeploymentModel = DeploymentModel()
    attach_time_us: int = to_micro(0.5)
    reaction_delay_us: int = to_micro(0.1)
    rtt_us: int = to_micro(0.05)
    tariffs_micro: tuple[int, ...] = tuple(to_micro(t) for t in DEFAULT_TARIFFS)
    pricing: PricingContext = PricingContext(
        hour_of_day=12, time_factor_curve=DEFAULT_TIME_FACTOR_CURVE, jitter_fraction=0.05
    )
    abstain_probability: float = 0.0
    deposit_micro: int = to_micro(10.0)
    sla: SlaTerms = SlaTerms(to_micro(0.99), ms_to_micro(50.0), to_micro(2.0))
    genesis_balance_micro: int = to_micro(100.0)

    def __post_init__(self):
        check_field_types(self)
        check_non_negative("agents", attach_time_s=self.attach_time_us,
                           reaction_delay_s=self.reaction_delay_us, rtt_s=self.rtt_us)
        if not self.tariffs_micro:
            raise ConfigInvalid("agents.tariffs must not be empty")
        if min(self.tariffs_micro) <= 0:
            raise ConfigInvalid("agents.tariffs must be positive")
        ctx = self.pricing
        factor = ctx.time_factor_curve[ctx.hour_of_day]
        if min(self.tariffs_micro) * factor * (1 - ctx.jitter_fraction) < 1:
            # The lowest price a bid can draw: below 1 micro-unit, bids reach
            # the pricer's floor of 1 and winners go by address alone.
            raise ConfigInvalid("agents.tariffs x time_factor_curve[hour_of_day] x "
                                "(1 - jitter_fraction) must be at least 1 micro-unit")
        if not math.isfinite(max(self.tariffs_micro) * factor * (1 + ctx.jitter_fraction)):
            # The highest price a bid can draw: a pricer cannot round infinity.
            raise ConfigInvalid("agents.tariffs x time_factor_curve[hour_of_day] x "
                                "(1 + jitter_fraction) must be finite")
        if not 0 <= self.abstain_probability <= 1:
            # A probability: above 1 would read as 1 and below 0 as 0, silently.
            raise ConfigInvalid("agents.abstain_probability must be in [0, 1]")
        if self.genesis_balance_micro < self.deposit_micro:
            # The contract would reject every announcement as InsufficientBalance.
            raise ConfigInvalid("agents.genesis_balance must be at least agents.announce_deposit")
        if self.deposit_micro < self.sla.penalty_micro:
            # The contract would reject every announcement as DepositBelowPenalty.
            raise ConfigInvalid("agents.announce_deposit must be at least agents.sla.penalty")


@canonical.record
class ScenarioConfig(canonical.Record):
    """One scenario document, validated: topology, variant, consensus, agents and sweep."""
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
    sweep_n: tuple[int, ...] = (2, 10, 15, 25, 30)
    sweep_variants: tuple = VARIANTS
    output_dir: str | None = None

    def __post_init__(self):
        check_field_types(self)
        if (not isinstance(self.scenario_id, str) or self.scenario_id in ("", ".", "..")
                or any(c in self.scenario_id for c in "/\\\0")):
            # It starts every output file name, so it must not leave the output directory.
            raise ConfigInvalid(f"scenario_id must be a plain file name, got {self.scenario_id!r}")
        if self.consumers + self.providers != self.n_systems:
            raise ConfigInvalid(f"topology.split ({self.consumers},{self.providers}) does not "
                                f"sum to topology.n_systems={self.n_systems}")
        if self.consumers < 1 or self.providers < 1:
            raise ConfigInvalid("topology.split needs at least one consumer and one provider")
        for i, variant in enumerate((self.variant, *self.sweep_variants)):
            if variant not in VARIANTS:
                key = f"sweep.variants[{i - 1}]" if i else "consensus.algorithm"
                raise ConfigInvalid(f"unknown variant {variant!r} in {key}, expected one of {VARIANTS}")
        if self.concurrency_mode not in (MODE_SINGLE, MODE_ALL):
            raise ConfigInvalid(f"unknown concurrency_mode {self.concurrency_mode!r}")
        if self.runs < 1:
            raise ConfigInvalid("runs must be >= 1")
        check_timing(self.block_period_us, self.message_delay_us, self.validation_cost_us)
        if self.timeout_us <= 0:
            raise ConfigInvalid("scenario_timeout_s must be positive")
        # A run makes a block each period until the last close or the timeout.
        if self.timeout_us // self.block_period_us > 10**6:
            raise ConfigInvalid("scenario_timeout_s must span at most 1000000 block periods")
        for key, axis in (("sweep.n_systems", self.sweep_n), ("sweep.variants", self.sweep_variants)):
            if not axis:
                raise ConfigInvalid(f"{key} must not be empty")
            # A repeat would run its cell again over the same output files.
            if len(set(axis)) < len(axis):
                raise ConfigInvalid(f"{key} must not repeat a value")
        if any(n < 2 for n in self.sweep_n):
            raise ConfigInvalid("sweep.n_systems must each be at least 2")
        if not isinstance(self.output_dir, (str, type(None))):
            raise ConfigInvalid("output.dir must be a string")
        # The work bound, estimated before any run starts: `run` runs the
        # topology, `sweep` each of its sizes, the largest making the most.
        largest = max(self.sweep_n)
        for key, n, txs in (("topology.n_systems", self.n_systems,
                             run_transactions(self.consumers, self.providers)),
                            ("sweep.n_systems", largest,
                             run_transactions(*generate_topology(largest)))):
            if txs > MAX_TXS_PER_RUN:
                raise ConfigInvalid(f"{key}={n} makes {txs:,} transactions a run, "
                                    f"over the limit of {MAX_TXS_PER_RUN:,}")
            if txs * self.runs > MAX_TXS_PER_CELL:
                raise ConfigInvalid(f"runs={self.runs} at {key}={n} make {txs * self.runs:,} "
                                    f"transactions a cell, over the limit of {MAX_TXS_PER_CELL:,}")


def _number(convert, integer: bool = False):
    """Reader of a JSON number, never a bool: any int if `integer`, else an
    int or float finite as a float. `convert` maps it to its field, and a
    nonzero number it maps to 0 is refused."""
    def read(value, where: str):
        try:
            if (isinstance(value, int if integer else (int, float))
                    and not isinstance(value, bool) and (integer or math.isfinite(value))):
                if (converted := convert(value)) or not value:
                    return converted
                raise ConfigInvalid(f"{where} rounds to 0 from {value!r}")
        except OverflowError:  # beyond the float range, before or after `convert`
            pass
        raise ConfigInvalid(f"{where} must be {'an integer' if integer else 'a finite number'}")
    return read


_integer = _number(int, integer=True)
_real = _number(float)
_micro = _number(to_micro)  # seconds or currency units as integer millionths


def _as_is(value, where: str):
    """A string; the dataclass that holds it checks its value."""
    return value


def _list_of(read_item):
    def read(value, where: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigInvalid(f"{where} must be a list")
        return tuple(read_item(item, f"{where}[{i}]") for i, item in enumerate(value))
    return read


def _section(value, where: str, table: dict) -> dict:
    """The values the JSON object `value` sets, by dotted field path; it only reads.

    `table` maps each key the object may hold to (field path, reader) or, for
    a nested object, to that object's table. A path names a field of
    `ScenarioConfig` or of a record it holds, as `agents.sla.penalty_micro`
    does. A key the object leaves out gives no value, so its field keeps its
    default. Any other key is rejected.
    """
    name = where or "scenario document"
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{name} must be a JSON object")
    unknown = set(value) - set(table)
    if unknown:
        raise ConfigInvalid(f"unknown key(s) {sorted(unknown)} in {name}")
    args = {}
    for key, item in value.items():
        path, entry = f"{where}.{key}" if where else key, table[key]
        if isinstance(entry, dict):
            args.update(_section(item, path, entry))
        else:
            args[entry[0]] = entry[1](item, path)
    return args


def _replaced(record, values: dict):
    """`record` with each dotted field path in `values` set to its value.
    The records it holds are replaced first, so their rules run before its own."""
    own, inner = {}, {}
    for path, value in values.items():
        name, _, rest = path.partition(".")
        if rest:
            inner.setdefault(name, {})[rest] = value
        else:
            own[name] = value
    for name, sub in inner.items():
        own[name] = _replaced(getattr(record, name), sub)
    return replace(record, **own)


# The scenario document's schema, in the table form `_section` reads.
_SCHEMA = {
    "scenario_id": ("scenario_id", _as_is),
    "topology": {"n_systems": ("n_systems", _integer), "split": ("split", _list_of(_integer))},
    "consensus": {
        "algorithm": ("variant", _as_is),
        "block_period_s": ("block_period_us", _micro),
        "message_delay_s": ("message_delay_us", _micro),
        "validation_cost_s": ("validation_cost_us", _micro),
    },
    "agents": {
        "deployment": {
            "container_start_s": ("agents.deploy_model.container_start_us", _micro),
            "vxlan_setup_s": ("agents.deploy_model.vxlan_setup_us", _micro),
            "confirm_overhead_s": ("agents.deploy_model.confirm_overhead_us", _micro),
        },
        "attach_time_s": ("agents.attach_time_us", _micro),
        "reaction_delay_s": ("agents.reaction_delay_us", _micro),
        "rtt_s": ("agents.rtt_us", _micro),
        "tariffs": ("agents.tariffs_micro", _list_of(_micro)),
        "time_factor_curve": ("agents.pricing.time_factor_curve", _list_of(_real)),
        "hour_of_day": ("agents.pricing.hour_of_day", _integer),
        "jitter_fraction": ("agents.pricing.jitter_fraction", _real),
        "abstain_probability": ("agents.abstain_probability", _real),
        "announce_deposit": ("agents.deposit_micro", _micro),
        "sla": {
            "min_availability": ("agents.sla.min_availability_micro", _micro),
            "max_latency_ms": ("agents.sla.max_latency_us", _number(ms_to_micro)),
            "penalty": ("agents.sla.penalty_micro", _micro),
        },
        "genesis_balance": ("agents.genesis_balance_micro", _micro),
    },
    "runs": ("runs", _integer),
    "seed": ("seed", _integer),
    "concurrency_mode": ("concurrency_mode", _as_is),
    "scenario_timeout_s": ("timeout_us", _micro),
    "sweep": {
        "n_systems": ("sweep_n", _list_of(_integer)),
        "variants": ("sweep_variants", _list_of(_as_is)),
    },
    "output": {"dir": ("output_dir", _as_is)},
}


def parse_config(data: dict, scenario_id: str = "scenario") -> ScenarioConfig:
    """Validate a scenario document against _SCHEMA, reading all of it before
    any record is built; a field the document leaves out keeps its default."""
    args = {"scenario_id": scenario_id, **_section(data, "", _SCHEMA)}
    split = args.pop("split", None)  # not a field: it sets consumers and providers
    if split is None and "n_systems" in args:
        split = generate_topology(args["n_systems"])
    if split is not None:
        if len(split) != 2:
            raise ConfigInvalid("topology.split must be [consumers, providers]")
        args["consumers"], args["providers"] = split
        args.setdefault("n_systems", sum(split))
    return _replaced(ScenarioConfig(), args)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as err:
        raise ConfigInvalid(f"config file not found: {path}") from err
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise ConfigInvalid(f"config is not valid JSON: {err}") from err
    return parse_config(data, scenario_id=os.path.basename(path).removesuffix(".json"))


# -- participants ---------------------------------------------------------------


def build_participants(cfg: ScenarioConfig) -> tuple:
    """(consumers, providers, bootstrap): addresses are seed-derived and the
    role tuples address-sorted, so the ledger's (submit time, sender)
    ordering is stable per seed."""
    derive, seed = Address.derive, cfg.seed
    consumers = sorted(derive("edgefed", seed, "consumer", i) for i in range(cfg.consumers))
    providers = sorted(derive("edgefed", seed, "provider", j) for j in range(cfg.providers))
    return tuple(consumers), tuple(providers), derive("edgefed", seed, "bootstrap")


def build_profiles(cfg: ScenarioConfig, consumers: tuple, providers: tuple):
    a = cfg.agents
    consumer_profiles = tuple(
        ConsumerProfile(
            address=addr,
            announcement=AnnounceService(
                requirements=ServiceRequirements(app_id=f"app-c{i}", replicas=1, bandwidth_mbps=100),
                consumer_endpoint=OverlayEndpoint(ip=f"10.{i % 250}.0.1", udp_port=4789, vni=100 + i),
                sla=a.sla,
                deposit_micro=a.deposit_micro,
            ),
            attach_time_us=a.attach_time_us,
        )
        for i, addr in enumerate(consumers)
    )
    provider_profiles = tuple(
        ProviderProfile(
            address=addr,
            base_tariff_micro=a.tariffs_micro[j % len(a.tariffs_micro)],
            deploy_model=a.deploy_model,
        )
        for j, addr in enumerate(providers)
    )
    return consumer_profiles, provider_profiles


def build_genesis(cfg: ScenarioConfig, consumers: tuple, providers: tuple,
                  bootstrap: Address) -> ContractGenesis:
    operators = (
        [(addr, f"mec-c{i}") for i, addr in enumerate(consumers)]
        + [(addr, f"mec-p{j}") for j, addr in enumerate(providers)]
        + [(bootstrap, "bootstrap")]
    )
    balances = tuple((addr, cfg.agents.genesis_balance_micro) for addr in consumers)
    return ContractGenesis(
        operators=tuple(operators),
        balances=balances,
        min_offers=min(2, cfg.providers),
    )


def build_consensus(cfg: ScenarioConfig, providers: tuple, bootstrap: Address) -> ConsensusConfig:
    return ConsensusConfig(
        algorithm=Algorithm.QBFT if cfg.variant == "qbft" else Algorithm.CLIQUE,
        block_period_us=cfg.block_period_us,
        message_delay_us=cfg.message_delay_us,
        validation_cost_us=cfg.validation_cost_us,
        validators=providers + (bootstrap,),
    )


@canonical.record
class Cell(canonical.Record):
    """What every run of one config shares, built once by `build_cell`: the
    consumer and provider profiles and, for a chain variant, the contract
    genesis and the consensus config. All of it is immutable; each run makes
    its own seeded streams, ledger, contract, kernel and agents from it."""

    consumer_profiles: tuple
    provider_profiles: tuple
    genesis: ContractGenesis | None = None  # None for soa
    consensus: ConsensusConfig | None = None  # None for soa


def build_cell(cfg: ScenarioConfig) -> Cell:
    consumers, providers, bootstrap = build_participants(cfg)
    consumer_profiles, provider_profiles = build_profiles(cfg, consumers, providers)
    if cfg.variant == "soa":
        return Cell(consumer_profiles, provider_profiles)
    return Cell(consumer_profiles, provider_profiles,
                build_genesis(cfg, consumers, providers, bootstrap),
                build_consensus(cfg, providers, bootstrap))


# -- run execution -----------------------------------------------------------------


@canonical.record
class RunResult(canonical.Record):
    """One run's traces and, for a chain variant, its ledger, contract and published events."""
    run_index: int
    traces: list
    blocks: tuple = ()
    genesis: ContractGenesis | None = None
    contract: FederationContract | None = None
    ledger: Ledger | None = None
    published: tuple = ()  # (block, its events) per block

    @property
    def stamped_events(self) -> list:
        """Every contract event, in block order and within a block in tx
        order, stamped with its block's height and finality."""
        return [StampedEvent(block.height, block.finality_time_us, event)
                for block, events in self.published for event in events]


# The trace fields a chain gives a federation, none of them final yet.
_UNSEEN = dict.fromkeys(("ann_id", "winner", "announce_submitted_us", "second_bid_finalized_us",
                         "winner_finalized_us", "confirm_finalized_us", "close_finalized_us"))


class _ChainRun:
    def __init__(self, cfg: ScenarioConfig, run_index: int, cell: Cell):
        self.cfg = cfg
        self.run_index = run_index
        self.ledger = Ledger(cell.consensus)
        self.contract = FederationContract(cell.genesis)
        self.kernel = EventQueue()
        self.published = []
        schedule, submit = self.kernel.schedule, self.ledger.submit
        reaction_us, abstain = cfg.agents.reaction_delay_us, cfg.agents.abstain_probability
        self.providers = [
            ProviderAgent(profile, schedule, submit, price, reaction_us)
            for profile, price in zip(cell.provider_profiles, _pricers(cfg, run_index, cell))
        ]
        self.consumers = [ConsumerAgent(profile, schedule, submit, reaction_us)
                          for profile in cell.consumer_profiles]
        # Routing tables for _deliver; _consumer_by_ann fills as announcements
        # are delivered. An announcement goes only to the providers that bid
        # in this run: each sits it out if its draw falls below `abstain`.
        self._bidders = self.providers
        if abstain > 0:
            rngs = SeededRng(cfg.seed)
            self._bidders = [
                provider for rank, provider in enumerate(self.providers)
                if rngs.stream(f"abstain/run{run_index}/provider{rank}").random() >= abstain
            ]
        self._agent_by_address = {a.profile.address: a for a in (*self.providers, *self.consumers)}
        self._consumer_by_ann = {}
        # Each consumer's trace fields, filled in by _deliver. They are made
        # here, before the run allocates its transactions: made as each
        # announcement was delivered, they raised the peak RSS of one N=300
        # run by about 0.75 MB on CPython 3.11, ten times their size.
        self._steps = {consumer: dict(_UNSEEN) for consumer in self.consumers}

    def execute(self) -> RunResult:
        cfg = self.cfg
        starters = self.consumers if cfg.concurrency_mode == MODE_ALL else self.consumers[:1]
        for consumer in starters:
            self.kernel.schedule(0, partial(consumer.announce, 0))
        self.kernel.schedule(self.ledger.next_block_time_us(), self._on_block_time)

        # The cyclic collector is paused for the event loop and for building
        # the result, then left as the caller had it. A run allocates
        # transactions, bids, events and scheduled actions that all live
        # until it ends, so every collection inside it would scan them and
        # free nothing, and so would the first ones after it if the traces
        # were built once the collector was back on. gc.freeze() would not
        # do: it exempts only what exists when it is called, not what the
        # run allocates after, and gc.unfreeze() cannot tell the run's
        # frozen objects from any the caller had frozen itself.
        peek_time, step, timeout_us = self.kernel.peek_time, self.kernel.step, cfg.timeout_us
        collecting = gc.isenabled()
        gc.disable()
        try:
            while (fire_us := peek_time()) is not None and fire_us <= timeout_us:
                step()
            return RunResult(
                run_index=self.run_index,
                traces=self._traces(),
                blocks=tuple(self.ledger.chain),
                genesis=self.contract.genesis,
                contract=self.contract,
                ledger=self.ledger,
                published=tuple(self.published),
            )
        finally:
            if collecting:
                gc.enable()

    def _on_block_time(self):
        now = self.kernel.now_us
        block = self.ledger.produce_block(now)
        events = self.contract.execute_block(block)
        self.published.append((block, events))
        if events:
            self.kernel.schedule(block.finality_time_us, partial(self._deliver, block, events))
        if self.contract.closed < len(self.consumers):
            self.kernel.schedule(self.ledger.next_block_time_us(), self._on_block_time)

    def _deliver(self, block, events):
        """Hand each of a block's events, in tx order, to the agents that act
        on it, and record the trace step it gives its federation. Both happen
        at the block's finality, which the kernel reaches only by the timeout."""
        final_us = block.finality_time_us
        consumer_by_ann, steps = self._consumer_by_ann, self._steps
        min_offers = self.contract.min_offers
        submitted = None  # sender -> submit instant of its announcement in this block
        for event in events:
            kind = type(event)
            if kind is BidPlaced:  # most events: one per bid
                # A provider bids once per announcement, so each count reaches
                # min_offers once, and only that bid makes its consumer select.
                if event.bid_count == min_offers:
                    consumer = consumer_by_ann[event.ann_id]
                    steps[consumer]["second_bid_finalized_us"] = final_us
                    consumer.handle(event, final_us)
            elif kind is ServiceAnnounced:
                # The event carries no sender; the contract recorded it.
                sender = self.contract.federations[event.ann_id].announcement.consumer
                consumer = consumer_by_ann[event.ann_id] = self._agent_by_address[sender]
                if submitted is None:
                    submitted = {tx.sender: tx.submit_time_us for tx in block.txs
                                 if type(tx.payload) is AnnounceService}
                steps[consumer].update(ann_id=event.ann_id, announce_submitted_us=submitted[sender])
                for provider in self._bidders:
                    provider.handle(event, final_us)
            elif kind is ProviderChosen:
                steps[consumer_by_ann[event.ann_id]].update(winner=event.winner.hex(),
                                                            winner_finalized_us=final_us)
                self._agent_by_address[event.winner].handle(event, final_us)
            elif kind is DeploymentConfirmed:  # its consumer closes once attached
                consumer = consumer_by_ann[event.ann_id]
                close_us = final_us + consumer.profile.attach_time_us
                steps[consumer].update(confirm_finalized_us=final_us, close_finalized_us=close_us)
                consumer.handle(event, final_us)
            elif (kind is FederationClosed and self.cfg.concurrency_mode == MODE_SINGLE
                  and self.contract.closed < len(self.consumers)):
                # One federation is open at a time, so each close starts one consumer.
                nxt = self.consumers[self.contract.closed]
                announce_us = final_us + self.cfg.agents.reaction_delay_us
                self.kernel.schedule(announce_us, partial(nxt.announce, announce_us))

    def _traces(self) -> list:
        """One trace per consumer, in consumer order, from the steps its
        federation's delivered events gave and the winner's deployment start."""
        started = {job.ann_id: job.started_us for p in self.providers for job in p.queue.jobs}
        return [
            FederationTrace(run=self.run_index, **step,
                            deployment_started_us=started.get(step["ann_id"]),
                            complete=step["confirm_finalized_us"] is not None)
            for step in self._steps.values()
        ]


def _pricers(cfg: ScenarioConfig, run_index: int, cell: Cell) -> list:
    """Each provider's `pricer` for one run, in profile order, drawing from
    the provider's own stream for that run; both variants price through it."""
    rngs = SeededRng(cfg.seed)
    return [pricer(profile.base_tariff_micro, cfg.agents.pricing,
                   rngs.stream(f"pricing/run{run_index}/provider{rank}"))
            for rank, profile in enumerate(cell.provider_profiles)]


def _run_soa(cfg: ScenarioConfig, run_index: int, cell: Cell) -> RunResult:
    prices = _pricers(cfg, run_index, cell)
    traces = [
        soa_federate(consumer, cell.provider_profiles, cfg.agents.rtt_us, prices, run_index, i)
        for i, consumer in enumerate(cell.consumer_profiles)
    ]
    return RunResult(run_index=run_index, traces=traces)


def run_once(cfg: ScenarioConfig, run_index: int, cell: Cell | None = None) -> RunResult:
    """One isolated run: fresh ledger and contract genesis, one trace per
    consumer. `cell` is `build_cell(cfg)`, built here when not given."""
    if cell is None:
        cell = build_cell(cfg)
    if cfg.variant == "soa":
        return _run_soa(cfg, run_index, cell)
    return _ChainRun(cfg, run_index, cell).execute()


def run_scenario(cfg: ScenarioConfig) -> list:
    """Execute cfg.runs consecutive runs of one cell, built once; traces in
    (run, announcement) order."""
    cell = build_cell(cfg)
    traces = []
    for run_index in range(cfg.runs):
        traces.extend(run_once(cfg, run_index, cell).traces)
    return traces
