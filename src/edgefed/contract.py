"""Federation smart contract.

A deterministic state machine every node executes identically over the
federation lifecycle from negotiation to deployment: service announcements
with escrowed deposits, reverse-auction bidding, lowest-price winner
selection, deployment confirmation and close. Operators are registered at
genesis. SLA terms and the deposit are recorded and escrowed but not
enforced: no call settles a federation, so its deposit stays in escrow after
close. State holds no floats; currency is integer millionths so digests
agree across platforms.
"""

import dataclasses
import json
from dataclasses import dataclass, field
from enum import IntEnum

from . import canonical
from .ledger import Address, Block, StampedEvent
from .units import ConfigInvalid, check_field_types, check_non_negative, format_micro, to_micro


class ContractError(Exception):
    """Base class for rejected contract calls."""


class NotRegistered(ContractError):
    pass


class InsufficientBalance(ContractError):
    pass


class DepositBelowPenalty(ContractError):
    pass


class SelfBid(ContractError):
    pass


class WrongPhase(ContractError):
    pass


class NotConsumer(ContractError):
    pass


class NotEnoughBids(ContractError):
    pass


class NotWinner(ContractError):
    pass


class Phase(IntEnum):
    OPEN = 0
    PROVIDER_CHOSEN = 1
    DEPLOYMENT_CONFIRMED = 2
    CLOSED = 3


# For `_bid`: reading an Enum class attribute goes through the metaclass's
# `__getattr__` hook, about 0.2 µs a read on CPython 3.11.
_OPEN = Phase.OPEN


@canonical.record
class ServiceRequirements(canonical.Record):
    """Demand-side descriptor only; no provider infrastructure details."""

    app_id: str
    replicas: int
    bandwidth_mbps: int


@canonical.record
class OverlayEndpoint(canonical.Record):
    """A VXLAN overlay endpoint: address, UDP port and network identifier."""
    ip: str
    udp_port: int
    vni: int


@canonical.record
class SlaTerms(canonical.Record):
    """The service level an announcement asks for and the penalty it escrows."""
    min_availability_micro: int  # fraction of 1.0 in millionths
    max_latency_us: int
    penalty_micro: int

    def __post_init__(self):
        check_field_types(self)
        # Under AgentParams's rules a negative penalty would admit a negative
        # deposit and balance, and each announcement would escrow it.
        check_non_negative("agents.sla", penalty=self.penalty_micro,
                           max_latency_ms=self.max_latency_us)
        if not 0 <= self.min_availability_micro <= to_micro(1.0):
            raise ConfigInvalid("agents.sla.min_availability must be in [0, 1]")


# -- calls -------------------------------------------------------------------


@canonical.record
class AnnounceService(canonical.Record):
    """Call: a consumer opens an auction, escrowing its deposit."""
    requirements: ServiceRequirements
    consumer_endpoint: OverlayEndpoint
    sla: SlaTerms
    deposit_micro: int


@canonical.record
class PlaceBid(canonical.Record):
    """Call: a provider bids a price on an open announcement."""
    ann_id: int
    price_micro: int


@canonical.record
class ChooseProvider(canonical.Record):
    """Call: the consumer ends bidding; the contract picks the winner."""
    ann_id: int


@canonical.record
class ConfirmDeployment(canonical.Record):
    """Call: the winner reports its service deployed at its overlay endpoint."""
    ann_id: int
    provider_endpoint: OverlayEndpoint


@canonical.record
class CloseFederation(canonical.Record):
    """Call: the consumer closes the federation once attached."""
    ann_id: int


# -- events ------------------------------------------------------------------


@canonical.record
class ServiceAnnounced(canonical.Record):
    """Carries the announcement id and requirements only (data minimization)."""

    ann_id: int
    requirements: ServiceRequirements


@canonical.record
class BidPlaced(canonical.Record):
    """Carries the announcement id and how many bids it holds, not the price."""
    ann_id: int
    bid_count: int


@canonical.record
class ProviderChosen(canonical.Record):
    """Releases the consumer endpoint to the winner at selection time."""

    ann_id: int
    winner: Address
    consumer_endpoint: OverlayEndpoint


@canonical.record
class DeploymentConfirmed(canonical.Record):
    """Releases the provider endpoint to the consumer."""
    ann_id: int
    provider_endpoint: OverlayEndpoint


@canonical.record
class FederationClosed(canonical.Record):
    """Marks the federation closed by its consumer."""
    ann_id: int


# -- state -------------------------------------------------------------------


@canonical.record
class ServiceAnnouncement(canonical.Record):
    """An announcement as the contract stores it: who made it, what and in which block."""
    ann_id: int
    consumer: Address
    requirements: ServiceRequirements
    consumer_endpoint: OverlayEndpoint
    announce_block: int


@canonical.record
class Bid(canonical.Record):
    """A standing bid as `state_digest` writes it. The contract stores each
    bid under its provider as its key, `(price_micro, bid_block,
    order_index)`, and builds this record only for the digest."""
    ann_id: int
    provider: Address
    price_micro: int
    bid_block: int
    order_index: int


def select_winner(bids: dict) -> Address:
    """The auction rule: the provider with the lowest key in `bids` (provider
    -> key tuple), then the lowest address. A chain bid's key is (price,
    block, auction position) and an SOA offer's is (price,)."""
    return min(zip(bids.values(), bids))[1]


@dataclass(eq=False, repr=False)
class FederationRecord:
    """The contract's state of one announcement: its phase, bids, winner and escrow."""
    announcement: ServiceAnnouncement
    phase: Phase
    bids: dict = field(default_factory=dict)  # provider -> (price_micro, bid_block, order_index)
    bid_seq: int = 0
    winner: Address | None = None
    provider_endpoint: OverlayEndpoint | None = None
    escrow_micro: int = 0
    sla: SlaTerms | None = None


@canonical.record
class ContractGenesis(canonical.Record):
    """Shared starting point every replica is constructed from.

    Operators and balances installed here are the only registration and
    funding: no call adds an operator or pays funds in. min_offers is the
    selection threshold ChooseProvider enforces.
    """

    operators: tuple[tuple[Address, str], ...] = ()
    balances: tuple[tuple[Address, int], ...] = ()  # micro units
    min_offers: int = 2

    def __post_init__(self):
        check_field_types(self)
        if self.min_offers < 1:
            # ChooseProvider would pick the lowest of no bids.
            raise ConfigInvalid(f"min_offers must be at least 1, got {self.min_offers}")


def _unknown_call(contract, sender, call, height):
    raise ContractError(f"unknown call {type(call).__name__}")


class FederationContract:
    def __init__(self, genesis: ContractGenesis):
        self.genesis = genesis
        self.operators: dict[Address, str] = dict(genesis.operators)  # no call adds one
        self.balances: dict[Address, int] = dict(genesis.balances)
        # By announcement id, from 0 and never shrunk: the next id is its length.
        self.federations: dict[int, FederationRecord] = {}
        self.min_offers = genesis.min_offers
        self.closed = 0  # federations in Phase.CLOSED
        self.rejected: list[tuple[int, str]] = []  # (tx id, error class name)

    # -- execution ---------------------------------------------------------

    def execute_block(self, block: Block) -> list:
        """Apply every call in ledger order; rejected calls leave no trace in
        state so replicas stay byte-identical. Each call goes to its handler
        as in `apply`, without that frame per transaction."""
        events = []
        handlers, height = self._HANDLERS, block.height
        for tx in block.txs:
            call = tx.payload
            try:
                events.append(handlers.get(type(call), _unknown_call)(self, tx.sender, call, height))
            except ContractError as err:
                self.rejected.append((tx.id, type(err).__name__))
        return events

    def apply(self, sender: Address, call, height: int):
        return self._HANDLERS.get(type(call), _unknown_call)(self, sender, call, height)

    # -- handlers ------------------------------------------------------------
    # One event per applied call, so each is built by its record's
    # constructor directly, `X.__new__(X, ...)`, past the class call.

    def _announce(self, sender, call: AnnounceService, height):
        if sender not in self.operators:
            raise NotRegistered(f"{sender} is not a registered operator")
        if call.deposit_micro < call.sla.penalty_micro:
            raise DepositBelowPenalty(
                f"deposit {call.deposit_micro} does not cover penalty {call.sla.penalty_micro}"
            )
        if self.balances.get(sender, 0) < call.deposit_micro:
            raise InsufficientBalance(f"{sender} cannot escrow {call.deposit_micro}")
        ann_id = len(self.federations)
        self.balances[sender] -= call.deposit_micro
        self.federations[ann_id] = FederationRecord(
            announcement=ServiceAnnouncement(
                ann_id=ann_id,
                consumer=sender,
                requirements=call.requirements,
                consumer_endpoint=call.consumer_endpoint,
                announce_block=height,
            ),
            phase=Phase.OPEN,
            escrow_micro=call.deposit_micro,
            sla=call.sla,
        )
        return ServiceAnnounced.__new__(ServiceAnnounced, ann_id, call.requirements)

    def _bid(self, sender, call: PlaceBid, height):
        # One call per bid, the most of any: the record is read as in
        # _record, without its frame.
        ann_id = call.ann_id
        record = self.federations.get(ann_id)
        if record is None:
            raise ContractError(f"unknown announcement {ann_id}")
        if sender not in self.operators:
            raise NotRegistered(f"{sender} is not a registered operator")
        if sender == record.announcement.consumer:
            raise SelfBid("consumer cannot bid on its own announcement")
        if record.phase is not _OPEN:
            raise WrongPhase(f"bidding is over for announcement {ann_id}")
        # Re-bids overwrite the price and move to the latest auction position.
        bids = record.bids
        bids[sender] = (call.price_micro, height, record.bid_seq)
        record.bid_seq += 1
        return BidPlaced.__new__(BidPlaced, ann_id, len(bids))

    def _choose(self, sender, call: ChooseProvider, height):
        record = self._record(call.ann_id)
        if sender != record.announcement.consumer:
            raise NotConsumer("only the announcing consumer selects a provider")
        if record.phase is not Phase.OPEN:
            raise WrongPhase(f"announcement {call.ann_id} is not open")
        if len(record.bids) < self.min_offers:
            raise NotEnoughBids(
                f"{len(record.bids)} bids, need at least {self.min_offers}"
            )
        winner = select_winner(record.bids)
        record.winner = winner
        record.phase = Phase.PROVIDER_CHOSEN
        return ProviderChosen.__new__(ProviderChosen, call.ann_id, winner,
                                      record.announcement.consumer_endpoint)

    def _confirm(self, sender, call: ConfirmDeployment, height):
        record = self._record(call.ann_id)
        if record.phase is not Phase.PROVIDER_CHOSEN:
            raise WrongPhase(f"announcement {call.ann_id} is not awaiting deployment")
        if sender != record.winner:
            raise NotWinner("only the selected provider confirms deployment")
        record.provider_endpoint = call.provider_endpoint
        record.phase = Phase.DEPLOYMENT_CONFIRMED
        return DeploymentConfirmed.__new__(DeploymentConfirmed, call.ann_id,
                                           call.provider_endpoint)

    def _close(self, sender, call: CloseFederation, height):
        record = self._record(call.ann_id)
        if sender != record.announcement.consumer:
            raise NotConsumer("only the announcing consumer closes the federation")
        if record.phase is not Phase.DEPLOYMENT_CONFIRMED:
            raise WrongPhase(f"announcement {call.ann_id} is not confirmed")
        record.phase = Phase.CLOSED
        self.closed += 1
        return FederationClosed.__new__(FederationClosed, call.ann_id)

    _HANDLERS = {
        AnnounceService: _announce,
        PlaceBid: _bid,
        ChooseProvider: _choose,
        ConfirmDeployment: _confirm,
        CloseFederation: _close,
    }

    # -- queries ---------------------------------------------------------------

    def _record(self, ann_id: int) -> FederationRecord:
        record = self.federations.get(ann_id)
        if record is None:
            raise ContractError(f"unknown announcement {ann_id}")
        return record

    def state_digest(self) -> str:
        # Each standing bid is written as the `Bid` record its key stands for.
        federations = {
            ann_id: dataclasses.replace(record, bids={
                provider: Bid(ann_id, provider, *key) for provider, key in record.bids.items()})
            for ann_id, record in self.federations.items()
        }
        return canonical.digest({"operators": self.operators, "balances": self.balances,
                                 "federations": federations, "next_ann_id": len(self.federations)})

    def total_funds_micro(self) -> int:
        """Balances plus escrow; constant after genesis funding."""
        return sum(self.balances.values()) + sum(
            r.escrow_micro for r in self.federations.values()
        )


# -- event log export ----------------------------------------------------------


def _jsonable(value):
    if isinstance(value, Address):
        return value.hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return value


def event_log_lines(stamped_events) -> list[dict]:
    lines = []
    for se in stamped_events:
        assert isinstance(se, StampedEvent)
        payload = _jsonable(se.event)
        lines.append({
            "block_height": se.block_height,
            "finality_time_s": format_micro(se.finality_time_us),
            "event_kind": type(se.event).__name__,
            "ann_id": payload.pop("ann_id"),
            "payload": payload,
        })
    return lines


def write_event_log(stamped_events, path) -> None:
    """JSON lines, one contract event per line in finality order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in event_log_lines(stamped_events):
            fh.write(json.dumps(line, sort_keys=True))
            fh.write("\n")
