"""Simulated permissioned ledger.

Mempool admission, block production on a fixed period, round-robin proposers,
majority-vote validator admission, and per-algorithm finality timing. There is
no networking or signature checking: identity is asserted, and the whole chain
is deterministic given the sequence of submissions.
"""

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from enum import Enum

from . import canonical
from .units import format_micro, to_micro


class LedgerError(Exception):
    """Base class for ledger rejections."""


class NonceGap(LedgerError):
    """Stale or future nonce; the transaction is rejected."""


class NotAValidator(LedgerError):
    pass


class AlreadyMember(LedgerError):
    pass


class SmallValidatorSetWarning(UserWarning):
    """QBFT with fewer than 4 validators cannot tolerate one Byzantine fault."""


@dataclass(frozen=True, order=True)
class Address:
    """20-byte participant identifier, ordered byte-lexicographically."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != 20:
            raise ValueError("address must be exactly 20 bytes")

    @classmethod
    def derive(cls, *parts) -> "Address":
        material = "/".join(str(p) for p in parts).encode("utf-8")
        return cls(hashlib.sha256(material).digest()[:20])

    @property
    def hex(self) -> str:
        return self.value.hex()

    def __str__(self) -> str:
        return self.value.hex()

    def __repr__(self) -> str:
        return f"Address({self.value.hex()!r})"


class Algorithm(Enum):
    CLIQUE = "clique"
    QBFT = "qbft"


@dataclass(frozen=True)
class ConsensusConfig:
    algorithm: Algorithm
    block_period_us: int
    message_delay_us: int = to_micro(0.05)
    validation_cost_us: int = to_micro(0.05)
    validators: tuple = ()
    max_block_txs: int | None = None

    def __post_init__(self):
        if self.block_period_us <= 0:
            raise ValueError("block period must be positive")
        if len(self.validators) < 1:
            raise ValueError("at least one validator is required")
        if self.algorithm is Algorithm.QBFT and len(self.validators) < 4:
            warnings.warn(
                f"QBFT with {len(self.validators)} validators cannot tolerate "
                "a Byzantine fault (needs 3f+1 >= 4)",
                SmallValidatorSetWarning,
                stacklevel=3,  # past the generated __init__, to its caller
            )


def finality_delay_us(cfg: ConsensusConfig, validator_count: int | None = None) -> int:
    """Delay between a block's production and its observability.

    Clique blocks are usable at production time (forks are out of scope, so no
    extra wait). QBFT pays three message exchanges plus a validation cost that
    scales with ceil(log2(validators)).
    """
    if cfg.algorithm is Algorithm.CLIQUE:
        return 0
    n = len(cfg.validators) if validator_count is None else validator_count
    rounds = max(n - 1, 0).bit_length()  # == ceil(log2(n)) for n >= 1
    return 3 * cfg.message_delay_us + cfg.validation_cost_us * rounds


@dataclass(frozen=True)
class Transaction:
    id: int
    sender: Address
    payload: object
    submit_time_us: int
    nonce: int


@dataclass(frozen=True)
class Block:
    height: int
    proposer: Address
    timestamp_us: int
    txs: tuple
    parent_digest: str
    finality_time_us: int


def block_digest(block: Block) -> str:
    return canonical.digest(block)


@dataclass
class ValidatorSet:
    """Ordered members plus pending admission votes.

    A candidate joins once strictly more than half of the current members have
    voted for it; admission is monotone (votes never remove anyone).
    """

    members: list
    pending_votes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.members:
            raise ValueError("validator set must be non-empty")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate validator")

    def vote_add(self, voter: Address, candidate: Address) -> bool:
        if voter not in self.members:
            raise NotAValidator(f"{voter} is not a validator")
        if candidate in self.members:
            raise AlreadyMember(f"{candidate} is already a member")
        votes = self.pending_votes.setdefault(candidate, set())
        votes.add(voter)
        if len(votes) * 2 > len(self.members):
            self.members.append(candidate)
            del self.pending_votes[candidate]
            return True
        return False


@dataclass(frozen=True)
class StampedEvent:
    block_height: int
    finality_time_us: int
    event: object


class Ledger:
    def __init__(self, consensus: ConsensusConfig):
        self.consensus = consensus
        self.validators = ValidatorSet(list(consensus.validators))
        genesis = Block(
            height=0,
            proposer=self.validators.members[0],
            timestamp_us=0,
            txs=(),
            parent_digest="",
            finality_time_us=self.finality_delay_us(),
        )
        self.chain: list[Block] = [genesis]
        self.mempool: list[Transaction] = []
        self._last_nonce: dict[Address, int] = {}
        self._next_tx_id = 0

    # -- transactions ------------------------------------------------------

    def build_transaction(self, sender: Address, payload, now_us: int) -> Transaction:
        tx = Transaction(
            id=self._next_tx_id,
            sender=sender,
            payload=payload,
            submit_time_us=now_us,
            nonce=self._last_nonce.get(sender, -1) + 1,
        )
        return tx

    def submit_transaction(self, tx: Transaction, now_us: int) -> int:
        expected = self._last_nonce.get(tx.sender, -1) + 1
        if tx.nonce != expected:
            raise NonceGap(f"nonce {tx.nonce} from {tx.sender}, expected {expected}")
        if tx.submit_time_us != now_us:
            raise LedgerError("submit_time must equal the current clock")
        if tx.submit_time_us < 0:
            raise LedgerError("submit_time must be non-negative")
        self._last_nonce[tx.sender] = tx.nonce
        self._next_tx_id = tx.id + 1
        self.mempool.append(tx)
        return tx.id

    def submit(self, sender: Address, payload, now_us: int) -> Transaction:
        tx = self.build_transaction(sender, payload, now_us)
        self.submit_transaction(tx, now_us)
        return tx

    # -- blocks ------------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.chain) - 1

    def next_block_time_us(self) -> int:
        return len(self.chain) * self.consensus.block_period_us

    def finality_delay_us(self) -> int:
        return finality_delay_us(self.consensus, len(self.validators.members))

    def produce_block(self, now_us: int) -> Block:
        if now_us != self.next_block_time_us():
            raise ValueError(
                f"block production at t={now_us}us, expected t={self.next_block_time_us()}us"
            )
        height = len(self.chain)
        members = self.validators.members
        proposer = members[height % len(members)]
        # Strictly before the boundary: a tx submitted at the production
        # instant waits for the next block.
        ready = [tx for tx in self.mempool if tx.submit_time_us < now_us]
        # Sender bytes order exactly as Address (order=True over `value`)
        # does, without a dataclass comparison per pair.
        ready.sort(key=lambda tx: (tx.submit_time_us, tx.sender.value))
        if self.consensus.max_block_txs is not None:
            ready = ready[: self.consensus.max_block_txs]
        included = {id(tx) for tx in ready}
        self.mempool = [tx for tx in self.mempool if id(tx) not in included]
        block = Block(
            height=height,
            proposer=proposer,
            timestamp_us=now_us,
            txs=tuple(ready),
            parent_digest=block_digest(self.chain[-1]),
            finality_time_us=now_us + self.finality_delay_us(),
        )
        self.chain.append(block)
        return block

    def verify_chain(self) -> bool:
        for prev, block in zip(self.chain, self.chain[1:]):
            if block.height != prev.height + 1:
                return False
            if block.parent_digest != block_digest(prev):
                return False
        return True

    # -- governance --------------------------------------------------------

    def vote_add_validator(self, voter: Address, candidate: Address) -> bool:
        """Record a vote; on majority the candidate joins the rotation.

        Membership is consulted at each block production, so a promotion takes
        effect at the next block boundary.
        """
        return self.validators.vote_add(voter, candidate)

    # -- events --------------------------------------------------------------

    def publish_events(self, block: Block, events) -> list[StampedEvent]:
        """Stamp a block's events, in tx order, with its finality time.

        Nothing may act on an event before that instant.
        """
        return [StampedEvent(block.height, block.finality_time_us, ev) for ev in events]

    # -- export --------------------------------------------------------------

    def chain_dump(self) -> list[dict]:
        rows = []
        for block in self.chain:
            rows.append(
                {
                    "height": block.height,
                    "proposer": block.proposer.hex,
                    "timestamp_s": format_micro(block.timestamp_us),
                    "finality_time_s": format_micro(block.finality_time_us),
                    "txs": [
                        {"id": tx.id, "kind": getattr(tx.payload, "KIND", type(tx.payload).__name__)}
                        for tx in block.txs
                    ],
                }
            )
        return rows


def write_chain_dump(ledger: Ledger, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger.chain_dump(), fh, indent=2)
        fh.write("\n")
