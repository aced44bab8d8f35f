"""Simulated permissioned ledger.

Mempool admission, block production on a fixed period, round-robin proposers
over a fixed validator set, and per-algorithm finality timing. There is no
networking or signature checking: identity is asserted, and the whole chain is
deterministic given the sequence of submissions.

An `Address` is a 20-byte `bytes` subclass with no instance `__dict__`, so
the nonces, operators, bids and agents keyed by it hash and compare in C;
`canonical` writes it as a record of one field, its bytes. A run makes one
transaction per bid; a `Transaction`, like every record here, is a
slotted record (`canonical.record`), and `submit` builds it by calling its
constructor directly, `Transaction.__new__`.

A block's `parent_digest` is computed when it is first read and then cached
in its slot; until then the slot holds the parent `Block`. So a run hashes
no block unless something reads a digest, and a lone `Block` keeps its
ancestors alive until its digest is read. Comparing or printing a block
reads its digest, and so hashes its ancestors.

A run's memory grows with its transactions, so the per-transaction cost is
kept down. The submissions of one instant share one clock value: each
stores the `submit_time_us` object of the pending transaction before it.
A block is ordered without a key object per transaction: two stable sorts
on fields the transactions already hold, sender then submit time, of
which a block of one instant needs only the first.

A block's fixed cost is kept down too, since one comes every period: an
empty or wholly ready mempool is not searched, and a block of one
transaction is not sorted.
"""

import hashlib
import json
import warnings
from bisect import bisect_left
from enum import Enum
from operator import attrgetter

from . import canonical
from .units import ConfigInvalid, check_field_types, check_non_negative, format_micro, to_micro


class LedgerError(Exception):
    """Base class for ledger rejections."""


class SmallValidatorSetWarning(UserWarning):
    """QBFT with fewer than 4 validators cannot tolerate one Byzantine fault."""


class Address(bytes):
    """20-byte participant identifier: it equals, hashes and orders as its
    bytes do."""

    __slots__ = ()

    def __new__(cls, value: bytes) -> "Address":
        if len(value) != 20:
            raise ValueError("address must be exactly 20 bytes")
        return super().__new__(cls, value)

    @classmethod
    def derive(cls, *parts) -> "Address":
        material = "/".join(map(str, parts)).encode("utf-8")
        return cls(hashlib.sha256(material).digest()[:20])

    def __str__(self) -> str:
        return self.hex()

    def __repr__(self) -> str:
        return f"Address({self.hex()!r})"


class Algorithm(Enum):
    CLIQUE = "clique"
    QBFT = "qbft"


def check_timing(block_period_us: int, message_delay_us: int, validation_cost_us: int) -> None:
    """The range rule of a chain's timing, named by the scenario's `consensus` keys."""
    if block_period_us <= 0:
        raise ConfigInvalid("consensus.block_period_s must be positive")
    check_non_negative("consensus", message_delay_s=message_delay_us,
                       validation_cost_s=validation_cost_us)


@canonical.record
class ConsensusConfig(canonical.Record):
    """The chain's algorithm, block period, message and validation delays and validators."""
    algorithm: Algorithm
    block_period_us: int
    message_delay_us: int = to_micro(0.05)
    validation_cost_us: int = to_micro(0.05)
    validators: tuple[Address, ...] = ()

    def __post_init__(self):
        check_field_types(self)
        check_timing(self.block_period_us, self.message_delay_us, self.validation_cost_us)
        if len(self.validators) < 1:
            raise ConfigInvalid("at least one validator is required")
        if len(set(self.validators)) != len(self.validators):
            raise ConfigInvalid("duplicate validator")
        if self.algorithm is Algorithm.QBFT and len(self.validators) < 4:
            warnings.warn(
                f"QBFT with {len(self.validators)} validators cannot tolerate "
                "a Byzantine fault (needs 3f+1 >= 4)",
                SmallValidatorSetWarning,
                stacklevel=3,  # past the generated __new__, to its caller
            )


def finality_delay_us(cfg: ConsensusConfig) -> int:
    """Delay between a block's production and its observability.

    Clique blocks are usable at production time (forks are out of scope, so no
    extra wait). QBFT pays three message exchanges plus a validation cost that
    scales with ceil(log2(validators)).
    """
    if cfg.algorithm is Algorithm.CLIQUE:
        return 0
    n = len(cfg.validators)
    rounds = max(n - 1, 0).bit_length()  # == ceil(log2(n)) for n >= 1
    return 3 * cfg.message_delay_us + cfg.validation_cost_us * rounds


@canonical.record
class Transaction(canonical.Record):
    """A contract call as submitted: its sender, submit instant and nonce."""
    id: int
    sender: Address
    payload: object
    submit_time_us: int
    nonce: int


@canonical.record
class Block(canonical.Record):
    """A produced block: its transactions in order, its parent and its finality."""
    height: int
    proposer: Address
    timestamp_us: int
    txs: tuple
    parent_digest: "str | Block"  # the parent Block until first read: _ParentDigest
    finality_time_us: int


def block_digest(block: Block) -> str:
    return canonical.digest(block)


class _ParentDigest:
    """`Block.parent_digest`: the parent `Block` until first read, then its
    digest. Both are kept in the field's slot, whose member descriptor this
    wraps; `__set__` stores through it, for a copy or an unpickled block.
    The constructor stores into the slot itself."""

    def __init__(self, slot):
        self._get, self._set = slot.__get__, slot.__set__

    def __get__(self, block, owner=None):
        if block is None:
            raise AttributeError("parent_digest")  # so it is no dataclass default
        # Walk back to the nearest known digest, then hash forward, oldest
        # first, so that each parent's own digest is known when it is hashed.
        get, pending = self._get, []
        value = get(block)
        while type(value) is not str:
            pending.append(block)
            block = value
            value = get(block)
        for block in reversed(pending):
            value = block_digest(get(block))
            self._set(block, value)
        return value

    def __set__(self, block, value):
        self._set(block, value)


Block.parent_digest = _ParentDigest(Block.parent_digest)


@canonical.record
class StampedEvent(canonical.Record):
    """A contract event with its block's height and finality, the instant
    before which nothing may act on it."""

    block_height: int
    finality_time_us: int
    event: object


# A block's tx order: submit time, then sender.
_SUBMIT_TIME = attrgetter("submit_time_us")
_SENDER = attrgetter("sender")


class Ledger:
    def __init__(self, consensus: ConsensusConfig):
        self.consensus = consensus
        self._period_us = consensus.block_period_us
        self._finality_delay_us = finality_delay_us(consensus)
        genesis = Block(
            height=0,
            proposer=consensus.validators[0],
            timestamp_us=0,
            txs=(),
            parent_digest="",
            finality_time_us=self._finality_delay_us,
        )
        self.chain: list[Block] = [genesis]
        # In submission order, which is clock order: submit enforces it, so
        # the transactions ready for a block are a prefix.
        self.mempool: list[Transaction] = []
        self._next_nonce: dict[Address, int] = {}
        self._next_tx_id = 0

    # -- transactions ------------------------------------------------------

    def submit(self, sender: Address, payload, now_us: int) -> Transaction:
        """Admit `payload` from `sender` at the clock `now_us`, with the
        sender's next nonce."""
        if now_us < 0:
            raise LedgerError("submit_time must be non-negative")
        mempool = self.mempool
        if mempool:
            last_us = mempool[-1].submit_time_us
            if now_us == last_us:
                now_us = last_us  # one int object per instant, not one per transaction
            elif now_us < last_us:
                raise LedgerError("submit_time must not precede the last pending submission")
        nonce = self._next_nonce.get(sender, 0)
        self._next_nonce[sender] = nonce + 1
        tx = Transaction.__new__(Transaction, self._next_tx_id, sender, payload, now_us, nonce)
        self._next_tx_id += 1
        mempool.append(tx)
        return tx

    # -- blocks ------------------------------------------------------------

    def next_block_time_us(self) -> int:
        return len(self.chain) * self._period_us

    def produce_block(self, now_us: int) -> Block:
        chain = self.chain
        height = len(chain)
        if now_us != height * self._period_us:
            raise ValueError(
                f"block production at t={now_us}us, expected t={self.next_block_time_us()}us"
            )
        txs = ()
        mempool = self.mempool
        if mempool:
            # Strictly before the boundary: a tx submitted at the production
            # instant waits for the next block.
            if mempool[-1].submit_time_us < now_us:
                cut = len(mempool)
            else:
                cut = bisect_left(mempool, now_us, key=_SUBMIT_TIME)
            ready = mempool[:cut]
            del mempool[:cut]
            if cut > 1:
                # `ready` is in clock order, so a stable sort by sender, then
                # by submit time when it spans more than one instant, gives
                # the order.
                one_instant = ready[0].submit_time_us == ready[-1].submit_time_us
                ready.sort(key=_SENDER)
                if not one_instant:
                    ready.sort(key=_SUBMIT_TIME)
            txs = tuple(ready)
        validators = self.consensus.validators
        block = Block(height, validators[height % len(validators)], now_us, txs, chain[-1],
                      now_us + self._finality_delay_us)
        chain.append(block)
        return block

    # -- export --------------------------------------------------------------

    def chain_dump(self) -> list[dict]:
        return [
            {
                "height": block.height,
                "proposer": block.proposer.hex(),
                "timestamp_s": format_micro(block.timestamp_us),
                "finality_time_s": format_micro(block.finality_time_us),
                "txs": [{"id": tx.id, "kind": type(tx.payload).__name__} for tx in block.txs],
            }
            for block in self.chain
        ]


def write_chain_dump(ledger: Ledger, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ledger.chain_dump(), fh, indent=2)
        fh.write("\n")
