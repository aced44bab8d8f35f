import dataclasses
import gc
import itertools
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from edgefed import ledger as ledger_module
from edgefed.canonical import digest
from edgefed.contract import (
    AnnounceService,
    BidPlaced,
    ChooseProvider,
    CloseFederation,
    ConfirmDeployment,
    DeploymentConfirmed,
    FederationClosed,
    PlaceBid,
    ProviderChosen,
    ServiceAnnounced,
)
from edgefed.ledger import (
    Address,
    Algorithm,
    Block,
    ConsensusConfig,
    Ledger,
    LedgerError,
    SmallValidatorSetWarning,
    Transaction,
    block_digest,
    finality_delay_us,
    write_chain_dump,
)
from edgefed.simkernel import build_cell, run_once
from edgefed.units import to_micro

from conftest import addr, clique_config, qbft_config, scenario


from dataclasses import dataclass


@dataclass(frozen=True)
class Ping:
    pass


def make_ledger(n_validators=3, algorithm=Algorithm.CLIQUE, **kw):
    validators = [addr(f"v{i}") for i in range(n_validators)]
    cfg = {
        Algorithm.CLIQUE: clique_config,
        Algorithm.QBFT: qbft_config,
    }[algorithm](validators, **kw)
    return Ledger(cfg)


class TestAddress:
    def test_requires_20_bytes(self):
        with pytest.raises(ValueError):
            Address(b"short")

    def test_total_order_is_byte_lexicographic(self):
        a = Address(bytes([1] * 20))
        b = Address(bytes([2] * 20))
        assert a < b
        assert sorted([b, a]) == [a, b]

    def test_hex_rendering(self):
        a = Address(bytes(range(20)))
        assert str(a) == a.hex() == bytes(range(20)).hex()
        assert len(a.hex()) == 40

    @given(st.binary(min_size=20, max_size=20), st.binary(min_size=20, max_size=20))
    def test_an_address_hashes_compares_and_orders_as_its_bytes(self, x, y):
        a, b = Address(x), Address(y)
        assert bytes(a) == x and type(bytes(a)) is bytes
        assert hash(a) == hash(x)
        assert (a == b) == (x == y) and (a != b) == (x != y)
        assert (a < b) == (x < y) and (a <= b) == (x <= y) and (a > b) == (x > y)
        assert a == x and {a: 1}[x] == 1  # a key found by its bytes

    @pytest.mark.parametrize("record", [
        Address(bytes(20)),
        Transaction(id=0, sender=Address(bytes(20)), payload=Ping(), submit_time_us=0, nonce=0),
    ], ids=["Address", "Transaction"])
    def test_fields_are_frozen_and_there_is_no_instance_dict(self, record):
        # One of each per transaction: one allocation, immutable. An Address
        # is a bytes subclass, immutable as its bytes are, with no slot of
        # its own to set.
        if isinstance(record, Address):
            assert isinstance(record, bytes) and type(record).__slots__ == ()
            with pytest.raises(AttributeError):
                record.value = bytes(20)
        else:
            for f in dataclasses.fields(record):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, f.name, getattr(record, f.name))
        assert not hasattr(record, "__dict__")


class TestSubmission:
    def test_tx_before_boundary_lands_in_next_block(self):
        ledger = make_ledger()
        ledger.submit(addr("s"), Ping(), to_micro(2.0))
        block = ledger.produce_block(to_micro(5.0))
        assert [tx.submit_time_us for tx in block.txs] == [to_micro(2.0)]

    def test_tx_at_exact_boundary_waits_for_next_block(self):
        ledger = make_ledger()
        block_at_5 = ledger.produce_block(to_micro(5.0))
        ledger.submit(addr("s"), Ping(), to_micro(5.0))
        assert block_at_5.txs == ()
        block_at_10 = ledger.produce_block(to_micro(10.0))
        assert [tx.submit_time_us for tx in block_at_10.txs] == [to_micro(5.0)]

    def test_fifo_order_across_senders(self):
        ledger = make_ledger()
        first, second = addr("zz"), addr("aa")
        ledger.submit(first, Ping(), to_micro(1.0))
        ledger.submit(second, Ping(), to_micro(2.0))
        block = ledger.produce_block(to_micro(5.0))
        assert [tx.sender for tx in block.txs] == [first, second]

    def test_equal_submit_times_break_ties_by_address(self):
        ledger = make_ledger()
        low, high = sorted([addr("x"), addr("y")])
        ledger.submit(high, Ping(), to_micro(1.0))
        ledger.submit(low, Ping(), to_micro(1.0))
        block = ledger.produce_block(to_micro(5.0))
        assert [tx.sender for tx in block.txs] == [low, high]

    def test_nonce_strictly_increases_per_sender(self):
        ledger = make_ledger()
        sender = addr("s")
        txs = [ledger.submit(sender, Ping(), 0) for _ in range(3)]
        assert [tx.nonce for tx in txs] == [0, 1, 2]

    def test_a_negative_submission_time_is_refused(self):
        ledger = make_ledger()
        with pytest.raises(LedgerError, match="submit_time must be non-negative"):
            ledger.submit(addr("a"), Ping(), -1)
        assert ledger.mempool == []

    def test_submission_earlier_than_last_pending_rejected(self):
        ledger = make_ledger()
        ledger.submit(addr("a"), Ping(), to_micro(2.0))
        with pytest.raises(LedgerError):
            ledger.submit(addr("b"), Ping(), to_micro(1.0))
        assert [tx.sender for tx in ledger.mempool] == [addr("a")]

    def test_inclusion_bound_for_random_submission_times(self):
        # Every tx submitted at t lands in the block at period * (floor(t/period) + 1).
        period = to_micro(5.0)
        rng = random.Random(1234)
        times = sorted(rng.randrange(0, to_micro(60.0)) for _ in range(1000))
        ledger = make_ledger()
        expected = {}
        for i, t in enumerate(times):
            sender = addr(f"s{i}")
            tx = ledger.submit(sender, Ping(), t)
            expected[tx.id] = (t // period + 1) * period
        now = period
        while ledger.mempool:
            block = ledger.produce_block(now)
            for tx in block.txs:
                assert expected.pop(tx.id) == block.timestamp_us
                assert block.timestamp_us - tx.submit_time_us < period
            now += period
        assert not expected


class TestBlockProduction:
    def test_round_robin_proposer_index(self):
        ledger = make_ledger(3)
        validators = ledger.consensus.validators
        for t in range(1, 5):
            ledger.produce_block(to_micro(5.0 * t))
        assert ledger.chain[4].proposer == validators[4 % 3]

    def test_round_robin_fairness_window(self):
        ledger = make_ledger(4)
        for t in range(1, 13):
            ledger.produce_block(to_micro(5.0 * t))
        for start in range(0, 9):
            window = [b.proposer for b in ledger.chain[start : start + 4]]
            assert len(set(window)) == 4

    def test_empty_mempool_produces_empty_block(self):
        ledger = make_ledger()
        ledger.produce_block(to_micro(5.0))
        block = ledger.produce_block(to_micro(10.0))
        assert block.height == 2 and block.txs == ()

    def test_single_block_holds_all_pending_txs(self):
        ledger = make_ledger()
        for i in range(3):
            ledger.submit(addr(f"s{i}"), Ping(), to_micro(1.0))
        assert len(ledger.produce_block(to_micro(5.0)).txs) == 3

    def test_timestamp_is_height_times_period(self):
        ledger = make_ledger()
        for t in range(1, 4):
            ledger.produce_block(to_micro(5.0 * t))
        for block in ledger.chain:
            assert block.timestamp_us == block.height * to_micro(5.0)

    def test_chain_integrity_recomputable_from_genesis(self):
        ledger = make_ledger()
        ledger.submit(addr("s"), Ping(), 0)
        for t in range(1, 4):
            ledger.produce_block(to_micro(5.0 * t))
        for prev, block in zip(ledger.chain, ledger.chain[1:]):
            assert block.height == prev.height + 1
            assert block.parent_digest == block_digest(prev)

    def test_deterministic_block_sequence(self):
        def build():
            ledger = make_ledger()
            for i in range(4):
                ledger.submit(addr(f"s{i}"), Ping(), to_micro(0.5 * i))
            ledger.produce_block(to_micro(5.0))
            return digest([b for b in ledger.chain])

        assert build() == build()


PERIOD_US = to_micro(5.0)
SENDERS = [addr(tag) for tag in "abcd"]


class TestBlockOrder:
    @given(st.lists(st.tuples(st.integers(-3, 1), st.sampled_from(SENDERS)), max_size=40))
    def test_a_block_is_the_stable_sort_of_the_ready_transactions(self, drawn):
        # Offsets in microseconds from the first block boundary: several
        # instants before it, the boundary itself and one after, with
        # senders repeated within and across instants.
        ledger = make_ledger()
        mempool = ledger.mempool
        submitted = [ledger.submit(sender, Ping(), PERIOD_US + offset)
                     for offset, sender in sorted(drawn, key=lambda d: d[0])]
        block = ledger.produce_block(PERIOD_US)
        ready = [tx for tx in submitted if tx.submit_time_us < PERIOD_US]
        assert list(block.txs) == sorted(ready, key=lambda tx: (tx.submit_time_us,
                                                                tx.sender))
        assert ledger.mempool is mempool
        assert ledger.mempool == [tx for tx in submitted if tx.submit_time_us >= PERIOD_US]

    # Submission instants on quarter periods, boundaries included, across
    # BOUNDARIES periods; before each block a drawn number of them is
    # submitted, so a block can find the mempool empty, all ready, or partly
    # ready (a submission at or past its boundary waits), and can hold
    # several instants.
    BOUNDARIES = 8
    INSTANTS = [q * PERIOD_US // 4 for q in range(4 * BOUNDARIES + 1)]

    @given(st.lists(st.tuples(st.sampled_from(INSTANTS), st.sampled_from(SENDERS)), max_size=40),
           st.lists(st.integers(0, 12), min_size=BOUNDARIES, max_size=BOUNDARIES))
    def test_each_block_of_a_sequence_takes_the_ready_transactions_in_order(self, drawn, batches):
        ledger = make_ledger(4, Algorithm.QBFT)
        mempool, validators = ledger.mempool, ledger.consensus.validators
        delay = finality_delay_us(ledger.consensus)
        to_submit = iter(sorted(drawn, key=lambda d: d[0]))
        pending = []
        for height, batch in enumerate(batches, start=1):
            pending += [ledger.submit(sender, Ping(), t)
                        for t, sender in itertools.islice(to_submit, batch)]
            now = height * PERIOD_US
            block = ledger.produce_block(now)
            ready = [tx for tx in pending if tx.submit_time_us < now]
            pending = [tx for tx in pending if tx.submit_time_us >= now]
            assert list(block.txs) == sorted(ready, key=lambda tx: (tx.submit_time_us,
                                                                    tx.sender))
            assert ledger.mempool is mempool and mempool == pending
            assert (block.height, block.timestamp_us, block.proposer, block.finality_time_us) \
                == (height, now, validators[height % len(validators)], now + delay)
        chain = ledger.chain
        assert chain[-1].parent_digest == block_digest(chain[-2])

    def test_production_off_the_next_boundary_is_refused(self):
        ledger = make_ledger()
        for now in (0, PERIOD_US - 1, PERIOD_US + 1, 2 * PERIOD_US):
            with pytest.raises(ValueError, match=f"expected t={PERIOD_US}us"):
                ledger.produce_block(now)
        assert len(ledger.chain) == 1


def traced(action):
    """`action()`, and the bytes tracemalloc saw it leave held and its peak
    rise, both above what was traced when it started."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = action()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, held - start, peak - start


# Traced bytes that one N=100 all-at-once clique run holds per transaction,
# by CPython minor version: measured 448 on 3.10, 430 on 3.11, 429 on 3.12
# and 430 on 3.13, plus about 5%. With a clock value of its own per
# transaction, and the sort-key tuples that CPython's tuple free list kept
# after each block, a run held 505-519.
HELD_BYTES_PER_TX = {10: 470, 11: 450, 12: 450, 13: 450}


class TestMemory:
    def test_submissions_at_one_instant_share_one_clock_value(self):
        ledger = make_ledger()
        instants = [to_micro(1.0) for _ in range(3)]
        assert instants[0] is not instants[1]  # equal, but separate objects
        txs = [ledger.submit(addr(f"s{i}"), Ping(), t) for i, t in enumerate(instants)]
        assert all(tx.submit_time_us is instants[0] for tx in txs)
        later = ledger.submit(addr("s"), Ping(), to_micro(2.0))
        assert later.submit_time_us == to_micro(2.0)

    def test_a_block_of_one_instant_adds_under_32_bytes_per_transaction_to_the_peak(self):
        n = 10_000
        ledger = make_ledger()
        for i in reversed(range(n)):
            ledger.submit(Address(i.to_bytes(20, "big")), Ping(), to_micro(1.0))
        block, _, peak = traced(lambda: ledger.produce_block(PERIOD_US))
        assert len(block.txs) == n
        assert peak / n < 32  # a (time, sender) key tuple per transaction: about 70

    def test_a_run_holds_a_bounded_number_of_bytes_per_transaction(self):
        bound = HELD_BYTES_PER_TX.get(sys.version_info.minor)
        if bound is None:
            pytest.skip(f"no bound measured on Python 3.{sys.version_info.minor}")
        cfg = scenario(n=100)
        cell = build_cell(cfg)
        result, held, _ = traced(lambda: run_once(cfg, 0, cell))
        txs = sum(len(block.txs) for block in result.blocks)
        assert txs == 1920
        assert held / txs < bound

    def test_a_held_run_keeps_under_3_5_tracked_objects_per_transaction(self):
        # The collector scans what it tracks, so a caller holding results
        # pays per tracked object. A bid's stored key is a tuple of ints,
        # which the collector stops tracking; its call, transaction and
        # event stay tracked.
        cfg = scenario(n=100)
        cell = build_cell(cfg)
        gc.collect()
        before = len(gc.get_objects())
        result = run_once(cfg, 0, cell)
        gc.collect()
        tracked = len(gc.get_objects()) - before
        txs = sum(len(block.txs) for block in result.blocks)
        assert txs == 1920
        assert tracked / txs < 3.5


def _empty_chain(blocks: int) -> list:
    ledger = make_ledger()
    period = ledger.consensus.block_period_us
    for height in range(1, blocks + 1):
        ledger.produce_block(height * period)
    return ledger.chain


class TestLazyParentDigest:
    def test_a_run_hashes_no_block_until_a_digest_is_read(self, monkeypatch):
        calls, hash_block = [0], ledger_module.block_digest

        def counting(block):
            calls[0] += 1
            return hash_block(block)

        monkeypatch.setattr(ledger_module, "block_digest", counting)
        blocks = run_once(scenario(n=30), 0).blocks
        assert len(blocks) > 2 and calls == [0]
        first = blocks[-1].parent_digest
        assert calls == [len(blocks) - 1]  # once per parent; genesis has ""
        assert blocks[-1].parent_digest == first
        assert calls == [len(blocks) - 1]

    @pytest.mark.parametrize("order", [reversed, iter], ids=["back_to_front", "front_to_back"])
    def test_every_parent_digest_hashes_its_parent(self, order):
        blocks = run_once(scenario(n=30), 0).blocks
        read = {block.height: block.parent_digest for block in order(blocks)}
        for prev, block in zip(blocks, blocks[1:]):
            assert read[block.height] == block_digest(prev)

    def test_a_deep_chain_is_read_without_recursion(self):
        # Far deeper than the recursion limit (1000); the last is read first.
        blocks = 100_001
        back_to_front = _empty_chain(blocks)[-1].parent_digest
        twin = _empty_chain(blocks)
        front_to_back = [block.parent_digest for block in twin]
        assert back_to_front == front_to_back[-1]


class TestFinality:
    def test_clique_has_zero_delay(self):
        cfg = clique_config([addr("v0")])
        assert finality_delay_us(cfg) == 0

    def test_qbft_three_phases_plus_validation(self):
        cfg = qbft_config([addr(f"v{i}") for i in range(4)], message_delay_us=to_micro(0.05))
        assert finality_delay_us(cfg) == to_micro(0.25)

    def test_qbft_stays_under_two_seconds_for_small_sets(self):
        for n in range(1, 31):
            cfg = qbft_config([addr(f"v{i}") for i in range(n)])
            gap = finality_delay_us(cfg) - 0
            assert 0 < gap < to_micro(2.0)

    def test_small_qbft_set_warns(self):
        with pytest.warns(SmallValidatorSetWarning) as record:
            ConsensusConfig(
                algorithm=Algorithm.QBFT,
                block_period_us=to_micro(5.0),
                validators=(addr("v0"), addr("v1")),
            )
        # Attributed to the constructor's caller, not the generated __init__.
        assert [w.filename for w in record] == [__file__]

    def test_repeated_validator_rejected(self):
        with pytest.raises(ValueError, match="duplicate validator"):
            clique_config([addr("v0"), addr("v1"), addr("v0")])

    def test_an_empty_validator_set_is_refused(self):
        with pytest.raises(ValueError, match="at least one validator is required"):
            ConsensusConfig(algorithm=Algorithm.CLIQUE, block_period_us=to_micro(5.0),
                            validators=())


def stamped_run(n=10, variant="clique"):
    """One seed-7 run (no call rejected) and its stamped events."""
    result = run_once(scenario(n=n, variant=variant), 0)
    assert result.contract.rejected == []
    return result, result.stamped_events


# The event each call yields when the contract accepts it.
_YIELDS = {AnnounceService: ServiceAnnounced, PlaceBid: BidPlaced, ChooseProvider: ProviderChosen,
           ConfirmDeployment: DeploymentConfirmed, CloseFederation: FederationClosed}


class TestEventStream:
    def test_clique_events_observable_at_production_time(self):
        result, stamped = stamped_run(variant="clique")
        assert stamped[0].finality_time_us == to_micro(5.0)
        assert all(se.finality_time_us == result.blocks[se.block_height].timestamp_us
                   for se in stamped)

    def test_qbft_events_observable_after_finality_delay(self):
        result, stamped = stamped_run(n=15, variant="qbft")  # four validators
        assert stamped[0].finality_time_us == to_micro(5.25)
        assert all(se.finality_time_us == result.blocks[se.block_height].timestamp_us
                   + to_micro(0.25) for se in stamped)

    def test_same_block_events_delivered_in_tx_order(self):
        result, stamped = stamped_run()
        for block in result.blocks:
            events = [se.event for se in stamped if se.block_height == block.height]
            assert [type(ev) for ev in events] == [_YIELDS[type(tx.payload)] for tx in block.txs]
            assert [ev.ann_id for ev in events if type(ev) is not ServiceAnnounced] == [
                tx.payload.ann_id for tx in block.txs if type(tx.payload) is not AnnounceService]

    def test_block_order_preserved_across_blocks(self):
        result, stamped = stamped_run()
        heights = [se.block_height for se in stamped]
        assert heights == sorted(heights)
        assert set(heights) == {block.height for block in result.blocks if block.txs}
        assert len(set(heights)) > 1


class TestChainDump:
    def test_dump_lists_blocks_with_tx_kinds(self, tmp_path):
        ledger = make_ledger()
        ledger.submit(addr("s"), Ping(), to_micro(1.0))
        ledger.produce_block(to_micro(5.0))
        path = tmp_path / "chain.json"
        write_chain_dump(ledger, path)
        rows = json.loads(path.read_text())
        assert [row["height"] for row in rows] == [0, 1]
        assert rows[1]["txs"] == [{"id": 0, "kind": "Ping"}]
        assert rows[1]["timestamp_s"] == "5.000000"
        assert set(rows[0]) == {"height", "proposer", "timestamp_s", "finality_time_s", "txs"}

    def test_dump_is_opened_with_a_fixed_newline(self, tmp_path, written_newlines):
        write_chain_dump(make_ledger(), tmp_path / "chain.json")
        assert written_newlines == {"chain.json": "\n"}
