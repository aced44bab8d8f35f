import dataclasses
import json
import random

import pytest

from edgefed.canonical import digest
from edgefed.ledger import (
    Address,
    Algorithm,
    Block,
    ConsensusConfig,
    Ledger,
    LedgerError,
    SmallValidatorSetWarning,
    StampedEvent,
    Transaction,
    block_digest,
    finality_delay_us,
    write_chain_dump,
)
from edgefed.units import to_micro

from conftest import addr, clique_config, qbft_config


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
        assert str(a) == a.value.hex()
        assert len(a.hex) == 40

    @pytest.mark.parametrize("record", [
        Address(bytes(20)),
        Transaction(id=0, sender=Address(bytes(20)), payload=Ping(), submit_time_us=0, nonce=0),
    ], ids=["Address", "Transaction"])
    def test_fields_are_frozen_and_there_is_no_instance_dict(self, record):
        # One of each per transaction: one slotted allocation, immutable.
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


class TestEventStream:
    def test_clique_events_observable_at_production_time(self):
        ledger = make_ledger(algorithm=Algorithm.CLIQUE)
        ledger.submit(addr("s"), Ping(), 0)
        block = ledger.produce_block(to_micro(5.0))
        stamped = ledger.publish_events(block, ["ev"])
        assert stamped[0].finality_time_us == to_micro(5.0)

    def test_qbft_events_observable_after_finality_delay(self):
        ledger = make_ledger(4, algorithm=Algorithm.QBFT)
        block = ledger.produce_block(to_micro(5.0))
        stamped = ledger.publish_events(block, ["ev"])
        assert stamped[0].finality_time_us == to_micro(5.25)

    def test_same_block_events_delivered_in_tx_order(self):
        ledger = make_ledger()
        block = ledger.produce_block(to_micro(5.0))
        stamped = ledger.publish_events(block, ["first", "second"])
        assert [se.event for se in stamped] == ["first", "second"]

    def test_block_order_preserved_across_blocks(self):
        ledger = make_ledger()
        b1 = ledger.produce_block(to_micro(5.0))
        b2 = ledger.produce_block(to_micro(10.0))
        stamped = ledger.publish_events(b1, ["a"]) + ledger.publish_events(b2, ["b"])
        assert [se.block_height for se in stamped] == [1, 2]
        assert [se.event for se in stamped] == ["a", "b"]


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
