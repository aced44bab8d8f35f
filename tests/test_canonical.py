import copy
import hashlib
import pickle
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass, field, fields, replace
from enum import Enum, IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgefed import canonical
from edgefed import ledger as ledger_module
from edgefed.contract import Bid, FederationContract, OverlayEndpoint, PlaceBid, ServiceAnnouncement
from edgefed.ledger import Address, Block, Transaction, block_digest
from edgefed.metrics import FederationTrace
from edgefed.simkernel import run_once
from perfbench.reference_edgefed import canonical as reference
from perfbench.reference_edgefed import ledger as ref_ledger

from conftest import assert_built_by_plain_stores, scenario


class Color(Enum):
    RED = "red"
    BLUE = "blue"


class Level(IntEnum):
    LOW = 1
    HIGH = 3


# The frozen reference writes an int subclass as its str(), which for an
# IntEnum member is its value from Python 3.11 on but its name before. So
# before 3.11 the draws compared with it use members whose str() is their
# value, as it is from 3.11 on; canonical writes the value on every Python.
if sys.version_info >= (3, 11):
    _DRAWN_LEVELS = list(Level)
else:
    class _ValueLevel(IntEnum):
        LOW = 1
        HIGH = 3
        __str__ = int.__repr__

    _DRAWN_LEVELS = list(_ValueLevel)


@dataclass(frozen=True)
class Inner:
    name: str
    n: int


@dataclass(frozen=True)
class Outer:
    inner: Inner
    tags: tuple
    flag: bool
    missing: object


# Block and state digests cover these bytes, so they must never change.
PINNED = [
    (None, "6e00000000"),
    (True, "7400000000"),
    (False, "6600000000"),
    (0, "690000000130"),
    (-42, "69000000032d3432"),
    (10**30, "690000001f" + "31" + "30" * 30),
    (Level.HIGH, "690000000133"),
    (Color.RED, "6500000009436f6c6f722e524544"),
    ("héllo €", "730000000a68c3a96c6c6f20e282ac"),
    (b"\x00\xff", "790000000200ff"),
    (bytearray(b"ab"), "79000000026162"),
    ([1, "a"], "6c0000000c690000000131730000000161"),
    ((1, "a"), "6c0000000c690000000131730000000161"),
    ({3, 1, 2}, "7100000012690000000131690000000132690000000133"),
    ({"b", "a", "c"}, "7100000012730000000161730000000162730000000163"),
    (frozenset({"c", "a", "b"}), "7100000012730000000161730000000162730000000163"),
    ({"b": 1, "a": 2}, "6d00000018730000000161690000000132730000000162690000000131"),
    ({"a": 2, "b": 1}, "6d00000018730000000161690000000132730000000162690000000131"),
    ({"b": [1], "a": None}, "6d0000001c7300000001616e000000007300000001626c00000006690000000131"),
    (
        Outer(Inner("x", 5), (1, 2), True, None),
        "640000004073000000054f7574657264000000167300000005496e6e6572730000000178"
        "6900000001356c0000000c69000000013169000000013274000000006e00000000",
    ),
    (
        Address(bytes(range(20))),
        "640000002573000000074164647265737379000000140001020304050607"
        "08090a0b0c0d0e0f10111213",
    ),
]


# repr() of a set of strings follows the per-process string hash seed, so
# those cases carry a fixed element order to keep the test names stable.
def _pinned_id(value):
    if isinstance(value, (set, frozenset)) and all(isinstance(v, str) for v in value):
        body = "{'b', 'a', 'c'}"
        return body if isinstance(value, set) else f"frozenset({body})"
    return repr(value)


@pytest.mark.parametrize("value, expected", PINNED, ids=[_pinned_id(v) for v, _ in PINNED])
def test_encoding_is_pinned(value, expected):
    assert canonical.encode(value).hex() == expected


def test_an_int_subclass_is_written_as_its_value_whatever_its_str():
    # As an IntEnum's str() is before Python 3.11.
    class Named(IntEnum):
        LOW = 1
        HIGH = 30

        def __str__(self):
            return self.name

    assert str(Named.HIGH) == "HIGH"
    assert canonical.encode(Named.HIGH).hex() == "69000000023330"
    assert canonical.encode([Named.LOW]) == canonical.encode([1])


_ADDRESS_BYTES = st.binary(min_size=20, max_size=20)


@given(st.lists(_ADDRESS_BYTES, min_size=1, max_size=5), st.integers(0, 2**40))
@settings(max_examples=200, deadline=None)
def test_an_address_encodes_as_the_reference_dataclass_does(values, micro):
    # A bare address, a transaction's sender, and a map keyed by addresses,
    # the shape of the operators and balances that state_digest hashes.
    ours = [Address(value) for value in values]
    theirs = [ref_ledger.Address(value) for value in values]
    assert canonical.encode(ours[0]) == reference.encode(theirs[0])
    assert canonical.encode(Transaction(5, ours[0], None, micro, 2)) == \
        reference.encode(ref_ledger.Transaction(5, theirs[0], None, micro, 2))
    assert canonical.encode(dict.fromkeys(reversed(ours), micro)) == \
        reference.encode(dict.fromkeys(theirs, micro))


@pytest.mark.parametrize("value, message", [
    (1.5, "floats are not canonical"),
    ([0, {"k": 2.0}], "floats are not canonical"),
    (object(), "no canonical encoding for object"),
    (Inner, "no canonical encoding for type"),
])
def test_unencodable_values_raise_type_error(value, message):
    with pytest.raises(TypeError, match=message):
        canonical.encode(value)


# One N=30 run at seed 7: the last block's digest, the sha256 over every
# block digest of the chain, and the contract's state_digest.
CHAIN_PINS = {
    "clique": (
        "fc7dbcc66068094a24af6428db25e0476dfec95e989e3d83383ecfa37431d2f9",
        "471d483b672b9c1fcd3852d4821aecb3d5c6faab084951adeb8ba0684f059d3b",
    ),
    "qbft": (
        "fc8f239495c15bf7a6f21df484c8d01472655b2237567824efaba16919c64d46",
        "69972c90825da967d5c7f7a200c2de22511945501a2e49141530813bc0551582",
    ),
}
STATE_DIGEST_N30 = "483199f7fb53d62de2d200bd71447b8fc1c1723fd851ece5a6d1b643656c22ab"


@pytest.mark.parametrize("variant", sorted(CHAIN_PINS))
def test_block_and_state_digests_are_pinned(variant):
    result = run_once(scenario(n=30, variant=variant, seed=7), 0)
    last, chain = CHAIN_PINS[variant]
    digests = [block_digest(block) for block in result.blocks]
    assert len(digests) == 11
    assert digests[-1] == last
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == chain
    assert result.contract.state_digest() == STATE_DIGEST_N30


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda block: pickle.loads(pickle.dumps(block)), replace,
], ids=["copy", "deepcopy", "pickle", "replace"])
def test_a_duplicated_block_keeps_the_lazy_parent_digest_of_its_original(monkeypatch, duplicate):
    # The last block of a fresh run, whose ancestors are not hashed yet: its
    # slot holds its parent Block until the duplicate reads it.
    calls, hash_block = [0], ledger_module.block_digest

    def counting(block):
        calls[0] += 1
        return hash_block(block)

    monkeypatch.setattr(ledger_module, "block_digest", counting)
    blocks = run_once(scenario(n=30, seed=7), 0).blocks
    assert calls == [0]
    duplicated = duplicate(blocks[-1])
    assert calls == [len(blocks) - 1]  # each ancestor once, as the duplicate read it
    assert type(duplicated) is Block and duplicated is not blocks[-1]
    assert duplicated.parent_digest == blocks[-1].parent_digest
    last, chain = CHAIN_PINS["clique"]
    digests = [block_digest(block) for block in blocks]
    assert digests[-1] == block_digest(duplicated) == last
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == chain


def test_a_run_builds_no_bid_record_and_its_digest_writes_each_bid_as_one(monkeypatch):
    built, new = [0], Bid.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Bid, "__new__", counting)
    contract = run_once(scenario(n=30, seed=7), 0).contract
    assert built == [0]
    assert contract.state_digest() == STATE_DIGEST_N30
    assert built == [sum(len(record.bids) for record in contract.federations.values())] == [144]


def _record_class(built_through_slots: bool):
    # Two classes of one name: a canonical record and its frozen dataclass twin.
    if built_through_slots:
        @canonical.record
        class Record(canonical.Record):
            n: int
            name: str
            inner: Inner
    else:
        @dataclass(frozen=True, slots=True)
        class Record:
            n: int
            name: str
            inner: Inner

    return Record


Slotted, Twin = _record_class(True), _record_class(False)


def _hashable(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner),
            st.builds(Inner, st.text(max_size=4), st.integers()),
            st.frozensets(inner, max_size=3),
        ),
        max_leaves=6,
    )


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.sampled_from(list(Color) + _DRAWN_LEVELS),
)
_HASHABLE = _hashable(_LEAVES)
_VALUES = st.recursive(
    st.one_of(_HASHABLE, st.builds(bytearray, st.binary(max_size=4))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.sets(_HASHABLE, max_size=4),
        st.dictionaries(_HASHABLE, inner, max_size=4),
        st.builds(Outer, st.builds(Inner, st.text(max_size=3), st.integers()),
                  st.lists(inner, max_size=3).map(tuple), st.booleans(), inner),
        # A frozen slotted record, the shape of every run-path record.
        st.builds(Slotted, st.integers(), st.text(max_size=3), inner),
    ),
    max_leaves=12,
)


@given(_VALUES)
@settings(max_examples=300, deadline=None)
def test_encoding_matches_the_frozen_reference(value):
    assert canonical.encode(value) == reference.encode(value)


@given(_VALUES)
@settings(max_examples=300, deadline=None)
def test_digest_hashes_the_frozen_reference_encoding(value):
    # A digest hashes its own buffer rather than the bytes `encode` returns.
    assert canonical.digest(value) == hashlib.sha256(reference.encode(value)).hexdigest()


def test_block_digest_holds_about_one_copy_of_the_encoding():
    bidders = [Address.derive("mec", i) for i in range(300)]
    txs = tuple(
        Transaction(i, bidders[i % 300], PlaceBid(i // 300, 1_000_000 + 7 * i), 5_000_000 + i, i // 300)
        for i in range(20_000)
    )
    block = Block(3, bidders[0], 15_000_000, txs, "ab" * 32, 15_000_000)
    size = len(canonical.encode(block))
    expected = block_digest(block)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert block_digest(block) == expected
        added = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # The one buffer over-allocates by about an eighth as it grows.
    assert added <= 1.3 * size, f"peak {added} B over a {size} B encoding"


class TestSlotInit:
    def test_the_constructor_is_generated_and_named_after_its_class(self):
        code = Slotted.__new__.__code__
        assert code.co_name == "__new__"
        assert code.co_filename == f"<canonical {__name__}.{Slotted.__qualname__}>"
        assert Slotted.__new__.__qualname__ == f"{Slotted.__qualname__}.__new__"
        assert Twin.__init__.__code__.co_filename != code.co_filename
        assert_built_by_plain_stores(Slotted(1, "a", Inner("x", 2)))

    def test_assignment_after_construction_raises(self):
        record = Slotted(1, "a", Inner("x", 2))
        with pytest.raises(FrozenInstanceError):
            record.n = 2
        assert record.n == 1

    def test_positional_and_keyword_construction_agree(self):
        inner = Inner("x", 2)
        record = Slotted(1, "a", inner)
        assert (record.n, record.name, record.inner) == (1, "a", inner)
        assert Slotted(n=1, name="a", inner=inner) == record
        assert Slotted(1, inner=inner, name="a") == record

    @pytest.mark.parametrize("args, kwargs", [
        ((1, "a"), {}),
        ((1,), {"inner": None}),
        ((1, "a", None, 4), {}),
        ((1, "a", None), {"extra": 4}),
        ((1, "a", None), {"n": 1}),
    ], ids=["missing", "missing_keyword", "extra", "extra_keyword", "repeated"])
    def test_a_missing_or_extra_argument_raises_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Slotted(*args, **kwargs)

    def test_replace_builds_a_new_record(self):
        record = Slotted(1, "a", Inner("x", 2))
        changed = replace(record, name="b")
        assert type(changed) is Slotted and changed == Slotted(1, "b", Inner("x", 2))
        assert record.name == "a"

    @pytest.mark.parametrize("values", [(1, "a", Inner("x", 2)), (-7, "héllo", Inner("", 0))])
    def test_records_behave_as_their_dataclass_twin(self, values):
        slotted, twin = Slotted(*values), Twin(*values)
        assert slotted == Slotted(*values) and twin == Twin(*values)
        assert slotted != Slotted(0, "", None) and twin != Twin(0, "", None)
        assert hash(slotted) == hash(twin)
        assert repr(slotted) == repr(twin)
        assert [f.name for f in fields(slotted)] == [f.name for f in fields(twin)]
        assert canonical.digest(slotted) == canonical.digest(twin)

    def test_records_of_two_types_with_equal_fields_are_unequal(self):
        from edgefed.contract import BidPlaced

        assert PlaceBid(0, 1) != BidPlaced(0, 1)
        assert not PlaceBid(0, 1) == BidPlaced(0, 1)

    def test_a_default_fills_a_left_out_argument(self):
        @canonical.record
        class Defaulted(canonical.Record):
            n: int
            name: str = "a"

        assert (Defaulted(1).n, Defaulted(1).name) == (1, "a")
        assert Defaulted(2, "b").name == "b"
        assert Defaulted(name="c", n=2) == Defaulted(2, "c")

    def test_a_default_factory_is_refused(self):
        class Factory(canonical.Record):
            items: list = field(default_factory=list)

        with pytest.raises(TypeError, match="has a field option"):
            canonical.record(Factory)

    def test_a_post_init_runs_once_the_fields_are_set(self):
        seen = []

        @canonical.record
        class Checked(canonical.Record):
            n: int
            name: str = "a"

            def __post_init__(self):
                seen.append((self.n, self.name))
                if self.n < 0:
                    raise ValueError("negative")

        Checked(1)
        assert seen == [(1, "a")]
        with pytest.raises(ValueError, match="negative"):
            Checked(-1, "b")

    def test_a_mutable_dataclass_is_refused(self):
        @dataclass(slots=True)
        class Mutable:
            n: int

        with pytest.raises(TypeError, match="subclass of canonical.Record"):
            canonical.record(Mutable)


def _run_records(variant: str) -> list:
    """Every record a run makes per transaction: the transactions, their
    calls and the events the calls' handlers return."""
    records = []
    for block, events in run_once(scenario(n=10, variant=variant), 0).published:
        records += [*block.txs, *(tx.payload for tx in block.txs), *events]
    return records


def test_per_transaction_records_are_built_through_their_slots():
    # Every record a run makes once per transaction: calls, the events their
    # handlers return, and the transaction. A record type added later must
    # not fall back to a per-field object.__setattr__.
    records = {type(record): record for record in _run_records("clique") + _run_records("qbft")}
    assert {*FederationContract._HANDLERS, Transaction} <= set(records)
    assert len(records) == 11
    for record in records.values():
        assert_built_by_plain_stores(record)


def _reachable_classes(value, found: set) -> set:
    """The classes of `value` and of every record and tuple item it holds."""
    found.add(type(value))
    if isinstance(value, canonical.Record):
        for f in fields(value):
            _reachable_classes(getattr(value, f.name), found)
    elif isinstance(value, tuple):
        for item in value:
            _reachable_classes(item, found)
    return found


def test_no_constructor_twin_is_reachable_from_a_runs_records():
    # The class each constructor fills before re-classing its instance is
    # never the class of a record a run keeps: each is the class its module
    # declares under its name.
    found = set()
    for variant in ("clique", "qbft"):
        for record in _run_records(variant):
            _reachable_classes(record, found)
    records = {cls for cls in found if issubclass(cls, canonical.Record)}
    assert len(records) >= 11
    for cls in records:
        assert vars(sys.modules[cls.__module__]).get(cls.__qualname__) is cls, cls


_ENDPOINT = OverlayEndpoint("10.0.0.1", 4789, 100)


@pytest.mark.parametrize("record", [
    FederationTrace(0, 3, "ab" * 20, 0, 5_000_000, 10_000_000, 15_100_000, 20_000_000,
                    20_500_000, True),
    _ENDPOINT,
    ServiceAnnouncement(0, Address.derive("consumer"), None, _ENDPOINT, 1),
], ids=lambda record: type(record).__name__)
def test_per_federation_records_are_built_through_their_slots(record):
    # One of each per federation: its trace, an endpoint, its announcement.
    assert_built_by_plain_stores(record)


def test_federation_trace_repr_is_pinned():
    # The benchmark's fingerprint hashes repr(trace).
    trace = FederationTrace(0, 3, "ab" * 20, 0, 5_000_000, 10_000_000, 15_100_000, 20_000_000,
                            20_500_000, True)
    assert repr(trace) == (
        "FederationTrace(run=0, ann_id=3, winner='" + "ab" * 20 + "', "
        "announce_submitted_us=0, second_bid_finalized_us=5000000, "
        "winner_finalized_us=10000000, deployment_started_us=15100000, "
        "confirm_finalized_us=20000000, close_finalized_us=20500000, complete=True)"
    )
