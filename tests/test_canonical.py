import hashlib
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass, field, fields, replace
from enum import Enum, IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgefed import canonical
from edgefed.contract import FederationContract, OverlayEndpoint, PlaceBid, ServiceAnnouncement
from edgefed.ledger import Address, Block, Transaction, block_digest
from edgefed.metrics import FederationTrace
from edgefed.simkernel import run_once
from perfbench.reference_edgefed import canonical as reference

from conftest import scenario


class Color(Enum):
    RED = "red"
    BLUE = "blue"


class Level(IntEnum):
    LOW = 1
    HIGH = 3


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
    st.sampled_from(list(Color) + list(Level)),
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


def test_generated_encoders_are_named_after_their_class():
    # Profilers key their rows by file name, line and function name.
    classes = (Transaction, PlaceBid, Address)
    codes = [canonical._ENCODERS[cls].__code__ for cls in classes]
    assert [code.co_name for code in codes] == [f"encode_{cls.__name__}" for cls in classes]
    assert [code.co_filename for code in codes] == [
        f"<canonical {cls.__module__}.{cls.__qualname__}>" for cls in classes
    ]


def _record_class(built_through_slots: bool):
    # Two classes of one name: slot_init's and the dataclass's constructor.
    @dataclass(frozen=True, slots=True)
    class Record:
        n: int
        name: str
        inner: Inner

    return canonical.slot_init(Record) if built_through_slots else Record


Slotted, Twin = _record_class(True), _record_class(False)


class TestSlotInit:
    def test_the_constructor_is_generated_and_named_after_its_class(self):
        code = Slotted.__init__.__code__
        assert code.co_name == "__init__"
        assert code.co_filename == f"<canonical {__name__}.{Slotted.__qualname__}>"
        assert Twin.__init__.__code__.co_filename != code.co_filename

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

    def test_a_default_is_refused(self):
        @dataclass(frozen=True, slots=True)
        class Defaulted:
            n: int
            name: str = "a"

        @dataclass(frozen=True, slots=True)
        class Factory:
            items: list = field(default_factory=list)

        for cls in (Defaulted, Factory):
            with pytest.raises(TypeError, match="has a default"):
                canonical.slot_init(cls)

    def test_a_post_init_is_refused(self):
        @dataclass(frozen=True, slots=True)
        class Checked:
            n: int

            def __post_init__(self):
                raise ValueError

        with pytest.raises(TypeError, match="__post_init__"):
            canonical.slot_init(Checked)

    def test_a_class_without_slots_is_refused(self):
        @dataclass(frozen=True)
        class Unslotted:
            n: int

        with pytest.raises(TypeError, match="not a slot"):
            canonical.slot_init(Unslotted)

    def test_a_mutable_dataclass_is_refused(self):
        @dataclass(slots=True)
        class Mutable:
            n: int

        with pytest.raises(TypeError, match="frozen dataclass"):
            canonical.slot_init(Mutable)


def test_per_transaction_records_are_built_through_their_slots():
    # Every record a run makes once per transaction: calls, the events their
    # handlers return, and the transaction. A record type added later must
    # not fall back to the dataclass's per-field object.__setattr__.
    events = set()
    for variant in ("clique", "qbft"):
        for _, published in run_once(scenario(n=10, variant=variant), 0).published:
            events.update(type(event) for event in published)
    records = {*FederationContract._HANDLERS, *events, Transaction}
    assert len(records) == 11
    for cls in records:
        assert cls.__dataclass_params__.frozen and "__slots__" in cls.__dict__, cls
        code = cls.__init__.__code__
        assert (code.co_name, code.co_filename) == \
            ("__init__", f"<canonical {cls.__module__}.{cls.__qualname__}>"), cls


@pytest.mark.parametrize("cls", [FederationTrace, OverlayEndpoint, ServiceAnnouncement],
                         ids=lambda cls: cls.__name__)
def test_per_federation_records_are_built_through_their_slots(cls):
    # One of each per federation: its trace, an endpoint, its announcement.
    assert cls.__dataclass_params__.frozen and "__slots__" in cls.__dict__
    code = cls.__init__.__code__
    assert (code.co_name, code.co_filename) == \
        ("__init__", f"<canonical {cls.__module__}.{cls.__qualname__}>")


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


def test_address_prefix_encoding_matches_the_generated_one():
    address = Address.derive("mec", 7)
    generated = bytearray()
    canonical._dataclass_encoder(Address)(address, generated)
    assert canonical.encode(address) == generated
    assert canonical.encode(address) == reference.encode(address)
