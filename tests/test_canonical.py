import hashlib
from dataclasses import dataclass
from enum import Enum, IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgefed import canonical
from edgefed.ledger import block_digest
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
