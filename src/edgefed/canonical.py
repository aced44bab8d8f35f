"""Canonical byte serialization and digests.

Every replicated structure (blocks, contract state) is hashed over a single
deterministic encoding: type-tagged, length-prefixed bytes with dataclass
fields in declaration order and map entries sorted by encoded key. Floats are
rejected on purpose; replicated state must be fixed-point.

Each type has a writer that appends its encoding to a `bytearray` passed in.
A digest makes one buffer, has the value write itself into it, and hashes
that buffer, so it holds one copy of the encoding at most; `encode` returns
the buffer as bytes. A record, list, tuple, set or map writes its 5-byte tag
and length header with a zero length, appends its parts, then patches the
length in place. Set members and map entries are sorted by their encodings,
so each is written, then cut back out of the buffer; a set or map holds its
members' encodings twice while it is written.

Writers are built once per type, on first use, and looked up by the exact
type of each value. A dataclass's writer is generated code that reads each
field once and writes int and bytes fields in place, with the type-name
header computed when it is built; it is compiled as `encode_<class>` in a
file named after the class, so profiles tell the writers apart. A record
declared with `fixed_bytes` (an `Address`) is written as one constant prefix
and its bytes. The headers of int and bytes parts short enough for any
per-transaction record are read from fixed tables built at import; a longer
part's header is packed when it is met. No table grows, and nothing is
memoized across digests.

`slot_init` gives the per-transaction records a generated constructor too:
it fills each slot directly instead of calling `object.__setattr__` per
field, and is compiled in the same way as the writers.
"""

import dataclasses
import hashlib
import struct
import types
from enum import Enum

_head = struct.Struct(">cI").pack  # tag byte, then the body length, big-endian
_patch_length = struct.Struct(">I").pack_into  # (buffer, offset, length)


def _lp(tag: bytes, body: bytes) -> bytes:
    return _head(tag, len(body)) + body


class _HeadTable(dict):
    """Body length → header for one tag: precomputed below `size`, packed on
    lookup (and not kept) above it, so the table never grows."""

    def __init__(self, tag: bytes, size: int):
        super().__init__((n, _head(tag, n)) for n in range(size))
        self._tag = tag

    def __missing__(self, n):
        return _head(self._tag, n)


# Every 64-bit int has at most 20 decimal characters and an address has 20
# bytes.
_INT_HEADS = _HeadTable(b"i", 24)
_BYTES_HEADS = _HeadTable(b"y", 40)


def _write_none(obj, out):
    out += b"n\0\0\0\0"


def _write_bool(obj, out):
    out += b"t\0\0\0\0" if obj else b"f\0\0\0\0"


def _close(out, start: int) -> None:
    """Write the length of the body that follows the header reserved at
    `start`. That header was written with a zero length, so a body under 256
    bytes, such as any per-transaction record's, sets its last byte only."""
    n = len(out) - start - 5
    if n < 256:
        out[start + 4] = n
    else:
        _patch_length(out, start + 1, n)


def _writer_of_body(tag: bytes, body_of):
    def write(obj, out):
        body = body_of(obj)
        out += _head(tag, len(body))
        out += body

    return write


def _write_sequence(obj, out):
    start = len(out)
    out += b"l\0\0\0\0"
    for item in obj:
        _ENCODERS[type(item)](item, out)
    _close(out, start)


def _write_set(obj, out):
    start = len(out)
    out += b"q\0\0\0\0"
    at = start + 5
    members = []
    for item in obj:
        _ENCODERS[type(item)](item, out)
        members.append(out[at:])
        del out[at:]
    for member in sorted(members):
        out += member
    _close(out, start)


def _write_map(obj, out):
    # An entry is its key's encoding and then its value's. No encoding is a
    # proper prefix of another (its header gives its length), so entries
    # sort as (key, value) pairs do.
    start = len(out)
    out += b"m\0\0\0\0"
    at = start + 5
    entries = []
    for k, v in obj.items():
        _ENCODERS[type(k)](k, out)
        _ENCODERS[type(v)](v, out)
        entries.append(out[at:])
        del out[at:]
    for entry in sorted(entries):
        out += entry
    _close(out, start)


def _compile(cls, name: str, params: str, body: list, namespace: dict):
    """Compile one generated function `name(params)` in a file named after
    `cls`, so profiles and tracebacks tell the generated functions apart."""
    source = "\n".join([f"def {name}({params}):", *body])
    exec(compile(source, f"<canonical {cls.__module__}.{cls.__qualname__}>", "exec"), namespace)
    return namespace[name]


def slot_init(cls):
    """Class decorator for a frozen slotted dataclass: its `__init__` becomes
    generated code that stores each argument through its field's slot (the
    member descriptor's `__set__`), in field order, with the same positional
    or keyword parameters. The dataclass's own `__init__` goes through
    `object.__setattr__` once per field, since the class's `__setattr__`
    raises, which costs several times as much. Only the constructor changes:
    assignment still raises `FrozenInstanceError`, and equality, hashing,
    `repr`, `fields()` and `replace()` are the dataclass's. A default or a
    `__post_init__` needs the dataclass's `__init__`, so such a class is
    refused, as is one that is not a frozen dataclass with slots."""
    if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen):
        raise TypeError(f"slot_init needs a frozen dataclass, not {cls.__qualname__}")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__qualname__} has a __post_init__, which slot_init would skip")
    names, setters = [], {}
    for field in dataclasses.fields(cls):
        if (field.default is not dataclasses.MISSING
                or field.default_factory is not dataclasses.MISSING):
            raise TypeError(f"{cls.__qualname__}.{field.name} has a default")
        slot = getattr(cls, field.name, None)
        if not isinstance(slot, types.MemberDescriptorType):
            raise TypeError(f"{cls.__qualname__}.{field.name} is not a slot")
        names.append(field.name)
        setters[f"_set_{field.name}"] = slot.__set__
    body = [f"    _set_{name}(self, {name})" for name in names]
    init = _compile(cls, "__init__", ", ".join(["self", *names]), body, setters)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


def _dataclass_encoder(cls):
    # Straight-line code per class that appends each field once. Plain int
    # and bytes fields, most of a transaction, are written in place; any
    # other value goes through the table. `_close` is inlined at the end,
    # which saves a call per record.
    lines = ["    start = len(out)", "    out += header"]
    for field in dataclasses.fields(cls):
        lines += [
            f"    v = obj.{field.name}",
            "    t = type(v)",
            "    if t is int:",
            "        v = b'%d' % v",
            "        out += _INT_HEADS[len(v)]",
            "        out += v",
            "    elif t is bytes:",
            "        out += _BYTES_HEADS[len(v)]",
            "        out += v",
            "    else:",
            "        _ENCODERS[t](v, out)",
        ]
    lines += [
        "    n = len(out) - start - 5",
        "    if n < 256:",
        "        out[start + 4] = n",
        "    else:",
        "        _patch_length(out, start + 1, n)",
    ]
    namespace = {
        "header": b"d\0\0\0\0" + _lp(b"s", cls.__name__.encode("utf-8")),
        "_INT_HEADS": _INT_HEADS,
        "_BYTES_HEADS": _BYTES_HEADS,
        "_ENCODERS": _ENCODERS,
        "_patch_length": _patch_length,
    }
    return _compile(cls, f"encode_{cls.__name__}", "obj, out", lines, namespace)


def fixed_bytes(size: int):
    """Class decorator for a dataclass whose one field holds `size` bytes in
    every instance, as its constructor guarantees. Its encoding, the same
    bytes the generated writer gives, is then one constant prefix (the
    record header, the type name and the bytes header) and those bytes."""

    def register(cls):
        (field,) = dataclasses.fields(cls)
        head = _lp(b"s", cls.__name__.encode("utf-8")) + _head(b"y", size)
        prefix = _head(b"d", len(head) + size) + head
        _ENCODERS[cls] = _compile(cls, f"encode_{cls.__name__}", "obj, out",
                                  ["    out += prefix", f"    out += obj.{field.name}"],
                                  {"prefix": prefix})
        return cls

    return register


def _encoder_for(cls):
    if cls is type(None):
        return _write_none
    if cls is bool:
        return _write_bool
    if issubclass(cls, int):
        return _writer_of_body(b"i", lambda obj: str(obj).encode("ascii"))
    if issubclass(cls, float):
        raise TypeError("floats are not canonical; use integer micro units")
    if issubclass(cls, str):
        return _writer_of_body(b"s", str.encode)
    if issubclass(cls, (bytes, bytearray)):
        return _writer_of_body(b"y", bytes)
    if issubclass(cls, Enum):
        return _writer_of_body(b"e", lambda obj: f"{cls.__name__}.{obj.name}".encode("utf-8"))
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_encoder(cls)
    if issubclass(cls, (list, tuple)):
        return _write_sequence
    if issubclass(cls, (set, frozenset)):
        return _write_set
    if issubclass(cls, dict):
        return _write_map
    raise TypeError(f"no canonical encoding for {cls.__name__}")


class _EncoderTable(dict):
    """Type → writer, building each writer on the first lookup of its type."""

    def __missing__(self, cls):
        encoder = self[cls] = _encoder_for(cls)
        return encoder


_ENCODERS = _EncoderTable()


def _written(obj) -> bytearray:
    out = bytearray()
    _ENCODERS[type(obj)](obj, out)
    return out


def encode(obj) -> bytes:
    return bytes(_written(obj))


def digest(obj) -> str:
    """Hex SHA-256 of the canonical encoding, hashed from the one buffer it
    was written into."""
    return hashlib.sha256(_written(obj)).hexdigest()
