"""Canonical byte serialization and digests.

Every replicated structure (blocks, contract state) is hashed over a single
deterministic encoding: type-tagged, length-prefixed bytes with dataclass
fields in declaration order and map entries sorted by encoded key. Floats are
rejected on purpose; replicated state must be fixed-point.

Encoders are built once per type, on first use, and looked up by the exact
type of each value. A dataclass's encoder is generated code that reads each
field once and joins the parts in one pass, with the type-name header
computed when it is built; it is compiled as `encode_<class>` in a file named
after the class, so profiles tell the encoders apart. A record declared with
`fixed_bytes` (an `Address`) is encoded as one constant prefix and its bytes.
The headers of int, bytes and dataclass parts short enough for any
per-transaction record are read from fixed tables built at import; a longer
part's header is packed when it is met. No table grows, and nothing is
memoized across digests.
"""

import dataclasses
import hashlib
import struct
from enum import Enum

_head = struct.Struct(">cI").pack  # tag byte, then the body length, big-endian


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


# Every 64-bit int has at most 20 decimal characters, an address has 20
# bytes, and each per-transaction record's body is under 256 bytes.
_INT_HEADS = _HeadTable(b"i", 24)
_BYTES_HEADS = _HeadTable(b"y", 40)
_RECORD_HEADS = _HeadTable(b"d", 256)


def _encode_map(obj) -> bytes:
    pairs = sorted((encode(k), encode(v)) for k, v in obj.items())
    return _lp(b"m", b"".join(k + v for k, v in pairs))


def _compile(cls, body: list, namespace: dict):
    """Compile one generated encoder under a function name and a file name
    that name `cls`, so profiles and tracebacks tell the encoders apart."""
    name = f"encode_{cls.__name__}"
    source = "\n".join([f"def {name}(obj):", *body])
    exec(compile(source, f"<canonical {cls.__module__}.{cls.__qualname__}>", "exec"), namespace)
    return namespace[name]


def _dataclass_encoder(cls):
    # Straight-line code per class that joins the encoding's parts once.
    # Plain int and bytes fields, most of a transaction, are encoded in
    # place; any other value goes through the table.
    lines = []
    parts = ["header"]
    for i, field in enumerate(dataclasses.fields(cls)):
        lines += [
            f"    v = obj.{field.name}",
            "    t = type(v)",
            "    if t is int:",
            f"        b{i} = b'%d' % v",
            f"        h{i} = _INT_HEADS[len(b{i})]",
            "    elif t is bytes:",
            f"        b{i} = v",
            f"        h{i} = _BYTES_HEADS[len(v)]",
            "    else:",
            f"        b{i} = _ENCODERS[t](v)",
            f"        h{i} = b''",
        ]
        parts += [f"h{i}", f"b{i}"]
    lines += [
        f"    body = b''.join(({', '.join(parts)},))",
        "    return _RECORD_HEADS[len(body)] + body",
    ]
    namespace = {
        "header": _lp(b"s", cls.__name__.encode("utf-8")),
        "_INT_HEADS": _INT_HEADS,
        "_BYTES_HEADS": _BYTES_HEADS,
        "_RECORD_HEADS": _RECORD_HEADS,
        "_ENCODERS": _ENCODERS,
    }
    return _compile(cls, lines, namespace)


def fixed_bytes(size: int):
    """Class decorator for a dataclass whose one field holds `size` bytes in
    every instance, as its constructor guarantees. Its encoding, the same
    bytes the generated encoder gives, is then one constant prefix (the
    record header, the type name and the bytes header) and those bytes."""

    def register(cls):
        (field,) = dataclasses.fields(cls)
        head = _lp(b"s", cls.__name__.encode("utf-8")) + _head(b"y", size)
        prefix = _head(b"d", len(head) + size) + head
        _ENCODERS[cls] = _compile(cls, [f"    return prefix + obj.{field.name}"], {"prefix": prefix})
        return cls

    return register


def _encoder_for(cls):
    if cls is type(None):
        return lambda obj: _lp(b"n", b"")
    if cls is bool:
        return lambda obj: _lp(b"t" if obj else b"f", b"")
    if issubclass(cls, int):
        return lambda obj: _lp(b"i", str(obj).encode("ascii"))
    if issubclass(cls, float):
        raise TypeError("floats are not canonical; use integer micro units")
    if issubclass(cls, str):
        return lambda obj: _lp(b"s", obj.encode("utf-8"))
    if issubclass(cls, (bytes, bytearray)):
        return lambda obj: _lp(b"y", bytes(obj))
    if issubclass(cls, Enum):
        return lambda obj: _lp(b"e", f"{cls.__name__}.{obj.name}".encode("utf-8"))
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_encoder(cls)
    if issubclass(cls, (list, tuple)):
        return lambda obj: _lp(b"l", b"".join([_ENCODERS[type(item)](item) for item in obj]))
    if issubclass(cls, (set, frozenset)):
        return lambda obj: _lp(b"q", b"".join(sorted(encode(item) for item in obj)))
    if issubclass(cls, dict):
        return _encode_map
    raise TypeError(f"no canonical encoding for {cls.__name__}")


class _EncoderTable(dict):
    """Type → encoder, building each encoder on the first lookup of its type."""

    def __missing__(self, cls):
        encoder = self[cls] = _encoder_for(cls)
        return encoder


_ENCODERS = _EncoderTable()


def encode(obj) -> bytes:
    return _ENCODERS[type(obj)](obj)


def digest(obj) -> str:
    """Hex SHA-256 of the canonical encoding."""
    return hashlib.sha256(encode(obj)).hexdigest()
