"""Canonical byte serialization and digests.

Every replicated structure (blocks, contract state) is hashed over a single
deterministic encoding: type-tagged, length-prefixed bytes with dataclass
fields in declaration order and map entries sorted by encoded key. Floats are
rejected on purpose; replicated state must be fixed-point.

Encoders are built once per type, on first use, and looked up by the exact
type of each value. A dataclass's encoder is generated code that reads each
field once, with the type-name header computed when it is built.
"""

import dataclasses
import hashlib
import struct
from enum import Enum

_head = struct.Struct(">cI").pack  # tag byte, then the body length, big-endian


def _lp(tag: bytes, body: bytes) -> bytes:
    return _head(tag, len(body)) + body


def _encode_map(obj) -> bytes:
    pairs = sorted((encode(k), encode(v)) for k, v in obj.items())
    return _lp(b"m", b"".join(k + v for k, v in pairs))


def _dataclass_encoder(cls):
    # Straight-line code per class. Most transaction and payload fields are
    # plain ints, encoded in place; any other value goes through the table.
    lines = ["def encode_dataclass(obj):", "    body = header"]
    for field in dataclasses.fields(cls):
        lines += [
            f"    v = obj.{field.name}",
            "    if type(v) is int:",
            "        s = b'%d' % v",
            "        body += _head(b'i', len(s)) + s",
            "    else:",
            "        body += _ENCODERS[type(v)](v)",
        ]
    lines.append("    return _head(b'd', len(body)) + body")
    namespace = {
        "header": _lp(b"s", cls.__name__.encode("utf-8")),
        "_head": _head,
        "_ENCODERS": _ENCODERS,
    }
    exec("\n".join(lines), namespace)
    return namespace["encode_dataclass"]


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
