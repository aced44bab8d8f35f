"""Canonical byte serialization and digests.

Every replicated structure (blocks, contract state) is hashed over a single
deterministic encoding: type-tagged, length-prefixed bytes with dataclass
fields in declaration order and map entries sorted by encoded key. Floats are
rejected on purpose; replicated state must be fixed-point.
"""

import dataclasses
import functools
import hashlib
from enum import Enum


def _lp(tag: bytes, body: bytes) -> bytes:
    return tag + len(body).to_bytes(4, "big") + body


@functools.cache
def _field_names(cls) -> tuple:
    # Per type, not per object: dataclasses.fields is costly on hot paths.
    return tuple(f.name for f in dataclasses.fields(cls))


def encode(obj) -> bytes:
    if obj is None:
        return _lp(b"n", b"")
    if obj is True:
        return _lp(b"t", b"")
    if obj is False:
        return _lp(b"f", b"")
    if isinstance(obj, int):
        return _lp(b"i", str(obj).encode("ascii"))
    if isinstance(obj, float):
        raise TypeError("floats are not canonical; use integer micro units")
    if isinstance(obj, str):
        return _lp(b"s", obj.encode("utf-8"))
    if isinstance(obj, (bytes, bytearray)):
        return _lp(b"y", bytes(obj))
    if isinstance(obj, Enum):
        return _lp(b"e", f"{type(obj).__name__}.{obj.name}".encode("utf-8"))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = _lp(b"s", type(obj).__name__.encode("utf-8"))
        for name in _field_names(type(obj)):
            body += encode(getattr(obj, name))
        return _lp(b"d", body)
    if isinstance(obj, (list, tuple)):
        return _lp(b"l", b"".join(encode(item) for item in obj))
    if isinstance(obj, (set, frozenset)):
        return _lp(b"q", b"".join(sorted(encode(item) for item in obj)))
    if isinstance(obj, dict):
        pairs = sorted((encode(k), encode(v)) for k, v in obj.items())
        return _lp(b"m", b"".join(k + v for k, v in pairs))
    raise TypeError(f"no canonical encoding for {type(obj).__name__}")


def digest(obj) -> str:
    """Hex SHA-256 of the canonical encoding."""
    return hashlib.sha256(encode(obj)).hexdigest()
