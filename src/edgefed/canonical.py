"""Canonical byte serialization and digests.

Every replicated structure (blocks, contract state) is hashed over a single
deterministic encoding: type-tagged, length-prefixed bytes with dataclass
fields in declaration order and map entries sorted by encoded key. A `bytes`
subclass is written as a record of its type with its bytes as the one field.
Floats are rejected on purpose; replicated state must be fixed-point.

`_write` appends a value's encoding to a `bytearray` passed in. A digest
makes one buffer, has the value written into it, and hashes that buffer, so
it holds one copy of the encoding at most; `encode` returns the buffer as
bytes. A record, list, tuple, set or map writes its 5-byte tag and length
header with a zero length, appends its parts, then patches the length in
place. Set members and map entries are sorted by their encodings, so each is
written, then cut back out of the buffer; a set or map holds its members'
encodings twice while it is written. A record's header and field names are
kept per dataclass type from its first write; nothing else outlives a
digest.

`slot_init` gives the per-transaction records a generated constructor: it
fills each slot directly instead of calling `object.__setattr__` per field.
"""

import dataclasses
import hashlib
import struct
import types
from enum import Enum

_head = struct.Struct(">cI").pack  # tag byte, then the body length, big-endian
_patch_length = struct.Struct(">I").pack_into  # (buffer, offset, length)

_RECORDS = {}  # dataclass type -> (its record header and type name, its field names)


def _close(out, start: int) -> None:
    """Write the length of the body that follows the header reserved at
    `start`. That header was written with a zero length, so a body under 256
    bytes, such as any per-transaction record's, sets its last byte only."""
    n = len(out) - start - 5
    if n < 256:
        out[start + 4] = n
    else:
        _patch_length(out, start + 1, n)


def _write(obj, out) -> None:
    """Append the encoding of `obj` to `out`."""
    if obj is None:
        tag, body = b"n", b""
    elif obj is True:
        tag, body = b"t", b""
    elif obj is False:
        tag, body = b"f", b""
    elif isinstance(obj, int):
        # Its value's digits on every Python, whatever str() of the type
        # gives: an IntEnum member's str() is its name before 3.11.
        tag, body = b"i", b"%d" % obj
    elif isinstance(obj, float):
        raise TypeError("floats are not canonical; use integer micro units")
    elif isinstance(obj, str):
        tag, body = b"s", obj.encode("utf-8")
    elif type(obj) is bytes or type(obj) is bytearray:
        tag, body = b"y", obj
    elif isinstance(obj, Enum):
        tag, body = b"e", f"{type(obj).__name__}.{obj.name}".encode("utf-8")
    else:
        _write_composite(obj, out)
        return
    out += _head(tag, len(body))
    out += body


def _record(cls):
    """(header, field names) of the dataclass `cls`, kept on first use. A
    `bytes` subclass, such as `ledger.Address`, is a record whose one field
    is its bytes, so its field names are None. None for any other type."""
    if issubclass(cls, bytes):
        fields = None
    elif dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        fields = tuple(field.name for field in dataclasses.fields(cls))
    else:
        return None
    name = cls.__name__.encode("utf-8")
    record = _RECORDS[cls] = (b"d\0\0\0\0" + _head(b"s", len(name)) + name, fields)
    return record


def _write_composite(obj, out) -> None:
    """`_write` for a record, list, tuple, set or map: its header with a zero
    length, its parts, then the length patched in."""
    start = len(out)
    record = _RECORDS.get(type(obj)) or _record(type(obj))
    if record is not None:
        header, fields = record
        out += header
        if fields is None:
            out += _head(b"y", len(obj))
            out += obj
        else:
            for name in fields:
                _write(getattr(obj, name), out)
    elif isinstance(obj, (list, tuple)):
        out += b"l\0\0\0\0"
        for item in obj:
            _write(item, out)
    elif isinstance(obj, (set, frozenset)):
        out += b"q\0\0\0\0"
        _write_sorted(zip(obj), out)
    elif isinstance(obj, dict):
        # An entry is its key's encoding and then its value's. No encoding
        # is a proper prefix of another (its header gives its length), so
        # entries sort as (key, value) pairs do.
        out += b"m\0\0\0\0"
        _write_sorted(obj.items(), out)
    else:
        raise TypeError(f"no canonical encoding for {type(obj).__name__}")
    _close(out, start)


def _write_sorted(members, out) -> None:
    """Append each member, a tuple of values written one after another, in
    the order of the members' encodings."""
    at = len(out)
    encoded = []
    for member in members:
        for value in member:
            _write(value, out)
        encoded.append(out[at:])
        del out[at:]
    for member in sorted(encoded):
        out += member


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
    raises, which costs several times as much. Declare the dataclass with
    `init=False`: its own `__init__` would be compiled only to be replaced.
    Only the constructor changes: assignment still raises
    `FrozenInstanceError`, and equality, hashing, `fields()` and `replace()`
    are the dataclass's; `repr` is whatever the class's dataclass options
    give. A default or a `__post_init__` needs the dataclass's `__init__`, so
    such a class is refused, as is one that is not a frozen dataclass with
    slots."""
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


def _written(obj) -> bytearray:
    out = bytearray()
    _write(obj, out)
    return out


def encode(obj) -> bytes:
    return bytes(_written(obj))


def digest(obj) -> str:
    """Hex SHA-256 of the canonical encoding, hashed from the one buffer it
    was written into."""
    return hashlib.sha256(_written(obj)).hexdigest()
