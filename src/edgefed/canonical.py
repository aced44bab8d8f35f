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

Every immutable record of the package derives from `Record` and is declared
through `record`, one way: slotted, frozen, equal and hashed by value,
printed field by field, and built by the one constructor `record` compiles,
its `__new__`. That fills a new instance of a private twin subclass, which
takes assignment as `object` does, by plain attribute stores into the slots,
then re-classes it as the record. `X(...)` and `X.__new__(X, ...)` run the
same code; the records a run makes once per transaction are built the
second way, past the class-call protocol. A record has no `__init__`, so
patching one intercepts no construction. It stays a dataclass (`fields`,
`replace`).
Its equality, hashing, refusal of assignment, pickling and repr are written
once here and read a record's fields through one `attrgetter` per class,
where `dataclass` would compile each for each class when the package is
imported.
"""

import dataclasses
import hashlib
import struct
from enum import Enum
from operator import attrgetter
from reprlib import recursive_repr

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


class Record:
    """Base of a frozen record: it equals a record of its own type with equal
    fields and hashes as its field tuple, as a frozen dataclass does, prints
    as `Name(field=value!r, ...)`, and refuses assignment and deletion with
    `FrozenInstanceError`. A copy or an unpickled record is rebuilt field by
    field, not through the constructor. Declare a subclass through `record`."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            values = self._field_values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values(self))

    @recursive_repr()
    def __repr__(self):
        pairs = zip(self.__match_args__, self._field_values(self))
        fields = ", ".join([f"{name}={value!r}" for name, value in pairs])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuilt, (type(self), self._field_values(self))


def _rebuilt(cls, values):
    """The `cls` record holding `values`, filled as its constructor would be
    but without `__post_init__`: a copy or unpickled record."""
    built = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):  # the field names
        object.__setattr__(built, name, value)
    return built


def record(cls):
    """Class decorator for a subclass of `Record`: a slotted dataclass for
    which `dataclass` generates no method, and whose one compiled method is
    its constructor, `__new__`. That takes each field positionally or by
    keyword, in field order, with the field's default if it has one, stores
    it by a plain attribute store into a new instance of a private twin of
    the class that allows assignment, re-classes that instance as `cls`,
    then calls `__post_init__` if the class has one. Every field is
    compared, hashed and printed, so a field option other than a plain
    default is refused."""
    if not issubclass(cls, Record):
        raise TypeError(f"record needs a subclass of canonical.Record, not {cls.__qualname__}")
    cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False, slots=True)
    fields = dataclasses.fields(cls)
    for field in fields:
        if not (field.init and field.repr and field.compare and field.hash is None
                and field.default_factory is dataclasses.MISSING):
            raise TypeError(f"{cls.__qualname__}.{field.name} has a field option")
    get = attrgetter(*cls.__match_args__)
    cls._field_values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))
    cls.__new__ = _constructor(cls, fields)
    return cls


def _constructor(cls, fields):
    """The generated `__new__` of the record class `cls`, compiled in a file
    named after the class, so profiles and tracebacks tell the constructors
    apart. `X(...)` and `X.__new__(X, ...)` run it alike; the second skips
    the class-call protocol, about 0.1 µs."""
    # The twin has the class's layout, so an instance can change between the
    # two. It takes object's own __setattr__ and __delattr__, both, or CPython
    # keeps its slow attribute slot, and each field's slot member, so a
    # descriptor later put on the class (Block.parent_digest) is passed by.
    twin = type(f"_{cls.__name__}Twin", (cls,), {
        "__slots__": (), "__setattr__": object.__setattr__, "__delattr__": object.__delattr__,
        **{field.name: getattr(cls, field.name) for field in fields},
    })
    namespace = {"_new": object.__new__, "_twin": twin}
    params, body = ["cls"], ["    self = _new(_twin)"]
    for field in fields:
        name = field.name
        if field.default is dataclasses.MISSING:
            params.append(name)
        else:
            namespace[f"_default_{name}"] = field.default
            params.append(f"{name}=_default_{name}")
        body.append(f"    self.{name} = {name}")
    body.append("    self.__class__ = cls")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    body.append("    return self")
    source = "\n".join([f"def __new__({', '.join(params)}):", *body])
    exec(compile(source, f"<canonical {cls.__module__}.{cls.__qualname__}>", "exec"), namespace)
    new = namespace["__new__"]
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    return new


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
