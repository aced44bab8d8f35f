import builtins
import dataclasses
import dis
import os
import pathlib
import warnings

import pytest

from edgefed import Address, Algorithm, ConsensusConfig, ScenarioConfig
from edgefed.ledger import SmallValidatorSetWarning
from edgefed.simkernel import generate_topology
from edgefed.units import to_micro
from perfbench.reference_edgefed.ledger import (
    SmallValidatorSetWarning as ReferenceSmallValidatorSetWarning,
)


def addr(tag) -> Address:
    return Address.derive("test", tag)


def clique_config(validators, period_s=5.0, **kw) -> ConsensusConfig:
    return ConsensusConfig(
        algorithm=Algorithm.CLIQUE,
        block_period_us=to_micro(period_s),
        validators=tuple(validators),
        **kw,
    )


def qbft_config(validators, period_s=5.0, **kw) -> ConsensusConfig:
    # Fewer than four validators warn; the autouse fixture below silences it.
    return ConsensusConfig(
        algorithm=Algorithm.QBFT,
        block_period_us=to_micro(period_s),
        validators=tuple(validators),
        **kw,
    )


def assert_built_by_plain_stores(record) -> None:
    """`record` has no `__dict__` and refuses assignment, and its class's one
    constructor is the `__new__` `canonical.record` compiled for it: it
    stores each field by a plain attribute store into an instance of a
    subclass that takes them as `object` does, then re-classes it."""
    cls = type(record)
    assert not hasattr(record, "__dict__"), cls
    names = [f.name for f in dataclasses.fields(cls)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[0], None)
    assert "__init__" not in vars(cls), cls
    new = vars(cls)["__new__"]
    code = new.__code__
    assert (code.co_name, code.co_filename) == \
        ("__new__", f"<canonical {cls.__module__}.{cls.__qualname__}>"), cls
    stores = [ins.argval for ins in dis.get_instructions(code) if ins.opname == "STORE_ATTR"]
    assert stores == [*names, "__class__"], cls
    assert set(code.co_names) <= {*names, "_new", "_twin", "__class__", "__post_init__"}, cls
    twin = new.__globals__["_twin"]
    assert twin.__bases__ == (cls,) and twin.__slots__ == (), cls
    assert twin.__setattr__ is object.__setattr__ and twin.__delattr__ is object.__delattr__, cls


def scenario(n=2, variant="clique", seed=7, runs=1, **kw) -> ScenarioConfig:
    consumers, providers = generate_topology(n)
    return ScenarioConfig(
        scenario_id="test",
        n_systems=n,
        consumers=consumers,
        providers=providers,
        variant=variant,
        seed=seed,
        runs=runs,
        **kw,
    )


@pytest.fixture(autouse=True)
def _silence_small_validator_warning():
    # Most scenario fixtures run QBFT with fewer than four validators on
    # purpose, in this package and in its frozen reference copy; the warning
    # itself has a dedicated test. Any other warning fails the test
    # (`filterwarnings` in pyproject.toml).
    with warnings.catch_warnings():
        for category in (SmallValidatorSetWarning, ReferenceSmallValidatorSetWarning):
            warnings.simplefilter("ignore", category=category)
        yield


@pytest.fixture
def written_newlines(monkeypatch):
    """The `newline` argument of each file opened for writing, by file name.
    "\n" and "" write "\n" as it is on every platform; None writes
    `os.linesep`, which is "\r\n" on Windows."""
    seen = {}

    def recording(real_open):
        def opener(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None, **kw):
            if "w" in mode:
                seen[os.path.basename(file)] = newline
            return real_open(file, mode, buffering, encoding, errors, newline, **kw)
        return opener

    # `Path.write_text` opens through `Path.open`, which on 3.10 holds its own
    # reference to `io.open`, so both entry points are wrapped.
    monkeypatch.setattr(builtins, "open", recording(builtins.open))
    monkeypatch.setattr(pathlib.Path, "open", recording(pathlib.Path.open))
    return seen
