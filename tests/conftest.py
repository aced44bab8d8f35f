import builtins
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
