import copy
import dataclasses
import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import edgefed
from edgefed.agents import (
    ConsumerProfile,
    DeploymentJob,
    DeploymentModel,
    PricingContext,
    ProviderProfile,
)
from edgefed.contract import (
    AnnounceService,
    Bid,
    BidPlaced,
    ChooseProvider,
    CloseFederation,
    ConfirmDeployment,
    ContractGenesis,
    DeploymentConfirmed,
    FederationClosed,
    FederationContract,
    FederationRecord,
    OverlayEndpoint,
    Phase,
    PlaceBid,
    ProviderChosen,
    ServiceAnnounced,
    ServiceAnnouncement,
    ServiceRequirements,
    SlaTerms,
)
from edgefed.ledger import Address, Algorithm, Block, ConsensusConfig, StampedEvent, Transaction
from edgefed.metrics import AggregateStats, FederationTrace, PhaseBreakdown, SegmentStats
from edgefed.simkernel import AgentParams, Cell, RunResult, ScenarioConfig
from edgefed.units import ConfigInvalid, ms_to_micro, to_micro

from conftest import assert_built_by_plain_stores


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from edgefed import *", namespace)
    missing = [name for name in edgefed.__all__ if name not in namespace]
    assert missing == []


def test_the_readme_library_use_block_runs_as_written(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert len(namespace["results"]) == 20
    assert sorted(path.name for path in tmp_path.iterdir()) == ["chain.json", "events.jsonl"]


# -- what each record class is built with ---------------------------------------


def _dataclasses():
    """Every dataclass the package defines, by name."""
    found = {}
    for info in pkgutil.iter_modules(edgefed.__path__):
        module = importlib.import_module(f"edgefed.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                found[value.__name__] = value
    return found


DATACLASSES = _dataclasses()

# The one record a run changes in place, so a plain mutable dataclass.
# Every other record is a `canonical.record`: slotted, frozen, equal and
# hashed by value, printed field by field and built by its one constructor.
MUTABLE = {"FederationRecord"}

_REQUIREMENTS = ServiceRequirements("app-c0", 1, 100)
_ENDPOINT = OverlayEndpoint("10.0.0.1", 4789, 100)
_PROVIDER = Address.derive("provider")
_CONSUMER = Address.derive("consumer")
_SLA = SlaTerms(to_micro(0.99), ms_to_micro(50.0), to_micro(2.0))
_ANNOUNCE = AnnounceService(_REQUIREMENTS, _ENDPOINT, _SLA, 10_000_000)
_ANNOUNCEMENT = ServiceAnnouncement(0, _CONSUMER, _REQUIREMENTS, _ENDPOINT, 1)
_TX = Transaction(3, _PROVIDER, PlaceBid(0, 150_000), 5_000_000, 1)
_STATS = SegmentStats(0.5, 0.25, 0.0, 1.0)
_CONSENSUS = ConsensusConfig(Algorithm.CLIQUE, 5_000_000, validators=(_PROVIDER,))
_CONSUMER_PROFILE = ConsumerProfile(_CONSUMER, _ANNOUNCE, 500_000)
_PROVIDER_PROFILE = ProviderProfile(_PROVIDER, 100_000, DeploymentModel())

REPLACEABLE = [
    _ANNOUNCE,
    PlaceBid(0, 150_000),
    ChooseProvider(0),
    ConfirmDeployment(0, _ENDPOINT),
    CloseFederation(0),
    ServiceAnnounced(0, _REQUIREMENTS),
    BidPlaced(0, 2),
    ProviderChosen(0, _PROVIDER, _ENDPOINT),
    DeploymentConfirmed(0, _ENDPOINT),
    FederationClosed(0),
    _TX,
    FederationTrace(0, 3, _PROVIDER.hex(), 0, 5_000_000, 10_000_000, 15_100_000, 20_000_000,
                    20_500_000, True),
]

# One record of every dataclass the package defines, by class name.
SAMPLES = {type(record).__name__: record for record in [
    *REPLACEABLE,
    _REQUIREMENTS, _ENDPOINT, _SLA, _ANNOUNCEMENT, _CONSENSUS, _STATS, _CONSUMER_PROFILE,
    _PROVIDER_PROFILE,
    DeploymentModel(),
    PricingContext(12, (1.0,) * 24),
    ContractGenesis(((_PROVIDER, "mec-p0"),), ((_CONSUMER, 100_000_000),)),
    Block(3, _PROVIDER, 15_000_000, (_TX,), "ab" * 32, 15_000_000),
    StampedEvent(1, 5_000_000, BidPlaced(0, 2)),
    PhaseBreakdown(1, 2, 3, 4, 5, 15),
    AggregateStats({"total": _STATS}, 3, 0),
    AgentParams(),
    ScenarioConfig(),
    Cell((_CONSUMER_PROFILE,), (_PROVIDER_PROFILE,), ContractGenesis(), _CONSENSUS),
    Bid(0, _PROVIDER, 150_000, 1, 0),
    DeploymentJob(0, 1, 2, 3, 4),
    FederationRecord(_ANNOUNCEMENT, Phase.OPEN),
    RunResult(0, []),
]}
FROZEN = [record for name, record in SAMPLES.items() if name not in MUTABLE]


def _values(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def _refuses_assignment(record) -> bool:
    name = dataclasses.fields(record)[0].name
    try:
        setattr(record, name, getattr(record, name))
    except dataclasses.FrozenInstanceError:
        return True
    return False


def test_the_record_classes_are_all_found():
    # A new record class shows here until SAMPLES holds one of it.
    assert len(DATACLASSES) == 34
    assert {type(record) for record in SAMPLES.values()} == set(DATACLASSES.values())


def test_every_record_class_has_its_own_docstring():
    # Without one, dataclasses renders `Name(field: type, ...)` from the signature.
    assert [name for name, cls in DATACLASSES.items()
            if not cls.__doc__ or cls.__doc__.startswith(f"{name}(")] == []


def test_every_frozen_record_is_built_by_its_canonical_constructor():
    assert {name for name, record in SAMPLES.items() if _refuses_assignment(record)} == \
        set(DATACLASSES) - MUTABLE
    for record in FROZEN:
        # Every field is stored by a plain attribute store into its slot,
        # none into a __dict__.
        assert_built_by_plain_stores(record)


# Run in a fresh interpreter: each attribute of each class the package
# defines that is a function (unwrapped), with the file it was compiled in.
_COMPILED_IN = """\
import importlib, json, pkgutil
import edgefed
found = {}
for info in pkgutil.iter_modules(edgefed.__path__):
    module = importlib.import_module(f"edgefed.{info.name}")
    for cls in vars(module).values():
        if isinstance(cls, type) and cls.__module__ == module.__name__:
            for name, value in vars(cls).items():
                value = getattr(value, "__func__", value)
                while hasattr(value, "__wrapped__"):
                    value = value.__wrapped__
                if hasattr(value, "__code__"):
                    found[f"{cls.__qualname__}.{name}"] = value.__code__.co_filename
print(json.dumps(found))
"""


def test_import_leaves_dataclasses_code_only_in_the_mutable_records_constructors():
    # dataclasses compiles each method it generates from a "<string>" source;
    # only the mutable records keep one, their __init__.
    src = str(Path(edgefed.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _COMPILED_IN], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    found = json.loads(done.stdout)
    assert {name for name, filename in found.items() if filename == "<string>"} == \
        {f"{name}.__init__" for name in MUTABLE}
    for record in FROZEN:
        cls = type(record)
        assert found[f"{cls.__qualname__}.__new__"] == \
            f"<canonical {cls.__module__}.{cls.__qualname__}>"
        assert f"{cls.__qualname__}.__init__" not in found


def test_which_classes_have_a_generated_repr_is_pinned():
    generated = {name for name, record in SAMPLES.items()
                 if repr(record) != object.__repr__(record)}
    assert generated == set(DATACLASSES) - MUTABLE
    for record in FROZEN:
        assert repr(record) == f"{type(record).__name__}(" + ", ".join(
            f"{f.name}={getattr(record, f.name)!r}" for f in dataclasses.fields(record)) + ")"


def test_which_classes_compare_by_value_is_pinned():
    assert {name for name, record in SAMPLES.items()
            if dataclasses.replace(record) == record} == set(DATACLASSES) - MUTABLE


def test_the_replaced_records_are_every_call_event_transaction_and_trace():
    events = {ServiceAnnounced, BidPlaced, ProviderChosen, DeploymentConfirmed, FederationClosed}
    assert {type(record) for record in REPLACEABLE} == \
        {*FederationContract._HANDLERS, *events, Transaction, FederationTrace}


@pytest.mark.parametrize("record", REPLACEABLE, ids=lambda record: type(record).__name__)
def test_replace_returns_an_equal_record_of_the_same_type(record):
    copy = dataclasses.replace(record)
    assert type(copy) is type(record) and copy == record and copy is not record


def _ids(record) -> str:
    return type(record).__name__


@pytest.mark.parametrize("record", FROZEN, ids=_ids)
def test_a_frozen_record_is_copied_pickled_and_replaced_whole(record):
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record)), dataclasses.replace(record)):
        assert type(copied) is type(record) and _values(copied) == _values(record)
        assert copied == record


def _routes(record) -> dict:
    """`record` built again by each way there is to build or duplicate one."""
    cls, values = type(record), _values(record)
    return {
        "positional": cls(*values),
        "keyword": cls(**{f.name: getattr(record, f.name) for f in dataclasses.fields(record)}),
        "direct": cls.__new__(cls, *values),
        "replace": dataclasses.replace(record),
        "copy": copy.copy(record),
        "deepcopy": copy.deepcopy(record),
        "pickle": pickle.loads(pickle.dumps(record)),
    }


@pytest.mark.parametrize("record", FROZEN, ids=_ids)
def test_every_route_to_a_record_gives_a_frozen_instance_of_exactly_its_class(record):
    name = dataclasses.fields(record)[0].name
    for route, built in _routes(record).items():
        assert type(built) is type(record), route
        assert built == record, route
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, getattr(record, name))


def test_a_post_init_refusal_is_raised_by_the_class_call_and_the_direct_call():
    reason = "^SlaTerms.penalty_micro must be an int, got 2500000.0$"
    with pytest.raises(ConfigInvalid, match=reason):
        SlaTerms(990_000, 50_000, 2.5e6)
    with pytest.raises(ConfigInvalid, match=reason):
        SlaTerms.__new__(SlaTerms, 990_000, 50_000, 2.5e6)


@pytest.mark.parametrize("record", FROZEN, ids=_ids)
def test_a_frozen_record_refuses_assigning_or_deleting_any_field(record):
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field {f.name!r}$"):
            setattr(record, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field {f.name!r}$"):
            delattr(record, f.name)


@pytest.mark.parametrize("record", FROZEN, ids=_ids)
def test_a_value_record_hashes_as_its_field_tuple(record):
    try:
        expected = hash(_values(record))
    except TypeError:  # a field holds a dict: the record is unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
