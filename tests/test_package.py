import dataclasses
import importlib
import pkgutil

import pytest

import edgefed
from edgefed.contract import (
    AnnounceService,
    BidPlaced,
    ChooseProvider,
    CloseFederation,
    ConfirmDeployment,
    DeploymentConfirmed,
    FederationClosed,
    OverlayEndpoint,
    PlaceBid,
    ProviderChosen,
    ServiceAnnounced,
    ServiceAnnouncement,
    ServiceRequirements,
    SlaTerms,
)
from edgefed.ledger import Address, Block, Transaction
from edgefed.metrics import FederationTrace


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from edgefed import *", namespace)
    missing = [name for name in edgefed.__all__ if name not in namespace]
    assert missing == []


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

# Printed field by field: the configs, the aggregate results and the trace,
# whose repr the benchmark's fingerprint hashes.
GENERATED_REPR = {
    "AgentParams", "AggregateStats", "ConsensusConfig", "ContractGenesis", "DeploymentModel",
    "FederationTrace", "PhaseBreakdown", "PricingContext", "ScenarioConfig", "SegmentStats",
    "ServiceRequirements", "SlaTerms",
}

# Compared by value. The rest compare (and, when frozen, hash) by identity.
VALUE_EQ = {
    "Address", "AgentParams", "AggregateStats", "AnnounceService", "BidPlaced", "Block",
    "ChooseProvider", "CloseFederation", "ConfirmDeployment", "ConsensusConfig",
    "ConsumerProfile", "ContractGenesis", "DeploymentConfirmed", "DeploymentModel",
    "FederationClosed", "FederationTrace", "OverlayEndpoint", "PhaseBreakdown", "PlaceBid",
    "PricingContext", "ProviderChosen", "ProviderProfile", "ScenarioConfig", "SegmentStats",
    "ServiceAnnounced", "ServiceAnnouncement", "ServiceRequirements", "SlaTerms",
    "StampedEvent", "Transaction",
}


def test_the_record_classes_are_all_found():
    # A new record without a generated repr or value equality shows only here.
    assert len(DATACLASSES) == 36


def test_every_record_class_has_its_own_docstring():
    # Without one, dataclasses renders `Name(field: type, ...)` from the signature.
    assert [name for name, cls in DATACLASSES.items()
            if not cls.__doc__ or cls.__doc__.startswith(f"{name}(")] == []


# Declared without a dataclass __init__ but not through slot_init: Block,
# whose own constructor in ledger.py fills its instance dict in one step.
OWN_INIT = {Block}


def test_the_slot_init_classes_are_the_ones_declared_without_a_dataclass_init():
    assert [name for name, cls in DATACLASSES.items() if cls not in OWN_INIT
            and cls.__init__.__code__.co_filename.startswith("<canonical ")
            == cls.__dataclass_params__.init] == []
    assert not Block.__dataclass_params__.init
    assert Block.__init__.__code__.co_filename == edgefed.ledger.__file__


def test_which_classes_have_a_generated_repr_is_pinned():
    assert {name for name, cls in DATACLASSES.items()
            if cls.__dataclass_params__.repr} == GENERATED_REPR


def test_which_classes_compare_by_value_is_pinned():
    assert {name for name, cls in DATACLASSES.items()
            if cls.__dataclass_params__.eq} == VALUE_EQ


_REQUIREMENTS = ServiceRequirements("app-c0", 1, 100)
_ENDPOINT = OverlayEndpoint("10.0.0.1", 4789, 100)
_PROVIDER = Address.derive("provider")

REPLACEABLE = [
    AnnounceService(_REQUIREMENTS, _ENDPOINT, SlaTerms.from_floats(0.99, 50.0, 2.0), 10_000_000),
    PlaceBid(0, 150_000),
    ChooseProvider(0),
    ConfirmDeployment(0, _ENDPOINT),
    CloseFederation(0),
    ServiceAnnounced(0, _REQUIREMENTS),
    BidPlaced(0, 2),
    ProviderChosen(0, _PROVIDER, _ENDPOINT),
    DeploymentConfirmed(0, _ENDPOINT),
    FederationClosed(0),
    Transaction(3, _PROVIDER, PlaceBid(0, 150_000), 5_000_000, 1),
    FederationTrace(0, 3, _PROVIDER.hex, 0, 5_000_000, 10_000_000, 15_100_000, 20_000_000,
                    20_500_000, True),
]


def test_the_replaced_records_are_every_call_event_transaction_and_trace():
    slot_init = {cls for cls in DATACLASSES.values() if not cls.__dataclass_params__.init} - OWN_INIT
    per_federation = {OverlayEndpoint, ServiceAnnouncement}
    assert {type(record) for record in REPLACEABLE} == slot_init - per_federation


@pytest.mark.parametrize("record", REPLACEABLE, ids=lambda record: type(record).__name__)
def test_replace_returns_an_equal_record_of_the_same_type(record):
    copy = dataclasses.replace(record)
    assert type(copy) is type(record) and copy == record and copy is not record
