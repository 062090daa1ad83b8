"""Tests for the registries and the runner's pipeline dispatch.

Every pluggable class declares its name once, on the class; each registry
is built from those classes.  The contract tests below import every
``repro`` module and check that each concrete public subclass is reachable
under the name it declares, and that the scenario runner builds each
aggregation pipeline.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.aggregation import available_aggregators, create_aggregator, get_aggregator
from repro.aggregation import register_aggregator
from repro.aggregation import registry as aggregation_registry
from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment import available_schemes, get_scheme, register_scheme
from repro.assignment import registry as assignment_registry
from repro.assignment.mols import MOLSAssignment
from repro.assignment.registry import create_scheme
from repro.attacks import available_attacks, create_attack, get_attack, register_attack
from repro.attacks import registry as attack_registry
from repro.attacks.constant import ConstantAttack
from repro.compression import compressors
from repro.compression.compressors import create_compressor
from repro.core.pipelines import AggregationPipeline
from repro.exceptions import ConfigurationError
from repro.scenarios.catalog import get_scenario, scenario_names
from repro.scenarios.runner import ScenarioRunner

REGISTRIES = [
    pytest.param(attack_registry._REGISTRY, id="attack"),
    pytest.param(aggregation_registry._REGISTRY, id="aggregator"),
    pytest.param(assignment_registry._REGISTRY, id="scheme"),
    pytest.param(compressors._COMPRESSORS, id="compressor"),
]


def concrete_repro_subclasses(base):
    """Every concrete, public subclass of ``base`` defined under ``repro``."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, frontier = set(), [base]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                frontier.append(sub)
    return sorted(
        (
            cls
            for cls in found
            if cls.__module__.startswith("repro.")
            and not cls.__name__.startswith("_")
            and not inspect.isabstract(cls)
        ),
        key=lambda cls: cls.__name__,
    )


@pytest.fixture
def isolated(monkeypatch):
    """Let a test register classes without leaking them to later tests."""

    def isolate(registry_module):
        table = registry_module._REGISTRY
        monkeypatch.setattr(table, "_classes", dict(table._classes))

    return isolate


@pytest.mark.parametrize("registry", REGISTRIES)
def test_every_concrete_subclass_is_registered_under_its_declared_name(registry):
    classes = concrete_repro_subclasses(registry.base)
    assert classes
    for cls in classes:
        assert registry.get(getattr(cls, registry.name_attr)) is cls
    assert registry.names() == sorted(getattr(cls, registry.name_attr) for cls in classes)


@pytest.mark.parametrize(
    "lookup, what",
    [
        pytest.param(get_attack, "attack", id="attack"),
        pytest.param(get_aggregator, "aggregator", id="aggregator"),
        pytest.param(get_scheme, "assignment scheme", id="scheme"),
        pytest.param(create_compressor, "compressor", id="compressor"),
    ],
)
def test_non_string_name_is_an_unknown_name(lookup, what):
    with pytest.raises(ConfigurationError, match=rf"^unknown {what} 7; available: \["):
        lookup(7)


def test_runner_builds_every_pipeline_kind():
    specs = {}
    for name in scenario_names():
        spec = get_scenario(name)
        specs.setdefault(spec.pipeline.kind, spec)
    built = [type(ScenarioRunner(spec).build_trainer().pipeline) for spec in specs.values()]
    assert sorted(built, key=lambda cls: cls.__name__) == concrete_repro_subclasses(
        AggregationPipeline
    )


def test_builtin_schemes_registered():
    names = available_schemes()
    for expected in ("mols", "ramanujan", "frc", "baseline", "random"):
        assert expected in names


def test_get_and_create_scheme():
    assert get_scheme("MOLS") is MOLSAssignment
    scheme = create_scheme("mols", load=5, replication=3)
    assert scheme.assignment.num_workers == 15


def test_unknown_scheme_raises():
    with pytest.raises(ConfigurationError):
        get_scheme("does-not-exist")


def test_register_scheme_duplicate_and_overwrite(isolated):
    """``register_scheme(cls)`` files a class under the name it declares and
    refuses a name already taken: nothing is ever replaced."""
    isolated(assignment_registry)

    class Dummy(MOLSAssignment):
        scheme_name = "dummy-scheme-test"

    register_scheme(Dummy)
    assert get_scheme("DUMMY-scheme-test") is Dummy
    with pytest.raises(ConfigurationError, match="already registered"):
        register_scheme(Dummy)

    class Impostor(MOLSAssignment):  # inherits scheme_name "mols"
        pass

    with pytest.raises(ConfigurationError, match="'mols' is already registered"):
        register_scheme(Impostor)
    assert get_scheme("mols") is MOLSAssignment


def test_register_scheme_rejects_non_scheme(isolated):
    isolated(assignment_registry)
    with pytest.raises(ConfigurationError, match="does not subclass AssignmentScheme"):
        register_scheme(dict)  # type: ignore[arg-type]


def test_builtin_aggregators_registered():
    names = available_aggregators()
    for expected in (
        "mean",
        "median",
        "trimmed_mean",
        "median_of_means",
        "krum",
        "multi_krum",
        "bulyan",
        "geometric_median",
        "signsgd",
        "auror",
    ):
        assert expected in names


def test_create_aggregator_with_kwargs():
    aggregator = create_aggregator("trimmed_mean", trim=1)
    assert aggregator.trim == 1
    assert isinstance(create_aggregator("median"), CoordinateWiseMedian)


def test_unknown_aggregator_raises():
    with pytest.raises(ConfigurationError):
        get_aggregator("nope")


def test_register_aggregator_rejects_non_aggregator(isolated):
    isolated(aggregation_registry)
    with pytest.raises(ConfigurationError, match="does not subclass Aggregator"):
        register_aggregator(int)  # type: ignore[arg-type]
    with pytest.raises(ConfigurationError, match="'median' is already registered"):
        register_aggregator(CoordinateWiseMedian)


def test_builtin_attacks_registered():
    names = available_attacks()
    for expected in ("alie", "constant", "reversed_gradient", "gaussian_noise", "uniform_random"):
        assert expected in names


def test_create_attack_with_kwargs():
    attack = create_attack("constant", value=-2.5)
    assert isinstance(attack, ConstantAttack)
    assert attack.value == -2.5


def test_unknown_attack_raises():
    with pytest.raises(ConfigurationError):
        get_attack("nope")


def test_register_attack_rejects_non_attack(isolated):
    isolated(attack_registry)
    with pytest.raises(ConfigurationError, match="does not subclass Attack"):
        register_attack(str)  # type: ignore[arg-type]
    with pytest.raises(ConfigurationError, match="does not subclass Attack"):
        register_attack(ConstantAttack())  # type: ignore[arg-type]
