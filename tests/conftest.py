"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.assignment.baseline import BaselineAssignment
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.attacks.selection import OmniscientSelector
from repro.data.datasets import train_test_split
from repro.data.synthetic import make_gaussian_mixture
from repro.training.gradients import ModelGradientComputer
from repro.training.trainer import DistributedTrainer


@pytest.fixture(scope="session")
def mols_5_3():
    """The paper's Table 3 configuration: MOLS with l=5, r=3 (K=15, f=25)."""
    return MOLSAssignment(load=5, replication=3)


@pytest.fixture(scope="session")
def mols_assignment(mols_5_3):
    return mols_5_3.assignment


@pytest.fixture(scope="session")
def ramanujan_case1():
    """Ramanujan Case 1 with m=3 < s=5 (K=15, f=25, l=5, r=3)."""
    return RamanujanAssignment(m=3, s=5)


@pytest.fixture(scope="session")
def ramanujan_case2():
    """The paper's Table 4 / K=25 configuration: m=s=5 (K=25, f=25, l=r=5)."""
    return RamanujanAssignment(m=5, s=5)


@pytest.fixture(scope="session")
def frc_15_3():
    """FRC grouping with K=15, r=3 (5 groups)."""
    return FRCAssignment(num_workers=15, replication=3)


@pytest.fixture(scope="session")
def baseline_10():
    return BaselineAssignment(num_workers=10)


@pytest.fixture(scope="session")
def small_classification_data():
    """A small, well-separated Gaussian-mixture dataset (train, test)."""
    dataset = make_gaussian_mixture(
        num_samples=600, num_classes=4, dim=12, separation=3.0, seed=7
    )
    return train_test_split(dataset, test_fraction=0.25, seed=8)


@pytest.fixture(scope="session")
def assemble_trainer():
    """The object-level route, for a test that brings its own dataset or model:
    the public ``DistributedTrainer(...)`` constructor, the call
    ``ScenarioRunner.build_trainer`` makes (omniscient adversary when ``q > 0``)."""

    def assemble(pipeline, model, train_dataset, test_dataset, config, attack=None, q=0, seed=0):
        return DistributedTrainer(
            pipeline,
            ModelGradientComputer(model),
            train_dataset,
            test_dataset,
            config,
            seed=seed,
            attack=attack,
            selector=OmniscientSelector(q) if q else None,
        )

    return assemble


@pytest.fixture
def rng():
    return np.random.default_rng(0)
