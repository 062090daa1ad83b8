"""Tests for Byzantine worker selection policies."""

import numpy as np
import pytest

from repro.attacks.schedules import ScheduledSelector
from repro.attacks.selection import OmniscientSelector
from repro.core.distortion import distorted_files, max_distortion
from repro.exceptions import AttackError
from repro.graphs.bipartite import BipartiteAssignment
from repro.scenarios.spec import ScheduleSpec


def test_random_selection_size_and_range(mols_assignment, rng):
    """The DETOX/DRACO adversary: a fresh uniform draw of q distinct workers."""
    selector = ScheduledSelector(ScheduleSpec(q=4), selection="random")
    chosen = selector.select(mols_assignment, 0, rng)
    assert len(chosen) == 4
    assert len(set(chosen)) == 4
    assert all(0 <= w < 15 for w in chosen)
    assert list(chosen) == sorted(chosen)


def test_omniscient_selector_achieves_worst_case(mols_assignment, rng):
    for q in (2, 3, 4):
        selector = OmniscientSelector(num_byzantine=q)
        chosen = selector.select(mols_assignment, 0, rng)
        optimum = max_distortion(mols_assignment, q).c_max
        assert distorted_files(mols_assignment, chosen).size == optimum


def test_omniscient_selector_is_stable_across_iterations(mols_assignment, rng):
    selector = OmniscientSelector(num_byzantine=3)
    first = selector.select(mols_assignment, 0, rng)
    assert selector.select(mols_assignment, 17, rng) == first


def test_omniscient_selector_ignores_the_rng(mols_assignment):
    """The worst-case set is a property of the graph, not of a random draw."""
    picks = {
        OmniscientSelector(num_byzantine=4).select(
            mols_assignment, 0, np.random.default_rng(seed)
        )
        for seed in range(3)
    }
    assert picks == {max_distortion(mols_assignment, 4).byzantine_workers}


def test_omniscient_selector_caches_per_assignment(mols_assignment, ramanujan_case2, rng):
    selector = OmniscientSelector(num_byzantine=3)
    a = selector.select(mols_assignment, 0, rng)
    b = selector.select(ramanujan_case2.assignment, 0, rng)
    assert len(a) == len(b) == 3
    assert len(selector._cache) == 2


def test_omniscient_selector_cache_survives_a_hash_collision(mols_assignment, rng, monkeypatch):
    """The cache is keyed on the graph, not on its hash: two different graphs
    whose hashes collide still get their own worst-case sets."""
    relabelled = BipartiteAssignment(np.roll(mols_assignment.biadjacency, 1, axis=0))
    graphs = (mols_assignment, relabelled)
    expected = [OmniscientSelector(num_byzantine=3).select(g, 0, rng) for g in graphs]
    assert expected[0] != expected[1]

    monkeypatch.setattr(BipartiteAssignment, "__hash__", lambda self: 0)
    assert hash(mols_assignment) == hash(relabelled)
    selector = OmniscientSelector(num_byzantine=3)
    assert [selector.select(g, 0, rng) for g in graphs] == expected


def test_omniscient_selector_validation():
    with pytest.raises(AttackError):
        OmniscientSelector(num_byzantine=-2)
