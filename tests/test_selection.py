"""Tests for Byzantine worker selection policies."""

import pytest

from repro.attacks.schedules import AdversarySchedule, ScheduledSelector
from repro.attacks.selection import OmniscientSelector
from repro.core.distortion import count_distorted, max_distortion_exhaustive
from repro.exceptions import AttackError


def test_random_selection_size_and_range(mols_assignment, rng):
    """The DETOX/DRACO adversary: a fresh uniform draw of q distinct workers."""
    selector = ScheduledSelector(AdversarySchedule(q=4), selection="random")
    chosen = selector.select(mols_assignment, 0, rng)
    assert len(chosen) == 4
    assert len(set(chosen)) == 4
    assert all(0 <= w < 15 for w in chosen)
    assert list(chosen) == sorted(chosen)


def test_omniscient_selector_achieves_worst_case(mols_assignment, rng):
    for q in (2, 3, 4):
        selector = OmniscientSelector(num_byzantine=q, method="exhaustive")
        chosen = selector.select(mols_assignment, 0, rng)
        optimum = max_distortion_exhaustive(mols_assignment, q).c_max
        assert count_distorted(mols_assignment, chosen) == optimum


def test_omniscient_selector_is_stable_across_iterations(mols_assignment, rng):
    selector = OmniscientSelector(num_byzantine=3)
    first = selector.select(mols_assignment, 0, rng)
    assert selector.select(mols_assignment, 17, rng) == first


def test_omniscient_selector_caches_per_assignment(mols_assignment, ramanujan_case2, rng):
    selector = OmniscientSelector(num_byzantine=3)
    a = selector.select(mols_assignment, 0, rng)
    b = selector.select(ramanujan_case2.assignment, 0, rng)
    assert len(a) == len(b) == 3
    assert len(selector._cache) == 2


def test_omniscient_selector_validation():
    with pytest.raises(AttackError):
        OmniscientSelector(num_byzantine=-2)
