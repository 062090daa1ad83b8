"""Expansion-based bounds on the adversary's distortion power.

Implements the chain of results in paper Sections 3 and 5.1:

* **Lemma 1** (Zhu & Chugg): for a subset ``S`` of workers,
  ``vol(N(S)) / vol(S) >= 1 / (µ₁ + (1 - µ₁) * vol(S) / |E|)``.
* **Eq. (5)**: with ``vol(S) = q*l`` this lower-bounds the number of files
  ``|N(S)| >= β`` processed collectively by ``q`` Byzantine workers.
* **Claim 1**: the number of files whose majority can be corrupted is at most
  ``γ = (q*l − β) / (r' − 1)`` with ``r' = (r+1)/2``.
* **Section 5.1.1 / 5.1.2**: closed-form upper bounds on the distortion
  fraction ``ε̂ = c_max / f`` for the MOLS and Ramanujan Case 2 schemes.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

__all__ = [
    "neighborhood_lower_bound",
    "gamma_upper_bound",
    "mols_epsilon_upper_bound",
    "ramanujan_case2_epsilon_upper_bound",
]


def neighborhood_lower_bound(
    num_byzantine: int,
    load: int,
    replication: int,
    num_workers: int,
    mu1: float,
) -> float:
    """Lower bound ``β`` on ``|N(S)|`` for any set of ``q`` workers (Eq. (5)).

    Parameters
    ----------
    num_byzantine:
        Size ``q`` of the Byzantine worker set ``S``.
    load:
        Per-worker computational load ``l`` (files per worker).
    replication:
        Replication factor ``r`` (workers per file).
    num_workers:
        Total number of workers ``K``.
    mu1:
        Second eigenvalue of ``A Aᵀ`` of the assignment graph.
    """
    q = int(num_byzantine)
    if q < 0:
        raise ConfigurationError(f"q must be non-negative, got {q}")
    if q == 0:
        return 0.0
    if not (0.0 <= mu1 <= 1.0):
        raise ConfigurationError(f"µ₁ must lie in [0, 1], got {mu1}")
    # vol(S) = q*l and |E| = K*l, so vol(S)/|E| = q/K.
    denominator = mu1 + (1.0 - mu1) * (q / num_workers)
    return (q * load / replication) / denominator


def gamma_upper_bound(
    num_byzantine: int,
    load: int,
    replication: int,
    num_workers: int,
    mu1: float,
) -> float:
    """Claim 1 upper bound ``γ`` on the number of distorted files.

    ``γ = (q*l − β) / (r' − 1)`` where ``r' = (r + 1) / 2``; requires an odd
    replication factor so that the majority threshold is well defined.
    """
    q = int(num_byzantine)
    r = int(replication)
    if r < 3 or r % 2 == 0:
        raise ConfigurationError(
            f"replication must be an odd integer >= 3 for majority voting, got {r}"
        )
    if q == 0:
        return 0.0
    beta = neighborhood_lower_bound(q, load, r, num_workers, mu1)
    r_prime = (r + 1) // 2
    return (q * load - beta) / (r_prime - 1)


def mols_epsilon_upper_bound(q: int, l: int, r: int) -> float:
    """Closed-form bound of Section 5.1.1 for the MOLS / Ramanujan Case 1 scheme.

    ``ε̂ <= (2 q² / (r l²)) / (1 + (r − 1) q / (r l))``, obtained by plugging
    ``µ₁ = 1/r``, ``K = r l`` and ``f = l²`` into γ / f.
    """
    if q == 0:
        return 0.0
    if q < 0:
        raise ConfigurationError(f"q must be non-negative, got {q}")
    numerator = 2.0 * q * q / (r * l * l)
    denominator = 1.0 + (r - 1.0) * q / (r * l)
    return numerator / denominator


def ramanujan_case2_epsilon_upper_bound(q: int, r: int) -> float:
    """Closed-form bound of Section 5.1.2 for Ramanujan Case 2 (``K = r²``, ``f = r l``).

    ``ε̂ <= (2 q² / r²) / (r + (r − 1) q / r)``.
    """
    if q == 0:
        return 0.0
    if q < 0:
        raise ConfigurationError(f"q must be non-negative, got {q}")
    numerator = 2.0 * q * q / (r * r)
    denominator = r + (r - 1.0) * q / r
    return numerator / denominator
