"""Aggregator-aware adaptive attacks (Fang et al., 2020; Shejwalkar &
Houmansadr, 2021).

These adversaries know which robust rule the PS runs and *optimize* their
perturbation against it, instead of sending a fixed collusive payload:

* :class:`FangAdaptiveAttack` — the "local model poisoning" framework of
  Fang et al.: craft a payload linear in a scale ``λ`` and search for the
  value that maximally deviates the simulated defense (median / trimmed
  mean) or that Krum still selects (largest λ accepted by a halving
  search).
* :class:`MinMaxAttack` / :class:`MinSumAttack` — the AGR-agnostic attacks
  of Shejwalkar & Houmansadr: push ``µ + γ·u`` as far as possible while the
  crafted vector's distances to the honest gradients stay within the
  honest spread (max pairwise / max total distance), found by bisection.

The population the adversary reasons about is the paper's post-voting one:
``f`` per-file gradients of which the *distorted* files (majority of copies
Byzantine, :func:`repro.core.distortion.distorted_files`) carry the payload.
Every search step is evaluated in closed form.  A coordinate defense is a
weighted window of order statistics, and Fang's payloads sit outside the
honest envelope, so its deviation is ``C0 + C1·λ`` with both read off the
honest rows sorted once.  The distance searches' payloads are
linear in the search scalar, so squared distances are quadratics with
precomputed coefficients; Fang scores its Krum candidates with the Krum
family's own scorer.  That keeps a full adaptive round within a small
factor of a constant-attack round (gated in ``benchmarks/regression.py``),
and makes every attack here fully deterministic: no RNG is consumed.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.krum import krum_scores_from_distances
from repro.attacks.base import Attack, AttackContext
from repro.core.backend import DEFAULT_DTYPE
from repro.core.distortion import distorted_files
from repro.exceptions import AttackError
from repro.utils.arrays import GATHER_ELEMENTS, column_mean_std, pairwise_squared_distances

__all__ = ["FangAdaptiveAttack", "MinMaxAttack", "MinSumAttack"]

#: Fang's largest perturbation scale λ: its ladder is ``λ · 2^{-i}``
#: (coordinate defenses), its Krum search halves from it
_LAMBDA_INIT = 10.0
#: min-max/min-sum's first γ; the bisection steps by ``γ/2, γ/4, …``
_GAMMA_INIT = 10.0
#: ladder, halving and bisection steps of every search here
_NUM_STEPS = 10
#: Fang's coordinate defenses pick the smallest λ whose deviation is within
#: this relative distance of the best seen: near-maximal damage, maximal stealth
_RTOL = 0.05


def _corrupted_file_indices(context: AttackContext) -> np.ndarray:
    """Files whose post-vote gradient the adversary controls.

    Majority-distorted files when the Byzantine set corrupts any; otherwise
    (q too small for any majority) every file a Byzantine worker touches —
    the payload still lands in those cells, it just also has to survive the
    vote, and for r = 1 baselines "touched" and "distorted" coincide.
    """
    files = distorted_files(context.assignment, context.byzantine_workers)
    if files.size == 0:
        touched = {
            int(file)
            for worker in context.byzantine_workers
            for file in context.assignment.files_of_worker(worker)
        }
        files = np.asarray(sorted(touched), dtype=np.int64)
    return files


def _distance_coefficients(
    honest: np.ndarray, mu: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """``(a, b, c)`` of ``||µ + t·u − g_i||² = a_i + 2t·b_i + t²·c``.

    ``a_i = ||µ − g_i||²``, ``b_i = (µ − g_i)·u`` and ``c = u·u``: the
    squared distance from a payload on the line ``µ + t·u`` to every honest
    row, as a quadratic in the search scalar.  ``µ − g_i`` is formed over
    row chunks of at most :data:`~repro.utils.arrays.GATHER_ELEMENTS`
    entries, never as one ``(f, d)`` matrix.  Chunks can move the last ulp
    of ``a`` (a one-row chunk is reduced pairwise) and of ``b`` (the GEMV
    blocks differently); the searches only test the quadratic against a
    bound, so the payload moves only if a test flips.
    """
    f, d = honest.shape
    a = np.empty(f, dtype=honest.dtype)
    b = np.empty(f, dtype=honest.dtype)
    rows = max(1, GATHER_ELEMENTS // max(d, 1))
    for lo in range(0, f, rows):
        diff = mu - honest[lo : lo + rows]
        np.einsum("ij,ij->i", diff, diff, out=a[lo : lo + rows])
        np.matmul(diff, u, out=b[lo : lo + rows])
    return a, b, float(u @ u)


def _rank_of_union(a: np.ndarray, b: np.ndarray, rank: int) -> np.ndarray:
    """Per row, the ``rank``-th smallest (from 0) of ``a``'s and ``b``'s
    values together, each sorted along axis 1, without sorting them together.

    Taking ``rank + 1`` values as prefixes of the two rows, the larger of
    the two prefixes' last values is at least the wanted one, and equal to
    it for the split the sorted union makes: so it is the smallest over the
    splits.  The result is one of the values, the sorted union's entry (but
    for which of -0.0 and +0.0 a tie between them yields).
    """
    na, nb = a.shape[1], b.shape[1]
    out = None
    for t in range(max(0, rank + 1 - na), min(nb, rank + 1) + 1):  # t values from b
        if t == 0:
            cut = a[:, rank]
        elif t == rank + 1:
            cut = b[:, rank]
        else:
            cut = np.maximum(a[:, rank - t], b[:, t - 1])
        out = cut.copy() if out is None else np.minimum(out, cut, out=out)
    return out


def _stealthy_pick(deviations: list[float]) -> int:
    """Index of the smallest λ whose deviation is within :data:`_RTOL` of the best.

    The ladder halves λ at every step, so that is the *largest* qualifying
    index; when nothing deviates the last (smallest) step stays stealthy.
    """
    best = max(deviations)
    if best <= 0.0:
        return len(deviations) - 1
    cutoff = (1.0 - _RTOL) * best
    return max(i for i, dev in enumerate(deviations) if dev >= cutoff)


class FangAdaptiveAttack(Attack):
    """Defense-aware payload search in the style of Fang et al. (2020).

    Parameters
    ----------
    defense:
        The robust rule the PS is assumed to run: ``"median"``,
        ``"trimmed_mean"`` or ``"krum"``.
    trim:
        Trim width the simulated trimmed mean uses; ``None`` (default)
        assumes the defense trims exactly the corrupted file count.
    """

    attack_name = "fang"

    DEFENSES = ("median", "trimmed_mean", "krum")

    def __init__(self, defense: str = "median", trim: int | None = None) -> None:
        if defense not in self.DEFENSES:
            raise AttackError(
                f"unknown defense {defense!r}; expected one of {self.DEFENSES}"
            )
        if trim is not None and trim < 0:
            raise AttackError(f"trim must be non-negative, got {trim}")
        self.defense = defense
        self.trim = None if trim is None else int(trim)

    def payload(self, context: AttackContext) -> np.ndarray:
        honest = np.asarray(context.stacked_honest_gradients(), dtype=DEFAULT_DTYPE)
        mu = honest.mean(axis=0)
        if context.num_byzantine == 0:
            return mu
        corrupted = _corrupted_file_indices(context)
        sign = np.where(mu >= 0.0, 1.0, -1.0)
        if self.defense == "krum":
            return self._krum_payload(honest, corrupted, mu, sign)
        c0, c1, base, delta = self._deviation_line(honest, corrupted, mu, sign)
        lams = [_LAMBDA_INIT / 2.0**i for i in range(_NUM_STEPS)]
        return base + lams[_stealthy_pick([c0 + c1 * lam for lam in lams])] * delta

    def _krum_payload(
        self,
        honest: np.ndarray,
        corrupted: np.ndarray,
        mu: np.ndarray,
        sign: np.ndarray,
    ) -> np.ndarray:
        """The largest λ of the halving search whose payload Krum selects.

        Candidates are scored by the Krum family's own
        :func:`~repro.aggregation.krum.krum_scores_from_distances`, with
        Bulyan's clamp ``q = min(k, (f − 3) // 2)`` on the ``k`` corrupted
        files so the rule is defined; fewer than three files raise its
        :class:`~repro.exceptions.AggregationError`.
        """
        f = honest.shape[0]
        q = max(0, min(int(corrupted.size), (f - 3) // 2))
        # p(λ) = µ − λ·sign(µ);  ||p − g_j||² = a_j − 2λ·b_j + λ²·c.
        a, b, c = _distance_coefficients(honest, mu, sign)
        distances = pairwise_squared_distances(honest)
        corrupted_set = set(int(i) for i in corrupted)
        lam = _LAMBDA_INIT
        for _ in range(_NUM_STEPS):
            to_payload = a - 2.0 * lam * b + lam * lam * c
            distances[corrupted, :] = to_payload[None, :]
            distances[:, corrupted] = to_payload[:, None]
            distances[np.ix_(corrupted, corrupted)] = 0.0
            if int(np.argmin(krum_scores_from_distances(distances, q))) in corrupted_set:
                break
            lam /= 2.0
        return mu - lam * sign

    def _deviation_line(
        self,
        honest: np.ndarray,
        corrupted: np.ndarray,
        mu: np.ndarray,
        sign: np.ndarray,
    ) -> tuple[float, float, np.ndarray, np.ndarray]:
        """``(C0, C1, base, delta)``: the payload ``base + λ·delta`` moves
        the simulated coordinate defense by ``C0 + C1·λ`` along ``−sign``.

        The defense is a weighted window of order statistics of the
        population whose corrupted rows carry the payload: ranks
        ``(f − 1) // 2`` and ``f // 2`` at ½ each for the median, ranks
        ``[trim, f − trim)`` at ``1 / (f − 2·trim)`` for the trimmed mean.
        Every payload of the ladder lies outside the envelope of the
        uncorrupted rows (below their minimum where µ_i ≥ 0, above their
        maximum elsewhere), so per coordinate a window rank ``j`` holds the
        payload or an uncorrupted row's value that no λ moves: the deviation
        is linear in λ, and two O(d) reductions per window rank replace the
        whole ladder.

        Sorts run on contiguous transposed copies (the strided axis-0 sort
        is cache-hostile at d ≈ 11k).  The baseline, the defense over all
        ``f`` honest rows, is read off the sorted reference and the sorted
        rows it leaves out (:func:`_rank_of_union`), so the only ``(d, n)``
        copy is the reference's.  It enters only through ``sign @
        baseline``, where a zero's sign can change only the sign of a zero
        sum, which the ladder's comparisons do not tell apart.
        """
        f = honest.shape[0]
        k = int(corrupted.size)
        if self.defense == "median":
            window = [((f - 1) // 2, 0.5), (f // 2, 0.5)]
        else:
            trim = min(k if self.trim is None else self.trim, (f - 1) // 2)
            window = [(j, 1.0 / (f - 2 * trim)) for j in range(trim, f - trim)]
        uncorrupted = np.setdiff1d(np.arange(f), corrupted)
        reference = honest[uncorrupted] if uncorrupted.size else honest
        ref = np.array(reference.T, order="C")  # (d, n_ref), always a copy: sorted in place
        del reference
        ref.sort(axis=1)
        left_out = np.setdiff1d(np.arange(f), uncorrupted) if uncorrupted.size else uncorrupted
        rest = np.array(honest[left_out].T, order="C")
        rest.sort(axis=1)
        baseline = np.zeros(ref.shape[0], dtype=ref.dtype)
        for j, weight in window:
            baseline += weight * _rank_of_union(ref, rest, j)
        del rest
        n_ref = ref.shape[1]
        low = np.ascontiguousarray(ref[:, 0])
        high = np.ascontiguousarray(ref[:, -1])
        spread = np.maximum(high - low, 1e-12)
        negative = mu >= 0.0
        position = np.where(negative, 0, n_ref).astype(np.int64)
        base = np.where(negative, low, high)
        delta = np.where(negative, -spread, spread)
        push = sign * delta
        c0 = float(sign @ baseline)
        c1 = 0.0
        for j, weight in window:
            below = j < position
            at_payload = ~below & (j < position + k)
            fixed = np.where(
                below, ref[:, min(j, n_ref - 1)], ref[:, int(np.clip(j - k, 0, n_ref - 1))]
            )
            c0 -= weight * float(sign @ np.where(at_payload, base, fixed))
            c1 -= weight * float(np.where(at_payload, push, 0.0).sum())
        return c0, c1, base, delta


class _OptimizedDeviationAttack(Attack):
    """Shared bisection harness for the AGR-agnostic min-max/min-sum pair.

    The payload is ``µ + γ·u`` for a fixed perturbation direction ``u``;
    squared distances to the honest rows are the quadratic
    ``a_i + 2γ·b_i + γ²·c`` (:func:`_distance_coefficients`), so each
    bisection step is O(f) after an O(f·d) precompute.
    """

    DIRECTIONS = ("unit", "sign", "std")

    def __init__(self, direction: str = "unit") -> None:
        if direction not in self.DIRECTIONS:
            raise AttackError(
                f"unknown direction {direction!r}; expected one of {self.DIRECTIONS}"
            )
        self.direction = direction

    def _mean_and_perturbation(self, honest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.direction == "std":
            mu, std = column_mean_std(honest)
            return mu, -std
        mu = honest.mean(axis=0)
        if self.direction == "sign":
            return mu, np.where(mu >= 0.0, -1.0, 1.0)
        norm = float(np.linalg.norm(mu))
        if norm == 0.0:
            return mu, np.full(mu.size, -1.0 / np.sqrt(mu.size))
        return mu, -mu / norm

    def _bound(self, pair: np.ndarray) -> float:
        raise NotImplementedError

    def _accepts(
        self, gamma: float, a: np.ndarray, b: np.ndarray, c: float, bound: float
    ) -> bool:
        raise NotImplementedError

    def payload(self, context: AttackContext) -> np.ndarray:
        honest = np.asarray(context.stacked_honest_gradients(), dtype=DEFAULT_DTYPE)
        mu, u = self._mean_and_perturbation(honest)
        # p − g_i = (µ − g_i) + γ·u → ||p − g_i||² = a_i + 2γ·b_i + γ²·c.
        a, b, c = _distance_coefficients(honest, mu, u)
        bound = self._bound(pairwise_squared_distances(honest))
        gamma = _GAMMA_INIT
        step = _GAMMA_INIT / 2.0
        gamma_accepted = 0.0
        for _ in range(_NUM_STEPS):
            if self._accepts(gamma, a, b, c, bound):
                gamma_accepted = gamma
                gamma += step
            else:
                gamma = max(gamma - step, 0.0)
            step /= 2.0
        return mu + gamma_accepted * u


class MinMaxAttack(_OptimizedDeviationAttack):
    """Largest γ keeping max distance-to-honest within the honest spread."""

    attack_name = "min_max"

    def _bound(self, pair: np.ndarray) -> float:
        return float(pair.max())

    def _accepts(
        self, gamma: float, a: np.ndarray, b: np.ndarray, c: float, bound: float
    ) -> bool:
        return float((a + 2.0 * gamma * b + gamma * gamma * c).max()) <= bound


class MinSumAttack(_OptimizedDeviationAttack):
    """Largest γ keeping the *sum* of distances within the honest worst case."""

    attack_name = "min_sum"

    def _bound(self, pair: np.ndarray) -> float:
        return float(pair.sum(axis=1).max())

    def _accepts(
        self, gamma: float, a: np.ndarray, b: np.ndarray, c: float, bound: float
    ) -> bool:
        total = float(a.sum()) + 2.0 * gamma * float(b.sum()) + gamma * gamma * c * a.size
        return total <= bound
