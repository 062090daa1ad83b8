"""Aggregator-aware adaptive attacks (Fang et al., 2020; Shejwalkar &
Houmansadr, 2021).

These adversaries know which robust rule the PS runs and *optimize* their
perturbation against it, instead of sending a fixed collusive payload:

* :class:`FangAdaptiveAttack` — the "local model poisoning" framework of
  Fang et al.: craft a payload linear in a scale ``λ`` and search for the
  value that maximally deviates the simulated defense (median / trimmed
  mean / mean) or that Krum still selects (largest λ accepted by a halving
  search).
* :class:`MinMaxAttack` / :class:`MinSumAttack` — the AGR-agnostic attacks
  of Shejwalkar & Houmansadr: push ``µ + γ·u`` as far as possible while the
  crafted vector's distances to the honest gradients stay within the
  honest spread (max pairwise / max total distance), found by bisection.

The population the adversary reasons about is the paper's post-voting one:
``f`` per-file gradients of which the *distorted* files (majority of copies
Byzantine, :func:`repro.core.distortion.distorted_files`) carry the payload.
Every search step is evaluated in closed form — payloads are linear in the
search scalar, so squared distances are quadratics with precomputed
coefficients, the median under insertion is a ``searchsorted`` lookup into
presorted honest values and the trimmed mean a prefix-sum expression.  That
keeps a full adaptive round within a small factor of a constant-attack
round (gated in ``benchmarks/regression.py``), and makes every attack here
fully deterministic: no RNG is consumed.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.core.backend import DEFAULT_DTYPE
from repro.core.distortion import distorted_files
from repro.exceptions import AttackError
from repro.utils.arrays import column_mean_std

__all__ = ["FangAdaptiveAttack", "MinMaxAttack", "MinSumAttack"]


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


def _pairwise_sq_distances(matrix: np.ndarray) -> np.ndarray:
    """All pairwise squared distances of the rows, via the Gram matrix."""
    gram = matrix @ matrix.T
    sq = np.diag(gram)
    pair = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(pair, 0.0, out=pair)
    return pair


class FangAdaptiveAttack(Attack):
    """Defense-aware payload search in the style of Fang et al. (2020).

    Parameters
    ----------
    defense:
        The robust rule the PS is assumed to run: ``"median"``,
        ``"trimmed_mean"``, ``"mean"`` or ``"krum"``.
    lambda_init:
        Largest perturbation scale tried; the search walks the geometric
        ladder ``λ_init · 2^{-i}`` (coordinate defenses) or halves from it
        (Krum).
    num_steps:
        Number of ladder / halving steps.
    trim:
        Trim width the simulated trimmed mean uses; ``None`` (default)
        assumes the defense trims exactly the corrupted file count.
    rtol:
        Coordinate defenses pick the *smallest* λ whose deviation is within
        ``rtol`` of the best seen — near-maximal damage at maximal stealth.
    """

    attack_name = "fang"

    DEFENSES = ("median", "trimmed_mean", "mean", "krum")

    def __init__(
        self,
        defense: str = "median",
        lambda_init: float = 10.0,
        num_steps: int = 10,
        trim: int | None = None,
        rtol: float = 0.05,
    ) -> None:
        if defense not in self.DEFENSES:
            raise AttackError(
                f"unknown defense {defense!r}; expected one of {self.DEFENSES}"
            )
        if not np.isfinite(lambda_init) or lambda_init <= 0:
            raise AttackError(
                f"lambda_init must be positive and finite, got {lambda_init}"
            )
        if num_steps < 1:
            raise AttackError(f"num_steps must be >= 1, got {num_steps}")
        if trim is not None and trim < 0:
            raise AttackError(f"trim must be non-negative, got {trim}")
        if not 0.0 <= rtol < 1.0:
            raise AttackError(f"rtol must be in [0, 1), got {rtol}")
        self.defense = defense
        self.lambda_init = float(lambda_init)
        self.num_steps = int(num_steps)
        self.trim = None if trim is None else int(trim)
        self.rtol = float(rtol)

    def payload(self, context: AttackContext) -> np.ndarray:
        honest = np.asarray(context.stacked_honest_gradients(), dtype=DEFAULT_DTYPE)
        mu = honest.mean(axis=0)
        if context.num_byzantine == 0:
            return mu
        corrupted = _corrupted_file_indices(context)
        sign = np.where(mu >= 0.0, 1.0, -1.0)
        if self.defense == "krum":
            return self._krum_payload(honest, corrupted, mu, sign)
        return self._coordinate_payload(honest, corrupted, mu, sign)

    # -- Krum: halving search for the largest λ whose payload is selected --

    def _krum_payload(
        self,
        honest: np.ndarray,
        corrupted: np.ndarray,
        mu: np.ndarray,
        sign: np.ndarray,
    ) -> np.ndarray:
        f = honest.shape[0]
        k = int(corrupted.size)
        # p(λ) = µ − λ·sign(µ);  ||p − g_j||² = a_j − 2λ·b_j + λ²·c.
        diff = mu[None, :] - honest
        a = np.einsum("ij,ij->i", diff, diff)
        b = diff @ sign
        c = float(sign @ sign)
        pair = _pairwise_sq_distances(honest)
        q_eff = min(k, max(f - 3, 0))
        neighbors = max(1, f - q_eff - 2)
        corrupted_set = set(int(i) for i in corrupted)
        lam = self.lambda_init
        accepted: float | None = None
        for _ in range(self.num_steps):
            if self._krum_selects_corrupted(
                lam, a, b, c, pair, corrupted, corrupted_set, neighbors
            ):
                accepted = lam
                break
            lam /= 2.0
        if accepted is None:
            accepted = lam
        return mu - accepted * sign

    def _krum_selects_corrupted(
        self,
        lam: float,
        a: np.ndarray,
        b: np.ndarray,
        c: float,
        pair: np.ndarray,
        corrupted: np.ndarray,
        corrupted_set: set[int],
        neighbors: int,
    ) -> bool:
        to_payload = a - 2.0 * lam * b + lam * lam * c
        distances = pair.copy()
        distances[corrupted, :] = to_payload[None, :]
        distances[:, corrupted] = to_payload[:, None]
        distances[np.ix_(corrupted, corrupted)] = 0.0
        np.fill_diagonal(distances, np.inf)
        distances.partition(neighbors - 1, axis=1)
        scores = distances[:, :neighbors].sum(axis=1)
        return int(np.argmin(scores)) in corrupted_set

    # -- Coordinate defenses: λ ladder over extremes-based payloads --

    def _coordinate_payload(
        self,
        honest: np.ndarray,
        corrupted: np.ndarray,
        mu: np.ndarray,
        sign: np.ndarray,
    ) -> np.ndarray:
        if self.defense == "median":
            return self._median_payload(honest, corrupted, mu, sign)
        f = honest.shape[0]
        k = int(corrupted.size)
        uncorrupted = np.setdiff1d(np.arange(f), corrupted)
        reference = honest[uncorrupted] if uncorrupted.size else honest
        sorted_ref = np.sort(reference, axis=0)
        prefix = np.vstack(
            [np.zeros((1, sorted_ref.shape[1])), np.cumsum(sorted_ref, axis=0)]
        )
        low, high = sorted_ref[0], sorted_ref[-1]
        spread = np.maximum(high - low, 1e-12)
        trim = self._effective_trim(f, k)
        baseline = self._simulate_defense(honest, np.sort(honest, axis=0), trim)
        negative = mu >= 0.0  # push below the honest minimum where µ_i ≥ 0
        deviations: list[float] = []
        payloads: list[np.ndarray] = []
        # The ladder's payloads sit strictly outside the reference envelope
        # (below the min where µ_i >= 0, above the max elsewhere), so the
        # per-coordinate insertion position is analytic — no O(n·d)
        # comparison per step.
        position = np.where(negative, 0, sorted_ref.shape[0]).astype(np.int64)
        lam = self.lambda_init
        for _ in range(self.num_steps):
            payload = np.where(negative, low - lam * spread, high + lam * spread)
            aggregated = self._defense_with_insertion(
                sorted_ref, prefix, payload, f, k, trim, position=position
            )
            deviations.append(float((baseline - aggregated) @ sign))
            payloads.append(payload)
            lam /= 2.0
        return self._pick_payload(deviations, payloads)

    def _median_payload(
        self,
        honest: np.ndarray,
        corrupted: np.ndarray,
        mu: np.ndarray,
        sign: np.ndarray,
    ) -> np.ndarray:
        """Median-defense ladder, specialized for the round hot path.

        Bit-identical to the generic `_coordinate_payload` + insertion
        evaluation, but restructured for speed: sorts run on contiguous
        transposed copies (the strided axis-0 sort is cache-hostile at
        d ≈ 11k), the baseline median comes from the already-sorted rows,
        and the per-coordinate three-way insertion selection — which does
        not depend on λ, only on where the payload lands relative to the
        reference envelope — is precomputed once outside the ladder.
        """
        f = honest.shape[0]
        k = int(corrupted.size)
        uncorrupted = np.setdiff1d(np.arange(f), corrupted)
        reference = honest[uncorrupted] if uncorrupted.size else honest
        ref = np.array(reference.T, order="C")  # (d, n_ref), always a copy: sorted in place
        ref.sort(axis=1)
        n_ref = ref.shape[1]
        low = np.ascontiguousarray(ref[:, 0])
        high = np.ascontiguousarray(ref[:, -1])
        spread = np.maximum(high - low, 1e-12)
        hon = np.array(honest.T, order="C")
        hon.sort(axis=1)
        mid_low, mid_high = (f - 1) // 2, f // 2
        baseline = 0.5 * (hon[:, mid_low] + hon[:, mid_high])
        negative = mu >= 0.0
        position = np.where(negative, 0, n_ref).astype(np.int64)
        base = np.where(negative, low, high)
        delta = np.where(negative, -spread, spread)

        def stat_parts(mid: int) -> tuple[np.ndarray, np.ndarray]:
            from_low = ref[:, min(mid, n_ref - 1)]
            from_high = ref[:, int(np.clip(mid - k, 0, n_ref - 1))]
            sel_low = mid < position
            sel_payload = ~sel_low & (mid < position + k)
            return sel_payload, np.where(sel_low, from_low, from_high)

        parts = [stat_parts(mid_low)]
        parts.append(parts[0] if mid_high == mid_low else stat_parts(mid_high))
        # With the selection fixed, the simulated median is
        # 0.5·Σᵢ where(selᵢ, base + λ·delta, fixedᵢ), so the deviation is
        # *linear* in λ: dev(λ) = C0 + C1·λ.  Two O(d) reductions replace
        # the whole per-step ladder; only the chosen payload is built.
        c0 = float(sign @ baseline)
        c1 = 0.0
        for sel, fixed in parts:
            c0 -= 0.5 * float(sign @ np.where(sel, base, fixed))
            c1 -= 0.5 * float(np.where(sel, sign * delta, 0.0).sum())
        lams: list[float] = []
        deviations: list[float] = []
        lam = self.lambda_init
        for _ in range(self.num_steps):
            lams.append(lam)
            deviations.append(c0 + c1 * lam)
            lam /= 2.0
        best = max(deviations)
        if best <= 0.0:
            chosen = self.num_steps - 1  # nothing deviates; stay stealthy
        else:
            cutoff = (1.0 - self.rtol) * best
            chosen = max(i for i, dev in enumerate(deviations) if dev >= cutoff)
        return base + lams[chosen] * delta

    def _pick_payload(
        self, deviations: list[float], payloads: list[np.ndarray]
    ) -> np.ndarray:
        best = max(deviations)
        if best <= 0.0:
            return payloads[-1]  # nothing deviates; stay stealthy
        cutoff = (1.0 - self.rtol) * best
        chosen = max(i for i, dev in enumerate(deviations) if dev >= cutoff)
        return payloads[chosen]

    def _effective_trim(self, population: int, corrupted: int) -> int:
        if self.defense != "trimmed_mean":
            return 0
        trim = corrupted if self.trim is None else self.trim
        return min(trim, (population - 1) // 2)

    def _simulate_defense(
        self, rows: np.ndarray, sorted_rows: np.ndarray, trim: int
    ) -> np.ndarray:
        n = rows.shape[0]
        if self.defense == "mean":
            return rows.mean(axis=0)
        if self.defense == "median":
            return np.median(rows, axis=0)
        return sorted_rows[trim : n - trim].mean(axis=0)

    def _defense_with_insertion(
        self,
        sorted_ref: np.ndarray,
        prefix: np.ndarray,
        payload: np.ndarray,
        n: int,
        k: int,
        trim: int,
        position: np.ndarray | None = None,
    ) -> np.ndarray:
        """Defense over ``sorted_ref`` plus ``k`` copies of ``payload``.

        Never materializes the combined population: the insertion position
        per coordinate plus either order statistics (median) or prefix sums
        (trimmed mean / mean) give the aggregate in O(d·log n).  Callers
        that know where the payload lands (the λ ladder always lands outside
        the reference envelope) pass ``position`` to skip the comparison.
        """
        n_ref = sorted_ref.shape[0]
        if self.defense == "mean":
            return (prefix[-1] + k * payload) / n
        if position is None:
            position = (sorted_ref < payload[None, :]).sum(axis=0)
        if self.defense == "median":
            mid_low, mid_high = (n - 1) // 2, n // 2

            def order_stat(i: int) -> np.ndarray:
                from_low = sorted_ref[min(i, n_ref - 1)]
                from_high = sorted_ref[np.clip(i - k, 0, n_ref - 1)]
                return np.where(
                    i < position,
                    from_low,
                    np.where(i < position + k, payload, from_high),
                )

            return 0.5 * (order_stat(mid_low) + order_stat(mid_high))
        # Trimmed mean: sum combined order statistics in [trim, n − trim).
        lo, hi = trim, n - trim

        def prefix_at(index: np.ndarray) -> np.ndarray:
            return np.take_along_axis(prefix, index[None, :], axis=0)[0]

        first_hi = np.minimum(position, hi)
        first = prefix_at(first_hi) - prefix_at(np.minimum(lo, first_hi))
        second_lo = np.minimum(np.maximum(position, lo - k), n_ref)
        second_hi = np.minimum(np.maximum(position, hi - k), n_ref)
        second_lo = np.minimum(second_lo, second_hi)
        second = prefix_at(second_hi) - prefix_at(second_lo)
        count = np.clip(np.minimum(position + k, hi) - np.maximum(position, lo), 0, k)
        return (first + second + count * payload) / (n - 2 * trim)


class _OptimizedDeviationAttack(Attack):
    """Shared bisection harness for the AGR-agnostic min-max/min-sum pair.

    The payload is ``µ + γ·u`` for a fixed perturbation direction ``u``;
    squared distances to the honest rows are the quadratic
    ``a_i + 2γ·b_i + γ²·c``, so each bisection step is O(f) after an
    O(f·d) precompute.
    """

    DIRECTIONS = ("unit", "sign", "std")

    def __init__(
        self,
        direction: str = "unit",
        gamma_init: float = 10.0,
        num_steps: int = 10,
    ) -> None:
        if direction not in self.DIRECTIONS:
            raise AttackError(
                f"unknown direction {direction!r}; expected one of {self.DIRECTIONS}"
            )
        if not np.isfinite(gamma_init) or gamma_init <= 0:
            raise AttackError(
                f"gamma_init must be positive and finite, got {gamma_init}"
            )
        if num_steps < 1:
            raise AttackError(f"num_steps must be >= 1, got {num_steps}")
        self.direction = direction
        self.gamma_init = float(gamma_init)
        self.num_steps = int(num_steps)

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
        diff = mu[None, :] - honest
        a = np.einsum("ij,ij->i", diff, diff)
        b = diff @ u
        c = float(u @ u)
        bound = self._bound(_pairwise_sq_distances(honest))
        gamma = self.gamma_init
        step = self.gamma_init / 2.0
        gamma_accepted = 0.0
        for _ in range(self.num_steps):
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
