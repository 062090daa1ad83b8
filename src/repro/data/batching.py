"""Batch sampling and batch-to-file partitioning (paper Section 2).

Every training iteration draws a batch ``B_t`` of ``b`` samples and splits it
into ``f`` disjoint files ``B_{t,0}, ..., B_{t,f-1}`` of ``b/f`` samples each;
the files are the unit of assignment, gradient computation and majority
voting.

The paper's experiments shard IID; this module also provides the standard
non-IID partitions of the federated/Byzantine literature — Dirichlet
label-skew (Hsu et al., 2019) and quantity skew — plus a
:class:`ShardedBatchSampler` that draws every file's samples from its own
fixed shard.  All partitions are pure functions of ``(labels, seed)`` with
seed-derived per-class/per-shard streams, so they are digest-stable across
processes (pinned in the test suite).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.data.datasets import Dataset
from repro.exceptions import DataError, TrainingError
from repro.utils.rng import as_generator, derive_seed

__all__ = [
    "BatchSampler",
    "RoundFiles",
    "partition_batch_into_files",
    "dirichlet_label_partition",
    "quantity_skew_partition",
    "partition_digest",
    "build_file_partition",
    "ShardedBatchSampler",
    "PARTITION_KINDS",
]

PARTITION_KINDS = ("dirichlet", "quantity_skew")


def partition_batch_into_files(batch_indices: np.ndarray, num_files: int) -> list[np.ndarray]:
    """Split a batch's sample indices into ``num_files`` equal disjoint files.

    Raises
    ------
    DataError
        If the batch size is not divisible by ``num_files`` (the paper always
        picks ``b`` as a multiple of ``f``).
    """
    batch_indices = np.asarray(batch_indices, dtype=np.int64)
    if num_files < 1:
        raise DataError(f"num_files must be positive, got {num_files}")
    if batch_indices.size % num_files != 0:
        raise DataError(
            f"batch size {batch_indices.size} is not divisible by f={num_files}"
        )
    per_file = batch_indices.size // num_files
    return [
        batch_indices[i * per_file : (i + 1) * per_file] for i in range(num_files)
    ]


class RoundFiles:
    """One round's ``f`` files, in the form every stage from sampler to engine reads.

    ``stacked`` is ``(inputs (f, n, ...), labels (f, n, ...))`` when every file
    has the same shape — for a sampled batch, views of its one gather — and
    ``None`` for ragged files, which only the looped gradient engine takes.
    Iterating yields the ``f`` ``(inputs_i, labels_i)`` pairs: views of
    ``stacked``, never copies.
    """

    def __init__(self, stacked: "tuple[np.ndarray, np.ndarray] | None", ragged=None) -> None:
        self.stacked, self._ragged = stacked, ragged

    @classmethod
    def from_batch(cls, inputs: np.ndarray, labels: np.ndarray, num_files: int) -> "RoundFiles":
        """View a gathered batch (file after file along axis 0) as ``num_files`` files."""
        return cls(tuple(a.reshape((num_files, -1) + a.shape[1:]) for a in (inputs, labels)))

    @classmethod
    def coerce(cls, files) -> "RoundFiles":
        """``files`` as a :class:`RoundFiles`, checked once.

        Takes a :class:`RoundFiles` (returned as is), a ``{file: (inputs,
        labels)}`` mapping over ``range(f)``, a sequence of ``(inputs,
        labels)`` pairs (stacked with one copy when uniform), or the two
        stacked arrays ``(inputs, labels)`` as a tuple or list.
        """
        if isinstance(files, cls):
            return files
        if isinstance(files, Mapping):
            if set(files) != set(range(len(files))):
                raise TrainingError(
                    f"file data must be keyed by range({len(files)}), got keys {sorted(files)}"
                )
            files = [files[i] for i in range(len(files))]
        files = list(files)
        if len(files) == 2 and all(isinstance(a, np.ndarray) for a in files):
            inputs, labels = stacked = tuple(files)
            if inputs.ndim < 2 or labels.shape[:2] != inputs.shape[:2]:
                raise TrainingError(
                    "stacked files must be inputs (f, n, ...) and labels (f, n, ...) "
                    f"with equal leading axes, got {inputs.shape} and {labels.shape}"
                )
            ragged, (num_files, smallest) = None, inputs.shape[:2]
        else:
            stacked, ragged = None, [(x, y) for x, y in files]
            shapes = [(x.shape, y.shape) for x, y in ragged]
            num_files, smallest = len(ragged), min((x[0] for x, _ in shapes), default=0)
        if num_files == 0:
            raise TrainingError("batched gradient computation needs >= 1 file")
        if smallest == 0:
            raise TrainingError("cannot compute a gradient on an empty file")
        if stacked is None and all(shape == shapes[0] for shape in shapes):
            stacked, ragged = tuple(np.stack(arrays) for arrays in zip(*ragged)), None
        return cls(stacked, ragged)

    def __len__(self) -> int:
        return len(self._ragged if self.stacked is None else self.stacked[0])

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return iter(self._ragged) if self.stacked is None else zip(*self.stacked)


@dataclass
class BatchSampler:
    """Samples batches of indices from a dataset, deterministically per seed.

    Parameters
    ----------
    dataset:
        The training dataset.
    batch_size:
        Batch size ``b``; must not exceed the dataset size.
    seed:
        Seed controlling the batch sequence.
    with_replacement:
        If True every batch is an independent uniform draw; otherwise the
        sampler cycles through epoch permutations (classic SGD epochs).
    """

    dataset: Dataset
    batch_size: int
    seed: int | np.random.Generator | None = 0
    with_replacement: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise DataError(f"batch_size must be positive, got {self.batch_size}")
        if self.batch_size > self.dataset.num_samples:
            raise DataError(
                f"batch_size {self.batch_size} exceeds dataset size "
                f"{self.dataset.num_samples}"
            )
        self._rng = as_generator(self.seed)
        self._permutation = self._rng.permutation(self.dataset.num_samples)
        self._cursor = 0

    def next_batch(self) -> np.ndarray:
        """Indices of the next batch ``B_t``."""
        n = self.dataset.num_samples
        if self.with_replacement:
            return self._rng.integers(0, n, size=self.batch_size)
        if self._cursor + self.batch_size > n:
            self._permutation = self._rng.permutation(n)
            self._cursor = 0
        batch = self._permutation[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return batch.copy()

    def next_batch_files(self, num_files: int) -> list[np.ndarray]:
        """Next batch already partitioned into ``num_files`` files."""
        return partition_batch_into_files(self.next_batch(), num_files)

    def batch_data(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Materialize ``(inputs, labels)`` for a set of sample indices."""
        indices = np.asarray(indices, dtype=np.int64)
        return self.dataset.inputs[indices], self.dataset.labels[indices]


# -- non-IID partitions ------------------------------------------------------


def _apportion(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total``, by largest-remainder rounding."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    shortfall = int(total - counts.sum())
    if shortfall > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:shortfall]] += 1
    return counts


def _rebalanced(shards: list[list[int]], min_per_shard: int) -> list[np.ndarray]:
    """Move samples from the largest shards until every shard has the floor.

    Deterministic: the deficient shards are filled in index order, each time
    taking the last sample of the currently largest shard (ties broken by
    lowest shard index).  Raises :class:`DataError` when there are not
    enough samples for every shard to reach ``min_per_shard``.
    """
    total = sum(len(shard) for shard in shards)
    if total < min_per_shard * len(shards):
        raise DataError(
            f"{total} samples cannot give each of {len(shards)} shards "
            f"at least {min_per_shard}"
        )
    sizes = np.asarray([len(shard) for shard in shards], dtype=np.int64)
    for index in range(len(shards)):
        while sizes[index] < min_per_shard:
            donor = int(np.argmax(sizes))
            shards[index].append(shards[donor].pop())
            sizes[donor] -= 1
            sizes[index] += 1
    return [np.sort(np.asarray(shard, dtype=np.int64)) for shard in shards]


def _check_partition_args(num_shards: int, alpha: float, min_per_shard: int) -> None:
    if num_shards < 1:
        raise DataError(f"num_shards must be positive, got {num_shards}")
    if not np.isfinite(alpha) or alpha <= 0:
        raise DataError(f"alpha must be positive and finite, got {alpha}")
    if min_per_shard < 0:
        raise DataError(f"min_per_shard must be non-negative, got {min_per_shard}")


def dirichlet_label_partition(
    labels: np.ndarray,
    num_shards: int,
    alpha: float,
    seed: int = 0,
    min_per_shard: int = 1,
) -> list[np.ndarray]:
    """Dirichlet label-skew shards (Hsu et al., 2019).

    For every class the per-shard proportions are drawn from
    ``Dirichlet(alpha)`` — small ``alpha`` concentrates each class on few
    shards (strong skew), large ``alpha`` approaches IID.  Each class uses
    its own seed-derived stream, so the split of one class is independent
    of which other classes exist, and the result is a pure function of
    ``(labels, num_shards, alpha, seed)``.

    Returns sorted, disjoint index arrays covering every sample exactly
    once; shards are topped up to ``min_per_shard`` samples from the
    largest shards (degenerate draws would otherwise leave a file with no
    data to compute a gradient from).
    """
    labels = np.asarray(labels).ravel()
    _check_partition_args(num_shards, alpha, min_per_shard)
    shards: list[list[int]] = [[] for _ in range(num_shards)]
    for cls in np.unique(labels):
        class_rng = as_generator(derive_seed(seed, "dirichlet", int(cls)))
        indices = np.nonzero(labels == cls)[0]
        indices = indices[class_rng.permutation(indices.size)]
        counts = _apportion(class_rng.dirichlet(np.full(num_shards, alpha)), indices.size)
        start = 0
        for shard, count in zip(shards, counts):
            shard.extend(int(i) for i in indices[start : start + count])
            start += count
    return _rebalanced(shards, min_per_shard)


def quantity_skew_partition(
    num_samples: int,
    num_shards: int,
    alpha: float,
    seed: int = 0,
    min_per_shard: int = 1,
) -> list[np.ndarray]:
    """Quantity-skew shards: Dirichlet-distributed shard *sizes*, IID labels.

    A single ``Dirichlet(alpha)`` draw sets how many samples each shard
    gets; a seeded permutation then deals the samples out.  Label marginals
    stay IID — only the per-file batch "weight" varies, which is the other
    standard heterogeneity axis of the federated-learning literature.
    """
    if num_samples < 1:
        raise DataError(f"num_samples must be positive, got {num_samples}")
    _check_partition_args(num_shards, alpha, min_per_shard)
    rng = as_generator(derive_seed(seed, "quantity_skew"))
    counts = _apportion(rng.dirichlet(np.full(num_shards, alpha)), num_samples)
    permutation = rng.permutation(num_samples)
    shards: list[list[int]] = []
    start = 0
    for count in counts:
        shards.append([int(i) for i in permutation[start : start + count]])
        start += count
    return _rebalanced(shards, min_per_shard)


def partition_digest(shards: list[np.ndarray]) -> str:
    """Content digest of a partition (sha256 over sizes and index bytes).

    Stable across processes and platforms for the same shards; the non-IID
    determinism tests pin these digests so any drift in the partition
    functions is caught immediately.
    """
    digest = hashlib.sha256()
    digest.update(len(shards).to_bytes(8, "little"))
    for shard in shards:
        arr = np.ascontiguousarray(np.asarray(shard, dtype=np.int64))
        digest.update(arr.size.to_bytes(8, "little"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


def build_file_partition(
    dataset: Dataset,
    num_files: int,
    kind: str,
    alpha: float = 0.5,
    seed: int = 0,
    min_per_shard: int = 1,
) -> list[np.ndarray]:
    """One shard of ``dataset`` per file, by partition ``kind``."""
    if kind == "dirichlet":
        return dirichlet_label_partition(
            dataset.labels, num_files, alpha, seed=seed, min_per_shard=min_per_shard
        )
    if kind == "quantity_skew":
        return quantity_skew_partition(
            dataset.num_samples, num_files, alpha, seed=seed, min_per_shard=min_per_shard
        )
    raise DataError(
        f"unknown partition kind {kind!r}; expected one of {PARTITION_KINDS}"
    )


@dataclass
class ShardedBatchSampler:
    """Per-file batch sampling from fixed shards (non-IID training).

    Every file ``i`` draws its ``batch_size / num_files`` samples from shard
    ``i`` only, cycling through seed-derived epoch permutations of that
    shard.  Shards smaller than the per-file quota wrap around within a
    batch (their samples repeat), so all files always contribute
    equal-sized gradients — the stacked per-file gradient engine requires
    that.  Each shard's stream is derived as ``derive_seed(seed, "shard",
    i)``, so file ``i``'s sample sequence is independent of every other
    shard's layout.

    Parameters
    ----------
    dataset:
        The training dataset the shard indices point into.
    batch_size:
        Total batch size ``b``; must be divisible by the number of shards.
    shards:
        One index array per file (from :func:`build_file_partition`).
    seed:
        Base seed for the per-shard streams.
    """

    dataset: Dataset
    batch_size: int
    shards: list[np.ndarray] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise DataError(f"batch_size must be positive, got {self.batch_size}")
        if not self.shards:
            raise DataError("at least one shard is required")
        if self.batch_size % len(self.shards) != 0:
            raise DataError(
                f"batch_size {self.batch_size} is not divisible by "
                f"f={len(self.shards)} shards"
            )
        self.shards = [np.asarray(shard, dtype=np.int64) for shard in self.shards]
        for index, shard in enumerate(self.shards):
            if shard.size == 0:
                raise DataError(f"shard {index} is empty")
            if shard.min() < 0 or shard.max() >= self.dataset.num_samples:
                raise DataError(
                    f"shard {index} indexes outside the dataset "
                    f"(size {self.dataset.num_samples})"
                )
        self.num_files = len(self.shards)
        self.samples_per_file = self.batch_size // self.num_files
        self._rngs = [
            as_generator(derive_seed(self.seed, "shard", index))
            for index in range(self.num_files)
        ]
        self._permutations = [
            rng.permutation(shard.size)
            for rng, shard in zip(self._rngs, self.shards)
        ]
        self._cursors = [0] * self.num_files

    def _draw(self, index: int) -> np.ndarray:
        shard = self.shards[index]
        out = np.empty(self.samples_per_file, dtype=np.int64)
        filled = 0
        while filled < self.samples_per_file:
            cursor = self._cursors[index]
            if cursor >= shard.size:
                self._permutations[index] = self._rngs[index].permutation(shard.size)
                self._cursors[index] = cursor = 0
            take = min(self.samples_per_file - filled, shard.size - cursor)
            chosen = self._permutations[index][cursor : cursor + take]
            out[filled : filled + take] = shard[chosen]
            self._cursors[index] += take
            filled += take
        return out

    def next_batch_files(self) -> list[np.ndarray]:
        """The next batch as one per-file index array per shard."""
        return [self._draw(index) for index in range(self.num_files)]

    def next_batch(self) -> np.ndarray:
        """The next batch's indices, concatenated in file order."""
        return np.concatenate(self.next_batch_files())

    def batch_data(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Materialize ``(inputs, labels)`` for a set of sample indices."""
        indices = np.asarray(indices, dtype=np.int64)
        return self.dataset.inputs[indices], self.dataset.labels[indices]
