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
    "FileRows",
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
    """One round's ``f`` files as rows of a sample pool, gathered a chunk at a time.

    ``indices`` is the ``(f, n)`` matrix of row indices, file ``i`` in row
    ``i``: every file has the same ``n = b / f`` samples.  ``pool`` is the
    ``(inputs, labels)`` pair those rows are drawn from (for a sampled
    round, the training set itself), and ``gather`` maps flat row indices to
    a fresh copy of their ``(inputs, labels)`` (the stacked pass overwrites
    a chunk's inputs): a sampler's ``batch_data``, so every gather
    of a trained round goes through it.  Nothing is gathered up front.  The
    stacked pass reads :meth:`chunk` (files ``lo..hi`` in one gather) and
    drops each chunk with its activations; :meth:`file` gathers one file
    (the per-file reference).  Iterating yields the ``f`` ``(inputs_i,
    labels_i)`` pairs as :class:`FileRows`: their shapes cost nothing, and
    ``np.asarray`` gathers them.
    """

    def __init__(
        self,
        indices: np.ndarray,
        pool: tuple[np.ndarray, np.ndarray],
        gather=None,
    ) -> None:
        self.indices, self.pool = indices, pool
        self._gather = gather if gather is not None else self._take

    def _take(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inputs, labels = self.pool
        return inputs[rows], labels[rows]

    @classmethod
    def coerce(cls, files) -> "RoundFiles":
        """``files`` as a :class:`RoundFiles`, checked once.

        Takes a :class:`RoundFiles` (returned as is), a ``{file: (inputs,
        labels)}`` mapping over ``range(f)``, a sequence of ``(inputs,
        labels)`` pairs (pooled with one copy), or the two stacked arrays
        ``(inputs, labels)`` as a tuple or list (pooled as they are).  Files
        of unequal sizes are refused.
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
            inputs, labels = files
            if inputs.ndim < 2 or labels.shape[:2] != inputs.shape[:2]:
                raise TrainingError(
                    "stacked files must be inputs (f, n, ...) and labels (f, n, ...) "
                    f"with equal leading axes, got {inputs.shape} and {labels.shape}"
                )
            sizes = [inputs.shape[1]] * inputs.shape[0]
            pool = tuple(a.reshape((-1,) + a.shape[2:]) for a in (inputs, labels))
        else:
            pairs = [(np.asarray(x), np.asarray(y)) for x, y in files]
            sizes = [x.shape[0] for x, _ in pairs]
            pool = tuple(np.concatenate(part) for part in zip(*pairs))
        if not sizes:
            raise TrainingError("batched gradient computation needs >= 1 file")
        if min(sizes) == 0:
            raise TrainingError("cannot compute a gradient on an empty file")
        if len(set(sizes)) != 1:
            raise TrainingError(f"files must all have the same size, got sizes {sizes}")
        return cls(np.arange(sum(sizes)).reshape(len(sizes), sizes[0]), pool)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the files' stacked inputs, ``(f, n, ...)``."""
        return self.indices.shape + self.pool[0].shape[1:]

    @property
    def samples_per_file(self) -> np.ndarray:
        """``(f,)`` sample counts, read off the indices: nothing is gathered."""
        return np.full(len(self), self.indices.shape[1])

    def chunk(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Files ``lo..hi-1`` in one gather: stacked ``(inputs, labels)``,
        each ``(hi - lo, n, ...)``."""
        rows = self.indices[lo:hi]
        inputs, labels = self._gather(rows.ravel())
        return tuple(a.reshape(rows.shape + a.shape[1:]) for a in (inputs, labels))

    def file(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """File ``index`` gathered: ``(inputs (n, ...), labels (n, ...))``."""
        return self._gather(self.indices[index])

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[tuple[FileRows, FileRows]]:
        return ((FileRows(self, i, 0), FileRows(self, i, 1)) for i in range(len(self)))


class FileRows:
    """One file's inputs (``part`` 0) or labels (1), gathered only when read.

    ``shape`` comes from the indices and the pool, so counting a round's
    samples by iterating it gathers nothing.  ``np.asarray`` gathers the
    file (:meth:`RoundFiles.file`).
    """

    def __init__(self, files: RoundFiles, index: int, part: int) -> None:
        self._files, self._index, self._part = files, index, part
        self.shape = files.indices.shape[1:] + files.pool[part].shape[1:]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self._files.file(self._index)[self._part], dtype=dtype)


@dataclass
class BatchSampler:
    """Samples batches of indices from a dataset, deterministically per seed.

    The sampler cycles through epoch permutations of the dataset (classic
    SGD epochs).

    Parameters
    ----------
    dataset:
        The training dataset.
    batch_size:
        Batch size ``b``; must not exceed the dataset size.
    num_files:
        Number of files ``f`` :meth:`next_batch_files` splits a batch into;
        must divide ``b`` (checked there, by :func:`partition_batch_into_files`).
    seed:
        Seed controlling the batch sequence.
    """

    dataset: Dataset
    batch_size: int
    num_files: int
    seed: int | np.random.Generator | None = 0

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
        if self._cursor + self.batch_size > n:
            self._permutation = self._rng.permutation(n)
            self._cursor = 0
        batch = self._permutation[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return batch.copy()

    def next_batch_files(self) -> list[np.ndarray]:
        """The next batch split into its ``num_files`` files."""
        return partition_batch_into_files(self.next_batch(), self.num_files)

    def batch_data(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Materialize ``(inputs, labels)`` for a set of sample indices: the
        gather a trained round's :class:`RoundFiles` calls once per chunk."""
        indices = np.asarray(indices, dtype=np.int64)
        return self.dataset.inputs[indices], self.dataset.labels[indices]


# -- non-IID partitions ------------------------------------------------------

#: Each shard's first part: every class deals every shard a (possibly empty)
#: slice, but with no labels at all a shard must still be an int64 array.
_NO_SAMPLES = np.empty(0, dtype=np.int64)


def _apportion(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total``, by largest-remainder rounding."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    shortfall = int(total - counts.sum())
    if shortfall > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:shortfall]] += 1
    return counts


def _rebalanced(shards: list[np.ndarray]) -> list[np.ndarray]:
    """Give every empty shard one sample, so each file has data to compute a
    gradient from.

    Deterministic: the empty shards are filled in index order, each taking
    the last sample of the currently largest shard (ties broken by lowest
    shard index).  Raises :class:`DataError` when there are fewer samples
    than shards.

    While a shard is empty the total puts the largest one above one sample,
    so a donor is never a shard that received: each shard ends as a prefix
    of its array plus the sample it was given.
    """
    total = sum(shard.size for shard in shards)
    if total < len(shards):
        raise DataError(f"{total} samples cannot give each of {len(shards)} shards a sample")
    sizes = np.asarray([shard.size for shard in shards], dtype=np.int64)
    received: list[list[int]] = [[] for _ in shards]
    for index in range(len(shards)):
        if sizes[index] == 0:
            donor = int(np.argmax(sizes))
            sizes[donor] -= 1
            received[index].append(int(shards[donor][sizes[donor]]))
            sizes[index] += 1
    return [
        np.sort(np.concatenate([shard[: size - len(extra)], np.asarray(extra, dtype=np.int64)]))
        for shard, size, extra in zip(shards, sizes, received)
    ]


def _check_partition_args(num_shards: int, alpha: float) -> None:
    if num_shards < 1:
        raise DataError(f"num_shards must be positive, got {num_shards}")
    if not np.isfinite(alpha) or alpha <= 0:
        raise DataError(f"alpha must be positive and finite, got {alpha}")


def dirichlet_label_partition(
    labels: np.ndarray, num_shards: int, alpha: float, seed: int = 0
) -> list[np.ndarray]:
    """Dirichlet label-skew shards (Hsu et al., 2019).

    For every class the per-shard proportions are drawn from
    ``Dirichlet(alpha)`` — small ``alpha`` concentrates each class on few
    shards (strong skew), large ``alpha`` approaches IID.  Each class uses
    its own seed-derived stream, so the split of one class is independent
    of which other classes exist, and the result is a pure function of
    ``(labels, num_shards, alpha, seed)``.

    Returns sorted, disjoint index arrays covering every sample exactly
    once; an empty shard is given one sample from the largest shard
    (degenerate draws would otherwise leave a file with no data to compute
    a gradient from).
    """
    labels = np.asarray(labels).ravel()
    _check_partition_args(num_shards, alpha)
    parts: list[list[np.ndarray]] = [[_NO_SAMPLES] for _ in range(num_shards)]
    for cls in np.unique(labels):
        class_rng = as_generator(derive_seed(seed, "dirichlet", int(cls)))
        indices = np.nonzero(labels == cls)[0]
        indices = indices[class_rng.permutation(indices.size)]
        counts = _apportion(class_rng.dirichlet(np.full(num_shards, alpha)), indices.size)
        for shard_parts, part in zip(parts, np.split(indices, np.cumsum(counts)[:-1])):
            shard_parts.append(part)
    return _rebalanced([np.concatenate(p) for p in parts])


def quantity_skew_partition(
    num_samples: int, num_shards: int, alpha: float, seed: int = 0
) -> list[np.ndarray]:
    """Quantity-skew shards: Dirichlet-distributed shard *sizes*, IID labels.

    A single ``Dirichlet(alpha)`` draw sets how many samples each shard
    gets; a seeded permutation then deals the samples out.  Label marginals
    stay IID — only the per-file batch "weight" varies, which is the other
    standard heterogeneity axis of the federated-learning literature.
    """
    if num_samples < 1:
        raise DataError(f"num_samples must be positive, got {num_samples}")
    _check_partition_args(num_shards, alpha)
    rng = as_generator(derive_seed(seed, "quantity_skew"))
    counts = _apportion(rng.dirichlet(np.full(num_shards, alpha)), num_samples)
    permutation = rng.permutation(num_samples)
    return _rebalanced(np.split(permutation, np.cumsum(counts)[:-1]))


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
) -> list[np.ndarray]:
    """One shard of ``dataset`` per file, by partition ``kind``."""
    if kind == "dirichlet":
        return dirichlet_label_partition(dataset.labels, num_files, alpha, seed=seed)
    if kind == "quantity_skew":
        return quantity_skew_partition(dataset.num_samples, num_files, alpha, seed=seed)
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
        """Materialize ``(inputs, labels)`` for a set of sample indices: the
        gather a trained round's :class:`RoundFiles` calls once per chunk."""
        indices = np.asarray(indices, dtype=np.int64)
        return self.dataset.inputs[indices], self.dataset.labels[indices]
