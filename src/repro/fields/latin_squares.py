"""Latin squares and mutually orthogonal families (MOLS).

Implements paper Section 4.1.1: a Latin square of degree ``l`` is an
``l x l`` array over ``l`` symbols in which every symbol appears exactly once
in each row and each column.  Two squares are *orthogonal* when superimposing
them produces every ordered symbol pair exactly once.  For prime ``l`` the
family ``L_alpha(i, j) = alpha*i + j (mod l)``, ``alpha = 1..l-1``, is a
maximal set of ``l - 1`` MOLS, which is exactly the construction the paper
uses for its worker-file assignment (Algorithm 2, Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive_int, check_prime

__all__ = ["LatinSquare", "are_orthogonal", "mols_family", "is_latin_square"]


def is_latin_square(grid: np.ndarray) -> bool:
    """Return True if ``grid`` is a Latin square over symbols {0..l-1}."""
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        return False
    l = grid.shape[0]
    expected = np.arange(l)
    for axis in (0, 1):
        lines = grid if axis == 0 else grid.T
        for line in lines:
            if not np.array_equal(np.sort(line), expected):
                return False
    return True


@dataclass(frozen=True)
class LatinSquare:
    """An immutable Latin square of degree ``l``.

    Attributes
    ----------
    grid:
        The ``l x l`` integer array; ``grid[i, j]`` is the symbol in cell
        ``(i, j)``.
    alpha:
        If the square came from the linear construction
        ``L_alpha(i, j) = alpha*i + j``, the multiplier ``alpha``;
        ``None`` for arbitrary squares.
    """

    grid: np.ndarray
    alpha: int | None = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=np.int64)
        object.__setattr__(self, "grid", grid)
        if not is_latin_square(grid):
            raise ConfigurationError("the provided grid is not a Latin square")

    # -- properties --------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree ``l`` of the square (number of rows = columns = symbols)."""
        return int(self.grid.shape[0])

    def symbol_cells(self, symbol: int) -> list[tuple[int, int]]:
        """All cells ``(i, j)`` whose entry equals ``symbol``.

        The MOLS assignment (Algorithm 2, line 5) gives worker ``U_{kl+s}``
        exactly the files located at the cells of symbol ``s`` in square
        ``L_{k+1}``; there are always exactly ``l`` such cells.
        """
        if not (0 <= symbol < self.degree):
            raise ConfigurationError(
                f"symbol must be in [0, {self.degree}), got {symbol}"
            )
        rows, cols = np.nonzero(self.grid == symbol)
        return [(int(i), int(j)) for i, j in zip(rows, cols)]

    @classmethod
    def from_linear(cls, l: int, alpha: int) -> "LatinSquare":
        """Construct ``L_alpha(i, j) = alpha*i + j (mod l)`` for prime ``l``.

        Parameters
        ----------
        l:
            Prime degree of the square.
        alpha:
            Non-zero multiplier in GF(l).
        """
        check_prime(l, "Latin square degree l")
        alpha = int(alpha) % l
        if alpha == 0:
            raise ConfigurationError("alpha must be non-zero in GF(l)")
        i = np.arange(l, dtype=np.int64)[:, None]
        j = np.arange(l, dtype=np.int64)[None, :]
        grid = np.mod(alpha * i + j, l)
        return cls(grid=grid, alpha=alpha)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LatinSquare(degree={self.degree}, alpha={self.alpha})"


def are_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    """Return True if two Latin squares of equal degree are orthogonal.

    Orthogonality (paper Definition 2) means that the ``l**2`` ordered pairs
    ``(a[i, j], b[i, j])`` are all distinct.
    """
    if a.degree != b.degree:
        raise ConfigurationError(
            f"cannot compare squares of degree {a.degree} and {b.degree}"
        )
    l = a.degree
    pairs = a.grid.astype(np.int64) * l + b.grid.astype(np.int64)
    return np.unique(pairs).size == l * l


def mols_family(l: int, count: int) -> list[LatinSquare]:
    """Construct ``count`` mutually orthogonal Latin squares of prime degree ``l``.

    The family is ``L_1, L_2, ..., L_count`` with
    ``L_alpha(i, j) = alpha*i + j (mod l)``.  At most ``l - 1`` MOLS of degree
    ``l`` exist, so ``count`` must satisfy ``1 <= count <= l - 1``.

    Returns
    -------
    list[LatinSquare]
        The squares in order of increasing ``alpha``.
    """
    check_prime(l, "MOLS degree l")
    check_positive_int(count, "count")
    if count > l - 1:
        raise ConfigurationError(
            f"at most l-1={l - 1} MOLS of degree {l} exist, requested {count}"
        )
    return [LatinSquare.from_linear(l, alpha) for alpha in range(1, count + 1)]
