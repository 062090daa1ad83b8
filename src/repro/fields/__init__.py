"""Latin-square combinatorics.

These are the combinatorial building blocks of ByzShield's MOLS task
assignment (paper Section 4.1): Latin squares built from the linear maps
``L_alpha(i, j) = alpha * i + j (mod l)`` for a prime degree ``l``, and
families of mutually orthogonal Latin squares (MOLS).
"""

from repro.fields.latin_squares import (
    LatinSquare,
    are_orthogonal,
    mols_family,
    is_latin_square,
)

__all__ = [
    "LatinSquare",
    "are_orthogonal",
    "mols_family",
    "is_latin_square",
]
