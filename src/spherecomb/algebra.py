"""Exact arithmetic for integer matrix groups acting on the torus.

Matrices carry arbitrary-precision integer entries and are expected to be
unimodular (determinant 1).  Torus points are vectors of 64-bit fixed-point
fractions, so the linear action reduces to integer multiply-adds followed by
a reduction mod 2**64; no floating point enters until a caller converts a
coordinate or a character phase to a float.

:class:`GroupMatrix` is the validated type at the API boundary: generator
systems, automaton files and :meth:`GeneratorSystem.word_matrix`.  The hot
loop, the Cayley ball, multiplies whole spheres as int64 residue arrays
instead and never builds a ``GroupMatrix`` per product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    NotUnimodularError,
    UnknownLabelError,
    check_integer,
)

FRACTIONAL_BITS = 64
SCALE = 1 << FRACTIONAL_BITS
MASK = SCALE - 1

Rows = tuple[tuple[int, ...], ...]


def _as_int_rows(rows: Iterable[Iterable[int]]) -> Rows:
    out = tuple(tuple(int(v) for v in row) for row in rows)
    if not out:
        raise DimensionMismatchError("matrix must have at least one row")
    d = len(out)
    for row in out:
        if len(row) != d:
            raise DimensionMismatchError(f"matrix is not square: {d} rows, row of length {len(row)}")
    return out


def _mul(rows: Rows, cols: Rows) -> Rows:
    """Raw product of a matrix given by its rows and one given by its columns."""
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in rows)


@dataclass(frozen=True)
class GroupMatrix:
    """Square integer matrix, exact entries of unbounded size."""

    rows: Rows

    def __post_init__(self):
        object.__setattr__(self, "rows", _as_int_rows(self.rows))

    @classmethod
    def _trusted(cls, rows: Rows) -> "GroupMatrix":
        """Wrap rows that are already square tuples of ints, skipping validation."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, dim: int) -> "GroupMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)))

    def __matmul__(self, other: "GroupMatrix") -> "GroupMatrix":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"cannot multiply {self.dim}x{self.dim} by {other.dim}x{other.dim}")
        return GroupMatrix._trusted(_mul(self.rows, tuple(zip(*other.rows))))

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        d = self.dim
        m = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(d - 1):
            if m[k][k] == 0:
                for r in range(k + 1, d):
                    if m[r][k] != 0:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, d):
                for j in range(k + 1, d):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[d - 1][d - 1]

    def inverse(self) -> "GroupMatrix":
        """Exact inverse; defined only for determinant +/-1 (it stays integer)."""
        det = self.determinant()
        if det not in (1, -1):
            raise NotUnimodularError(f"determinant {det}, inverse is not an integer matrix")
        d = self.dim
        adj = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                minor = [
                    [self.rows[r][c] for c in range(d) if c != j]
                    for r in range(d) if r != i
                ]
                cof = GroupMatrix(minor).determinant() if d > 1 else 1
                adj[j][i] = ((-1) ** (i + j)) * cof * det
        return GroupMatrix(tuple(tuple(row) for row in adj))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(v) for v in row) for row in self.rows) + "]"


@dataclass(frozen=True)
class TorusPoint:
    """Point of the d-torus with coordinates k/2**64, stored as integers in [0, 2**64)."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) & MASK for c in self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def zero(cls, dim: int) -> "TorusPoint":
        return cls((0,) * dim)

    @classmethod
    def from_fractions(cls, values: Sequence[Fraction | str | int | float]) -> "TorusPoint":
        """Round each value to the nearest representable fraction k/2**64 (ties to even)."""
        coords = []
        for v in values:
            f = Fraction(v)
            coords.append(round(f * SCALE) & MASK)
        return cls(tuple(coords))

    def __str__(self) -> str:
        return "(" + ", ".join(f"{c}/2^64" for c in self.coords) + ")"


def sqrt_fix64(n: int) -> int:
    """floor(sqrt(n) * 2**64) reduced mod 1: the canonical fixed-point form of sqrt(n).

    Exact via integer square root; no floating point is involved, so e.g.
    sqrt_fix64(2) carries all 64 fractional bits of sqrt(2).
    """
    check_integer(n, "radicand")
    return isqrt(n << (2 * FRACTIONAL_BITS)) & MASK


def torus_act(g: GroupMatrix, x: TorusPoint) -> TorusPoint:
    """Apply an integer matrix to a torus point, exactly, mod 1 in every coordinate."""
    if g.dim != x.dim:
        raise DimensionMismatchError(f"matrix dim {g.dim} vs point dim {x.dim}")
    return TorusPoint(
        tuple(sum(a * c for a, c in zip(row, x.coords)) & MASK for row in g.rows)
    )


def phase64(k: Sequence[int], x: TorusPoint) -> int:
    """Exact phase <k, x> mod 1 as an integer t in [0, 2**64), meaning t/2**64 turns."""
    if len(k) != x.dim:
        raise DimensionMismatchError(f"frequency dim {len(k)} vs point dim {x.dim}")
    return sum(int(ki) * c for ki, c in zip(k, x.coords)) & MASK


@dataclass(frozen=True)
class GeneratorSystem:
    """Finite symmetric generating set: labels, their matrices, and the inversion pairing.

    Closed under inversion: ``inverse_of(inverse_of(s)) == s`` and
    ``matrix_of(inverse_of(s)) @ matrix_of(s)`` is the identity.  A label may
    be its own inverse (an involution).
    """

    labels: tuple[str, ...]
    matrices: tuple[GroupMatrix, ...]
    inverse_labels: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.labels) == len(self.matrices) == len(self.inverse_labels)):
            raise DimensionMismatchError("labels, matrices, inverse_labels must have equal length")
        if not self.labels:
            raise ValueError("a generator system needs at least one generator")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in {self.labels}")
        index = {s: i for i, s in enumerate(self.labels)}
        dim = self.matrices[0].dim
        ident = GroupMatrix.identity(dim)
        for s, m, inv in zip(self.labels, self.matrices, self.inverse_labels):
            if m.dim != dim:
                raise DimensionMismatchError(f"generator {s!r} has dim {m.dim}, expected {dim}")
            if m.determinant() != 1:
                raise NotUnimodularError(f"generator {s!r} has determinant {m.determinant()}, need 1")
            if inv not in index:
                raise UnknownLabelError(f"inverse label {inv!r} of {s!r} is not a generator")
            if self.inverse_labels[index[inv]] != s:
                raise ValueError(f"inversion pairing is not an involution at {s!r}")
            if self.matrices[index[inv]] @ m != ident:
                raise ValueError(f"matrix of {inv!r} is not the inverse of matrix of {s!r}")

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[str, str, Sequence[Sequence[int]]]]
    ) -> "GeneratorSystem":
        """Build from (label, inverse_label, matrix) triples; inverse matrices are derived.

        Use ``label == inverse_label`` for an involution.  Each non-involutive
        pair should appear once; the partner label is added automatically.
        """
        labels: list[str] = []
        matrices: list[GroupMatrix] = []
        inverses: list[str] = []
        for label, inv_label, rows in pairs:
            m = GroupMatrix(tuple(tuple(r) for r in rows))
            labels.append(label)
            matrices.append(m)
            inverses.append(inv_label)
            if inv_label != label:
                labels.append(inv_label)
                matrices.append(m.inverse())
                inverses.append(label)
        return cls(tuple(labels), tuple(matrices), tuple(inverses))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.labels)}

    @property
    def dim(self) -> int:
        return self.matrices[0].dim

    def matrix_of(self, label: str) -> GroupMatrix:
        try:
            return self.matrices[self._index[label]]
        except KeyError:
            raise UnknownLabelError(f"unknown generator label {label!r}") from None

    def inverse_of(self, label: str) -> str:
        try:
            return self.inverse_labels[self._index[label]]
        except KeyError:
            raise UnknownLabelError(f"unknown generator label {label!r}") from None

    def inverse_matrix_of(self, label: str) -> GroupMatrix:
        return self.matrix_of(self.inverse_of(label))

    def word_matrix(self, word: Iterable[str]) -> GroupMatrix:
        """Evaluate a word to its exact matrix (left-to-right product)."""
        m = GroupMatrix.identity(self.dim)
        for s in word:
            m = m @ self.matrix_of(s)
        return m


def word_act(word: Sequence[str], x: TorusPoint, system: GeneratorSystem, *, inverse: bool = True) -> TorusPoint:
    """Evaluate the word's action on a torus point one generator at a time.

    With ``inverse=True`` (the default) this computes w**-1 . x for the word
    w = s_1 ... s_n: the inverse generators are applied innermost-first, so
    extending the word on the right refines the current point by one more
    application.  With ``inverse=False`` it computes w . x.
    """
    if inverse:
        for s in word:
            x = torus_act(system.inverse_matrix_of(s), x)
    else:
        for s in reversed(word):
            x = torus_act(system.matrix_of(s), x)
    return x
