"""Exact linear algebra over GF(2) on dense bit-packed matrices.

Rows are stored as arbitrary-precision Python integers acting as bit sets
(bit ``j`` is column ``j``), so a row operation is a single word-level XOR
regardless of width.  All operations are pure functions on immutable
values; nothing here mutates its inputs.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable


class InvariantError(RuntimeError):
    """Raised when a computed result breaks a property that provably holds.

    It signals a defect in the package, never bad input, and unlike an
    ``assert`` it is not stripped by ``python -O``.
    """


@dataclass(frozen=True)
class BitVector:
    """A GF(2) vector of length ``size`` packed into a single integer.

    Bits beyond ``size`` must be zero (enforced at construction).
    """

    size: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("vector length must be nonnegative")
        if self.bits < 0 or self.bits >> self.size:
            raise ValueError("bits set beyond the vector length")

    @classmethod
    def ones(cls, size: int) -> BitVector:
        return cls(size, (1 << size) - 1 if size else 0)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if (self.bits >> i) & 1)

    def weight(self) -> int:
        return self.bits.bit_count()


@dataclass(frozen=True)
class BitMatrix:
    """A dense GF(2) matrix; ``data[i]`` packs row ``i``, bit ``j`` is column ``j``."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.data) != self.rows:
            raise ValueError(f"expected {self.rows} packed rows, got {len(self.data)}")
        for i, row in enumerate(self.data):
            if row < 0 or row >> self.cols:
                raise ValueError(f"row {i} has bits set beyond column {self.cols - 1}")

    @classmethod
    def from_packed(cls, packed: Iterable[int], cols: int) -> BitMatrix:
        data = tuple(packed)
        return cls(len(data), cols, data)


class Factorization:
    """One elimination of a GF(2) matrix, serving rank, solves and dependencies.

    Each row is reduced only against the pivots it hits (structured sparse
    elimination, LaMacchia-Odlyzko 1990), keyed by lowest set bit, so a kept
    row's bits lie at or above its pivot.  Each kept row carries its combo,
    the set of input rows it sums; a row reducing to zero leaves its combo in
    ``dependencies``, a basis of the left nullspace (its own row is the
    combo's highest bit).  Nothing is changed after construction.
    """

    def __init__(self, matrix: BitMatrix) -> None:
        self.matrix = matrix
        pivots: dict[int, tuple[int, int]] = {}
        dependencies: list[BitVector] = []
        for i, row in enumerate(matrix.data):
            combo = 1 << i
            while row:
                low = row & -row
                hit = pivots.get(low)
                if hit is None:
                    pivots[low] = (row, combo)
                    break
                row ^= hit[0]
                combo ^= hit[1]
            else:
                dependencies.append(BitVector(matrix.rows, combo))
        self.pivots = dict(sorted(pivots.items(), reverse=True))
        self.dependencies = tuple(dependencies)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, b: BitVector) -> BitVector | None:
        """One solution of ``matrix @ x = b``, or None when inconsistent.

        None when some dependency meets ``b`` oddly (the rows it names must
        XOR to zero); otherwise every free variable is zero and the pivots
        are back-substituted from the highest.  Both answers are checked
        (``InvariantError`` on failure).
        """
        m = self.matrix
        if b.size != m.rows:
            raise ValueError(f"right-hand side length {b.size} != row count {m.rows}")
        for dep in self.dependencies:
            if (dep.bits & b.bits).bit_count() & 1:
                if functools.reduce(operator.xor, (m.data[i] for i in dep.support()), 0):
                    raise InvariantError("a recorded dependency does not sum to zero")
                return None
        bits = 0
        for low, (row, combo) in self.pivots.items():
            if ((row & bits).bit_count() ^ (combo & b.bits).bit_count()) & 1:
                bits |= low
        x = BitVector(m.cols, bits)
        if matvec(m, x) != b:
            raise InvariantError("the solver produced a non-solution")
        return x


def rank(m: BitMatrix) -> int:
    """GF(2) row rank."""
    return Factorization(m).rank


def matvec(m: BitMatrix, x: BitVector) -> BitVector:
    """Matrix-vector product over GF(2)."""
    if x.size != m.cols:
        raise ValueError(f"vector length {x.size} != column count {m.cols}")
    out = 0
    for i, row in enumerate(m.data):
        out |= ((row & x.bits).bit_count() & 1) << i
    return BitVector(m.rows, out)


def solve(m: BitMatrix, b: BitVector) -> BitVector | None:
    """One solution of ``m @ x = b``, free variables zero, or None; see :class:`Factorization`."""
    return Factorization(m).solve(b)

