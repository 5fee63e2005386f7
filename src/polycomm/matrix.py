"""Dense square matrices over pluggable scalar rings.

Backends: exact rationals, complex floats, and quaternions (exact or
float).  Row reduction only ever multiplies rows by entry inverses from
the left, so inversion is valid over the noncommutative backends too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import _EXACT_TYPES, Polynomial
from .quat import Quaternion


class SingularMatrixError(ValueError):
    """Row reduction hit a column with no usable pivot."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"matrix is singular (no pivot in column {column})")


class ScalarRing:
    """Scalar operations a GenericMatrix needs from its backend."""

    name: str
    exact: bool

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def embed(self, c):
        """Image of a base-field scalar (int / Fraction / float); central."""
        raise NotImplementedError

    def inv(self, s):
        raise NotImplementedError

    def is_central(self, s) -> bool:
        return True

    def magnitude(self, s) -> float:
        raise NotImplementedError

    def coerce(self, value):
        raise NotImplementedError

    def __repr__(self):
        return f"<ring {self.name}>"


def _safe_float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf


class RationalField(ScalarRing):
    name = "rational"
    exact = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def embed(self, c):
        if isinstance(c, float):
            raise ValueError(
                "the rational ring is exact; floats belong to the complex or "
                "quaternion-float backends"
            )
        return Fraction(c)

    def inv(self, s):
        if s == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(s)

    def magnitude(self, s) -> float:
        return abs(_safe_float(s))

    def coerce(self, value):
        if isinstance(value, _EXACT_TYPES):
            return value
        return self.embed(value)


class ComplexField(ScalarRing):
    name = "complex"
    exact = False

    def zero(self):
        return 0j

    def one(self):
        return 1 + 0j

    def embed(self, c):
        return complex(c)

    def inv(self, s):
        if s == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / complex(s)

    def magnitude(self, s) -> float:
        return abs(complex(s))

    def coerce(self, value):
        return complex(value)


class QuaternionAlgebra(ScalarRing):
    def __init__(self, exact: bool):
        self.exact = exact
        self.name = "quaternion" if exact else "quaternion-float"

    def zero(self):
        return Quaternion.exact() if self.exact else Quaternion.of_floats()

    def one(self):
        return Quaternion.exact(1) if self.exact else Quaternion.of_floats(1.0)

    def embed(self, c):
        if isinstance(c, Quaternion):
            if not self.is_central(c):
                raise ValueError("only central (real) scalars embed into matrices")
            c = c.w
        if self.exact:
            if isinstance(c, float):
                raise ValueError(
                    "the exact quaternion ring takes int or Fraction scalars; "
                    "use the quaternion-float backend for floats"
                )
            return Quaternion.exact(c)
        return Quaternion.of_floats(float(c))

    def inv(self, s):
        return s.inverse()

    def is_central(self, s) -> bool:
        return s.im().is_zero()

    def magnitude(self, s) -> float:
        return math.sqrt(_safe_float(s.norm2()))

    def coerce(self, value):
        if isinstance(value, Quaternion):
            q = value
        elif isinstance(value, (int, float, Fraction)):
            q = Quaternion(value)
        elif isinstance(value, (list, tuple)) and len(value) == 4:
            q = Quaternion(*value)
        else:
            raise TypeError(f"cannot coerce {value!r} to a quaternion")
        if not self.exact:
            return q.to_float()
        if any(isinstance(c, float) for c in q.components()):
            raise ValueError(
                "the exact quaternion ring takes int or Fraction components; "
                "use the quaternion-float backend for floats"
            )
        return Quaternion.exact(*q.components())


QQ = RationalField()
CC = ComplexField()
HQ = QuaternionAlgebra(exact=True)
HF = QuaternionAlgebra(exact=False)

RINGS = {r.name: r for r in (QQ, CC, HQ, HF)}


class GenericMatrix:
    """Immutable square matrix over a ScalarRing."""

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring: ScalarRing, rows: Sequence[Sequence]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("rows must form a nonempty square matrix")
        self.ring = ring
        self.n = n
        self.rows = rows

    @classmethod
    def from_rows(cls, ring: ScalarRing, rows: Sequence[Sequence]) -> "GenericMatrix":
        return cls(ring, [[ring.coerce(v) for v in row] for row in rows])

    @classmethod
    def identity(cls, ring: ScalarRing, n: int) -> "GenericMatrix":
        one, zero = ring.one(), ring.zero()
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, ring: ScalarRing, n: int) -> "GenericMatrix":
        zero = ring.zero()
        return cls(ring, [[zero] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, ring: ScalarRing, entries: Iterable) -> "GenericMatrix":
        entries = list(entries)
        zero = ring.zero()
        n = len(entries)
        return cls(ring, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenericMatrix):
            return NotImplemented
        return self.ring.name == other.ring.name and self.rows == other.rows

    def __repr__(self) -> str:
        return f"GenericMatrix({self.ring.name}, {[list(r) for r in self.rows]!r})"

    def _same_shape(self, other: "GenericMatrix"):
        if not isinstance(other, GenericMatrix) or other.n != self.n:
            raise ValueError("shape mismatch")
        if other.ring.name != self.ring.name:
            raise ValueError(
                f"ring mismatch: {self.ring.name} vs {other.ring.name}"
            )
        return other

    def __add__(self, other):
        o = self._same_shape(other)
        return GenericMatrix(
            self.ring,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, o.rows)],
        )

    def __sub__(self, other):
        o = self._same_shape(other)
        return GenericMatrix(
            self.ring,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, o.rows)],
        )

    def __neg__(self):
        return GenericMatrix(self.ring, [[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, GenericMatrix):
            return NotImplemented
        o = self._same_shape(other)
        n = self.n
        cols = list(zip(*o.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = row[0] * col[0]
                for a, b in zip(row[1:], col[1:]):
                    acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return GenericMatrix(self.ring, out)

    def __pow__(self, k: int) -> "GenericMatrix":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = GenericMatrix.identity(self.ring, self.n)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c) -> "GenericMatrix":
        """Multiply by a central base-field scalar."""
        s = self.ring.embed(c)
        return GenericMatrix(self.ring, [[s * a for a in row] for row in self.rows])

    def transpose(self) -> "GenericMatrix":
        return GenericMatrix(self.ring, list(zip(*self.rows)))

    def trace(self):
        acc = self.ring.zero()
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def diagonal_entries(self):
        return tuple(self.rows[i][i] for i in range(self.n))

    def is_zero(self) -> bool:
        zero = self.ring.zero()
        return all(a == zero for row in self.rows for a in row)

    def max_deviation(self, other: "GenericMatrix") -> float:
        o = self._same_shape(other)
        mag = self.ring.magnitude
        return max(
            mag(a - b) for ra, rb in zip(self.rows, o.rows) for a, b in zip(ra, rb)
        )

    def max_magnitude(self) -> float:
        mag = self.ring.magnitude
        return max(mag(a) for row in self.rows for a in row)

    def inverse(self) -> "GenericMatrix":
        """Gauss-Jordan inverse via left row operations.

        Exact backends take the first nonzero pivot; float backends the
        largest by magnitude.  Valid over the quaternions because rows are
        only ever left-multiplied by scalar inverses.
        """
        ring, n = self.ring, self.n
        zero, one = ring.zero(), ring.one()
        work = [list(row) + [one if i == j else zero for j in range(n)]
                for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot_row = None
            if ring.exact:
                for r in range(col, n):
                    if work[r][col] != zero:
                        pivot_row = r
                        break
            else:
                best = 0.0
                for r in range(col, n):
                    m = ring.magnitude(work[r][col])
                    if m > best:
                        best, pivot_row = m, r
                if best == 0.0:
                    pivot_row = None
            if pivot_row is None:
                raise SingularMatrixError(col)
            work[col], work[pivot_row] = work[pivot_row], work[col]
            inv_p = ring.inv(work[col][col])
            work[col] = [inv_p * v for v in work[col]]
            for r in range(n):
                if r == col:
                    continue
                factor = work[r][col]
                if factor == zero:
                    continue
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return GenericMatrix(ring, [row[n:] for row in work])


def commutator(a: GenericMatrix, b: GenericMatrix) -> GenericMatrix:
    return a * b - b * a


def _add_central(m: GenericMatrix, c) -> GenericMatrix:
    return m + GenericMatrix.identity(m.ring, m.n).scale(c)


def poly_eval_matrix(p: Polynomial, a: GenericMatrix) -> GenericMatrix:
    """p(a) by Horner's rule; the constant term becomes a scalar matrix."""
    acc = GenericMatrix.identity(a.ring, a.n).scale(p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        acc = _add_central(acc * a, c)
    return acc


def poly_commutator(p: Polynomial, a: GenericMatrix, b: GenericMatrix) -> GenericMatrix:
    """p(ab) - p(ba)."""
    return poly_eval_matrix(p, a * b) - poly_eval_matrix(p, b * a)


def similarity_conjugate(g: GenericMatrix, a: GenericMatrix) -> GenericMatrix:
    """g a g^-1."""
    return g * a * g.inverse()


@dataclass(frozen=True)
class TelescopeReport:
    lhs: GenericMatrix
    rhs: GenericMatrix
    equal: bool
    max_entry_deviation: float


def telescoping_expand(
    p: Polynomial, a: GenericMatrix, b: GenericMatrix, tol: float = 1e-10
) -> TelescopeReport:
    """Compare p(ab) - p(ba) against its telescoped form.

    The identity X^i - Y^i = sum_k X^k (X - Y) Y^(i-1-k) applied to
    X = ab, Y = ba turns the difference into
    sum_i c_i sum_{k=0}^{i-1} (ab)^k (ab - ba) (ba)^(i-1-k),
    which exhibits it as a sum of multiples of the additive commutator.
    Both sides are evaluated independently; equal means exact entrywise
    equality on exact backends and deviation <= tol * (1 + max |lhs|) on
    float backends.
    """
    ab = a * b
    ba = b * a
    diff = ab - ba
    d = p.degree
    rhs = GenericMatrix.zeros(a.ring, a.n)
    if d >= 1:
        pow_ab = [GenericMatrix.identity(a.ring, a.n)]
        pow_ba = [GenericMatrix.identity(a.ring, a.n)]
        for _ in range(d - 1):
            pow_ab.append(pow_ab[-1] * ab)
            pow_ba.append(pow_ba[-1] * ba)
        left = [pw * diff for pw in pow_ab]
        for i in range(1, d + 1):
            c = p.coeffs[i]
            if c == 0:
                continue
            inner = GenericMatrix.zeros(a.ring, a.n)
            for k in range(i):
                inner = inner + left[k] * pow_ba[i - 1 - k]
            rhs = rhs + inner.scale(c)
    lhs = poly_eval_matrix(p, ab) - poly_eval_matrix(p, ba)
    deviation = lhs.max_deviation(rhs)
    if a.ring.exact:
        equal = lhs == rhs
    else:
        equal = deviation <= tol * (1.0 + lhs.max_magnitude())
    return TelescopeReport(lhs, rhs, equal, deviation)
