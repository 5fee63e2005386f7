"""Dense square matrices over pluggable scalar rings.

Backends: exact rationals, complex floats, and quaternions (exact or
float).  Every ring runs the same product and the same inverse, driven
by its multiplication table: entries split into component arrays, a
product is one matmul per pair of components, and an inverse solves the
real (or complex) image chi(m) of the matrix.  Exact rings keep integer
numerators over one common denominator and eliminate fraction-free;
float rings hand the matmuls and the solve to numpy.

A base-field scalar c acts centrally: c * m scales every entry and m + c
adds c to the diagonal, so poly.eval_poly and poly.poly_commutator serve
matrices too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .poly import _EXACT_TYPES, Polynomial, eval_poly, poly_commutator  # noqa: F401
from .quat import Quaternion


class SingularMatrixError(ValueError):
    """The matrix has no inverse; column is the first column in the right
    span of the columns before it."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"matrix is singular (no pivot in column {column})")


# Multiplication table of the basis components: table[p][q] = (r, sign)
# means e_p e_q = sign * e_r.  The scalar rings have one component; the
# quaternions have the basis (1, i, j, k).
_SCALAR_TABLE = (((0, 1),),)
_HAMILTON_TABLE = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)


class ScalarRing:
    """Scalar operations a GenericMatrix needs from its backend."""

    name: str
    exact: bool
    table = _SCALAR_TABLE

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

    def magnitude(self, s) -> float:
        return abs(complex(s))

    def coerce(self, value):
        return complex(value)


class QuaternionAlgebra(ScalarRing):
    table = _HAMILTON_TABLE

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
        return cls.diagonal(ring, [ring.one()] * n)

    @classmethod
    def zeros(cls, ring: ScalarRing, n: int) -> "GenericMatrix":
        return cls.diagonal(ring, [ring.zero()] * n)

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
        if not isinstance(other, GenericMatrix):
            s = self.ring.embed(other)
            return GenericMatrix(self.ring, [[a + s if i == j else a for j, a in enumerate(row)]
                                             for i, row in enumerate(self.rows)])
        o = self._same_shape(other)
        return GenericMatrix(
            self.ring,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, o.rows)],
        )

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GenericMatrix):
            return self + (-other)
        o = self._same_shape(other)
        return GenericMatrix(
            self.ring,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, o.rows)],
        )

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return GenericMatrix(self.ring, [[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, GenericMatrix):
            return self.__rmul__(other)  # a central scalar commutes
        return GenericMatrix(self.ring, _product(self, self._same_shape(other)))

    def __pow__(self, k: int) -> "GenericMatrix":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = GenericMatrix.identity(self.ring, self.n)
        for _ in range(k):
            out = out * self
        return out

    def __rmul__(self, c) -> "GenericMatrix":
        """c * m for a central base-field scalar c: every entry scaled."""
        s = self.ring.embed(c)
        if self.ring is HQ:
            # s is real: scale the components, not a full quaternion product
            return GenericMatrix(self.ring, [
                [Quaternion(*(s.w * x for x in a.components())) for a in row]
                for row in self.rows
            ])
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
        """Inverse, or SingularMatrixError naming the first column j in the
        right span of columns 0 .. j - 1.

        Every ring solves chi(m) X = E for E the unit columns c j of I
        (_chi; c = len(ring.table)): chi(m)^-1 = chi(m^-1), whose column
        c j holds column j of m^-1.  Exact rings run Bareiss elimination
        (_bareiss_solve), float rings np.linalg.solve on finite entries
        (ValueError otherwise).  When LAPACK reports chi(m) singular, the
        error names the smallest j for which columns 0 .. c j + c - 1 of
        chi(m) are rank-deficient (np.linalg.matrix_rank).
        """
        ring, n, c = self.ring, self.n, len(self.ring.table)
        chi, den = _chi(self)
        units = np.eye(c * n, dtype=chi.dtype)[:, ::c]
        if ring.exact:
            x = _bareiss_solve(np.hstack([chi, units]).tolist(), den, c)
        else:
            if not np.isfinite(chi).all():
                raise ValueError("only a matrix with finite entries can be inverted")
            try:
                x = np.linalg.solve(chi, units).tolist()
            except np.linalg.LinAlgError:
                ranks = (np.linalg.matrix_rank(chi[:, :c * j + c]) for j in range(n))
                column = next((j for j, k in enumerate(ranks) if k < c * j + c), n - 1)
                raise SingularMatrixError(column) from None
        flat = [[x[c * i + r][j] for i in range(n) for j in range(n)] for r in range(c)]
        return GenericMatrix(ring, _rows(n, flat))


def _components(m: GenericMatrix):
    """(parts, den): component k of m[i, j] is parts[k][i, j] / den, k
    running over the basis of ring.table.  Exact rings give Python-int
    numerators in object arrays, so integer work on them stays exact and
    needs no gcd; CC gives one complex128 array and HF four float64
    arrays, over den = 1.
    """
    ring, n, count = m.ring, m.n, len(m.ring.table)
    entries = [x.components() if count > 1 else (x,) for row in m.rows for x in row]
    if not ring.exact:
        values = np.array(entries, dtype=float if count > 1 else complex)
        return [values[:, k].reshape(n, n) for k in range(count)], 1
    den = math.lcm(*(c.denominator for e in entries for c in e))
    parts = [np.array([e[k].numerator * (den // e[k].denominator) for e in entries],
                      dtype=object).reshape(n, n) for k in range(count)]
    return parts, den


def _rows(n: int, flat: list) -> list:
    """Rows of entries from row-major lists of their components."""
    entries = flat[0] if len(flat) == 1 else [Quaternion(*q) for q in zip(*flat)]
    return [entries[i * n:(i + 1) * n] for i in range(n)]


def _product(a: GenericMatrix, b: GenericMatrix) -> list:
    """Rows of a * b: component p of a times component q of b adds, with
    the sign the ring's table gives, into component r of the product, one
    matmul for QQ and CC and sixteen for the quaternions.  Exact sums stay
    exact in Python ints; the only gcd normalizes each output component
    over the product of denominators."""
    table = a.ring.table
    a_parts, a_den = _components(a)
    b_parts, b_den = _components(b)
    acc = [0] * len(table)
    for p, row in enumerate(table):
        for q, (r, sign) in enumerate(row):
            prod = a_parts[p] @ b_parts[q]
            acc[r] = acc[r] + prod if sign > 0 else acc[r] - prod
    flat = [c.ravel().tolist() for c in acc]
    if a.ring.exact:
        den = a_den * b_den
        flat = [[Fraction(v, den) for v in c] for c in flat]
    return _rows(a.n, flat)


def _chi(m: GenericMatrix):
    """(chi, den): chi(m) = chi / den is the c n x c n image of m whose
    block (i, j) is left multiplication by m_ij on the components, c =
    len(ring.table) (Zhang, Linear Algebra Appl. 251, 1997).  chi(m) = m
    over QQ and CC, and chi(a b) = chi(a) chi(b)."""
    table, n, c = m.ring.table, m.n, len(m.ring.table)
    parts, den = _components(m)
    chi = np.zeros((n, c, n, c), dtype=parts[0].dtype)
    for p, row in enumerate(table):
        for t, (r, sign) in enumerate(row):
            chi[:, r, :, t] = parts[p] if sign > 0 else -parts[p]
    return chi.reshape(c * n, c * n), den


def _bareiss_solve(work: list, den: int, c: int) -> list:
    """chi(m)^-1 E over an exact ring by fraction-free Gauss-Jordan, for
    work = [den * chi(m) | E] as nested lists of integers.

    Bareiss elimination (Math. Comp. 22, 1968) replaces every other row by
    (pivot * row - factor * pivot row) / previous pivot, an exact integer
    division; the left block ends as det * I, so den / det times the right
    block is the solution.  Pivots are the first nonzero entry of each
    column.  Row operations keep the linear relations among columns, and
    the c rational columns of one quaternion column lie all inside or all
    outside the right span of the earlier ones, so SingularMatrixError
    names the column Gauss-Jordan over the ring would.
    """
    size = len(work)
    prev = 1
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError(col // c)
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot_line = work[col]
        pivot = pivot_line[col]
        for r in range(size):
            if r != col:
                factor = work[r][col]
                work[r] = [(pivot * x - factor * y) // prev
                           for x, y in zip(work[r], pivot_line)]
        prev = pivot
    return [[Fraction(den * v, prev) for v in line[size:]] for line in work]


# bench/tracer.py resolves this and poly_commutator here by name (ROADMAP item 5)
poly_eval_matrix = eval_poly


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
    pow_ab = [GenericMatrix.identity(a.ring, a.n)]
    pow_ba = [GenericMatrix.identity(a.ring, a.n)]
    for _ in range(d - 1):
        pow_ab.append(pow_ab[-1] * ab)
        pow_ba.append(pow_ba[-1] * ba)
    left = [pw * diff for pw in pow_ab[:d]]
    for i in range(1, d + 1):
        c = p.coeffs[i]
        if c == 0:
            continue
        inner = GenericMatrix.zeros(a.ring, a.n)
        for k in range(i):
            inner = inner + left[k] * pow_ba[i - 1 - k]
        rhs = rhs + c * inner
    lhs = eval_poly(p, ab) - eval_poly(p, ba)
    deviation = lhs.max_deviation(rhs)
    if a.ring.exact:
        equal = lhs == rhs
    else:
        equal = deviation <= tol * (1.0 + lhs.max_magnitude())
    return TelescopeReport(lhs, rhs, equal, deviation)
