"""Dense square matrices over pluggable scalar rings.

Backends: exact rationals, complex floats, and quaternions (exact or
float).  Every ring holds a matrix in the same component form (see
GenericMatrix): one array per basis component of the ring's
multiplication table, over one denominator.  Sums, scalar multiples,
products (one matmul per pair of components) and == run on those arrays;
an inverse solves the real (or complex) image chi(m), fraction-free on
the exact rings and in numpy on the float ones.

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

    def is_central(self, s) -> bool:
        return True

    def coerce(self, value):
        raise NotImplementedError

    def __repr__(self):
        return f"<ring {self.name}>"


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

    def is_central(self, s) -> bool:
        return s.im().is_zero()

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
    """Immutable square matrix over a ScalarRing, held as (parts, den).

    Component k of entry (i, j) is parts[k, i, j] / den, k running over the
    basis of ring.table.  Exact rings keep Python-int numerators in an
    object array over a positive den in lowest terms, gcd(den, every
    numerator) = 1: den is then the lcm of the entry denominators and the
    form is unique, so == compares den and the arrays.  CC keeps complex128
    and HF float64 parts, over den = 1.  rows is a view built once, on first
    read, of Fraction(v, den), Quaternion(*q) or Python-number entries; a
    matrix built from rows keeps them and computes its parts at most once.
    Neither is ever written in place.
    """

    __slots__ = ("ring", "n", "_rows", "_parts", "_den")

    def __init__(self, ring: ScalarRing, rows: Sequence[Sequence]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("rows must form a nonempty square matrix")
        self.ring, self.n, self._rows, self._parts, self._den = ring, n, rows, None, 1

    @classmethod
    def _of_parts(cls, ring: ScalarRing, parts: np.ndarray, den=1) -> "GenericMatrix":
        """The matrix parts / den, reduced to lowest terms on the exact rings."""
        g = math.gcd(den, *parts.flat) if ring.exact else 1
        m = cls.__new__(cls)
        m.ring, m.n, m._rows = ring, parts.shape[1], None
        m._parts, m._den = (parts // g, den // g) if g > 1 else (parts, den)
        return m

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            n, entries = self.n, _entries(self.ring, self._parts, self._den)
            self._rows = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))
        return self._rows

    def component_form(self):
        """(parts, den) of the class docstring, parts of shape (c, n, n)."""
        if self._parts is None:
            n, c = self.n, len(self.ring.table)
            entries = [x.components() if c > 1 else (x,) for row in self._rows for x in row]
            if self.ring.exact:
                den = self._den = math.lcm(*(v.denominator for e in entries for v in e))
                parts = np.array([[e[k].numerator * (den // e[k].denominator) for e in entries]
                                  for k in range(c)], dtype=object)
            else:
                parts = np.array(entries, dtype=float if c > 1 else complex).T
            self._parts = parts.reshape(c, n, n)
        return self._parts, self._den

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
        entries = [ring.coerce(v) for v in entries]
        zero = ring.zero()
        n = len(entries)
        return cls(ring, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenericMatrix):
            return NotImplemented
        if self.ring.name != other.ring.name or self.n != other.n:
            return False
        (a, a_den), (b, b_den) = self.component_form(), other.component_form()
        return a_den == b_den and bool((a == b).all())

    def __repr__(self) -> str:
        return f"GenericMatrix({self.ring.name}, {[list(r) for r in self.rows]!r})"

    def _same_shape(self, other: "GenericMatrix"):
        if not isinstance(other, GenericMatrix) or other.n != self.n:
            raise ValueError("shape mismatch")
        if other.ring.name != self.ring.name:
            raise ValueError(f"ring mismatch: {self.ring.name} vs {other.ring.name}")
        return other

    def __add__(self, other):
        """m + m', or m + c for a central base-field scalar c on the diagonal."""
        parts, den = self.component_form()
        if isinstance(other, GenericMatrix):
            o_parts, o_den = self._same_shape(other).component_form()
            total = math.lcm(den, o_den)
            parts = _over(parts, den, total) + _over(o_parts, o_den, total)
            return GenericMatrix._of_parts(self.ring, parts, total)
        num, c_den = _scalar(self.ring, other)
        total = math.lcm(den, c_den)
        parts = _over(parts, den, total).copy()
        diag = np.arange(self.n)
        parts[0, diag, diag] += num * (total // c_den)
        return GenericMatrix._of_parts(self.ring, parts, total)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        parts, den = self.component_form()
        return GenericMatrix._of_parts(self.ring, -parts, den)

    def __mul__(self, other):
        """m * m' by the ring's table: component p of m times component q of
        m' adds, with the table's sign, into component r of the product, one
        matmul for QQ and CC and sixteen for the quaternions."""
        if not isinstance(other, GenericMatrix):
            return self.__rmul__(other)  # a central scalar commutes
        (a, a_den), (b, b_den) = self.component_form(), self._same_shape(other).component_form()
        return GenericMatrix._of_parts(self.ring, table_product(self.ring.table, a, b), a_den * b_den)

    def __pow__(self, k: int) -> "GenericMatrix":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = GenericMatrix.identity(self.ring, self.n)
        for _ in range(k):
            out = out * self
        return out

    def __rmul__(self, c) -> "GenericMatrix":
        """c * m for a central base-field scalar c: every entry scaled."""
        num, c_den = _scalar(self.ring, c)
        parts, den = self.component_form()
        return GenericMatrix._of_parts(self.ring, parts * num, den * c_den)

    def transpose(self) -> "GenericMatrix":
        return GenericMatrix(self.ring, list(zip(*self.rows)))

    def trace(self):
        return sum(self.diagonal_entries(), self.ring.zero())

    def diagonal_entries(self):
        """The n diagonal entries, off rows once built and off parts before."""
        if self._rows is not None:
            return tuple(self._rows[i][i] for i in range(self.n))
        return tuple(_entries(self.ring, self._parts.diagonal(0, 1, 2), self._den))

    def is_zero(self) -> bool:
        return bool((self.component_form()[0] == 0).all())

    def max_deviation(self, other: "GenericMatrix") -> float:
        return (self - self._same_shape(other)).max_magnitude()

    def max_magnitude(self) -> float:
        """Largest |entry|, the norm on the quaternions; inf when an exact
        one lies beyond the double range."""
        parts, den = self.component_form()
        if len(parts) == 1:
            top = max(abs(v) for v in parts[0].ravel().tolist())
        else:
            top, den = max((parts * parts).sum(axis=0).flat), den * den
        try:
            top = top / den
        except OverflowError:
            return math.inf
        return top if len(parts) == 1 else math.sqrt(top)

    def inverse(self) -> "GenericMatrix":
        """Inverse, or SingularMatrixError naming the first column j in the
        right span of columns 0 .. j - 1.

        Every ring solves chi(m) X = E for the c n x c n image chi(m) whose
        block (i, j) is left multiplication by m_ij on the components, c =
        len(ring.table) (Zhang, Linear Algebra Appl. 251, 1997), and E the
        unit columns c j of I: chi(m)^-1 = chi(m^-1), whose column c j
        holds column j of m^-1.  Exact rings run Bareiss elimination
        (_bareiss_solve), float rings np.linalg.solve on finite entries
        (ValueError otherwise).  When LAPACK reports chi(m) singular, the
        error names the smallest j for which columns 0 .. c j + c - 1 of
        chi(m) are rank-deficient (np.linalg.matrix_rank).
        """
        ring, n, c = self.ring, self.n, len(self.ring.table)
        parts, den = self.component_form()
        chi = np.zeros((n, c, n, c), dtype=parts.dtype)
        for p, row in enumerate(ring.table):
            for t, (r, sign) in enumerate(row):
                chi[:, r, :, t] = parts[p] if sign > 0 else -parts[p]
        chi = chi.reshape(c * n, c * n)  # chi(m) = chi / den
        units = np.eye(c * n, dtype=chi.dtype)[:, ::c]
        if ring.exact:
            x, den = _bareiss_solve(np.hstack([chi, units]).tolist(), den, c)
        else:
            if not np.isfinite(chi).all():
                raise ValueError("only a matrix with finite entries can be inverted")
            try:
                x = np.linalg.solve(chi, units)
            except np.linalg.LinAlgError:
                ranks = (np.linalg.matrix_rank(chi[:, :c * j + c]) for j in range(n))
                column = next((j for j, k in enumerate(ranks) if k < c * j + c), n - 1)
                raise SingularMatrixError(column) from None
        # row c i + r of x holds component r of row i of the inverse
        return GenericMatrix._of_parts(ring, x.reshape(n, c, n).transpose(1, 0, 2), den)


def table_product(table, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Components of the product of a and b, two stacks of component arrays
    (shape (c, ...)) multiplied by @: component p of a times component q of
    b adds, with the table's sign, into component r."""
    acc = [0] * len(table)
    for p, row in enumerate(table):
        for q, (r, sign) in enumerate(row):
            prod = a[p] @ b[q]
            acc[r] = acc[r] + prod if sign > 0 else acc[r] - prod
    return np.array(acc)


def _entries(ring: ScalarRing, parts: np.ndarray, den) -> list:
    """Ring elements of parts / den, flattened in C order over parts[0]:
    Fraction(v, den), Quaternion(*q) or Python numbers."""
    flat = [[Fraction(v, den) for v in p.flat] if ring.exact else p.ravel().tolist()
            for p in parts]
    return flat[0] if len(flat) == 1 else [Quaternion(*q) for q in zip(*flat)]


def _scalar(ring: ScalarRing, c):
    """(num, den) with num / den the central base-field scalar c, which
    ring.embed validates; den is 1 on the float rings."""
    s = ring.embed(c)
    if isinstance(s, Quaternion):
        s = s.w
    return (s.numerator, s.denominator) if ring.exact else (s, 1)


def _over(parts: np.ndarray, den, total) -> np.ndarray:
    """Numerators of parts / den over total, a multiple of den."""
    return parts if total == den else parts * (total // den)


def _bareiss_solve(work: list, den: int, c: int):
    """(x, d) with chi(m)^-1 E = x / d and d > 0, over an exact ring by
    fraction-free Gauss-Jordan, for work = [den * chi(m) | E] as nested
    lists of integers.

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
    sign = 1 if prev > 0 else -1
    return np.array([line[size:] for line in work], dtype=object) * (sign * den), sign * prev


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
