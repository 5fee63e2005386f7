"""Dense square matrices over pluggable scalar rings.

Backends: exact rationals, complex floats, and quaternions (exact or
float).  Every ring holds a matrix in the same component form (see
GenericMatrix): one array per basis component of the ring, over one
denominator.  Sums, scalar multiples and == run on those arrays.  One
left image chi(m) (_left_image) carries the ring's multiplication: a
product is chi(m) times the other factor's components, and an inverse
solves chi(m), fraction-free on the exact rings and in numpy on the
float ones.

A base-field scalar c acts centrally: c * m scales every entry and m + c
adds c to the diagonal, so poly.eval_poly and poly.poly_difference serve
matrices too.

in_double_range guards every float report (telescoping_expand here, the
norms reports too): one that left the double range is a ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .poly import Polynomial, eval_poly, poly_commutator, poly_difference  # noqa: F401
from .quat import Quaternion


class SingularMatrixError(ValueError):
    """The matrix has no inverse; column is the first column in the right
    span of the columns before it."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"matrix is singular (no pivot in column {column})")


class ScalarRing:
    """What a GenericMatrix needs from its backend: coerce turns a value
    into an entry or raises, is_central tells an entry that commutes with
    every other, and zero, one and embed derive from the two.  A base-field
    scalar c acts on a matrix as embed(c) times the identity."""

    name: str
    exact: bool
    components = 1

    def coerce(self, value):
        raise NotImplementedError

    def is_central(self, s) -> bool:
        return True

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def embed(self, c):
        """Entry of the base-field scalar c: coerce(c), which must be central."""
        if isinstance(c, (list, tuple)):
            raise TypeError(f"{c!r} is not a scalar")
        s = self.coerce(c)
        if not self.is_central(s):
            raise ValueError("only central (real) scalars embed into matrices")
        return s

    def __repr__(self):
        return f"<ring {self.name}>"


class RationalField(ScalarRing):
    name = "rational"
    exact = True

    def coerce(self, value):
        if isinstance(value, float):
            raise ValueError(
                "the rational ring is exact; floats belong to the complex or "
                "quaternion-float backends"
            )
        return value if isinstance(value, Fraction) else Fraction(value)


class ComplexField(ScalarRing):
    name = "complex"
    exact = False

    def coerce(self, value):
        return complex(value)


class QuaternionAlgebra(ScalarRing):
    components = 4  # the basis (1, i, j, k)

    def __init__(self, exact: bool):
        self.exact = exact
        self.name = "quaternion" if exact else "quaternion-float"

    def is_central(self, s) -> bool:
        return s.x == s.y == s.z == 0

    def coerce(self, value):
        if isinstance(value, (int, float, Fraction)):
            parts = (value,)
        elif isinstance(value, Quaternion):
            parts = value.components()
        elif isinstance(value, (list, tuple)) and len(value) == 4:
            parts = value
        else:
            raise TypeError(f"cannot coerce {value!r} to a quaternion")
        if not self.exact:
            return Quaternion.of_floats(*parts)
        if any(isinstance(c, float) for c in parts):
            raise ValueError(
                "the exact quaternion ring takes int or Fraction components; "
                "use the quaternion-float backend for floats"
            )
        return Quaternion.exact(*parts)


QQ = RationalField()
CC = ComplexField()
HQ = QuaternionAlgebra(exact=True)
HF = QuaternionAlgebra(exact=False)

RINGS = {r.name: r for r in (QQ, CC, HQ, HF)}


class GenericMatrix:
    """Immutable square matrix over a ScalarRing, held as (parts, den).

    Component k of entry (i, j) is parts[k, i, j] / den, k < ring.components.
    Exact rings keep Python-int numerators in an object array over a
    positive den in lowest terms, gcd(den, every numerator) = 1: den is then
    the lcm of the entry denominators and the form is unique, so ==
    compares den and the arrays.  CC keeps complex128
    and HF float64 parts, over den = 1.  A matrix built from rows coerces
    each entry (ring.coerce) and keeps only this form; rows, m[i, j] and
    diagonal_entries build Fraction(v, den), exact quaternions (int
    components where integral), float quaternions or Python-number entries
    from the parts on each read.  The parts are never written in place.  The
    one slot written after construction is _inverse, which inverse() fills
    on its first success (a failure is never stored); a matrix derived from
    this one starts without it.
    """

    __slots__ = ("ring", "n", "_parts", "_den", "_inverse")

    def __init__(self, ring: ScalarRing, rows: Sequence[Sequence]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("rows must form a nonempty square matrix")
        parts, den = _pack(ring, [ring.coerce(x) for row in rows for x in row])
        self.ring, self.n, self._parts, self._den = ring, n, parts.reshape(-1, n, n), den
        self._inverse = None

    @classmethod
    def _of_parts(cls, ring: ScalarRing, parts: np.ndarray, den=1) -> "GenericMatrix":
        """The matrix parts / den, reduced to lowest terms on the exact rings."""
        g = math.gcd(den, *parts.flat) if ring.exact and den != 1 else 1
        m = cls.__new__(cls)
        m.ring, m.n = ring, parts.shape[1]
        m._parts, m._den = (parts // g, den // g) if g > 1 else (parts, den)
        m._inverse = None
        return m

    @property
    def rows(self) -> tuple:
        n, entries = self.n, _entries(self.ring, self._parts, self._den)
        return tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))

    def component_form(self):
        """(parts, den) of the class docstring, parts of shape (c, n, n)."""
        return self._parts, self._den

    @classmethod
    def _of_ratios(cls, ring: ScalarRing, rows) -> "GenericMatrix":
        """The matrix over an exact ring of rows of (num, den) pairs of
        integers, den != 0, one pair per entry or one per component: one
        lcm, no ring element built."""
        pairs = np.array(rows, dtype=object)
        dens = pairs[..., 1]
        den = math.lcm(*dens.flat)
        parts = pairs[..., 0] * (den // dens)
        return cls._of_parts(ring, parts.reshape(*parts.shape[:2], -1).transpose(2, 0, 1), den)

    @classmethod
    def identity(cls, ring: ScalarRing, n: int) -> "GenericMatrix":
        """I, written straight into the component form: 1 on the diagonal of
        the real parts, over den 1, in the ring's dtype."""
        if n < 1:
            raise ValueError("rows must form a nonempty square matrix")
        dtype = object if ring.exact else float if ring.components > 1 else complex
        parts = np.zeros((ring.components, n, n), dtype=dtype)
        parts[0, range(n), range(n)] = 1
        return cls._of_parts(ring, parts)

    @classmethod
    def zeros(cls, ring: ScalarRing, n: int) -> "GenericMatrix":
        return cls.diagonal(ring, [ring.zero()] * n)

    @classmethod
    def diagonal(cls, ring: ScalarRing, entries: Iterable) -> "GenericMatrix":
        """The diagonal matrix of the entries, written into the component form."""
        entries = [ring.coerce(v) for v in entries]
        if not entries:
            raise ValueError("rows must form a nonempty square matrix")
        diag, den = _pack(ring, entries)
        n = len(entries)
        parts = np.zeros((len(diag), n, n), dtype=diag.dtype)
        parts[:, range(n), range(n)] = diag
        return cls._of_parts(ring, parts, den)

    def __getitem__(self, ij):
        i, j = ij
        return _entries(self.ring, self._parts[:, i, [j]], self._den)[0]

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
        """m * m' as one matmul on the components: chi(m) @ m' (see
        component_product)."""
        if not isinstance(other, GenericMatrix):
            return self.__rmul__(other)  # a central scalar commutes
        (a, a_den), (b, b_den) = self.component_form(), self._same_shape(other).component_form()
        return GenericMatrix._of_parts(self.ring, component_product(a, b), a_den * b_den)

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
        parts, den = self.component_form()
        return GenericMatrix._of_parts(self.ring, parts.transpose(0, 2, 1), den)

    def trace(self):
        return sum(self.diagonal_entries(), self.ring.zero())

    def diagonal_entries(self):
        """The n diagonal entries, built from the parts of the diagonal alone."""
        return tuple(_entries(self.ring, self._parts.diagonal(0, 1, 2), self._den))

    def is_zero(self) -> bool:
        return bool((self.component_form()[0] == 0).all())

    def max_deviation(self, other: "GenericMatrix") -> float:
        return (self - self._same_shape(other)).max_magnitude()

    def max_magnitude(self) -> float:
        """Largest |entry| as a Python float, the norm on the quaternions: inf
        when one lies beyond the double range, nan when a float entry holds
        one (np.max, unlike max, sees a nan anywhere).  A quaternion's squared
        components are summed over 4^e, e near the exponent of the largest, so
        no square of an in-range component overflows or underflows."""
        parts, den = self.component_form()
        try:
            if len(parts) == 1:
                values = [abs(v) for v in parts[0].ravel().tolist()]
                return max(values) / den if self.ring.exact else float(np.max(values))
            if self.ring.exact:
                top = max((parts * parts).sum(axis=0).flat)
                e = (top.bit_length() + 1) // 2 - den.bit_length()
                top = Fraction(top, den * den) / Fraction(4) ** e
            else:
                e = math.frexp(np.abs(parts).max())[1]
                top = (np.ldexp(parts, -e) ** 2).sum(axis=0).max()
            return math.ldexp(math.sqrt(top), e)
        except OverflowError:
            return math.inf

    def inverse(self) -> "GenericMatrix":
        """Inverse, or SingularMatrixError naming the first column j in the
        right span of columns 0 .. j - 1.

        Every ring solves chi(m) X = E for the c n x c n left image chi(m)
        (_left_image), c = ring.components, and E the unit columns c j of I:
        chi(m)^-1 = chi(m^-1), whose column c j holds column j of m^-1.
        Exact rings run Bareiss elimination (_bareiss_solve), float rings
        np.linalg.solve on finite entries (ValueError otherwise).  When LAPACK reports chi(m) singular, the
        error names the smallest j for which columns 0 .. c j + c - 1 of
        chi(m) are rank-deficient (np.linalg.matrix_rank).

        The first inverse found is kept in the _inverse slot, so every later
        call returns that same matrix without solving again; a matrix with no
        inverse raises on every call.
        """
        if self._inverse is not None:
            return self._inverse
        ring, n, c = self.ring, self.n, self.ring.components
        parts, den = self.component_form()
        chi = _left_image(parts)  # chi(m) = chi / den
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
        self._inverse = GenericMatrix._of_parts(ring, x.reshape(n, c, n).transpose(1, 0, 2), den)
        return self._inverse


_HAMILTON = np.array([[0, 5, 6, 7], [1, 0, 7, 2], [2, 3, 0, 5], [3, 6, 1, 0]])


def _left_image(a: np.ndarray) -> np.ndarray:
    """The (c m) x (c k) left image chi(a) of a component stack a of shape
    (c, m, k) (Zhang, Linear Algebra Appl. 251, 1997): row c i + r, column
    c j + t holds the component r of a_ij e_t, so chi(a) times the stacked
    components of a k-vector v gives those of a v.  For c = 1 it is a[0];
    for the quaternions each entry's block is Hamilton's left
    multiplication, taken from (a, -a) stacked through the index table

        [[0, 5, 6, 7],     [[w, -x, -y, -z],
         [1, 0, 7, 2],  =   [x,  w, -z,  y],
         [2, 3, 0, 5],      [y,  z,  w, -x],
         [3, 6, 1, 0]]      [z, -y,  x,  w]]."""
    if len(a) == 1:
        return a[0]
    _, m, k = a.shape
    blocks = np.concatenate([a, -a])[_HAMILTON]
    return blocks.transpose(2, 0, 3, 1).reshape(4 * m, 4 * k)


def component_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Components of the product of the stacks a (c, m, k) and b (c, k, l):
    chi(a) @ b, with the c components of each row of b stacked under it."""
    c, k, l = b.shape
    if c == 1:
        return (a[0] @ b[0])[np.newaxis]
    out = _left_image(a) @ b.transpose(1, 0, 2).reshape(k * c, l)
    return out.reshape(-1, c, l).transpose(1, 0, 2)


def _pack(ring: ScalarRing, entries: list):
    """(parts, den) with parts / den of shape (c, len(entries)) the components
    of the ring elements entries, den as GenericMatrix's docstring states."""
    c = ring.components
    comps = [x.components() if c > 1 else (x,) for x in entries]
    if ring.exact:
        den = math.lcm(*(v.denominator for e in comps for v in e))
        return np.array([[e[k].numerator * (den // e[k].denominator) for e in comps]
                         for k in range(c)], dtype=object), den
    return np.array(comps, dtype=float if c > 1 else complex).T, 1


def _entries(ring: ScalarRing, parts: np.ndarray, den) -> list:
    """Ring elements of parts / den, flattened in C order over parts[0]:
    Fraction(v, den), Quaternion.exact of those, Quaternion(*q) or Python
    numbers."""
    flat = [[Fraction(v, den) for v in p.flat] if ring.exact else p.ravel().tolist()
            for p in parts]
    make = Quaternion.exact if ring.exact else Quaternion
    return flat[0] if len(flat) == 1 else [make(*q) for q in zip(*flat)]


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


def in_double_range(what: str):
    """Decorator for a function returning a report (a dataclass): the call runs
    with numpy's overflow, underflow and invalid warnings off, and a float
    OverflowError, or a float field of the report that is not finite (other
    fields are not read), becomes ValueError("<function name>: <what>")."""

    def guard(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            try:
                with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                    report = fn(*args, **kwargs)
                if all(math.isfinite(v) for v in vars(report).values() if isinstance(v, float)):
                    return report
            except OverflowError:
                pass
            raise ValueError(f"{fn.__name__}: {what}")

        return checked

    return guard


@dataclass(frozen=True)
class TelescopeReport:
    lhs: GenericMatrix
    rhs: GenericMatrix
    equal: bool
    max_entry_deviation: float


@in_double_range("p(AB) - p(BA) or its telescoped form exceeds the double range"
                 " (about 1.8e308); scale the polynomial or the matrices down")
def telescoping_expand(
    p: Polynomial, a: GenericMatrix, b: GenericMatrix, tol: float = 1e-10
) -> TelescopeReport:
    """Compare p(ab) - p(ba) against its telescoped form.

    The right side is poly_difference(p, ab, ba), the sum of multiples of
    the additive commutator ab - ba.  The left side is Horner's rule at ab
    and at ba for p - c_0, as c_0 cancels exactly in p(ab) - p(ba) and in a
    float ring would only round the rest away.  That makes max(2, 4d - 2)
    matrix products at degree d.  Equal means exact entrywise equality on
    exact backends and deviation <= tol * (1 + max |lhs|) on float backends.
    An inf or nan entry on either side makes the deviation inf or nan, which
    in_double_range refuses.
    """
    ab, ba = a * b, b * a
    rhs = poly_difference(p, ab, ba)
    shifted = Polynomial((0,) + p.coeffs[1:])
    lhs = eval_poly(shifted, ab) - eval_poly(shifted, ba)
    deviation = lhs.max_deviation(rhs)
    if a.ring.exact:
        equal = lhs == rhs
    else:
        equal = deviation <= tol * (1.0 + lhs.max_magnitude())
    return TelescopeReport(lhs, rhs, equal, deviation)
