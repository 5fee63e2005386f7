"""Realizing prescribed matrices as p(AB) - p(BA).

Pipeline for a zero-diagonal matrix A' = G^-1 A G over an exact backend:
split A' = L - U into strict triangular parts, lift both to triangular
matrices L1 = L + p(D) and U1 = p(D) + U sharing the diagonal p(D) for a
central diagonal D with distinct p-values, diagonalize each by a
unitriangular similarity, and assemble (A1, B1) so that A1 B1 and B1 A1
are similar to D through the two unitriangular factors.  Then
p(A1 B1) - p(B1 A1) = G L1 G^-1 - G U1 G^-1 = A exactly.  Only a given G
is ever inverted: the substitution that builds each unitriangular factor
also gives its inverse, on the integer numerators of the component form.
G is eliminated once, as a GenericMatrix keeps its inverse: the
realization, its verification and a traceless input's reduction share it.
A product on the right by the central diagonal (P diag(t) in the check of
each factor, G2 D in B1) is a column scaling, and p(D) takes the values
the preimage scan computed.  The witness checks four identities, the two
on A1 and B1 multiplied through (A1 == G G1 G2^-1 G^-1 as
A1 G G2 == G G1), distinct diagonal entries of p(D), and the target.

The target is certified on the triangular factors, without p at A1 B1
and B1 A1, the witness's largest entries: for G1 lower and G2 upper
triangular and D a central diagonal, the first two identities make
p(A1 B1) - p(B1 A1) = G (G1 p(D) G1^-1 - G2 p(D) G2^-1) G^-1, so with
M = G^-1 A G the target holds exactly when diag(M) = 0,
(tril(M, -1) + p(D)) G1 = G1 p(D) and (p(D) - triu(M, 1)) G2 = G2 p(D)
(see RealizationWitness.failed_identity).  A decoded witness of other
shapes has its target evaluated directly.

Traceless matrices over the rationals reduce to the zero-diagonal case by
a change of basis along the longest Krylov chain (Fillmore, Amer. Math.
Monthly 76, 1969): a cyclic vector turns A into its companion matrix,
whose diagonal is 0 but for the trace, and a shorter chain recurses on a
smaller traceless block.  So every traceless rational matrix is a
p-commutator for every nonconstant p.  The trace obstruction is the only
one over a field, but not over the quaternions: nonzero_trace_witness
builds diagonal quaternion pairs whose p-commutator has nonzero trace.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .matrix import QQ, HQ, GenericMatrix, component_product
from .poly import Polynomial, eval_poly, poly_difference
from .quat import ONE, QI, QJ, QK, Quaternion, VerificationError
from .sampling import exact_quaternion, probe_like, stream


_M_MAX = 7  # the largest degree algebraic_degree_probe reports


class DegreeNotBoundedError(ArithmeticError):
    """a^0 .. a^m_max are independent: an input above the probe's limit, not a failed check."""

    def __init__(self, m_max: int, pattern: dict):
        self.m_max = m_max
        self.vanish_pattern = pattern
        super().__init__(f"degree > {m_max}, the probe's limit: a^0 .. a^{m_max} are independent")


def pick_distinct_preimages(p: Polynomial, n: int) -> list:
    """First n integers (scan order 0, 1, -1, 2, -2, ...) with pairwise
    distinct values under p.  Each value collides at most deg(p) times, so
    the scan always terminates for nonconstant p."""
    return _distinct_preimages(p, n)[0]


def _integer_coefficients(p: Polynomial):
    """(q, e): p's coefficients, leading first, as the integers q over their
    common denominator e."""
    coeffs = [Fraction(c) for c in p.coeffs]
    e = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (e // c.denominator) for c in reversed(coeffs)], e


def _horner(q, t, f=1):
    """(h, f^m) with q(t / f) = h / f^m for integer coefficients q, leading
    first, of degree m: Horner's rule on integers, t an integer or an
    object array of them."""
    acc, scale = q[0], 1
    for c in q[1:]:
        scale *= f
        acc = acc * t + c * scale
    return acc, scale


def _distinct_preimages(p: Polynomial, n: int):
    """(preimages, values) of pick_distinct_preimages, values[i] = p(preimages[i]).

    The scan runs Horner's rule on integers (_horner), so
    each candidate's value is an integer over e and only the n values kept
    become Fractions."""
    if p.is_constant():
        raise ValueError("constant polynomial has a single value")
    if n < 1:
        raise ValueError("need at least one preimage")
    scaled, e = _integer_coefficients(p)
    found: dict = {}  # each new value times e -> its first preimage, in scan order
    candidate = 0
    step = 0
    while len(found) < n:
        found.setdefault(_horner(scaled, candidate)[0], candidate)
        if candidate > 0:
            candidate = -candidate
        else:
            step += 1
            candidate = step
    return list(found.values()), [Fraction(v, e) for v in found]


@functools.cache
def _wrong_side(n: int, shape: str):
    """Row-major (rows, columns) of the entries that are zero in every n x n
    matrix of the shape: above the diagonal for lower, below it for upper."""
    return np.triu_indices(n, 1) if shape == "lower" else np.tril_indices(n, -1)


def _is_triangular(m: GenericMatrix, shape: str) -> bool:
    rows, cols = _wrong_side(m.n, shape)
    return not np.count_nonzero(m.component_form()[0][:, rows, cols])


def _check_triangular(t: GenericMatrix, shape: str):
    if not t.ring.exact:
        raise ValueError("triangular diagonalization requires an exact backend")
    parts, _ = t.component_form()
    if not _is_triangular(t, shape):
        rows, cols = _wrong_side(t.n, shape)
        k = np.flatnonzero((parts[:, rows, cols] != 0).any(axis=0))[0]
        raise ValueError(f"entry ({rows[k]},{cols[k]}) breaks {shape}-triangular shape")
    diag = parts.diagonal(0, 1, 2)
    bad = np.flatnonzero((diag[1:] != 0).any(axis=0)).tolist()
    if bad:
        raise ValueError(f"diagonal entry {bad[0]} is not central")
    real = diag[0].tolist()
    if len(set(real)) < t.n:
        i, j = next((i, j) for i, j in combinations(range(t.n), 2) if real[i] == real[j])
        raise ValueError(f"diagonal entries {i} and {j} coincide")


def _unitriangular_solve(m: GenericMatrix, shape: str, divide: bool = False) -> GenericMatrix:
    """Unitriangular X (lower or upper, as shape) solving, off the diagonal,
    (m_ii - m_jj) X_ij = -(m_ij + sum of m_ik X_kj over k strictly between),
    the factor being 1 unless divide.  That is t X = X diag(t) for m = t
    (divide, with central distinct diagonal entries), and P X = I for a
    unitriangular m = P.

    Row i of X needs only the rows between it and the diagonal: it is minus
    row i of m times the block of X already filled, divided entrywise by
    the gaps m_ii - m_jj.  The rows fill in on integer numerators over one
    denominator, which each row rescales by the lcm of its gaps (m's own
    denominator cancels from them); _of_parts reduces the result once."""
    ring, n = m.ring, m.n
    parts, den = m.component_form()
    x, x_den = np.zeros_like(parts), 1
    x[0, np.arange(n), np.arange(n)] = 1
    for i in range(1, n) if shape == "lower" else range(n - 2, -1, -1):
        block = slice(0, i) if shape == "lower" else slice(i + 1, n)
        s = component_product(parts[:, i:i + 1, block], x[:, block, block])[:, 0]
        if divide:
            gaps = [parts[0, i, i] - parts[0, j, j] for j in range(n)[block]]
            scale = math.lcm(*gaps)
            x, x_den = x * scale, x_den * scale
            x[:, i, block] = -s * np.array([scale // g for g in gaps], dtype=object)
        else:
            x, x_den = x * den, x_den * den
            x[:, i, block] = -s
    return GenericMatrix._of_parts(ring, x, x_den)


def _substitute(t: GenericMatrix, shape: str) -> GenericMatrix:
    """Unitriangular P (same shape as t) solving t P = P diag(t)."""
    return _unitriangular_solve(t, shape, divide=True)


def _times_diagonal(m: GenericMatrix, t: GenericMatrix) -> GenericMatrix:
    """m diag(t) for a t with central diagonal entries (the rest of t is not
    read): column j of m's component form scaled by the numerator of t_jj,
    over the product of the two denominators."""
    parts, den = m.component_form()
    t_parts, t_den = t.component_form()
    return GenericMatrix._of_parts(m.ring, parts * t_parts[0].diagonal(), den * t_den)


def triangular_diagonalize(t: GenericMatrix, shape: str) -> GenericMatrix:
    """Unitriangular P (same shape as t) with P^-1 t P = diag(t).

    Needs central, pairwise distinct diagonal entries.  P comes from a
    forward substitution and is checked as t P = P diag(t), which for the
    invertible (unitriangular) P is the same identity without an inverse;
    P diag(t) is a column scaling of P.
    """
    if shape not in ("lower", "upper"):
        raise ValueError("shape must be 'lower' or 'upper'")
    _check_triangular(t, shape)
    p = _substitute(t, shape)
    if t * p != _times_diagonal(p, t):
        raise VerificationError("triangular diagonalization failed to verify")
    return p


def _lifts(a_prime: GenericMatrix, p_diag: GenericMatrix):
    """(L1, U1) = (tril(a', -1) + p(D), p(D) - triu(a', 1)), the lower and
    upper triangular matrices with L1 - U1 = a' for a zero-diagonal a' and
    a diagonal p(D), each assembled over the lcm of the two denominators."""
    (parts, den), (diag, d_den) = a_prime.component_form(), p_diag.component_form()
    total = math.lcm(den, d_den)
    parts, diag = parts * (total // den), diag * (total // d_den)
    return (GenericMatrix._of_parts(a_prime.ring, np.tril(parts, -1) + diag, total),
            GenericMatrix._of_parts(a_prime.ring, diag - np.triu(parts, 1), total))


def _is_unitriangular(m: GenericMatrix) -> bool:
    """Unit diagonal and one strict triangle zero: invertible by its shape."""
    parts, den = m.component_form()
    diag = parts.diagonal(0, 1, 2)
    if (diag[0] != den).any() or np.count_nonzero(diag[1:]):
        return False
    return _is_triangular(m, "lower") or _is_triangular(m, "upper")


def _is_identity(m: GenericMatrix) -> bool:
    """m == I, read off the component form: over den 1, exactly n nonzero
    numerators, the real parts of the diagonal, all 1."""
    parts, den = m.component_form()
    return den == 1 and np.count_nonzero(parts) == m.n and bool((parts[0].diagonal() == 1).all())


def _nonzero_diagonal(m: GenericMatrix):
    """Index of the first nonzero diagonal entry of m, or None."""
    diag = m.component_form()[0].diagonal(0, 1, 2)
    if not np.count_nonzero(diag):
        return None
    return int(np.flatnonzero((diag != 0).any(axis=0))[0])


def _eval_on_diagonal(p: Polynomial, d: GenericMatrix) -> GenericMatrix:
    """eval_poly(p, d) for an exact p and a central diagonal d, by Horner's
    rule on integers (_horner) at d's diagonal numerators over their
    denominator."""
    q, e = _integer_coefficients(p)
    parts, f = d.component_form()
    acc, scale = _horner(q, parts[0].diagonal(), f)
    out = np.zeros_like(parts)
    out[0, range(d.n), range(d.n)] = acc
    return GenericMatrix._of_parts(d.ring, out, e * scale)


@dataclass(frozen=True)
class RealizationWitness:
    """Matrices realizing target = p(a1 b1) - p(b1 a1).

    g conjugates the zero-diagonal core, g1 and g2 are the unitriangular
    similarities, d the central diagonal.  verify() recomputes four
    identities exactly: a1 and b1 in terms of g, g1, g2 and d, distinct
    diagonal entries of p(d), and the target itself.  The first two are
    checked multiplied through, so g1 and g2 are certified invertible by
    their unitriangular shape and g needs one inverse unless it is the
    identity; the target is certified on the triangular factors when
    their shapes allow it.  failed_identity() names the first identity
    that fails.
    """

    p: Polynomial
    a1: GenericMatrix
    b1: GenericMatrix
    g: GenericMatrix
    g1: GenericMatrix
    g2: GenericMatrix
    d: GenericMatrix
    target: GenericMatrix

    def verify(self) -> bool:
        return self.failed_identity() is None

    def _certifiable(self) -> bool:
        """An exact p, one exact ring and size for all seven matrices, g1
        lower and g2 upper triangular, d a central diagonal (its nonzero
        numerators all real parts of diagonal entries)."""
        ring, n, d = self.a1.ring, self.a1.n, self.d.component_form()[0]
        same = all(m.ring.name == ring.name and m.n == n
                   for m in (self.b1, self.g, self.g1, self.g2, self.d, self.target))
        return (same and ring.exact and self.p.is_exact() and _is_triangular(self.g1, "lower")
                and _is_triangular(self.g2, "upper")
                and np.count_nonzero(d) == np.count_nonzero(d[0].diagonal()))

    def failed_identity(self) -> str | None:
        """Name of the first of the four identities that fails, or None.

        The identities on a1 and b1, X == Y Z^-1, are checked multiplied
        through, as X Z == Y (in the comment after each name), the same
        identity once g, g1 and g2 are invertible.  That is certified first,
        in this order: an identity g and a unitriangular g1 or g2 by their
        entries in O(n^2) comparisons, any other by one inverse, which
        raises SingularMatrixError if there is none.  Together they make
        a1 b1 = (g g1) d (g g1)^-1 and b1 a1 = (g g2) d (g g2)^-1, so
        p(a1 b1) - p(b1 a1) = g (g1 p(d) g1^-1 - g2 p(d) g2^-1) g^-1.

        The target is then certified without p(a1 b1) or p(b1 a1) when g1
        is lower triangular, g2 upper triangular and d a central diagonal,
        and p is exact (_certifiable reads that off the entries).  Then
        g1 p(d) g1^-1 is lower and g2 p(d) g2^-1 upper triangular, both with
        diagonal p(d), so with M = g^-1 target g (the inverse certified
        above; M = target for an identity g) the target identity holds
        exactly when diag(M) = 0, (tril(M, -1) + p(d)) g1 = g1 p(d) and
        (p(d) - triu(M, 1)) g2 = g2 p(d).  The right sides and g g2 d are
        column scalings, and p(d) is Horner's rule on d's diagonal.  Other
        witnesses, such as one re-based as (g S, S^-1 g1, S^-1 g2), get
        p(a1 b1) - p(b1 a1) evaluated.
        """
        trivial_g = _is_identity(self.g)
        g_inv = None if trivial_g else self.g.inverse()
        for m in (self.g1, self.g2):
            if not _is_unitriangular(m):
                m.inverse()
        certified = self._certifiable()
        gg1 = self.g1 if trivial_g else self.g * self.g1
        gg2 = self.g2 if trivial_g else self.g * self.g2
        if self.a1 * gg2 != gg1:  # a1 (g g2) == g g1
            return "a1 == g g1 g2^-1 g^-1"
        gg2_d = _times_diagonal(gg2, self.d) if certified else gg2 * self.d
        if self.b1 * gg1 != gg2_d:  # b1 (g g1) == g g2 d
            return "b1 == g g2 d g1^-1 g^-1"
        p_d = (_eval_on_diagonal if certified else eval_poly)(self.p, self.d)
        if any(x == y for x, y in combinations(p_d.diagonal_entries(), 2)):
            return "p(d) has pairwise distinct diagonal entries"
        if certified:
            m = self.target if trivial_g else g_inv * self.target * self.g
            held = _nonzero_diagonal(m) is None and all(
                t * f == _times_diagonal(f, p_d) for t, f in zip(_lifts(m, p_d), (self.g1, self.g2))
            )
        else:
            held = poly_difference(self.p, self.a1 * self.b1, self.b1 * self.a1) == self.target
        return None if held else "p(a1 b1) - p(b1 a1) == target"


def realize_zero_diagonal(
    p: Polynomial, a: GenericMatrix, g: GenericMatrix | None = None
) -> RealizationWitness:
    """Witness for a = p(A1 B1) - p(B1 A1), where g^-1 a g has zero diagonal.

    g defaults to the identity, i.e. a itself has zero diagonal.  Exact
    backends only; the witness's four identities are verified exactly
    before returning.
    """
    return _realize(p, a, g)


def _realize(p: Polynomial, a: GenericMatrix, g, a_prime=None) -> RealizationWitness:
    """realize_zero_diagonal, given a checked a_prime = g^-1 a g if known."""
    if p.is_constant():
        raise ValueError("polynomial must be nonconstant")
    if not a.ring.exact:
        raise ValueError("realization requires an exact backend")
    if a.n < 2:
        raise ValueError("need size at least 2")
    ring = a.ring
    g_inv = None if g is None else g.inverse()
    if a_prime is None:
        a_prime = a if g is None else g_inv * a * g
        i = _nonzero_diagonal(a_prime)
        if i is not None:
            raise ValueError(f"conjugated matrix has nonzero diagonal entry at {i}")

    alphas, values = _distinct_preimages(p, a.n)
    d = GenericMatrix.diagonal(ring, alphas)
    p_diag = GenericMatrix.diagonal(ring, values)
    l1, u1 = _lifts(a_prime, p_diag)
    g1 = triangular_diagonalize(l1, "lower")
    g2 = triangular_diagonalize(u1, "upper")
    a1 = g1 * _unitriangular_solve(g2, "upper")
    b1 = _times_diagonal(g2, d) * _unitriangular_solve(g1, "lower")
    if g is None:
        g = GenericMatrix.identity(ring, a.n)
    else:
        a1, b1 = g * a1 * g_inv, g * b1 * g_inv
    witness = RealizationWitness(p, a1, b1, g, g1, g2, d, a)
    if not witness.verify():
        raise VerificationError(
            f"realization witness failed exact verification: {witness.failed_identity()}"
        )
    return witness


def _moving_vector(a: GenericMatrix):
    """Integer vector v with A v outside span(v); None only for scalar
    matrices.

    Standard basis vectors are tried first (one works unless A is
    diagonal), then pairwise sums (which separate distinct diagonal
    entries)."""
    n, m = a.n, a.component_form()[0][0]
    for c in range(n):
        if any(r != c and m[r, c] for r in range(n)):
            return [int(idx == c) for idx in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if m[i, i] != m[j, j]:
                return [int(idx in (i, j)) for idx in range(n)]
    return None


def _zero_diag_change(a: GenericMatrix) -> GenericMatrix:
    """P with P^-1 A P of zero diagonal for a traceless A: the Krylov chain
    v, A v, .., A^(k-1) v from _moving_vector's v while it stays
    independent, each column divided by its content, completed greedily by
    e_0, e_1, ...  A takes each chain column to a multiple of the next, so
    the first k - 1 diagonal entries vanish.  A cyclic v (k = n) leaves a
    diagonal similarity of A's companion matrix, whose last diagonal entry
    is the trace, 0.  A shorter chain spans an invariant subspace, so the block
    from index k - 1 on is traceless, of size n - k + 1 < n (k >= 2), and
    its own change Q gives P diag(I_(k-1), Q)."""
    n = a.n
    if a.is_zero():
        return GenericMatrix.identity(a.ring, n)
    v = _moving_vector(a)
    if v is None:
        # scalar and traceless over a char-0 field means zero, handled above
        raise ValueError("matrix is a nonzero scalar; it cannot be traceless")
    m = a.component_form()[0][0]
    rows, cols = [], []
    while len(cols) < n and _reduce(rows, v, []) is None:
        cols.append(v)
        w = (m @ np.array(v, dtype=object)).tolist()
        v = [x // (math.gcd(*w) or 1) for x in w]
    k = len(cols)
    cols += [e for e in np.eye(n, dtype=int).tolist() if k < n and _reduce(rows, e, []) is None]
    p = GenericMatrix._of_parts(a.ring, np.array(cols, dtype=object).T[np.newaxis])
    if k == n:
        return p
    parts, den = (p.inverse() * a * p).component_form()
    q, q_den = _zero_diag_change(
        GenericMatrix._of_parts(a.ring, parts[:, k - 1:, k - 1:], den)).component_form()
    block = np.identity(n, dtype=object)[np.newaxis] * q_den  # diag(I_(k-1), Q)
    block[:, k - 1:, k - 1:] = q
    return p * GenericMatrix._of_parts(a.ring, block, q_den)


def traceless_to_zero_diagonal(a: GenericMatrix):
    """Change of basis (P, A') with A' = P^-1 A P of zero diagonal.

    Works over the rational backend for traceless input.  Some vector v
    moves off its own line (else the matrix is scalar, hence zero by
    tracelessness in characteristic 0), and P starts with its Krylov
    chain v, A v, .. (_zero_diag_change): for a cyclic v, A' is a diagonal
    similarity of A's companion matrix, whose one possibly nonzero
    diagonal entry is the trace; a shorter chain recurses on the traceless
    trailing block.  P is inverted here, its one elimination (a shorter
    chain adds one per level).
    """
    if a.ring is not QQ:
        raise ValueError("traceless reduction runs on the rational backend")
    if a.trace() != 0:
        raise ValueError("matrix must be traceless")
    p = _zero_diag_change(a)
    a_prime = p.inverse() * a * p
    if _nonzero_diagonal(a_prime) is not None:
        raise VerificationError("zero-diagonal reduction failed")
    return p, a_prime


def realize_traceless(p: Polynomial, a: GenericMatrix) -> RealizationWitness:
    """Witness for a traceless rational matrix as p(A1 B1) - p(B1 A1),
    through the change of basis P and the A' = P^-1 A P it checked."""
    change, a_prime = traceless_to_zero_diagonal(a)
    return _realize(p, a, change, a_prime)


_TRACE_CANDIDATES = (
    (QI, QJ),
    (QI, QI + QJ),
    (QJ, QK),
    (QI + QJ, QK),
    (ONE + QI, ONE + QJ),
    (ONE + 2 * QI, ONE + 2 * QJ),
)


def nonzero_trace_witness(p: Polynomial, n: int, seed: int = 0, attempts: int = 200):
    """Quaternion diagonal pair (a, b) with trace(p(ab) - p(ba)) != 0, and
    that trace: (a, b, trace).

    a = diag(1, .., 1, alpha) and b = diag(1, .., 1, beta) leave the trace
    equal to p(alpha beta) - p(beta alpha); fixed candidates are scanned
    first, then seeded random rational quaternions.  The trace of the n x n
    p(ab) - p(ba) is checked against that difference before returning.
    """
    if p.is_constant():
        raise ValueError("polynomial must be nonconstant")
    if n < 2:
        raise ValueError("need size at least 2")
    rng = stream(seed, "trace-witness")
    draws = ((exact_quaternion(rng), exact_quaternion(rng)) for _ in range(attempts))
    for alpha, beta in chain(_TRACE_CANDIDATES, draws):
        delta = poly_difference(p, alpha * beta, beta * alpha)
        if delta.is_zero():
            continue
        a = GenericMatrix.diagonal(HQ, [1] * (n - 1) + [alpha])
        b = GenericMatrix.diagonal(HQ, [1] * (n - 1) + [beta])
        trace = poly_difference(p, a * b, b * a).trace()
        if trace != delta:
            raise VerificationError("diagonal trace identity failed")
        return a, b, trace
    raise VerificationError(
        f"no trace witness found after {len(_TRACE_CANDIDATES)} fixed and "
        f"{attempts} random candidates"
    )


def _is_zero_element(x) -> bool:
    if isinstance(x, (GenericMatrix, Quaternion)):
        return x.is_zero()
    return x == 0


def algebraicity_polynomial(y0, probes: Sequence):
    """Alternating permutation sum detecting algebraicity.

    With m probes r_1..r_m the sum runs over all permutations d of
    {0..m}: sign(d) y0^d(0) r_1 y0^d(1) ... r_m y0^d(m).  It vanishes for
    every probe choice exactly when y0 is algebraic of degree <= m over
    the centre, so a single nonzero evaluation certifies degree > m.

    Evaluated by dynamic programming over subsets (Nisan's construction
    for the noncommutative determinant): partial[S] is the signed sum over
    the orderings of the exponent set S placed in positions 0..|S|-1.
    Appending exponent e after S multiplies by r_|S| and y0^e, and flips
    the sign once per element of S greater than e.  That costs about
    2^(m+1) (m+1) products instead of (m+1)! (2m+1).

    The m powers of y0 are products in y0's own type.  On matrices (probes
    of y0's ring and size) the recursion multiplies the integer numerators
    of the component forms by component_product: every term of partial[S]
    holds y0^e for each e in S and r_1 .. r_(|S| - 1) once, so all share one
    denominator and sum as numerators, reduced once at the end over the
    product of the 2m + 1 denominators.  A scalar (int, Fraction or
    Quaternion) runs the same recursion with its own products and sums.
    """
    m = len(probes)
    if m < 1:
        raise ValueError("need at least one probe")
    if m > 8:
        raise ValueError("probe count above 8 is not supported")
    powers = [y0**0]
    for _ in range(m):
        powers.append(powers[-1] * y0)
    mul, den = operator.mul, None
    if isinstance(y0, GenericMatrix):
        forms = [x.component_form() for x in powers + [y0._same_shape(r) for r in probes]]
        den = math.prod(d for _, d in forms)
        powers, probes = [p for p, _ in forms[:m + 1]], [p for p, _ in forms[m + 1:]]
        mul = component_product
    full = (1 << (m + 1)) - 1
    partial = {1 << e: powers[e] for e in range(m + 1)}
    # every subset is larger than those it extends, so counting up finishes
    # each partial[S] before it is extended
    for subset in range(1, full):
        prefix = mul(partial.pop(subset), probes[subset.bit_count() - 1])
        for e in range(m + 1):
            if subset >> e & 1:
                continue
            term = mul(prefix, powers[e]) if e else prefix
            if (subset >> (e + 1)).bit_count() % 2:
                term = -term
            grown = subset | 1 << e
            partial[grown] = partial[grown] + term if grown in partial else term
    return partial[full] if den is None else GenericMatrix._of_parts(y0.ring, partial[full], den)


@dataclass(frozen=True)
class DegreeProbeResult:
    """Exact algebraic degree of an element over the centre (the rationals).

    vanish_pattern[m] says whether the algebraicity sum with m probes
    vanishes identically: true only at m = estimated_degree.  annihilator
    is the monic q of that degree with q(a) = 0, which proves vanishing
    there; lower_probes are probes whose sum at level estimated_degree - 1
    is nonzero, which refutes it at every lower level (empty at degree 1).
    """

    estimated_degree: int
    trials_per_degree: int
    vanish_pattern: dict
    annihilator: Polynomial | None = None
    lower_probes: tuple = ()


def _coordinates(x):
    """(coords, den): x's coordinates over a basis of its algebra as a
    rational vector space are the integers coords over den > 0.

    An int or Fraction is its own coordinate and an exact quaternion has its
    four components, both read off directly; a matrix lists its entries'
    coordinates row by row (n^2 of them over the rationals, 4 n^2 over the
    exact quaternions), read off its component form.
    """
    if isinstance(x, Quaternion) and x.is_exact() or isinstance(x, (int, Fraction)):
        parts = x.components() if isinstance(x, Quaternion) else (x,)
        den = math.lcm(*(c.denominator for c in parts))
        return [c.numerator * (den // c.denominator) for c in parts], den
    if not isinstance(x, GenericMatrix):
        raise ValueError(
            "the degree probe needs an exact element: an int, a Fraction, an exact "
            "quaternion or a rational or exact-quaternion matrix"
        )
    if not x.ring.exact:
        raise ValueError(f"the degree probe needs an exact backend, not {x.ring.name}")
    parts, den = x.component_form()
    return parts.transpose(1, 2, 0).ravel().tolist(), den


def _reduce(rows: list, work: list, combo: list):
    """Fraction-free reduction of the integer vector work, which equals the
    integer combination combo of the inputs, against rows, the kept
    (pivot, row, combination) triples.  A nonzero result is kept, divided
    by its content, and gives None; a zero one returns its combo."""
    for pivot, row, row_combo in rows:
        f = work[pivot]
        if f:
            g = row[pivot]
            work = [g * w - f * r for w, r in zip(work, row)]
            combo = [g * c - f * rc for c, rc in zip(combo, row_combo)]
    pivot = next((idx for idx, w in enumerate(work) if w), None)
    if pivot is None:
        return combo
    content = math.gcd(*work, *combo)
    rows.append((pivot, [w // content for w in work], [c // content for c in combo]))
    return None


def _annihilator(a):
    """Powers a^0..a^d and the coefficients of the monic q of least degree d
    with q(a) = 0, constant first.

    Each power's coordinates, scaled to integers, are reduced against those
    of the earlier powers (_reduce), carrying the combination of the powers
    each equals, so the first power that reduces to zero gives the
    dependence, and thus q, directly.  Raises DegreeNotBoundedError when
    a^0..a^_M_MAX are independent.
    """
    powers = [a**0]
    rows: list = []
    for k in range(_M_MAX + 1):
        if k:
            powers.append(powers[-1] * a)
        work, den = _coordinates(powers[k])
        combo = [0] * (_M_MAX + 1)
        combo[k] = den
        combo = _reduce(rows, work, combo)
        if combo is not None:
            # sum combo[j] a^j = 0, and combo[k] is den times nonzero pivots
            return powers, [Fraction(c, combo[k]) for c in combo[: k + 1]]
    raise DegreeNotBoundedError(_M_MAX, {m: False for m in range(1, _M_MAX + 1)})


def algebraic_degree_probe(a, trials: int = 8, seed: int = 0) -> DegreeProbeResult:
    """Exact algebraic degree d <= 7 (_M_MAX) of an exact element over the centre.

    The algebraicity sum with m probes vanishes identically exactly when the
    degree is at most m.  The upper side is exact: the first linear
    dependence among a^0, a^1, .. gives the monic annihilator q of least
    degree d, rechecked as q(a) == 0 from the powers.  The lower side is one
    random witness: probes whose sum at level d - 1 is nonzero, drawn for
    at most `trials` trials; if every trial vanishes the two sides disagree
    and VerificationError names the level.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    powers, q = _annihilator(a)
    d = len(q) - 1
    residue = powers[d]
    for c, power in zip(q[:d], powers):
        if c:
            residue = residue + c * power
    if not _is_zero_element(residue):
        raise VerificationError(
            f"the annihilating polynomial of degree {d} does not vanish on the input"
        )
    lower: tuple = ()
    if d >= 2:
        rng = stream(seed, "degree-probe")
        for _ in range(trials):
            probes = tuple(probe_like(rng, a) for _ in range(d - 1))
            if not _is_zero_element(algebraicity_polynomial(a, probes)):
                lower = probes
                break
        else:
            raise VerificationError(
                f"the algebraicity sum at level {d - 1} vanished on all {trials} "
                f"trials, but the least annihilating polynomial has degree {d}"
            )
    pattern = {m: m == d for m in range(1, d + 1)}
    return DegreeProbeResult(d, trials, pattern, Polynomial(q), lower)
