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
The witness checks four identities, the two on A1 and B1 multiplied
through (A1 == G G1 G2^-1 G^-1 as A1 G G2 == G G1), distinct diagonal
entries of p(D), and the target.

Traceless matrices over the rationals reduce to the zero-diagonal case by
a recursive change of basis, so every traceless rational matrix is a
p-commutator for every nonconstant p.  The trace obstruction is the only
one over a field, but not over the quaternions: nonzero_trace_witness
builds diagonal quaternion pairs whose p-commutator has nonzero trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .matrix import QQ, HQ, GenericMatrix, table_product
from .poly import Polynomial, eval_poly, poly_commutator
from .quat import ONE, QI, QJ, QK, Quaternion, VerificationError
from .sampling import probe_like, stream


class DegreeNotBoundedError(ArithmeticError):
    """Probe exhausted every degree level without finding vanishing."""

    def __init__(self, m_max: int, pattern: dict):
        self.m_max = m_max
        self.vanish_pattern = pattern
        super().__init__(f"degree > {m_max}: no level vanished")


def pick_distinct_preimages(p: Polynomial, n: int) -> list:
    """First n integers (scan order 0, 1, -1, 2, -2, ...) with pairwise
    distinct values under p.  Each value collides at most deg(p) times, so
    the scan always terminates for nonconstant p."""
    if p.is_constant():
        raise ValueError("constant polynomial has a single value")
    if n < 1:
        raise ValueError("need at least one preimage")
    chosen: list = []
    seen = set()
    candidate = 0
    step = 0
    while len(chosen) < n:
        val = eval_poly(p, candidate)
        if val not in seen:
            seen.add(val)
            chosen.append(candidate)
        if candidate > 0:
            candidate = -candidate
        else:
            step += 1
            candidate = step
    return chosen


def _check_triangular(t: GenericMatrix, shape: str):
    if not t.ring.exact:
        raise ValueError("triangular diagonalization requires an exact backend")
    parts, _ = t.component_form()
    wrong_side = np.triu(parts, 1) if shape == "lower" else np.tril(parts, -1)
    bad = np.argwhere((wrong_side != 0).any(axis=0)).tolist()
    if bad:
        i, j = bad[0]
        raise ValueError(f"entry ({i},{j}) breaks {shape}-triangular shape")
    diag = parts.diagonal(0, 1, 2)
    bad = np.flatnonzero((diag[1:] != 0).any(axis=0)).tolist()
    if bad:
        raise ValueError(f"diagonal entry {bad[0]} is not central")
    real = diag[0].tolist()
    for i, j in combinations(range(t.n), 2):
        if real[i] == real[j]:
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
    denominator cancels from them) and reduces by one gcd."""
    ring, n = m.ring, m.n
    parts, den = m.component_form()
    x, x_den = np.zeros_like(parts), 1
    x[0, np.arange(n), np.arange(n)] = 1
    for i in range(1, n) if shape == "lower" else range(n - 2, -1, -1):
        block = slice(0, i) if shape == "lower" else slice(i + 1, n)
        s = table_product(ring.table, parts[:, i:i + 1, block], x[:, block, block])[:, 0]
        if divide:
            gaps = [parts[0, i, i] - parts[0, j, j] for j in range(n)[block]]
            scale = math.lcm(*gaps)
            x, x_den = x * scale, x_den * scale
            x[:, i, block] = -s * np.array([scale // g for g in gaps], dtype=object)
        else:
            x, x_den = x * den, x_den * den
            x[:, i, block] = -s
        g = math.gcd(x_den, *x.flat)
        x, x_den = x // g, x_den // g
    return GenericMatrix._of_parts(ring, x, x_den)


def _substitute(t: GenericMatrix, shape: str) -> GenericMatrix:
    """Unitriangular P (same shape as t) solving t P = P diag(t)."""
    return _unitriangular_solve(t, shape, divide=True)


def triangular_diagonalize(t: GenericMatrix, shape: str) -> GenericMatrix:
    """Unitriangular P (same shape as t) with P^-1 t P = diag(t).

    Needs central, pairwise distinct diagonal entries.  P comes from a
    forward substitution and is checked as t P = P diag(t), which for the
    invertible (unitriangular) P is the same identity without an inverse.
    """
    if shape not in ("lower", "upper"):
        raise ValueError("shape must be 'lower' or 'upper'")
    _check_triangular(t, shape)
    p = _substitute(t, shape)
    if t * p != p * GenericMatrix.diagonal(t.ring, t.diagonal_entries()):
        raise VerificationError("triangular diagonalization failed to verify")
    return p


def _strict_parts(m: GenericMatrix):
    parts, den = m.component_form()
    return (GenericMatrix._of_parts(m.ring, np.tril(parts, -1), den),
            GenericMatrix._of_parts(m.ring, np.triu(parts, 1), den))


def _is_unitriangular(m: GenericMatrix) -> bool:
    """Unit diagonal and one strict triangle zero: invertible by its shape."""
    parts, den = m.component_form()
    diag = parts.diagonal(0, 1, 2)
    if (diag[0] != den).any() or (diag[1:] != 0).any():
        return False
    return not np.tril(parts, -1).any() or not np.triu(parts, 1).any()


def _nonzero_diagonal(m: GenericMatrix):
    """Index of the first nonzero diagonal entry of m, or None."""
    diag = m.component_form()[0].diagonal(0, 1, 2)
    bad = np.flatnonzero((diag != 0).any(axis=0)).tolist()
    return bad[0] if bad else None


@dataclass(frozen=True)
class RealizationWitness:
    """Matrices realizing target = p(a1 b1) - p(b1 a1).

    g conjugates the zero-diagonal core, g1 and g2 are the unitriangular
    similarities, d the central diagonal.  verify() recomputes four
    identities exactly: a1 and b1 in terms of g, g1, g2 and d, distinct
    diagonal entries of p(d), and the target itself.  The first two are
    checked multiplied through, so g1 and g2 are certified invertible by
    their unitriangular shape and g needs one inverse unless it is the
    identity; failed_identity() names the first identity that fails.
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

    def failed_identity(self) -> str | None:
        """Name of the first of the four identities that fails, or None.

        The identities on a1 and b1, X == Y Z^-1, are checked multiplied
        through, as X Z == Y (in the comment after each name), the same
        identity once g, g1 and g2 are invertible.  That is certified first,
        in this order: an identity g and a unitriangular g1 or g2 by their
        entries in O(n^2) comparisons, any other by one inverse, which
        raises SingularMatrixError if there is none.  Together they make
        a1 b1 and b1 a1 similar to d through g g1 and g g2, so p(a1 b1) and
        p(b1 a1) are similar to p(d) and need no check of their own.
        """
        trivial_g = self.g == GenericMatrix.identity(self.g.ring, self.g.n)
        if not trivial_g:
            self.g.inverse()
        for m in (self.g1, self.g2):
            if not _is_unitriangular(m):
                m.inverse()
        gg1 = self.g1 if trivial_g else self.g * self.g1
        gg2 = self.g2 if trivial_g else self.g * self.g2
        if self.a1 * gg2 != gg1:  # a1 (g g2) == g g1
            return "a1 == g g1 g2^-1 g^-1"
        if self.b1 * gg1 != gg2 * self.d:  # b1 (g g1) == g g2 d
            return "b1 == g g2 d g1^-1 g^-1"
        vals = eval_poly(self.p, self.d).diagonal_entries()
        if any(x == y for x, y in combinations(vals, 2)):
            return "p(d) has pairwise distinct diagonal entries"
        if poly_commutator(self.p, self.a1, self.b1) != self.target:
            return "p(a1 b1) - p(b1 a1) == target"
        return None


def realize_zero_diagonal(
    p: Polynomial, a: GenericMatrix, g: GenericMatrix | None = None
) -> RealizationWitness:
    """Witness for a = p(A1 B1) - p(B1 A1), where g^-1 a g has zero diagonal.

    g defaults to the identity, i.e. a itself has zero diagonal.  Exact
    backends only; the witness's four identities are verified exactly
    before returning.
    """
    if p.is_constant():
        raise ValueError("polynomial must be nonconstant")
    if not a.ring.exact:
        raise ValueError("realization requires an exact backend")
    if a.n < 2:
        raise ValueError("need size at least 2")
    ring = a.ring
    g_inv = None if g is None else g.inverse()
    a_prime = a if g is None else g_inv * a * g
    i = _nonzero_diagonal(a_prime)
    if i is not None:
        raise ValueError(f"conjugated matrix has nonzero diagonal entry at {i}")

    alphas = pick_distinct_preimages(p, a.n)
    d = GenericMatrix.diagonal(ring, [ring.embed(al) for al in alphas])
    p_diag = GenericMatrix.diagonal(
        ring, [ring.embed(eval_poly(p, al)) for al in alphas]
    )
    lower, upper = _strict_parts(a_prime)
    l1 = lower + p_diag
    u1 = p_diag - upper
    g1 = triangular_diagonalize(l1, "lower")
    g2 = triangular_diagonalize(u1, "upper")
    a1 = g1 * _unitriangular_solve(g2, "upper")
    b1 = g2 * d * _unitriangular_solve(g1, "lower")
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


def _block_one_plus(q: GenericMatrix) -> GenericMatrix:
    parts, den = q.component_form()
    out = np.zeros((len(parts), q.n + 1, q.n + 1), dtype=object)
    out[0, 0, 0] = den
    out[:, 1:, 1:] = parts
    return GenericMatrix._of_parts(q.ring, out, den)


def _trailing_block(ap: GenericMatrix, v, w, e, r: int, s: int) -> GenericMatrix:
    """Rows and columns 1.. of P^-1 (A P) for the columns P = [v, w / e, e_k
    for k outside r and s].

    In P x = y every e_k vanishes on rows r and s, a 2x2 system for the
    coordinates along v and w / e with determinant delta / e; each other
    coordinate is then read off its own row, so P is never inverted.  All
    of it runs on the integer numerators y of A P over its denominator f,
    and the block comes out over f delta."""
    y, f = ap.component_form()
    y = y[0, :, 1:]
    delta = v[r] * w[s] - v[s] * w[r]
    along_v = y[r] * w[s] - y[s] * w[r]
    along_w = v[r] * y[s] - v[s] * y[r]
    std = [k for k in range(ap.n) if k not in (r, s)]
    rest = [delta * y[k] - v[k] * along_v - w[k] * along_w for k in std]
    sign = 1 if delta > 0 else -1
    block = np.array([[e * along_w, *rest]], dtype=object) * sign
    return GenericMatrix._of_parts(ap.ring, block, sign * f * delta)


def _zero_diag_change(a: GenericMatrix) -> GenericMatrix:
    """Change of basis P = [v, A v, e_k ..] (block_one_plus Q) with
    P^-1 A P of zero diagonal, Q the same for the trailing block.

    The e_k are every standard vector but e_r and e_s, for the last pair
    r < s (s descending, then r descending) whose 2x2 minor of [v, A v] is
    nonzero: the complement of the basis a greedy pass over e_0, e_1, ..
    would keep (the dual matroid's greedy basis)."""
    n = a.n
    if a.is_zero():
        return GenericMatrix.identity(a.ring, n)
    v = _moving_vector(a)
    if v is None:
        # scalar and traceless over a char-0 field means zero, handled above
        raise ValueError("matrix is a nonzero scalar; it cannot be traceless")
    parts, den = a.component_form()
    w = (parts[0] @ np.array(v, dtype=object)).tolist()  # A v = w / den
    r, s = next((r, s) for s in range(n - 1, 0, -1) for r in range(s - 1, -1, -1)
                if v[r] * w[s] != v[s] * w[r])
    cols = np.zeros((1, n, n), dtype=object)
    cols[0, :, 0], cols[0, :, 1] = [den * x for x in v], w
    cols[0, [k for k in range(n) if k not in (r, s)], range(2, n)] = den
    p = GenericMatrix._of_parts(a.ring, cols, den)
    q = _zero_diag_change(_trailing_block(a * p, v, w, den, r, s))
    return p * _block_one_plus(q)


def traceless_to_zero_diagonal(a: GenericMatrix):
    """Change of basis (P, A') with A' = P^-1 A P of zero diagonal.

    Works over the rational backend for traceless input.  At every level
    some vector moves off its own line (else the matrix is scalar, hence
    zero by tracelessness in characteristic 0), and sending it to the
    first basis vector zeroes the leading diagonal entry; recursion
    handles the trailing block, whose trace is again zero.
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
    """Witness for a traceless rational matrix as p(A1 B1) - p(B1 A1)."""
    change, _ = traceless_to_zero_diagonal(a)
    return realize_zero_diagonal(p, a, g=change)


_TRACE_CANDIDATES = (
    (QI, QJ),
    (QI, QI + QJ),
    (QJ, QK),
    (QI + QJ, QK),
    (ONE + QI, ONE + QJ),
    (ONE + 2 * QI, ONE + 2 * QJ),
)


def nonzero_trace_witness(p: Polynomial, n: int, seed: int = 0, attempts: int = 200):
    """Quaternion diagonal pair (a, b) with trace(p(ab) - p(ba)) != 0.

    a = diag(1, .., 1, alpha) and b = diag(1, .., 1, beta) leave the trace
    equal to p(alpha beta) - p(beta alpha); fixed candidates are scanned
    first, then seeded random rational quaternions.
    """
    if p.is_constant():
        raise ValueError("polynomial must be nonconstant")
    if n < 2:
        raise ValueError("need size at least 2")
    rng = stream(seed, "trace-witness")

    def candidates():
        yield from _TRACE_CANDIDATES
        for _ in range(attempts):
            yield (
                Quaternion.exact(*(rng.randint(-3, 3) for _ in range(4))),
                Quaternion.exact(*(rng.randint(-3, 3) for _ in range(4))),
            )

    for alpha, beta in candidates():
        delta = eval_poly(p, alpha * beta) - eval_poly(p, beta * alpha)
        if delta.is_zero():
            continue
        one = HQ.one()
        a = GenericMatrix.diagonal(HQ, [one] * (n - 1) + [alpha])
        b = GenericMatrix.diagonal(HQ, [one] * (n - 1) + [beta])
        tr = poly_commutator(p, a, b).trace()
        if tr != delta:
            raise VerificationError("diagonal trace identity failed")
        return a, b
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
    """
    m = len(probes)
    if m < 1:
        raise ValueError("need at least one probe")
    if m > 8:
        raise ValueError("probe count above 8 is not supported")
    powers = [y0**0]
    for _ in range(m):
        powers.append(powers[-1] * y0)
    full = (1 << (m + 1)) - 1
    partial = {1 << e: powers[e] for e in range(m + 1)}
    # every subset is larger than those it extends, so counting up finishes
    # each partial[S] before it is extended
    for subset in range(1, full):
        prefix = partial.pop(subset) * probes[subset.bit_count() - 1]
        for e in range(m + 1):
            if subset >> e & 1:
                continue
            term = prefix * powers[e] if e else prefix
            if (subset >> (e + 1)).bit_count() % 2:
                term = -term
            grown = subset | 1 << e
            partial[grown] = partial[grown] + term if grown in partial else term
    return partial[full]


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
    four components; a matrix lists its entries' coordinates row by row
    (n^2 of them over the rationals, 4 n^2 over the exact quaternions),
    read off its component form.
    """
    if isinstance(x, Quaternion) and x.is_exact():
        x = GenericMatrix(HQ, [[x]])
    elif isinstance(x, (int, Fraction)):
        x = GenericMatrix(QQ, [[x]])
    elif not isinstance(x, GenericMatrix):
        raise ValueError(
            "the degree probe needs an exact element: an int, a Fraction, an exact "
            "quaternion or a rational or exact-quaternion matrix"
        )
    if not x.ring.exact:
        raise ValueError(f"the degree probe needs an exact backend, not {x.ring.name}")
    parts, den = x.component_form()
    return parts.transpose(1, 2, 0).ravel().tolist(), den


def _annihilator(a, m_max: int):
    """Powers a^0..a^d and the coefficients of the monic q of least degree d
    with q(a) = 0, constant first.

    Each power's coordinates, scaled to integers, are reduced against the
    rows kept from the earlier powers by fraction-free elimination (cross
    multiplication, then division by the content).  Every kept row carries
    the integer combination of the powers' coordinates it equals, so the
    first power that reduces to zero gives the dependence, and thus q,
    directly.  Raises DegreeNotBoundedError when a^0..a^m_max are
    independent.
    """
    powers = [a**0]
    rows: list = []  # (pivot, integer row, its combination of the powers)
    for k in range(m_max + 1):
        if k:
            powers.append(powers[-1] * a)
        work, den = _coordinates(powers[k])
        combo = [0] * (m_max + 1)
        combo[k] = den
        for pivot, row, row_combo in rows:
            f = work[pivot]
            if f:
                g = row[pivot]
                work = [g * w - f * r for w, r in zip(work, row)]
                combo = [g * c - f * rc for c, rc in zip(combo, row_combo)]
        pivot = next((idx for idx, w in enumerate(work) if w), None)
        if pivot is None:
            # sum combo[j] a^j = 0, and combo[k] is den times nonzero pivots
            return powers, [Fraction(c, combo[k]) for c in combo[: k + 1]]
        content = math.gcd(*work, *combo)
        rows.append((pivot, [w // content for w in work], [c // content for c in combo]))
    raise DegreeNotBoundedError(m_max, {m: False for m in range(1, m_max + 1)})


def algebraic_degree_probe(
    a, m_max: int = 7, trials: int = 8, seed: int = 0
) -> DegreeProbeResult:
    """Exact algebraic degree d <= m_max of an exact element over the centre.

    The algebraicity sum with m probes vanishes identically exactly when the
    degree is at most m.  The upper side is exact: the first linear
    dependence among a^0, a^1, .. gives the monic annihilator q of least
    degree d, rechecked as q(a) == 0 from the powers.  The lower side is one
    random witness: probes whose sum at level d - 1 is nonzero, drawn for
    at most `trials` trials; if every trial vanishes the two sides disagree
    and VerificationError names the level.
    """
    if m_max < 1 or m_max > 7:
        raise ValueError("m_max must be between 1 and 7")
    if trials < 1:
        raise ValueError("need at least one trial")
    powers, q = _annihilator(a, m_max)
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
