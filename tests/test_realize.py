import dataclasses
import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_quat import exact_polynomial

from polycomm import matrix, realize
from polycomm.matrix import CC, HF, HQ, QQ, GenericMatrix, SingularMatrixError
from polycomm.poly import Polynomial, eval_poly, poly_commutator
from polycomm.quat import QI, QJ, QK, Quaternion, VerificationError
from polycomm.realize import (
    DegreeNotBoundedError,
    RealizationWitness,
    algebraic_degree_probe,
    algebraicity_polynomial,
    nonzero_trace_witness,
    pick_distinct_preimages,
    realize_traceless,
    realize_zero_diagonal,
    traceless_to_zero_diagonal,
    triangular_diagonalize,
)
from polycomm.sampling import (
    exact_quaternion,
    quaternion_matrix,
    rational_matrix,
    stream,
)
from polycomm.serialize import decode_witness, encode_witness

SEED = 47417

X = Polynomial([0, 1])
X2 = Polynomial([0, 0, 1])
X3 = Polynomial([0, 0, 0, 1])


def qq(rows):
    return GenericMatrix(QQ, rows)


def zero_diagonal_matrix(rng, n: int, bound: int = 3) -> GenericMatrix:
    rows = [[rng.randint(-bound, bound) if i != j else 0 for j in range(n)] for i in range(n)]
    return GenericMatrix(QQ, rows)


def traceless_matrix(rng, n: int, bound: int = 3) -> GenericMatrix:
    """Random traceless noncentral rational matrix."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        rows[n - 1][n - 1] = -sum(rows[i][i] for i in range(n - 1))
        off = any(rows[i][j] != 0 for i in range(n) for j in range(n) if i != j)
        mixed = any(rows[i][i] != rows[0][0] for i in range(n))
        if off or mixed:
            return GenericMatrix(QQ, rows)


def check_witness(w, p, target):
    assert w.verify()
    assert w.target == target
    assert poly_commutator(p, w.a1, w.b1) == target


def test_preimages_frozen():
    assert pick_distinct_preimages(X, 3) == [0, 1, -1]
    assert pick_distinct_preimages(X2, 2) == [0, 1]
    assert pick_distinct_preimages(X2, 5) == [0, 1, 2, 3, 4]
    # x^2 - x glues 0 with 1 and -1 with 2, so the scan skips ahead
    picks = pick_distinct_preimages(Polynomial([0, -1, 1]), 2)
    assert picks == [0, -1]
    assert [picks[0] * (picks[0] - 1), picks[1] * (picks[1] - 1)] == [0, 2]


def test_preimages_values_always_distinct():
    r = stream(SEED, "preimages")
    for _ in range(100):
        p = exact_polynomial(r, r.randint(1, 5))
        n = r.randint(1, 6)
        picks = pick_distinct_preimages(p, n)
        vals = [p(c) for c in picks]
        assert len(picks) == n
        assert len(set(vals)) == n


def test_preimages_guards():
    with pytest.raises(ValueError):
        pick_distinct_preimages(Polynomial([3]), 2)
    with pytest.raises(ValueError):
        pick_distinct_preimages(X, 0)


def test_triangular_diagonalize_frozen():
    p = triangular_diagonalize(qq([[0, 0], [1, 1]]), "lower")
    assert p == qq([[1, 0], [-1, 1]])
    p = triangular_diagonalize(qq([[0, -1], [0, 1]]), "upper")
    assert p == qq([[1, -1], [0, 1]])


def test_triangular_diagonalize_quaternion_entries():
    t = GenericMatrix(HQ, [[0, 0, 0], [QI, 1, 0], [QJ, QK, 2]])
    p = triangular_diagonalize(t, "lower")
    d = GenericMatrix.diagonal(HQ, [0, 1, 2])
    assert p.inverse() * t * p == d
    # unitriangular with the same shape
    assert p[0, 0] == Quaternion.exact(1)
    assert p[0, 1] == Quaternion.exact() and p[0, 2] == Quaternion.exact()


def test_triangular_diagonalize_rejects():
    with pytest.raises(ValueError):
        triangular_diagonalize(qq([[0, 0], [1, 1]]), "diagonal")
    with pytest.raises(ValueError):
        triangular_diagonalize(qq([[0, 1], [1, 1]]), "lower")
    with pytest.raises(ValueError):
        triangular_diagonalize(qq([[1, 0], [1, 1]]), "lower")
    t = GenericMatrix(HQ, [[QI, 0], [1, 1]])
    with pytest.raises(ValueError):
        triangular_diagonalize(t, "lower")
    for ring in (CC, HF):
        with pytest.raises(ValueError, match="exact backend"):
            triangular_diagonalize(GenericMatrix(ring, [[0, 0], [1, 1]]), "lower")


def test_triangular_diagonalize_random_sweep():
    r = stream(SEED, "tri-sweep")
    for _ in range(60):
        n = r.randint(2, 5)
        diag = list(range(n))
        r.shuffle(diag)
        rows = [
            [
                Fraction(r.randint(-3, 3), r.choice([1, 2]))
                if j < i
                else (diag[i] if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        t = qq(rows)
        p = triangular_diagonalize(t, "lower")
        assert p.inverse() * t * p == GenericMatrix.diagonal(QQ, diag)


def test_triangular_diagonalize_rejects_a_wrong_substitution(monkeypatch):
    substitute = realize._substitute

    def off_by_one(t, shape):
        rows = [list(row) for row in substitute(t, shape).rows]
        i, j = (2, 0) if shape == "lower" else (0, 2)
        rows[i][j] = rows[i][j] + 1
        return GenericMatrix(t.ring, rows)

    lower = qq([[0, 0, 0], [1, 1, 0], [2, 3, 2]])
    assert triangular_diagonalize(lower, "lower")  # the true P passes
    monkeypatch.setattr(realize, "_substitute", off_by_one)
    with pytest.raises(VerificationError):
        triangular_diagonalize(lower, "lower")
    with pytest.raises(VerificationError):
        triangular_diagonalize(lower.transpose(), "upper")
    with pytest.raises(VerificationError):
        realize_zero_diagonal(X2, qq([[0, 1, 2], [3, 0, 4], [5, 6, 0]]))
    g = qq([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    with pytest.raises(VerificationError):
        realize_zero_diagonal(X2, g * qq([[0, 1, 2], [3, 0, 4], [5, 6, 0]]) * g.inverse(), g=g)
    with pytest.raises(VerificationError):
        realize_traceless(X2, qq([[1, 2, 0], [3, -4, 5], [6, 7, 3]]))


def test_realization_worked_example():
    a = qq([[0, 1], [0, 0]])
    w = realize_zero_diagonal(X2, a)
    assert w.d == GenericMatrix.diagonal(QQ, [0, 1])
    assert w.g == GenericMatrix.identity(QQ, 2)
    assert w.g1 == GenericMatrix.identity(QQ, 2)
    assert w.g2 == qq([[1, -1], [0, 1]])
    assert w.a1 == qq([[1, 1], [0, 1]])
    assert w.b1 == qq([[0, -1], [0, 1]])
    check_witness(w, X2, a)


def test_realization_of_zero_matrix():
    a = GenericMatrix.zeros(QQ, 2)
    w = realize_zero_diagonal(X2, a)
    assert w.a1 == GenericMatrix.identity(QQ, 2)
    assert w.b1 == w.d
    check_witness(w, X2, a)


def test_realization_rejects_bad_input():
    with pytest.raises(ValueError):
        realize_zero_diagonal(X2, qq([[1, 1], [0, -1]]))
    with pytest.raises(ValueError):
        realize_zero_diagonal(Polynomial([5]), qq([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        realize_zero_diagonal(X2, GenericMatrix(CC, [[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        realize_zero_diagonal(X2, qq([[0]]))


def test_realization_with_conjugator():
    g = qq([[1, 1], [0, 1]])
    z = qq([[0, 0], [1, 0]])
    a = g * z * g.inverse()
    assert a.diagonal_entries() != (0, 0)
    w = realize_zero_diagonal(X2, a, g=g)
    assert w.g == g
    check_witness(w, X2, a)


def test_realization_sweep_with_intermediates():
    """The pipeline's internal identities: with L1 and U1 the strict parts
    of the conjugated matrix shifted by p(D), the products diagonalize to D
    and the polynomial images to p(D)."""
    r = stream(SEED, "realize-sweep")
    for _ in range(40):
        n = r.randint(2, 5)
        p = exact_polynomial(r, r.randint(1, 5))
        a = zero_diagonal_matrix(r, n)
        w = realize_zero_diagonal(p, a)
        check_witness(w, p, a)
        p_d = eval_poly(p, w.d)
        lower = qq(
            [[a[i, j] if i > j else 0 for j in range(n)] for i in range(n)]
        )
        upper = qq(
            [[a[i, j] if i < j else 0 for j in range(n)] for i in range(n)]
        )
        l1 = lower + p_d
        u1 = p_d - upper
        g_inv = w.g.inverse()
        ab = w.a1 * w.b1
        ba = w.b1 * w.a1
        assert eval_poly(p, ab) == w.g * l1 * g_inv
        assert eval_poly(p, ba) == w.g * u1 * g_inv
        assert ab == w.g * (w.g1 * w.d * w.g1.inverse()) * g_inv
        assert ba == w.g * (w.g2 * w.d * w.g2.inverse()) * g_inv


def test_realization_quaternion_ring():
    r = stream(SEED, "realize-hq")
    for _ in range(10):
        n = 3
        rows = [
            [exact_quaternion(r, 2) if i != j else 0 for j in range(n)]
            for i in range(n)
        ]
        a = GenericMatrix(HQ, rows)
        w = realize_zero_diagonal(X3, a)
        check_witness(w, X3, a)


def test_witness_detects_tampering():
    w = realize_zero_diagonal(X2, qq([[0, 1], [0, 0]]))
    bad = dataclasses.replace(w, a1=GenericMatrix.identity(QQ, 2))
    assert not bad.verify()
    bad = dataclasses.replace(w, target=qq([[0, 2], [0, 0]]))
    assert not bad.verify()


def test_traceless_reduction_frozen():
    a = GenericMatrix.diagonal(QQ, [1, -1])
    p, a_prime = traceless_to_zero_diagonal(a)
    assert p == qq([[1, 1], [1, -1]])
    assert a_prime == qq([[0, 1], [1, 0]])
    assert p.inverse() * a * p == a_prime


def test_traceless_reduction_zero_matrix():
    a = GenericMatrix.zeros(QQ, 3)
    p, a_prime = traceless_to_zero_diagonal(a)
    assert p == GenericMatrix.identity(QQ, 3)
    assert a_prime.is_zero()


def test_traceless_reduction_guards():
    with pytest.raises(ValueError):
        traceless_to_zero_diagonal(qq([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        traceless_to_zero_diagonal(GenericMatrix.diagonal(HQ, [QI, -QI]))


def test_traceless_reduction_sweep():
    r = stream(SEED, "traceless-sweep")
    for _ in range(60):
        n = r.randint(2, 5)
        a = traceless_matrix(r, n)
        p, a_prime = traceless_to_zero_diagonal(a)
        assert p.inverse() * a * p == a_prime
        assert all(a_prime[i, i] == 0 for i in range(n))


def test_realize_traceless_end_to_end():
    cases = [
        (X3, qq([[0, 1], [0, 0]])),
        (X2, GenericMatrix.diagonal(QQ, [1, -1])),
        (X2, qq([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])),
        (Polynomial([1, 2, 0, 1]), qq([[2, 1], [3, -2]])),
    ]
    for p, a in cases:
        w = realize_traceless(p, a)
        check_witness(w, p, a)


def test_realize_traceless_sweep():
    r = stream(SEED, "realize-traceless")
    for _ in range(25):
        n = r.randint(2, 4)
        p = exact_polynomial(r, r.randint(1, 4))
        a = traceless_matrix(r, n)
        w = realize_traceless(p, a)
        check_witness(w, p, a)


def test_trace_witness_frozen_linear():
    a, b, trace = nonzero_trace_witness(X, 2)
    assert a == GenericMatrix.diagonal(HQ, [1, QI])
    assert b == GenericMatrix.diagonal(HQ, [1, QJ])
    assert poly_commutator(X, a, b).trace() == trace == 2 * QK


def test_trace_witness_frozen_square():
    """x^2 kills the first candidate pair: (ij)^2 = (ji)^2 = -1.  The scan
    moves on to (i, i+j), whose squares differ by -4k."""
    a, b, trace = nonzero_trace_witness(X2, 2)
    assert a == GenericMatrix.diagonal(HQ, [1, QI])
    assert b == GenericMatrix.diagonal(HQ, [1, QI + QJ])
    assert poly_commutator(X2, a, b).trace() == trace == -4 * QK


def test_trace_witness_larger_size():
    p = Polynomial([0, 1, 1])
    a, b, trace = nonzero_trace_witness(p, 3)
    assert a.n == 3
    tr = poly_commutator(p, a, b).trace()
    assert tr == trace == 2 * QK
    assert not tr.is_zero()


def test_trace_witness_guards():
    with pytest.raises(ValueError):
        nonzero_trace_witness(Polynomial([2]), 2)
    with pytest.raises(ValueError):
        nonzero_trace_witness(X, 1)


def test_trace_witness_sweep_of_polynomials():
    r = stream(SEED, "trace-sweep")
    for _ in range(30):
        p = exact_polynomial(r, r.randint(1, 5))
        a, b, trace = nonzero_trace_witness(p, 2, seed=SEED)
        assert poly_commutator(p, a, b).trace() == trace
        assert not trace.is_zero()


def test_algebraicity_level_one_is_the_commutator():
    r = stream(SEED, "alg-one")
    assert algebraicity_polynomial(QI, [QJ]) == -2 * QK
    for _ in range(30):
        y = exact_quaternion(r)
        probe = exact_quaternion(r)
        assert algebraicity_polynomial(y, [probe]) == probe * y - y * probe
    m = rational_matrix(r, 3)
    probe = rational_matrix(r, 3)
    assert algebraicity_polynomial(m, [probe]) == probe * m - m * probe


def test_algebraicity_vanishes_at_level_two_for_quaternions():
    r = stream(SEED, "alg-two")
    for _ in range(40):
        y = exact_quaternion(r)
        probes = [exact_quaternion(r), exact_quaternion(r)]
        assert algebraicity_polynomial(y, probes).is_zero()


def test_algebraicity_vanishes_at_level_one_for_scalars():
    r = stream(SEED, "alg-scalar")
    for _ in range(20):
        y = Fraction(r.randint(-9, 9), r.choice([1, 2, 3]))
        probe = Fraction(r.randint(-9, 9))
        assert algebraicity_polynomial(y, [probe]) == 0


def test_algebraicity_conjugation_invariance():
    r = stream(SEED, "alg-conj")
    for _ in range(20):
        y = rational_matrix(r, 2)
        probes = [rational_matrix(r, 2), rational_matrix(r, 2)]
        g = qq([[1, 1], [0, 1]])
        lhs = g * algebraicity_polynomial(y, probes) * g.inverse()
        conj = lambda m: g * m * g.inverse()
        rhs = algebraicity_polynomial(conj(y), [conj(q) for q in probes])
        assert lhs == rhs


def brute_force_algebraicity(y, probes, one):
    """The literal sum over permutations d of {0..m} of
    sign(d) y^d(0) r_1 y^d(1) ... r_m y^d(m), sign by inversion count."""
    m = len(probes)
    powers = [one]
    for _ in range(m):
        powers.append(powers[-1] * y)
    total = None
    for perm in permutations(range(m + 1)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(m + 1), 2))
        term = powers[perm[0]]
        for r, e in zip(probes, perm[1:]):
            term = term * r * powers[e]
        term = -term if inversions % 2 else term
        total = term if total is None else total + term
    return total


def _draw_fraction(r):
    return Fraction(r.randint(-9, 9), r.choice([1, 2, 3]))


ALGEBRAICITY_RINGS = {
    "fraction": (_draw_fraction, Fraction(1)),
    "quaternion": (exact_quaternion, Quaternion.exact(1)),
    "qq2": (lambda r: rational_matrix(r, 2), GenericMatrix.identity(QQ, 2)),
    "qq3": (lambda r: rational_matrix(r, 3), GenericMatrix.identity(QQ, 3)),
    "hq2": (lambda r: quaternion_matrix(r, 2), GenericMatrix.identity(HQ, 2)),
    # y0 and the probes over denominators, so that the recursion's one
    # shared denominator is checked against the literal sum
    "qq2-den": (lambda r: rational_matrix(r, 2, denominators=(1, 2, 3)),
                GenericMatrix.identity(QQ, 2)),
    "qq3-den": (lambda r: rational_matrix(r, 3, denominators=(1, 2, 3)),
                GenericMatrix.identity(QQ, 3)),
    "hq3-den": (lambda r: Fraction(1, r.choice((1, 2, 3))) * quaternion_matrix(r, 3),
                GenericMatrix.identity(HQ, 3)),
}


@pytest.mark.parametrize("kind", sorted(ALGEBRAICITY_RINGS))
def test_algebraicity_matches_permutation_sum(kind):
    draw, one = ALGEBRAICITY_RINGS[kind]
    r = stream(SEED, f"alg-brute-{kind}")
    for m in range(1, 5):
        for _ in range(2):
            y = draw(r)
            probes = [draw(r) for _ in range(m)]
            assert algebraicity_polynomial(y, probes) == brute_force_algebraicity(
                y, probes, one
            )


def test_algebraicity_product_count(monkeypatch):
    """The subset recursion makes at most 2^(m+1) (m+1) products of numerator
    stacks (component_product); the permutation sum took about
    (m+1)! (2m+1).  The m powers of y0 are the only GenericMatrix products."""
    calls = {"stack": 0, "matrix": 0}

    def counting(kind, fn):
        def counted(*args):
            calls[kind] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(realize, "component_product",
                        counting("stack", realize.component_product))
    monkeypatch.setattr(GenericMatrix, "__mul__", counting("matrix", GenericMatrix.__mul__))
    r = stream(SEED, "alg-cost")
    m = 6
    y = rational_matrix(r, 2)
    probes = [rational_matrix(r, 2) for _ in range(m)]
    algebraicity_polynomial(y, probes)
    assert m < calls["stack"] <= 2 ** (m + 1) * (m + 1)
    assert calls["matrix"] == m


def test_algebraicity_guards():
    with pytest.raises(ValueError):
        algebraicity_polynomial(QI, [])
    with pytest.raises(ValueError):
        algebraicity_polynomial(QI, [QJ] * 9)


def _flatten(m):
    """Rational coordinates of m: its entries, or their four components over HQ."""
    out = []
    for row in m.rows:
        for v in row:
            parts = v.components() if isinstance(v, Quaternion) else (v,)
            out.extend(Fraction(c) for c in parts)
    return out


def _rank(vectors):
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_col = 0
    for row_idx in range(len(rows)):
        while pivot_col < cols:
            pivot = next(
                (r for r in range(rank, len(rows)) if rows[r][pivot_col] != 0), None
            )
            if pivot is None:
                pivot_col += 1
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = 1 / rows[rank][pivot_col]
            rows[rank] = [inv * c for c in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][pivot_col] != 0:
                    f = rows[r][pivot_col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
            pivot_col += 1
            break
    return rank


def minimal_polynomial_degree(a):
    """Least k with I, A, .., A^k linearly dependent, by exact elimination."""
    powers = [_flatten(GenericMatrix.identity(a.ring, a.n))]
    acc = GenericMatrix.identity(a.ring, a.n)
    for k in range(1, len(powers[0]) + 1):
        acc = acc * a
        powers.append(_flatten(acc))
        if _rank(powers) < len(powers):
            return k
    raise AssertionError("minimal polynomial degree exceeded the dimension")


def companion(coeffs_monic_tail):
    """Companion matrix of x^n - sum(tail), tail listed from degree 0."""
    n = len(coeffs_monic_tail)
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i, c in enumerate(coeffs_monic_tail):
        rows[i][n - 1] = c
    return qq(rows)


def test_probe_frozen_values():
    assert algebraic_degree_probe(QJ).estimated_degree == 2
    assert algebraic_degree_probe(Fraction(5)).estimated_degree == 1
    assert algebraic_degree_probe(GenericMatrix.identity(QQ, 3)).estimated_degree == 1
    assert algebraic_degree_probe(GenericMatrix.diagonal(QQ, [1, 2])).estimated_degree == 2
    assert algebraic_degree_probe(qq([[0, 1], [0, 0]])).estimated_degree == 2
    cube = companion([2, 0, 0])  # x^3 = 2
    assert cube**3 == 2 * GenericMatrix.identity(QQ, 3)
    assert algebraic_degree_probe(cube).estimated_degree == 3


def test_probe_matches_exact_minimal_polynomial():
    r = stream(SEED, "probe-oracle")
    cases = [
        GenericMatrix.diagonal(QQ, [3, 3, 3]),
        GenericMatrix.diagonal(QQ, [1, 1, 2]),
        companion([1, 1, 0, 0]),  # x^4 = x + 1
        qq([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    ]
    for _ in range(20):
        cases.append(rational_matrix(r, r.randint(2, 4)))
    for a in cases:
        expected = minimal_polynomial_degree(a)
        probed = algebraic_degree_probe(a, trials=3, seed=SEED)
        assert probed.estimated_degree == expected
        assert probed.vanish_pattern[expected] is True
        assert all(not probed.vanish_pattern[m] for m in range(1, expected))


def test_probe_quaternion_matrix():
    r = stream(SEED, "probe-hq")
    a = quaternion_matrix(r, 2)
    result = algebraic_degree_probe(a)
    assert 1 <= result.estimated_degree <= 4


def test_probe_reports_unbounded_degree():
    with pytest.raises(DegreeNotBoundedError) as info:
        algebraic_degree_probe(GenericMatrix.diagonal(QQ, range(8)))  # degree 8
    assert info.value.m_max == 7
    assert info.value.vanish_pattern == {m: False for m in range(1, 8)}
    quintic = companion([2, 0, 0, 0, 0])  # x^5 = 2
    assert algebraic_degree_probe(quintic, trials=2).estimated_degree == 5


def test_probe_guards():
    with pytest.raises(ValueError):
        algebraic_degree_probe(QJ, trials=0)


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(b)] = row
        at += len(b)
    return rows


def unimodular(draw, n):
    """S = L U for L lower and U upper unitriangular with entries in -2..2:
    det S = 1, so S is invertible over the integers."""
    def unitriangular(below):
        entries = st.integers(-2, 2)
        return qq([
            [1 if i == j else draw(entries) if (i > j) == below else 0 for j in range(n)]
            for i in range(n)
        ])

    return unitriangular(True) * unitriangular(False)


@st.composite
def similar_companion_blocks(draw):
    """S C S^-1 over QQ, n = 1..4: C is block diagonal with companion blocks
    of small monic polynomials, S a product of integer unitriangular
    matrices (so invertible)."""
    n = draw(st.integers(1, 4))
    blocks = []
    while sum(len(b) for b in blocks) < n:
        size = draw(st.integers(1, n - sum(len(b) for b in blocks)))
        tail = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        blocks.append(companion(tail).rows)
    s = unimodular(draw, n)
    return s * qq(block_diagonal(blocks)) * s.inverse()


small_quaternions = st.builds(
    Quaternion.exact, *(st.integers(-3, 3) for _ in range(4))
)
quaternion_2x2 = st.lists(small_quaternions, min_size=4, max_size=4).map(
    lambda q: GenericMatrix(HQ, [q[:2], q[2:]])
)


@settings(max_examples=60, deadline=None)
@given(
    element=st.one_of(similar_companion_blocks(), small_quaternions, quaternion_2x2),
    seed=st.integers(0, 2**16),
)
def test_probe_degree_is_the_minimal_polynomial_degree(element, seed):
    if isinstance(element, GenericMatrix):
        d = minimal_polynomial_degree(element)
    else:
        d = minimal_polynomial_degree(GenericMatrix(HQ, [[element]]))
    result = algebraic_degree_probe(element, seed=seed)
    assert result.estimated_degree == d
    assert result.vanish_pattern == {m: m == d for m in range(1, d + 1)}
    # both sides recheck from the result alone
    q = result.annihilator
    assert q.degree == d and q.coeffs[-1] == 1
    assert eval_poly(q, element).is_zero()
    assert len(result.lower_probes) == d - 1
    if d >= 2:
        assert not algebraicity_polynomial(element, result.lower_probes).is_zero()


def test_probe_runs_one_algebraicity_sum(monkeypatch):
    calls = []

    def counted(y0, probes):
        calls.append(len(probes))
        return algebraicity_polynomial(y0, probes)

    monkeypatch.setattr(realize, "algebraicity_polynomial", counted)
    quartic = companion([1, 1, 0, 0])  # x^4 = x + 1
    assert algebraic_degree_probe(quartic, trials=8).estimated_degree == 4
    assert calls == [3]
    calls.clear()
    scalar = 3 * GenericMatrix.identity(QQ, 4)
    assert algebraic_degree_probe(scalar, trials=8).estimated_degree == 1
    assert calls == []


def test_integral_quaternion_probe_multiplies_no_fractions(monkeypatch):
    """The probe of an integral quaternion takes every Hamilton product on
    int components: its powers and probes stay integral, and the
    annihilator's Fraction coefficients only scale components."""
    calls, fraction_calls = [], []
    mul = Quaternion.__mul__

    def counted(self, other):
        if isinstance(other, Quaternion):
            calls.append(1)
            if any(type(c) is Fraction for q in (self, other) for c in q.components()):
                fraction_calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Quaternion, "__mul__", counted)
    assert algebraic_degree_probe(Quaternion.exact(1, 2, 3, 4)).estimated_degree == 2
    assert calls and fraction_calls == []


def test_probe_rejects_a_corrupted_annihilator(monkeypatch):
    annihilator = realize._annihilator

    def corrupted(a):
        powers, q = annihilator(a)
        return powers, [q[0] + 1, *q[1:]]

    monkeypatch.setattr(realize, "_annihilator", corrupted)
    with pytest.raises(VerificationError, match="annihilating polynomial of degree 3"):
        algebraic_degree_probe(companion([2, 0, 0]))


def test_probe_names_the_level_when_the_lower_witness_fails(monkeypatch):
    monkeypatch.setattr(realize, "algebraicity_polynomial", lambda *args: Fraction(0))
    with pytest.raises(VerificationError, match="level 2 vanished on all 5 trials"):
        algebraic_degree_probe(companion([2, 0, 0]), trials=5)
    # degree 1 needs no lower witness
    assert algebraic_degree_probe(Fraction(3)).estimated_degree == 1


@pytest.mark.parametrize(
    "element",
    [
        2.5,
        Quaternion.of_floats(0.0, 1.0, 0.0, 0.0),
        GenericMatrix(CC, [[1, 2], [3, 4]]),
        GenericMatrix(HF, [[1, 2], [3, 4]]),
    ],
    ids=["float", "float-quaternion", "complex-matrix", "float-quaternion-matrix"],
)
def test_probe_rejects_float_input(element):
    with pytest.raises(ValueError, match="exact"):
        algebraic_degree_probe(element)


def reference_failed_identity(w):
    """The defining identities checked as written, through three inverses:
    the oracle of the multiplied-through checks in failed_identity()."""
    g_inv, g1_inv, g2_inv = w.g.inverse(), w.g1.inverse(), w.g2.inverse()
    g1_out, g2_out = g1_inv * g_inv, g2_inv * g_inv
    if w.a1 != w.g * w.g1 * g2_out:
        return "a1 == g g1 g2^-1 g^-1"
    if w.b1 != w.g * w.g2 * w.d * g1_out:
        return "b1 == g g2 d g1^-1 g^-1"
    ab, ba = w.a1 * w.b1, w.b1 * w.a1
    if ab != w.g * w.g1 * w.d * g1_out:
        return "a1 b1 == g g1 d g1^-1 g^-1"
    if ba != w.g * w.g2 * w.d * g2_out:
        return "b1 a1 == g g2 d g2^-1 g^-1"
    p_d, p_ab, p_ba = eval_poly(w.p, w.d), eval_poly(w.p, ab), eval_poly(w.p, ba)
    if p_ab != w.g * w.g1 * p_d * g1_out:
        return "p(a1 b1) == g g1 p(d) g1^-1 g^-1"
    if p_ba != w.g * w.g2 * p_d * g2_out:
        return "p(b1 a1) == g g2 p(d) g2^-1 g^-1"
    vals = p_d.diagonal_entries()
    if any(x == y for x, y in combinations(vals, 2)):
        return "p(d) has pairwise distinct diagonal entries"
    if p_ab - p_ba != w.target:
        return "p(a1 b1) - p(b1 a1) == target"
    return None


def outcome(check, w):
    try:
        return ("name", check(w))
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raised", type(exc).__name__, str(exc))


def count_inverses(monkeypatch):
    """Record every GenericMatrix.inverse argument from now on."""
    seen = []
    inverse = GenericMatrix.inverse

    def counted(m):
        seen.append(m)
        return inverse(m)

    monkeypatch.setattr(GenericMatrix, "inverse", counted)
    return seen


def random_entries(r, ring, n, zero_diagonal=False):
    def entry():
        if ring is HQ:
            return exact_quaternion(r, 2)
        return Fraction(r.randint(-3, 3), r.choice([1, 1, 2]))

    return GenericMatrix(
        ring, [[0 if zero_diagonal and i == j else entry() for j in range(n)] for i in range(n)]
    )


def conjugated_target(r, ring, n):
    """(a, g) with g^-1 a g a random zero-diagonal matrix and g a random
    invertible matrix that is neither the identity nor unitriangular."""
    core = random_entries(r, ring, n, zero_diagonal=True)
    while True:
        g = random_entries(r, ring, n)
        try:
            g_inv = g.inverse()
        except ValueError:
            continue
        return g * core * g_inv, g


@pytest.mark.parametrize("ring", [QQ, HQ], ids=["rational", "quaternion"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_realization_inverts_only_a_given_conjugator(monkeypatch, ring, n):
    """Without a conjugator nothing is inverted: g1^-1 and g2^-1 come from
    the substitution, and verify() multiplies its identities through.  A
    conjugator is inverted once to build the witness and once in verify()."""
    r = stream(SEED, f"inverse-count-{ring.name}-{n}")
    p = exact_polynomial(r, r.randint(1, 3))
    plain = random_entries(r, ring, n, zero_diagonal=True)
    a, g = conjugated_target(r, ring, n)
    seen = count_inverses(monkeypatch)
    w = realize_zero_diagonal(p, plain)
    assert w.verify()
    assert seen == []
    w_g = realize_zero_diagonal(p, a, g=g)
    assert w_g.verify()
    assert seen == [g, g, g]
    monkeypatch.undo()
    for witness, target in ((w, plain), (w_g, a)):
        check_witness(witness, p, target)
        assert reference_failed_identity(witness) is None


def test_traceless_realization_inverts_only_its_change_of_basis(monkeypatch):
    """The change of basis of these (cyclic) inputs is their Krylov basis,
    built without an inverse, then inverted once by the reduction, once by
    realize_zero_diagonal and once in verify()."""
    r = stream(SEED, "traceless-inverse-count")
    for n in (2, 3, 4, 5):
        a = traceless_matrix(r, n)
        seen = count_inverses(monkeypatch)
        change = realize._zero_diag_change(a)
        assert seen == []
        w = realize_traceless(X2, a)
        monkeypatch.undo()
        check_witness(w, X2, a)
        assert w.g == change == traceless_to_zero_diagonal(a)[0]
        assert seen == [change] * 3


def count_eliminations(monkeypatch):
    """Record every Bareiss elimination (matrix._bareiss_solve) from now on."""
    seen = []
    solve = matrix._bareiss_solve

    def counted(*args):
        seen.append(args)
        return solve(*args)

    monkeypatch.setattr(matrix, "_bareiss_solve", counted)
    return seen


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_each_change_of_basis_is_eliminated_once(monkeypatch, n):
    """inverse() keeps its result on the matrix, so the traceless change of
    basis, inverted by the reduction, by realize_zero_diagonal and in
    verify(), is eliminated once, and a given conjugator, inverted by
    realize_zero_diagonal and in verify(), once too.  Verifying the
    returned witness again eliminates nothing, and without a conjugator
    nothing is eliminated at all."""
    r = stream(SEED, f"elimination-count-{n}")
    p = exact_polynomial(r, r.randint(1, 3))
    traceless = traceless_matrix(r, n)
    cases = [(traceless, "traceless", 1)]
    for ring in (QQ, HQ):
        a, g = conjugated_target(r, ring, n)
        # a copy of g, as conjugated_target has already inverted g itself
        cases += [(a, GenericMatrix(ring, g.rows), 1),
                  (random_entries(r, ring, n, zero_diagonal=True), None, 0)]
    seen = count_eliminations(monkeypatch)
    for a, g, eliminations in cases:
        del seen[:]
        w = realize_traceless(p, a) if g == "traceless" else realize_zero_diagonal(p, a, g=g)
        assert len(seen) == eliminations
        check_witness(w, p, a)
        assert len(seen) == eliminations


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_products_per_realization(monkeypatch, degree):
    """8 products without a conjugator, at every degree: t P for each
    triangular factor, one each for a1 and b1, then in verify() a1 (g g2),
    b1 (g g1) and one for each lifted factor of the target certificate,
    (tril(M, -1) + p(d)) g1 and (p(d) - triu(M, 1)) g2.  P diag(t), g2 d,
    g1 p(d) and g2 p(d) are column scalings, not products, and p(d) is
    Horner's rule on d's diagonal.  A
    conjugator adds 10 (g^-1 a g, g a1 g^-1, g b1 g^-1, g g1, g g2 and
    M = g^-1 target g).  A traceless input with a cyclic moving vector
    (every random one here) makes none for its change of basis, its
    Krylov basis, and 2 for the reduction A' = P^-1 A P, which the
    realization reuses instead of its own g^-1 a g: 18 at every n.  Each
    level of a chain that stops short adds 3, P^-1 A P for its trailing
    block and P diag(I, Q): diag(1, 1, -2) has one such level (the chain
    of e_0 + e_2 has length 2), then a cyclic block, so 21."""
    r = stream(SEED, f"product-count-{degree}")
    p = Polynomial([1] * degree + [2])
    cases = [(qq([[1, 0, 0], [0, 1, 0], [0, 0, -2]]), "traceless", 21)]
    for n in (2, 3, 4, 5, 6):
        for ring in (QQ, HQ):
            a, g = conjugated_target(r, ring, n)
            cases += [(random_entries(r, ring, n, zero_diagonal=True), None, 8), (a, g, 18)]
        cases.append((traceless_matrix(r, n), "traceless", 18))
    products = []
    mul = GenericMatrix.__mul__

    def counted(*args):
        products.append(args)
        return mul(*args)

    monkeypatch.setattr(GenericMatrix, "__mul__", counted)
    for a, g, expected in cases:
        del products[:]
        if g == "traceless":
            realize_traceless(p, a)
        else:
            realize_zero_diagonal(p, a, g=g)
        assert len(products) == expected


@settings(max_examples=40, deadline=None)
@given(ring=st.sampled_from([QQ, HQ]), n=st.integers(1, 4), data=st.data())
def test_column_scaling_is_the_product_with_the_diagonal(ring, n, data):
    """m diag(t) as a column scaling of m equals the product with
    GenericMatrix.diagonal of t's central diagonal entries, in the same
    component form; t's other entries are not read."""
    entry = mixed_entry[ring.name]
    m = GenericMatrix(ring, [[data.draw(entry) for _ in range(n)] for _ in range(n)])
    diagonal = data.draw(st.lists(mixed_fraction, min_size=n, max_size=n))
    t = triangular_with(data.draw, ring, n, data.draw(st.sampled_from(["lower", "upper"])),
                        diagonal)
    scaled = realize._times_diagonal(m, t)
    expected = m * GenericMatrix.diagonal(ring, diagonal)
    assert scaled == expected and scaled.rows == expected.rows


def matrix_perturbations(m):
    n, ring = m.n, m.ring
    one = ring.one()
    corner = GenericMatrix(ring, [[one if (i, j) == (n - 1, 0) else ring.zero()
                                   for j in range(n)] for i in range(n)])
    return [m + 1, m - corner, m - corner.transpose(), 2 * m,
            GenericMatrix.zeros(ring, n), GenericMatrix.identity(ring, n)]


def tamper_witnesses():
    r = stream(SEED, "tamper")
    for ring in (QQ, HQ):
        for conjugated in (False, True):
            p = exact_polynomial(r, r.randint(1, 3))
            if conjugated:
                a, g = conjugated_target(r, ring, 3)
                yield realize_zero_diagonal(p, a, g=g)
            else:
                yield realize_zero_diagonal(p, random_entries(r, ring, 3, zero_diagonal=True))


def test_tampered_witness_fails_like_the_inverse_based_checks():
    """Every perturbation of every field gives the name (or the exception)
    that checking the identities as written, through inverses, gives."""
    fields = ("a1", "b1", "g", "g1", "g2", "d", "target")
    names = set()
    for w in tamper_witnesses():
        bad = []
        for field in fields:
            m = getattr(w, field)
            others = [getattr(w, f) for f in fields if f != field]
            bad += [dataclasses.replace(w, **{field: x})
                    for x in matrix_perturbations(m) + others]
        bad += [dataclasses.replace(w, p=q) for q in (
            Polynomial([*w.p.coeffs, 1]),
            Polynomial([w.p.coeffs[0] + 1, *w.p.coeffs[1:]]),
            Polynomial([2 * c for c in w.p.coeffs]), X, Polynomial([0, 0, 1, 1]),
        )]
        for tampered in bad:
            got = outcome(RealizationWitness.failed_identity, tampered)
            assert got == outcome(reference_failed_identity, tampered)
            names.add(got[1])
    # the identities on a1 b1, b1 a1 and their p-images follow from the
    # first two once g, g1 and g2 are invertible, so no tampering reaches them
    assert names == {
        None, "SingularMatrixError", "a1 == g g1 g2^-1 g^-1", "b1 == g g2 d g1^-1 g^-1",
        "p(d) has pairwise distinct diagonal entries", "p(a1 b1) - p(b1 a1) == target",
    }


def test_decoded_witness_with_a_general_g1_still_verifies(monkeypatch):
    """g1 scaled by 2 is no longer unitriangular but still invertible, and
    (2 a1, b1 / 2) keep every identity: verify() certifies g1 by one
    inverse instead of its shape.  A singular g still raises."""
    w = realize_zero_diagonal(X2, qq([[0, 1, 2], [3, 0, 4], [5, 6, 0]]))
    scaled = dataclasses.replace(
        w, a1=2 * w.a1, b1=Fraction(1, 2) * w.b1, g1=2 * w.g1
    )
    seen = count_inverses(monkeypatch)
    back = decode_witness(encode_witness(scaled))
    assert back == scaled and back.verify()
    assert seen == [scaled.g1, scaled.g1]
    monkeypatch.undo()
    assert reference_failed_identity(scaled) is None
    singular = encode_witness(
        dataclasses.replace(w, g=qq([[1, 2, 0], [2, 4, 0], [0, 0, 1]]))
    )
    with pytest.raises(SingularMatrixError, match="column 1"):
        decode_witness(singular)


def reference_unitriangular_solve(m, shape, diag=None):
    """Entry-by-entry substitution on ring elements: entries fill in by
    their distance from the diagonal, each from those nearer it."""
    ring, n = m.ring, m.n
    x = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    for dist in range(1, n):
        for lo in range(n - dist):
            hi = lo + dist
            i, j = (hi, lo) if shape == "lower" else (lo, hi)
            s = m[i, j]
            for k in range(lo + 1, hi):
                s = s + m[i, k] * x[k][j]
            if diag is not None:
                gap = diag[i] - diag[j]
                s = (gap.inverse() if isinstance(gap, Quaternion) else 1 / Fraction(gap)) * s
            x[i][j] = -s
    return GenericMatrix(ring, x)


def reference_extend_to_basis(vectors, n):
    """Greedily complete independent vectors with e_0, e_1, .., each kept
    when exact elimination leaves it nonzero."""
    basis, reduced = [], []  # reduced: (pivot index, reduced vector)
    for vec in [*vectors, *([int(c == k) for c in range(n)] for k in range(n))]:
        work = [Fraction(c) for c in vec]
        for pivot, red in reduced:
            work = [wc - work[pivot] * rc for wc, rc in zip(work, red)]
        pivot = next((idx for idx, c in enumerate(work) if c), None)
        if pivot is not None:
            reduced.append((pivot, [c / work[pivot] for c in work]))
            basis.append(list(vec))
        elif len(basis) < len(vectors):
            raise ValueError("given vectors are dependent")
    return basis


def primitive(vec):
    """The integer multiple of a nonzero rational vector with content 1."""
    scale = math.lcm(*(Fraction(c).denominator for c in vec))
    ints = [int(c * scale) for c in vec]
    return [c // math.gcd(*ints) for c in ints]


def reference_krylov_chain(a, v):
    """v, A v, A^2 v, .. on Fraction rows, each after v made primitive,
    for as long as the chain stays independent."""
    n, chain = a.n, [v]
    while len(chain) < n:
        image = [sum((a[r, k] * chain[-1][k] for k in range(n)), Fraction(0)) for r in range(n)]
        if not any(image):
            break
        try:
            reference_extend_to_basis([*chain, primitive(image)], n)
        except ValueError:
            break
        chain.append(primitive(image))
    return chain


def reference_zero_diag_change(a):
    """The change of basis of traceless_to_zero_diagonal on Fraction rows:
    the Krylov chain of the first moving vector completed greedily by
    e_0, e_1, .., and for a chain of length k < n the same for the block
    of P^-1 A P from index k - 1, through an inverse, embedded as
    diag(I_(k-1), Q)."""
    n = a.n
    if a.is_zero():
        return GenericMatrix.identity(QQ, n)
    off = [c for c in range(n) if any(a[r, c] != 0 for r in range(n) if r != c)]
    if off:
        v = [int(k == off[0]) for k in range(n)]
    else:
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if a[i, i] != a[j, j])
        v = [int(k in (i, j)) for k in range(n)]
    chain = reference_krylov_chain(a, v)
    k = len(chain)
    p = GenericMatrix(QQ, [list(col) for col in zip(*reference_extend_to_basis(chain, n))])
    if k == n:
        return p
    moved = p.inverse() * a * p
    q = reference_zero_diag_change(GenericMatrix(QQ, [row[k - 1:] for row in moved.rows[k - 1:]]))
    block = [[int(i == j) for j in range(n)] for i in range(k - 1)]
    block += [[0] * (k - 1) + list(row) for row in q.rows]
    return p * GenericMatrix(QQ, block)


def triangular_with(draw, ring, n, shape, diagonal):
    entry = mixed_entry[ring.name]
    rows = [[draw(entry) if (j < i if shape == "lower" else j > i) else 0
             for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = diagonal[i]
    return GenericMatrix(ring, rows)


mixed_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=12)
mixed_entry = {
    "rational": mixed_fraction,
    "quaternion": st.builds(Quaternion.exact, *(mixed_fraction for _ in range(4))),
}


@settings(max_examples=80, deadline=None)
@given(
    ring=st.sampled_from([QQ, HQ]),
    n=st.integers(1, 6),
    shape=st.sampled_from(["lower", "upper"]),
    divide=st.booleans(),
    data=st.data(),
)
def test_substitution_matches_the_entry_loop(ring, n, shape, divide, data):
    """The row-by-row integer substitution gives the reference's X, in
    lowest terms: t X = X diag(t) with divide, P X = I without."""
    if divide:
        diagonal = data.draw(st.lists(mixed_fraction, min_size=n, max_size=n, unique=True))
    else:
        diagonal = [1] * n
    m = triangular_with(data.draw, ring, n, shape, diagonal)
    x = realize._unitriangular_solve(m, shape, divide)
    expected = reference_unitriangular_solve(m, shape, diagonal if divide else None)
    assert x == expected and x.rows == expected.rows
    if divide:
        assert m * x == x * GenericMatrix.diagonal(ring, diagonal)
    else:
        assert m * x == GenericMatrix.identity(ring, n)


sparse_entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-5, 3)])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 7), data=st.data())
def test_zero_diagonal_change_matches_the_greedy_basis(n, data):
    """The fraction-free chain and completion keep the vectors that
    elimination on Fractions keeps, so the change of basis (which every
    traceless witness prints as g) is the reference's matrix.  Mostly-zero
    entries stop many Krylov chains short, so the recursion runs too."""
    rows = [data.draw(st.lists(sparse_entry, min_size=n, max_size=n)) for _ in range(n)]
    rows[n - 1][n - 1] = -sum(rows[i][i] for i in range(n - 1))
    a = GenericMatrix(QQ, rows)
    change = realize._zero_diag_change(a)
    assert change == reference_zero_diag_change(a)
    assert all(x == 0 for x in (change.inverse() * a * change).diagonal_entries())


@st.composite
def structured_traceless(draw, n):
    """A traceless n x n rational matrix S M S^-1 - (tr M / n) I for a
    unimodular S and M of one kind: repeated companion blocks, nilpotent Jordan blocks,
    a diagonal of repeated values plus a strictly upper part, or random
    sparse entries.  The first three are mostly derogatory, with no cyclic
    vector; the scalar shift keeps that."""
    kind = draw(st.sampled_from(["companion", "jordan", "diagonal-plus-nilpotent", "random"]))
    small = st.integers(-2, 2)
    if kind == "companion":
        d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        block = companion(draw(st.lists(small, min_size=d, max_size=d))).rows
        rows = block_diagonal([block] * (n // d))
    elif kind == "jordan":
        sizes = []
        while sum(sizes) < n:
            sizes.append(draw(st.integers(1, n - sum(sizes))))
        rows = block_diagonal([companion([0] * k).rows for k in sizes])
    elif kind == "diagonal-plus-nilpotent":
        diagonal = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
        rows = [[diagonal[i] if i == j else (draw(sparse_entry) if j > i else 0)
                 for j in range(n)] for i in range(n)]
    else:
        rows = [draw(st.lists(sparse_entry, min_size=n, max_size=n)) for _ in range(n)]
    m, s = qq(rows), unimodular(draw, n)
    return s * m * s.inverse() - GenericMatrix.diagonal(QQ, [m.trace() / n] * n)


@pytest.mark.parametrize("n", range(2, 9))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_structured_traceless_inputs_reach_zero_diagonal(n, data):
    """Derogatory and random inputs alike: P^-1 A P has zero diagonal, P is
    the Fraction reference's, and the realization verifies exactly."""
    a = data.draw(structured_traceless(n))
    change, a_prime = traceless_to_zero_diagonal(a)
    assert all(x == 0 for x in (change.inverse() * a * change).diagonal_entries())
    assert a_prime == change.inverse() * a * change
    assert change == reference_zero_diag_change(a)
    p = Polynomial(data.draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3)) + [1])
    w = realize_traceless(p, a)
    assert w.verify() and w.target == a and w.g == change


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_cyclic_change_of_basis_is_its_krylov_basis(monkeypatch, n):
    """When the moving vector is cyclic the change of basis is its Krylov
    basis, one level: no product and no elimination.  The companion matrix
    of A is then P^-1 A P up to a diagonal similarity, with zero diagonal
    as the trace is 0."""
    r = stream(SEED, f"cyclic-change-{n}")
    a = traceless_matrix(r, n)
    chain = reference_krylov_chain(a, [int(k == 0) for k in range(n)])
    assert len(chain) == n  # e_0 is the moving vector, and it is cyclic
    products, seen = [], count_eliminations(monkeypatch)
    mul = GenericMatrix.__mul__

    def counted(*args):
        products.append(args)
        return mul(*args)

    monkeypatch.setattr(GenericMatrix, "__mul__", counted)
    change = realize._zero_diag_change(a)
    assert products == [] and seen == []
    monkeypatch.undo()
    assert change == GenericMatrix(QQ, [list(col) for col in zip(*chain)])
    assert all(x == 0 for x in (change.inverse() * a * change).diagonal_entries())


BIG = 2**64


def big_entries(r, ring, n, zero_diagonal=False):
    def big():
        return Fraction(r.choice((-1, 1)) * (BIG + r.randrange(BIG)), r.choice((1, 3, BIG + 13)))

    def entry():
        return Quaternion.exact(*(big() for _ in range(4))) if ring is HQ else big()

    return GenericMatrix(
        ring, [[0 if zero_diagonal and i == j else entry() for j in range(n)] for i in range(n)]
    )


def test_realizations_stay_exact_beyond_64_bits():
    """Numerators above 2^64 pass through every integer array of the
    realization: the witness verifies, and its substitutions and change of
    basis equal the reference ones on Fraction entries."""
    r = stream(SEED, "big-numerators")
    p = Polynomial([BIG + 1, 3, -(BIG + 7), 2])
    for ring, n in ((QQ, 4), (HQ, 3)):
        a = big_entries(r, ring, n, zero_diagonal=True)
        w = realize_zero_diagonal(p, a)
        check_witness(w, p, a)
        p_d = eval_poly(p, w.d).diagonal_entries()
        lower = [[a[i, j] if j < i else (p_d[i] if i == j else 0) for j in range(n)]
                 for i in range(n)]
        upper = [[-a[i, j] if j > i else (p_d[i] if i == j else 0) for j in range(n)]
                 for i in range(n)]
        for got, rows, shape in ((w.g1, lower, "lower"), (w.g2, upper, "upper")):
            t = GenericMatrix(ring, rows)
            assert got == reference_unitriangular_solve(t, shape, p_d)
            assert max(abs(v) for v in got.component_form()[0].flat) > BIG
    a = big_entries(r, QQ, 4)
    a = a - GenericMatrix.diagonal(QQ, [0, 0, 0, a.trace()])
    w = realize_traceless(p, a)
    check_witness(w, p, a)
    assert w.g == reference_zero_diag_change(a)
    assert max(abs(v) for v in w.g.component_form()[0].flat) > BIG


def test_probe_accepts_its_smallest_settings():
    """trials = 1 is the least value the guard allows."""
    result = algebraic_degree_probe(QJ, trials=1)
    assert (result.estimated_degree, result.trials_per_degree) == (2, 1)
    assert len(result.lower_probes) == 1


def one_entry_changed(m, i, j, by):
    rows = [list(row) for row in m.rows]
    rows[i][j] = rows[i][j] + by
    return GenericMatrix(m.ring, rows)


def realized(r, ring, n, conjugated, degree=None):
    p = exact_polynomial(r, degree or r.randint(1, 3))
    if conjugated:
        a, g = conjugated_target(r, ring, n)
        return realize_zero_diagonal(p, a, g=g)
    return realize_zero_diagonal(p, random_entries(r, ring, n, zero_diagonal=True))


@settings(max_examples=60, deadline=None)
@given(
    ring=st.sampled_from([QQ, HQ]),
    n=st.integers(2, 4),
    conjugated=st.booleans(),
    degree=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_target_certificate_agrees_with_the_direct_evaluation(
    ring, n, conjugated, degree, seed, data
):
    """On a realized witness, with its target kept, changed in one entry or
    replaced by a random matrix, the certificate on the triangular factors
    accepts exactly when poly_commutator(p, a1, b1) == target."""
    r = stream(seed, "certificate")
    w = realized(r, ring, n, conjugated, degree)
    change = data.draw(st.sampled_from(["none", "entry", "random"]))
    if change == "entry":
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        target = one_entry_changed(w.target, i, j, data.draw(mixed_entry[ring.name]))
    else:
        target = w.target if change == "none" else random_entries(r, ring, n)
    tampered = dataclasses.replace(w, target=target)
    assert tampered._certifiable()
    direct = poly_commutator(w.p, w.a1, w.b1) == target
    name = tampered.failed_identity()
    assert name == (None if direct else "p(a1 b1) - p(b1 a1) == target")


def count_direct_targets(monkeypatch):
    """Record every direct evaluation of p(a1 b1) - p(b1 a1) in realize."""
    seen = []
    direct = realize.poly_difference

    def counted(*args):
        seen.append(args)
        return direct(*args)

    monkeypatch.setattr(realize, "poly_difference", counted)
    return seen


def unitriangular(r, ring, n, shape):
    return GenericMatrix(ring, [
        [1 if i == j else random_entries(r, ring, 1)[0, 0] if (j < i) == (shape == "lower")
         else 0 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("ring", [QQ, HQ], ids=["rational", "quaternion"])
def test_rebased_witness_verifies_through_the_direct_evaluation(monkeypatch, ring):
    """(g S, S^-1 g1, S^-1 g2) keeps every identity for an invertible S, but
    a general S leaves neither g1 nor g2 triangular, a lower unitriangular
    one only g1 and an upper one only g2: verify() evaluates the target
    directly, once, and a target changed in one entry still fails."""
    r = stream(SEED, f"rebased-{ring.name}")
    for conjugated, kind in ((False, "full"), (True, "full"), (False, "lower"), (True, "upper")):
        w = realized(r, ring, 3, conjugated)
        s = conjugated_target(r, ring, 3)[1] if kind == "full" else unitriangular(r, ring, 3, kind)
        s_inv = s.inverse()
        rebased = dataclasses.replace(w, g=w.g * s, g1=s_inv * w.g1, g2=s_inv * w.g2)
        assert not rebased._certifiable()
        seen = count_direct_targets(monkeypatch)
        assert rebased.verify()
        assert len(seen) == 1
        bad = dataclasses.replace(rebased, target=one_entry_changed(w.target, 0, 1, 1))
        assert bad.failed_identity() == "p(a1 b1) - p(b1 a1) == target"
        monkeypatch.undo()
        assert reference_failed_identity(rebased) is None
        assert reference_failed_identity(bad) == "p(a1 b1) - p(b1 a1) == target"


def test_changed_target_or_polynomial_fails_like_the_reference():
    """Over Q and exact H, with and without g: a target changed in one entry
    fails naming the target, and a witness whose p changed after it was
    built fails (or holds) as the identities checked through inverses do;
    a float p raises as they do."""
    r = stream(SEED, "certificate-tamper")
    names = set()
    for ring in (QQ, HQ):
        for conjugated in (False, True):
            for n in (2, 3, 4):
                w = realized(r, ring, n, conjugated)
                assert w._certifiable()
                for i, j in ((0, 0), (0, n - 1), (n - 1, 0)):
                    bad = dataclasses.replace(w, target=one_entry_changed(w.target, i, j, 1))
                    assert bad.failed_identity() == "p(a1 b1) - p(b1 a1) == target"
                    assert reference_failed_identity(bad) == "p(a1 b1) - p(b1 a1) == target"
                for q in (Polynomial([*w.p.coeffs, 1]), Polynomial([2 * c for c in w.p.coeffs]),
                          Polynomial([c + 1 for c in w.p.coeffs]), X2, X3,
                          Polynomial([float(c) for c in w.p.coeffs])):
                    bad = dataclasses.replace(w, p=q)
                    got = outcome(RealizationWitness.failed_identity, bad)
                    assert got == outcome(reference_failed_identity, bad)
                    names.add(got[1])
    assert {"p(d) has pairwise distinct diagonal entries",
            "p(a1 b1) - p(b1 a1) == target"} <= names


@pytest.mark.parametrize("ring", [QQ, HQ], ids=["rational", "quaternion"])
def test_witness_with_a_fractional_d_is_certified(ring):
    """(b1 / 2, d / 2, q) with q(x) = p(2 x) keeps every identity, as
    q(a1 b1 / 2) = p(a1 b1), and d / 2 has a denominator: p(d) on the
    integer numerators of d's diagonal brings it in."""
    r = stream(SEED, f"fractional-d-{ring.name}")
    for conjugated in (False, True):
        w = realized(r, ring, 4, conjugated, degree=3)
        q = Polynomial([c * 2**k for k, c in enumerate(w.p.coeffs)])
        half = dataclasses.replace(w, p=q, b1=Fraction(1, 2) * w.b1, d=Fraction(1, 2) * w.d)
        assert half.d.component_form()[1] == 2 and half._certifiable()
        assert half.verify() and reference_failed_identity(half) is None
        bad = dataclasses.replace(half, target=one_entry_changed(w.target, 1, 0, 1))
        assert bad.failed_identity() == "p(a1 b1) - p(b1 a1) == target"


def per_row_reduced_solve(m, shape, divide):
    """_unitriangular_solve with one gcd reduction of the whole array per
    row, as it was first written: the oracle of its single reduction."""
    ring, n = m.ring, m.n
    parts, den = m.component_form()
    x, x_den = np.zeros_like(parts), 1
    x[0, np.arange(n), np.arange(n)] = 1
    for i in range(1, n) if shape == "lower" else range(n - 2, -1, -1):
        block = slice(0, i) if shape == "lower" else slice(i + 1, n)
        s = matrix.component_product(parts[:, i:i + 1, block], x[:, block, block])[:, 0]
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


@pytest.mark.parametrize("ring, n", [(QQ, 1), (QQ, 2), (QQ, 8), (QQ, 16), (QQ, 32),
                                     (HQ, 2), (HQ, 8), (HQ, 16)])
def test_single_reduction_matches_the_per_row_reduction(ring, n):
    """Reducing X once, in _of_parts, gives the matrix (and component form)
    that reducing after every row gave, for n up to 32."""
    r = stream(SEED, f"single-reduction-{ring.name}-{n}")
    for shape in ("lower", "upper"):
        for divide in (False, True):
            diagonal = [1] * n
            if divide:
                values = {Fraction(r.randint(-9 * n, 9 * n), r.choice((1, 2, 3)))
                          for _ in range(3 * n)}
                diagonal = r.sample(sorted(values), n)
            rows = [[diagonal[i] if i == j
                     else random_entries(r, ring, 1)[0, 0] if (j < i if shape == "lower" else j > i)
                     else 0 for j in range(n)] for i in range(n)]
            m = GenericMatrix(ring, rows)
            x = realize._unitriangular_solve(m, shape, divide)
            expected = per_row_reduced_solve(m, shape, divide)
            assert x == expected and x.component_form()[1] == expected.component_form()[1]
