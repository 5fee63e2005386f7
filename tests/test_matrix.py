import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_quat import exact_polynomial

from polycomm import matrix
from polycomm.matrix import (
    CC,
    HF,
    HQ,
    QQ,
    RINGS,
    GenericMatrix,
    SingularMatrixError,
    component_product,
    telescoping_expand,
)
from polycomm.poly import Polynomial, eval_poly, poly_commutator
from polycomm.quat import QI, QJ, QK, Quaternion
from polycomm.sampling import (
    np_stream,
    quaternion_matrix,
    rational_matrix,
    stream,
)

SEED = 33311

X = Polynomial([0, 1])
X2 = Polynomial([0, 0, 1])


def cc_matrix(gen, n):
    from polycomm.sampling import complex_gaussian_matrix

    return GenericMatrix(CC, complex_gaussian_matrix(gen, n).tolist())


def hf_matrix(gen, n):
    return GenericMatrix(HF, [[Quaternion.of_floats(*gen.standard_normal(4)) for _ in range(n)]
                              for _ in range(n)])


def e12(ring, n=2):
    rows = [[1 if (i, j) == (0, 1) else 0 for j in range(n)] for i in range(n)]
    return GenericMatrix(ring, rows)


def test_ring_registry():
    assert set(RINGS) == {"rational", "complex", "quaternion", "quaternion-float"}
    assert RINGS["rational"] is QQ
    assert QQ.exact and HQ.exact
    assert not CC.exact and not HF.exact


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GenericMatrix(QQ, [[1, 2], [3]])
    with pytest.raises(ValueError):
        GenericMatrix(QQ, [[1, 2]])
    with pytest.raises(ValueError):
        GenericMatrix(QQ, [])


def test_coercion_per_ring():
    m = GenericMatrix(QQ, [["1/2", 1], [0, 2]])
    assert m[0, 0] == Fraction(1, 2)
    with pytest.raises(ValueError):
        GenericMatrix(QQ, [[0.5, 1], [0, 2]])
    c = GenericMatrix(CC, [[1, 1j], [0, 2.5]])
    assert c[0, 1] == 1j
    q = GenericMatrix(HQ, [[QI, 0], [1, QK]])
    assert q[0, 1] == Quaternion.exact()
    assert q[1, 0] == Quaternion.exact(1)


def test_constructor_coerces_every_entry_on_the_rational_ring():
    with pytest.raises(ValueError, match="the rational ring is exact"):
        GenericMatrix(QQ, [[0.5]])


def test_constructor_coerces_every_entry_on_the_exact_quaternions():
    """An int and a [w, x, y, z] tuple are exact quaternion entries once coerced."""
    assert GenericMatrix(HQ, [[1, 0], [0, (0, 1, 0, 0)]]) == GenericMatrix.diagonal(HQ, [1, QI])


def test_indexing_and_shape():
    m = GenericMatrix(QQ, [[1, 2], [3, 4]])
    assert m.n == 2
    assert m[1, 0] == 3
    assert m.transpose()[0, 1] == 3
    assert m.diagonal_entries() == (1, 4)
    assert m.trace() == 5
    q = GenericMatrix(HQ, [[QI, Fraction(1, 2)], [[1, 2, 3, 4], 0]])
    t = q.transpose()
    assert t.rows == ((QI, Quaternion(1, 2, 3, 4)), (Fraction(1, 2), 0))
    assert t.component_form()[1] == 2 and t.transpose() == q


def test_arithmetic():
    a = GenericMatrix(QQ, [[1, 2], [3, 4]])
    b = GenericMatrix.identity(QQ, 2)
    assert (a + b)[0, 0] == 2
    assert (a - a).is_zero()
    assert (-a)[1, 1] == -4
    assert (a * b) == a
    assert (2 * a)[1, 0] == 6
    assert (a**0) == b
    assert (a**3) == a * a * a
    with pytest.raises(ValueError):
        a ** (-1)


def test_quaternion_entries_multiply_noncommutatively():
    a = GenericMatrix(HQ, [[QI, 0], [0, 1]])
    b = GenericMatrix(HQ, [[QJ, 0], [0, 1]])
    assert (a * b) == GenericMatrix(HQ, [[QK, 0], [0, 1]])
    assert (b * a) == GenericMatrix(HQ, [[-QK, 0], [0, 1]])


def test_scale_is_central_only():
    m = GenericMatrix.identity(HQ, 2)
    with pytest.raises(ValueError):
        QI * m
    assert (Fraction(1, 2) * m)[0, 0] == Quaternion.exact(Fraction(1, 2))


@pytest.mark.parametrize("ring,c", [
    (QQ, 3), (QQ, Fraction(-2, 5)), (HQ, Fraction(1, 3)), (HQ, Quaternion.exact(2)),
    (CC, 1.5), (HF, -2),
])
def test_central_scalar_operators_match_the_scalar_matrix(ring, c):
    m = GenericMatrix(ring, [[1, 2, 0], [-3, 4, 1], [0, 5, -6]])
    if ring is HQ:
        m = m + GenericMatrix.diagonal(HQ, [QI, QJ, QK])
    ci = GenericMatrix.diagonal(ring, [ring.embed(c)] * 3)  # c I
    assert c * m == ci * m
    assert m * c == m * ci
    assert m + c == m + ci
    assert c + m == ci + m
    assert m - c == m - ci
    assert c - m == ci - m


def test_exact_rings_refuse_float_and_noncentral_scalars():
    m_qq = GenericMatrix(QQ, [[1, 2], [3, 4]])
    m_hq = GenericMatrix(HQ, [[QI, 1], [0, QJ]])
    for bad in (
        lambda: 0.5 * m_qq,
        lambda: m_qq + 0.5,
        lambda: eval_poly(Polynomial([0.5, 1.0]), m_qq),
        lambda: QI * m_hq,
        lambda: m_hq + QI,
    ):
        with pytest.raises(ValueError):
            bad()


# zero, one and embed as each ring wrote them before they derived from
# coerce, kept as the reference.
REFERENCE_ZERO_ONE = {
    "rational": (Fraction(0), Fraction(1)),
    "complex": (0j, 1 + 0j),
    "quaternion": (Quaternion.exact(), Quaternion.exact(1)),
    "quaternion-float": (Quaternion.of_floats(), Quaternion.of_floats(1.0)),
}


def reference_embed(ring, c):
    if ring is QQ:
        if isinstance(c, float):
            raise ValueError("the rational ring is exact")
        return Fraction(c)
    if ring is CC:
        return complex(c)
    if isinstance(c, Quaternion):
        if not c.im().is_zero():
            raise ValueError("only central (real) scalars embed into matrices")
        c = c.w
    if ring.exact:
        if isinstance(c, float):
            raise ValueError("the exact quaternion ring takes int or Fraction scalars")
        return Quaternion.exact(c)
    return Quaternion.of_floats(float(c))


def same_value(x, y) -> bool:
    """x == y with equal types, each component exact or float in both, and
    nan matching nan."""
    def parts(v):
        if isinstance(v, Quaternion):
            return v.components()
        return (v.real, v.imag) if isinstance(v, complex) else (v,)

    return type(x) is type(y) and all(
        (a == b or a != a and b != b) and isinstance(a, float) == isinstance(b, float)
        for a, b in zip(parts(x), parts(y))
    )


exact_scalars = st.one_of(st.integers(-10**9, 10**9),
                          st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6))
float_scalars = st.floats(allow_nan=True, allow_infinity=True)


def quaternions(make, scalars):
    """Central, one-axis and general quaternions of make(w, x, y, z)."""
    def one_axis(w, axis, v):
        return make(w, *(v if k == axis else 0 for k in range(3)))

    return st.one_of(st.builds(make, scalars),
                     st.builds(one_axis, scalars, st.integers(0, 2), scalars),
                     st.builds(make, scalars, scalars, scalars, scalars))


embed_inputs = st.one_of(
    exact_scalars,
    float_scalars,
    st.complex_numbers(),
    quaternions(Quaternion.exact, exact_scalars),
    quaternions(Quaternion.of_floats, float_scalars),
    st.lists(st.one_of(exact_scalars, float_scalars), min_size=4, max_size=4),
)


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(ring_name=st.sampled_from(sorted(RINGS)), c=embed_inputs)
def test_zero_one_and_embed_match_the_per_ring_reference(ring_name, c):
    ring = RINGS[ring_name]
    zero, one = REFERENCE_ZERO_ONE[ring_name]
    assert same_value(ring.zero(), zero) and same_value(ring.one(), one)
    got, want = outcome(ring.embed, c), outcome(reference_embed, ring, c)
    if isinstance(want, type):
        assert got is want
    else:
        assert same_value(got, want)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
exact_entries = {
    "rational": small_fractions,
    "quaternion": st.builds(Quaternion.exact, *(st.integers(-2, 2) for _ in range(4))),
}


@settings(max_examples=40, deadline=None)
@given(
    ring_name=st.sampled_from(sorted(exact_entries)),
    n=st.integers(1, 3),
    coeffs=st.lists(small_fractions, min_size=1, max_size=6),
    data=st.data(),
)
def test_eval_poly_is_the_power_sum(ring_name, n, coeffs, data):
    ring = RINGS[ring_name]
    entries = data.draw(st.lists(exact_entries[ring_name], min_size=n * n, max_size=n * n))
    m = GenericMatrix(ring, [entries[i * n:(i + 1) * n] for i in range(n)])
    p = Polynomial(coeffs)
    direct = GenericMatrix.zeros(ring, n)
    for k, c in enumerate(p.coeffs):
        direct = direct + c * m**k
    assert eval_poly(p, m) == direct
    assert p(m) == direct


def test_inverse_frozen_unitriangular():
    m = GenericMatrix(QQ, [[1, 1], [0, 1]])
    assert m.inverse() == GenericMatrix(QQ, [[1, -1], [0, 1]])


def test_inverse_roundtrip_rational():
    r = stream(SEED, "inv-qq")
    seen = 0
    while seen < 30:
        m = rational_matrix(r, r.randint(1, 4), denominators=(1, 2, 3))
        try:
            inv = m.inverse()
        except SingularMatrixError:
            continue
        seen += 1
        eye = GenericMatrix.identity(QQ, m.n)
        assert m * inv == eye
        assert inv * m == eye


def test_inverse_roundtrip_quaternion():
    r = stream(SEED, "inv-hq")
    seen = 0
    while seen < 20:
        m = quaternion_matrix(r, r.randint(1, 3))
        try:
            inv = m.inverse()
        except SingularMatrixError:
            continue
        seen += 1
        eye = GenericMatrix.identity(HQ, m.n)
        assert m * inv == eye
        assert inv * m == eye


def test_inverse_roundtrip_complex():
    gen = np_stream(SEED, "inv-cc")
    for _ in range(20):
        m = cc_matrix(gen, int(gen.integers(1, 5)))
        inv = m.inverse()
        eye = GenericMatrix.identity(CC, m.n)
        assert (m * inv).max_deviation(eye) <= 1e-10
        assert (inv * m).max_deviation(eye) <= 1e-10


def test_singular_matrix_reports_column():
    m = GenericMatrix(QQ, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as info:
        m.inverse()
    assert info.value.column == 1
    with pytest.raises(SingularMatrixError) as info:
        GenericMatrix.zeros(QQ, 2).inverse()
    assert info.value.column == 0


@pytest.mark.parametrize("ring", [QQ, HQ], ids=["rational", "quaternion"])
def test_inverse_is_kept_on_the_matrix(monkeypatch, ring):
    """The first inverse() eliminates and keeps its result: every later call
    returns the same object, equal to a fresh elimination of the same entries.
    A singular matrix eliminates and raises on every call, and a matrix
    derived from one with a kept inverse starts without it."""
    eliminations = []
    solve = matrix._bareiss_solve

    def counted(*args):
        eliminations.append(args)
        return solve(*args)

    r = stream(SEED, "inverse-memo-" + ring.name)
    m = rational_matrix(r, 3) if ring is QQ else quaternion_matrix(r, 3)
    fresh = GenericMatrix(ring, m.rows).inverse()
    monkeypatch.setattr(matrix, "_bareiss_solve", counted)
    inv = m.inverse()
    assert m.inverse() is inv and inv == fresh and len(eliminations) == 1
    derived = [-m, m * m, m + 1, 2 * m, m.transpose(), GenericMatrix(ring, m.rows), inv]
    assert all(d._inverse is None for d in derived)
    singular = GenericMatrix(ring, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    for calls in (2, 3):
        with pytest.raises(SingularMatrixError, match="column 1"):
            singular.inverse()
        assert len(eliminations) == calls and singular._inverse is None


@pytest.mark.parametrize("n", range(1, 6))
def test_inverse_roundtrip_float_quaternion(n):
    gen = np_stream(SEED + n, "inv-hf")
    eye = GenericMatrix.identity(HF, n)
    for _ in range(10):
        m = hf_matrix(gen, n)
        inv = m.inverse()
        assert (m * inv).max_deviation(eye) <= 1e-10
        assert (inv * m).max_deviation(eye) <= 1e-10


@pytest.mark.parametrize("ring, make", [(CC, cc_matrix), (HF, hf_matrix)])
def test_float_singular_matrix_reports_zero_column(ring, make):
    gen = np_stream(SEED, "zero-column-" + ring.name)
    for n in range(1, 5):
        for j in range(n):
            rows = [[ring.zero() if k == j else x for k, x in enumerate(row)]
                    for row in make(gen, n).rows]
            with pytest.raises(SingularMatrixError) as info:
                GenericMatrix(ring, rows).inverse()
            assert info.value.column == j


@pytest.mark.parametrize("ring", [CC, HF])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_float_inverse_refuses_non_finite_entries(ring, bad):
    with pytest.raises(ValueError, match="finite"):
        GenericMatrix(ring, [[bad, 1], [1, 1]]).inverse()


def test_poly_eval_frozen():
    assert eval_poly(X2, e12(QQ)).is_zero()
    d = GenericMatrix.diagonal(HQ, [QI, QJ])
    assert eval_poly(Polynomial([1, 0, 1]), d).is_zero()
    m = GenericMatrix(QQ, [[1, 2], [3, 4]])
    assert eval_poly(Polynomial([7]), m) == 7 * GenericMatrix.identity(QQ, 2)


def test_poly_commutator_frozen_shift_pair():
    a = e12(QQ)
    b = a.transpose()
    expected = GenericMatrix.diagonal(QQ, [1, -1])
    assert poly_commutator(X, a, b) == expected
    assert poly_commutator(X2, a, b) == expected
    assert a * b - b * a == expected


def test_poly_commutator_trace_vanishes_rationally():
    r = stream(SEED, "trace-zero")
    for _ in range(200):
        n = r.randint(2, 4)
        p = exact_polynomial(r, r.randint(1, 6))
        a = rational_matrix(r, n, denominators=(1, 2))
        b = rational_matrix(r, n, denominators=(1, 3))
        assert poly_commutator(p, a, b).trace() == 0


def test_similarity_frozen_quaternion_example():
    """A rank-one quaternion matrix with nonzero trace is similar to a
    nilpotent one: conjugation does not preserve the trace when the entries
    stop commuting."""
    g = GenericMatrix(HQ, [[QJ, 0], [QI, 1]])
    a = GenericMatrix(HQ, [[QI, QJ], [-QJ, QI]])
    g_inv = g.inverse()
    assert g_inv == GenericMatrix(HQ, [[-QJ, 0], [QK, 1]])
    conj = g_inv * a * g
    assert conj == e12(HQ)
    assert a.trace() == 2 * QI
    assert conj.trace() == Quaternion.exact()


def test_similarity_conjugate_preserves_poly_commutator():
    r = stream(SEED, "simil")
    for _ in range(40):
        n = r.randint(2, 3)
        p = exact_polynomial(r, r.randint(1, 4))
        a = rational_matrix(r, n)
        b = rational_matrix(r, n)
        g = rational_matrix(r, n)
        try:
            g_inv = g.inverse()
        except SingularMatrixError:
            continue
        lhs = g * poly_commutator(p, a, b) * g_inv
        rhs = poly_commutator(p, g * a * g_inv, g * b * g_inv)
        assert lhs == rhs


def test_diagonal_conjugates_share_real_part_but_sum_traces():
    d = GenericMatrix.diagonal(HQ, [QI, -(QJ * QI * QJ.inverse())])
    assert d == GenericMatrix.diagonal(HQ, [QI, QI])
    assert d.trace() == 2 * QI


def test_telescoping_exact_rational():
    r = stream(SEED, "tele-qq")
    for _ in range(80):
        n = r.randint(2, 4)
        p = exact_polynomial(r, r.randint(1, 5))
        a = rational_matrix(r, n, denominators=(1, 2))
        b = rational_matrix(r, n, denominators=(1, 3))
        report = telescoping_expand(p, a, b)
        assert report.equal
        assert report.max_entry_deviation == 0.0
        assert report.lhs == report.rhs


def test_telescoping_exact_quaternion():
    r = stream(SEED, "tele-hq")
    for _ in range(30):
        n = r.randint(2, 3)
        p = exact_polynomial(r, r.randint(1, 4))
        a = quaternion_matrix(r, n)
        b = quaternion_matrix(r, n)
        report = telescoping_expand(p, a, b)
        assert report.equal
        assert report.lhs == report.rhs


def test_telescoping_float_complex():
    gen = np_stream(SEED, "tele-cc")
    r = stream(SEED, "tele-cc-poly")
    for _ in range(30):
        n = int(gen.integers(2, 5))
        p = exact_polynomial(r, r.randint(1, 5))
        a = cc_matrix(gen, n)
        b = cc_matrix(gen, n)
        report = telescoping_expand(p, a, b)
        assert report.equal
        assert report.max_entry_deviation <= 1e-10 * (1.0 + report.lhs.max_magnitude())


def test_telescoping_float_complex_at_tolerance_zero():
    # small integers keep every product exact, so both sides agree to the bit
    a = GenericMatrix(CC, [[1, 2j, 0], [-1, 3, 1], [2, 0, -2j]])
    b = GenericMatrix(CC, [[0, 1, -1], [2j, 1, 0], [1, -3, 2]])
    report = telescoping_expand(Polynomial([5, -1, 2, 1]), a, b, tol=0.0)
    assert not report.lhs.is_zero()
    assert report.max_entry_deviation == 0.0
    assert report.equal


def test_telescoping_commuting_inputs_vanish():
    a = GenericMatrix(QQ, [[1, 2], [3, 4]])
    p = Polynomial([1, 2, 0, 5])
    report = telescoping_expand(p, a, a * a)
    assert report.equal
    assert report.lhs.is_zero() and report.rhs.is_zero()


def test_telescoping_degree_zero():
    a = GenericMatrix(QQ, [[1, 2], [3, 4]])
    b = GenericMatrix(QQ, [[0, 1], [1, 0]])
    report = telescoping_expand(Polynomial([3]), a, b)
    assert report.equal
    assert report.lhs.is_zero() and report.rhs.is_zero()


TELESCOPE_PRODUCTS = [
    (Polynomial([3]), 2),
    (X, 2),
    (Polynomial([0, 1, 1]), 6),
    (Polynomial([1, 2, 3, 4]), 10),
    (Polynomial([0, 1, 0, 0, 0, 1]), 18),
]


@pytest.mark.parametrize("ring", [QQ, HQ, CC], ids=lambda ring: ring.name)
@pytest.mark.parametrize("p, expected", TELESCOPE_PRODUCTS, ids=lambda v: str(v))
def test_telescoping_makes_max_2_4d_minus_2_products(monkeypatch, ring, p, expected):
    # ab and ba, the d - 1 Horner products on each side, then per step i >= 2
    # u_i = (ab) u_{i-1} and t_{i-1} (ba)
    a = GenericMatrix(ring, [[1, 2, 0], [0, 1, 3], [2, 0, 1]])
    b = GenericMatrix(ring, [[0, 1, 1], [1, 0, 2], [3, 1, 0]])
    products = []
    multiply = GenericMatrix.__mul__

    def counting(m, other):
        products.append(other)
        return multiply(m, other)

    monkeypatch.setattr(GenericMatrix, "__mul__", counting)
    report = telescoping_expand(p, a, b)
    assert report.equal
    assert len(products) == expected == max(2, 4 * p.degree - 2)


def test_deviation_and_magnitude():
    a = GenericMatrix(CC, [[1, 2j], [0, -3]])
    assert a.max_magnitude() == 3.0
    b = GenericMatrix.zeros(CC, 2)
    assert a.max_deviation(b) == 3.0
    assert a.max_deviation(a) == 0.0
    with pytest.raises(ValueError):
        a.max_deviation(GenericMatrix.zeros(CC, 3))


@pytest.mark.parametrize("ring, q, expected", [
    (HQ, [10**200, 0, 0, 0], 1e200),
    (HF, [1e200, 0, 0, 0], 1e200),
    (HQ, [Fraction(1, 10**170), 0, 0, 0], 1e-170),
    (HF, [0, 1e-170, 0, 0], 1e-170),
    (HQ, [0, 0, 3 * 10**100, 4 * 10**100], 5e100),
    (HQ, [0, 0, 10**308, 2 * 10**308], math.inf),
    (HF, [1e308, 0, 0, 1.5e308], math.inf),
])
def test_quaternion_magnitude_spans_the_double_range(ring, q, expected):
    # no square of an in-range component overflows or underflows, and a
    # RuntimeWarning fails the test
    assert GenericMatrix(ring, [[0, q], [0, 0]]).max_magnitude() == expected


@pytest.mark.parametrize("ring, bad", [(CC, math.nan), (HF, [0.0, math.nan, 0.0, 0.0])])
@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_max_magnitude_sees_a_nan_in_any_position(ring, bad, i, j):
    # Python's max skips a nan unless it comes first
    rows = [[1, 2], [3, 4]]
    rows[i][j] = bad
    magnitude = GenericMatrix(ring, rows).max_magnitude()
    assert type(magnitude) is float and math.isnan(magnitude)


def test_mixed_ring_arithmetic_rejected():
    a = GenericMatrix.identity(QQ, 2)
    b = GenericMatrix.identity(CC, 2)
    with pytest.raises(ValueError):
        a + b


# Reference arithmetic for the table-driven product and the exact inverse:
# the plain per-entry loop, and Gauss-Jordan over the ring by left row
# operations with the first nonzero pivot of each column.
def reference_product(a, b):
    n = a.n
    return GenericMatrix(a.ring, [
        [sum((a[i, k] * b[k, j] for k in range(1, n)), start=a[i, 0] * b[0, j])
         for j in range(n)]
        for i in range(n)
    ])


def reference_inverse(m):
    ring, n = m.ring, m.n
    zero, one = ring.zero(), ring.one()
    work = [list(row) + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(m.rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != zero), None)
        if pivot_row is None:
            raise SingularMatrixError(col)
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        inv_p = pivot.inverse() if isinstance(pivot, Quaternion) else 1 / Fraction(pivot)
        work[col] = [inv_p * v for v in work[col]]
        for r in range(n):
            factor = work[r][col]
            if r != col and factor != zero:
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return GenericMatrix(ring, [row[n:] for row in work])


def random_rational(r, big=False):
    """An int or a Fraction, with numerators near 2^200 when big."""
    num = r.randint(-3, 3)
    if big:
        num = r.choice((-1, 1)) * (2**200 + r.randint(-1000, 1000))
    if r.random() < 0.4:
        return num
    return Fraction(num, r.choice((1, 2, 3, 7, 12, 2**61 - 1)))


def random_qq(r, n, big=False):
    return GenericMatrix(QQ, [[random_rational(r, big) for _ in range(n)]
                                        for _ in range(n)])


def random_hq(r, n, big=False):
    return GenericMatrix(
        HQ,
        [[Quaternion(*(random_rational(r, big) for _ in range(4))) for _ in range(n)]
         for _ in range(n)],
    )


def assert_exact_entries(m):
    for row in m.rows:
        for x in row:
            parts = x.components() if isinstance(x, Quaternion) else (x,)
            assert all(isinstance(c, (int, Fraction)) for c in parts), m


@pytest.mark.parametrize("n", range(1, 9))
def test_exact_product_matches_entry_loop(n):
    r = random.Random(SEED + n)
    for ring, make in ((QQ, random_qq), (HQ, random_hq)):
        for big in (False, True):
            a, b = make(r, n, big), make(r, n, not big)
            product = a * b
            assert product == reference_product(a, b)
            assert_exact_entries(product)
        zero = GenericMatrix.zeros(ring, n)
        a = make(r, n)
        assert a * zero == zero and zero * a == zero
        assert (zero * zero).is_zero()
        eye = GenericMatrix.identity(ring, n)
        assert a * eye == a and eye * a == a


# The product as sixteen signed component matmuls off Hamilton's table:
# HAMILTON[p][q] = (r, sign) means e_p e_q = sign e_r for e = (1, i, j, k).
HAMILTON = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)


def table_product(a, b):
    table = HAMILTON if len(a) == 4 else (((0, 1),),)
    acc = [0] * len(table)
    for p, row in enumerate(table):
        for q, (r, sign) in enumerate(row):
            prod = a[p] @ b[q]
            acc[r] = acc[r] + prod if sign > 0 else acc[r] - prod
    return np.array(acc)


def assert_matches_table(ring, got, a, b):
    """got is the component stack of a times b, against the table loop."""
    expected = table_product(a, b)
    assert got.shape == expected.shape
    if ring is HF:
        # both sum the same c k terms per entry, in different orders
        scale = np.abs(a).sum(axis=0) @ np.abs(b).sum(axis=0)
        assert (np.abs(got - expected) <= 8 * a.shape[2] * np.finfo(float).eps * scale).all()
    else:
        assert np.array_equal(got, expected)


@settings(max_examples=80, deadline=None)
@given(ring_name=st.sampled_from(sorted(RINGS)), n=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), big=st.booleans())
def test_product_matches_the_table_loop(ring_name, n, seed, big):
    ring = RINGS[ring_name]
    r, gen = random.Random(seed), np_stream(seed, "mul-table")
    make = {"rational": lambda: random_qq(r, n, big), "quaternion": lambda: random_hq(r, n, big),
            "complex": lambda: cc_matrix(gen, n), "quaternion-float": lambda: hf_matrix(gen, n)}
    a, b = make[ring_name](), make[ring_name]()
    (pa, a_den), (pb, b_den) = a.component_form(), b.component_form()
    if ring.exact:
        assert a * b == GenericMatrix._of_parts(ring, table_product(pa, pb), a_den * b_den)
    else:
        assert_matches_table(ring, (a * b).component_form()[0], pa, pb)
    # the (c, 1, k) x (c, k, k) row step of the unitriangular substitution
    for k in range(1, n + 1):
        row, block = pa[:, n - 1:n, :k], pb[:, :k, :k]
        assert_matches_table(ring, component_product(row, block), row, block)


@pytest.mark.parametrize("n", range(1, 6))
def test_float_quaternion_product_matches_entry_loop(n):
    gen = np_stream(SEED + n, "mul-hf")
    for _ in range(5):
        a, b = hf_matrix(gen, n), hf_matrix(gen, n)
        expected = reference_product(a, b)
        assert (a * b).max_deviation(expected) <= 1e-12 * (1 + expected.max_magnitude())


# mixed denominators, so sums and products must find a common one and reduce
mixed_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=12)
mixed_entries = {
    "rational": mixed_fractions,
    "quaternion": st.builds(Quaternion.exact, *(mixed_fractions for _ in range(4))),
}


def assert_lowest_terms(m, expected_rows):
    """m's component form is in lowest terms, and its rows are the
    reference entries as exact values."""
    parts, den = m.component_form()
    assert den > 0 and math.gcd(den, *parts.flat) == 1
    entry_parts = [x.components() if isinstance(x, Quaternion) else (x,)
                   for row in expected_rows for x in row]
    assert den == math.lcm(*(Fraction(c).denominator for e in entry_parts for c in e))
    assert m.rows == tuple(tuple(row) for row in expected_rows)
    assert_exact_entries(m)


@settings(max_examples=60, deadline=None)
@given(
    ring_name=st.sampled_from(sorted(mixed_entries)),
    n=st.integers(1, 3),
    c=mixed_fractions,
    data=st.data(),
)
def test_exact_operators_match_the_entry_loop(ring_name, n, c, data):
    ring = RINGS[ring_name]
    a, b = (GenericMatrix(ring, [entries[i * n:(i + 1) * n] for i in range(n)])
            for entries in (data.draw(st.lists(mixed_entries[ring_name],
                                               min_size=n * n, max_size=n * n))
                            for _ in range(2)))

    def entrywise(f, *ms):
        return [[f(i, j, *xs) for j, xs in enumerate(zip(*rows))]
                for i, rows in enumerate(zip(*(m.rows for m in ms)))]

    cases = [
        (a * b, reference_product(a, b).rows),
        (a + b, entrywise(lambda i, j, x, y: x + y, a, b)),
        (a - b, entrywise(lambda i, j, x, y: x - y, a, b)),
        (-a, entrywise(lambda i, j, x: -x, a)),
        (c * a, entrywise(lambda i, j, x: c * x, a)),
        (a + c, entrywise(lambda i, j, x: x + c if i == j else x, a)),
        (a - c, entrywise(lambda i, j, x: x - c if i == j else x, a)),
    ]
    for got, expected in cases:
        assert_lowest_terms(got, expected)
        assert got == GenericMatrix(ring, expected)
    assert (a == b) == (a.rows == b.rows)
    # equal matrices reached by different paths
    assert (a * 2) * Fraction(1, 2) == a
    assert (a + b) - b == a
    assert c * (a + b) == c * a + c * b
    assert (a - a).is_zero() and (a - a).component_form()[1] == 1
    assert a - a == GenericMatrix.zeros(ring, n)


def test_diagonal_coerces_its_entries():
    d = GenericMatrix.diagonal(HQ, [0, 1, 2])
    assert d[2, 2] == Quaternion.exact(2) and isinstance(d[2, 2], Quaternion)
    e = GenericMatrix.diagonal(HQ, [1, 2, Fraction(1, 3)])
    assert d * e == GenericMatrix.diagonal(HQ, [0, 2, Fraction(2, 3)])
    assert e.inverse() == GenericMatrix.diagonal(HQ, [1, Fraction(1, 2), 3])
    with pytest.raises(SingularMatrixError) as info:
        d.inverse()
    assert info.value.column == 0


def assert_same_bits(a, b):
    """Equal arrays of one dtype, float zeros equal in sign and object
    entries equal in type."""
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == object:
        assert a.tolist() == b.tolist()
        assert [type(x) for x in a.flat] == [type(x) for x in b.flat]
    else:
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


DIAGONALS = {
    "rational": [Fraction(1, 2), Fraction(-2, 3), 5, Fraction(7, 4)],
    "complex": [0.5 - 0.25j, complex(-0.0, 3.0), 2j, complex(1e300, -0.0)],
    "quaternion": [Quaternion.exact(Fraction(1, 2), 0, 3, Fraction(-5, 6)), Quaternion.exact(2),
                   Quaternion.exact(0, Fraction(4, 9), -1, 1), Quaternion.exact(Fraction(1, 4))],
    "quaternion-float": [Quaternion.of_floats(0.5, -0.0, 3.0, 1e-310), Quaternion.of_floats(-2.0),
                         Quaternion.of_floats(0.0, 4.5, -1.0, 1e300), Quaternion.of_floats(-0.0)],
}


@pytest.mark.parametrize("ring", [QQ, CC, HQ, HF], ids=lambda ring: ring.name)
def test_diagonal_matches_the_row_built_matrix(ring):
    for n in range(1, 5):
        entries = DIAGONALS[ring.name][:n]
        rows = [[entries[i] if i == j else ring.zero() for j in range(n)] for i in range(n)]
        (got, got_den), (want, want_den) = (
            m.component_form() for m in (GenericMatrix.diagonal(ring, entries), GenericMatrix(ring, rows)))
        assert got_den == want_den
        assert_same_bits(got, want)
    assert_same_bits(GenericMatrix.identity(ring, 3).component_form()[0],
                     GenericMatrix(ring, [[ring.one() if i == j else ring.zero() for j in range(3)]
                                          for i in range(3)]).component_form()[0])
    with pytest.raises(ValueError, match="nonempty square"):
        GenericMatrix.diagonal(ring, [])


def test_integral_quaternion_entries_have_int_components():
    m = GenericMatrix(HQ, [[Quaternion.exact(1, 2, 3, 4), Quaternion.exact(Fraction(1, 2))],
                           [Quaternion.exact(Fraction(6, 3)), Quaternion.exact(0, -1)]])
    assert [type(c) for q in m.diagonal_entries() for c in q.components()] == [int] * 8
    assert [type(c) for c in m[0, 1].components()] == [Fraction, int, int, int]


def hamilton_block(q):
    """Hamilton's left multiplication by q = (w, x, y, z), written out."""
    w, x, y, z = q
    return [[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]]


@pytest.mark.parametrize("dtype", [object, float], ids=["object", "float64"])
@pytest.mark.parametrize("n", range(1, 5))
def test_left_image_matches_the_hamilton_blocks(n, dtype):
    r = random.Random(SEED + n)
    special = [-0.0, math.inf, -math.inf, 0.0] if dtype is float else [0, Fraction(-1, 3)]
    for m, k in ((n, n), (1, n), (n, 1)):
        values = [r.choice(special) if r.random() < 0.3 else r.randint(-9, 9)
                  for _ in range(4 * m * k)]
        a = np.array(values, dtype=dtype).reshape(4, m, k)
        expected = np.empty((4 * m, 4 * k), dtype=dtype)
        for i in range(m):
            for j in range(k):
                expected[4 * i:4 * i + 4, 4 * j:4 * j + 4] = hamilton_block(a[:, i, j])
                if dtype is object:  # block column t is the entry times the unit e_t
                    q = Quaternion(*a[:, i, j])
                    for t, e in enumerate((Quaternion(1), QI, QJ, QK)):
                        assert list(expected[4 * i:4 * i + 4, 4 * j + t]) == list((q * e).components())
        assert_same_bits(matrix._left_image(a), expected)


@pytest.mark.parametrize("ring", [QQ, CC, HQ, HF], ids=lambda ring: ring.name)
def test_trace_and_diagonal_read_the_components(ring, monkeypatch):
    """diagonal_entries() and trace() of a fresh product build its n
    diagonal entries off the component form, and no other entry, and
    equal the values read off rows."""
    r, gen = random.Random(SEED), np_stream(SEED, f"diagonal-{ring.name}")
    make = {"rational": lambda n: random_qq(r, n, big=n % 2 == 0),
            "quaternion": lambda n: random_hq(r, n, big=n % 2 == 0),
            "complex": lambda n: cc_matrix(gen, n),
            "quaternion-float": lambda n: hf_matrix(gen, n)}[ring.name]
    entries = matrix._entries

    def diagonal_only(ring, parts, den):
        if parts.ndim != 2:  # (components, n): the diagonal alone
            raise AssertionError("an entry off the diagonal was built")
        return entries(ring, parts, den)

    for n in range(1, 6):
        product = make(n) * make(n)
        with monkeypatch.context() as patched:
            patched.setattr(matrix, "_entries", diagonal_only)
            trace, diagonal = product.trace(), product.diagonal_entries()
        from_rows = GenericMatrix(ring, product.rows)
        assert diagonal == from_rows.diagonal_entries() == tuple(product[i, i] for i in range(n))
        assert trace == from_rows.trace() == sum(diagonal, ring.zero())
        assert all(type(x) is type(y) for x, y in zip(diagonal, from_rows.diagonal_entries()))


@pytest.mark.parametrize("n", range(1, 9))
def test_rational_inverse_matches_fraction_gauss_jordan(n):
    r = random.Random(SEED * 3 + n)
    singular_columns = set()
    for trial in range(12):
        m = random_qq(r, n, big=trial % 3 == 2)
        if trial % 4 == 3:
            # column c a combination of the earlier ones (zero when c = 0)
            c = r.randrange(n)
            rows = [list(row) for row in m.rows]
            for row in rows:
                row[c] = sum((k * row[j] for k, j in enumerate(range(c), 2)), start=0)
            m = GenericMatrix(QQ, rows)
        try:
            expected = reference_inverse(m)
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError) as info:
                m.inverse()
            assert info.value.column == exc.column
            singular_columns.add(exc.column)
            continue
        inverse = m.inverse()
        assert inverse == expected
        assert_exact_entries(inverse)
    assert singular_columns  # the singular branch ran
    with pytest.raises(SingularMatrixError) as info:
        GenericMatrix.zeros(QQ, n).inverse()
    assert info.value.column == 0


def right_combination_column(r, m, c):
    """m with column c replaced by sum_k col_k x_k over the earlier columns,
    the quaternions x_k on the right (a zero column when c = 0)."""
    xs = [Quaternion(*(random_rational(r) for _ in range(4))) for _ in range(c)]
    rows = [list(row) for row in m.rows]
    for row in rows:
        row[c] = sum((row[k] * x for k, x in enumerate(xs)), start=Quaternion.exact())
    return GenericMatrix(HQ, rows)


@pytest.mark.parametrize("n", range(1, 7))
def test_quaternion_inverse_matches_left_gauss_jordan(n):
    r = random.Random(SEED * 5 + n)
    singular_columns = set()
    for trial in range(8):
        m = random_hq(r, n, big=trial % 3 == 2)
        if trial % 4 == 3:
            m = right_combination_column(r, m, r.randrange(n))
        elif trial % 4 == 1:
            zero_column = r.randrange(n)
            m = GenericMatrix(HQ, [[Quaternion.exact() if j == zero_column else x
                                    for j, x in enumerate(row)] for row in m.rows])
        try:
            expected = reference_inverse(m)
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError) as info:
                m.inverse()
            assert info.value.column == exc.column
            singular_columns.add(exc.column)
            continue
        inverse = m.inverse()
        assert inverse == expected
        assert_exact_entries(inverse)
    assert singular_columns  # the singular branch ran
    with pytest.raises(SingularMatrixError) as info:
        GenericMatrix.zeros(HQ, n).inverse()
    assert info.value.column == 0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_quaternion_inverse_is_two_sided(n, data):
    parts = data.draw(st.lists(small_fractions, min_size=4 * n * n, max_size=4 * n * n))
    m = GenericMatrix(HQ, [[Quaternion.exact(*parts[4 * (i * n + j):4 * (i * n + j + 1)])
                            for j in range(n)] for i in range(n)])
    try:
        reference_inverse(m)
    except SingularMatrixError as exc:
        with pytest.raises(SingularMatrixError) as info:
            m.inverse()
        assert info.value.column == exc.column
        return
    inverse = m.inverse()
    assert m * inverse == GenericMatrix.identity(HQ, n) == inverse * m


def test_quaternion_inverse_makes_no_quaternion_products(monkeypatch):
    m = random_hq(random.Random(SEED), 4)
    calls = []
    mul = Quaternion.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Quaternion, "__mul__", counted)
    inverse = m.inverse()
    assert calls == []
    monkeypatch.undo()
    assert m * inverse == GenericMatrix.identity(HQ, 4)


@dataclasses.dataclass(frozen=True)
class Report:
    value: float
    count: int = 10**400  # no float holds it; the guard reads float fields only
    flag: bool = False
    side: object = None


def guarded(make):
    """make() under in_double_range, after numpy ops that overflow, underflow
    and take the square root of -1; any RuntimeWarning fails the test."""

    @matrix.in_double_range("out of range")
    def build():
        np.array([1e308]) * 10.0
        np.array([1e-308]) * 1e-308
        np.sqrt(np.array([-1.0]))
        return make()

    return build


def test_in_double_range_returns_a_finite_report_as_it_is():
    report = Report(1.5, side=GenericMatrix(CC, [[math.inf]]))
    before = np.geterr()
    assert guarded(lambda: report)() is report
    assert np.geterr() == before


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_in_double_range_refuses_a_non_finite_float_field(bad):
    with pytest.raises(ValueError, match=r"^build: out of range$"):
        guarded(lambda: Report(bad))()


def test_in_double_range_turns_an_overflow_error_into_the_same_refusal():
    with pytest.raises(ValueError, match=r"^build: out of range$"):
        guarded(lambda: Report(math.ldexp(1.0, 2000)))()
    with pytest.raises(ZeroDivisionError):  # any other error passes through
        guarded(lambda: Report(1.0 / 0))()


# coefficients log-uniform up to the top of the double range, either sign
HUGE = st.builds(
    lambda e, sign: sign * 10.0**e,
    st.floats(-300.0, 308.25),
    st.sampled_from([1.0, -1.0]),
)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 3),
       coeffs=st.lists(HUGE, min_size=2, max_size=5))
# verify-telescope --ring complex --n 3 --seed 1950 draws this pair: both
# sides hold -inf, and Python's max once skipped the nan between them
@example(seed=1950, n=3,
         coeffs=[4.951596225207876e147, 4.549526458309088e307, 1.5306457030451314e23])
def test_telescope_sides_are_finite_or_refused(seed, n, coeffs):
    gen = np_stream(seed, "telescope")
    a, b = cc_matrix(gen, n), cc_matrix(gen, n)
    try:
        report = telescoping_expand(Polynomial(coeffs), a, b)
    except ValueError as exc:
        assert "double range" in str(exc)
        return
    for side in (report.lhs, report.rhs):
        assert np.isfinite(side.component_form()[0]).all()


def rational_matrix_by_entry(rng, n, bound, denominators):
    """rational_matrix as it was written: per entry, randint then choice."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            num = rng.randint(-bound, bound)
            row.append(Fraction(num, rng.choice(denominators)))
        rows.append(row)
    return GenericMatrix(QQ, rows)


def quaternion_matrix_by_entry(rng, n, bound):
    """quaternion_matrix as it was written: four randints per entry."""
    return GenericMatrix(HQ, [
        [Quaternion.exact(*(rng.randint(-bound, bound) for _ in range(4))) for _ in range(n)]
        for _ in range(n)
    ])


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("denominators", [(1,), (1, 2, 3), (1, 1, 2, 3), (6, 4)])
def test_samplers_keep_their_draw_order(n, denominators):
    """The samplers take the draws of the per-entry loops, in their order,
    and no more: the same matrices, then the same next value of the stream."""
    label = f"draw-order-{n}-{denominators}"
    ours, theirs = stream(SEED, label), stream(SEED, label)
    for bound in (1, 3, 9):
        got, expected = (rational_matrix(ours, n, bound, denominators),
                         rational_matrix_by_entry(theirs, n, bound, denominators))
        assert got == expected and got.rows == expected.rows
        got, expected = quaternion_matrix(ours, n, bound), quaternion_matrix_by_entry(theirs, n, bound)
        assert got == expected and got.rows == expected.rows
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("ring", [QQ, CC, HQ, HF], ids=lambda ring: ring.name)
def test_identity_is_the_diagonal_of_ones(ring, n):
    got, expected = GenericMatrix.identity(ring, n), GenericMatrix.diagonal(ring, [ring.one()] * n)
    (parts, den), (e_parts, e_den) = got.component_form(), expected.component_form()
    assert den == e_den and parts.dtype == e_parts.dtype and (parts == e_parts).all()
    assert got.rows == expected.rows and got ** 0 == got
    with pytest.raises(ValueError):
        GenericMatrix.identity(ring, 0)
