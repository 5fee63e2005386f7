import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomm.matrix import (
    CC,
    HF,
    HQ,
    QQ,
    RINGS,
    GenericMatrix,
    SingularMatrixError,
    telescoping_expand,
)
from polycomm.poly import Polynomial, eval_poly, poly_commutator
from polycomm.quat import QI, QJ, QK, Quaternion
from polycomm.sampling import (
    exact_polynomial,
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

    return GenericMatrix.from_rows(CC, complex_gaussian_matrix(gen, n).tolist())


def hf_matrix(gen, n):
    return GenericMatrix(HF, [[Quaternion.of_floats(*gen.standard_normal(4)) for _ in range(n)]
                              for _ in range(n)])


def e12(ring, n=2):
    rows = [[1 if (i, j) == (0, 1) else 0 for j in range(n)] for i in range(n)]
    return GenericMatrix.from_rows(ring, rows)


def test_ring_registry():
    assert set(RINGS) == {"rational", "complex", "quaternion", "quaternion-float"}
    assert RINGS["rational"] is QQ
    assert QQ.exact and HQ.exact
    assert not CC.exact and not HF.exact


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GenericMatrix.from_rows(QQ, [[1, 2], [3]])
    with pytest.raises(ValueError):
        GenericMatrix.from_rows(QQ, [[1, 2]])
    with pytest.raises(ValueError):
        GenericMatrix.from_rows(QQ, [])


def test_coercion_per_ring():
    m = GenericMatrix.from_rows(QQ, [["1/2", 1], [0, 2]])
    assert m[0, 0] == Fraction(1, 2)
    with pytest.raises(ValueError):
        GenericMatrix.from_rows(QQ, [[0.5, 1], [0, 2]])
    c = GenericMatrix.from_rows(CC, [[1, 1j], [0, 2.5]])
    assert c[0, 1] == 1j
    q = GenericMatrix.from_rows(HQ, [[QI, 0], [1, QK]])
    assert q[0, 1] == Quaternion.exact()
    assert q[1, 0] == Quaternion.exact(1)


def test_indexing_and_shape():
    m = GenericMatrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert m.n == 2
    assert m[1, 0] == 3
    assert m.transpose()[0, 1] == 3
    assert m.diagonal_entries() == (1, 4)
    assert m.trace() == 5


def test_arithmetic():
    a = GenericMatrix.from_rows(QQ, [[1, 2], [3, 4]])
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
    a = GenericMatrix.from_rows(HQ, [[QI, 0], [0, 1]])
    b = GenericMatrix.from_rows(HQ, [[QJ, 0], [0, 1]])
    assert (a * b) == GenericMatrix.from_rows(HQ, [[QK, 0], [0, 1]])
    assert (b * a) == GenericMatrix.from_rows(HQ, [[-QK, 0], [0, 1]])


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
    m = GenericMatrix.from_rows(ring, [[1, 2, 0], [-3, 4, 1], [0, 5, -6]])
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
    m_qq = GenericMatrix.from_rows(QQ, [[1, 2], [3, 4]])
    m_hq = GenericMatrix.from_rows(HQ, [[QI, 1], [0, QJ]])
    for bad in (
        lambda: 0.5 * m_qq,
        lambda: m_qq + 0.5,
        lambda: eval_poly(Polynomial([0.5, 1.0]), m_qq),
        lambda: QI * m_hq,
        lambda: m_hq + QI,
    ):
        with pytest.raises(ValueError):
            bad()


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
    m = GenericMatrix.from_rows(QQ, [[1, 1], [0, 1]])
    assert m.inverse() == GenericMatrix.from_rows(QQ, [[1, -1], [0, 1]])


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
    m = GenericMatrix.from_rows(QQ, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as info:
        m.inverse()
    assert info.value.column == 1
    with pytest.raises(SingularMatrixError) as info:
        GenericMatrix.zeros(QQ, 2).inverse()
    assert info.value.column == 0


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
        GenericMatrix.from_rows(ring, [[bad, 1], [1, 1]]).inverse()


def test_poly_eval_frozen():
    assert eval_poly(X2, e12(QQ)).is_zero()
    d = GenericMatrix.diagonal(HQ, [QI, QJ])
    assert eval_poly(Polynomial([1, 0, 1]), d).is_zero()
    m = GenericMatrix.from_rows(QQ, [[1, 2], [3, 4]])
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
    g = GenericMatrix.from_rows(HQ, [[QJ, 0], [QI, 1]])
    a = GenericMatrix.from_rows(HQ, [[QI, QJ], [-QJ, QI]])
    g_inv = g.inverse()
    assert g_inv == GenericMatrix.from_rows(HQ, [[-QJ, 0], [QK, 1]])
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


def test_telescoping_commuting_inputs_vanish():
    a = GenericMatrix.from_rows(QQ, [[1, 2], [3, 4]])
    p = Polynomial([1, 2, 0, 5])
    report = telescoping_expand(p, a, a * a)
    assert report.equal
    assert report.lhs.is_zero() and report.rhs.is_zero()


def test_telescoping_degree_zero():
    a = GenericMatrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = GenericMatrix.from_rows(QQ, [[0, 1], [1, 0]])
    report = telescoping_expand(Polynomial([3]), a, b)
    assert report.equal
    assert report.lhs.is_zero() and report.rhs.is_zero()


def test_deviation_and_magnitude():
    a = GenericMatrix.from_rows(CC, [[1, 2j], [0, -3]])
    assert a.max_magnitude() == 3.0
    b = GenericMatrix.zeros(CC, 2)
    assert a.max_deviation(b) == 3.0
    assert a.max_deviation(a) == 0.0
    with pytest.raises(ValueError):
        a.max_deviation(GenericMatrix.zeros(CC, 3))


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
    return GenericMatrix.from_rows(QQ, [[random_rational(r, big) for _ in range(n)]
                                        for _ in range(n)])


def random_hq(r, n, big=False):
    return GenericMatrix.from_rows(
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


@pytest.mark.parametrize("ring", [QQ, CC, HQ, HF], ids=lambda ring: ring.name)
def test_trace_and_diagonal_read_the_components(ring):
    """diagonal_entries() and trace() of a fresh product read its n
    diagonal entries off the component form, leaving rows unbuilt, and
    equal the values read off rows."""
    r, gen = random.Random(SEED), np_stream(SEED, f"diagonal-{ring.name}")
    make = {"rational": lambda n: random_qq(r, n, big=n % 2 == 0),
            "quaternion": lambda n: random_hq(r, n, big=n % 2 == 0),
            "complex": lambda n: cc_matrix(gen, n),
            "quaternion-float": lambda n: hf_matrix(gen, n)}[ring.name]
    for n in range(1, 6):
        product = make(n) * make(n)
        trace, diagonal = product.trace(), product.diagonal_entries()
        assert product._rows is None
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
            m = GenericMatrix.from_rows(QQ, rows)
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
    return GenericMatrix.from_rows(HQ, rows)


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
