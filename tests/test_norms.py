import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomm.matrix import CC, HQ, QQ, GenericMatrix
from polycomm.norms import (
    BoundReport,
    as_complex_array,
    check_average_bound,
    check_bottcher_wenzel,
    check_frobenius_bound,
    check_numrad_bound,
    commutator_array,
    constant_sweep_rows,
    empirical_constant,
    frobenius_norm,
    numerical_radius,
    operator_norm,
    poly_commutator_array,
    spherical_average,
)
from polycomm.poly import Polynomial
from polycomm.sampling import complex_gaussian_matrix, np_stream

SEED = 59359

X = Polynomial([0, 1])

E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
E21 = E12.T.copy()


def gaussian_pair(gen, n):
    return complex_gaussian_matrix(gen, n), complex_gaussian_matrix(gen, n)


def test_as_complex_array_accepts_matrices_and_lists():
    m = GenericMatrix.from_rows(QQ, [[Fraction(1, 2), 1], [0, -2]])
    arr = as_complex_array(m)
    assert arr.dtype == np.complex128
    assert arr[0, 0] == 0.5 and arr[1, 1] == -2
    c = GenericMatrix.from_rows(CC, [[1j, 0], [0, 1]])
    assert as_complex_array(c)[0, 0] == 1j
    assert as_complex_array([[1, 2], [3, 4]]).shape == (2, 2)


def test_as_complex_array_rejections():
    with pytest.raises(ValueError):
        as_complex_array(GenericMatrix.identity(HQ, 2))
    with pytest.raises(ValueError):
        as_complex_array(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_complex_array(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        as_complex_array(np.zeros(4))


def test_as_complex_array_rejects_non_finite():
    assert as_complex_array([[1e300, 0], [0, 1e-300]])[0, 0] == 1e300
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="non-finite input"):
            as_complex_array([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite input"):
        as_complex_array(GenericMatrix.from_rows(CC, [[1, 0], [0, math.nan]]))


def test_frobenius_norm_frozen():
    assert frobenius_norm(np.eye(2)) == math.sqrt(2.0)
    assert frobenius_norm(E12) == 1.0
    assert frobenius_norm(np.diag([3.0, 4.0])) == 5.0
    assert frobenius_norm(GenericMatrix.diagonal(QQ, [3, 4])) == 5.0


def test_commutator_array_shift_pair():
    c = commutator_array(E12, E21)
    assert np.array_equal(c, np.diag([1.0 + 0j, -1.0 + 0j]))


def test_poly_commutator_array_matches_direct():
    gen = np_stream(SEED, "poly-comm")
    a, b = gaussian_pair(gen, 3)
    p = Polynomial([1, 0, 2, 1])
    ab, ba = a @ b, b @ a
    direct = (
        2 * (ab @ ab - ba @ ba)
        + (ab @ ab @ ab - ba @ ba @ ba)
    )
    got = poly_commutator_array(p, a, b)
    assert np.max(np.abs(got - direct)) <= 1e-12 * (1 + np.max(np.abs(direct)))
    assert np.array_equal(
        poly_commutator_array([0, 1], a, b), commutator_array(a, b)
    )


def test_operator_norm_frozen():
    assert operator_norm(np.diag([1.0, 2.0])) == 2.0
    assert operator_norm(E12) == 1.0
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_of_unitary():
    v = np.array([1.0, 2.0, -1.0])[:, None]
    householder = np.eye(3) - 2.0 * (v @ v.T) / float((v * v).sum())
    assert abs(operator_norm(householder) - 1.0) <= 1e-10
    phases = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.5])))
    assert abs(operator_norm(phases @ householder) - 1.0) <= 1e-10


def test_operator_norm_against_svd():
    gen = np_stream(SEED, "opnorm")
    for _ in range(25):
        a = complex_gaussian_matrix(gen, int(gen.integers(2, 9)))
        expected = float(np.linalg.svd(a, compute_uv=False)[0])
        assert abs(operator_norm(a) - expected) <= 1e-10 * expected


def numrad_2x2_oracle(arr, points=1_000_000):
    """Numerical radius of a 2x2 matrix from its elliptical numerical range:
    foci at the eigenvalues, minor semi-axis from the Gram trace."""
    lam = np.linalg.eigvals(arr)
    b2 = max(
        (float((np.abs(arr) ** 2).sum()) - abs(lam[0]) ** 2 - abs(lam[1]) ** 2) / 4.0,
        0.0,
    )
    focus = abs(lam[0] - lam[1]) / 2.0
    a_axis = math.sqrt(b2 + focus * focus)
    b_axis = math.sqrt(b2)
    center = (lam[0] + lam[1]) / 2.0
    alpha = np.angle(lam[0] - lam[1]) if focus > 0 else 0.0
    t = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    z = center + np.exp(1j * alpha) * (a_axis * np.cos(t) + 1j * b_axis * np.sin(t))
    return float(np.abs(z).max())


def test_numerical_radius_frozen():
    assert abs(numerical_radius(E12) - 0.5) <= 1e-6
    assert abs(numerical_radius(np.diag([1.0, -3.0])) - 3.0) <= 1e-8
    assert numerical_radius(np.zeros((2, 2))) == 0.0


def test_numerical_radius_of_hermitian_is_operator_norm():
    h = np.array([[2.0, 1.0], [1.0, 0.0]])
    expected = 1.0 + math.sqrt(2.0)
    assert abs(numerical_radius(h) - expected) <= 1e-10
    assert abs(operator_norm(h) - expected) <= 1e-10


def test_numerical_radius_against_ellipse_oracle():
    gen = np_stream(SEED, "numrad-oracle")
    for _ in range(10):
        a = complex_gaussian_matrix(gen, 2)
        expected = numrad_2x2_oracle(a)
        assert abs(numerical_radius(a) - expected) <= 1e-7 * (1.0 + expected)


def test_numerical_radius_between_half_and_full_operator_norm():
    gen = np_stream(SEED, "numrad-band")
    for _ in range(15):
        a = complex_gaussian_matrix(gen, int(gen.integers(2, 7)))
        h = numerical_radius(a)
        on = operator_norm(a)
        assert h <= on * (1.0 + 1e-6)
        assert on <= 2.0 * h * (1.0 + 1e-6)


def count_eigensolves(monkeypatch):
    """Record every numpy eigvalsh and eigh call by name."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_numerical_radius_eigensolve_count(monkeypatch):
    gen = np_stream(SEED, "numrad-count")
    mats = [complex_gaussian_matrix(gen, int(gen.integers(2, 17))) for _ in range(50)]
    calls = count_eigensolves(monkeypatch)
    for a in mats:
        numerical_radius(a)
    # one batched eigvalsh grid per radius, then a few batched Newton eigh
    assert calls.count("eigvalsh") == len(mats)
    assert len(calls) / len(mats) <= 20


def support_values(a, thetas):
    """lambda_max(Herm(e^(i theta) A)) for each theta."""
    rotated = np.exp(1j * np.asarray(thetas))[:, None, None] * np.asarray(a)[None, :, :]
    return np.linalg.eigvalsh((rotated + rotated.conj().transpose(0, 2, 1)) / 2.0)[:, -1]


def field_of_values_bracket(a, directions=4096):
    """Lower and upper bounds on the numerical radius from supporting lines of
    the field of values W(A) (C. R. Johnson, SIAM J. Numer. Anal. 15, 1978).

    f(theta) = lambda_max(Herm(e^(i theta) A)) = max Re(e^(i theta) z) over z in
    W(A), so the largest f is attained by a point of W(A), and W(A) lies in the
    polygon cut out by the lines Re(e^(i theta) z) = f(theta).  In the frame
    rotated to the mid-angle of two adjacent lines, their vertex is
    p + i q with p = (f1 + f2) / (2 cos d) and q = (f1 - f2) / (2 sin d), where
    2 d is the angle step."""
    f = support_values(a, 2.0 * math.pi * np.arange(directions) / directions)
    half = math.pi / directions
    p = (f + np.roll(f, -1)) / (2.0 * math.cos(half))
    q = (f - np.roll(f, -1)) / (2.0 * math.sin(half))
    return float(f.max()), float(np.hypot(p, q).max())


def structured_matrix(gen, n, kind):
    a = complex_gaussian_matrix(gen, n)
    if kind == "nilpotent":
        return np.triu(a, 1)
    if kind == "hermitian":
        return (a + a.conj().T) / 2.0
    if kind == "normal":
        q, _ = np.linalg.qr(complex_gaussian_matrix(gen, n))
        return q @ np.diag(np.diag(a)) @ q.conj().T
    return a


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    kind=st.sampled_from(["dense", "nilpotent", "hermitian", "normal"]),
    exponent=st.integers(-600, 600),
    seed=st.integers(0, 2**16),
)
def test_numerical_radius_inside_the_supporting_line_bracket(n, kind, exponent, seed):
    a = structured_matrix(np_stream(seed, "numrad-bracket"), n, kind)
    a = np.ldexp(a.real, exponent) + 1j * np.ldexp(a.imag, exponent)
    lower, upper = field_of_values_bracket(a)
    w = numerical_radius(a)
    assert lower <= w * (1.0 + 1e-13)
    assert w <= upper * (1.0 + 1e-13)


def golden_section_radius(a, directions=4096, iters=80):
    """Numerical radius by golden-section search on the best window of a fine
    direction grid: slow, derivative-free, and close to the peak."""
    step = 2.0 * math.pi / directions
    best = step * int(np.argmax(support_values(a, step * np.arange(directions))))
    lo, hi = best - step, best + step
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    seen = []
    for _ in range(iters):
        x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        f1, f2 = support_values(a, [x1, x2])
        seen += [f1, f2]
        lo, hi = (x1, hi) if f1 < f2 else (lo, x2)
    return float(max(seen))


def test_numerical_radius_reaches_the_peak():
    gen = np_stream(SEED, "numrad-peak")
    for _ in range(8):
        a = complex_gaussian_matrix(gen, int(gen.integers(2, 9)))
        expected = golden_section_radius(a)
        assert abs(numerical_radius(a) - expected) <= 1e-14 * expected


def test_numerical_radius_invariances(recwarn):
    gen = np_stream(SEED, "numrad-invariance")
    for _ in range(12):
        n = int(gen.integers(2, 9))
        a = complex_gaussian_matrix(gen, n)
        w = numerical_radius(a)
        u, _ = np.linalg.qr(complex_gaussian_matrix(gen, n))
        phase = np.exp(1j * gen.uniform(0.0, 2.0 * math.pi))
        assert abs(numerical_radius(phase * (u @ a @ u.conj().T)) - w) <= 1e-13 * w
        for k in (-990, -600, -1, 1, 600, 990):
            scaled = np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
            assert numerical_radius(scaled) == math.ldexp(w, k)
    assert not [x for x in recwarn if issubclass(x.category, RuntimeWarning)]


def test_operator_norm_across_the_double_range(recwarn):
    assert abs(operator_norm(np.diag([1e200, 1.0])) - 1e200) <= 1e-14 * 1e200
    assert abs(operator_norm(np.diag([1e-300, 1e-301])) - 1e-300) <= 1e-14 * 1e-300
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_frobenius_norm_across_the_double_range(recwarn):
    assert frobenius_norm(np.diag([1e300, 1e300])) == math.sqrt(2.0) * 1e300
    assert frobenius_norm(np.diag([3e-300, 4e-300])) == 5e-300
    assert frobenius_norm([[1e-200j, 0.0], [0.0, 0.0]]) == 1e-200
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_constant_sweep_rows_name_the_double_range(recwarn):
    rows = list(constant_sweep_rows([0, 0, 0, 1e300], 4, 2, seed=0))
    assert all(1e301 < r["lhs"] < 1e303 and math.isfinite(r["ratio"]) for r in rows)
    # p(AB) - p(BA) is finite here, but its Frobenius norm is not
    with pytest.raises(ValueError, match="constant_sweep_rows: .*double range"):
        list(constant_sweep_rows([0, 0, 0, 3e306], 4, 1, seed=0))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_bw_equality_pair():
    report = check_bottcher_wenzel(E12, E21)
    assert report.lhs == 2.0
    assert report.rhs == 2.0
    assert report.satisfied
    assert report.ratio == 1.0
    assert report.n == 2 and report.degree == 1


def test_bw_commuting_pair():
    a = np.diag([1.0, 2.0])
    report = check_bottcher_wenzel(a, a @ a)
    assert report.lhs == 0.0
    assert report.satisfied
    assert report.ratio == 0.0


def test_bw_sweep():
    gen = np_stream(SEED, "bw-sweep")
    for _ in range(100):
        a, b = gaussian_pair(gen, int(gen.integers(2, 7)))
        report = check_bottcher_wenzel(a, b, seed=SEED)
        assert report.satisfied
        assert report.seed == SEED
        assert report.ratio <= 1.0 + 1e-10


def test_frobenius_bound_degree_one_is_equality():
    gen = np_stream(SEED, "frob-eq")
    for poly in (X, Polynomial([0, 3]), Polynomial([5, -2])):
        a, b = gaussian_pair(gen, 4)
        report = check_frobenius_bound(poly, a, b)
        assert abs(report.ratio - 1.0) <= 1e-12
        assert report.satisfied
        assert report.degree == 1


def test_frobenius_bound_sweep():
    gen = np_stream(SEED, "frob-sweep")
    rng = np_stream(SEED, "frob-poly")
    for _ in range(60):
        degree = int(rng.integers(1, 6))
        coeffs = rng.normal(size=degree + 1).tolist()
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 1.0
        a, b = gaussian_pair(gen, int(gen.integers(2, 7)))
        report = check_frobenius_bound(coeffs, a, b)
        assert report.satisfied
        assert report.degree == degree


def test_frobenius_bound_rejects_constant():
    with pytest.raises(ValueError):
        check_frobenius_bound(Polynomial([4]), E12, E21)
    with pytest.raises(ValueError):
        check_frobenius_bound([4], E12, E21)


def test_numrad_bound_degree_one_ratio():
    gen = np_stream(SEED, "numrad-one")
    a, b = gaussian_pair(gen, 3)
    report = check_numrad_bound(X, a, b)
    assert abs(report.ratio - 0.5) <= 1e-12
    assert report.satisfied


def test_numrad_bound_sweep():
    gen = np_stream(SEED, "numrad-sweep")
    rng = np_stream(SEED, "numrad-poly")
    for _ in range(25):
        degree = int(rng.integers(1, 5))
        coeffs = rng.normal(size=degree + 1).tolist()
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 1.0
        a, b = gaussian_pair(gen, int(gen.integers(2, 6)))
        report = check_numrad_bound(coeffs, a, b)
        assert report.satisfied


def test_numrad_bound_rejects_constant():
    with pytest.raises(ValueError):
        check_numrad_bound([7], E12, E21)


def test_spherical_average_identity_is_exact():
    est = spherical_average(np.eye(4), 2000, seed=SEED)
    assert est.mean == 4.0
    assert est.std_error == 0.0
    assert est.exact_value == 4.0
    assert est.samples == 2000


def test_spherical_average_zero_matrix():
    est = spherical_average(np.zeros((3, 3)), 1000, seed=SEED)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_spherical_average_needs_enough_samples():
    with pytest.raises(ValueError):
        spherical_average(np.eye(2), 999)


def test_spherical_average_overflow_is_a_value_error():
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="double"):
            spherical_average(np.diag([1e200, 1.0]), 1000, seed=SEED)
        est = spherical_average(np.diag([1e70, 1.0]), 1000, seed=SEED)
    assert est.exact_value == 1e140 + 1.0


def test_spherical_average_concentrates_on_frobenius_norm():
    est = spherical_average(np.diag([1.0, 2.0, 3.0]), 50_000, seed=SEED)
    assert est.exact_value == 14.0
    assert abs(est.mean - 14.0) <= 4.0 * est.std_error
    est = spherical_average(E12, 50_000, seed=SEED)
    assert abs(est.mean - 1.0) <= 4.0 * est.std_error


def test_spherical_average_reproducible():
    a = spherical_average(E12, 5000, seed=7)
    b = spherical_average(E12, 5000, seed=7)
    assert a == b
    c = spherical_average(E12, 5000, seed=8)
    assert c.mean != a.mean


def test_average_bound_degree_one():
    gen = np_stream(SEED, "avg-one")
    a, b = gaussian_pair(gen, 3)
    report = check_average_bound(X, a, b, samples=4000, seed=SEED)
    assert report.satisfied
    assert report.mc_margin > 0.0
    comm_sq = frobenius_norm(commutator_array(a, b)) ** 2
    assert abs(report.lhs - comm_sq) <= 1e-12 * (1.0 + comm_sq)
    assert abs(report.rhs - comm_sq) <= 6.0 * report.mc_margin


def test_average_bound_sweep():
    gen = np_stream(SEED, "avg-sweep")
    rng = np_stream(SEED, "avg-poly")
    for _ in range(20):
        degree = int(rng.integers(1, 5))
        coeffs = rng.normal(size=degree + 1).tolist()
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 1.0
        a, b = gaussian_pair(gen, int(gen.integers(2, 6)))
        report = check_average_bound(coeffs, a, b, samples=3000, seed=SEED)
        assert report.satisfied


def test_average_bound_commuting():
    a = np.diag([1.0, 2.0])
    report = check_average_bound(Polynomial([0, 1, 1]), a, a @ a, seed=SEED)
    assert report.lhs == 0.0
    assert report.satisfied


def test_average_bound_rejects_constant():
    with pytest.raises(ValueError):
        check_average_bound([1], E12, E21)


def test_constant_sweep_rows_shape():
    rows = list(constant_sweep_rows(X, 3, 5, seed=SEED))
    assert [r["trial"] for r in rows] == [0, 1, 2, 3, 4]
    for r in rows:
        assert r["n"] == 3 and r["degree"] == 1
        assert r["lhs"] >= 0 and r["rhs"] > 0
        assert r["ratio"] == r["lhs"] / r["rhs"]
        assert r["ratio_commutator"] == 1.0


def test_empirical_constant_linear_stays_below_sqrt2():
    est = empirical_constant(X, 4, 200, seed=SEED)
    assert est.trials == 200
    assert est.skipped_near_commuting == 0
    assert est.ratio_norm_product <= math.sqrt(2.0) * (1.0 + 1e-12)
    assert est.ratio_norm_product > 0.5
    assert abs(est.ratio_commutator - 1.0) <= 1e-12


def test_empirical_constant_skips_scalar_size():
    est = empirical_constant(X, 1, 10, seed=SEED)
    assert est.skipped_near_commuting == 10
    assert est.ratio_commutator == 0.0
    assert est.ratio_norm_product == 0.0


def test_empirical_constant_reproducible():
    a = empirical_constant(Polynomial([0, 0, 1]), 3, 50, seed=11)
    b = empirical_constant(Polynomial([0, 0, 1]), 3, 50, seed=11)
    assert a == b
    with pytest.raises(ValueError):
        empirical_constant(X, 3, 0)


def test_report_ratio_conventions():
    zero = np.zeros((2, 2))
    report = check_bottcher_wenzel(zero, zero)
    assert report.lhs == 0.0 and report.rhs == 0.0
    assert report.ratio == 0.0
    assert report.satisfied
    assert isinstance(report, BoundReport)
