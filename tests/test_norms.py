import math
from fractions import Fraction

import numpy as np
import pytest

from polycomm.matrix import CC, HQ, QQ, GenericMatrix
from polycomm.norms import (
    BoundReport,
    ConvergenceError,
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


def test_operator_norm_iteration_cap():
    with pytest.raises(ConvergenceError):
        operator_norm(np.diag([1.0, 2.0]), max_iter=1)


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
