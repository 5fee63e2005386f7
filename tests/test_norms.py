import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomm import norms, poly
from polycomm.cli import main
from polycomm.matrix import CC, HQ, QQ, GenericMatrix
from polycomm.norms import (
    BoundReport,
    SphereEstimate,
    _level_crossings,
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
    m = GenericMatrix(QQ, [[Fraction(1, 2), 1], [0, -2]])
    arr = as_complex_array(m)
    assert arr.dtype == np.complex128
    assert arr[0, 0] == 0.5 and arr[1, 1] == -2
    c = GenericMatrix(CC, [[1j, 0], [0, 1]])
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
        as_complex_array(GenericMatrix(CC, [[1, 0], [0, math.nan]]))


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


def reference_poly_commutator_array(p, a, b):
    """p(AB) - p(BA) by the telescoped recurrence on ndarrays: with X = AB,
    Y = BA, t_1 = u_1 = X - Y, u_i = X u_(i-1) and t_i = t_(i-1) Y + u_i, the
    sum of c_i t_i over the nonzero c_i, i >= 1, from a zero start, with the
    double-range check of poly_commutator_array."""
    x, y = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    cs = [complex(c) for c in (p.coeffs if isinstance(p, Polynomial) else p)]
    with np.errstate(over="ignore", invalid="ignore"):
        xy, yx = x @ y, y @ x
        out = np.zeros_like(xy)
        term = step = xy - yx
        for i, c in enumerate(cs[1:], 1):
            if i > 1:
                step = xy @ step
                term = term @ yx + step
            if c != 0:
                out = out + c * term
    if not np.isfinite(out).all():
        raise ValueError("double range")
    return out


COEFFICIENT = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    # the leading coefficient is nonzero, so the degree is that of the list
    coeffs=st.lists(COEFFICIENT, min_size=1, max_size=6).filter(
        lambda cs: len(cs) == 1 or cs[-1] != 0
    ),
    kind=st.sampled_from(["float", "fraction", "list"]),
    denominator=st.integers(1, 9),
    exponent=st.integers(-520, 520),
    seed=st.integers(0, 2**16),
)
def test_poly_commutator_array_matches_the_ndarray_recurrence(
    n, coeffs, kind, denominator, exponent, seed
):
    if kind == "fraction":
        coeffs = [Fraction(c) / denominator for c in coeffs]
    p = coeffs if kind == "list" else Polynomial(coeffs)
    a, b = (
        np.ldexp(m.real, exponent) + 1j * np.ldexp(m.imag, exponent)
        for m in gaussian_pair(np_stream(seed, "horner-reference"), n)
    )
    try:
        expected = reference_poly_commutator_array(p, a, b)
    except ValueError:
        expected = None
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if expected is None:
            with pytest.raises(ValueError, match=r"p\(AB\) - p\(BA\) exceeds the double range"):
                poly_commutator_array(p, a, b)
        else:
            assert np.array_equal(poly_commutator_array(p, a, b), expected)



@pytest.mark.parametrize(
    "coeffs,a", [([0.0], [[2.0**514]]), ([3.0], np.diag([1e200, 1.0]))], ids=["zero", "three"]
)
def test_a_constant_p_gives_zero_past_the_double_range(coeffs, a):
    # AB = BA overflow, so AB - BA is not finite; a constant p never reads it
    out = poly_commutator_array(coeffs, a, a)
    assert np.array_equal(out, np.zeros_like(out)) and not np.signbit(out.real).any()

def exact_poly_commutator(p, a, b):
    """p(AB) - p(BA) in Fractions for complex matrices of dyadic parts, through
    the real 2n x 2n image [[Re, -Im], [Im, Re]] of each over QQ."""
    n = len(a)

    def image(m):
        m = np.asarray(m, dtype=np.complex128)
        rows = np.block([[m.real, -m.imag], [m.imag, m.real]]).tolist()
        return GenericMatrix(QQ, [[Fraction(v) for v in row] for row in rows])

    d = poly.poly_commutator(Polynomial.exact(p), image(a), image(b))
    return np.array([[complex(d[i, j], d[i + n, j]) for j in range(n)] for i in range(n)])


# parts k / 4 with |k| <= 8 keep every product and sum of a degree-3 p at
# n <= 3 exact in doubles, so the float result must be the exact one; a
# constant term up to 1e300 would swamp a Horner value of the same floats
DYADIC = st.integers(-8, 8).map(lambda k: k / 4)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    c0=st.sampled_from([0.0, 5.0, 2.0**60, 1e20, 1e300]),
    coeffs=st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    data=st.data(),
)
def test_poly_commutator_array_is_exact_on_dyadic_inputs(n, c0, coeffs, data):
    a, b = (
        np.array(data.draw(st.lists(DYADIC, min_size=n * n, max_size=n * n))).reshape(n, n)
        + 1j * np.array(data.draw(st.lists(DYADIC, min_size=n * n, max_size=n * n))).reshape(n, n)
        for _ in range(2)
    )
    p = [c0, *coeffs]
    assert np.array_equal(poly_commutator_array(p, a, b), exact_poly_commutator(p, a, b))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 5),
    c0=COEFFICIENT,
    coeffs=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_poly_commutator_array_does_not_read_the_constant_term(n, c0, coeffs, seed):
    a, b = gaussian_pair(np_stream(seed, "constant-term"), n)
    assert np.array_equal(
        poly_commutator_array([c0, *coeffs], a, b), poly_commutator_array([0.0, *coeffs], a, b)
    )


def test_commuting_one_by_one_inputs_give_zero():
    # Horner's values of x^3 overflow at 1e120 and their difference was nan
    a, b = [[1e120]], [[1.0 + 1j]]
    for p in ([0, 0, 0, 1], [1e300, 2, 0, 1]):
        assert np.array_equal(poly_commutator_array(p, a, b), np.zeros((1, 1)))
    report = check_frobenius_bound([0, 1, 1], a, b)
    assert report.lhs == 0.0 and report.satisfied


def reference_complex_rows(m):
    """A GenericMatrix as complex128, entry by entry off its rows."""
    return np.array([[complex(v) for v in row] for row in m.rows], dtype=np.complex128)


# numerators past 2**64, scaled by 2**shift: entries near 1, near the
# bottom of the double range (down to 0.0) and near its top or past it
RATIONAL = st.builds(
    lambda num, den, shift: Fraction(num, den) * Fraction(2) ** shift,
    st.integers(-(2**90), 2**90),
    st.integers(1, 2**70),
    st.one_of(st.integers(-120, 120), st.integers(-1150, -950), st.integers(940, 1040)),
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 5), data=st.data())
def test_as_complex_array_matches_the_row_conversion(n, data):
    entries = data.draw(st.lists(RATIONAL, min_size=n * n, max_size=n * n))
    m = GenericMatrix(QQ, [entries[i * n:(i + 1) * n] for i in range(n)])
    try:
        expected = reference_complex_rows(m)
    except OverflowError as exc:
        with pytest.raises(OverflowError) as raised:
            as_complex_array(m)
        assert str(raised.value) == str(exc)
    else:
        assert as_complex_array(m).tobytes() == expected.tobytes()


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
    """Record every numpy eigvalsh, eigh and eigvals call by name."""
    calls = []
    for name in ("eigvalsh", "eigh", "eigvals"):
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
    # one batched eigvalsh grid and one level-set eigvals per radius, then a
    # few batched Newton eigh; no level-set test finds a crossing to check
    assert calls.count("eigvalsh") == len(mats)
    assert calls.count("eigvals") == len(mats)
    assert calls.count("eigh") / len(mats) <= 6


def many_peak_matrix(gen, m, jitter):
    """U diag(lambda) U* with m eigenvalues of modulus 1 + jitter * N(0, 1) at
    evenly spaced angles from a random offset, and its numerical radius: a
    normal matrix's is its spectral radius.  Each eigenvalue is one peak of f,
    and the peaks differ in height by about jitter."""
    u, _ = np.linalg.qr(complex_gaussian_matrix(gen, m))
    angles = gen.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(m) / m
    lam = (1.0 + jitter * gen.standard_normal(m)) * np.exp(1j * angles)
    return u @ np.diag(lam) @ u.conj().T, float(np.abs(lam).max())


@pytest.mark.parametrize("jitter", [1e-3, 1e-6, 0.05])
def test_numerical_radius_finds_the_highest_of_many_peaks(jitter):
    # the 32-direction grid and its three Newton windows alone miss the
    # highest of many near-equal peaks in 9 of these 42 cases; the level-set
    # test finds it
    gen = np_stream(SEED, f"numrad-many-peaks-{jitter}")
    for m in range(3, 17):
        a, expected = many_peak_matrix(gen, m, jitter)
        w = numerical_radius(a)
        assert abs(w - expected) <= 1e-12 * expected, (m, w, expected)
        assert not _level_crossings(a, w * (1.0 + 1e-12))[0].size


def test_numerical_radius_finds_a_peak_beside_the_one_at_pi():
    # f(pi) = 1 is the grid's best value and another peak is higher by
    # 1e-11..1e-9; with theta = pi at that peak, H + level I is nearly
    # singular and the test misses 4 of these 100 peaks, so it runs
    # in the frame whose f(pi) is the grid's lowest
    gen = np_stream(SEED, "numrad-beside-pi")
    for _ in range(100):
        m = int(gen.integers(6, 12))
        angles = gen.uniform(0.0, 2.0 * math.pi, m)
        moduli = 1.0 - 0.01 * gen.uniform(0.0, 1.0, m)
        angles[0], moduli[0] = math.pi, 1.0
        moduli[1] = 1.0 + 10.0 ** gen.uniform(-11, -9)
        u, _ = np.linalg.qr(complex_gaussian_matrix(gen, m))
        a = u @ np.diag(moduli * np.exp(1j * angles)) @ u.conj().T
        assert abs(numerical_radius(a) - moduli[1]) <= 1e-12 * moduli[1]


def test_level_crossings_on_a_two_peak_matrix():
    # f peaks at theta = 0 (height 1) and theta = -2 (height 0.999); f(pi) is
    # 0.999 |cos 2| = 0.416, below every level tried
    gen = np_stream(SEED, "numrad-two-peaks")
    u, _ = np.linalg.qr(complex_gaussian_matrix(gen, 4))
    a = u @ np.diag([1.0, 0.999 * np.exp(2j), 0.2, 0.1j]) @ u.conj().T
    w = numerical_radius(a)
    assert abs(w - 1.0) <= 1e-15
    assert not _level_crossings(a, w * (1.0 + 1e-12))[0].size

    # a level 1e-3 below a peak of curvature 1 is crossed about 0.045 from it
    def near(thetas, peak):
        return np.abs(np.angle(np.exp(1j * (thetas - peak)))) < 0.05

    for level, peaks in ((w * (1.0 - 1e-6), [0.0]), (0.999 * (1.0 - 1e-6), [0.0, -2.0])):
        thetas, values = _level_crossings(a, level)
        assert (values >= level).all()
        assert np.allclose(values, support_values(a, thetas), rtol=1e-14)
        for peak in peaks:
            assert near(thetas, peak).any(), (level, peak, thetas)
        assert all(any(near(t, p) for p in peaks) for t in thetas)


def test_constant_f_certifies_without_a_restart(monkeypatch):
    # f is 1/2 at every theta for E12, so no level above it is ever reached
    levels = []

    def recorded(arr, level):
        levels.append(level)
        return _level_crossings(arr, level)

    monkeypatch.setattr(norms, "_level_crossings", recorded)
    assert abs(numerical_radius(E12) - 0.5) <= 1e-15
    assert len(levels) == 1


def test_an_uncertified_radius_is_never_returned(monkeypatch, capsys):
    # a level-set test that always finds a higher value exhausts the rounds;
    # it finds one angle per matrix of the stack, at twice that matrix's level
    def always_above(arr, level):
        return np.zeros(level.shape + (1,)), 2.0 * level[..., None]

    monkeypatch.setattr(norms, "_level_crossings", always_above)
    with pytest.raises(ArithmeticError, match="level-set test"):
        numerical_radius(E12)
    code = main(["verify-bounds", "--poly", "0,1", "--n", "2", "--trials", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: numerical_radius: the level-set test")


def stack_member(gen, n, kind):
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "many-peak":
        return many_peak_matrix(gen, n, 1e-6)[0]
    return structured_matrix(gen, n, kind)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 16),
    kinds=st.lists(
        st.sampled_from(["dense", "hermitian", "nilpotent", "zero", "many-peak"]),
        min_size=1, max_size=5,
    ),
    exponent=st.sampled_from([-600, 0, 600]),
    seed=st.integers(0, 2**16),
)
def test_a_stacked_radius_is_the_radius_alone(n, kinds, exponent, seed):
    gen = np_stream(seed, "numrad-stack")
    stack = np.stack([stack_member(gen, n, kind) for kind in kinds])
    stack = np.ldexp(stack.real, exponent) + 1j * np.ldexp(stack.imag, exponent)
    radii = numerical_radius(stack)
    assert radii.shape == (len(kinds),)
    assert radii.tolist() == [numerical_radius(m) for m in stack]


def test_a_restart_leaves_the_rest_of_the_stack_alone(monkeypatch):
    # the highest of many near-equal peaks is missed by the grid and found by
    # the level-set test, so these members need a second round
    gen = np_stream(SEED, "numrad-stack-restart")
    levels = []

    def recorded(arr, level):
        levels.append(np.shape(level))
        return _level_crossings(arr, level)

    monkeypatch.setattr(norms, "_level_crossings", recorded)
    restarting, plain = [], [complex_gaussian_matrix(gen, 9) for _ in range(3)]
    while len(restarting) < 2:
        a = many_peak_matrix(gen, 9, 1e-6)[0]
        del levels[:]
        numerical_radius(a)
        if len(levels) > 1:
            restarting.append(a)
    alone = [numerical_radius(m) for m in plain + restarting]
    del levels[:]
    assert numerical_radius(np.stack(plain + restarting)).tolist() == alone
    # later rounds run on the two restarting members only
    assert levels[0] == (5,) and all(shape in {(1,), (2,)} for shape in levels[1:])


def test_a_numrad_trial_makes_one_grid_and_one_level_set_solve(monkeypatch):
    # the radii of a trial share one grid eigvalsh and one companion eigvals;
    # no level-set test here finds a crossing to check.  A linear p needs no
    # w(A) or w(B), so its stack is p(AB) - p(BA) and [A,B] alone
    gen = np_stream(SEED, "numrad-trial-count")
    pairs = [gaussian_pair(gen, int(gen.integers(2, 17))) for _ in range(10)]
    calls = count_eigensolves(monkeypatch)
    stacks = []
    radius = norms.numerical_radius
    monkeypatch.setattr(norms, "numerical_radius", lambda s: stacks.append(len(s)) or radius(s))
    for coeffs, size in (([0, 1, 0.5], 4), ([2, -3], 2)):
        del stacks[:]
        for a, b in pairs:
            del calls[:]
            check_numrad_bound(coeffs, a, b)
            assert (calls.count("eigvalsh"), calls.count("eigvals")) == (1, 1)
        assert stacks == [size] * len(pairs)


def test_operator_norm_of_a_stack():
    gen = np_stream(SEED, "opnorm-stack")
    stack = np.stack([complex_gaussian_matrix(gen, 5) for _ in range(3)] + [np.zeros((5, 5))])
    assert operator_norm(stack).tolist() == [operator_norm(m) for m in stack]


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


def test_numerical_radius_past_the_double_range_is_inf(recwarn):
    top = np.full((2, 2), 1e308)  # w = 2e308, as operator_norm's
    assert numerical_radius(top) == math.inf == operator_norm(top)
    gen = np_stream(SEED, "numrad-overflow")
    a = complex_gaussian_matrix(gen, 3)
    near_top = np.ldexp(a.real, 1000) + 1j * np.ldexp(a.imag, 1000)
    others = [a, near_top, np.ldexp(a.real, -1000) + 0j]
    radii = numerical_radius(np.stack([np.pad(top, (0, 1)), *others]))
    assert radii[0] == math.inf
    assert radii[1:].tolist() == [numerical_radius(m) for m in others]
    assert radii[2] == math.ldexp(radii[1], 1000) < math.inf
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_bw_squares_past_the_double_range():
    # ||A||_F^2 underflows to 0, yet both sides are 2e-40: the scaled squares
    # judge the equality pair, and a bound past the double range is refused
    report = check_bottcher_wenzel(1e-170 * E12, 1e150 * E21)
    assert report.satisfied
    assert math.isclose(report.lhs, 2e-40, rel_tol=1e-15)
    assert math.isclose(report.rhs, 2e-40, rel_tol=1e-15)
    assert abs(report.ratio - 1.0) <= 1e-15
    with pytest.raises(ValueError, match="check_bottcher_wenzel: .*double range"):
        check_bottcher_wenzel(1e200 * E12, 1e200 * E21)


@settings(max_examples=200, deadline=None)
@given(la=st.floats(-323.0, 308.0), lb=st.floats(-323.0, 308.0))
def test_bw_equality_pair_over_the_double_range(la, lb):
    """(a E12, b E21) meets the bound with equality, 2 (a b)^2 on both sides,
    for a and b log-uniform over the doubles, subnormals included: a report
    within the double range is satisfied with ratio 1, one past it refused."""
    a, b = 10.0**la, 10.0**lb
    exact = 2 * (Fraction(a) * Fraction(b)) ** 2
    if exact >= 2**1024:
        with pytest.raises(ValueError, match="check_bottcher_wenzel: .*double range"):
            check_bottcher_wenzel(a * E12, b * E21)
        return
    if exact >= 2**1023:
        return  # within rounding of the top of the range: either outcome
    report = check_bottcher_wenzel(a * E12, b * E21)
    assert report.satisfied and abs(report.ratio - 1.0) <= 1e-15
    for side in (report.lhs, report.rhs):
        if exact >= 2**-1000:
            assert math.isclose(side, exact, rel_tol=1e-15)
        else:
            assert side <= 2**-1000


def test_operator_norm_across_the_double_range(recwarn):
    assert abs(operator_norm(np.diag([1e200, 1.0])) - 1e200) <= 1e-14 * 1e200
    assert abs(operator_norm(np.diag([1e-300, 1e-301])) - 1e-300) <= 1e-14 * 1e-300
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_frobenius_norm_across_the_double_range(recwarn):
    assert frobenius_norm(np.diag([1e300, 1e300])) == math.sqrt(2.0) * 1e300
    assert frobenius_norm(np.diag([3e-300, 4e-300])) == 5e-300
    assert frobenius_norm([[1e-200j, 0.0], [0.0, 0.0]]) == 1e-200
    # a subnormal sum of squares keeps few significant bits (6.6e-5 off here)
    assert frobenius_norm(np.full((3, 3), 1.2345e-160)) == 3 * 1.2345e-160
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_frobenius_norm_of_subnormal_entries(recwarn):
    tiny = 2.0**-1074  # the least subnormal, whose reciprocal overflows
    assert frobenius_norm(np.diag([3 * tiny, 4 * tiny])) == 5 * tiny
    assert frobenius_norm([[0.0, 3e-320j], [4e-320, 0.0]]) == 5e-320
    assert frobenius_norm(np.full((2, 2), 1e-310)) == 2e-310
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
        report = check_bottcher_wenzel(a, b)
        assert report.satisfied
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


@pytest.mark.parametrize(
    "coeffs, rhs", [([0, 1, 1], 18.0), ([0, 1, 1, 1], 114.0), ([1, -2, 0.5], 12.0)]
)
def test_numrad_bound_reads_its_closed_form(coeffs, rhs):
    """A = diag(2, 0), B = E12 have w(A) = 2, w(B) = 1/2 and [A, B] = 2 E12,
    so w([A, B]) = 1 and the rhs is sum |c_k| k 2^(2k-1): 2 + 16 for x + x^2,
    where halving the k >= 2 terms reads 10.  AB is nilpotent and BA = 0,
    so the lhs is w(2 c_1 E12) = |c_1|."""
    report = check_numrad_bound(coeffs, np.diag([2.0, 0.0]), E12)
    assert abs(report.rhs - rhs) <= 1e-12 * rhs
    assert abs(report.lhs - abs(coeffs[1])) <= 1e-12 * abs(coeffs[1])


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


def _composed_reports(p, a, b):
    """The three bound reports composed from the public helpers alone, each
    of which converts and checks its own arguments."""
    n, degree = len(a), len(p.coeffs) - 1
    c = commutator_array(a, b)
    frob = norms._report(
        frobenius_norm(poly_commutator_array(p, a, b)),
        frobenius_norm(c) * norms._weight_sum(p, frobenius_norm(a), frobenius_norm(b), 1.0),
        n, degree,
    )
    total = norms._weight_sum(p, numerical_radius(a), numerical_radius(b), 2.0)
    numrad = norms._report(
        numerical_radius(poly_commutator_array(p, a, b)), numerical_radius(c) * total,
        n, degree,
    )
    total = norms._weight_sum(p, operator_norm(a), operator_norm(b), 1.0)
    average = norms._report(
        frobenius_norm(poly_commutator_array(p, a, b)) ** 2,
        frobenius_norm(c) ** 2 * total**2,
        n, degree,
    )
    return frob, numrad, average


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 5), degree=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_checkers_match_the_public_helpers(n, degree, seed):
    gen = np_stream(seed, "checkers")
    a, b = (complex_gaussian_matrix(gen, n).tolist() for _ in range(2))
    p = Polynomial([0.5, *gen.normal(size=degree - 1).tolist(), 1.0])
    reports = (
        check_frobenius_bound(p, a, b),
        check_numrad_bound(p, a, b),
        check_average_bound(p, a, b),
    )
    assert reports == _composed_reports(p, a, b)


# the checkers hand numerical_radius and operator_norm one stack of arrays
# they already converted, so every checker converts A and B and nothing else
CONVERSIONS = {check_frobenius_bound: 2, check_numrad_bound: 2, check_average_bound: 2}


@pytest.mark.parametrize("check", list(CONVERSIONS), ids=lambda check: check.__name__)
def test_checkers_convert_each_input_once(monkeypatch, check):
    gen = np_stream(SEED, "conversions")
    a, b = (complex_gaussian_matrix(gen, 4).tolist() for _ in range(2))
    seen = []
    convert = norms.as_complex_array

    def counting(m):
        seen.append(m)
        return convert(m)

    monkeypatch.setattr(norms, "as_complex_array", counting)
    check(Polynomial([0, 1, Fraction(1, 2)]), a, b)
    assert len(seen) == CONVERSIONS[check]
    assert [m is a for m in seen].count(True) == 1
    assert [m is b for m in seen].count(True) == 1


@pytest.mark.parametrize("check", list(CONVERSIONS), ids=lambda check: check.__name__)
def test_checkers_form_each_product_once(monkeypatch, check):
    # AB and BA are the checker's ndarray products; a quadratic p then takes
    # one core product per side in Horner's rule, and no more
    gen = np_stream(SEED, "products")
    a, b = (complex_gaussian_matrix(gen, 4) for _ in range(2))
    products = []
    multiply = GenericMatrix.__mul__

    def counting(m, other):
        products.append(other)
        return multiply(m, other)

    monkeypatch.setattr(GenericMatrix, "__mul__", counting)
    check(Polynomial([0, 1, Fraction(1, 2)]), a, b)
    assert len(products) == 2


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


def test_sphere_estimate_verdict_at_its_boundary():
    # verified: |mean - exact| <= 4 std_error + 1e-12 (1 + exact), equality included;
    # exact 0 makes the deviation the mean itself, so the edge is hit to the bit
    edge = 4.0 * 0.25 + 1e-12 * (1.0 + 0.0)
    for mean in (edge, -edge):
        at = SphereEstimate(1000, mean, 0.25, 0.0)
        assert at.deviation == edge
        assert at.verified is True
    past = SphereEstimate(1000, math.nextafter(edge, math.inf), 0.25, 0.0)
    assert past.deviation > edge
    assert past.verified is False
    # the 1e-12 margin scales with the exact value
    assert SphereEstimate(1000, 1e6 + 5e-7, 0.0, 1e6).verified is True
    assert SphereEstimate(1000, 1e6 + 2e-6, 0.0, 1e6).verified is False
    assert SphereEstimate(1000, 4.0, 0.0, 4.0).deviation == 0.0


def reference_spherical_average(a, samples, seed=0):
    """The one-shot estimate: z drawn whole, every temporary samples x n."""
    arr = as_complex_array(a)
    n = arr.shape[0]
    gen = np_stream(seed, "sphere-average")
    z = gen.standard_normal((samples, n)) + 1j * gen.standard_normal((samples, n))
    with np.errstate(over="ignore", invalid="ignore"):
        num = (np.abs(z @ arr.T) ** 2).sum(axis=1)
        den = (np.abs(z) ** 2).sum(axis=1)
        vals = n * (num / den)
        mean = float(vals.mean())
        std_error = float(vals.std(ddof=1) / math.sqrt(samples))
        exact_value = float((np.abs(arr) ** 2).sum())
    if not all(map(math.isfinite, (mean, std_error, exact_value))):
        raise ValueError("sphere average out of range")
    return SphereEstimate(samples, mean, std_error, exact_value)


def scaled_estimate(est, k):
    """est with mean, standard error and exact value multiplied by 4^k."""
    return SphereEstimate(
        est.samples, *(math.ldexp(v, 2 * k) for v in (est.mean, est.std_error, est.exact_value))
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 32),
    samples=st.sampled_from([1000, 2047, 2048, 2049, 4097]) | st.integers(1000, 9000),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["real", "complex", "zero", "identity"]),
    k=st.sampled_from([0, 400, -400]),
)
def test_streamed_sphere_average_matches_the_one_shot_draw(n, samples, seed, kind, k):
    if kind == "zero":
        a = np.zeros((n, n))
    elif kind == "identity":
        a = np.eye(n)
    else:
        a = complex_gaussian_matrix(np_stream(seed, "sphere-input"), n)
        a = a.real.copy() if kind == "real" else a
    a = np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
    try:
        expected = reference_spherical_average(a, samples, seed)
    except ValueError:
        # past the one-shot draw's range: the estimate of A / 2^e, times 4^e
        e = math.frexp(np.abs(np.stack([a.real, a.imag])).max())[1]
        unit = np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)
        expected = scaled_estimate(reference_spherical_average(unit, samples, seed), e)
    est = spherical_average(a, samples, seed)
    assert est == expected
    if kind == "identity":
        assert est.mean == math.ldexp(n, 2 * k) and est.std_error == 0.0


def test_spherical_average_memory_does_not_scale_with_samples_times_n():
    a = complex_gaussian_matrix(np_stream(SEED, "sphere-memory"), 16)
    spherical_average(a, 1000, seed=SEED)
    tracemalloc.start()
    try:
        spherical_average(a, 64_000, seed=SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 7.8 MiB of real parts plus one 128-row block, 8.8 MiB in all; z drawn whole peaks at 39
    assert peak <= 12 * 2**20, peak


def test_spherical_average_scales_past_the_sample_range(capsys):
    a = complex_gaussian_matrix(np_stream(SEED, "sphere-range"), 5)
    base = spherical_average(a, 3000, seed=SEED)
    with np.errstate(all="raise"):
        # entries from about 1e77 (k near 256) overflow the samples' variance
        for k in (-200, -60, 100, 240, 260, 300, 400, 505):
            big = spherical_average(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k), 3000, SEED)
            assert big == scaled_estimate(base, k), k
    code = main(["sphere-avg", "--input", "[[1e100,0],[0,1]]", "--samples", "1000"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["verified"] is True and doc["exact_value"] == 1e200


def test_average_bound_degree_one():
    gen = np_stream(SEED, "avg-one")
    a, b = gaussian_pair(gen, 3)
    report = check_average_bound(X, a, b)
    assert report.satisfied
    comm_sq = frobenius_norm(commutator_array(a, b)) ** 2
    assert abs(report.lhs - comm_sq) <= 1e-12 * (1.0 + comm_sq)
    assert report.rhs == comm_sq
    assert abs(report.ratio - 1.0) <= 1e-12


def test_average_bound_sweep():
    gen = np_stream(SEED, "avg-sweep")
    rng = np_stream(SEED, "avg-poly")
    for _ in range(20):
        degree = int(rng.integers(1, 5))
        coeffs = rng.normal(size=degree + 1).tolist()
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 1.0
        a, b = gaussian_pair(gen, int(gen.integers(2, 6)))
        report = check_average_bound(coeffs, a, b)
        assert report.satisfied


def test_average_bound_commuting():
    a = np.diag([1.0, 2.0])
    report = check_average_bound(Polynomial([0, 1, 1]), a, a @ a)
    assert report.lhs == 0.0
    assert report.satisfied


@pytest.mark.parametrize("coeffs", [[0, 1, 1], [0, 1, 1, 1], [1, 2, 0, 0, 3]])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_average_bound_is_sharp_on_near_scalar_pairs(n, coeffs):
    """A = I + eps E and B = I + eps F at eps = 1e-4 bring the sphere-average
    bound within 1% of equality for every p, so a right side that lost part
    of a k >= 2 weight (halved, it reads 2.25 at n = 3, p = x + x^2) fails."""
    gen = np_stream(SEED, f"near-scalar-{n}-{coeffs}")
    e, f = gaussian_pair(gen, n)
    report = check_average_bound(coeffs, np.eye(n) + 1e-4 * e, np.eye(n) + 1e-4 * f)
    assert 0.99 <= report.ratio <= 1.0 + 1e-10


@pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("coeffs", [[0, 1, 1], [0, 1, 1, 1], [1, 2, 0, 0, 3]])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_bounds_hold_on_near_scalar_pairs_down_to_eps_1e_8(n, coeffs, eps):
    """Near A = B = I, AB and BA round by about as much as [A, B] itself; the
    left sides are sums of multiples of the computed [A, B], as the right
    sides are, so every check holds and the sphere average stays sharp."""
    gen = np_stream(SEED, f"near-scalar-{n}-{coeffs}-{eps}")
    e, f = gaussian_pair(gen, n)
    a, b = np.eye(n) + eps * e, np.eye(n) + eps * f
    checks = (check_frobenius_bound, check_numrad_bound, check_average_bound)
    reports = [check(coeffs, a, b) for check in checks]
    assert all(r.satisfied and r.ratio <= 1.0 + 1e-10 for r in reports), reports
    assert reports[2].ratio >= 0.99


def test_average_bound_near_scalar_repro():
    # ROADMAP item 2: the exact ratio of these floats, in Fractions, is
    # 0.99999998; the difference of two Horner values read 1.085
    g = np.random.default_rng(0)
    e, f = (g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2)) for _ in range(2))
    report = check_average_bound([0, 1, 1], np.eye(2) + 1e-8 * e, np.eye(2) + 1e-8 * f)
    assert report.satisfied and abs(report.ratio - 0.99999998) <= 1e-8


def test_average_bound_rejects_constant():
    with pytest.raises(ValueError):
        check_average_bound([1], E12, E21)


def test_degree_is_that_of_the_trimmed_polynomial():
    a, b = gaussian_pair(np_stream(SEED, "trimmed"), 2)
    for check in (check_frobenius_bound, check_numrad_bound, check_average_bound):
        assert check([0, 1, 0], a, b).degree == 1
        with pytest.raises(ValueError, match="nonconstant"):
            check([2, 0, 0], a, b)
    assert [row["degree"] for row in constant_sweep_rows([0, 1, 0], 2, 2)] == [1, 1]


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
