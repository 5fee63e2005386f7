from fractions import Fraction

import pytest
from fraction_judge import exact_difference, within
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomm import quat
from polycomm.poly import Polynomial, derive_odd_factor, eval_poly
from polycomm.quat import (
    ONE,
    QI,
    QJ,
    QK,
    Quaternion,
    VerificationError,
    _orthogonal_imaginary,
    factor_into_two_commutators,
    poly_commutator,
    solve_poly_commutator,
)
from polycomm.sampling import exact_quaternion, stream

SEED = 20240


def exact_polynomial(rng, degree: int, bound: int = 3) -> Polynomial:
    """Random integer polynomial of the given degree, coefficients in
    [-bound, bound] and a nonzero leading one."""
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    lead = rng.choice([c for c in range(-bound, bound + 1) if c != 0])
    return Polynomial(coeffs + [lead])


def approx_eq(q: Quaternion, other: Quaternion, tol: float) -> bool:
    return (q - other).norm() <= tol


def test_multiplication_table():
    assert QI * QI == -ONE
    assert QJ * QJ == -ONE
    assert QK * QK == -ONE
    assert QI * QJ == QK
    assert QJ * QK == QI
    assert QK * QI == QJ
    assert QJ * QI == -QK
    assert QI * QJ * QK == -ONE


def test_scalars_mix_into_arithmetic():
    q = Quaternion.exact(1, 2, 3, 4)
    assert 2 * q == q + q
    assert q - 1 == Quaternion.exact(0, 2, 3, 4)
    assert (q / 2) * 2 == q


def test_exact_keeps_integral_components_as_ints():
    q = Quaternion.exact(Fraction(6, 2), Fraction(1, 2), 0, "-4/2")
    assert q.components() == (3, Fraction(1, 2), 0, -2)
    assert [type(c) for c in q.components()] == [int, Fraction, int, int]


def hamilton(a, b):
    """The Hamilton product of two component 4-tuples."""
    (w, x, y, z), (e, f, g, h) = a, b
    return (w * e - x * f - y * g - z * h, w * f + x * e + y * h - z * g,
            w * g - x * h + y * e + z * f, w * h + x * g - y * f + z * e)


def assert_reduced(q, expected):
    """q has the components expected, each an int when integral and a
    Fraction otherwise."""
    assert q.components() == tuple(expected)
    for c in q.components():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), q


@pytest.mark.parametrize("c", [3, -1, 0, Fraction(1, 2), Fraction(-4, 2), Fraction(7, 3)])
def test_an_exact_scalar_scales_the_components(c):
    for q in (Quaternion.exact(2, 4, -6, 8), Quaternion.exact(Fraction(1, 3), 1, 0, Fraction(-3, 2))):
        expected = hamilton((c, 0, 0, 0), q.components())
        assert c * q == Quaternion(c) * q == q * Quaternion(c) == q * c
        assert_reduced(c * q, expected)
        assert_reduced(q * c, expected)


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
rational_quaternions = st.builds(Quaternion.exact, fractions, fractions, fractions, fractions)


@settings(max_examples=200, deadline=None)
@given(a=rational_quaternions, b=rational_quaternions,
       c=st.one_of(st.integers(-6, 6), fractions), k=st.integers(0, 4))
def test_exact_arithmetic_matches_a_fraction_reference(a, b, c, k):
    """Each operation agrees with all-Fraction 4-tuple arithmetic, and every
    integral component of its result is an int."""
    fa, fb = (tuple(Fraction(x) for x in q.components()) for q in (a, b))

    def inverse(t):
        n2 = sum(x * x for x in t)
        return tuple(x / n2 for x in (t[0], -t[1], -t[2], -t[3]))

    power = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for _ in range(k):
        power = hamilton(power, fa)
    cases = [
        (a + b, [x + y for x, y in zip(fa, fb)]),
        (a - b, [x - y for x, y in zip(fa, fb)]),
        (a * b, hamilton(fa, fb)),
        (c * a, [c * x for x in fa]),
        (a * c, [x * c for x in fa]),
        (a ** k, power),
    ]
    if any(fb):
        cases += [(b.inverse(), inverse(fb)), (a / b, hamilton(fa, inverse(fb)))]
    if c:
        cases.append((a / c, [x / c for x in fa]))
    for got, expected in cases:
        assert_reduced(got, expected)


def test_norm_is_multiplicative():
    r = stream(SEED, "norm-mult")
    for _ in range(50):
        p = exact_quaternion(r)
        q = exact_quaternion(r)
        assert (p * q).norm2() == p.norm2() * q.norm2()


def test_conjugate_reverses_products():
    r = stream(SEED, "conj-anti")
    for _ in range(50):
        p = exact_quaternion(r)
        q = exact_quaternion(r)
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()


def test_inverse():
    q = Quaternion.exact(1, 1, 1, 1)
    assert q * q.inverse() == ONE
    assert q.inverse() * q == ONE
    with pytest.raises(ZeroDivisionError):
        Quaternion.exact().inverse()


def test_division_by_quaternion():
    q = Quaternion.exact(2, 0, 1, 0)
    assert (q / q) == ONE


def test_pow_matches_repeated_product():
    q = Quaternion.exact(1, 2, -1, 1)
    acc = ONE
    for n in range(6):
        assert q**n == acc
        acc = acc * q
    with pytest.raises(ValueError):
        q ** (-1)


def test_exact_and_float_backends():
    q = Quaternion.exact("1/2", 1, 0, 0)
    assert q.is_exact()
    assert q.w == Fraction(1, 2)
    f = q.to_float()
    assert not f.is_exact()
    assert f.components() == (0.5, 1.0, 0.0, 0.0)


def test_real_and_imaginary_parts():
    q = Quaternion.exact(3, 1, -2, 5)
    assert q.re() == 3
    assert q.im() == Quaternion.exact(0, 1, -2, 5)
    assert not q.is_imaginary()
    assert q.im().is_imaginary()
    assert q.conjugate() + q == 2 * q.re() * ONE


def test_commutator_difference_is_purely_imaginary():
    """The real part of p(ab) - p(ba) vanishes identically: traces of words
    agree under cyclic rotation, so every power of ab shares its real part
    with the same power of ba."""
    r = stream(SEED, "imaginary")
    for _ in range(200):
        p = exact_polynomial(r, r.randint(1, 6))
        a = exact_quaternion(r)
        b = exact_quaternion(r)
        d = poly_commutator(p, a, b)
        assert d.re() == 0


def test_real_parts_of_powers_agree():
    r = stream(SEED, "re-powers")
    for _ in range(60):
        a = exact_quaternion(r)
        b = exact_quaternion(r)
        for n in range(9):
            assert ((a * b) ** n).re() == ((b * a) ** n).re()


def test_conjugation_preserves_real_part():
    r = stream(SEED, "conj-re")
    for _ in range(40):
        g = exact_quaternion(r)
        if g.is_zero():
            continue
        q = exact_quaternion(r)
        assert (g * q * g.inverse()).re() == q.re()


def test_even_only_shift_identity_exact():
    """p(1 + w) - p(1 - w) = 2 h(|w|^2) w for even p, exactly over the
    rationals."""
    r = stream(SEED, "even-shift")
    for _ in range(60):
        top = r.randint(1, 3)
        coeffs = [0] * (2 * top + 1)
        for m in range(1, top + 1):
            coeffs[2 * m] = Fraction(r.randint(-3, 3))
        if coeffs[2 * top] == 0:
            coeffs[2 * top] = 1
        p = Polynomial(coeffs)
        factor = derive_odd_factor(p)
        assert factor.s == 1
        w = exact_quaternion(r).im()
        lhs = eval_poly(p, ONE + w) - eval_poly(p, ONE - w)
        rhs = 2 * eval_poly(factor.h, w.norm2()) * w
        assert lhs == rhs


def test_solver_frozen_linear():
    sol = solve_poly_commutator(Polynomial([0, 1]), 2 * QK)
    assert sol.a == Quaternion.of_floats(0, 0, -1, 0)
    assert sol.b == QI.to_float()
    assert sol.t == 1.0
    assert sol.residual == 0.0


def test_solver_frozen_square():
    sol = solve_poly_commutator(Polynomial([0, 0, 1]), QI)
    assert sol.t == 0.25
    assert sol.a == Quaternion.of_floats(0, 0, -1, -0.25)
    assert sol.b == QJ.to_float()
    assert sol.residual == 0.0


def test_solver_frozen_quartic():
    sol = solve_poly_commutator(Polynomial([0, 0, 0, 0, 1]), 3 * QJ)
    assert sol.t == 0.5
    assert approx_eq(sol.a, Quaternion.of_floats(0, -1, 0, 0.5), 1e-15)
    assert sol.b == QI.to_float()
    assert sol.residual <= 1e-15


def test_solver_zero_target():
    sol = solve_poly_commutator(Polynomial([0, 0, 1]), Quaternion.exact())
    assert sol.a.is_zero() and sol.b.is_zero()
    assert sol.t == 0.0 and sol.residual == 0.0


def test_solver_rejects_bad_targets():
    with pytest.raises(ValueError):
        solve_poly_commutator(Polynomial([0, 1]), ONE + QI)
    with pytest.raises(ValueError):
        solve_poly_commutator(Polynomial([3]), QI)


def test_solver_residual_sweep():
    r = stream(SEED, "solve-sweep")
    for _ in range(300):
        p = exact_polynomial(r, r.randint(1, 6))
        scale = 10.0 ** r.uniform(-3, 3)
        v = Quaternion.of_floats(
            0.0, r.uniform(-1, 1), r.uniform(-1, 1), r.uniform(-1, 1)
        )
        if v.norm() < 1e-9:
            continue
        v = v * scale
        sol = solve_poly_commutator(p, v)
        d = poly_commutator(p, sol.a, sol.b)
        assert (d - v).norm() <= 1e-8 * (1.0 + v.norm())
        assert sol.residual <= 1e-8 * (1.0 + v.norm())


def test_factor_frozen_real_one():
    (a1, b1), (a2, b2) = factor_into_two_commutators(Polynomial([0, 1]), ONE).pairs
    d1 = poly_commutator(Polynomial([0, 1]), a1, b1)
    d2 = poly_commutator(Polynomial([0, 1]), a2, b2)
    assert approx_eq(d1, QJ.to_float(), 1e-12)
    assert approx_eq(d2, -QJ.to_float(), 1e-12)
    assert approx_eq(d1 * d2, ONE.to_float(), 1e-12)


def test_factor_frozen_imaginary_unit():
    p = Polynomial([0, 1])
    (a1, b1), (a2, b2) = factor_into_two_commutators(p, QI).pairs
    d1 = poly_commutator(p, a1, b1)
    d2 = poly_commutator(p, a2, b2)
    assert approx_eq(d1, QJ.to_float(), 1e-12)
    assert approx_eq(d2, QK.to_float(), 1e-12)
    assert approx_eq(d1 * d2, QI.to_float(), 1e-12)


def test_factor_zero_alpha():
    p = Polynomial([0, 0, 1])
    pairs = factor_into_two_commutators(p, Quaternion.exact()).pairs
    assert pairs[1][0].is_zero() and pairs[1][1].is_zero()
    d1 = poly_commutator(p, *pairs[0])
    d2 = poly_commutator(p, *pairs[1])
    assert (d1 * d2).is_zero()


def test_factor_sweep():
    r = stream(SEED, "factor-sweep")
    for _ in range(60):
        p = exact_polynomial(r, r.randint(1, 4))
        alpha = Quaternion.of_floats(
            r.uniform(-2, 2), r.uniform(-2, 2), r.uniform(-2, 2), r.uniform(-2, 2)
        )
        fac = factor_into_two_commutators(p, alpha)
        pairs = fac.pairs
        assert len(pairs) == 2
        prod = ONE.to_float()
        for a, b in pairs:
            d = poly_commutator(p, a, b)
            assert abs(d.re()) <= 1e-10 * (1.0 + d.norm())
            prod = prod * d
        assert (prod - alpha).norm() <= 1e-8 * (1.0 + alpha.norm())
        # the factorization carries the values its own check compared
        assert fac.factors == tuple(poly_commutator(p, a, b) for a, b in pairs)
        assert fac.residual == (fac.factors[0] * fac.factors[1] - alpha).norm()


def test_factor_evaluates_each_difference_once(monkeypatch):
    # the factors are the differences the two solves checked
    calls = []
    evaluate = quat.poly_commutator

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(quat, "poly_commutator", counting)
    fac = factor_into_two_commutators(Polynomial([0, 1, 0, 1]), Quaternion.of_floats(1, 2, 3, 4))
    assert len(calls) == 2
    assert fac.factors == tuple(evaluate(*args) for args in calls)


def test_orthogonal_axis_skips_a_nearly_parallel_remainder():
    # i minus its projection on 49 i is rounding noise, not a direction
    assert _orthogonal_imaginary(Quaternion.of_floats(0, 49, 0, 0)) == QJ.to_float()
    w = Quaternion.of_floats(0, 3, 1e-9, 0)
    u = _orthogonal_imaginary(w)
    assert abs(u.dot(w)) <= 1e-15 and u.y == 1.0


def test_factor_negative_real():
    p = Polynomial([0, 1, 0, 2])
    pairs = factor_into_two_commutators(p, Quaternion.exact(-4)).pairs
    prod = poly_commutator(p, *pairs[0]) * poly_commutator(p, *pairs[1])
    assert (prod - Quaternion.of_floats(-4)).norm() <= 1e-8 * 5


def test_conjugation_commutes_with_the_difference():
    r = stream(SEED, "conj-diff")
    for _ in range(50):
        p = exact_polynomial(r, r.randint(1, 5))
        a = exact_quaternion(r)
        b = exact_quaternion(r)
        g = exact_quaternion(r)
        if g.is_zero():
            continue
        lhs = g * poly_commutator(p, a, b) * g.inverse()
        rhs = poly_commutator(p, g * a * g.inverse(), g * b * g.inverse())
        assert lhs == rhs


def test_residual_check_raises_verification_error():
    with pytest.raises(VerificationError):
        solve_poly_commutator(Polynomial([0, 1]), 2 * QK, tol=-1.0)


def test_an_infinite_bound_fails_the_check():
    # |alpha|^2 overflows, so u = i is not orthogonal to alpha and the factors
    # multiply to 0; tol * (1 + |alpha|) = inf took residual inf as passing
    with pytest.raises(VerificationError, match="two-factor residual inf exceeds"):
        factor_into_two_commutators(Polynomial([0, 1]), Quaternion.of_floats(0, 1e155, 0, 0))
    with pytest.raises(VerificationError, match="solver residual 0.000e[+]00 exceeds"):
        solve_poly_commutator(Polynomial([0, 1]), Quaternion.of_floats(0, 1, 0, 0), tol=1e308)


def test_a_nan_residual_fails_the_check():
    # c_2 t^2 overflows, so Re p(ab) - Re p(ba) is inf - inf
    with pytest.raises(VerificationError, match="residual nan exceeds"):
        solve_poly_commutator(Polynomial([0, 1, 1e240]), Quaternion.of_floats(0, 0, 1e66, 0))


@settings(max_examples=100, deadline=None)
@given(
    degree=st.integers(1, 4),
    even_only=st.booleans(),
    coeffs=st.lists(st.integers(-8, 8).map(lambda k: k / 4.0), min_size=5, max_size=5),
    exponent=st.floats(-3.0, 3.0),
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda u: sum(c * c for c in u) >= 1e-6
    ),
)
def test_every_witness_passes_an_exact_judge(degree, even_only, coeffs, exponent, direction):
    # one construction, a = b (w - s), for either shift s
    if even_only:
        degree += degree % 2
        coeffs = [0.0 if k % 2 else c for k, c in enumerate(coeffs)]
    else:
        coeffs[1] = coeffs[1] or 1.0
    coeffs = coeffs[: degree + 1]
    coeffs[-1] = coeffs[-1] or 1.0
    p = Polynomial(coeffs)
    assert derive_odd_factor(p).s == (1 if even_only else 0)
    u = Quaternion.of_floats(0.0, *direction)
    v = u * (10.0**exponent / u.norm())
    sol = solve_poly_commutator(p, v)
    assert within(exact_difference(p.coeffs, sol.a, sol.b), v, 1e-8)
