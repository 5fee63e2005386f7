import math
import random
from fractions import Fraction

import pytest

from polycomm.poly import (
    OddCase,
    OddFactor,
    Polynomial,
    derive_odd_factor,
    eval_poly,
    solve_odd_equation,
)

SEED = 1009


def rng(label):
    return random.Random(f"{SEED}:{label}")


def random_poly(r, degree, exact=True):
    if exact:
        coeffs = [r.randint(-3, 3) for _ in range(degree)]
        lead = r.choice([c for c in range(-3, 4) if c != 0])
    else:
        coeffs = [r.uniform(-3.0, 3.0) for _ in range(degree)]
        lead = r.choice([-1.0, 1.0]) * r.uniform(0.5, 3.0)
    return Polynomial(coeffs + [lead])


def test_trailing_zeros_trimmed():
    p = Polynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Polynomial([0, 0, 0]).is_zero()


def test_empty_coefficients_rejected():
    with pytest.raises(ValueError):
        Polynomial([])


def test_degree_and_kind_flags():
    p = Polynomial([Fraction(1, 2), 0, 3])
    assert p.degree == 2
    assert p.is_exact()
    assert not p.is_constant()


def test_exact_constructor_parses_strings():
    p = Polynomial.exact(["1/2", 0, "-3"])
    assert p.coeffs == (Fraction(1, 2), 0, Fraction(-3))
    assert p.is_exact()


def test_eval_simple_values():
    assert eval_poly(Polynomial([0, 0, 1]), 3) == 9
    assert eval_poly(Polynomial([0, 1]), Fraction(2, 7)) == Fraction(2, 7)
    assert Polynomial([1, 1])(1) == 2


def test_eval_matches_power_sum():
    r = rng("eval")
    for _ in range(50):
        p = random_poly(r, r.randint(0, 6), exact=False)
        x = r.uniform(-2.0, 2.0)
        direct = sum(c * x**k for k, c in enumerate(p.coeffs))
        assert math.isclose(eval_poly(p, x), direct, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize(
    "coeffs,case,h_coeffs",
    [
        ([0, 1], OddCase.HAS_ODD_TERM, (1,)),
        ([0, 0, 1], OddCase.EVEN_ONLY, (2,)),
        ([0, 1, 0, 1], OddCase.HAS_ODD_TERM, (1, -1)),
        ([0, 0, 1, 1], OddCase.HAS_ODD_TERM, (0, -1)),
        ([0, 0, 0, 0, 1], OddCase.EVEN_ONLY, (4, -4)),
        ([0, 0, 0, 0, 0, 0, 1], OddCase.EVEN_ONLY, (6, -20, 6)),
        ([5, 0, 3], OddCase.EVEN_ONLY, (6,)),
    ],
)
def test_odd_factor_table(coeffs, case, h_coeffs):
    factor = derive_odd_factor(Polynomial(coeffs))
    assert factor.case is case
    assert factor.h.coeffs == h_coeffs
    assert factor.s == 1


def test_odd_factor_rejects_constant():
    with pytest.raises(ValueError):
        derive_odd_factor(Polynomial([4]))


def test_odd_factor_never_zero():
    r = rng("nonzero-h")
    for _ in range(100):
        p = random_poly(r, r.randint(1, 8))
        assert not derive_odd_factor(p).h.is_zero()


def test_odd_factor_identity_on_the_complex_line():
    """p(w) - p(-w), or p(1+w) - p(1-w) for even p, equals 2 h(|w|^2) w.

    Checked along w = it inside the complex plane, where the quaternion
    identity specializes with |w|^2 = t^2."""
    r = rng("identity")
    for _ in range(80):
        degree = r.randint(1, 7)
        p = random_poly(r, degree, exact=False)
        factor = derive_odd_factor(p)
        t = r.uniform(-2.0, 2.0)
        w = complex(0.0, t)
        if factor.case is OddCase.HAS_ODD_TERM:
            lhs = eval_poly(p, w) - eval_poly(p, -w)
        else:
            lhs = eval_poly(p, 1 + w) - eval_poly(p, 1 - w)
        rhs = 2.0 * eval_poly(factor.h, t * t) * w
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


def test_odd_factor_identity_even_only_forced():
    r = rng("identity-even")
    for _ in range(60):
        top = r.randint(1, 4)
        coeffs = [0.0] * (2 * top + 1)
        for m in range(1, top + 1):
            coeffs[2 * m] = r.uniform(-2.0, 2.0)
        coeffs[2 * top] = r.choice([-1.0, 1.0]) * r.uniform(0.5, 2.0)
        p = Polynomial(coeffs)
        factor = derive_odd_factor(p)
        assert factor.case is OddCase.EVEN_ONLY
        t = r.uniform(-1.5, 1.5)
        w = complex(0.0, t)
        lhs = eval_poly(p, 1 + w) - eval_poly(p, 1 - w)
        rhs = 2.0 * eval_poly(factor.h, t * t) * w
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


def test_solve_linear_case_hits_exact_grid_point():
    factor = derive_odd_factor(Polynomial([0, 1]))
    assert solve_odd_equation(factor, 2.0) == 1.0


def test_solve_constant_double_factor():
    # h = 2 from p = x^2, so 4t = 1
    factor = derive_odd_factor(Polynomial([0, 0, 1]))
    assert math.isclose(solve_odd_equation(factor, 1.0), 0.25, rel_tol=1e-14)


def test_solve_zero_target():
    factor = derive_odd_factor(Polynomial([0, 0, 0, 2]))
    assert solve_odd_equation(factor, 0.0) == 0.0


def test_solve_rejects_negative_target():
    factor = derive_odd_factor(Polynomial([0, 1]))
    with pytest.raises(ValueError):
        solve_odd_equation(factor, -1.0)


def test_solve_rejects_zero_factor():
    bogus = OddFactor(OddCase.HAS_ODD_TERM, Polynomial([0]))
    with pytest.raises(ValueError):
        solve_odd_equation(bogus, 1.0)


def test_solve_can_return_negative_root():
    """2t(1 - t^2) never reaches 2 for t > 0; the solution is -rho with
    rho the real root of x^3 - x - 1."""
    factor = derive_odd_factor(Polynomial([0, 1, 0, 1]))
    t = solve_odd_equation(factor, 2.0)
    assert t < 0
    assert math.isclose(t, -1.324717957244746, rel_tol=1e-12)


def test_solve_residual_sweep():
    r = rng("solve")
    for _ in range(1000):
        p = random_poly(r, r.randint(1, 8), exact=r.random() < 0.5)
        factor = derive_odd_factor(p)
        target = 10.0 ** r.uniform(-6.0, 6.0)
        t = solve_odd_equation(factor, target)
        h = Polynomial([float(c) for c in factor.h.coeffs])
        residual = abs(2.0 * t * eval_poly(h, t * t) - target)
        assert residual <= 1e-12 * (1.0 + target)


def test_solve_huge_target_uses_extended_scan():
    factor = derive_odd_factor(Polynomial([0, 1]))
    target = 1e300
    t = solve_odd_equation(factor, target)
    assert math.isclose(2.0 * t, target, rel_tol=1e-12)
