import math
from fractions import Fraction

import pytest

from polycomm.poly import OddCase, Polynomial, derive_odd_factor, eval_poly
from polycomm.quat import (
    ONE,
    QI,
    QJ,
    QK,
    Quaternion,
    VerificationError,
    complexifying_conjugator,
    conjugate_by,
    factor_into_two_commutators,
    negating_conjugator,
    poly_commutator,
    power_gap_witness,
    solve_poly_commutator,
)
from polycomm.sampling import exact_polynomial, exact_quaternion, stream

SEED = 20240


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
        assert conjugate_by(g, q).re() == q.re()


def test_negating_conjugator_frozen_values():
    assert negating_conjugator(QI) == QJ
    assert negating_conjugator(QK) == QI
    # i + j projects i onto span{i + j}; the leftover is not unit length
    # and stays unnormalized on the exact backend
    b = negating_conjugator(QI + QJ)
    assert b == Quaternion.exact(0, Fraction(1, 2), Fraction(-1, 2), 0)
    bf = negating_conjugator((QI + QJ).to_float())
    s = 1.0 / math.sqrt(2.0)
    assert bf.approx_eq(Quaternion.of_floats(0, s, -s, 0), 1e-15)
    assert abs(bf.norm() - 1.0) <= 1e-15


def test_negating_conjugator_negates():
    r = stream(SEED, "negate")
    for _ in range(100):
        w = exact_quaternion(r).im()
        if w.is_zero():
            continue
        b = negating_conjugator(w)
        assert conjugate_by(b, w) == -w
        assert b.is_imaginary()


def test_negating_conjugator_rejects_bad_input():
    with pytest.raises(ValueError):
        negating_conjugator(ONE + QI)
    with pytest.raises(ValueError):
        negating_conjugator(Quaternion.exact())


def test_complexifying_conjugator_frozen_exact():
    alpha = Quaternion.exact(2, 0, 3, 4)
    gamma = complexifying_conjugator(alpha)
    assert gamma.is_exact()
    assert conjugate_by(gamma.inverse(), alpha) == Quaternion.exact(2, 5)
    assert conjugate_by(gamma, Quaternion.exact(2, 5)) == alpha


def test_complexifying_conjugator_trivial_cases():
    assert complexifying_conjugator(Quaternion.exact(7)) == ONE
    assert complexifying_conjugator(Quaternion.exact(1, 3)) == ONE
    gamma = complexifying_conjugator(ONE + QJ)
    assert gamma == ONE + QK
    assert conjugate_by(gamma, ONE + QI) == ONE + QJ


def test_complexifying_conjugator_reflected_branch():
    # axis close to -i, where 1 - n i degenerates; exactly -i lands on 2j
    gamma = complexifying_conjugator(-QI)
    assert conjugate_by(gamma.inverse(), -QI) == QI
    alpha = Quaternion.of_floats(0.5, -1.0, 0.1, 0.0)
    gamma = complexifying_conjugator(alpha)
    assert abs(gamma.norm() - 1.0) <= 1e-12
    mapped = conjugate_by(gamma.inverse(), alpha)
    expected = Quaternion.of_floats(0.5, alpha.im().norm(), 0.0, 0.0)
    assert mapped.approx_eq(expected, 1e-12)


def test_complexifying_conjugator_exact_needs_rational_norm():
    with pytest.raises(ValueError, match="float backend"):
        complexifying_conjugator(ONE + QI + QJ)
    gamma = complexifying_conjugator((ONE + QI + QJ).to_float())
    assert abs(gamma.norm() - 1.0) <= 1e-12


def test_complexifying_conjugator_float_sweep():
    r = stream(SEED, "complexify")
    for _ in range(200):
        alpha = Quaternion.of_floats(
            r.uniform(-2, 2), r.uniform(-2, 2), r.uniform(-2, 2), r.uniform(-2, 2)
        )
        if alpha.im().norm() < 1e-6:
            continue
        gamma = complexifying_conjugator(alpha)
        assert abs(gamma.norm() - 1.0) <= 1e-12
        mapped = conjugate_by(gamma.inverse(), alpha)
        expected = Quaternion.of_floats(alpha.re(), alpha.im().norm(), 0.0, 0.0)
        assert mapped.approx_eq(expected, 1e-10 * (1.0 + alpha.norm()))


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
        assert factor.case is OddCase.EVEN_ONLY
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
    assert sol.a.approx_eq(Quaternion.of_floats(0, -1, 0, 0.5), 1e-15)
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
    (a1, b1), (a2, b2) = factor_into_two_commutators(Polynomial([0, 1]), ONE)
    d1 = poly_commutator(Polynomial([0, 1]), a1, b1)
    d2 = poly_commutator(Polynomial([0, 1]), a2, b2)
    assert d1.approx_eq(QJ.to_float(), 1e-12)
    assert d2.approx_eq(-QJ.to_float(), 1e-12)
    assert (d1 * d2).approx_eq(ONE.to_float(), 1e-12)


def test_factor_frozen_imaginary_unit():
    p = Polynomial([0, 1])
    (a1, b1), (a2, b2) = factor_into_two_commutators(p, QI)
    d1 = poly_commutator(p, a1, b1)
    d2 = poly_commutator(p, a2, b2)
    assert d1.approx_eq(QJ.to_float(), 1e-12)
    assert d2.approx_eq(QK.to_float(), 1e-12)
    assert (d1 * d2).approx_eq(QI.to_float(), 1e-12)


def test_factor_zero_alpha():
    p = Polynomial([0, 0, 1])
    pairs = factor_into_two_commutators(p, Quaternion.exact())
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
        pairs = factor_into_two_commutators(p, alpha)
        assert len(pairs) == 2
        prod = ONE.to_float()
        for a, b in pairs:
            d = poly_commutator(p, a, b)
            assert abs(d.re()) <= 1e-10 * (1.0 + d.norm())
            prod = prod * d
        assert (prod - alpha).norm() <= 1e-8 * (1.0 + alpha.norm())


def test_factor_negative_real():
    p = Polynomial([0, 1, 0, 2])
    pairs = factor_into_two_commutators(p, Quaternion.exact(-4))
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
        lhs = conjugate_by(g, poly_commutator(p, a, b))
        rhs = poly_commutator(p, conjugate_by(g, a), conjugate_by(g, b))
        assert lhs == rhs


def test_power_gap_witness_frozen_choices():
    for n in (1, 3, 5, 7, 9, 11):
        assert power_gap_witness(n) == (QI, QJ)
    for n in (2, 6, 10):
        assert power_gap_witness(n) == (QI, QI + QJ)
    for n in (4, 8):
        assert power_gap_witness(n) == (ONE + QI, ONE + QJ)
    assert power_gap_witness(12) == (ONE + 2 * QI, ONE + 2 * QJ)


def test_power_gap_witness_separates():
    for n in range(1, 13):
        alpha, beta = power_gap_witness(n)
        assert (alpha * beta) ** n != (beta * alpha) ** n
    with pytest.raises(ValueError):
        power_gap_witness(0)


def test_residual_check_raises_verification_error():
    with pytest.raises(VerificationError):
        solve_poly_commutator(Polynomial([0, 1]), 2 * QK, tol=-1.0)
