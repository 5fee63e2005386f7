import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomm import poly
from polycomm.poly import (
    BracketError,
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
    "coeffs,s,h_coeffs",
    [
        ([0, 1], 0, (1,)),
        ([0, 0, 1], 1, (2,)),
        ([0, 1, 0, 1], 0, (1, -1)),
        ([0, 0, 1, 1], 0, (0, -1)),
        ([0, 0, 0, 0, 1], 1, (4, -4)),
        ([0, 0, 0, 0, 0, 0, 1], 1, (6, -20, 6)),
        ([5, 0, 3], 1, (6,)),
    ],
)
def test_odd_factor_table(coeffs, s, h_coeffs):
    factor = derive_odd_factor(Polynomial(coeffs))
    assert factor.h.coeffs == h_coeffs
    assert factor.s == s


def test_odd_factor_rejects_constant():
    with pytest.raises(ValueError):
        derive_odd_factor(Polynomial([4]))


def test_odd_factor_never_zero():
    r = rng("nonzero-h")
    for _ in range(100):
        p = random_poly(r, r.randint(1, 8))
        assert not derive_odd_factor(p).h.is_zero()


def test_odd_factor_identity_on_the_complex_line():
    """p(s + w) - p(s - w) equals 2 h(|w|^2) w, with s = 0 when p has an
    odd-degree term and s = 1 when every term is even.

    Checked along w = it inside the complex plane, where the quaternion
    identity specializes with |w|^2 = t^2."""
    r = rng("identity")
    for _ in range(80):
        degree = r.randint(1, 7)
        p = random_poly(r, degree, exact=False)
        factor = derive_odd_factor(p)
        t = r.uniform(-2.0, 2.0)
        w = complex(0.0, t)
        assert factor.s == (0 if any(p.coeffs[1::2]) else 1)
        lhs = eval_poly(p, factor.s + w) - eval_poly(p, factor.s - w)
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
        assert factor.s == 1
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
    bogus = OddFactor(Polynomial([0]), 0)
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


# The full scan that solve_odd_equation narrows to its root bounds, kept as
# the reference: t = +-2^k from k = -40 on each axis, then again up to 1023.


def _reference_scan_axes(qf, target, k_max):
    for sign in (1.0, -1.0):
        prev_t, prev_v = 0.0, -target
        for k in range(-40, k_max + 1):
            t = sign * 2.0**k
            v = qf(t)
            if v == 0.0:
                return ("root", t)
            if (v > 0.0) != (prev_v > 0.0):
                lo, hi = (prev_t, t) if prev_t < t else (t, prev_t)
                flo, fhi = (prev_v, v) if prev_t < t else (v, prev_v)
                return ("bracket", lo, hi, flo, fhi)
            prev_t, prev_v = t, v
    return None


def reference_solve_odd_equation(factor, target, tol=1e-12):
    if target < 0:
        raise ValueError("target must be nonnegative")
    h = factor.h
    if h.is_zero():
        raise ValueError("odd factor is identically zero")
    if target == 0:
        return 0.0

    hf = [float(c) for c in h.coeffs]
    q_coeffs = [0.0] * (2 * len(hf))
    for m, c in enumerate(hf):
        q_coeffs[2 * m + 1] = 2.0 * c
    q = Polynomial(q_coeffs)
    dq = Polynomial([k * c for k, c in enumerate(q_coeffs)][1:])

    def qf(t):
        return eval_poly(q, t) - target

    found = _reference_scan_axes(qf, target, 40)
    if found is None:
        found = _reference_scan_axes(qf, target, 1023)
    if found is None:
        raise BracketError(
            f"no sign change for target {target!r} with |t| scanned up to 2**1023"
        )
    if found[0] == "root":
        return found[1]

    _, lo, hi, flo, fhi = found
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = qf(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    t0 = 0.5 * (lo + hi)
    if not (lo < t0 < hi):
        t0 = lo if abs(flo) <= abs(fhi) else hi

    best, best_q = t0, abs(qf(t0))
    for _ in range(3):
        if best_q <= tol * (1.0 + target):
            break
        d = eval_poly(dq, best)
        if d == 0.0 or not math.isfinite(d):
            break
        t1 = best - qf(best) / d
        if not math.isfinite(t1):
            break
        q1 = abs(qf(t1))
        if q1 >= best_q:
            break
        best, best_q = t1, q1
    return best


def _outcome(solve, factor, target):
    """The root's exact bits, or the exception's type and message."""
    try:
        return solve(factor, target).hex()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc).__name__, str(exc)


# magnitudes 1e-300..1e300 and both signs; 1e308 and 1.7e308 double to inf
WIDE_COEFFICIENT = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 10.0),
        st.integers(-300, 299),
    ),
    st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308]),
)
WIDE_TARGET = st.one_of(
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    st.sampled_from([5e-324, 1.7e308, math.inf]),
)


def _wide_poly(coeffs, even_only):
    """A nonconstant p from drawn coefficients; even_only zeroes the odd ones
    (the shift s = 1), and a zero leading coefficient becomes 1."""
    if even_only:
        coeffs = [0.0 if k % 2 else c for k, c in enumerate(coeffs)]
        if len(coeffs) % 2 == 0:
            coeffs = coeffs[:-1]
        if len(coeffs) < 3:
            coeffs = coeffs + [0.0] * (3 - len(coeffs))
    if coeffs[-1] == 0.0:
        coeffs[-1] = 1.0
    return Polynomial(coeffs)


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(WIDE_COEFFICIENT, min_size=2, max_size=9),
    even_only=st.booleans(),
    target=WIDE_TARGET,
)
def test_solve_matches_the_full_scan_bit_for_bit(coeffs, even_only, target):
    factor = derive_odd_factor(_wide_poly(coeffs, even_only))
    if even_only:
        assert factor.s == 1
    assert _outcome(solve_odd_equation, factor, target) == _outcome(
        reference_solve_odd_equation, factor, target
    )


def test_solve_matches_the_full_scan_on_edge_targets():
    # subnormal, near-overflow and infinite targets, and a doubled
    # coefficient that overflows, against the reference
    for coeffs in ([0, 1], [0, -1e-300, 0, 2.5], [0, 1e308], [0, 0, -1.7e308], [1, 3, 0, -2]):
        factor = derive_odd_factor(Polynomial(coeffs))
        for target in (5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 1e300, 1.7e308, math.inf):
            assert _outcome(solve_odd_equation, factor, target) == _outcome(
                reference_solve_odd_equation, factor, target
            ), (coeffs, target)


def test_solve_infinite_target_raises_without_scanning(monkeypatch):
    calls = []
    monkeypatch.setattr(poly, "eval_poly", lambda p, x: calls.append(x) or eval_poly(p, x))
    factor = derive_odd_factor(Polynomial([0, 1]))
    with pytest.raises(
        BracketError, match=r"^no sign change for target inf with \|t\| scanned up to 2\*\*1023$"
    ):
        solve_odd_equation(factor, math.inf)
    assert calls == []


# the coefficient family float-verify sends to solve-quat and factor-quat:
# lower coefficients k/4 for |k| <= 12, a leading one from a short list, and
# some polynomials with their odd coefficients zeroed
WORKLOAD_POLY = st.builds(
    lambda lower, lead, even_only: _wide_poly([k / 4 for k in lower] + [lead], even_only),
    st.lists(st.integers(-12, 12), min_size=1, max_size=4),
    st.sampled_from([-2.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(p=WORKLOAD_POLY, exponent=st.floats(-300.0, 300.0))
def test_solve_makes_at_most_100_horner_calls(p, exponent):
    assert p.degree <= 4
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly, "eval_poly", lambda q, x: calls.append(x) or eval_poly(q, x))
        solve_odd_equation(derive_odd_factor(p), 10.0**exponent)
    assert len(calls) <= 100
