"""Acceptance checks, one per shipped guarantee.

Each test prints a single PASS or FAIL line naming the property it
exercises, then asserts it.  Run with `pytest tests/test_acceptance.py -s`
to see every line; without -s the lines surface on failure.  Seeds are
fixed, so every run checks the same draws.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import permutations

import numpy as np

from polycomm import (
    CC,
    HQ,
    QI,
    QJ,
    QK,
    QQ,
    GenericMatrix,
    Polynomial,
    Quaternion,
    algebraic_degree_probe,
    algebraicity_polynomial,
    check_bottcher_wenzel,
    check_frobenius_bound,
    check_numrad_bound,
    eval_poly,
    factor_into_two_commutators,
    nonzero_trace_witness,
    numerical_radius,
    poly_commutator,
    realize_traceless,
    realize_zero_diagonal,
    solve_poly_commutator,
    spherical_average,
    telescoping_expand,
)
from polycomm.cli import main as cli_main

SEED = 77701


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def rng_for(label):
    return random.Random(f"{SEED}:{label}")


def rand_fraction(rng, lo=-3, hi=3):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 1, 2, 3)))


def rand_qq(rng, n, zero_diag=False):
    rows = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
    if zero_diag:
        for i in range(n):
            rows[i][i] = Fraction(0)
    return GenericMatrix.from_rows(QQ, rows)


def rand_quat(rng, lo=-4, hi=4):
    return Quaternion(
        *(Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2))) for _ in range(4))
    )


def rand_hq(rng, n, lo=-2, hi=2):
    return GenericMatrix.from_rows(
        HQ, [[rand_quat(rng, lo, hi) for _ in range(n)] for _ in range(n)]
    )


def rand_exact_poly(rng, degree):
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(degree + 1)]
    if coeffs[degree] == 0:
        coeffs[degree] = Fraction(rng.choice((-2, -1, 1, 2)))
    return Polynomial(coeffs)


def rand_complex_array(rng, n):
    return np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
    )


def test_criterion_01_telescoping_exact():
    rng = rng_for("c1")
    start = time.perf_counter()
    checked = 0
    for trial in range(200):
        degree = rng.randint(1, 6)
        if trial % 5 < 3:
            n = rng.randint(2, 5)
            a, b = rand_qq(rng, n), rand_qq(rng, n)
        else:
            n = rng.randint(2, 4)
            if n >= 4:
                degree = min(degree, 4)
            a, b = rand_hq(rng, n), rand_hq(rng, n)
        p = rand_exact_poly(rng, degree)
        rep = telescoping_expand(p, a, b)
        assert rep.equal and rep.max_entry_deviation == 0.0, (trial, n, degree)
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        checked == 200 and elapsed < 10.0,
        f"telescoped form equals p(AB)-p(BA) exactly on {checked}/200 "
        f"rational and quaternion draws in {elapsed:.1f}s (limit 10s)",
    )


POLY_FAMILY = {
    1: Polynomial([0, 3]),
    2: Polynomial([1, 0, 1]),
    3: Polynomial([-1, 1, 0, 1]),
    4: Polynomial([0, 2, 0, 0, 1]),
    5: Polynomial([0, 0, -1, 0, 0, 1]),
    6: Polynomial([1, 0, 0, 1, 0, 0, 1]),
}


def test_criterion_02_quaternion_characterization():
    start = time.perf_counter()
    zero_real = 0
    for degree, p in POLY_FAMILY.items():
        rng = rng_for(f"c2a:{degree}")
        for _ in range(500):
            a, b = rand_quat(rng), rand_quat(rng)
            d = poly_commutator(p, a, b)
            assert d.is_exact() and d.w == 0, (degree, a, b)
            zero_real += 1
    solved = 0
    worst = 0.0
    for degree, p in POLY_FAMILY.items():
        rng = rng_for(f"c2b:{degree}")
        for _ in range(200):
            v = Quaternion.of_floats(
                0.0, rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)
            )
            if v.is_zero():
                v = Quaternion.of_floats(0.0, 1.0, 0.0, 0.0)
            sol = solve_poly_commutator(p, v)
            bound = 1e-8 * (1.0 + v.norm())
            assert sol.residual <= bound, (degree, v, sol.residual)
            worst = max(worst, sol.residual / bound)
            solved += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        zero_real == 3000 and solved == 1200 and elapsed < 30.0,
        f"Re(p[a,b]) = 0 exactly on {zero_real} exact pairs and solver "
        f"residual within 1e-8(1+|v|) on {solved} float targets "
        f"(worst fill {worst:.2f}) in {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_03_hand_checked_vectors():
    sol = solve_poly_commutator(Polynomial([0, 1]), Quaternion(0, 0, 0, 2))
    linear_ok = (
        sol.a == Quaternion.of_floats(0.0, 0.0, -1.0, 0.0)
        and sol.b == Quaternion.of_floats(0.0, 1.0, 0.0, 0.0)
        and sol.t == 1.0
        and sol.residual == 0.0
    )
    sol2 = solve_poly_commutator(Polynomial([0, 0, 1]), QI)
    quarter = Fraction(1, 4)
    plus = Quaternion(1, quarter, 0, 0)
    minus = Quaternion(1, -quarter, 0, 0)
    expansion = plus * plus - minus * minus
    square_ok = sol2.t == 0.25 and expansion == QI and expansion.is_exact()
    report(
        3,
        linear_ok and square_ok,
        "p=x, v=2k gives (a,b)=(-j,i) with zero residual; p=x^2, v=i gives "
        "t=1/4 and (1+i/4)^2-(1-i/4)^2 = i exactly over rationals",
    )


def test_criterion_04_product_factorization():
    checked = 0
    for degree in range(1, 6):
        p = POLY_FAMILY[degree]
        rng = rng_for(f"c4:{degree}")
        for _ in range(20):
            alpha = Quaternion.of_floats(*(rng.uniform(-4, 4) for _ in range(4)))
            (a1, b1), (a2, b2) = factor_into_two_commutators(p, alpha)
            f1 = poly_commutator(p, a1, b1)
            f2 = poly_commutator(p, a2, b2)
            assert abs(f1.w) <= 1e-10 and abs(f2.w) <= 1e-10, (degree, alpha)
            prod = f1 * f2
            assert (prod - alpha).norm() <= 1e-8 * (1.0 + alpha.norm()), (
                degree,
                alpha,
            )
            checked += 1
    report(
        4,
        checked == 100,
        f"both factors purely imaginary (1e-10) with product matching alpha "
        f"within 1e-8(1+|alpha|) on {checked}/100 random quaternions",
    )


def _strict_triangles(m):
    n = m.n
    zero = m.ring.zero()
    lower = [[m[i, j] if i > j else zero for j in range(n)] for i in range(n)]
    upper = [[m[i, j] if i < j else zero for j in range(n)] for i in range(n)]
    return (
        GenericMatrix.from_rows(m.ring, lower),
        GenericMatrix.from_rows(m.ring, upper),
    )


def test_criterion_05_zero_diagonal_realization():
    rng = rng_for("c5")
    start = time.perf_counter()
    checked = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        degree = rng.randint(1, 5)
        a = rand_qq(rng, n, zero_diag=True)
        p = rand_exact_poly(rng, degree)
        w = realize_zero_diagonal(p, a)
        assert w.verify() is True
        x1 = eval_poly(p, w.a1 * w.b1)
        y1 = eval_poly(p, w.b1 * w.a1)
        assert x1 - y1 == a, (n, degree)
        g_inv = w.g.inverse()
        a_prime = g_inv * a * w.g
        lower, upper = _strict_triangles(a_prime)
        p_of_d = eval_poly(p, w.d)
        l1 = lower + p_of_d
        u1 = p_of_d - upper
        assert x1 == w.g * l1 * g_inv
        assert y1 == w.g * u1 * g_inv
        assert w.a1 * w.b1 == w.g * (w.g1 * w.d * w.g1.inverse()) * g_inv
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        5,
        checked == 100 and elapsed < 60.0,
        f"p(A1B1)-p(B1A1) = A exactly with triangular intermediates "
        f"p(A1B1) = G L1 G^-1, p(B1A1) = G U1 G^-1 on {checked}/100 "
        f"zero-diagonal rational draws in {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_06_traceless_realization_and_converse():
    rng = rng_for("c6")
    realized = 0
    for _ in range(100):
        n = rng.randint(2, 5)
        degree = rng.randint(1, 4)
        rows = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
        rows[n - 1][n - 1] = -sum(rows[i][i] for i in range(n - 1))
        a = GenericMatrix.from_rows(QQ, rows)
        if all(
            a[i, j] == (a[0, 0] if i == j else 0)
            for i in range(n)
            for j in range(n)
        ):
            a = a + GenericMatrix.from_rows(
                QQ,
                [
                    [Fraction(1) if (i, j) == (0, 1) else Fraction(0) for j in range(n)]
                    for i in range(n)
                ],
            )
        p = rand_exact_poly(rng, degree)
        w = realize_traceless(p, a)
        assert w.verify() is True
        diff = eval_poly(p, w.a1 * w.b1) - eval_poly(p, w.b1 * w.a1)
        assert diff == a, (n, degree)
        realized += 1
    rng2 = rng_for("c6-converse")
    traceless = 0
    for _ in range(500):
        n = rng2.randint(2, 4)
        p = rand_exact_poly(rng2, rng2.randint(1, 5))
        a, b = rand_qq(rng2, n), rand_qq(rng2, n)
        tr = poly_commutator(p, a, b).trace()
        assert tr == 0, (n, p.coeffs)
        traceless += 1
    report(
        6,
        realized == 100 and traceless == 500,
        f"{realized}/100 noncentral traceless rational matrices realized "
        f"exactly; trace(p[A,B]) = 0 exactly on {traceless}/500 rational pairs",
    )


def test_criterion_07_nonzero_trace_witnesses():
    family = [
        Polynomial([0, 1]),
        Polynomial([0, 0, 1]),
        Polynomial([0, 1, 1]),
        Polynomial([0, 0, 0, 1]),
    ]
    found = 0
    for p in family:
        for n in (2, 3):
            a, b = nonzero_trace_witness(p, n)
            tr = poly_commutator(p, a, b).trace()
            assert isinstance(tr, Quaternion) and not tr.is_zero(), (p.coeffs, n)
            found += 1
    a, b = nonzero_trace_witness(Polynomial([0, 0, 1]), 2)
    square_trace = poly_commutator(Polynomial([0, 0, 1]), a, b).trace()
    pinned = square_trace == Quaternion(0, 0, 0, -4)
    report(
        7,
        found == 8 and pinned,
        "quaternion pairs with trace(p[a,b]) != 0 found for x, x^2, x^2+x, "
        "x^3 at n=2,3; the x^2 witness has trace -4k exactly",
    )


def test_criterion_08_similarity_counterexample():
    a = GenericMatrix.from_rows(HQ, [[QI, QJ], [-QJ, QI]])
    g = GenericMatrix.from_rows(HQ, [[QJ, Quaternion(0)], [QI, Quaternion(1)]])
    conjugated = g.inverse() * a * g
    e12 = GenericMatrix.from_rows(HQ, [[0, 1], [0, 0]])
    ok = conjugated == e12
    report(
        8,
        ok,
        "G^-1 [[i,j],[-j,i]] G = [[0,1],[0,0]] exactly for G = [[j,0],[i,1]], "
        "a similar pair with different diagonal traces",
    )


def _flatten(m):
    out = []
    for i in range(m.n):
        for j in range(m.n):
            out.append(Fraction(m[i, j]))
    return out


def _min_poly_degree(a):
    """Least k with I, A, .., A^k linearly dependent, by exact elimination."""
    n = a.n
    powers = [GenericMatrix.identity(QQ, n)]
    rows = [_flatten(powers[0])]
    for k in range(1, n + 1):
        powers.append(powers[-1] * a)
        rows.append(_flatten(powers[-1]))
        mat = [list(r) for r in rows]
        rank = 0
        cols = len(mat[0])
        for col in range(cols):
            pivot = next(
                (r for r in range(rank, len(mat)) if mat[r][col] != 0), None
            )
            if pivot is None:
                continue
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            inv = mat[rank][col]
            for r in range(len(mat)):
                if r != rank and mat[r][col] != 0:
                    factor = mat[r][col] / inv
                    mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
            rank += 1
        if rank < len(rows):
            return k
    return n


def _companion(tail):
    """Companion matrix of x^m + tail[m-1] x^(m-1) + .. + tail[0]."""
    m = len(tail)
    rows = []
    for i in range(m):
        row = [Fraction(0)] * m
        if i > 0:
            row[i - 1] = Fraction(1)
        row[m - 1] = Fraction(-tail[i])
        rows.append(row)
    return GenericMatrix.from_rows(QQ, rows)


def test_criterion_09_algebraicity_probe():
    rng = rng_for("c9")
    for _ in range(20):
        q, r = rand_quat(rng), rand_quat(rng)
        assert algebraicity_polynomial(q, [r]) == r * q - q * r
    for _ in range(10):
        n = rng.randint(2, 3)
        a, r = rand_qq(rng, n), rand_qq(rng, n)
        assert algebraicity_polynomial(a, [r]) == r * a - a * r
    g2_vanished = 0
    for _ in range(50):
        q = rand_quat(rng)
        probes = [rand_quat(rng), rand_quat(rng)]
        assert algebraicity_polynomial(q, probes).is_zero()
        g2_vanished += 1
    matched = 0
    cases = []
    case_rng = rng_for("c9-matrices")
    for _ in range(30):
        n = case_rng.randint(1, 4)
        rows = [
            [Fraction(case_rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)
        ]
        cases.append(GenericMatrix.from_rows(QQ, rows))
    for value in (0, 1, -2):
        for n in (2, 3, 4):
            cases.append(
                GenericMatrix.diagonal(QQ, [Fraction(value)] * n)
            )
    cases.append(GenericMatrix.diagonal(QQ, [Fraction(1), Fraction(2)]))
    cases.append(GenericMatrix.diagonal(QQ, [Fraction(0), Fraction(3), Fraction(3)]))
    cases.append(GenericMatrix.from_rows(QQ, [[0, 1], [0, 0]]))
    cases.append(GenericMatrix.from_rows(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    cases.append(_companion([2, 0, 0]))
    cases.append(_companion([1, 1]))
    cases.append(_companion([-1, 0, 0, 0]))
    cases.append(
        GenericMatrix.from_rows(
            QQ, [[2, 0, 0], [0, 0, -1], [0, 1, 0]]
        )
    )
    cases.append(GenericMatrix.from_rows(QQ, [[1, 1], [0, 1]]))
    cases.append(_companion([3, 1, 0, 2]))
    cases.append(
        GenericMatrix.from_rows(
            QQ,
            [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
        )
    )
    cases = cases[:50]
    for idx, a in enumerate(cases):
        probe = algebraic_degree_probe(a, trials=3, seed=SEED + idx)
        oracle = _min_poly_degree(a)
        assert probe.estimated_degree == oracle, (idx, probe, oracle)
        matched += 1
    cube_root = algebraic_degree_probe(_companion([-2, 0, 0]), trials=3, seed=SEED)
    report(
        9,
        g2_vanished == 50 and matched == len(cases) and cube_root.estimated_degree == 3,
        f"g1 = ra - ar identically, g2 vanished on {g2_vanished}/50 "
        f"quaternions, probe matched the minimal-polynomial oracle on "
        f"{matched}/{len(cases)} rational matrices and returns 3 for the "
        f"companion of x^3 - 2",
    )


def test_criterion_10_norm_bounds():
    rng = rng_for("c10")
    counts = {"bw": 0, "frobenius": 0, "numrad": 0}
    for _ in range(500):
        n = rng.randint(2, 8)
        a, b = rand_complex_array(rng, n), rand_complex_array(rng, n)
        assert check_bottcher_wenzel(a, b).satisfied
        counts["bw"] += 1
    for _ in range(500):
        n = rng.randint(2, 8)
        degree = rng.randint(1, 6)
        coeffs = [rng.uniform(-2, 2) for _ in range(degree + 1)]
        if coeffs[degree] == 0.0:
            coeffs[degree] = 1.0
        p = Polynomial(coeffs)
        a, b = rand_complex_array(rng, n), rand_complex_array(rng, n)
        assert check_frobenius_bound(p, a, b).satisfied
        counts["frobenius"] += 1
    for _ in range(500):
        n = rng.randint(2, 6)
        degree = rng.randint(1, 6)
        coeffs = [rng.uniform(-2, 2) for _ in range(degree + 1)]
        if coeffs[degree] == 0.0:
            coeffs[degree] = 1.0
        p = Polynomial(coeffs)
        a, b = rand_complex_array(rng, n), rand_complex_array(rng, n)
        assert check_numrad_bound(p, a, b).satisfied
        counts["numrad"] += 1
    a, b = rand_complex_array(rng, 5), rand_complex_array(rng, 5)
    collapse = check_frobenius_bound(Polynomial([0.0, 1.0]), a, b)
    collapse_ok = abs(collapse.ratio - 1.0) <= 1e-12
    shift = [[0, 1], [0, 0]]
    shift_t = [[0, 0], [1, 0]]
    eq = check_bottcher_wenzel(shift, shift_t)
    equality_ok = eq.lhs == 2.0 and eq.rhs == 2.0 and eq.ratio == 1.0
    report(
        10,
        all(c == 500 for c in counts.values()) and collapse_ok and equality_ok,
        f"no violations in 500 trials each of the commutator, telescoped "
        f"Frobenius, and numerical-radius bounds; degree-1 ratio = 1 within "
        f"1e-12; shift pair attains lhs = rhs = 2 exactly",
    )


def test_criterion_11_sphere_average():
    start = time.perf_counter()
    fixed = []
    for n in (2, 3, 5, 8):
        gen = rng_for(f"c11:{n}")
        fixed.append(("identity", np.eye(n, dtype=complex)))
        fixed.append(("ramp", np.diag(np.arange(1, n + 1, dtype=complex))))
        fixed.append(("shift", np.eye(n, k=1, dtype=complex)))
        fixed.append(("gauss", rand_complex_array(gen, n)))
        outer = np.array([[complex(i + 1) for _ in range(n)] for i in range(n)])
        fixed.append(("rank-one", outer / n))
    inside = 0
    exact_cases = 0
    for idx, (label, arr) in enumerate(fixed):
        est = spherical_average(arr, samples=100_000, seed=SEED + idx)
        exact = float((np.abs(arr) ** 2).sum())
        band = 4.0 * est.std_error + 1e-12 * (1.0 + exact)
        assert abs(est.mean - exact) <= band, (label, arr.shape, est)
        inside += 1
        if label == "identity":
            n = arr.shape[0]
            assert est.mean == float(n) and est.std_error == 0.0
            exact_cases += 1
    elapsed = time.perf_counter() - start
    report(
        11,
        inside == 20 and exact_cases == 4 and elapsed < 30.0,
        f"n * MC average within 4 standard errors of |A|_F^2 on {inside}/20 "
        f"fixed matrices at 1e5 samples, identity exact at every size, "
        f"in {elapsed:.1f}s (limit 30s)",
    )


def numrad_2x2_oracle(arr, points=1_000_000):
    """Max |z| over the elliptical numerical range of a 2x2 matrix."""
    arr = np.asarray(arr, dtype=complex)
    eig = np.linalg.eigvals(arr)
    spread = abs(eig[0] - eig[1]) / 2.0
    gram = float(np.trace(arr.conj().T @ arr).real)
    minor_sq = (gram - abs(eig[0]) ** 2 - abs(eig[1]) ** 2) / 4.0
    minor = math.sqrt(max(minor_sq, 0.0))
    major = math.sqrt(minor**2 + spread**2)
    center = (eig[0] + eig[1]) / 2.0
    axis = eig[0] - eig[1]
    rot = axis / abs(axis) if abs(axis) > 0 else 1.0
    theta = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    boundary = center + rot * (major * np.cos(theta) + 1j * minor * np.sin(theta))
    return float(np.abs(boundary).max())


def test_criterion_12_numerical_radius():
    diag = numerical_radius([[1, 0], [0, -3]])
    diag_ok = abs(diag - 3.0) <= 1e-8
    shift = [[0, 1], [0, 0]]
    h_shift = numerical_radius(shift)
    oracle = numrad_2x2_oracle(shift)
    shift_ok = abs(h_shift - 0.5) <= 1e-6 and abs(h_shift - oracle) <= 1e-6
    rng = rng_for("c12")
    chained = 0
    for _ in range(500):
        n = rng.randint(2, 6)
        arr = rand_complex_array(rng, n)
        if rng.random() < 0.3:
            arr = arr.real.astype(complex)
        h = numerical_radius(arr)
        s2 = float(np.linalg.norm(arr, 2))
        assert h <= s2 * (1.0 + 1e-6) and s2 <= 2.0 * h * (1.0 + 1e-6), (n, h, s2)
        chained += 1
    report(
        12,
        diag_ok and shift_ok and chained == 500,
        f"h(diag(1,-3)) = 3 within 1e-8, h(shift) = 0.5 within 1e-6 of the "
        f"million-point boundary oracle, h <= |A|_2 <= 2h held on "
        f"{chained}/500 random matrices",
    )


def test_criterion_13_cli_determinism(capsys):
    runs = [
        ["solve-quat", "--poly", "0,1,0,2", "--input", "[0,3,-1,2]"],
        [
            "realize-matrix",
            "--poly",
            "0,0,1",
            "--input",
            '{"ring": "rational", "entries": [[0, 1, 2], [1, 0, 1], [-1, 3, 0]]}',
        ],
        [
            "realize-traceless",
            "--poly",
            "0,1,1",
            "--input",
            '{"ring": "rational", "entries": [[2, 1], [4, -2]]}',
        ],
        [
            "verify-bounds",
            "--poly",
            "0,1,1",
            "--n",
            "3",
            "--trials",
            "2",
            "--samples",
            "2000",
            "--seed",
            "11",
        ],
        ["verify-telescope", "--ring", "quaternion", "--poly", "1,2,1", "--trials", "5"],
        ["sweep-constants", "--poly", "0,1", "--n", "3", "--trials", "30", "--format", "csv"],
    ]
    deterministic = 0
    verified_docs = 0
    for argv in runs:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == 0 and code2 == 0, argv
        assert out1 == out2, argv
        deterministic += 1
        if argv[0] not in ("sweep-constants",) and "--format" not in argv:
            doc = json.loads(out1)
            assert doc.get("verified", doc.get("all_satisfied", doc.get("all_equal")))
            verified_docs += 1
    report(
        13,
        deterministic == len(runs) and verified_docs == 5,
        f"{deterministic}/{len(runs)} command lines reproduced byte-identical "
        f"output across repeated runs, all witness documents verified",
    )
