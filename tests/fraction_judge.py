"""A Fraction judge of float quaternion witnesses, shared by the tests.

Every double is a dyadic rational, so p(ab) - p(ba) is evaluated from the
printed a and b with no rounding at all; only |target| in the bound is
rounded, once.
"""

import math
from fractions import Fraction

from polycomm.quat import Quaternion


def exact(q) -> Quaternion:
    """q, a Quaternion or four numbers, with exact rational components."""
    return Quaternion.exact(*(q.components() if isinstance(q, Quaternion) else q))


def exact_difference(coeffs, a, b) -> Quaternion:
    """p(ab) - p(ba) in Fractions; p by its coefficients, constant first."""

    def p(x):
        acc = Quaternion.exact()
        for c in reversed(coeffs):
            acc = acc * x + Fraction(c)
        return acc

    a, b = exact(a), exact(b)
    return p(a * b) - p(b * a)


def within(value: Quaternion, target, tol: float) -> bool:
    """|value - target| <= tol * (1 + |target|), for an exact value."""
    target = exact(target)
    size = math.hypot(*(float(c) for c in target.components()))
    bound = Fraction(tol) * (1 + Fraction(size))
    return (value - target).norm2() <= bound * bound

