"""Seeded random generators for sweeps.

Every stream is derived from a single seed plus a label, so any sweep is
reproducible from its configuration alone.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

import numpy as np

from .matrix import HQ, QQ, GenericMatrix
from .poly import Polynomial
from .quat import Quaternion


def stream(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def np_stream(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode())])


def rational(rng: random.Random, bound: int = 3, denominators=(1, 1, 1, 2, 3)):
    num = rng.randint(-bound, bound)
    den = rng.choice(denominators)
    return num if den == 1 else Fraction(num, den)


def rational_matrix(rng, n: int, bound: int = 3, denominators=(1,)) -> GenericMatrix:
    return GenericMatrix(
        QQ,
        [[rational(rng, bound, denominators) for _ in range(n)] for _ in range(n)],
    )


def exact_quaternion(rng, bound: int = 3) -> Quaternion:
    return Quaternion.exact(*(rng.randint(-bound, bound) for _ in range(4)))


def quaternion_matrix(rng, n: int, bound: int = 2) -> GenericMatrix:
    return GenericMatrix(
        HQ, [[exact_quaternion(rng, bound) for _ in range(n)] for _ in range(n)]
    )


def exact_polynomial(rng, degree: int, bound: int = 3) -> Polynomial:
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    lead = rng.choice([c for c in range(-bound, bound + 1) if c != 0])
    return Polynomial(coeffs + [lead])


def complex_gaussian_matrix(gen: np.random.Generator, n: int) -> np.ndarray:
    return (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2.0)


def probe_like(rng, template):
    """Random exact element shaped like the template (used by the degree probe)."""
    if isinstance(template, GenericMatrix):
        ring = template.ring
        n = template.n
        if ring is QQ:
            return rational_matrix(rng, n)
        if ring is HQ:
            return quaternion_matrix(rng, n)
        raise ValueError(f"no probe sampler for ring {ring.name}")
    if isinstance(template, Quaternion) and template.is_exact():
        return exact_quaternion(rng)
    if isinstance(template, (int, Fraction)):
        return Fraction(rng.randint(-9, 9))
    raise ValueError(f"no exact probe sampler for {type(template).__name__}")
