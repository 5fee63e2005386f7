"""JSON round-tripping for the algebraic objects.

Exact rationals travel as "num/den" strings so nothing is lost to binary
floats; plain ints are exact too.  Floats stay JSON numbers.  Complex
values are [re, im] pairs, quaternions [w, x, y, z] arrays, matrices a
ring tag plus nested entries.  Canonical dumps sort keys and use a fixed
indent so identical objects serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .matrix import RINGS, GenericMatrix
from .poly import Polynomial
from .quat import Quaternion, VerificationError
from .realize import RealizationWitness

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class DecodeError(ValueError):
    """Input JSON does not describe a valid object."""


def encode_scalar(x):
    """Exact values become "num/den" strings; floats stay JSON numbers
    (negative zero normalized so equal values encode identically)."""
    if isinstance(x, bool):
        raise TypeError("booleans are not scalars here")
    if isinstance(x, (Fraction, int)):
        return str(x)
    if isinstance(x, float):
        return x if x != 0.0 else 0.0
    if isinstance(x, complex):
        return [encode_scalar(x.real), encode_scalar(x.imag)]
    raise TypeError(f"cannot encode scalar of type {type(x).__name__}")


def decode_rational(v) -> Fraction:
    if isinstance(v, bool):
        raise DecodeError("expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str) and _RATIONAL_RE.match(v.strip()):
        return Fraction(v.strip())
    raise DecodeError(
        f"expected an integer or 'num/den' string, got {v!r}"
        " (floats need the complex or quaternion-float backend)"
    )


def decode_float(v) -> float:
    """A finite float; NaN, infinities and JSON numbers past the double
    range (json reads 1e400 as inf) are rejected."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DecodeError(f"expected a number, got {v!r}")
    x = float(v)
    if not math.isfinite(x):
        raise DecodeError(f"non-finite input: {v!r}")
    return x


def decode_complex(v) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise DecodeError(f"complex values are [re, im] pairs, got {v!r}")
        return complex(decode_float(v[0]), decode_float(v[1]))
    return complex(decode_float(v))


def encode_polynomial(p: Polynomial) -> list:
    return [encode_scalar(c) for c in p.coeffs]


def decode_polynomial(v) -> Polynomial:
    if not isinstance(v, (list, tuple)) or not v:
        raise DecodeError("a polynomial is a nonempty coefficient array")
    exact = all(isinstance(c, (int, str)) and not isinstance(c, bool) for c in v)
    if exact:
        return Polynomial([decode_rational(c) for c in v])
    return Polynomial([decode_float(c) for c in v])


def polynomial_from_text(text: str) -> Polynomial:
    """Comma-separated coefficients, constant term first.

    Tokens without a decimal point or exponent parse as exact rationals
    ("3", "-1/2"); any float token switches the whole polynomial to the
    float backend.
    """
    tokens = [t.strip() for t in text.split(",")]
    if not tokens or any(not t for t in tokens):
        raise DecodeError(f"bad coefficient list {text!r}")
    if all(_RATIONAL_RE.match(t) for t in tokens):
        return Polynomial([Fraction(t) for t in tokens])
    try:
        coeffs = [float(t) for t in tokens]
    except ValueError as exc:
        raise DecodeError(f"bad coefficient list {text!r}") from exc
    return Polynomial([decode_float(c) for c in coeffs])


def encode_quaternion(q: Quaternion) -> list:
    return [encode_scalar(v) for v in (q.w, q.x, q.y, q.z)]


def decode_quaternion(v, exact=None) -> Quaternion:
    if not isinstance(v, (list, tuple)) or len(v) != 4:
        raise DecodeError(f"a quaternion is a [w, x, y, z] array, got {v!r}")
    if exact is None:
        exact = all(isinstance(c, (int, str)) and not isinstance(c, bool) for c in v)
    if exact:
        return Quaternion.exact(*(decode_rational(c) for c in v))
    return Quaternion.of_floats(*(decode_float(c) for c in v))


def _encode_entry(ring_name: str, v):
    if ring_name.startswith("quaternion"):
        return encode_quaternion(v)
    return encode_scalar(v)


def _decode_entry(ring_name: str, v):
    if ring_name == "rational":
        return decode_rational(v)
    if ring_name == "complex":
        return decode_complex(v)
    if ring_name == "quaternion":
        return decode_quaternion(v, exact=True)
    if ring_name == "quaternion-float":
        return decode_quaternion(v, exact=False)
    raise DecodeError(f"unknown ring {ring_name!r}")


def encode_matrix(m: GenericMatrix) -> dict:
    return {
        "ring": m.ring.name,
        "entries": [[_encode_entry(m.ring.name, v) for v in row] for row in m.rows],
    }


def decode_matrix(v) -> GenericMatrix:
    if not isinstance(v, dict) or "ring" not in v or "entries" not in v:
        raise DecodeError("a matrix is an object with 'ring' and 'entries'")
    name = v["ring"]
    if name not in RINGS:
        raise DecodeError(f"unknown ring {name!r}")
    entries = v["entries"]
    if not isinstance(entries, list) or not entries:
        raise DecodeError("matrix entries must be a nonempty list of rows")
    n = len(entries)
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise DecodeError("matrix entries must be square")
        rows.append([_decode_entry(name, x) for x in row])
    return GenericMatrix.from_rows(RINGS[name], rows)


def encode_witness(w: RealizationWitness) -> dict:
    return {
        "polynomial": encode_polynomial(w.p),
        "a1": encode_matrix(w.a1),
        "b1": encode_matrix(w.b1),
        "g": encode_matrix(w.g),
        "g1": encode_matrix(w.g1),
        "g2": encode_matrix(w.g2),
        "d": encode_matrix(w.d),
        "target": encode_matrix(w.target),
    }


def decode_witness(v, verify: bool = True) -> RealizationWitness:
    if not isinstance(v, dict):
        raise DecodeError("a realization witness is a JSON object")
    try:
        w = RealizationWitness(
            p=decode_polynomial(v["polynomial"]),
            a1=decode_matrix(v["a1"]),
            b1=decode_matrix(v["b1"]),
            g=decode_matrix(v["g"]),
            g1=decode_matrix(v["g1"]),
            g2=decode_matrix(v["g2"]),
            d=decode_matrix(v["d"]),
            target=decode_matrix(v["target"]),
        )
    except KeyError as exc:
        raise DecodeError(f"witness is missing field {exc.args[0]!r}") from exc
    if verify and not w.verify():
        raise VerificationError(f"decoded witness failed verification: {w.failed_identity()}")
    return w


def dumps_canonical(obj) -> str:
    """Stable bytes for identical objects: sorted keys, fixed indent."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
