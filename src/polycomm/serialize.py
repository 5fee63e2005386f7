"""JSON round-tripping for the algebraic objects.

Exact rationals travel as "num/den" strings so nothing is lost to binary
floats; plain ints are exact too.  Floats stay JSON numbers.  Complex
values are [re, im] pairs, quaternions [w, x, y, z] arrays, matrices a
ring tag plus nested entries, written straight from the component form.
dumps_canonical reproduces the bytes of json.dumps(sort_keys=True,
indent=2, allow_nan=False), so identical objects serialize to identical
bytes, without the pure-Python encoder json falls back to when indenting.
"""

from __future__ import annotations

import dataclasses
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

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


def _ratio(v) -> tuple:
    """(num, den) of a rational token, den > 0 and not reduced, without a
    Fraction: a JSON int, or a string that matches _RATIONAL_RE once
    stripped.  Any other token, or a zero den, is a DecodeError."""
    if isinstance(v, bool):
        raise DecodeError("expected a rational, got a boolean")
    if isinstance(v, int):
        return int(v), 1
    token = v.strip() if isinstance(v, str) else ""
    if not _RATIONAL_RE.match(token):
        raise DecodeError(
            f"expected an integer or 'num/den' string, got {v!r}"
            " (floats need the complex or quaternion-float backend)"
        )
    num, _, den = token.partition("/")
    num, den = int(num), int(den or 1)
    if not den:
        raise DecodeError(f"zero denominator in {token!r}")
    return num, den


def decode_rational(v) -> Fraction:
    return Fraction(*_ratio(v))


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
        return Polynomial([decode_rational(t) for t in tokens])
    try:
        coeffs = [float(t) for t in tokens]
    except ValueError as exc:
        raise DecodeError(f"bad coefficient list {text!r}") from exc
    return Polynomial([decode_float(c) for c in coeffs])


def encode_quaternion(q: Quaternion) -> list:
    return [encode_scalar(v) for v in (q.w, q.x, q.y, q.z)]


def _quaternion_array(v):
    if not isinstance(v, (list, tuple)) or len(v) != 4:
        raise DecodeError(f"a quaternion is a [w, x, y, z] array, got {v!r}")
    return v


def decode_quaternion(v, exact: bool) -> Quaternion:
    _quaternion_array(v)
    if exact:
        return Quaternion.exact(*(decode_rational(c) for c in v))
    return Quaternion.of_floats(*(decode_float(c) for c in v))


def _decode_entry(ring_name: str, v):
    """A matrix entry: its (num, den) on the rational ring and its four on
    the exact quaternions (_ratio), else what GenericMatrix coerces."""
    if ring_name == "rational":
        return _ratio(v)
    if ring_name == "complex":
        return decode_complex(v)
    if ring_name == "quaternion":
        return [_ratio(c) for c in _quaternion_array(v)]
    if ring_name == "quaternion-float":
        return [decode_float(c) for c in _quaternion_array(v)]
    raise DecodeError(f"unknown ring {ring_name!r}")


def _ratio_text(v: int, den: int) -> str:
    """str(Fraction(v, den)) for a positive den, at the cost of one gcd."""
    g = math.gcd(v, den)
    return str(v // g) if g == den else f"{v // g}/{den // g}"


_ratio_texts = np.frompyfunc(_ratio_text, 2, 1)


def encode_matrix(m: GenericMatrix) -> dict:
    """The entries as encode_scalar and encode_quaternion write them, read
    off the component form (parts, den) without building a ring element.
    Adding 0.0 turns a float -0.0 into 0.0 and keeps every other value."""
    parts, den = m.component_form()
    if m.ring.exact:
        parts = _ratio_texts(parts, den)
    elif parts.dtype.kind == "c":  # CC entries are [re, im] pairs
        parts = np.stack([parts[0].real, parts[0].imag]) + 0.0
    else:
        parts = parts + 0.0
    entries = parts[0] if len(parts) == 1 else np.moveaxis(parts, 0, -1)
    return {"ring": m.ring.name, "entries": entries.tolist()}


def decode_matrix(v) -> GenericMatrix:
    """A ring-tagged matrix.  The exact rings read each token once as
    (num, den) (_decode_entry) and build the component form over one lcm,
    with no Fraction or Quaternion per entry; the first bad row or entry in
    row-major order raises its DecodeError."""
    if not isinstance(v, dict) or "ring" not in v or "entries" not in v:
        raise DecodeError("a matrix is an object with 'ring' and 'entries'")
    name = v["ring"]
    if name not in RINGS:
        raise DecodeError(f"unknown ring {name!r}")
    entries = v["entries"]
    if not isinstance(entries, list) or not entries:
        raise DecodeError("matrix entries must be a nonempty list of rows")
    n, ring = len(entries), RINGS[name]
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise DecodeError("matrix entries must be square")
        rows.append([_decode_entry(name, x) for x in row])
    return GenericMatrix._of_ratios(ring, rows) if ring.exact else GenericMatrix(ring, rows)


# (field, JSON key, encoder, decoder) of each RealizationWitness field, in
# field order: p travels as "polynomial", every other field is a matrix
_WITNESS_FIELDS = tuple(
    (f.name, "polynomial", encode_polynomial, decode_polynomial) if f.name == "p"
    else (f.name, f.name, encode_matrix, decode_matrix)
    for f in dataclasses.fields(RealizationWitness)
)


def encode_witness(w: RealizationWitness) -> dict:
    return {key: encode(getattr(w, name)) for name, key, encode, _ in _WITNESS_FIELDS}


def decode_witness(v) -> RealizationWitness:
    """The witness v describes, fields decoded in field order, and verified."""
    if not isinstance(v, dict):
        raise DecodeError("a realization witness is a JSON object")
    try:
        w = RealizationWitness(**{name: decode(v[key]) for name, key, _, decode in _WITNESS_FIELDS})
    except KeyError as exc:
        raise DecodeError(f"witness is missing field {exc.args[0]!r}") from exc
    failed = w.failed_identity()
    if failed is not None:
        raise VerificationError(f"decoded witness failed verification: {failed}")
    return w


def dumps_canonical(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\\n",
    byte for byte: stable bytes for identical objects."""
    return _write(obj, "\n") + "\n"


def _write(obj, newline: str) -> str:
    """obj as json.dumps writes it, each nested line starting with newline
    plus two more spaces.  Bools are tested before ints, which they subclass;
    strings in a list, the commonest items, are quoted in place."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("Out of range float values are not JSON compliant: " + repr(obj))
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        items = [_quote(v) if type(v) is str else _write(v, inner) for v in obj]
        return ("[" + inner + ("," + inner).join(items) + newline + "]") if items else "[]"
    if isinstance(obj, dict):
        items = [_quote(_key(k)) + ": " + _write(v, inner) for k, v in sorted(obj.items())]
        return ("{" + inner + ("," + inner).join(items) + newline + "}") if items else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(k) -> str:
    """A dict key as json names it: strings as they are, None, bools and
    numbers by their JSON text."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _write(k, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
