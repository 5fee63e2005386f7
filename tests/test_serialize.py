import dataclasses
import json
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomm import matrix
from polycomm.matrix import CC, HF, HQ, QQ, RINGS, GenericMatrix
from polycomm.poly import Polynomial
from polycomm.quat import QI, Quaternion, VerificationError
from polycomm.realize import RealizationWitness, realize_zero_diagonal
from polycomm.serialize import (
    DecodeError,
    decode_complex,
    decode_float,
    decode_matrix,
    decode_polynomial,
    decode_quaternion,
    decode_rational,
    decode_witness,
    dumps_canonical,
    encode_matrix,
    encode_polynomial,
    encode_quaternion,
    encode_scalar,
    encode_witness,
    polynomial_from_text,
)


def test_scalar_encodings():
    assert encode_scalar(Fraction(1, 2)) == "1/2"
    assert encode_scalar(3) == "3"
    assert encode_scalar(-7) == "-7"
    assert encode_scalar(0.25) == 0.25
    assert encode_scalar(-0.0) == 0.0
    assert str(encode_scalar(-0.0)) == "0.0"
    assert encode_scalar(1 + 2j) == [1.0, 2.0]
    with pytest.raises(TypeError):
        encode_scalar(True)
    with pytest.raises(TypeError):
        encode_scalar("1/2")


def test_decode_rational():
    assert decode_rational(3) == Fraction(3)
    assert decode_rational("1/2") == Fraction(1, 2)
    assert decode_rational("-4/6") == Fraction(-2, 3)
    assert decode_rational(" 7 ") == Fraction(7)
    for bad in (0.5, True, "x", "1.5", "1/0 extra", None):
        with pytest.raises(DecodeError):
            decode_rational(bad)
    with pytest.raises(DecodeError, match="float"):
        decode_rational(0.5)


def test_decode_complex():
    assert decode_complex([1, 2]) == 1 + 2j
    assert decode_complex([0.5, -1]) == 0.5 - 1j
    assert decode_complex(3) == 3 + 0j
    with pytest.raises(DecodeError):
        decode_complex([1, 2, 3])
    with pytest.raises(DecodeError):
        decode_complex("1+2j")


def test_decode_float_rejects_non_finite():
    assert decode_float(-1e300) == -1e300
    assert decode_float(5e-324) == 5e-324
    for bad in (float("nan"), float("inf"), float("-inf"), json.loads("1e400")):
        with pytest.raises(DecodeError, match="non-finite input"):
            decode_float(bad)
    with pytest.raises(DecodeError, match="non-finite input"):
        decode_complex([0.0, json.loads("NaN")])
    with pytest.raises(DecodeError, match="non-finite input"):
        decode_quaternion(json.loads("[0, Infinity, 0, 1]"), exact=False)
    with pytest.raises(DecodeError, match="non-finite input"):
        decode_polynomial([0.5, float("nan")])


def test_polynomial_roundtrip_exact():
    p = Polynomial([Fraction(1, 2), 0, 3])
    encoded = encode_polynomial(p)
    assert encoded == ["1/2", "0", "3"]
    back = decode_polynomial(encoded)
    assert back == p
    assert back.is_exact()


def test_polynomial_roundtrip_float():
    p = Polynomial([0.5, 0.0, -2.0])
    back = decode_polynomial(encode_polynomial(p))
    assert back == p
    assert not back.is_exact()


def test_polynomial_decode_guards():
    with pytest.raises(DecodeError):
        decode_polynomial([])
    with pytest.raises(DecodeError):
        decode_polynomial("0,1")
    with pytest.raises(DecodeError):
        decode_polynomial([True, 1])


def test_polynomial_from_text():
    p = polynomial_from_text("0, 1")
    assert p.is_exact() and p.coeffs == (Fraction(0), Fraction(1))
    p = polynomial_from_text("-1/2,0,3")
    assert p.is_exact() and p.coeffs[0] == Fraction(-1, 2)
    p = polynomial_from_text("0.5, 1")
    assert not p.is_exact() and p.coeffs == (0.5, 1.0)
    p = polynomial_from_text("1e-3, 1")
    assert not p.is_exact()
    for bad in ("", "1,", "a,b", "1//2"):
        with pytest.raises(DecodeError):
            polynomial_from_text(bad)
    for bad in ("0,nan", "inf,1", "0,-Infinity", "0,1e400"):
        with pytest.raises(DecodeError, match="non-finite input"):
            polynomial_from_text(bad)


def test_quaternion_roundtrip():
    q = Quaternion.exact(1, Fraction(-1, 3), 0, 2)
    encoded = encode_quaternion(q)
    assert encoded == ["1", "-1/3", "0", "2"]
    back = decode_quaternion(encoded, exact=True)
    assert back == q and back.is_exact()
    f = Quaternion.of_floats(0.5, -1.0, 0.0, 2.25)
    back = decode_quaternion(encode_quaternion(f), exact=False)
    assert back == f and not back.is_exact()


def test_exact_quaternion_decodes_integral_components_as_ints():
    q = decode_quaternion(["1", "2", "3", "4"], exact=True)
    assert q.components() == (1, 2, 3, 4)
    assert all(type(c) is int for c in q.components())
    q = decode_quaternion(["6/3", "1/2", 0, -1], exact=True)
    assert [type(c) for c in q.components()] == [int, Fraction, int, int]


def test_quaternion_decode_exact_override():
    assert decode_quaternion([1, 0, 0, 0], exact=False) == Quaternion.of_floats(1.0)
    with pytest.raises(DecodeError):
        decode_quaternion([0.5, 0, 0, 0], exact=True)
    with pytest.raises(DecodeError):
        decode_quaternion([1, 2, 3], exact=True)
    with pytest.raises(DecodeError):
        decode_quaternion("i+j", exact=False)


def test_matrix_roundtrip_all_rings():
    mats = [
        GenericMatrix(QQ, [[Fraction(1, 2), 1], [0, -2]]),
        GenericMatrix(CC, [[1 + 2j, 0], [0.5j, -1]]),
        GenericMatrix(HQ, [[QI, 0], [1, Quaternion.exact(0, 0, Fraction(1, 2), 0)]]),
        GenericMatrix(
            HF, [[QI.to_float(), Quaternion.of_floats()], [Quaternion.of_floats(0.5), Quaternion.of_floats(1)]]
        ),
    ]
    for m in mats:
        d = encode_matrix(m)
        assert d["ring"] == m.ring.name
        back = decode_matrix(d)
        assert back == m
        assert back.ring.name == m.ring.name


def test_matrix_roundtrip_through_json_text():
    m = GenericMatrix(QQ, [[Fraction(1, 3), 2], [-1, 0]])
    text = dumps_canonical(encode_matrix(m))
    assert decode_matrix(json.loads(text)) == m


def test_matrix_decode_guards():
    with pytest.raises(DecodeError):
        decode_matrix([[1, 2], [3, 4]])
    with pytest.raises(DecodeError):
        decode_matrix({"ring": "octonion", "entries": [[1]]})
    with pytest.raises(DecodeError):
        decode_matrix({"ring": "rational", "entries": [[1, 2]]})
    with pytest.raises(DecodeError):
        decode_matrix({"ring": "rational", "entries": []})
    with pytest.raises(DecodeError):
        decode_matrix({"ring": "rational", "entries": [[1, 0.5], [1, 2]]})


def test_witness_roundtrip():
    p = Polynomial([0, 0, 1])
    a = GenericMatrix(QQ, [[0, 1], [2, 0]])
    w = realize_zero_diagonal(p, a)
    d = encode_witness(w)
    assert set(d) == {"polynomial", "a1", "b1", "g", "g1", "g2", "d", "target"}
    back = decode_witness(d)
    assert back == w
    assert back.verify()


def test_witness_decode_detects_tampering():
    p = Polynomial([0, 0, 1])
    a = GenericMatrix(QQ, [[0, 1], [2, 0]])
    d = encode_witness(realize_zero_diagonal(p, a))
    d["target"]["entries"][0][1] = "5"
    with pytest.raises(VerificationError, match=re.escape("p(a1 b1) - p(b1 a1) == target")):
        decode_witness(d)


def test_witness_decode_missing_field():
    p = Polynomial([0, 0, 1])
    a = GenericMatrix(QQ, [[0, 1], [2, 0]])
    d = encode_witness(realize_zero_diagonal(p, a))
    del d["g1"]
    with pytest.raises(DecodeError, match="g1"):
        decode_witness(d)
    with pytest.raises(DecodeError):
        decode_witness("not an object")


def test_witness_document_has_one_key_per_field():
    """encode_witness writes "polynomial" and each matrix field of
    RealizationWitness; a document without one of them is a DecodeError
    naming it, and the first missing one in field order is named."""
    fields = dataclasses.fields(RealizationWitness)
    matrices = [f.name for f in fields if f.type == "GenericMatrix"]
    assert fields[0].name == "p" and len(matrices) == len(fields) - 1
    w = realize_zero_diagonal(Polynomial([0, 0, 1]), GenericMatrix(QQ, [[0, 1], [2, 0]]))
    doc = encode_witness(w)
    keys = ["polynomial", *matrices]
    assert sorted(doc) == sorted(keys)
    for i, key in enumerate(keys):
        with pytest.raises(DecodeError, match=f"missing field '{key}'"):
            decode_witness({k: v for k, v in doc.items() if k != key})
        with pytest.raises(DecodeError, match=f"missing field '{key}'"):
            decode_witness({k: doc[k] for k in keys[:i]})


def test_dumps_canonical_stable_and_strict():
    a = dumps_canonical({"b": 1, "a": [1, 2]})
    b = dumps_canonical({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("inf")})


def test_negative_zero_entries_encode_identically():
    m1 = GenericMatrix(CC, [[0.0, 0], [0, 1]])
    m2 = GenericMatrix(CC, [[-0.0, 0], [0, 1]])
    assert dumps_canonical(encode_matrix(m1)) == dumps_canonical(encode_matrix(m2))


def test_zero_denominators_are_decode_errors():
    for decode in (decode_rational, lambda v: decode_quaternion([0, v, 0, 0], exact=True)):
        with pytest.raises(DecodeError, match="zero denominator in '1/0'"):
            decode(" 1/0 ")
    with pytest.raises(DecodeError, match="zero denominator in '-3/0'"):
        polynomial_from_text("1, -3/0")
    with pytest.raises(DecodeError, match="zero denominator in '1/0'"):
        decode_matrix({"ring": "rational", "entries": [["1/0"]]})
    p = Polynomial([0, 0, 1])
    a = GenericMatrix(QQ, [[0, 1], [2, 0]])
    for field in ("polynomial", "g"):
        d = encode_witness(realize_zero_diagonal(p, a))
        if field == "polynomial":
            d[field][0] = "1/0"
        else:
            d[field]["entries"][0][1] = "1/0"
        with pytest.raises(DecodeError, match="zero denominator in '1/0'"):
            decode_witness(d)


# JSON documents as the CLI builds them, and the corners of json's own
# writer: escapes, non-ASCII text, big ints, bools, None, signed zeros,
# extreme and subnormal floats, tuples and empty containers
_TEXT = st.text() | st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "\u2028", "é😀", ""])
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 1e308, -1e308, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-7, 0.1]
)
_LEAVES = (
    st.none() | st.booleans() | _TEXT | _FLOATS
    | st.integers() | st.integers(min_value=-(2**200), max_value=2**200)
)
_DOCS = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, kids, max_size=4)
    | st.dictionaries(st.integers(-5, 5), kids, max_size=3),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_dumps_canonical_is_json_dumps(doc):
    expected = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert dumps_canonical(doc) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [lambda x: x, lambda x: {"a": [1, {"b": x}]}, lambda x: {x: 1}])
def test_dumps_canonical_rejects_non_finite_floats_as_json_does(bad, where):
    with pytest.raises(ValueError) as expected:
        json.dumps(where(bad), sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        dumps_canonical(where(bad))
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant: ")


def test_dumps_canonical_rejects_what_json_rejects():
    for bad in ({"a": object()}, {(1, 2): 0}, [np.int64(3)]):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2, allow_nan=False)
        with pytest.raises(TypeError):
            dumps_canonical(bad)


def _rows_encoding(m):
    """encode_matrix as it was written from m.rows: one ring element per entry."""
    quat = m.ring.components == 4
    return {
        "ring": m.ring.name,
        "entries": [[encode_quaternion(v) if quat else encode_scalar(v) for v in row]
                    for row in m.rows],
    }


def no_ring_element_built():
    """Inside the block, building a Fraction or Quaternion entry off the
    component form raises."""
    return mock.patch.object(
        matrix, "_entries", side_effect=AssertionError("a ring element was built")
    )


@st.composite
def component_forms(draw):
    """(ring, parts, den) of any ring: n from 1 to 4, zeros, numerators
    near 2**200 over any denominator, and signed zeros on the float rings."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    n = draw(st.integers(1, 4))
    size = ring.components * n * n
    if ring.exact:
        big = st.integers(2**200 - 2**20, 2**200 + 2**20)
        num = st.integers(-3, 3) | st.integers() | big | big.map(lambda v: -v)
        den = draw(st.sampled_from([1, 2, 6]) | st.integers(1, 2**64) | big)
        values = draw(st.lists(num, min_size=size, max_size=size))
        parts = np.array(values, dtype=object).reshape(ring.components, n, n)
        return ring, parts, den
    values = draw(st.lists(_FLOATS, min_size=size * (2 if ring is CC else 1),
                           max_size=size * (2 if ring is CC else 1)))
    parts = np.array(values).reshape(-1, ring.components, n, n)
    if ring is CC:
        parts = parts[0] + 0j
        parts.imag = np.array(values[size:]).reshape(1, n, n)
    else:
        parts = parts[0]
    return ring, parts, 1


@settings(max_examples=200, deadline=None)
@given(form=component_forms())
def test_encode_matrix_matches_the_rows_path(form):
    ring, parts, den = form
    m = GenericMatrix._of_parts(ring, parts, den)
    expected = _rows_encoding(GenericMatrix._of_parts(ring, parts, den))
    with no_ring_element_built():
        got = encode_matrix(m)
    # json text, so that -0.0 and 0.0, or 1 and 1.0, would differ
    assert json.dumps(got) == json.dumps(expected)
    # a matrix built from rows encodes the same
    assert json.dumps(encode_matrix(GenericMatrix(ring, m.rows))) == json.dumps(expected)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("ring", [QQ, CC, HQ, HF], ids=lambda ring: ring.name)
def test_zero_matrices_match_the_rows_path(ring, n):
    # negated, so the float rings hold -0.0 in every part
    m = -GenericMatrix.zeros(ring, n)
    expected = _rows_encoding(-GenericMatrix.zeros(ring, n))
    assert json.dumps(encode_matrix(m)) == json.dumps(expected)
    assert "-0" not in json.dumps(expected)


@pytest.mark.parametrize("ring", [QQ, HQ])
def test_witness_is_written_from_the_component_form(ring):
    # no Fraction or Quaternion entry is built to print any of the seven
    # matrices, each written from its component form
    p = Polynomial([0, 1, 1])
    a = GenericMatrix(ring, [[0, 1, Fraction(-1, 2)], [2, 0, 3], [1, Fraction(1, 3), 0]])
    w = realize_zero_diagonal(p, a)
    with no_ring_element_built():
        doc = encode_witness(w)
    assert decode_witness(doc) == w


def rational_by_fraction(v):
    """decode_rational as it was written: the Fraction of a JSON int or of
    a token matching the rational pattern once stripped."""
    if isinstance(v, bool):
        raise DecodeError("expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str) and re.match(r"^[+-]?\d+(/\d+)?$", v.strip()):
        try:
            return Fraction(v.strip())
        except ZeroDivisionError:
            raise DecodeError(f"zero denominator in {v.strip()!r}") from None
    raise DecodeError(
        f"expected an integer or 'num/den' string, got {v!r}"
        " (floats need the complex or quaternion-float backend)"
    )


def decode_matrix_by_entry(v):
    """decode_matrix of an exact ring as it was written: one Fraction or
    Quaternion per entry, row by row, then GenericMatrix of the rows."""
    name, entries = v["ring"], v["entries"]
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != len(entries):
            raise DecodeError("matrix entries must be square")
        rows.append([rational_by_fraction(x) if name == "rational" else quaternion_by_fraction(x)
                     for x in row])
    return GenericMatrix(RINGS[name], rows)


def quaternion_by_fraction(v):
    if not isinstance(v, (list, tuple)) or len(v) != 4:
        raise DecodeError(f"a quaternion is a [w, x, y, z] array, got {v!r}")
    return Quaternion.exact(*map(rational_by_fraction, v))


def assert_decodes_like_entry_by_entry(doc):
    """decode_matrix(doc) has the component form of the per-entry decoding,
    or raises the DecodeError message it raises."""
    try:
        expected = decode_matrix_by_entry(doc)
    except DecodeError as exc:
        with pytest.raises(DecodeError) as got:
            decode_matrix(doc)
        assert str(got.value) == str(exc)
        return
    got = decode_matrix(doc)
    (parts, den), (e_parts, e_den) = got.component_form(), expected.component_form()
    assert got.ring is expected.ring and den == e_den
    assert parts.shape == e_parts.shape and (parts == e_parts).all()


_ENTRY_CASES = [
    [[1, -2], [3, 10**30]],
    [["4/6", "-2/4"], ["+3", " 5/10 "]],
    [["\t-7/3\n", "0/5"], ["-0", "12345678901234567890/15"]],
    [["1/0", True]],
    [[True, "1/0"]],
    [[" 0/0 "]],
    [[1.5, 0], [0, 1]],
    [[None]],
    [["1/2/3"]],
    [["x"]],
    [[1, 2], [3]],
    [[1, 2], "x"],
    [[1], [2]],
]
_QUATERNION_CASES = [
    [[[1, "1/2", "-3/4", " 2/6 "]]],
    [[[0, 0, 0, 0], ["4/6", 1, "+2", "-1/3"]], [[3, 0, 0, 0], [0, 0, "1/7", 0]]],
    [[[1, 2, 3]]],
    [[[1, 2, 3, 4, 5]]],
    [[1]],
    [[[1, 2, 3, "1/0"], [0, 0, 0, 0]], [[True, 0, 0, 0], [0, 0, 0, 0]]],
    [[[1, "1/0", 0, 0], [1, 2, 3]], [[0, 0, 0, 0], [0, 0, 0, 0]]],
    [[[1, 2, 3], [1, "1/0", 0, 0]], [[0, 0, 0, 0], [0, 0, 0, 0]]],
    [[[0, 0, 0, 0], [1, 2, 3]], [[0, 0, 0, 0]]],
    [[[1.5, 0, 0, 0]]],
    [[[None, 0, 0, 0]]],
    [[[False, 0, 0, 0]]],
]


@pytest.mark.parametrize(
    "doc",
    [{"ring": "rational", "entries": e} for e in _ENTRY_CASES]
    + [{"ring": "quaternion", "entries": e} for e in _QUATERNION_CASES]
    # a rational token where a quaternion is due, and the reverse
    + [{"ring": "quaternion", "entries": e} for e in _ENTRY_CASES]
    + [{"ring": "rational", "entries": e} for e in _QUATERNION_CASES],
)
def test_exact_decode_matches_entry_by_entry(doc):
    assert_decodes_like_entry_by_entry(doc)


_SIGNS = st.sampled_from(["", "+", "-"])
_SPACE = st.sampled_from(["", " ", "\t", " \n"])
_GOOD_TOKENS = st.integers(-(10**30), 10**30) | st.builds(
    lambda space, sign, num, den: f"{space}{sign}{num}{den}{space}",
    _SPACE, _SIGNS, st.integers(0, 10**30),
    st.sampled_from(["", "/1"]) | st.integers(1, 10**30).map(lambda d: f"/{d}"),
)
_BAD_TOKENS = st.sampled_from([True, False, None, 1.5, "1/0", "x", "1/-2", [1], {}])


@st.composite
def exact_matrix_documents(draw, tokens, lengths=st.just(4)):
    """A square exact matrix document of the tokens, quaternion entries of
    the drawn lengths."""
    ring = draw(st.sampled_from(["rational", "quaternion"]))
    n = draw(st.integers(1, 4))

    def entry():
        if ring == "rational":
            return draw(tokens)
        return [draw(tokens) for _ in range(draw(lengths))]

    return {"ring": ring, "entries": [[entry() for _ in range(n)] for _ in range(n)]}


@settings(max_examples=200, deadline=None)
@given(doc=exact_matrix_documents(_GOOD_TOKENS))
def test_well_formed_exact_decode_matches_entry_by_entry(doc):
    assert_decodes_like_entry_by_entry(doc)
    # and read without a Fraction or Quaternion per entry
    with no_ring_element_built(), mock.patch(
        "polycomm.serialize.Fraction", side_effect=AssertionError("a Fraction was built")
    ):
        decode_matrix(doc)


@settings(max_examples=200, deadline=None)
@given(doc=exact_matrix_documents(_GOOD_TOKENS | _GOOD_TOKENS | _BAD_TOKENS,
                                  st.sampled_from([4, 4, 4, 4, 3, 5])))
def test_first_bad_token_decodes_like_entry_by_entry(doc):
    assert_decodes_like_entry_by_entry(doc)
