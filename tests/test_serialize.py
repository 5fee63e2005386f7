import json
from fractions import Fraction

import pytest

from polycomm.matrix import CC, HF, HQ, QQ, GenericMatrix
from polycomm.poly import Polynomial
from polycomm.quat import QI, Quaternion, VerificationError
from polycomm.realize import realize_zero_diagonal
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
        decode_quaternion(json.loads("[0, Infinity, 0, 1]"))
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
    back = decode_quaternion(encoded)
    assert back == q and back.is_exact()
    f = Quaternion.of_floats(0.5, -1.0, 0.0, 2.25)
    back = decode_quaternion(encode_quaternion(f))
    assert back == f and not back.is_exact()


def test_quaternion_decode_exact_override():
    assert decode_quaternion([1, 0, 0, 0], exact=False) == Quaternion.of_floats(1.0)
    with pytest.raises(DecodeError):
        decode_quaternion([0.5, 0, 0, 0], exact=True)
    with pytest.raises(DecodeError):
        decode_quaternion([1, 2, 3])
    with pytest.raises(DecodeError):
        decode_quaternion("i+j")


def test_matrix_roundtrip_all_rings():
    mats = [
        GenericMatrix.from_rows(QQ, [[Fraction(1, 2), 1], [0, -2]]),
        GenericMatrix.from_rows(CC, [[1 + 2j, 0], [0.5j, -1]]),
        GenericMatrix.from_rows(HQ, [[QI, 0], [1, Quaternion.exact(0, 0, Fraction(1, 2), 0)]]),
        GenericMatrix.from_rows(
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
    m = GenericMatrix.from_rows(QQ, [[Fraction(1, 3), 2], [-1, 0]])
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
    a = GenericMatrix.from_rows(QQ, [[0, 1], [2, 0]])
    w = realize_zero_diagonal(p, a)
    d = encode_witness(w)
    assert set(d) == {"polynomial", "a1", "b1", "g", "g1", "g2", "d", "target"}
    back = decode_witness(d)
    assert back == w
    assert back.verify()


def test_witness_decode_detects_tampering():
    p = Polynomial([0, 0, 1])
    a = GenericMatrix.from_rows(QQ, [[0, 1], [2, 0]])
    d = encode_witness(realize_zero_diagonal(p, a))
    d["target"]["entries"][0][1] = "5"
    with pytest.raises(VerificationError):
        decode_witness(d)
    tampered = decode_witness(d, verify=False)
    assert not tampered.verify()


def test_witness_decode_missing_field():
    p = Polynomial([0, 0, 1])
    a = GenericMatrix.from_rows(QQ, [[0, 1], [2, 0]])
    d = encode_witness(realize_zero_diagonal(p, a))
    del d["g1"]
    with pytest.raises(DecodeError, match="g1"):
        decode_witness(d)
    with pytest.raises(DecodeError):
        decode_witness("not an object")


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
    m1 = GenericMatrix.from_rows(CC, [[0.0, 0], [0, 1]])
    m2 = GenericMatrix.from_rows(CC, [[-0.0, 0], [0, 1]])
    assert dumps_canonical(encode_matrix(m1)) == dumps_canonical(encode_matrix(m2))
