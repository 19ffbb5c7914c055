"""Scalar arithmetic against the naive pair arithmetic in helpers."""

import random
from fractions import Fraction

import pytest

from nlk.scalars import I, ONE, ZERO, Scalar, ScalarError, sc

import helpers as H


def test_parse_basic_forms():
    assert sc("0") == ZERO
    assert sc("1") == ONE
    assert sc("i") == I
    assert sc("-i") == Scalar(0, -1)
    assert sc("3/4") == Scalar(Fraction(3, 4))
    assert sc("-2/7") == Scalar(Fraction(-2, 7))
    assert sc("1+2i") == Scalar(1, 2)
    assert sc("1-2i") == Scalar(1, -2)
    assert sc("-1/2+3/5i") == Scalar(Fraction(-1, 2), Fraction(3, 5))
    assert sc("2i") == Scalar(0, 2)


def test_parse_rejects_garbage():
    for bad in ("", "x", "1+", "i1", "1//2", "--3", "1+i", "1+2j", "0x3",
                "1e3", "1E3", "1e999999999", "1.5", ".5", "1_000", "+5",
                "+1/2", "+1i", "1+-2i", "1--2i", "--2i", "1/0", "2i/0",
                "1/0i", "\u0663", "inf", "nan", "1" * 5000):
        with pytest.raises(ScalarError):
            sc(bad)


def test_parse_is_whitespace_tolerant():
    assert sc(" 1 + 2i ") == Scalar(1, 2)
    assert sc("2/5i") == Scalar(0, Fraction(2, 5))


def test_str_round_trip_on_random_values():
    rng = random.Random(20260823)
    for _ in range(300):
        re = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        im = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        s = Scalar(re, im)
        assert sc(str(s)) == s


def test_arithmetic_matches_pair_arithmetic():
    rng = random.Random(7)
    for _ in range(200):
        a = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        b = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        pa, pb = H.to_pair(a), H.to_pair(b)
        assert H.to_pair(a + b) == H.cadd(pa, pb)
        assert H.to_pair(a - b) == H.csub(pa, pb)
        assert H.to_pair(a * b) == H.cmul(pa, pb)
        assert H.to_pair(-a) == H.cneg(pa)
        assert H.to_pair(a.conj()) == H.cconj(pa)
        if not b.is_zero():
            assert H.to_pair(a / b) == H.cdiv(pa, pb)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_conjugation_fixes_reals_and_flips_imaginaries():
    assert sc("5/3").conj() == sc("5/3")
    assert sc("2i").conj() == sc("-2i")
    assert (sc("1+1i") * sc("1-1i")) == sc("2")


def test_abs_sq_and_predicates():
    assert ZERO.is_zero() and not ONE.is_zero()
    assert sc("-7/2").is_real() and not I.is_real()


def test_scalars_are_immutable_and_hashable():
    s = sc("1+1i")
    with pytest.raises(AttributeError):
        s.re = Fraction(2)
    assert len({sc("1"), sc("1"), sc("i")}) == 2
    # strings are not coerced: equal objects must hash equally
    assert ONE != "1" and not (ONE == "1")
    assert ONE.__eq__("1") is NotImplemented


def test_coercion_from_ints_and_fractions():
    assert ONE + 1 == sc("2")
    assert sc("1/2") * 2 == ONE
    assert Scalar.coerce(Fraction(3, 2)) == sc("3/2")


def test_sc_string_imaginary_part_uses_the_rational_grammar():
    assert sc(1, "-1/2") == Scalar(1, Fraction(-1, 2))
    assert sc("1+1i", "2") == Scalar(1, 3)
    for bad in ("1e3", "1.5", "+2", "1i"):
        with pytest.raises(ScalarError):
            sc(1, bad)
