"""Exact complex scalars with rational real and imaginary parts.

Every number in this package is a Gaussian rational p/q + (r/s)i.  All
arithmetic is exact, so equality is a decision procedure rather than a
tolerance check.

A Scalar stores three ints (a, b, d) and means (a + b*i)/d.  The triple is
kept canonical: d > 0 and gcd(a, b, d) == 1, so zero is (0, 0, 1), equal
values have equal triples, and equality compares the triple; hashing
does too, but a real Scalar hashes as the int or Fraction it equals, so
that a dict or set finds either by the other.
The operators work on the ints directly and skip work where the shape
allows it: equal denominators add without cross-multiplying, integral
operands multiply without a gcd, and negation and conjugation never need
one.  `.re` and `.im` are read-only Fraction views of the triple.

`_dots` is the one loop of integer dot products: a Gaussian-integer row
against columns, the imaginary parts skipped where the row and columns are
real.

A scaled matrix (re, im, d) means (re + im*i)/d: int rows re and im (im
None when real) over a common denominator d > 0, not necessarily the least.
`scaled_product` multiplies two over d_a * d_b with no gcd, and
`scaled_same` and `scaled_residual` (a - c b, or None) cross-multiply,
so `cocycles` makes Scalars only of failing residuals.  `scaled`, then
`scaled_product`, then `unscaled` is the one integer kernel of a Scalar
matrix product (`linalg.mmul`).  A Gram matrix and its inverse are scaled
once per form, by `linalg.HermitianForm`, and read from there.  The word
memos of `Cocycle` and `GroupFunctional` keep scaled vectors, each filled
by one `_dots` matrix-vector step per letter, and `verify_schurmann_triple`
and the oracle read them as they are.  `unscaled` and `from_parts` give
canonical Scalars, one gcd per entry; `parts` takes a Scalar apart.

The text form follows a small grammar:

    digits   ::= ("0".."9")+
    unsigned ::= digits ["/" digits]
    rational ::= ["-"] unsigned
    scalar   ::= rational
               | rational ("+"|"-") unsigned "i"
               | rational "i"

Examples: "5", "-2/7", "-1/2+3i", "2/5i", "-2i".  Nothing else parses: no
exponents, decimal points, underscores or leading "+", so a literal's size
is the size of its digit strings.  Spaces are ignored, and "i", "+i" and
"-i" stand for the unit.  Most literals in a scenario are plain rationals
such as "0" or "-1/2", so `Scalar.parse` first tries one match of
`_PLAIN`, a rational with no spaces and at most `_PLAIN_DIGITS` ASCII
digits in each part over a nonzero denominator, and builds its triple with
one gcd; any other text takes the full grammar, `_parse_literal`, with the
same result or the same error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import mul


class ScalarError(ValueError):
    """Malformed scalar literal or non-scalar operand."""


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ScalarError(f"expected int or Fraction, got {type(x).__name__}")


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# far below the least int conversion limit Python allows (640 digits), so a
# plain literal's int() never fails
_PLAIN_DIGITS = 30
_PLAIN = re.compile(f"(-?[0-9]{{1,{_PLAIN_DIGITS}}})"
                    f"(?:/([0-9]{{1,{_PLAIN_DIGITS}}}))?")
# groups: numerator and denominator of the real part (1, 2), then sign,
# numerator and denominator of the imaginary part (3, 4, 5); or those of a
# purely imaginary literal (6, 7)
_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?(?:([+-])([0-9]+)(?:/([0-9]+))?i)?"
                      r"|(-?[0-9]+)(?:/([0-9]+))?i")


def _compact(text: str) -> str:
    # whitespace around a literal and spaces inside it are ignored
    return text.strip().replace(" ", "")


def _triple(p, q, r, s) -> tuple:
    """Canonical (a, b, d) of p/q + (r/s)i, for q, s > 0."""
    a, b, d = p * s, r * q, q * s
    g = gcd(d, a, b)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return a, b, d


def _ints(text: str, num: str, den: str | None) -> tuple:
    """Numerator and denominator from the digit strings of a matched literal."""
    try:
        p, q = int(num), int(den or 1)
    except ValueError as exc:
        # digit strings past the interpreter's int conversion limit
        raise ScalarError(f"invalid scalar literal {text!r}: {exc}") from None
    if q == 0:
        raise ScalarError(f"invalid scalar literal {text!r}: zero denominator")
    return p, q


def _ratio_str(n: int, d: int) -> str:
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


class Scalar:
    """Immutable Gaussian rational (a + b*i)/d in canonical form."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _fraction(re), _fraction(im)
        _init(self, *_triple(re.numerator, re.denominator,
                             im.numerator, im.denominator))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar(x)
        if isinstance(x, str):
            return Scalar.parse(x)
        raise ScalarError(f"cannot coerce {type(x).__name__} to Scalar")

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        m = _PLAIN.fullmatch(text)
        if m is not None:
            num, den = m.groups()
            if den is None:
                return _make(int(num), 0, 1)
            p, q = int(num), int(den)
            if q:
                g = gcd(p, q)
                return _make(p // g, 0, q // g)
        return _parse_literal(text)

    # --- arithmetic -------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.coerce(other)
        if not (other._a or other._b):
            return self
        if not (self._a or self._b):
            return other
        return _add(self._a, self._b, self._d, other._a, other._b, other._d)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.coerce(other)
        if not (other._a or other._b):
            return self
        return _add(self._a, self._b, self._d, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        if not (a1 or b1) or not (a2 or b2):
            return ZERO
        a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        d = self._d * other._d
        if d != 1:
            g = gcd(d, a, b)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        s = _new(Scalar)
        _set_a(s, a)
        _set_b(s, b)
        _set_d(s, d)
        return s

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("scalar division by zero")
        # multiply through by the conjugate:
        # (z1/d1) / (z2/d2) = z1 conj(z2) d2 / (d1 |z2|^2)
        d2 = other._d
        return from_parts((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                          self._d * n)

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def conj(self) -> "Scalar":
        if not self._b:
            return self
        return _make(self._a, -self._b, self._d)

    # --- predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_real(self) -> bool:
        return not self._b

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if other.__class__ is Scalar:
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return (not self._b and self._d == other.denominator
                    and self._a == other.numerator)
        return NotImplemented

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(self._a) if self._d == 1 else hash(self.re)

    # --- text form --------------------------------------------------

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio_str(a, d)
        if not a:
            return f"{_ratio_str(b, d)}i"
        sign = "+" if b > 0 else "-"
        return f"{_ratio_str(a, d)}{sign}{_ratio_str(abs(b), d)}i"

    def __repr__(self):
        return f"Scalar({self})"


_new = object.__new__
_set_a = Scalar._a.__set__
_set_b = Scalar._b.__set__
_set_d = Scalar._d.__set__


def _init(s, a, b, d):
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)


def _make(a: int, b: int, d: int) -> Scalar:
    """Scalar from a triple that is already canonical."""
    s = _new(Scalar)
    _init(s, a, b, d)
    return s


def _add(a1, b1, d1, a2, b2, d2) -> Scalar:
    """(a1 + b1 i)/d1 + (a2 + b2 i)/d2 for canonical operands."""
    if d1 == d2:
        a, b, d = a1 + a2, b1 + b2, d1
        if d != 1:
            g = gcd(d, a, b)
            if g != 1:
                a, b, d = a // g, b // g, d // g
    else:
        # d1 = g x and d2 = g y with gcd(x, y) = 1: the sum is
        # (a1 y + a2 x)/(g x y), and only factors of g can be common to
        # its numerator and denominator
        g = gcd(d1, d2)
        x, y = d1 // g, d2 // g
        a, b, d = a1 * y + a2 * x, b1 * y + b2 * x, x * d2
        if g != 1:
            g = gcd(g, a, b)
            if g != 1:
                a, b, d = a // g, b // g, d // g
    s = _new(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
I = _make(0, 1, 1)


def _parse_literal(text: str) -> Scalar:
    """The full grammar of `Scalar.parse`, for any text."""
    lit = _compact(text)
    if not lit:
        raise ScalarError("empty scalar literal")
    # lenient aliases for the imaginary unit
    if lit in ("i", "+i"):
        return I
    if lit == "-i":
        return _make(0, -1, 1)
    m = _LITERAL.fullmatch(lit)
    if m is None:
        raise ScalarError(f"invalid scalar literal {text!r}")
    re_n, re_d, sign, im_n, im_d, only_n, only_d = m.groups()
    if only_n is not None:
        re_n, im_n, im_d = "0", only_n, only_d
    p, q = _ints(text, re_n, re_d)
    r, s = _ints(text, im_n or "0", im_d)
    if sign == "-":
        r = -r
    return _make(*_triple(p, q, r, s))


def _common(xs) -> tuple:
    """(re, im, d): the ints of xs over their least common denominator d.

    im is None when every entry is real.
    """
    d = lcm(*[x._d for x in xs])
    if d == 1:
        re = [x._a for x in xs]
        im = [x._b for x in xs]
    else:
        scale = [d // x._d for x in xs]
        re = [x._a * f for x, f in zip(xs, scale)]
        im = [x._b * f for x, f in zip(xs, scale)]
    return re, (im if any(im) else None), d


def parts(x: Scalar) -> tuple:
    """The ints (a, b, d) of the Scalar x = (a + b*i)/d."""
    return x._a, x._b, x._d


def _dots(ra, rb, cas, cbs=None) -> tuple:
    """The integer products of the row ra + rb*i with the columns
    ca + cb*i: their real parts, and their imaginary parts or None when the
    row and every column are real.

    rb is None on a real row, and cbs, the columns' imaginary parts, is None
    when every column is real.  This is the one dot-product loop of the
    package.
    """
    if cbs is None:
        return ([sum(map(mul, ra, ca)) for ca in cas],
                None if rb is None else [sum(map(mul, rb, ca)) for ca in cas])
    if rb is None:
        return ([sum(map(mul, ra, ca)) for ca in cas],
                [sum(map(mul, ra, cb)) for cb in cbs])
    return ([sum(map(mul, ra, ca)) - sum(map(mul, rb, cb)) for ca, cb in zip(cas, cbs)],
            [sum(map(mul, rb, ca)) + sum(map(mul, ra, cb)) for ca, cb in zip(cas, cbs)])


def _imaginary(ims, width) -> list | None:
    """Imaginary parts for `_dots`: None if all are, else zeros for a None."""
    if all(im is None for im in ims):
        return None
    return [[0] * width if im is None else im for im in ims]


def from_parts(a: int, b: int, d: int) -> Scalar:
    """The canonical Scalar (a + b*i)/d for d > 0, one gcd: `parts` undone."""
    if d != 1:
        g = gcd(d, a, b)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    s = _new(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


# --- scaled Gaussian-integer matrices -------------------------------


def scaled(m) -> tuple:
    """The Scalar matrix m over the least common denominator of its entries."""
    if not m:
        return (), None, 1
    n = len(m[0])
    re, im, d = _common([x for row in m for x in row])
    return ([re[i * n:i * n + n] for i in range(len(m))],
            None if im is None else [im[i * n:i * n + n] for i in range(len(m))],
            d)


def scaled_product(a, b) -> tuple:
    """a @ b for scaled matrices: integer dot products over a_d * b_d, with no
    gcd, so a chain of products cancels nothing until `unscaled`."""
    ar, ai, ad = a
    br, bi, bd = b
    cas, cbs = list(zip(*br)), None if bi is None else list(zip(*bi))
    lines = [_dots(ra, rb, cas, cbs)
             for ra, rb in zip(ar, repeat(None) if ai is None else ai)]
    return ([re for re, _ in lines],
            None if ai is None and bi is None else [im for _, im in lines],
            ad * bd)


def scaled_same(x, y) -> bool:
    """Whether the scaled vectors x and y, each (re, im, d) with im None when
    real, are equal, cross-multiplied."""
    (xr, xi, xd), (yr, yi, yd) = x, y
    if xd == yd and (xi is None) == (yi is None):
        return xr == yr and xi == yi
    zeros = repeat(0)
    return all(u * yd == v * xd for u, v in zip(xr, yr)) and (
        xi is yi is None
        or all(u * yd == v * xd for u, v in zip(xi or zeros, yi or zeros)))


def scaled_residual(a, b, coeff=ONE):
    """None when a == coeff * b for scaled matrices a and b of one shape,
    else a - coeff * b as a scaled matrix over the product of the three
    denominators, cross-multiplied with no gcd."""
    (ar, ai, ad), (br, bi, bd) = a, b
    ca, cb, cd = coeff._a, coeff._b, coeff._d
    u, zeros = bd * cd, repeat(repeat(0))
    re = [[u * x - ad * (ca * y - cb * z) for x, y, z in zip(ra, rb, ib)]
          for ra, rb, ib in zip(ar, br, bi or zeros)]
    im = [[u * x - ad * (ca * z + cb * y) for x, y, z in zip(ia, rb, ib)]
          for ia, rb, ib in zip(ai or zeros, br, bi or zeros)]
    if any(map(any, re)) or any(map(any, im)):
        return re, im, ad * u
    return None


def unscaled(a) -> tuple:
    """The canonical Scalar rows of a scaled matrix, one gcd per entry."""
    re, im, d = a
    return tuple(tuple(map(from_parts, ra, ia, repeat(d)))
                 for ra, ia in zip(re, repeat(repeat(0)) if im is None else im))


def _parse_rational(text: str) -> Fraction:
    m = _RATIONAL.fullmatch(_compact(text))
    if m is None:
        raise ScalarError(f"invalid rational literal {text!r}")
    return Fraction(*_ints(text, m[1], m[2]))


def sc(re, im=0) -> Scalar:
    """Shorthand constructor; strings go through the full literal grammar."""
    if isinstance(im, str):
        im = _parse_rational(im)
    if isinstance(re, str):
        parsed = Scalar.parse(re)
        return Scalar(parsed.re, parsed.im + _fraction(im))
    return Scalar(re, im)
