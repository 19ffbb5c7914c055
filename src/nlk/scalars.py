"""Exact complex scalars with rational real and imaginary parts.

Every number in this package is a Gaussian rational p/q + (r/s)i.  All
arithmetic is exact, so equality is a decision procedure rather than a
tolerance check.

A Scalar stores three ints (a, b, d) and means (a + b*i)/d.  The triple is
kept canonical: d > 0 and gcd(a, b, d) == 1, so zero is (0, 0, 1), equal
values have equal triples, and equality and hashing compare the triple.
The operators work on the ints directly and skip work where the shape
allows it: equal denominators add without cross-multiplying, integral
operands multiply without a gcd, and negation and conjugation never need
one.  `.re` and `.im` are read-only Fraction views of the triple.

`products(rows, cols)` is the matrix-product kernel: it brings each row and
each column to one common denominator once, forms every entry as integer
dot products (`_dots`, skipping the imaginary ones when a row or column is
real) and normalises the entry with a single gcd, so no intermediate Scalar
is built.  `common_forms` and the lazy `product_lines` are its two halves,
for callers that reuse columns or may stop early.  The callers:
`linalg.mmul` (every Scalar matrix product); the word evaluator,
`Cocycle.fill_levels` and `GroupFunctional.fill_levels`, which computes
every eta and group psi (tails' columns against their letters' rows,
formed once per letter); and
`verify_schurmann_triple` (the inner-product rows and one call per length
class of coboundary pairs, its columns brought to their denominators once
per verification and read lazily, so a failing check forms no line past
its witness's).

A scaled matrix (re, im, d) means (re + im*i)/d: int rows re and im (im
None when real) over a common denominator d > 0, not necessarily the least.
`scaled_product` multiplies two with the same `_dots` loop, over d_a * d_b
and with no gcd; `scaled_equal` tests a == c*b by cross-multiplying; so the
checks of `cocycles.Representation` build no Scalar.  `unscaled` gives
canonical Scalars, one gcd per entry; `scaled_rows` extends each row by a
Scalar into the forms `product_lines` reads, with no gcd.

The text form follows a small grammar:

    digits   ::= ("0".."9")+
    unsigned ::= digits ["/" digits]
    rational ::= ["-"] unsigned
    scalar   ::= rational
               | rational ("+"|"-") unsigned "i"
               | rational "i"

Examples: "5", "-2/7", "-1/2+3i", "2/5i", "-2i".  Nothing else parses: no
exponents, decimal points, underscores or leading "+", so a literal's size
is the size of its digit strings.
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
        a, b = (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2
        d = self._d * n
        g = gcd(d, a, b)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        return _make(a, b, d)

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
        return hash((self._a, self._b, self._d))

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


def common_forms(vectors) -> list:
    """Each Scalar vector as the (re, im, d) ints `product_lines` reads."""
    return [_common(v) for v in vectors]


def _dots(ra, rb, cols) -> list:
    """(re, im, cd) for each column (ca, cb, cd) of cols: the integer
    product of the row ra + rb*i with ca + cb*i, and the column's cd.

    rb or cb is None on a real side.  This is the one dot-product loop of
    the package.
    """
    out = []
    for ca, cb, cd in cols:
        re = sum(map(mul, ra, ca))
        im = 0
        if rb is not None:
            im = sum(map(mul, rb, ca))
            if cb is not None:
                re -= sum(map(mul, rb, cb))
        if cb is not None:
            im += sum(map(mul, ra, cb))
        out.append((re, im, cd))
    return out


def product_lines(rows, cols):
    """Lazily, for each row, the tuple of its products with every column.

    rows are Scalar sequences and cols come from `common_forms`, so columns
    shared by several calls are brought to their denominators once; a caller
    that stops early never forms the remaining lines.
    """
    for ra, rb, rd in map(_common, rows):
        line = []
        for re, im, cd in _dots(ra, rb, cols):
            d = rd * cd
            if d != 1:
                g = gcd(d, re, im)
                if g != 1:
                    re, im, d = re // g, im // g, d // g
            s = _new(Scalar)
            _set_a(s, re)
            _set_b(s, im)
            _set_d(s, d)
            line.append(s)
        yield tuple(line)


def products(rows, cols) -> tuple:
    """Rows of sum(x * y for x, y in zip(row, col)) over cols, for each row.

    rows and cols are sequences of equally long Scalar sequences; the result
    is a tuple of Scalar tuples with one entry per (row, col) pair.
    """
    return tuple(product_lines(rows, common_forms(cols)))


# --- scaled Gaussian-integer matrices -------------------------------


def scaled(m) -> tuple:
    """The Scalar matrix m over the least common denominator of its entries."""
    if not m:
        return (), None, 1
    n = len(m[0])
    re, im, d = _common([x for row in m for x in row])
    return ([re[i:i + n] for i in range(0, len(re), n)],
            None if im is None else [im[i:i + n] for i in range(0, len(im), n)],
            d)


def scaled_product(a, b) -> tuple:
    """a @ b for scaled matrices: integer dot products over a_d * b_d, with no
    gcd, so a chain of products cancels nothing until `unscaled`."""
    ar, ai, ad = a
    br, bi, bd = b
    cols = tuple(zip(zip(*br), repeat(None) if bi is None else zip(*bi),
                     repeat(bd)))
    lines = [_dots(ra, rb, cols)
             for ra, rb in zip(ar, repeat(None) if ai is None else ai)]
    return ([[x for x, _, _ in line] for line in lines],
            None if ai is None and bi is None else
            [[y for _, y, _ in line] for line in lines],
            ad * bd)


def scaled_equal(a, b, coeff=ONE) -> bool:
    """Whether a == coeff * b for scaled matrices a and b of one shape,
    compared at a common scale by cross-multiplying."""
    ar, ai, ad = a
    br, bi, bd = b
    ca, cb, cd = coeff._a, coeff._b, coeff._d
    scale = bd * cd
    zeros = repeat(repeat(0))
    for ra, ia, rb, ib in zip(ar, ai or zeros, br, bi or zeros):
        for x, y, u, v in zip(ra, ia, rb, ib):
            if (x * scale != (ca * u - cb * v) * ad
                    or y * scale != (ca * v + cb * u) * ad):
                return False
    return True


def scaled_rows(a, column) -> list:
    """Row i of the scaled matrix a followed by the Scalar column[i], each
    over one denominator: the forms `product_lines` reads."""
    re, im, d = a
    out = []
    for i, x in enumerate(column):
        e = lcm(d, x._d)
        f, g = e // d, e // x._d
        ra = [y * f for y in re[i]] if f != 1 else re[i]
        ia = ([0] * len(ra) if x._b else None) if im is None else (
            [y * f for y in im[i]] if f != 1 else im[i])
        out.append((ra + [x._a * g], None if ia is None else ia + [x._b * g], e))
    return out


def unscaled(a) -> tuple:
    """The canonical Scalar rows of a scaled matrix, one gcd per entry."""
    re, im, d = a
    out = []
    for ra, ia in zip(re, repeat(repeat(0)) if im is None else im):
        line = []
        for x, y in zip(ra, ia):
            g = gcd(d, x, y)
            line.append(_make(x // g, y // g, d // g))
        out.append(tuple(line))
    return tuple(out)


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
