"""Exact linear algebra over Gaussian rationals.

Vectors are tuples of Scalar, matrices are tuples of row tuples.  Sizes are
small (representation spaces up to ~8 dimensions, Gram matrices up to a few
hundred rows).  `mmul` is the one Scalar matrix product, and `mvmul` is a
one-column `mmul`: both factors are put over one common denominator each
(`scalars.scaled`), multiplied as integer matrices
(`scalars.scaled_product`) and normalised with one gcd per entry
(`scalars.unscaled`).  The representation checks skip Scalar matrices
altogether and multiply scaled matrices directly, G and G^-1 among them:
`HermitianForm` is the one place a Gram matrix becomes integers.

There is one Gauss-Jordan reduction, `_reduce`, and it works in integers:
a matrix is converted once to `IntegerRows`, each row Gaussian integers
over its own least common denominator, and a row update is
(u p) row_i - (u f) row_lead followed by one gcd over the new row (`_step`;
u = conj(p) for a non-real pivot p, so every scale stays real).  It
returns the pivot rows divided by their pivots, still in integers, the
pivot columns, `values`, each pivot's value when its column is reached,
and `swaps`, the number of row exchanges.  All but semidefiniteness read
it: `rref` (rank, pivot columns, coordinates), where its rows become
Scalars; `solve_linear` on [a | b | I] (infeasible exactly when b's column
is a pivot column, whose row carries the certificate) and `kernel`, which
make Scalars only of the entries they return; `_invert` on [m | I], whose
pivot values and swaps also decide a hermitian form's definiteness
(Sylvester); `det`, (-1)^swaps times the pivot values.
`psd_check` runs a diagonal-pivoted congruence with the same row step over
G, after a hermitianity test on the integer rows (`_hermitian`), and again
over [G | I] only to build a failing matrix's witness.
`rref`, `psd_check` and `_invert` take Scalar rows or `IntegerRows`, so one
conversion can serve several: a `HermitianForm` converts its Gram matrix
once, tests hermitianity on those rows with `_hermitian` too, and inverts
them.  Dimension 0 is allowed throughout; it shows up when a splitting has
an empty Gaussian or remainder part.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .scalars import (
    ONE,
    ZERO,
    Scalar,
    _common,
    _dots,
    _imaginary,
    from_parts,
    scaled,
    scaled_product,
    unscaled,
)

_new = object.__new__


class LinalgError(ValueError):
    pass


class DimensionMismatch(LinalgError):
    pass


class IndefiniteFormError(LinalgError):
    """An operation that needs a positive definite form got an indefinite one."""


# --- constructors ---------------------------------------------------


def vector(items) -> tuple:
    return tuple(Scalar.coerce(x) for x in items)


def matrix(rows) -> tuple:
    m = tuple(tuple(Scalar.coerce(x) for x in row) for row in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("ragged matrix")
    return m


def zero_vector(n: int) -> tuple:
    return tuple(ZERO for _ in range(n))


def identity(n: int) -> tuple:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def zero_matrix(rows: int, cols: int) -> tuple:
    return tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows))


# --- vector ops -----------------------------------------------------


def vadd(v, w):
    if len(v) != len(w):
        raise DimensionMismatch("vector sizes differ")
    return tuple(a + b for a, b in zip(v, w))


def vscale(c: Scalar, v):
    return tuple(c * a for a in v)


# --- matrix ops -----------------------------------------------------


def mat_shape(m) -> tuple:
    return (len(m), len(m[0]) if m else 0)


def msub(a, b):
    if mat_shape(a) != mat_shape(b):
        raise DimensionMismatch("matrix shapes differ")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(c: Scalar, m):
    return tuple(tuple(c * x for x in row) for row in m)


def mmul(a, b):
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise DimensionMismatch(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    return unscaled(scaled_product(scaled(a), scaled(b)))


def mvmul(m, v):
    """m @ v as a one-column `mmul`; with no rows it is empty, and with no
    columns zero, a width that a column with no rows cannot show."""
    r, c = mat_shape(m)
    if r and c != len(v):
        raise DimensionMismatch(f"cannot apply {r}x{c} to vector of size {len(v)}")
    if not c:
        return zero_vector(r)
    return tuple(x for x, in mmul(m, tuple(zip(v))))


def conj_transpose(m):
    r, c = mat_shape(m)
    return tuple(tuple(m[i][j].conj() for i in range(r)) for j in range(c))


def columns(m) -> list:
    r, c = mat_shape(m)
    return [tuple(m[i][j] for i in range(r)) for j in range(c)]


def from_columns(cols, rows_hint=None) -> tuple:
    if not cols:
        return tuple(() for _ in range(rows_hint or 0))
    r = len(cols[0])
    return tuple(tuple(col[i] for col in cols) for i in range(r))


# --- elimination ----------------------------------------------------


class IntegerRows:
    """A Gaussian-rational matrix kept as integer rows, each over its own
    least common denominator: row i is (re[i] + im[i] i) / scales[i].  im
    is None when every entry is real, and every scale is positive.

    It reads as the matrix it holds: its length is the number of rows, and
    row i is a tuple of canonical Scalars.  The lists are never mutated:
    an elimination copies the outer lists and replaces whole rows, so one
    conversion can be read by several eliminations.
    """

    __slots__ = ("re", "im", "scales", "width")

    def __init__(self, rows):
        rows = [_common(row) for row in rows]
        self.width = len(rows[0][0]) if rows else 0
        self.re = [re for re, _, _ in rows]
        self.im = _imaginary([im for _, im, _ in rows], self.width)
        self.scales = [d for _, _, d in rows]

    def __len__(self):
        return len(self.re)

    def __getitem__(self, i):
        re, im = self.re[i], self.im
        return tuple(map(from_parts, re, repeat(0) if im is None else im[i],
                         repeat(self.scales[i])))

    def with_identity(self):
        """[M | I], each identity row over its own row's scale."""
        out = _new(IntegerRows)
        n, s = len(self.re), self.scales
        out.width = self.width + n
        out.re = [re + [0] * i + [d] + [0] * (n - 1 - i)
                  for i, (re, d) in enumerate(zip(self.re, s))]
        out.im = None if self.im is None else [im + [0] * n for im in self.im]
        out.scales = list(s)
        return out


def _integer_rows(rows) -> IntegerRows:
    return rows if isinstance(rows, IntegerRows) else IntegerRows(rows)


def _step(re, im, scales, i, k, col):
    """Clear row i's entry at col with row k, fraction-free: row i becomes
    (u p) row_i - (u f) row_k, p and f the two rows' integer entries at col
    and u = conj(p) when p is not real, so the scale s_i (u p) stays real.
    One gcd over the new row and its scale then leaves the row over its
    least common denominator, with a positive scale."""
    ri, rk = re[i], re[k]
    if im is None:
        p, f = rk[col], ri[col]
        new_re = [p * x - f * y for x, y in zip(ri, rk)]
        s = scales[i] * p
        g = gcd(s, *new_re)
        new_im = None
    else:
        ii, ik = im[i], im[k]
        a, b, c, d = rk[col], ik[col], ri[col], ii[col]
        if b:
            # u = a - b i: u p = a^2 + b^2 and u f = (ac + bd) + (ad - bc) i
            a, c, d = a * a + b * b, a * c + b * d, a * d - b * c
        new_re = [a * x - c * y + d * z for x, y, z in zip(ri, rk, ik)]
        new_im = [a * x - c * y - d * z for x, y, z in zip(ii, ik, rk)]
        s = scales[i] * a
        g = gcd(s, *new_re, *new_im)
    if s < 0:
        g = -g
    if g != 1:
        new_re = [x // g for x in new_re]
        if new_im is not None:
            new_im = [x // g for x in new_im]
        s //= g
    re[i], scales[i] = new_re, s
    if im is not None:
        im[i] = new_im
    return any(new_re) or (new_im is not None and any(new_im))


def _reduce(rows) -> tuple:
    """The one Gauss-Jordan reduction, fraction-free over `IntegerRows`.
    Returns (pivot rows, pivot column indices, each pivot's value when its
    column was reached, row swaps).  A pivot row is divided by its pivot
    only at the end, into integers (re, im, a) over a > 0, im None on a
    real matrix; once every row at or below the lead is zero, no later
    column holds a pivot and the scan stops."""
    m = _integer_rows(rows)
    re, scales = list(m.re), list(m.scales)
    im = None if m.im is None else list(m.im)
    count, width = len(re), m.width
    pivots, values = [], []
    swaps = lead = 0
    # nonzero rows at or below the lead; a row above it keeps its pivot
    live = sum(1 for i in range(count)
               if any(re[i]) or (im is not None and any(im[i])))
    for col in range(width):
        if not live:
            break
        for piv in range(lead, count):
            if re[piv][col] or (im is not None and im[piv][col]):
                break
        else:
            continue
        if piv != lead:
            re[lead], re[piv] = re[piv], re[lead]
            scales[lead], scales[piv] = scales[piv], scales[lead]
            if im is not None:
                im[lead], im[piv] = im[piv], im[lead]
            swaps += 1
        values.append(from_parts(re[lead][col],
                                 0 if im is None else im[lead][col],
                                 scales[lead]))
        for i in range(count):
            if i != lead and (re[i][col] or (im is not None and im[i][col])):
                if not _step(re, im, scales, i, lead, col):
                    live -= 1
        pivots.append(col)
        lead += 1
        live -= 1
    out = []
    for k, col in enumerate(pivots):
        # row k over its pivot p: times conj(p) / |p|^2 when p is not real
        rr, ri = re[k], None if im is None else im[k]
        a, b = rr[col], 0 if ri is None else ri[col]
        if b:
            rr, ri, a = ([a * x + b * y for x, y in zip(rr, ri)],
                         [a * y - b * x for x, y in zip(rr, ri)], a * a + b * b)
        elif a < 0:
            rr, a = [-x for x in rr], -a
            ri = ri and [-y for y in ri]
        out.append((rr, ri, a))
    return out, pivots, values, swaps


def rref(rows) -> tuple:
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    m = _integer_rows(rows)
    red, pivots = _reduce(m)[:2]
    out = [tuple([from_parts(x, 0, a) if x else ZERO for x in rr]
                 if ri is None else map(from_parts, rr, ri, repeat(a)))
           for rr, ri, a in red]
    return out + [(ZERO,) * m.width] * (len(m) - len(red)), pivots


def rank(m) -> int:
    return len(_reduce(m)[1])


def kernel(m) -> list:
    """Basis of the right kernel of m, as a list of vectors."""
    return _kernel_basis(*_reduce(m)[:2], mat_shape(m)[1])


def _entry(row, j) -> Scalar:
    """Entry j of a pivot row (re, im, a) of `_reduce`, as a Scalar."""
    return from_parts(row[0][j], 0 if row[1] is None else row[1][j], row[2])


def _kernel_basis(red, pivots, c) -> list:
    """Right kernel of the c-column matrix reduced in the first c columns
    of `_reduce`'s pivot rows `red`; pivots from column c on are ignored."""
    pivots = [p for p in pivots if p < c]
    basis = []
    for j in (j for j in range(c) if j not in pivots):
        v = [ZERO] * c
        v[j] = ONE
        for row, p in zip(red, pivots):
            v[p] = -_entry(row, j)
        basis.append(tuple(v))
    return basis


class LinearSolution(NamedTuple):
    solution: tuple
    kernel_basis: tuple


class LinearInfeasible(NamedTuple):
    """Certificate row combination: certificate @ A == 0 but certificate @ b != 0."""
    certificate: tuple


def solve_linear(a, b):
    """Solve a @ x == b exactly.

    Returns LinearSolution (particular solution with free variables 0, plus
    kernel basis) or LinearInfeasible with a left-nullspace certificate.
    """
    r, c = mat_shape(a)
    if len(b) != r:
        raise DimensionMismatch("rhs size mismatch")
    # augment with rhs and an identity block to track row operations
    red, pivots = _reduce(IntegerRows(
        [(*a[i], b[i]) for i in range(r)]).with_identity())[:2]
    if c in pivots:
        # a row reduced to [0 | 1 | lam]: the identity block holds lam
        row = red[pivots.index(c)]
        return LinearInfeasible(certificate=tuple(
            _entry(row, j) for j in range(c + 1, c + 1 + r)))
    # the first c columns of the reduction are rref(a): the kernel comes
    # from the same rows as the particular solution
    sol = [ZERO] * c
    for row, p in zip(red, pivots):
        if p < c:
            sol[p] = _entry(row, c)
    return LinearSolution(solution=tuple(sol),
                          kernel_basis=tuple(_kernel_basis(red, pivots, c)))


def _invert(m) -> tuple:
    """(scaled inverse, pivot values, swaps) from one reduction of [m | I]."""
    m = _integer_rows(m)
    n = len(m)
    if n != m.width:
        raise DimensionMismatch("inverse of non-square matrix")
    red, pivots, values, swaps = _reduce(m.with_identity())
    if pivots[:n] != list(range(n)):
        raise LinalgError("matrix is singular")
    d = lcm(*[a for _, _, a in red])
    return ([[x * (d // a) for x in rr[n:]] for rr, _, a in red],
            m.im and [[y * (d // a) for y in ri[n:]] for _, ri, a in red],
            d), values, swaps


def inverse(m):
    return unscaled(_invert(m)[0])


def det(m) -> Scalar:
    """(-1)^swaps times the pivot values of one reduction, 0 below full rank."""
    n, c = mat_shape(m)
    if n != c:
        raise DimensionMismatch("determinant of non-square matrix")
    _, pivots, values, swaps = _reduce(m)
    if len(pivots) < n:
        return ZERO
    result = -ONE if swaps % 2 else ONE
    for p in values:
        result = result * p
    return result


def span_basis(vectors) -> list:
    """Row-echelon basis of the span of the given vectors."""
    red, pivots = rref(list(vectors))
    return [row for row in red[:len(pivots)]]


# --- hermitian forms ------------------------------------------------


class HermitianForm:
    """Invertible hermitian Gram matrix on column vectors.

    inner(v, w) = conj(v)^T @ gram @ w  (conjugate-linear in the first slot).
    `scaled_gram` and `scaled_gram_inv` are G and G^-1 as scaled matrices
    (`scalars.scaled`), built once, for adjoints G^-1 m* G: G^-1 straight
    from the integer rows of the one reduction of [G | I], off which
    `definite` is read too (Sylvester's criterion).  `pairing` is the
    integer row conj(G x) through which `inner`, the cocycles' pairing rows
    and `verify_schurmann_triple` pair vectors.
    """

    def __init__(self, gram):
        gram = matrix(gram)
        n, c = mat_shape(gram)
        if n != c:
            raise DimensionMismatch("gram matrix must be square")
        rows = IntegerRows(gram)
        if not _hermitian(rows):
            raise LinalgError("gram matrix is not hermitian")
        self.gram = gram
        self.dim = n
        try:
            self.scaled_gram_inv, pivots, swaps = _invert(rows)
        except LinalgError:
            raise LinalgError("gram matrix is singular") from None
        self.scaled_gram = scaled(gram)
        # Sylvester: with no swap the k-th pivot is D_k / D_(k-1), and a
        # swap means some leading principal minor D_k is zero
        self.definite = not swaps and all(p.is_real() and p.re > 0
                                          for p in pivots)

    def pairing(self, x) -> tuple:
        """conj(G x) for a scaled vector x = (re, im, d), im None when real,
        as a scaled vector over d times G's denominator, im None when G and
        x are real.  As G is hermitian it is the row r with <x, w> = r w,
        and it is one `_dots` of x against G's rows, conjugated."""
        re, im, d = x
        gre, gim, gd = self.scaled_gram
        re, im = _dots(re, im, gre, gim)
        return re, im and [-y for y in im], d * gd

    def inner(self, v, w) -> Scalar:
        if len(v) != self.dim or len(w) != self.dim:
            raise DimensionMismatch("vector size does not match form")
        re, im, d = self.pairing(_common(v))
        wre, wim, e = _common(w)
        (re,), im = _dots(re, im, [wre], wim and [wim])
        return from_parts(re, 0 if im is None else im[0], d * e)

    def orthocomplement(self, vectors) -> list:
        """Basis of {v : inner(b, v) = 0 for all b in vectors}: the kernel
        of the rows conj(b)^T G."""
        if not vectors:
            return list(identity(self.dim))
        return kernel(mmul([[x.conj() for x in b] for b in vectors],
                           self.gram))


def standard_form(n: int) -> HermitianForm:
    return HermitianForm(identity(n))


# --- exact PSD check ------------------------------------------------


class PsdResult(NamedTuple):
    psd: bool
    witness: tuple | None  # v with inner(v, G v) < 0 when not psd


def _hermitian(m) -> bool:
    """Whether the square `IntegerRows` m equals its conjugate transpose:
    row i against column i, cross-multiplied by the two rows' scales."""
    scales = m.scales
    pairs = [(m.re, 1)] if m.im is None else [(m.re, 1), (m.im, -1)]
    for rows, sign in pairs:
        for row, col, s in zip(rows, zip(*rows), scales):
            s *= sign
            if list(map(mul, row, scales)) != [s * y for y in col]:
                return False
    return True


def _psd_sweep(m, n):
    """The congruence sweep of `psd_check` over the rows of m, whose first n
    columns hold G: None when G is semidefinite, else (i, k, re, im,
    scales), the swept rows with the undone row i that fails, k None when
    its diagonal entry is a negative pivot, else its first nonzero column.

    A pass sweeps rows only; the undone block is then the same Schur
    complement a congruence gives, and done rows and columns are never read
    again.  A row's values do not depend on the columns past n, which only
    ride along."""
    re, scales = list(m.re), list(m.scales)
    im = None if m.im is None else list(m.im)
    done = [False] * n

    def nonzero(i, j):
        return re[i][j] or (im is not None and im[i][j])

    while True:
        piv = next((j for j in range(n) if not done[j] and nonzero(j, j)), None)
        if piv is None:
            break
        if im is not None and im[piv][piv]:
            raise LinalgError("hermitian matrix has non-real diagonal")
        if re[piv][piv] < 0:
            return piv, None, re, im, scales
        for i in range(n):
            if i != piv and not done[i] and nonzero(i, piv):
                _step(re, im, scales, i, piv, piv)
        done[piv] = True
    # the undone block has zero diagonal and the done columns are cleared:
    # any nonzero entry of an undone row makes the form indefinite
    for i in range(n):
        if not done[i] and (any(re[i][:n]) or im is not None and any(im[i][:n])):
            return i, next(k for k in range(n) if nonzero(i, k)), re, im, scales
    return None


def psd_check(gram) -> PsdResult:
    """Exact positive semidefiniteness test for a hermitian matrix, given
    as Scalar rows or as `IntegerRows`.

    Pivoted LDL-style congruence elimination; eigenvalues would leave the
    field, diagonal pivots do not.  `_psd_sweep` runs `_reduce`'s row step
    over G alone.  Only when it fails does it run again, over [G | I], to
    build the witness: on the undone rows the left block is then C G C* and
    the right block is C, so a witness maps back by C*.  On failure returns
    a witness vector v with conj(v)^T G v < 0.
    """
    m = _integer_rows(gram)
    n = len(m)
    if m.width != n or any(len(row) != n for row in m.re) or not _hermitian(m):
        raise LinalgError("psd_check needs a hermitian matrix")
    if _psd_sweep(m, n) is None:
        return PsdResult(psd=True, witness=None)
    i, k, re, im, scales = _psd_sweep(m.with_identity(), n)

    def back(i):
        """conj of row i of C, as Scalars."""
        return [from_parts(x, -y, scales[i]) for x, y in
                zip(re[i][n:], repeat(0) if im is None else im[i][n:])]

    if k is None:
        return PsdResult(psd=False, witness=tuple(back(i)))
    c = from_parts(re[i][k], 0 if im is None else im[i][k], scales[i])
    return PsdResult(psd=False, witness=tuple(
        y - c * x for x, y in zip(back(i), back(k))))


# --- serialization helpers -----------------------------------------


def vector_to_json(v) -> list:
    return [str(x) for x in v]


def matrix_to_json(m) -> list:
    return [[str(x) for x in row] for row in m]
