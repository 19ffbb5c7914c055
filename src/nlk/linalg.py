"""Exact linear algebra over Gaussian rationals.

Vectors are tuples of Scalar, matrices are tuples of row tuples.  Sizes are
small (representation spaces up to ~8 dimensions, Gram matrices up to a few
hundred rows).  Matrix products go through the integer kernel
`scalars.products`, which puts each row and column over one common
denominator.  Elimination is exact Gaussian elimination with Scalar
operators, one elimination per question: one `rref` gives a rank, the pivot
(first independent) columns and every column's coordinates over them;
`solve_linear` reads the solution, the kernel basis and any infeasibility
certificate off one `rref` of [a | b | I]; `inverse` reduces [m | I] once and
a hermitian form keeps its inverse as `gram_inv`; `det`, the definiteness
pass of a form and `psd_check` are one pass each.  Dimension 0 is allowed
throughout; it shows up when a splitting has an empty Gaussian or remainder
part.
"""

from __future__ import annotations

from typing import NamedTuple

from .scalars import ONE, ZERO, Scalar, products


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


def vsub(v, w):
    if len(v) != len(w):
        raise DimensionMismatch("vector sizes differ")
    return tuple(a - b for a, b in zip(v, w))


def vscale(c: Scalar, v):
    return tuple(c * a for a in v)


def vneg(v):
    return tuple(-a for a in v)


def is_zero_vector(v) -> bool:
    return all(a.is_zero() for a in v)


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
    return products(a, tuple(zip(*b)))


def mvmul(m, v):
    r, c = mat_shape(m)
    if r == 0:
        # a matrix with no rows maps anything to the empty vector
        return ()
    if c != len(v):
        raise DimensionMismatch(f"cannot apply {r}x{c} to vector of size {len(v)}")
    return tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in m)


def conj_transpose(m):
    r, c = mat_shape(m)
    return tuple(tuple(m[i][j].conj() for i in range(r)) for j in range(c))


def mat_eq(a, b) -> bool:
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(m) -> bool:
    return all(x.is_zero() for row in m for x in row)


def columns(m) -> list:
    r, c = mat_shape(m)
    return [tuple(m[i][j] for i in range(r)) for j in range(c)]


def from_columns(cols, rows_hint=None) -> tuple:
    if not cols:
        return tuple(() for _ in range(rows_hint or 0))
    r = len(cols[0])
    return tuple(tuple(col[i] for col in cols) for i in range(r))


# --- elimination ----------------------------------------------------


def rref(rows) -> tuple:
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    lead = 0
    for col in range(ncols):
        piv = None
        for i in range(lead, len(m)):
            if not m[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        m[lead], m[piv] = m[piv], m[lead]
        inv = ONE / m[lead][col]
        m[lead] = [inv * x for x in m[lead]]
        for i in range(len(m)):
            if i != lead and not m[i][col].is_zero():
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(m):
            break
    return [tuple(r) for r in m], pivots


def rank(m) -> int:
    return len(rref(m)[1])


def kernel(m) -> list:
    """Basis of the right kernel of m, as a list of vectors."""
    return _kernel_basis(*rref(m), mat_shape(m)[1])


def _kernel_basis(red, pivots, c) -> list:
    """Right kernel of the c-column matrix whose rref is the first c columns
    of the reduced rows `red`; pivots at or past column c are ignored."""
    pivots = [p for p in pivots if p < c]
    basis = []
    for j in (j for j in range(c) if j not in pivots):
        v = [ZERO] * c
        v[j] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][j]
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
    aug = [list(a[i]) + [b[i]] + [ONE if j == i else ZERO for j in range(r)]
           for i in range(r)]
    red, pivots = rref(aug)
    for i, row in enumerate(red):
        lead = next((j for j, x in enumerate(row[:c + 1]) if not x.is_zero()), None)
        if lead == c:
            cert = tuple(row[c + 1:])
            return LinearInfeasible(certificate=cert)
    # the first c columns of the reduction are rref(a): the kernel comes
    # from the same rows as the particular solution
    sol = [ZERO] * c
    for i, p in enumerate(pivots):
        if p < c:
            sol[p] = red[i][c]
    return LinearSolution(solution=tuple(sol),
                          kernel_basis=tuple(_kernel_basis(red, pivots, c)))


def inverse(m):
    n, c = mat_shape(m)
    if n != c:
        raise DimensionMismatch("inverse of non-square matrix")
    if n == 0:
        return ()
    aug = [list(m[i]) + [ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise LinalgError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def det(m) -> Scalar:
    n, c = mat_shape(m)
    if n != c:
        raise DimensionMismatch("determinant of non-square matrix")
    a = [list(r) for r in m]
    result = ONE
    for col in range(n):
        piv = next((i for i in range(col, n) if not a[i][col].is_zero()), None)
        if piv is None:
            return ZERO
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            result = -result
        result = result * a[col][col]
        inv = ONE / a[col][col]
        for i in range(col + 1, n):
            if not a[i][col].is_zero():
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return result


def span_basis(vectors) -> list:
    """Row-echelon basis of the span of the given vectors."""
    red, pivots = rref(list(vectors))
    return [row for row in red[:len(pivots)]]


# --- hermitian forms ------------------------------------------------


class HermitianForm:
    """Invertible hermitian Gram matrix on column vectors.

    inner(v, w) = conj(v)^T @ gram @ w  (conjugate-linear in the first slot).
    `gram_inv` is the inverse computed once at construction.  `definite` is
    decided exactly by Sylvester's criterion, read off one elimination pass.
    """

    def __init__(self, gram):
        gram = matrix(gram)
        n, c = mat_shape(gram)
        if n != c:
            raise DimensionMismatch("gram matrix must be square")
        if not mat_eq(gram, conj_transpose(gram)):
            raise LinalgError("gram matrix is not hermitian")
        self.gram = gram
        self.dim = n
        try:
            self.gram_inv = inverse(gram)
        except LinalgError:
            raise LinalgError("gram matrix is singular") from None
        self.definite = _pivots_positive(gram)

    def inner(self, v, w) -> Scalar:
        if len(v) != self.dim or len(w) != self.dim:
            raise DimensionMismatch("vector size does not match form")
        gw = mvmul(self.gram, w)
        return sum((a.conj() * b for a, b in zip(v, gw)), ZERO)

    def norm_sq(self, v) -> Scalar:
        return self.inner(v, v)

    def adjoint(self, m):
        """gram^-1 @ conj_transpose(m) @ gram."""
        if mat_shape(m) != (self.dim, self.dim):
            raise DimensionMismatch("matrix size does not match form")
        return mmul(self.gram_inv, mmul(conj_transpose(m), self.gram))

    def orthocomplement(self, vectors) -> list:
        """Basis of {v : inner(b, v) = 0 for all b in vectors}."""
        rows = [mvmul_conj_row(self.gram, bvec) for bvec in vectors]
        if not rows:
            return [tuple(ONE if i == j else ZERO for j in range(self.dim))
                    for i in range(self.dim)]
        return kernel(matrix(rows))


def _pivots_positive(gram) -> bool:
    """Whether elimination without row swaps meets only real positive pivots.

    The k-th pivot is the ratio of the k-th and (k-1)-th leading principal
    minors, so for a hermitian matrix this is Sylvester's criterion for
    positive definiteness.  Stops at the first pivot that is not positive.
    """
    a = [list(row) for row in gram]
    n = len(a)
    for col in range(n):
        p = a[col][col]
        if not p.is_real() or p.re <= 0:
            return False
        inv = ONE / p
        top = a[col][col + 1:]
        for i in range(col + 1, n):
            f = a[i][col]
            if not f.is_zero():
                f = f * inv
                a[i][col + 1:] = [x - f * y for x, y in zip(a[i][col + 1:], top)]
    return True


def mvmul_conj_row(gram, b):
    """Row vector v -> inner(b, .) coefficients: conj(b)^T @ gram."""
    n = len(b)
    return tuple(sum((b[i].conj() * gram[i][j] for i in range(n)), ZERO)
                 for j in range(n))


def standard_form(n: int) -> HermitianForm:
    return HermitianForm(identity(n))


# --- exact PSD check ------------------------------------------------


class PsdResult(NamedTuple):
    psd: bool
    witness: tuple | None  # v with inner(v, G v) < 0 when not psd


def psd_check(gram) -> PsdResult:
    """Exact positive semidefiniteness test for a hermitian matrix.

    Pivoted LDL-style congruence elimination; eigenvalues would leave the
    field, diagonal pivots do not.  On failure returns a witness vector v
    with conj(v)^T G v < 0.
    """
    g = matrix(gram)
    n, c = mat_shape(g)
    if n != c or not mat_eq(g, conj_transpose(g)):
        raise LinalgError("psd_check needs a hermitian matrix")
    work = [list(row) for row in g]
    # invariant: work == C @ G @ conj_transpose(C); witness maps back by conj_transpose(C)
    cmat = [list(row) for row in identity(n)]
    done = [False] * n

    def back_map(vcur):
        out = [ZERO] * n
        for i in range(n):
            if not vcur[i].is_zero():
                for j in range(n):
                    out[j] = out[j] + cmat[i][j].conj() * vcur[i]
        return tuple(out)

    while True:
        piv = None
        for j in range(n):
            if not done[j] and not work[j][j].is_zero():
                piv = j
                break
        if piv is None:
            break
        d = work[piv][piv]
        if not d.is_real():
            raise LinalgError("hermitian matrix has non-real diagonal")
        if d.re < 0:
            ecur = tuple(ONE if k == piv else ZERO for k in range(n))
            return PsdResult(psd=False, witness=back_map(ecur))
        for i in range(n):
            if i != piv and not done[i] and not work[i][piv].is_zero():
                f = work[i][piv] / d
                for k in range(n):
                    work[i][k] = work[i][k] - f * work[piv][k]
                    cmat[i][k] = cmat[i][k] - f * cmat[piv][k]
                for k in range(n):
                    work[k][i] = work[k][i] - f.conj() * work[k][piv]
        done[piv] = True
    # remaining block has zero diagonal; any nonzero entry is indefinite
    for i in range(n):
        if done[i]:
            continue
        for k in range(n):
            if done[k] or k == i:
                continue
            cval = work[i][k]
            if not cval.is_zero():
                vcur = [ZERO] * n
                vcur[i] = -cval
                vcur[k] = ONE
                return PsdResult(psd=False, witness=back_map(tuple(vcur)))
    return PsdResult(psd=True, witness=None)


# --- serialization helpers -----------------------------------------


def vector_to_json(v) -> list:
    return [str(x) for x in v]


def matrix_to_json(m) -> list:
    return [[str(x) for x in row] for row in m]


def vector_from_json(items) -> tuple:
    return tuple(Scalar.parse(x) for x in items)


def matrix_from_json(rows) -> tuple:
    return matrix([[Scalar.parse(x) for x in row] for row in rows])
