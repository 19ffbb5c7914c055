"""Differential tests: package arithmetic against the naive pair reference.

Hypothesis draws Gaussian rationals, small matrices and words, and every
result of the package's scalar operators, matrix products, elimination
routines, hermitian forms, group validation, memoised word evaluators and
star-algebra rewriting is compared with (or checked by) the plain
(Fraction, Fraction) arithmetic and the restart-from-the-left rewriting in
helpers.  The scaled-integer word memos, the triple verification and the
oracle are compared with the reference and their per-word and per-pair
paths (the oracle's verdict with a brute-force search over equal words),
the truncated GNS Gram matrix with its per-entry reference, and a group
functional's value on an element with the sum of its folds.  The draws
are derandomized, so a run is repeatable and needs no example database.
"""

import contextlib
import copy
import functools
import itertools
import json
import os
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from nlk import catalog, linalg, presentations, reports
from nlk.cocycles import (
    Cocycle,
    CocycleObstructed,
    Representation,
    RepresentationError,
    big_K,
    trivial_representation,
)
from nlk.decompose import invariant_closure, split
from nlk.functionals import (
    GroupFunctional,
    StarFunctional,
    TableSupportExceeded,
    brute_force_welldefinedness_oracle,
    certificate_defect,
    descent_defect,
    forced_real_parts,
    gns_truncated,
    solve_generating_functional,
    verify_schurmann_triple,
)
from nlk.presentations import (
    AlgebraElement,
    LegNotInKernel,
    Presentation,
    ReductionBudgetExceeded,
    Tensor2,
    k1_elements,
    kn_spanning_set,
    word_to_strs,
)
from nlk.scalars import (
    _PLAIN_DIGITS,
    I,
    ONE,
    ZERO,
    Scalar,
    ScalarError,
    _parse_literal,
    from_parts,
    parts,
    sc,
    scaled,
    scaled_product,
    scaled_residual,
    unscaled,
)
from nlk.scenarios import parse_scenario

import helpers as H
from helpers import coboundary_cocycle

# no shrink phase: shrinking a failing example can take minutes, and a
# derandomized run reproduces the first failing example anyway
DIFF = settings(derandomize=True, database=None, deadline=None,
                max_examples=150, phases=(Phase.explicit, Phase.generate))
MATRICES = settings(DIFF, max_examples=60)

SMALL = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
BIG = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20))
RATIONALS = st.one_of(SMALL, SMALL, BIG)
SCALARS = st.builds(Scalar, RATIONALS, RATIONALS)
# matrix entries: small values and plenty of zeros, so singular and
# rank-deficient matrices come up often
ENTRIES = st.one_of(st.just(ZERO), st.builds(Scalar, SMALL, SMALL))
# the same beside entries with big numerators and denominators, real and
# not, so an elimination's rows mix scales of every size
WIDE_ENTRIES = st.one_of(ENTRIES, st.builds(Scalar, BIG),
                         st.builds(Scalar, BIG, BIG))


def matrices(rows, cols, entries=ENTRIES):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda m: tuple(tuple(r) for r in m))


SQUARE = st.integers(1, 4).flatmap(lambda n: matrices(n, n))
RECT = st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda rc: matrices(*rc))
WIDE_SQUARE = st.integers(1, 4).flatmap(
    lambda n: matrices(n, n, WIDE_ENTRIES))


@st.composite
def low_rank(draw, max_rows=12):
    """A tall, sparse matrix of rank at most 3, the shape of a GNS Gram
    matrix's rows: B C for B r x k and C k x c, k <= 3 <= c <= r, with
    about half of B's rows zero."""
    c = draw(st.integers(3, 6))
    r = draw(st.integers(c, max_rows))
    k = draw(st.integers(1, 3))
    b = [row if draw(st.booleans()) else (ZERO,) * k
         for row in draw(matrices(r, k))]
    return from_pairs(H.mmul(H.to_pairs_mat(b),
                             H.to_pairs_mat(draw(matrices(k, c)))))


# small, wide-entried and tall low-rank matrices
ELIMINATED = st.one_of(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda rc: matrices(*rc)),
    st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda rc: matrices(*rc, WIDE_ENTRIES)),
    low_rank())
# a swap after a zero leading row, and non-real pivots (the first one, and
# one a swap brings up)
ZERO_LEAD = linalg.matrix([[0, 0, 0], [0, 1, 2], [3, 0, 1]])
NONREAL_PIVOTS = (linalg.matrix([[I, 1], [1, I]]),
                  linalg.matrix([[0, sc(1, 1)], [sc(0, 2), 3]]))


def row_times(lam, a):
    """Row vector times matrix in pair arithmetic."""
    cols = len(a[0]) if a else 0
    out = []
    for j in range(cols):
        s = H.CZERO
        for i, li in enumerate(lam):
            s = H.cadd(s, H.cmul(li, a[i][j]))
        out.append(s)
    return tuple(out)


# --- scalars --------------------------------------------------------


@DIFF
@given(SCALARS, SCALARS)
def test_operators_match_pair_arithmetic(x, y):
    px, py = H.to_pair(x), H.to_pair(y)
    assert H.to_pair(x + y) == H.cadd(px, py)
    assert H.to_pair(x - y) == H.csub(px, py)
    assert H.to_pair(x * y) == H.cmul(px, py)
    assert H.to_pair(-x) == H.cneg(px)
    assert H.to_pair(x.conj()) == H.cconj(px)
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert H.to_pair(x / y) == H.cdiv(px, py)


@DIFF
@given(SCALARS, SCALARS, SCALARS)
def test_field_axioms(x, y, z):
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x and x * ZERO == ZERO
    assert x - x == ZERO and x + (-x) == ZERO
    assert (x * y).conj() == x.conj() * y.conj()
    if not x.is_zero():
        assert x * (ONE / x) == ONE
        assert (y / x) * x == y


@DIFF
@given(SCALARS)
def test_text_form_round_trips(x):
    assert Scalar.parse(str(x)) == x
    assert Scalar.parse(f" {str(x).replace('/', ' / ')} ") == x


@DIFF
@given(SCALARS, SCALARS)
def test_equal_values_print_and_hash_alike(x, y):
    # the same value reached by different routes
    same = Scalar(*H.to_pair(x))
    assert same == x and str(same) == str(x) and hash(same) == hash(x)
    if not y.is_zero():
        routed = (x * y) / y
        assert routed == x and str(routed) == str(x) and hash(routed) == hash(x)
    assert (x == y) == (H.to_pair(x) == H.to_pair(y))


# digit runs on both sides of the plain-rational fast path's length limit,
# zeros (leading, numerators and denominators) and, in LONG_RUNS, one run
# past the int conversion limit
DIGIT_RUNS = st.one_of(
    st.text("0", min_size=1, max_size=3),
    st.text("0123456789", min_size=1, max_size=4),
    st.integers(_PLAIN_DIGITS - 1, _PLAIN_DIGITS + 1).flatmap(
        lambda n: st.text("0123456789", min_size=n, max_size=n)))
LONG_RUNS = st.one_of(DIGIT_RUNS, st.just("9" * 4301))
# what may stand around or between the runs: signs, spaces, underscores,
# non-ASCII digits (Arabic-Indic three, fullwidth one) and the unit
JUNK = st.sampled_from(["", " ", "  ", "+", "-", "--", "_", "\u0663",
                        "\uff11", "i", "\t", "e3", "."])
PLAIN_TEXTS = st.builds(
    "{}{}{}".format, st.sampled_from(["", "-"]), DIGIT_RUNS,
    st.one_of(st.just(""), DIGIT_RUNS.map("/{}".format)))
RATIONAL_TEXTS = st.builds(
    "{}{}{}".format, st.sampled_from(["", "-", "+", " ", "-0"]), LONG_RUNS,
    st.one_of(st.just(""), LONG_RUNS.map("/{}".format),
              st.sampled_from(["/0", "/00", "/ 2", "/-2", "/"])))
LITERAL_TEXTS = st.one_of(
    PLAIN_TEXTS, PLAIN_TEXTS, PLAIN_TEXTS, RATIONAL_TEXTS,
    # an imaginary part, or a whole literal that is one
    st.builds("{}{}{}i".format, RATIONAL_TEXTS, st.sampled_from(["+", "-"]),
              LONG_RUNS),
    RATIONAL_TEXTS.map("{}i".format),
    st.builds("{}{}{}".format, JUNK, RATIONAL_TEXTS, JUNK),
    st.lists(st.one_of(LONG_RUNS, JUNK, st.just("/")), max_size=5).map(
        "".join))


def parse_outcome(parse, text):
    """The canonical triple parse gives text, or its ScalarError's message."""
    try:
        return parts(parse(text))
    except ScalarError as exc:
        return str(exc)


@settings(DIFF, max_examples=500)
@given(LITERAL_TEXTS)
@example("0")
@example("-0/7")
@example("-6/4")
@example("007/0014")
@example("3/0")
@example("0/0")
@example("-0/0")
@example("1" * _PLAIN_DIGITS + "/" + "2" * _PLAIN_DIGITS)
@example("1" * (_PLAIN_DIGITS + 1))
@example("1/" + "0" * (_PLAIN_DIGITS + 1))
@example("1\n")
def test_plain_rationals_parse_as_the_full_grammar_does(text):
    # Scalar.parse reads a plain rational by its fast path and all else by
    # _parse_literal: one value, or one error, either way
    assert parse_outcome(Scalar.parse, text) == parse_outcome(_parse_literal,
                                                              text)


# --- elimination ----------------------------------------------------


# matrices whose elimination must swap rows
SWAPPING = (linalg.matrix([[0, 1], [1, 0]]),
            linalg.matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))


@MATRICES
@given(SQUARE)
@example(SWAPPING[0])
@example(SWAPPING[1])
# a swap between rows over different denominators, and a negative pivot
@example(linalg.matrix([[0, "1/2"], ["1/3", 1]]))
@example(linalg.matrix([["-1/2", 1], [1, "1/3"]]))
def test_det_matches_cofactor_expansion(m):
    d = linalg.det(m)
    assert H.to_pair(d) == H.naive_det(H.to_pairs_mat(m))
    assert d == Scalar(d.re, d.im)  # a canonical triple


@MATRICES
@given(st.one_of(SQUARE, WIDE_SQUARE))
@example(SWAPPING[0])
@example(ZERO_LEAD)
@example(NONREAL_PIVOTS[0])
@example(NONREAL_PIVOTS[1])
def test_inverse_matches_reference_or_reports_singular(m):
    if H.cis_zero(H.naive_det(H.to_pairs_mat(m))):
        with pytest.raises(linalg.LinalgError):
            linalg.inverse(m)
    else:
        assert H.to_pairs_mat(linalg.inverse(m)) == H.minv(H.to_pairs_mat(m))


@MATRICES
@given(RECT)
def test_kernel_vectors_are_annihilated(m):
    basis = linalg.kernel(m)
    cols = len(m[0])
    assert len(basis) == cols - linalg.rank(m)
    for k in basis:
        assert not H.is_zero_vector(k)
        assert H.mvec(H.to_pairs_mat(m), H.to_pairs_vec(k)) == H.zero_vec(len(m))


@MATRICES
@given(ELIMINATED)
@example(ZERO_LEAD)
@example(NONREAL_PIVOTS[0])
@example(NONREAL_PIVOTS[1])
def test_rref_rows_rebuild_every_column_from_the_pivot_columns(m):
    """m[:, j] = sum_i m[:, p_i] red[i][j]: the reduced rows express each
    column over the pivot columns, which are the greedy independent ones."""
    red, pivots = linalg.rref(m)
    pm = H.to_pairs_mat(m)
    cols = [tuple(row[j] for row in pm) for j in range(len(m[0]))]
    assert pivots == H.independent_subset(cols)
    for j, col in enumerate(cols):
        combo = H.zero_vec(len(m))
        for i, p in enumerate(pivots):
            combo = H.vadd(combo, H.vscale(H.to_pair(red[i][j]), cols[p]))
        assert combo == col


@st.composite
def systems(draw):
    """(a, b): a small, wide-entried or tall low-rank matrix, against a
    drawn or a consistent right-hand side."""
    m = draw(st.one_of(RECT, ELIMINATED))
    rows, cols = len(m), len(m[0])
    if draw(st.booleans()):
        x = draw(st.lists(ENTRIES, min_size=cols, max_size=cols))
        return m, linalg.mvmul(m, tuple(x))  # consistent by construction
    return m, tuple(draw(st.lists(WIDE_ENTRIES, min_size=rows, max_size=rows)))


@MATRICES
@given(systems())
# a zero leading row swapped away, consistent or not, and non-real pivots
@example((ZERO_LEAD, linalg.vector([0, 1, 1])))
@example((ZERO_LEAD, linalg.vector([1, 0, 0])))
@example((NONREAL_PIVOTS[0], linalg.vector([1, I])))
@example((NONREAL_PIVOTS[1], linalg.vector([I, 0])))
def test_solve_linear_solves_or_certifies(system):
    m, b = system
    rows, cols = len(m), len(m[0])
    out = linalg.solve_linear(m, b)
    pm, pb = H.to_pairs_mat(m), H.to_pairs_vec(b)
    if isinstance(out, linalg.LinearSolution):
        assert H.mvec(pm, H.to_pairs_vec(out.solution)) == pb
        for k in out.kernel_basis:
            assert H.mvec(pm, H.to_pairs_vec(k)) == H.zero_vec(rows)
        ker = [H.to_pairs_vec(k) for k in out.kernel_basis]
        assert len(ker) == cols - H.rank(pm) == H.rank(ker)
    else:
        lam = H.to_pairs_vec(out.certificate)
        assert row_times(lam, pm) == H.zero_vec(cols)
        lam_b = H.CZERO
        for li, bi in zip(lam, pb):
            lam_b = H.cadd(lam_b, H.cmul(li, bi))
        assert not H.cis_zero(lam_b)


def rref_reading(a, b):
    """`solve_linear` as it read Scalar rows of rref([a | b | I]): the
    certificate from the identity block of the row whose pivot is b's
    column, else the solution from b's column and the kernel from the free
    columns of a."""
    rows, cols = len(a), len(a[0])
    red, pivots = linalg.rref(linalg.IntegerRows(
        [(*a[i], b[i]) for i in range(rows)]).with_identity())
    if cols in pivots:
        return linalg.LinearInfeasible(
            certificate=tuple(red[pivots.index(cols)][cols + 1:]))
    pivots = [p for p in pivots if p < cols]
    solution = [ZERO] * cols
    for i, p in enumerate(pivots):
        solution[p] = red[i][cols]
    basis = []
    for j in (j for j in range(cols) if j not in pivots):
        v = [ZERO] * cols
        v[j] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][j]
        basis.append(tuple(v))
    return linalg.LinearSolution(solution=tuple(solution),
                                 kernel_basis=tuple(basis))


@MATRICES
@given(systems())
@example((ZERO_LEAD, linalg.vector([0, 1, 1])))
@example((ZERO_LEAD, linalg.vector([1, 0, 0])))
@example((NONREAL_PIVOTS[0], linalg.vector([1, I])))
@example((NONREAL_PIVOTS[1], linalg.vector([I, 0])))
def test_solve_linear_reads_what_rref_reads(system):
    """Solution, kernel basis and certificate equal, canonical entry for
    entry, what `rref` of [a | b | I] gives."""
    m, b = system
    out, expected = linalg.solve_linear(m, b), rref_reading(m, b)
    assert type(out) is type(expected) and out == expected
    if isinstance(out, linalg.LinearSolution):
        assert linalg.kernel(m) == list(expected.kernel_basis)


@st.composite
def certificate_cases(draw):
    """(a, b, lam): lam drawn, or a left-kernel vector of a (perturbed in
    one entry or not), against a drawn or a consistent right-hand side."""
    a = draw(RECT)
    rows, cols = len(a), len(a[0])
    if draw(st.booleans()):
        b = linalg.mvmul(a, tuple(draw(st.lists(ENTRIES, min_size=cols,
                                                max_size=cols))))
    else:
        b = tuple(draw(st.lists(ENTRIES, min_size=rows, max_size=rows)))
    left = linalg.kernel(tuple(zip(*a)))
    if left and draw(st.booleans()):
        lam = list(draw(st.sampled_from(left)))
        if draw(st.booleans()):
            lam[draw(st.integers(0, rows - 1))] += draw(NONZERO)
    else:
        lam = draw(st.lists(ENTRIES, min_size=rows, max_size=rows))
    return a, b, tuple(lam)


@MATRICES
@given(certificate_cases())
# a true certificate, it perturbed, and one that pairs b to 0
@example((((ZERO, ZERO), (ZERO, ONE)), (ONE, ZERO), (ONE, ZERO)))
@example((((ZERO, ZERO), (ZERO, ONE)), (ONE, ZERO), (ONE, I)))
@example((((ZERO, ZERO), (ZERO, ONE)), (ZERO, ONE), (ONE, ZERO)))
# an empty system: no relator, so nothing to contradict
@example(((), (), ()))
def test_certificate_defect_matches_the_reference(case):
    a, b, lam = case
    pa, pb, pl = H.to_pairs_mat(a), H.to_pairs_vec(b), H.to_pairs_vec(lam)
    lam_b = H.CZERO
    for li, bi in zip(pl, pb):
        lam_b = H.cadd(lam_b, H.cmul(li, bi))
    if row_times(pl, pa) != H.zero_vec(len(a[0]) if a else 0):
        expected = "certificate does not annihilate the system"
    elif H.cis_zero(lam_b):
        expected = "certificate does not contradict the right-hand side"
    else:
        expected = None
    assert certificate_defect(lam, a, b) == expected
    assert certificate_defect(lam + (ONE,), a, b) == \
        "certificate has the wrong size"


def from_pairs(m):
    return tuple(tuple(Scalar(*x) for x in row) for row in m)


def pair_adjoint(m):
    return tuple(tuple(H.cconj(m[j][i]) for j in range(len(m)))
                 for i in range(len(m[0]) if m else 0))


# products: real, complex, zero and huge entries side by side, so rows and
# columns mix denominators and their common denominators grow large
PRODUCT_ENTRIES = st.one_of(st.just(ZERO), st.builds(Scalar, SMALL),
                            st.builds(Scalar, SMALL, SMALL),
                            st.builds(Scalar, BIG, BIG))


@st.composite
def product_operands(draw):
    """(a, b) with a r x k and b k x c, r, k, c in 0..4; some rows of a and
    columns of b are zeroed."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    cells = st.lists(PRODUCT_ENTRIES, min_size=k, max_size=k)
    a = [draw(cells) for _ in range(r)]
    b = [draw(st.lists(PRODUCT_ENTRIES, min_size=c, max_size=c))
         for _ in range(k)]
    for i in range(r):
        if draw(st.booleans()):
            a[i] = [ZERO] * k
    for j in range(c):
        if draw(st.booleans()):
            for row in b:
                row[j] = ZERO
    return tuple(map(tuple, a)), tuple(map(tuple, b))


@MATRICES
@given(product_operands())
# a 3 x 0 matrix maps the empty vector to the zero vector of length 3
@example((((), (), ()), ()))
def test_mmul_matches_reference(operands):
    a, b = operands
    if linalg.mat_shape(a)[1] != linalg.mat_shape(b)[0]:
        # a matrix without rows cannot show its column count
        assert not a
        with pytest.raises(linalg.DimensionMismatch):
            linalg.mmul(a, b)
        return
    got = linalg.mmul(a, b)
    assert H.to_pairs_mat(got) == H.mmul(H.to_pairs_mat(a), H.to_pairs_mat(b))
    for row in got:
        for x in row:  # canonical triples: equal to the same value rebuilt
            assert x == Scalar(x.re, x.im) and hash(x) == hash(Scalar(x.re, x.im))
    # mvmul on b's columns; a b without rows has none, and the empty
    # vector stands in
    for v in linalg.columns(b) if b else [()]:
        assert H.to_pairs_vec(linalg.mvmul(a, v)) == H.mvec(
            H.to_pairs_mat(a), H.to_pairs_vec(v))


def hermitian(entries, n):
    """Hermitian n x n matrix from drawn upper-triangle entries."""
    m = [[ZERO] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        m[i][i] = Scalar(next(it).re)
        for j in range(i + 1, n):
            m[i][j] = next(it)
            m[j][i] = m[i][j].conj()
    return tuple(tuple(r) for r in m)


def hermitians(max_n, entries=ENTRIES):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(entries, min_size=n * (n + 1) // 2,
                           max_size=n * (n + 1) // 2).map(
            lambda e: hermitian(e, n)))


HERMITIAN = hermitians(4)


@st.composite
def gns_grams(draw, max_n=12):
    """Gram matrices shaped like the GNS ones: G_ij = sum_k s_k conj(v_ik)
    v_jk for vectors v_i in dimension k <= 3, about half of them zero, and
    signs s_k in {1, 0, -1}; rank at most 3, semidefinite or not."""
    n, k = draw(st.integers(1, max_n)), draw(st.integers(1, 3))
    vs = [row if draw(st.booleans()) else (H.CZERO,) * k
          for row in H.to_pairs_mat(draw(matrices(n, k)))]
    signs = draw(st.lists(st.sampled_from([1, 0, -1]), min_size=k,
                          max_size=k))
    return from_pairs(tuple(tuple(
        functools.reduce(H.cadd, (H.cmul((Fraction(s), Fraction(0)),
                                         H.cmul(H.cconj(x), y))
                                  for s, x, y in zip(signs, vi, vj)), H.CZERO)
        for vj in vs) for vi in vs))


@MATRICES
@given(HERMITIAN)
def test_psd_witness_has_negative_value(g):
    res = linalg.psd_check(g)
    if res.psd:
        assert res.witness is None
        return
    w = H.to_pairs_vec(res.witness)
    value = H.inner(H.to_pairs_mat(g), w, w)
    assert value[1] == 0 and value[0] < 0


# B^* B is definite for invertible B and singular otherwise
GRAMS = st.one_of(HERMITIAN, SQUARE.map(
    lambda b: from_pairs(H.mmul(pair_adjoint(H.to_pairs_mat(b)),
                                H.to_pairs_mat(b)))))


@MATRICES
@given(st.one_of(GRAMS, hermitians(4, WIDE_ENTRIES)))
@example(SWAPPING[0])
@example(SWAPPING[1])
# a swap brings up the non-real pivot -i, then i
@example(linalg.matrix([[0, I], [-I, 0]]))
@example(linalg.matrix([[0, sc(1, 1), 0], [sc(1, -1), 0, 0], [0, 0, 1]]))
# wide non-real entries off the diagonal, and the form of dimension 0
@example(linalg.matrix([[sc(Fraction(10**30, 7)), sc(Fraction(1, 10**20), 5)],
                        [sc(Fraction(1, 10**20), -5), 3]]))
@example(())
def test_hermitian_form_definite_by_leading_minors(g):
    pg = H.to_pairs_mat(g)
    if H.cis_zero(H.naive_det(pg)):
        with pytest.raises(linalg.LinalgError, match="gram matrix is singular"):
            linalg.HermitianForm(g)
        return
    minors = [H.naive_det(tuple(row[:k] for row in pg[:k]))
              for k in range(1, len(pg) + 1)]
    form = linalg.HermitianForm(g)
    assert form.definite == all(im == 0 and re > 0 for re, im in minors)
    # the form's integers: G^-1, and for rows x and y of G and the zero
    # vector, <x, y> and the pairing row of x, whose entries are <x, e_j>
    assert H.to_pairs_mat(unscaled(form.scaled_gram_inv)) == H.minv(pg)
    vectors = (*g, linalg.zero_vector(len(g)))
    for x in vectors:
        px = H.to_pairs_vec(x)
        (re,), im, d = scaled((x,))
        re, im, d = form.pairing((re, im and im[0], d))
        assert H.to_pairs_mat(unscaled(([re], im and [im], d))) == (
            tuple(H.inner(pg, px, e) for e in H.mid(len(g))),)
        for y in vectors:
            assert H.to_pair(form.inner(x, y)) == H.inner(
                pg, px, H.to_pairs_vec(y))


@st.composite
def nearly_hermitian(draw):
    """An n x n matrix, n in 0..4, of Gaussian rationals whose rows have
    different denominators: hermitian, hermitian but for one entry, or
    drawn entry by entry."""
    n = draw(st.integers(0, 4))
    entries = st.one_of(ENTRIES, WIDE_ENTRIES)
    if draw(st.booleans()):
        return draw(matrices(n, n, entries))
    m = [list(row) for row in hermitian(
        draw(st.lists(entries, min_size=n * (n + 1) // 2,
                      max_size=n * (n + 1) // 2)), n)]
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i][j] = m[i][j] + draw(st.sampled_from([ONE, I, sc("1/3", "-1/2")]))
    return tuple(map(tuple, m))


@MATRICES
@given(nearly_hermitian())
# rows over 6 and 3 whose entries agree only when cross-multiplied
@example(linalg.matrix([[sc("1/2"), sc("1/3")], [sc("1/3"), 5]]))
@example(linalg.matrix([[sc("1/2"), sc("1/3")], [sc("2/3"), 5]]))
@example(linalg.matrix([[0, sc(0, "1/2")], [sc(0, "1/2"), 1]]))
@example(())
def test_hermitian_form_refuses_exactly_what_differs_from_its_adjoint(g):
    pg = H.to_pairs_mat(g)
    if pg != pair_adjoint(pg):
        with pytest.raises(linalg.LinalgError,
                           match="gram matrix is not hermitian"):
            linalg.HermitianForm(g)
        return
    try:
        linalg.HermitianForm(g)
    except linalg.LinalgError as exc:
        assert str(exc) == "gram matrix is singular"


@settings(DIFF, max_examples=300)
@given(st.one_of(hermitians(6), hermitians(6, WIDE_ENTRIES), gns_grams()))
# a zero leading row, semidefinite or not, and a zero-diagonal block, alone
# or after a pivot
@example(SWAPPING[0])
@example(linalg.matrix([[0, 0, 0], [0, 1, 1], [0, 1, 2]]))
@example(linalg.matrix([[0, 0, 0], [0, 1, 2], [0, 2, 1]]))
@example(linalg.matrix([[0, 0, 0], [0, 0, I], [0, -I, 1]]))
def test_psd_check_matches_the_congruence_reference(g):
    # reports carry the witness, so it is pinned, not only its sign
    res = linalg.psd_check(g)
    psd, witness = H.psd_witness(H.to_pairs_mat(g))
    assert res.psd == psd
    assert (res.witness and H.to_pairs_vec(res.witness)) == witness


@MATRICES
@given(RECT)
def test_psd_accepts_gram_matrices(b):
    # B^* B is positive semidefinite for every B
    g = linalg.mmul(linalg.conj_transpose(b), b)
    assert linalg.psd_check(g).psd


# --- group validation -----------------------------------------------


NONZERO = st.builds(Scalar, SMALL, SMALL).filter(bool)
UNITS = st.sampled_from([ONE, -ONE, I, -I])


@st.composite
def unitary_settings(draw, count=1):
    """(gram, image, ...) with count images unitary for the form
    gram = B^* D B.

    B is invertible lower triangular and D a diagonal of signs; an image
    is B^-1 U B for U a diagonal of units, times a rational rotation of the
    first two coordinates when D is constant there.
    """
    n = draw(st.integers(1, 3))
    b = [[draw(NONZERO) if i == j else draw(ENTRIES) if j < i else ZERO
          for j in range(n)] for i in range(n)]
    signs = draw(st.lists(st.sampled_from([ONE, -ONE]), min_size=n, max_size=n))
    pb = H.to_pairs_mat(b)
    pd = tuple(tuple(H.to_pair(signs[i]) if i == j else H.CZERO
                     for j in range(n)) for i in range(n))
    images = []
    for _ in range(count):
        u = [[draw(UNITS) if i == j else ZERO for j in range(n)]
             for i in range(n)]
        if n >= 2 and signs[0] == signs[1] and draw(st.booleans()):
            c, s = Scalar(Fraction(3, 5)), Scalar(Fraction(4, 5))
            u[0][0], u[0][1], u[1][0], u[1][1] = (
                c * u[0][0], -s * u[1][1], s * u[0][0], c * u[1][1])
        pu = H.to_pairs_mat(u)
        images.append(from_pairs(H.mmul(H.minv(pb), H.mmul(pu, pb))))
    return (from_pairs(H.mmul(pair_adjoint(pb), H.mmul(pd, pb))), *images)


def one_generator(gram, image):
    p = Presentation.group(["g"], [])
    return Representation(p, linalg.HermitianForm(gram), {"g": image})


def only_violation(gram, image):
    with pytest.raises(RepresentationError) as info:
        one_generator(gram, image)
    (v,) = info.value.violations
    assert v.code == "NOT_STAR_COMPATIBLE" and v.target == "g"
    return v


@MATRICES
@given(unitary_settings())
def test_unitary_image_validates_with_the_inverse_as_letter(setting):
    gram, image = setting
    rep = one_generator(gram, image)
    assert (H.to_pairs_mat(rep.word_matrix((("g", -1),)))
            == H.minv(H.to_pairs_mat(image)))


@MATRICES
@given(unitary_settings(), st.data())
def test_singular_image_is_reported(setting, data):
    gram, _ = setting
    n = len(gram)
    m = [list(r) for r in data.draw(matrices(n, n))]
    # the last row: a multiple of the first, or zero for a 1 x 1 image
    c = data.draw(ENTRIES) if n > 1 else ZERO
    m[-1] = [c * x for x in m[0]]
    v = only_violation(gram, tuple(map(tuple, m)))
    assert v.message == "image of g is singular" and v.residual is None


@MATRICES
@given(unitary_settings(), st.data())
def test_non_unitary_image_reports_adjoint_minus_inverse(setting, data):
    gram, _ = setting
    m = data.draw(matrices(len(gram), len(gram)))
    pg, pm = H.to_pairs_mat(gram), H.to_pairs_mat(m)
    assume(not H.cis_zero(H.naive_det(pm)))
    adjoint = H.star_letter_matrix({"g": pm}, pg, ("g", 1))
    inverse = H.minv(pm)
    assume(adjoint != inverse)
    v = only_violation(gram, m)
    assert v.message == "image of g is not form-unitary"
    assert H.to_pairs_mat(v.residual) == tuple(
        tuple(H.csub(x, y) for x, y in zip(ra, ri))
        for ra, ri in zip(adjoint, inverse))


# --- the scaled Gaussian-integer kernel ----------------------------


def kernel_matrices(n):
    """n x n matrices with denominators 1..9, either all real or not."""
    return st.tuples(st.booleans(), matrices(n, n)).map(
        lambda rm: tuple(tuple(Scalar(x.re) for x in row) for row in rm[1])
        if rm[0] else rm[1])


KERNEL_PAIRS = st.integers(1, 4).flatmap(
    lambda n: st.tuples(kernel_matrices(n), kernel_matrices(n)))
# a form and an image of one size; the form need not be definite
FORM_AND_IMAGE = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(ENTRIES, min_size=n * (n + 1) // 2,
             max_size=n * (n + 1) // 2).map(lambda e: hermitian(e, n)),
    kernel_matrices(n)))


def pair_scale(c, m):
    return tuple(tuple(H.cmul(H.to_pair(c), x) for x in row)
                 for row in H.to_pairs_mat(m))


def check_residual(residual, lhs, rhs):
    """`scaled_residual`'s reading of the pair matrices lhs and rhs: None
    exactly when they are equal, else lhs - rhs."""
    if lhs == rhs:
        assert residual is None
    else:
        assert H.to_pairs_mat(unscaled(residual)) == tuple(
            tuple(H.csub(x, y) for x, y in zip(rl, rr))
            for rl, rr in zip(lhs, rhs))


@MATRICES
@given(KERNEL_PAIRS)
def test_scaled_product_matches_reference(pair):
    a, b = pair
    sa, sb = scaled(a), scaled(b)
    assert unscaled(sa) == a and unscaled(sb) == b
    product = scaled_product(sa, sb)
    # the denominators multiply and nothing cancels
    assert product[2] == sa[2] * sb[2]
    assert (product[1] is None) == (sa[1] is None and sb[1] is None)
    expected = H.mmul(H.to_pairs_mat(a), H.to_pairs_mat(b))
    assert H.to_pairs_mat(unscaled(product)) == expected
    check_residual(scaled_residual(product, scaled(from_pairs(expected))),
                   expected, expected)
    check_residual(scaled_residual(product, sa), expected, H.to_pairs_mat(a))


@MATRICES
@given(KERNEL_PAIRS, ENTRIES, st.booleans())
def test_scaled_residual_cross_multiplies_the_coefficient(pair, c, make_equal):
    a, b = pair
    if make_equal:
        a = from_pairs(pair_scale(c, b))
    check_residual(scaled_residual(scaled(a), scaled(b), c),
                   H.to_pairs_mat(a), pair_scale(c, b))


@MATRICES
@given(FORM_AND_IMAGE)
def test_inverse_and_starred_letters_are_the_reference_adjoint(setting):
    gram, m = setting
    pg = H.to_pairs_mat(gram)
    assume(not H.cis_zero(H.naive_det(pg)))
    form = linalg.HermitianForm(gram)
    group = Representation(Presentation.group(["g"], []), form, {"g": m},
                           _validated=True)
    star = Representation(
        Presentation.star_algebra(["g"], {"g": "g*"}, {"g": ZERO}, []),
        form, {"g": m})
    expected = H.adjoint(pg, H.to_pairs_mat(m))
    assert H.to_pairs_mat(group.word_matrix((("g", -1),))) == expected
    assert H.to_pairs_mat(star.word_matrix((("g", 1),))) == expected


@st.composite
def unitarity_cases(draw):
    """(gram, image): a unitary image, one with a changed entry, or any."""
    gram, image = draw(unitary_settings())
    n = len(gram)
    case = draw(st.sampled_from(["unitary", "changed", "any"]))
    if case == "any":
        return gram, draw(matrices(n, n))
    if case == "changed":
        m = [list(row) for row in image]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i][j] = m[i][j] + draw(NONZERO)
        image = tuple(map(tuple, m))
    return gram, image


@MATRICES
@given(unitarity_cases())
def test_unitarity_check_matches_reference(setting):
    gram, image = setting
    try:
        one_generator(gram, image)
        valid = True
    except RepresentationError:
        valid = False
    assert valid == H.is_unitary(H.to_pairs_mat(gram), H.to_pairs_mat(image))


# --- the remainder subspace ----------------------------------------


@st.composite
def closure_representations(draw):
    """A representation over a definite or indefinite invertible form:
    two unitary images of a free group, or a star algebra on x with a
    formal star, beside a self-adjoint y or a swapped pair z <-> w or both,
    each generator mapping to eps times the identity plus a rank-one u v^T
    (made self-adjoint for y), so that pi(x) is not normal and
    pi(l) - eps(l) has a small range that the stars can leave."""
    gram, a, b = draw(unitary_settings(count=2))
    form = linalg.HermitianForm(gram)
    if draw(st.booleans()):
        return Representation(Presentation.group(["a", "b"], []), form,
                              {"a": a, "b": b})
    n, pg = len(gram), H.to_pairs_mat(gram)

    def rank_one():
        u, v = (draw(st.lists(ENTRIES, min_size=n, max_size=n))
                for _ in range(2))
        return tuple(tuple(H.to_pair(x * y) for y in v) for x in u)

    def shifted(eps, m):
        """eps times the identity plus the pair matrix m, in Scalars."""
        return tuple(tuple(Scalar(*x) + (eps if i == j else ZERO)
                           for j, x in enumerate(row))
                     for i, row in enumerate(m))

    gens = draw(st.sampled_from([["x"], ["x", "y"], ["x", "z", "w"],
                                 ["x", "y", "z", "w"]]))
    eps = {"x": draw(ENTRIES), "y": Scalar(draw(SMALL)), "z": draw(ENTRIES)}
    eps["w"] = eps["z"].conj()
    nx, nz, s = rank_one(), rank_one(), rank_one()
    pairs = {"x": nx, "y": H.madd(s, H.adjoint(pg, s)), "z": nz,
             "w": H.adjoint(pg, nz)}
    involution = {"x": "x*", "y": "y", "z": "w", "w": "z"}
    p = Presentation.star_algebra(gens, {g: involution[g] for g in gens},
                                  {g: eps[g] for g in gens}, [])
    return Representation(p, form, {g: shifted(eps[g], pairs[g])
                                     for g in gens})


@settings(DIFF, max_examples=60)
@given(closure_representations())
def test_invariant_closure_is_the_span_of_its_seeds(rep):
    """The span of the (pi(l) - eps(l)) e_i is already invariant: the
    closure loop of `helpers` never extends it."""
    assert invariant_closure(rep) == H.invariant_closure_by_iteration(rep)


def free_reduction(letters):
    out = []
    for x in letters:
        if out and out[-1] != x and out[-1].rstrip("^-1") == x.rstrip("^-1"):
            out.pop()
        else:
            out.append(x)
    return out


RELATOR_WORDS = st.lists(st.sampled_from(["a", "a^-1", "b", "b^-1"]),
                         min_size=1, max_size=8).map(free_reduction).filter(bool)


@MATRICES
@given(unitary_settings(count=2), RELATOR_WORDS)
def test_relator_product_matches_reference(setting, relator):
    gram, ia, ib = setting
    images = {"a": ia, "b": ib}
    p = Presentation.group(["a", "b"], [relator])
    form = linalg.HermitianForm(gram)
    rep = Representation(p, form, images, _validated=True)
    ref_images = {g: H.to_pairs_mat(m) for g, m in images.items()}
    for word in (p.relators[0], p.alphabet()):
        expected = H.eval_group_word(ref_images, word)
        assert H.to_pairs_mat(rep.word_matrix(word)) == expected
    expected = H.eval_group_word(ref_images, p.relators[0])
    try:
        Representation(p, form, images)
        valid = True
    except RepresentationError as exc:
        (v,) = exc.violations
        assert v.code == "RELATION_VIOLATED"
        assert H.to_pairs_mat(v.residual) == tuple(
            tuple(H.csub(x, y) for x, y in zip(row, one))
            for row, one in zip(expected, H.mid(len(gram))))
        valid = False
    assert valid == (expected == H.mid(len(gram)))


# (lhs, coeff, rhs) in tokens: a b = b a and b = a a on the group, and on
# the star algebra x x = c x and x* x* = conj(c) x* for a non-real c
GROUP_RELATIONS = ((["a", "b", "a^-1", "b^-1"], None, []),
                   (["a", "a", "b^-1"], None, []))
STAR_RELATIONS = ((["x", "x"], "c", ["x"]), (["x*", "x*"], "conj", ["x*"]))


@st.composite
def edited_cocycles(draw):
    """(kind, gram, images, c, eps(x), values in pairs): the coboundary
    (pi(l) - eps(l)) v of a valid representation, then one letter's value
    plus a drawn vector, zero at times.  On the group a = B^-1 U B over
    G = B* D B and b = a a; on the star algebra x* is free,
    pi(x) = c S^-1 E S for a 0-1 diagonal E, and eps(x) is 0 or c."""
    gram, image = draw(unitary_settings())
    n = len(gram)
    pg, v = H.to_pairs_mat(gram), H.to_pairs_vec(draw(matrices(1, n))[0])
    kind = draw(st.sampled_from([presentations.GROUP,
                                 presentations.STAR_ALGEBRA]))
    if kind == presentations.GROUP:
        pa = H.to_pairs_mat(image)
        letters = images = {"a": pa, "b": H.mmul(pa, pa)}
        c = eps = H.CZERO
        shift = {g: H.CONE for g in letters}
    else:
        c = H.to_pair(draw(NONZERO.filter(lambda z: not z.is_real())))
        s = [[draw(NONZERO) if i == j else draw(ENTRIES) if j < i else ZERO
              for j in range(n)] for i in range(n)]
        ps = H.to_pairs_mat(s)
        e = tuple(tuple(H.CONE if i == j and draw(st.booleans()) else H.CZERO
                        for j in range(n)) for i in range(n))
        px = tuple(tuple(H.cmul(c, y) for y in row)
                   for row in H.mmul(H.minv(ps), H.mmul(e, ps)))
        images = {"x": px}
        eps = draw(st.sampled_from([H.CZERO, c]))
        letters = {"x": px, "x*": H.star_letter_matrix(images, pg, ("x", 1))}
        shift = {"x": eps, "x*": H.cconj(eps)}
    values = {key: tuple(H.csub(x, H.cmul(shift[key], y))
                         for x, y in zip(H.mvec(m, v), v))
              for key, m in letters.items()}
    key = draw(st.sampled_from(sorted(values)))
    values[key] = H.vadd(values[key],
                         H.to_pairs_vec(draw(matrices(1, n))[0]))
    return kind, gram, images, c, eps, values


@settings(DIFF, max_examples=60)
@given(edited_cocycles())
def test_cocycle_violations_are_the_reference_residuals(case):
    kind, gram, images, c, eps, values = case
    n, pg = len(gram), H.to_pairs_mat(gram)

    def word(tokens):
        return presentations.word_from_strs(kind, tokens)

    if kind == presentations.GROUP:
        relations, what = GROUP_RELATIONS, "vanish on relator"
        p = Presentation.group(["a", "b"], [lhs for lhs, _, _ in relations])

        def residual(lhs, k, rhs):
            return H.eta_word(images, values, word(lhs), n)
    else:
        relations, what = STAR_RELATIONS, "respect rule"
        coeff = {"c": c, "conj": H.cconj(c)}
        p = Presentation.star_algebra(
            ["x"], {"x": "x*"}, {"x": Scalar(*eps)},
            [(lhs, Scalar(*coeff[k]), rhs) for lhs, k, rhs in relations])
        by_letter = {word([key])[0]: v for key, v in values.items()}
        character = {("x", 0): eps, ("x", 1): H.cconj(eps)}

        def residual(lhs, k, rhs):
            eta_l, eta_r = (H.star_eta_word(images, pg, by_letter, character,
                                            word(w), n)[0] for w in (lhs, rhs))
            return tuple(H.csub(x, H.cmul(coeff[k], y))
                         for x, y in zip(eta_l, eta_r))

    rep = Representation(p, linalg.HermitianForm(gram),
                         {g: from_pairs(m) for g, m in images.items()})
    expected = []
    for lhs, k, rhs in relations:
        res = residual(lhs, k, rhs)
        if res != H.zero_vec(n):
            expected.append((" ".join(lhs), f"cocycle does not {what} {lhs}",
                             res))
    try:
        Cocycle(rep, {key: from_pairs([v])[0] for key, v in values.items()})
        got = []
    except CocycleObstructed as exc:
        assert {v.code for v in exc.violations} == {"COCYCLE_OBSTRUCTED"}
        got = [(v.target, v.message, H.to_pairs_vec(v.residual))
               for v in exc.violations]
    assert got == expected


# --- word evaluation ------------------------------------------------


def _unitaries():
    """Unitary 2 x 2 matrices for the standard form."""
    c, s = Scalar(Fraction(3, 5)), Scalar(Fraction(4, 5))
    return (
        ((ONE, ZERO), (ZERO, ONE)),
        ((c, -s), (s, c)),
        ((ZERO, I), (ONE, ZERO)),
        ((I, ZERO), (ZERO, -ONE)),
        ((c * I, s), (-s, -c * I)),
    )


UNITARIES = st.sampled_from(_unitaries())
VECTORS = st.lists(ENTRIES, min_size=2, max_size=2).map(tuple)
# unreduced words included: a a^-1 and the like come up often
GROUP_WORDS = st.lists(
    st.lists(st.sampled_from([("a", 1), ("a", -1), ("b", 1), ("b", -1)]),
             max_size=7).map(tuple),
    min_size=1, max_size=12)
STAR_WORDS = st.lists(
    st.lists(st.sampled_from([("x", 0), ("x", 1)]), max_size=6).map(tuple),
    min_size=1, max_size=10)
WORDS = settings(DIFF, max_examples=60)


def free_group_triple(images, eta, psi):
    """Cocycle and functional on the free group, where any data is valid."""
    p = Presentation.group(["a", "b"], [])
    rep = Representation(p, linalg.standard_form(2), images)
    cocycle = Cocycle(rep, eta)
    return cocycle, GroupFunctional(cocycle, psi)


@WORDS
@given(UNITARIES, UNITARIES, VECTORS, VECTORS, ENTRIES, ENTRIES, GROUP_WORDS,
       st.randoms(use_true_random=False))
def test_memoised_folds_match_reference_in_any_order(ia, ib, ea, eb, pa, pb,
                                                     words, rnd):
    images, eta, psi = {"a": ia, "b": ib}, {"a": ea, "b": eb}, {"a": pa, "b": pb}
    cocycle, functional = free_group_triple(images, eta, psi)
    ref_images = {g: H.to_pairs_mat(m) for g, m in images.items()}
    ref_eta = {g: H.to_pairs_vec(v) for g, v in eta.items()}
    ref_psi = {g: H.to_pair(v) for g, v in psi.items()}
    seen = {}
    for w in words:  # the drawn order, on one object whose memo keeps growing
        seen[w] = (cocycle.eval_word(w), functional.fold(w))
        eta_w, psi_w = seen[w]
        assert H.to_pairs_vec(eta_w) == H.eta_word(ref_images, ref_eta, w, 2)
        assert H.to_pair(psi_w) == H.psi_word(ref_images, ref_eta, ref_psi,
                                              H.mid(2), w, 2)
        fresh_cocycle, fresh_functional = free_group_triple(images, eta, psi)
        assert fresh_cocycle.eval_word(w) == eta_w
        assert fresh_functional.fold(w) == psi_w
    order = list(seen)
    rnd.shuffle(order)
    for w in order:  # memo hits return what was computed
        assert (cocycle.eval_word(w), functional.fold(w)) == seen[w]
    # the whole list read into both memos of a fresh object first, each word
    # repeated and its back half, a suffix shared with the word, mixed in
    batch = [v for w in words for v in (w, w[len(w) // 2:], w)]
    cocycle, functional = free_group_triple(images, eta, psi)
    for w in batch:
        functional._vector(w)
        cocycle._scaled_eta(w)
    assert set(batch) <= set(functional._memo) & set(cocycle._eta_memo)
    filled = len(functional._memo), len(cocycle._eta_memo)
    for w in dict.fromkeys(batch):
        # memo hits: the reads unscale what the fill stored and add nothing
        eta_w, psi_w = cocycle.eval_word(w), functional.fold(w)
        assert (len(functional._memo), len(cocycle._eta_memo)) == filled
        assert H.to_pairs_vec(eta_w) == H.eta_word(ref_images, ref_eta, w, 2)
        assert H.to_pair(psi_w) == H.psi_word(ref_images, ref_eta, ref_psi,
                                              H.mid(2), w, 2)


@WORDS
@given(UNITARIES, UNITARIES, VECTORS, GROUP_WORDS)
def test_phi_v_matches_word_matrix_on_groups(ia, ib, v, words):
    p = Presentation.group(["a", "b"], [])
    rep = Representation(p, linalg.standard_form(2), {"a": ia, "b": ib})
    _, phi = coboundary_cocycle(rep, v)
    for w in words:
        moved = H.vsub(linalg.mvmul(rep.word_matrix(w), v), v)
        assert phi.eval_word(w) == rep.form.inner(v, moved)


@WORDS
@given(matrices(2, 2), ENTRIES, VECTORS, STAR_WORDS)
def test_phi_v_matches_word_matrix_on_star_algebras(m, eps_x, v, words):
    # no rules, so any image is a representation and words stay as drawn
    p = Presentation.star_algebra(["x"], {"x": "x*"}, {"x": eps_x}, [])
    rep = Representation(p, linalg.standard_form(2), {"x": m})
    _, phi = coboundary_cocycle(rep, v)
    for w in words:
        eps = AlgebraElement.from_word(p, w).epsilon()
        moved = H.vsub(linalg.mvmul(rep.word_matrix(w), v),
                       linalg.vscale(eps, v))
        assert phi.eval_word(w) == rep.form.inner(v, moved)


# --- star-algebra rewriting ----------------------------------------


GENERATORS = ("x", "y", "z")
RULE_COEFFS = st.sampled_from([ZERO, ONE, -ONE, I, Scalar(2, 0),
                               Scalar(Fraction(1, 2), -1)])
REWRITING = settings(DIFF, max_examples=200)


@contextlib.contextmanager
def step_budget(budget):
    old = presentations.STEP_BUDGET
    presentations.STEP_BUDGET = budget
    try:
        yield
    finally:
        presentations.STEP_BUDGET = old


def _word_counit(character, word):
    out = ONE
    for name, _ in word:
        out = out * character[name]  # real values, so conj is a no-op
    return out


@st.composite
def rewriting_systems(draw):
    """Rules over 2-3 generators, some of them with a free starred letter.

    Left sides are short words over a small alphabet, plus pieces of the
    drawn ones and now and then a swap pair, so overlapping, nested and
    non-terminating rule sets all come up.  A coefficient is drawn where
    the counit leaves it free and forced where it does not; a rule whose
    right side has counit 0 under a left side with nonzero counit is
    dropped.
    """
    gens = GENERATORS[:draw(st.integers(2, 3))]
    starred = [draw(st.booleans()) for _ in gens]
    character = {g: draw(st.sampled_from([ZERO, ZERO, ONE, Scalar(2, 0)]))
                 for g in gens}
    alphabet = ([(g, 0) for g in gens]
                + [(g, 1) for g, s in zip(gens, starred) if s])

    def words(lo, hi):
        return st.lists(st.sampled_from(alphabet), min_size=lo,
                        max_size=hi).map(tuple)

    lhss = draw(st.lists(words(1, 3), min_size=1, max_size=5))
    for k, start, size in draw(st.lists(
            st.tuples(st.integers(0, len(lhss) - 1), st.integers(0, 2),
                      st.integers(1, 2)), max_size=2)):
        piece = lhss[k][start:start + size]
        if piece:
            lhss.insert(draw(st.integers(0, len(lhss))), piece)
    rules = []
    for lhs in lhss:
        rhs = draw(words(0, 3))
        el, er = _word_counit(character, lhs), _word_counit(character, rhs)
        if not er.is_zero():
            rules.append((lhs, el / er, rhs))
        elif el.is_zero():
            rules.append((lhs, draw(RULE_COEFFS), rhs))
    if draw(st.booleans()):
        a, b = alphabet[0], alphabet[1]
        rules[draw(st.integers(0, len(rules))):0] = [
            ((a, b), ONE, (b, a)), ((b, a), ONE, (a, b))]
    return gens, starred, character, alphabet, rules


def _build_system(system):
    gens, starred, character, _, rules = system
    inv = {g: f"{g}*" if s else g for g, s in zip(gens, starred)}
    return Presentation.star_algebra(gens, inv, character, rules)


def _reference_letters(system):
    gens, starred, _, _, _ = system
    out = {}
    for g, s in zip(gens, starred):
        out[(g, 0)] = (g, 0)
        out[(g, 1)] = (g, 1) if s else (g, 0)
    return out


@REWRITING
@given(rewriting_systems(), st.data())
def test_reduce_matches_restarting_reference(system, data):
    budget = data.draw(st.integers(0, 20))
    p = _build_system(system)
    letters = _reference_letters(system)
    ref_rules = [(lhs, H.to_pair(c), rhs) for lhs, c, rhs in system[4]]
    words = data.draw(st.lists(st.lists(st.sampled_from(sorted(letters)),
                                        max_size=8).map(tuple),
                               min_size=1, max_size=6))
    with step_budget(budget):
        for word in words:
            try:
                expected = H.reduce_word(letters, ref_rules, word, budget)
            except H.BudgetExceeded as ref:
                with pytest.raises(ReductionBudgetExceeded) as info:
                    p.reduce(word)
                assert info.value.steps == ref.steps
                assert info.value.rule == p.rules[ref.rule_index]
                assert info.value.word == word
                continue
            coeff, red = p.reduce(word)
            assert (H.to_pair(coeff), red) == expected


@settings(DIFF, max_examples=100)
@given(rewriting_systems(), st.integers(0, 6))
def test_multiply_matches_reduce_of_the_concatenation(system, budget):
    """multiply(u, v) is reduce(u + v) for every pair of canonical words up
    to length 3, budget errors included, also where the rules overlap, nest
    or do not terminate."""
    p = _build_system(system)
    words = p.words_up_to(3)
    with step_budget(budget):
        for u in words:
            for v in words:
                try:
                    expected = p.reduce(u + v)
                except ReductionBudgetExceeded as ref:
                    with pytest.raises(ReductionBudgetExceeded) as info:
                        p.multiply(u, v)
                    got = info.value
                    assert (got.word, got.rule, got.steps) == (
                        ref.word, ref.rule, ref.steps)
                    continue
                assert p.multiply(u, v) == expected


def test_multiply_matches_free_reduction_on_a_group():
    p = Presentation.group(["a", "b", "c"], [["a", "b", "a^-1", "b^-1"]])
    words = p.words_up_to(3)
    for u in words:
        for v in words:
            assert p.multiply(u, v) == (ONE, p.free_reduce(u + v))


def _has_redex(rules, word):
    return any(word[i:i + len(lhs)] == lhs
               for i in range(len(word)) for lhs, _, _ in rules)


@REWRITING
@given(rewriting_systems())
def test_words_up_to_lists_the_irreducible_words(system):
    p = _build_system(system)
    alphabet, rules = system[3], system[4]
    expected = [w for k in range(4) for w in itertools.product(alphabet, repeat=k)
                if not _has_redex(rules, w)]
    assert p.words_up_to(3) == expected


@settings(DIFF, max_examples=30)
@given(rewriting_systems(), st.sampled_from([(1, 2), (2, 1), (2, 2), (3, 1)]))
def test_kn_spanning_set_matches_product_reference(system, shape):
    n, max_len = shape
    p = _build_system(system)
    with step_budget(50):
        try:
            expected = H.spanning_products(k1_elements(p, max_len), n)
        except ReductionBudgetExceeded:
            with pytest.raises(ReductionBudgetExceeded):
                kn_spanning_set(p, n, max_len)
            return
        got = kn_spanning_set(p, n, max_len)
    assert isinstance(got, list)
    assert [e.terms for e in got] == [e.terms for e in expected]


def test_kn_spanning_set_matches_product_reference_on_a_group():
    p = Presentation.group(["a", "b"], [["a", "b", "a^-1", "b^-1"]])
    for n, max_len in ((2, 2), (3, 1)):
        expected = H.spanning_products(k1_elements(p, max_len), n)
        assert kn_spanning_set(p, n, max_len) == expected


# 3 generators at n = 3 and length 2 are left out: 44,484 products, about
# 8 s for the reference and the package together
@settings(DIFF, max_examples=15)
@given(st.permutations(["a", "b", "c"]), st.integers(1, 3),
       st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]))
@example(["a", "b", "c"], 1, (3, 2))
@example(["b", "a", "c"], 2, (3, 2))
def test_kn_spanning_set_matches_product_reference_on_free_groups(
        names, rank, shape):
    # on a free group (g - 1)(h - 1) = (h - 1)(g - 1) for commuting g, h,
    # such as a and a^-1, so prefixes repeat
    n, max_len = shape
    assume((rank, n, max_len) != (3, 3, 2))
    p = Presentation.group(names[:rank], [])
    got = kn_spanning_set(p, n, max_len)
    expected = H.spanning_products(k1_elements(p, max_len), n)
    # in order, and each product word by word with its coefficient
    assert [e.terms for e in got] == [e.terms for e in expected]


# --- level-at-a-time folds, verify and the oracle -------------------


UNIT_SCALARS = (ONE, -ONE, I, -I, Scalar(Fraction(3, 5), Fraction(4, 5)))
# nonzero entries with a real part, an imaginary part or both, so that a
# dropped conjugation or counit changes values
NONZERO = st.builds(Scalar, SMALL, SMALL).filter(bool)


@st.composite
def form_unitaries(draw, n):
    """A gram matrix G = B* B with B upper triangular, and G-unitaries.

    U = B^-1 V B is G-unitary for every standard unitary V; V is a
    permutation with unit phases, turned in the first plane when n > 1.
    """
    b = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = Scalar(draw(st.integers(1, 3)))
        for j in range(i + 1, n):
            b[i][j] = draw(ENTRIES)
    b = tuple(tuple(r) for r in b)
    gram = linalg.mmul(linalg.conj_transpose(b), b)
    b_inv = linalg.inverse(b)

    def unitary():
        perm = draw(st.permutations(range(n)))
        v = tuple(tuple(draw(st.sampled_from(UNIT_SCALARS)) if perm[i] == j
                        else ZERO for j in range(n)) for i in range(n))
        if n > 1 and draw(st.booleans()):
            c, s_ = Scalar(Fraction(3, 5)), Scalar(Fraction(4, 5))
            turn = [list(r) for r in linalg.identity(n)]
            turn[0][0], turn[0][1], turn[1][0], turn[1][1] = c, -s_, s_, c
            v = linalg.mmul(tuple(tuple(r) for r in turn), v)
        return linalg.mmul(b_inv, linalg.mmul(v, b))

    return gram, unitary(), unitary()


@st.composite
def free_group_data(draw, min_dim=1):
    n = draw(st.integers(min_dim, 3))
    gram, ua, ub = draw(form_unitaries(n))
    vec = st.lists(ENTRIES, min_size=n, max_size=n).map(tuple)
    return gram, {"a": ua, "b": ub}, {"a": draw(vec), "b": draw(vec)}


def _free_group_objects(gram, images, eta, psi=None):
    p = Presentation.group(["a", "b"], [])
    rep = Representation(p, linalg.HermitianForm(gram), images)
    cocycle = Cocycle(rep, eta)
    if psi is None:
        psi = forced_real_parts(cocycle)
    return cocycle, GroupFunctional(cocycle, psi)


FOLDS = settings(DIFF, max_examples=40)


@FOLDS
@given(free_group_data(min_dim=0))
# dimension 0, as in the remainder part of a split with no remainder
@example(((), {"a": (), "b": ()}, {"a": (), "b": ()}))
def test_forced_real_parts_match_the_reference(data):
    gram, images, eta = data
    p = Presentation.group(["a", "b"], [])
    cocycle = Cocycle(Representation(p, linalg.HermitianForm(gram), images),
                      eta)
    pg = H.to_pairs_mat(gram)
    expected = {g: H.cmul((Fraction(-1, 2), Fraction(0)),
                          H.inner(pg, H.to_pairs_vec(v), H.to_pairs_vec(v)))
                for g, v in eta.items()}
    got = forced_real_parts(cocycle)
    assert {g: H.to_pair(v) for g, v in got.items()} == expected
    assert all(v.is_real() for v in got.values())


def unscaled_column(col):
    """The Scalars of a memo entry: S(w) [eta(w); eps(w)] over S(w) of a
    cocycle, U(w) [eta(w); eps(w); psi(w)] over U(w) of a group functional."""
    re, im, s = col
    return unscaled(([re], None if im is None else [im], s))[0]


@FOLDS
@given(free_group_data(), st.dictionaries(st.sampled_from("ab"), ENTRIES),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_level_folds_match_the_reference_on_groups(data, psi, max_len, rnd):
    gram, images, eta = data
    cocycle, functional = _free_group_objects(gram, images, eta, psi)
    words = cocycle.presentation.words_up_to(max_len)
    known = rnd.sample(words, len(words) // 3)
    for w in known:  # part of both memos is filled first
        functional.fold(w)
        cocycle.eval_word(w)
    for w in words:
        functional._vector(w)
        cocycle._scaled_eta(w)
    assert set(words) <= set(cocycle._eta_memo) & set(functional._memo)
    # the reference values and scales; the fill is confined to the words
    assert H.check_group_memo(functional, words) == set(words)
    fresh, fresh_psi = _free_group_objects(gram, images, eta, psi)
    for w in words:
        *eta_w, eps_w = unscaled_column(cocycle._eta_memo[w])
        eta_w = tuple(eta_w)
        *eta_v, _, psi_w = unscaled_column(functional._memo[w])
        assert eps_w == ONE and tuple(eta_v) == eta_w
        assert (cocycle.eval_word(w), functional.fold(w)) == (eta_w, psi_w)
        assert (fresh.eval_word(w), fresh_psi.fold(w)) == (eta_w, psi_w)


@FOLDS
@given(free_group_data(), st.booleans(), st.data())
def test_memo_vector_and_oracle_evaluator_match_the_reference(
        data, trivial, draws):
    """The oracle on <a, b | w w'>, w' the word w with its exponents
    flipped (the word w against its reverse), for an unvalidated cocycle
    and psi with the forced real parts, so that g g^-1 passes and the
    relator decides."""
    gram, images, _ = data
    n = len(gram)
    vec = st.lists(NONZERO, min_size=n, max_size=n).map(tuple)
    eta = {g: draws.draw(vec) for g in "ab"}
    # a freely reduced word on both generators, w w' reduced
    free = Presentation.group(["a", "b"], [])
    word = free.free_reduce(draws.draw(
        st.lists(st.sampled_from(free.alphabet()), min_size=2, max_size=6)))
    assume({g for g, _ in word} == {"a", "b"})
    relator = free.free_reduce(word + tuple((g, -t) for g, t in word))
    assume(relator)
    if trivial:
        # eta(w) is then the sum of the letters' eta, so eta(relator) = 0,
        # while psi(relator) may not be
        images = {g: linalg.identity(n) for g in "ab"}
    p = Presentation.group(["a", "b"], [word_to_strs(presentations.GROUP,
                                                     relator)])
    rep = Representation(p, linalg.HermitianForm(gram), images,
                         _validated=True)
    cocycle = Cocycle(rep, eta, _validated=True)
    psi = {g: r + I * Scalar(draws.draw(SMALL))
           for g, r in forced_real_parts(cocycle).items()}
    functional = GroupFunctional(cocycle, psi)
    report = brute_force_welldefinedness_oracle(cocycle, functional, p, None,
                                                0)
    # the whole vector, eps included, against the reference
    H.check_group_memo(functional, [((g, 1), (g, -1)) for g in "ab"]
                       + [relator])
    ref = ({g: H.to_pairs_mat(m) for g, m in images.items()},
           {g: H.to_pairs_vec(v) for g, v in eta.items()})
    ref_psi = {g: H.to_pair(v) for g, v in functional.values.items()}
    eta_r = H.eta_word(*ref, relator, n)
    psi_r = H.psi_word(*ref, ref_psi, H.to_pairs_mat(gram), relator, n)
    # the cocycle when eta differs from the empty word's, psi when only psi
    # does, and no counterexample when neither does; the values shown are
    # the reference's
    expected = ("cocycle" if eta_r != H.zero_vec(n)
                else "psi" if psi_r != H.CZERO else None)
    assert report.passed == (expected is None)
    assert (report.words, report.pairs) == (4, 3)
    if expected is not None:
        ce = report.counterexample
        assert (ce["evaluator"], ce["word_a"], ce["word_b"]) == (
            expected, (), relator)
        show = H.to_pairs_vec if expected == "cocycle" else H.to_pair
        assert (show(ce["value_a"]), show(ce["value_b"])) == (
            (H.zero_vec(n), eta_r) if expected == "cocycle"
            else (H.CZERO, psi_r))


@st.composite
def star_data(draw, with_table=True):
    """A rule-free star algebra on x with x* a letter of its own, a nonzero
    counit, and the coboundary triple of a vector, its table exact."""
    n = draw(st.integers(1, 2))
    p = Presentation.star_algebra(["x"], {"x": "x*"},
                                  {"x": draw(NONZERO)}, [])
    image = draw(matrices(n, n))
    rep = Representation(p, linalg.standard_form(n), {"x": image})
    v = tuple(draw(st.lists(NONZERO, min_size=n, max_size=n)))
    cocycle, phi = coboundary_cocycle(rep, v)
    return p, rep, v, cocycle, phi


@FOLDS
@given(star_data(), st.integers(0, 5), st.randoms(use_true_random=False))
def test_level_folds_match_word_matrices_on_star_algebras(data, max_len, rnd):
    p, rep, v, cocycle, _ = data
    words = p.words_up_to(max_len)
    for w in rnd.sample(words, len(words) // 3):
        cocycle.eval_word(w)
    for w in words:
        cocycle._scaled_eta(w)
    for w in words:
        *eta_w, eps_w = unscaled_column(cocycle._eta_memo[w])
        eta_w = tuple(eta_w)
        eps = AlgebraElement.from_word(p, w).epsilon()
        assert eps_w == eps
        assert eta_w == H.vsub(linalg.mvmul(rep.word_matrix(w), v),
                               linalg.vscale(eps, v))


def _star_functional(p, phi, max_len, tamper):
    """The exact table of phi, or with psi(w) and psi(w*) moved by conjugate
    amounts, so that hermitianity holds and a later identity fails."""
    table = {w: phi.eval_word(w) for w in p.words_up_to(max_len) if w}
    if tamper is not None:
        index, delta = tamper
        word = sorted(table)[index % len(table)]
        star = p.involve_word(word)
        if star == word:
            delta = Scalar(delta.re) if delta.re else ONE
        table[word] = table[word] + delta
        table[star] = table[star] + delta.conj()
    return StarFunctional(p, table)


@FOLDS
@given(star_data(), st.integers(1, 5),
       st.one_of(st.none(), st.tuples(st.integers(0, 60), NONZERO)))
def test_verify_matches_the_per_pair_loop_on_star_algebras(data, max_len,
                                                           tamper):
    p, rep, v, cocycle, phi = data
    functional = _star_functional(p, phi, max_len, tamper)
    fresh = coboundary_cocycle(rep, v)[0]
    expected = H.verify_per_pair(fresh, functional, max_len)
    assert verify_schurmann_triple(cocycle, functional, max_len).to_json() \
        == expected
    if tamper is None:
        assert expected["passed"]


@FOLDS
@given(star_data(), st.integers(1, 5), st.integers(0, 60), NONZERO)
def test_verify_hermitian_witness_matches_the_per_pair_loop(data, max_len,
                                                            index, delta):
    # psi(w) moved without psi(w*): unless w = w* and the move is real, the
    # first identity to fail is hermitianity
    p, rep, v, cocycle, phi = data
    table = {w: phi.eval_word(w) for w in p.words_up_to(max_len) if w}
    word = sorted(table)[index % len(table)]
    table[word] = table[word] + delta
    functional = StarFunctional(p, table)
    expected = H.verify_per_pair(coboundary_cocycle(rep, v)[0], functional,
                                 max_len)
    assert verify_schurmann_triple(cocycle, functional, max_len).to_json() \
        == expected
    if p.involve_word(word) != word or not delta.is_real():
        assert expected["witness"]["identity"] == "hermitian"


@FOLDS
@given(free_group_data(), st.integers(1, 4),
       st.one_of(st.none(), st.tuples(st.sampled_from("ab"), NONZERO)))
def test_verify_matches_the_per_pair_loop_on_groups(data, max_len, tamper):
    gram, images, eta = data
    cocycle, functional = _free_group_objects(gram, images, eta)
    psi = dict(functional.values)
    if tamper is not None:
        # a changed real part breaks the coboundary identity at a a^-1, in
        # the middle of the first length class
        psi[tamper[0]] = psi[tamper[0]] + tamper[1]
    functional = GroupFunctional(cocycle, psi)
    fresh_cocycle, _ = _free_group_objects(gram, images, eta)
    expected = H.verify_per_pair(
        fresh_cocycle, GroupFunctional(fresh_cocycle, psi), max_len)
    assert verify_schurmann_triple(cocycle, functional, max_len).to_json() \
        == expected
    if tamper is None:
        assert expected["passed"]


@st.composite
def z2_data(draw):
    """Z^2 with commuting diagonal unitaries and a coboundary cocycle, or
    the trivial representation with any cocycle; psi from the forced real
    parts, its imaginary parts drawn."""
    n = draw(st.integers(1, 2))
    p = Presentation.group(["a", "b"], [["a", "b", "a^-1", "b^-1"]])
    form = linalg.standard_form(n)
    vec = st.lists(NONZERO, min_size=n, max_size=n).map(tuple)
    if draw(st.booleans()):
        images = {g: tuple(tuple(draw(st.sampled_from(UNIT_SCALARS))
                                 if i == j else ZERO for j in range(n))
                           for i in range(n)) for g in "ab"}
        cocycle, _ = coboundary_cocycle(Representation(p, form, images),
                                        draw(vec))
    else:
        # psi is then well defined exactly when Im <eta(a), eta(b)> = 0
        images = {g: linalg.identity(n) for g in "ab"}
        cocycle = Cocycle(Representation(p, form, images),
                          {"a": draw(vec), "b": draw(vec)})
    psi = {g: r + I * Scalar(draw(SMALL))
           for g, r in forced_real_parts(cocycle).items()}
    return p, images, cocycle, psi


# --- the scaled-integer memo ----------------------------------------


# (cos, sin, denominator) of the turn each generator's unitary makes: the
# letters' denominators 5 and 13 are coprime, as are their eta's (7 and 11)
# and their psi's imaginary parts (3 and 17)
TURNS = {"a": (3, 4, 5), "b": (5, 12, 13)}
DENOMINATORS = {"a": (7, 3), "b": (11, 17)}
SMALL_INTS = st.integers(-9, 9)


@st.composite
def complex_gram(draw):
    """G = B* B for B = [[1, z], [0, 1]] with Im z != 0: unimodular,
    complex and not diagonal; and B, whose inverse is integral too."""
    z = Scalar(draw(st.integers(-3, 3)), draw(st.sampled_from([-2, -1, 1, 3])))
    b = ((ONE, z), (ZERO, ONE))
    return linalg.mmul(linalg.conj_transpose(b), b), b


def gaussian_over(draw, den, n):
    return tuple(Scalar(Fraction(draw(SMALL_INTS), den),
                        Fraction(draw(SMALL_INTS), den)) for _ in range(n))


@st.composite
def coprime_group_data(draw, commuting=False):
    """Two G-unitaries B^-1 V B in dimension 2 for a complex non-diagonal
    Gram matrix, V a turn with a unit phase (diagonal phases when
    `commuting`), with eta over 7 and 11: every letter's data has a
    denominator coprime to the other letter's."""
    gram, b = draw(complex_gram())
    b_inv = linalg.inverse(b)
    images, eta = {}, {}
    for g, (x, y, r) in TURNS.items():
        c, s_ = Scalar(Fraction(x, r)), Scalar(Fraction(y, r))
        phase = draw(UNITS)
        if commuting:
            v = ((c + I * s_, ZERO), (ZERO, phase)) if g == "a" else \
                ((phase, ZERO), (ZERO, c + I * s_))
        else:
            v = ((c * phase, -s_), (s_ * phase, c))
        images[g] = linalg.mmul(b_inv, linalg.mmul(v, b))
        eta[g] = gaussian_over(draw, DENOMINATORS[g][0], 2)
    return gram, images, eta


def drawn_psi(draw, cocycle):
    """The forced real parts with imaginary parts over 3 and 17."""
    return {g: r + I * Scalar(Fraction(draw(SMALL_INTS), DENOMINATORS[g][1]))
            for g, r in forced_real_parts(cocycle).items()}


def letter_denominator(*values):
    """The least common denominator of Gaussian-rational pairs."""
    return lcm(*(lcm(re.denominator, im.denominator) for re, im in values))


@FOLDS
@given(coprime_group_data(), GROUP_WORDS, st.randoms(use_true_random=False),
       st.data())
def test_scaled_memo_matches_the_reference_in_any_order(data, words, rnd,
                                                        draws):
    gram, images, eta = data
    cocycle, _ = _free_group_objects(gram, images, eta)
    functional = GroupFunctional(cocycle, drawn_psi(draws.draw, cocycle))
    ref_gram = H.to_pairs_mat(gram)
    ref_images = {g: H.to_pairs_mat(m) for g, m in images.items()}
    ref_eta = {g: H.to_pairs_vec(v) for g, v in eta.items()}
    ref_psi = {g: H.to_pair(v) for g, v in functional.values.items()}
    # D(l): the denominator of pi(l) and eta(l) together
    dens = {}
    for g in "ab":
        for letter in ((g, 1), (g, -1)):
            dens[letter] = letter_denominator(
                *itertools.chain(*H.letter_matrix(ref_images, letter)),
                *H.eta_letter(ref_images, ref_eta, letter))
    assert gcd(dens[("a", 1)], dens[("b", 1)]) == 1
    order = list(words)
    rnd.shuffle(order)
    read = []
    for w in order:  # one memo, filled on demand in the drawn order
        read.append(w)
        assert H.to_pairs_vec(cocycle.eval_word(w)) == \
            H.eta_word(ref_images, ref_eta, w, 2)
        assert H.to_pair(functional.fold(w)) == H.psi_word(
            ref_images, ref_eta, ref_psi, ref_gram, w, 2)
        suffixes = {v[i:] for v in read for i in range(len(v) + 1)}
        assert set(cocycle._eta_memo) - validated_words(cocycle) <= suffixes
        assert set(functional._memo) == suffixes
        # a word's scale is the product of its letters' denominators
        scale = 1
        for letter in w:
            scale *= dens[letter]
        assert cocycle._eta_memo[w][2] == scale
    # every entry of the functional's memo: eta, eps and psi are the
    # reference's, and its scale is the product of the letters' Q(l)
    assert H.check_group_memo(functional, read) == suffixes


def validated_words(cocycle):
    """The words a group cocycle's validation reads: its relators' suffixes."""
    return {r[i:] for r in cocycle.presentation.relators
            for i in range(len(r) + 1)}


def check_two_functionals(cocycle, imag, words, base_first):
    """Build the two functionals `solve_generating_functional` builds on one
    cocycle, the forced real parts and those plus the imaginary parts
    `imag`, in the given order, and read `words` through each.  Each memo
    must be the reference's, with each letter's Q(l) least, and the second
    functional must leave the cocycle's rows and pairing rows as the first
    one found them."""
    rho = forced_real_parts(cocycle)
    functionals = [GroupFunctional(cocycle, rho),
                   GroupFunctional(cocycle, {g: r + I * imag[g]
                                             for g, r in rho.items()})]
    if not base_first:
        functionals.reverse()
    first, second = functionals
    for w in words:
        first._vector(w)
    shared = copy.deepcopy((cocycle._rows, cocycle._pairing))
    for w in words:
        second._vector(w)
    assert (cocycle._rows, cocycle._pairing) == shared
    for functional in functionals:
        H.check_group_memo(functional, words)


@FOLDS
@given(unitary_settings(count=2), GROUP_WORDS, st.data())
def test_functionals_of_one_cocycle_share_its_pairing_rows(setting, words,
                                                          draws):
    gram, ua, ub = setting
    n = len(gram)
    vec = st.lists(ENTRIES, min_size=n, max_size=n).map(tuple)
    eta = {g: draws.draw(vec) for g in "ab"}
    imag = {g: Scalar(draws.draw(SMALL)) for g in "ab"}
    for base_first in (True, False):
        cocycle, _ = _free_group_objects(gram, {"a": ua, "b": ub}, eta)
        check_two_functionals(cocycle, imag, words, base_first)


def test_functionals_of_a_split_part_share_its_pairing_rows():
    # the dimension-4 block-unitary scenario: its remainder part is a
    # dimension-2 cocycle with complex fractional coordinates
    path = os.path.join(os.path.dirname(__file__), "data", "reports",
                        "small.decompose.block_unitary.decomposed.json")
    with open(path, encoding="utf-8") as fh:
        scenario = parse_scenario(json.load(fh)["scenario"])
    whole = scenario.build_cocycle(scenario.build_representation())
    imag = {"a": Scalar(Fraction(2, 3)), "b": Scalar(Fraction(-5, 7))}
    for base_first in (True, False):
        part = split(whole).remainder.cocycle
        assert part.form.dim == 2
        words = part.presentation.words_up_to(3)
        check_two_functionals(part, imag, words, base_first)


@st.composite
def star_memo_data(draw):
    """A rule-free star algebra on x and its own letter x*, a counit outside
    {0, 1}, a complex non-diagonal Gram matrix, any image and any eta on
    both letters."""
    gram, _ = draw(complex_gram())
    eps = draw(NONZERO.filter(lambda e: e != ONE))
    p = Presentation.star_algebra(["x"], {"x": "x*"}, {"x": eps}, [])
    image = tuple(gaussian_over(draw, 5, 2) for _ in range(2))
    rep = Representation(p, linalg.HermitianForm(gram), {"x": image})
    values = {"x": gaussian_over(draw, 7, 2), "x*": gaussian_over(draw, 11, 2)}
    return p, gram, image, eps, values, Cocycle(rep, values)


@FOLDS
@given(star_memo_data(), STAR_WORDS)
def test_scaled_star_memo_matches_the_reference_in_any_order(data, words):
    p, gram, image, eps, values, cocycle = data
    ref = ({"x": H.to_pairs_mat(image)}, H.to_pairs_mat(gram),
           {("x", 0): H.to_pairs_vec(values["x"]),
            ("x", 1): H.to_pairs_vec(values["x*"])},
           {("x", 0): H.to_pair(eps), ("x", 1): H.cconj(H.to_pair(eps))})
    read = []
    for w in words:
        read.append(w)
        *eta_w, eps_w = unscaled_column(cocycle._scaled_eta(w))
        assert (H.to_pairs_vec(eta_w), H.to_pair(eps_w)) == \
            H.star_eta_word(*ref, w, 2)
        assert cocycle.eval_word(w) == tuple(eta_w)
        assert set(cocycle._eta_memo) == {v[i:] for v in read
                                          for i in range(len(v) + 1)}


@FOLDS
@given(coprime_group_data(), st.integers(1, 4), st.data(),
       st.one_of(st.none(), st.tuples(st.sampled_from("ab"), NONZERO)))
def test_verify_matches_the_reference_at_coprime_scales(data, max_len, draws,
                                                       tamper):
    gram, images, eta = data
    cocycle, _ = _free_group_objects(gram, images, eta)
    psi = drawn_psi(draws.draw, cocycle)
    if tamper is not None:
        psi[tamper[0]] = psi[tamper[0]] + tamper[1]
    fresh, _ = _free_group_objects(gram, images, eta)
    expected = H.verify_per_pair(fresh, GroupFunctional(fresh, psi), max_len)
    assert verify_schurmann_triple(
        cocycle, GroupFunctional(cocycle, psi), max_len).to_json() == expected
    if tamper is None:
        assert expected["passed"]


@FOLDS
@given(st.integers(1, 4), st.data(),
       st.one_of(st.none(), st.tuples(st.integers(0, 60), NONZERO)))
def test_star_verify_matches_the_reference_off_the_unit_counit(max_len, draws,
                                                               tamper):
    gram, _ = draws.draw(complex_gram())
    eps = draws.draw(NONZERO.filter(lambda e: e != ONE))
    p = Presentation.star_algebra(["x"], {"x": "x*"}, {"x": eps}, [])
    image = tuple(gaussian_over(draws.draw, 5, 2) for _ in range(2))
    rep = Representation(p, linalg.HermitianForm(gram), {"x": image})
    v = gaussian_over(draws.draw, 7, 2)
    cocycle, phi = coboundary_cocycle(rep, v)
    functional = _star_functional(p, phi, max_len, tamper)
    expected = H.verify_per_pair(coboundary_cocycle(rep, v)[0], functional,
                                 max_len)
    assert verify_schurmann_triple(cocycle, functional, max_len).to_json() \
        == expected
    if tamper is None:
        assert expected["passed"]


@FOLDS
@given(coprime_group_data(commuting=True), st.booleans(), st.integers(2, 4),
       st.data())
def test_oracle_matches_the_reference_at_coprime_scales(data, coboundary,
                                                        max_len, draws):
    gram, images, eta = data
    p = Presentation.group(["a", "b"], [["a", "b", "a^-1", "b^-1"]])
    form = linalg.HermitianForm(gram)
    if coboundary:
        rep = Representation(p, form, images)
        cocycle = coboundary_cocycle(rep, gaussian_over(draws.draw, 1, 2))[0]
    else:
        # psi is well defined exactly when Im <eta(a), eta(b)> = 0
        rep = trivial_representation(p, form)
        cocycle = Cocycle(rep, eta)
    psi = drawn_psi(draws.draw, cocycle)
    got = brute_force_welldefinedness_oracle(
        cocycle, GroupFunctional(cocycle, psi), p, None, max_len)
    fresh = Cocycle(rep, {g: cocycle.values[(g, 1)] for g in "ab"},
                    _validated=True)
    _check_oracle(got, fresh, psi, lambda w: H.abelian_key(["a", "b"], w))


# --- the obstruction pairing ----------------------------------------


@st.composite
def kernel_tensors(draw, presentation):
    """1-3 pairs c a (x) b whose legs are combinations of w - eps(w) over
    drawn, possibly unreduced words w, so every leg lies in ker(eps)."""
    p = presentation
    one = AlgebraElement.one(p)
    words = st.lists(st.sampled_from(p.alphabet()), max_size=4).map(tuple)

    def leg():
        out = AlgebraElement.zero(p)
        for w, c in draw(st.lists(st.tuples(words, NONZERO), min_size=1,
                                  max_size=3)):
            e = AlgebraElement.from_word(p, w)
            out = out + (e - one.scale(e.epsilon())).scale(c)
        return out

    return Tensor2(p, [(draw(NONZERO), leg(), leg())
                       for _ in range(draw(st.integers(1, 3)))])


@FOLDS
@given(free_group_data(), st.data())
def test_big_K_matches_the_cochain_reference_on_groups(data, draws):
    gram, images, eta = data
    cocycle, _ = _free_group_objects(gram, images, eta)
    tensor = draws.draw(kernel_tensors(cocycle.presentation))
    fresh, _ = _free_group_objects(gram, images, eta)
    assert big_K(cocycle, tensor) == H.big_L(fresh).evaluate(tensor)


@FOLDS
@given(star_data(), st.data())
def test_big_K_matches_the_cochain_reference_on_star_algebras(data, draws):
    p, rep, v, cocycle, _ = data
    tensor = draws.draw(kernel_tensors(p))
    fresh, _ = coboundary_cocycle(rep, v)
    assert big_K(cocycle, tensor) == H.big_L(fresh).evaluate(tensor)
    # x itself has the nonzero counit star_data draws
    x = AlgebraElement.from_word(p, (("x", 0),))
    with pytest.raises(LegNotInKernel):
        big_K(cocycle, Tensor2(p, [(ONE, x, tensor.pairs[0][2])]))


# --- the truncated GNS Gram matrix ------------------------------------


@st.composite
def complex_counit_systems(draw):
    """x with x* a letter of its own and a non-real counit c, so that the
    conjugate counit term shows; with the rule x* x -> |c|^2, the stars
    x* ... x* meet a junction redex against every word starting with x."""
    c = draw(st.sampled_from([I, Scalar(1, 1), Scalar(2, -1)]))
    alphabet = [("x", 0), ("x", 1)]
    rules = ([((("x", 1), ("x", 0)), c * c.conj(), ())]
             if draw(st.booleans()) else [])
    return ("x",), [True], {"x": c}, alphabet, rules


def _star_counit(character, word):
    """eps of a word as a pair, a starred letter taking the conjugate."""
    out = H.CONE
    for name, tag in word:
        value = H.to_pair(character[name])
        out = H.cmul(out, H.cconj(value) if tag else value)
    return out


def _star_reference_gram(system, p, table, support, max_len, budget):
    gens, starred, character, _, rules = system
    letters = _reference_letters(system)
    ref_rules = [(lhs, H.to_pair(c), rhs) for lhs, c, rhs in rules]
    adjoint = {(g, 0): (g, 1) if s else (g, 0) for g, s in zip(gens, starred)}
    adjoint.update({(g, 1): (g, 0) for g in gens})
    return H.gns_gram_per_entry(
        p.words_up_to(max_len, include_empty=False),
        lambda w: tuple(adjoint[l] for l in reversed(w)),
        lambda w: H.reduce_word(letters, ref_rules, w, budget),
        lambda w: H.table_read(table, support, w),
        lambda w: _star_counit(character, w))


@contextlib.contextmanager
def any_gram():
    """gns_truncated without its two eliminations, so that the Gram matrix
    of a table that is not hermitian comes back too, and a random table's
    full-rank Gram matrix is not reduced."""
    old = linalg.rref, linalg.psd_check
    linalg.rref = lambda gram: ((), [])
    linalg.psd_check = lambda gram: linalg.PsdResult(psd=False, witness=None)
    try:
        yield
    finally:
        linalg.rref, linalg.psd_check = old


def _gram_or_error(p, compute):
    """The Gram matrix, or the first error as (kind, word, ...)."""
    try:
        return "gram", compute()
    except H.BudgetExceeded as ref:
        return "budget", ref.word, p.rules[ref.rule_index], ref.steps
    except ReductionBudgetExceeded as exc:
        return "budget", exc.word, exc.rule, exc.steps
    except (H.TableRefused, TableSupportExceeded) as exc:
        return "support", exc.word


def _check_star_gram(system, values, support, max_len, budget):
    """gns_truncated's Gram matrix against the per-entry reference, at a
    step budget, on a table of the drawn values (zeros included) over the
    canonical words up to the support."""
    p = _build_system(system)
    keys = p.words_up_to(support, include_empty=False)
    table = {w: next(values) for w in keys}
    with step_budget(budget), any_gram():
        functional = StarFunctional(p, table)
        ref_table = {w: H.to_pair(v) for w, v in table.items()}
        got = _gram_or_error(p, lambda: H.to_pairs_mat(
            gns_truncated(functional, max_len).gram))
        expected = _gram_or_error(p, lambda: _star_reference_gram(
            system, p, ref_table, support, max_len, budget))
    assert got == expected
    return got


def _table_values(rnd):
    def draw():
        while True:
            if rnd.random() < 0.3:
                yield ZERO
            else:
                yield Scalar(Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)),
                             Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)))
    return draw()


@settings(DIFF, max_examples=150)
@given(st.one_of(rewriting_systems(), complex_counit_systems()),
       st.integers(1, 2), st.sampled_from([0, 0, 0, 1, 3]),
       st.integers(0, 12), st.randoms(use_true_random=False))
def test_gns_gram_matches_the_per_entry_reference(system, max_len, short,
                                                  budget, rnd):
    """Nonzero and non-real counits, zero-coefficient rules, stars that are
    not canonical, overlapping and non-terminating rules; a table short of
    twice the length, or a small step budget, must stop the Gram matrix at
    the reference's first error, naming the same word."""
    support = max(0, 2 * max_len - short)
    _check_star_gram(system, _table_values(rnd), support, max_len, budget)


@REWRITING
@given(st.one_of(rewriting_systems(), complex_counit_systems()),
       st.integers(0, 12), st.data())
def test_a_scan_stopped_at_the_junction_resumes_to_the_reduction(
        system, budget, data):
    """`_rewrite` of a raw word u with keep = junction_width, resumed from
    max(0, len - junction_width) with the coefficient and steps it returns,
    is reduce(u), budget errors included: on the star of a canonical word,
    as the GNS rows scan it, and on any letters."""
    p = _build_system(system)
    k = p.junction_width
    words = data.draw(st.lists(st.one_of(
        st.sampled_from(p.words_up_to(3)).map(p.involve_word),
        st.lists(st.sampled_from(sorted(_reference_letters(system))),
                 max_size=8).map(tuple)), min_size=1, max_size=6))

    def scanned(u):
        coeff, cur, steps = p._rewrite([p.normalize_letter(l) for l in u], u,
                                       0, keep=k)
        if coeff.is_zero():
            return coeff, cur
        return p._rewrite(list(cur), u, max(0, len(cur) - k), coeff,
                          steps)[:2]

    with step_budget(budget):
        for u in words:
            try:
                expected = p.reduce(u)
            except ReductionBudgetExceeded as ref:
                with pytest.raises(ReductionBudgetExceeded) as info:
                    scanned(u)
                got = info.value
                assert (got.word, got.rule, got.steps) == (
                    ref.word, ref.rule, ref.steps)
                continue
            assert scanned(u) == expected


# <x = x*, y | x x y = -y, y* y = 0>: the star x x x x meets y ... in a
# rewrite that cascades left of the junction, x x x x y -> -x x y -> y
CASCADE = (("x", "y"), [False, True], {"x": ZERO, "y": ZERO},
           [("x", 0), ("y", 0), ("y", 1)],
           [((("x", 0), ("x", 0), ("y", 0)), -ONE, (("y", 0),)),
            ((("y", 1), ("y", 0)), ZERO, ())])


@pytest.mark.parametrize("support, budget, outcome", [
    (8, 10_000, "gram"), (7, 10_000, "support"), (8, 1, "budget")])
def test_gns_gram_matches_the_reference_on_cascading_junctions(
        support, budget, outcome):
    # the full table gives the Gram matrix; a short table or a budget of one
    # step stops it
    values = _table_values(random.Random(support * budget))
    assert _check_star_gram(CASCADE, values, support, 4,
                            budget)[0] == outcome


# <y = y*, x = x* | y y = y, x y = y x>: the star of y x is x y, whose
# rewrite must stop the Gram matrix before row y meets y y
STAR_FIRST = (("y", "x"), [False, False], {"y": ZERO, "x": ZERO},
              [("y", 0), ("x", 0)],
              [((("y", 0), ("y", 0)), ONE, (("y", 0),)),
               ((("x", 0), ("y", 0)), ONE, (("y", 0), ("x", 0)))])


def test_gns_gram_reduces_every_star_before_the_rows():
    got = _check_star_gram(STAR_FIRST, _table_values(random.Random(5)), 4, 2, 0)
    assert got[:2] == ("budget", (("x", 0), ("y", 0)))


# <x = x*, y | x y = 0>: the star x y y* of y y* x rewrites to 0 at its
# first letter, before the letter the junction reads
ZERO_STAR = (("x", "y"), [False, True], {"x": ONE, "y": ZERO},
             [("x", 0), ("y", 0), ("y", 1)],
             [((("x", 0), ("y", 0)), ZERO, ())])


def test_gns_gram_zeroes_a_row_whose_star_rewrites_to_zero():
    p = _build_system(ZERO_STAR)
    star = p.involve_word((("y", 0), ("y", 1), ("x", 0)))
    letters = [p.normalize_letter(l) for l in star]
    assert p._rewrite(letters, star, 0, keep=p.junction_width) == (
        ZERO, (), 0)
    got = _check_star_gram(ZERO_STAR, _table_values(random.Random(1)), 6, 3,
                           10_000)
    assert got[0] == "gram"


# <a = a*, b, c = c* | b a = c>: the star b a b of b* a b* rewrites once to
# c b, and its junction with a word a ... takes one more step
TWO_STEP = (("a", "b", "c"), [False, True, False],
            {"a": ONE, "b": Scalar(2), "c": Scalar(2)},
            [("a", 0), ("b", 0), ("b", 1), ("c", 0)],
            [((("b", 0), ("a", 0)), ONE, (("c", 0),))])


@pytest.mark.parametrize("budget, outcome", [(1, "budget"), (2, "gram")])
def test_gns_gram_counts_the_star_steps_against_each_entry(budget, outcome):
    # no star and no junction alone takes more than one step; a product
    # whose star and junction both rewrite takes two, which a budget of one
    # refuses at the same start word, rule and step count as the reference
    got = _check_star_gram(TWO_STEP, _table_values(random.Random(2)), 6, 3,
                           budget)
    assert got[0] == outcome
    if outcome == "budget":
        b, a = ("b", 0), ("a", 0)
        assert got[1][:4] == (b, a, b, a) and got[3] == 2


# <x = x*, y = y*, z = z* | x y -> 0, x y y -> z> in both orders: at the
# junction x | y y the first listed rule decides, zero or not
FIRST_RULE = [((("x", 0), ("y", 0)), ZERO, ()),
              ((("x", 0), ("y", 0), ("y", 0)), ONE, (("z", 0),))]


@pytest.mark.parametrize("order", [1, -1], ids=["zero_first", "zero_last"])
def test_gns_gram_follows_the_first_rule_at_the_junction(order):
    system = (("x", "y", "z"), [False] * 3, {"x": ONE, "y": ZERO, "z": ZERO},
              [("x", 0), ("y", 0), ("z", 0)], FIRST_RULE[::order])
    p = _build_system(system)
    _, rule = p.junction_redex((("x", 0),), (("y", 0), ("y", 0)))
    assert rule.coeff.is_zero() == (order == 1)
    got = _check_star_gram(system, _table_values(random.Random(3)), 4, 2,
                           10_000)
    assert got[0] == "gram"


# <x = x*, y = y* | x y -> 1>: row x x rewrites x x | y to x, then reads
# x x | x x, past a support of 3
SHRINK = (("x", "y"), [False, False], {"x": ONE, "y": ONE},
          [("x", 0), ("y", 0)], [((("x", 0), ("y", 0)), ONE, ())])


def test_gns_gram_stops_at_a_read_past_the_support_after_a_rewrite():
    x = ("x", 0)
    assert _check_star_gram(SHRINK, _table_values(random.Random(4)), 3, 2,
                            10_000) == ("support", (x, x, x, x))


# the pair reference folds psi letter by letter with matrix inverses, so it
# sees fewer draws
@settings(DIFF, max_examples=8)
@given(free_group_data(), st.dictionaries(st.sampled_from("ab"), ENTRIES),
       st.integers(1, 2))
def test_gns_gram_matches_the_per_entry_reference_on_free_groups(data, psi,
                                                                 max_len):
    gram, images, eta = data
    cocycle, _ = _free_group_objects(gram, images, eta)
    _check_group_gram(cocycle, _with_forced_real_parts(cocycle, psi), images,
                      max_len)


def _with_forced_real_parts(cocycle, psi):
    """The functional with psi's imaginary parts over the forced real parts,
    the only real parts `gns_truncated` takes on a group."""
    forced = forced_real_parts(cocycle)
    return GroupFunctional(cocycle, {
        g: forced[g] + Scalar(0, psi.get(g, ZERO).im)
        for g in cocycle.presentation.generators})


def _check_group_gram(cocycle, functional, images, max_len):
    """The Gram matrix against the per-entry reference: psi of the freely
    reduced products, folded letter by letter in pair arithmetic."""
    p = cocycle.presentation
    ref_images = {g: H.to_pairs_mat(m) for g, m in images.items()}
    ref_eta = {g: H.to_pairs_vec(cocycle.values[g, 1]) for g in p.generators}
    ref_psi = {g: H.to_pair(functional.values[g]) for g in p.generators}
    ref_gram = H.to_pairs_mat(cocycle.form.gram)
    eta_letter = functools.cache(
        lambda l: H.eta_letter(ref_images, ref_eta, l))
    eta_word = functools.cache(
        lambda w: H.eta_word(ref_images, ref_eta, w, len(ref_gram)))

    @functools.cache
    def read(word):
        """psi(l w) = psi(l) + <eta(l^-1), eta(w)> + psi(w), kept per
        suffix."""
        if not word:
            return H.CZERO
        (name, tag), tail = word[0], word[1:]
        cross = H.inner(ref_gram, eta_letter((name, -tag)), eta_word(tail))
        return H.cadd(H.cadd(H.psi_letter(ref_psi, word[0]), cross),
                      read(tail))

    def free_reduce(word):
        out = []
        for name, tag in word:
            if out and out[-1] == (name, -tag):
                out.pop()
            else:
                out.append((name, tag))
        return H.CONE, tuple(out)

    expected = H.gns_gram_per_entry(
        p.words_up_to(max_len, include_empty=False),
        lambda w: tuple((name, -tag) for name, tag in reversed(w)),
        free_reduce, read, lambda w: H.CONE)
    assert H.to_pairs_mat(gns_truncated(functional, max_len).gram) == expected


@settings(DIFF, max_examples=8)
@given(free_group_data(), st.dictionaries(st.sampled_from("ab"), ENTRIES),
       st.sets(st.sampled_from("ab")), st.integers(1, 2))
def test_gns_gram_is_the_eta_pairing_or_a_real_part_refusal(data, psi, drawn,
                                                            max_len):
    """On a free group entry (i, j) is <eta(w_i), eta(w_j)> when every
    psi(g) has its forced real part; the generators in `drawn` keep their
    drawn real part, and the first of those that differs from the forced
    one is refused, named with both real parts."""
    gram, images, eta = data
    cocycle, _ = _free_group_objects(gram, images, eta)
    values = dict(_with_forced_real_parts(cocycle, psi).values)
    values.update((g, psi.get(g, ZERO)) for g in drawn)
    functional = GroupFunctional(cocycle, values)
    forced = forced_real_parts(cocycle)
    wrong = [g for g in "ab" if values[g].re != forced[g].re]
    if wrong:
        g = wrong[0]
        with pytest.raises(ValueError) as info:
            gns_truncated(functional, max_len)
        assert str(info.value) == (f"Re psi({g}) = {values[g].re} differs "
                                   f"from the forced real part {forced[g]}")
        return
    ref_images = {g: H.to_pairs_mat(m) for g, m in images.items()}
    ref_eta = {g: H.to_pairs_vec(v) for g, v in eta.items()}
    pg, n = H.to_pairs_mat(gram), len(gram)
    words = cocycle.presentation.words_up_to(max_len, include_empty=False)
    vectors = [H.eta_word(ref_images, ref_eta, w, n) for w in words]
    assert H.to_pairs_mat(gns_truncated(functional, max_len).gram) == tuple(
        tuple(H.inner(pg, u, w) for w in vectors) for u in vectors)


_P2 = Presentation.group(["a", "b", "r"], [
    ["a", "b", "a^-1", "b^-1"], ["r", "r"], ["r", "a", "r", "a"],
    ["r", "b", "r", "b"]])


@st.composite
def p2_data(draw):
    """p2 in dimension 2: r swaps the coordinates and a, b are the diagonal
    phases (u, conj u), so r a r = a^-1; a coboundary cocycle."""
    images = {"r": ((ZERO, ONE), (ONE, ZERO))}
    for g in "ab":
        u = draw(st.sampled_from(UNIT_SCALARS))
        images[g] = ((u, ZERO), (ZERO, u.conj()))
    v = draw(st.lists(ENTRIES, min_size=2, max_size=2).map(tuple))
    rep = Representation(_P2, linalg.standard_form(2), images)
    return _P2, images, coboundary_cocycle(rep, v)[0]


@settings(DIFF, max_examples=12)
@given(st.one_of(z2_data().map(lambda d: d[:3]), p2_data()), st.data(),
       st.integers(1, 2))
def test_gns_gram_matches_the_per_entry_reference_with_relators(data, draws,
                                                                max_len):
    """psi drawn with any imaginary parts: one that folds to a nonzero value
    on a relator is refused as `descent_defect` words it, and then the
    solved psi, where there is one, is taken."""
    p, images, cocycle = data
    psi = _with_forced_real_parts(
        cocycle, {g: draws.draw(ENTRIES) for g in p.generators})
    defect = descent_defect(psi, forced_real_parts(cocycle))
    if defect is not None:
        with pytest.raises(ValueError) as info:
            gns_truncated(psi, max_len)
        assert str(info.value) == defect
        psi = solve_generating_functional(cocycle).functional
        if psi is None:
            return
    _check_group_gram(cocycle, psi, images, max_len)


# --- the oracle against a brute-force search ------------------------


def _drawn_group_psi(draw, cocycle):
    """The solved psi, where the cocycle has one, else the forced real
    parts, kept as they are, or with some imaginary parts shifted by drawn
    integers, or with some real parts drawn."""
    solved = solve_generating_functional(cocycle).functional
    values = dict(solved.values if solved else forced_real_parts(cocycle))
    mode = draw(st.sampled_from(("kept", "imaginary", "real")))
    for g, v in values.items():
        if mode == "kept" or not draw(st.booleans()):
            continue
        values[g] = (v + I * Scalar(draw(st.integers(-2, 2)))
                     if mode == "imaginary" else Scalar(draw(SMALL), v.im))
    return values


def _check_oracle(report, fresh, psi, key):
    """The oracle's verdict and evaluator are those of the brute-force
    search at length 4 with each word folded on its own (`key` a faithful
    normal form), and a counterexample shows a fresh fold of its word."""
    p = fresh.presentation
    expected = H.oracle_per_word(fresh, GroupFunctional(fresh, psi), p, key,
                                 4)
    ce = report.counterexample
    assert (report.passed, ce and ce["evaluator"]) == (
        expected["passed"],
        expected["counterexample"] and expected["counterexample"]["evaluator"])
    if ce is not None:
        fold = GroupFunctional(fresh, psi).fold
        assert ce["word_a"] == () and key(ce["word_b"]) == key(())
        assert (ce["value_a"], ce["value_b"]) == (fold(()), fold(ce["word_b"]))


@FOLDS
@given(st.one_of(
    z2_data().map(lambda d: (d[2], lambda w: H.abelian_key(["a", "b"], w))),
    p2_data().map(lambda d: (d[2], H.p2_key))), st.data())
def test_oracle_matches_the_per_word_path(case, draws):
    cocycle, key = case
    p = cocycle.presentation
    psi = _drawn_group_psi(draws.draw, cocycle)
    report = brute_force_welldefinedness_oracle(
        cocycle, GroupFunctional(cocycle, psi), p, None, 4)
    fresh = Cocycle(cocycle.representation, {
        g: cocycle.values[(g, 1)] for g in p.generators}, _validated=True)
    _check_oracle(report, fresh, psi, key)


def _catalog_group_scenarios():
    """(entry id, scenario name) of every catalog group scenario whose
    cocycle is valid."""
    out = []
    for entry_id in catalog.entry_ids():
        for name, doc in catalog.get_entry(entry_id).scenarios.items():
            if doc["presentation"]["kind"] != "group":
                continue
            scn = parse_scenario(doc)
            try:
                scn.build_cocycle(scn.build_representation())
            except (CocycleObstructed, RepresentationError):
                continue
            out.append((entry_id, name))
    return out


@settings(DIFF, max_examples=30)
@given(st.sampled_from(_catalog_group_scenarios()), st.data())
def test_oracle_passes_exactly_when_psi_descends_on_the_catalog_groups(
        case, draws):
    """On Z^2, p2, the genus-two surface group and the free product, with
    psi drawn around the solved one; a counterexample report rechecks."""
    doc = copy.deepcopy(catalog.scenario_doc(*case))
    scn = parse_scenario(doc)
    cocycle = scn.build_cocycle(scn.build_representation())
    psi = _drawn_group_psi(draws.draw, cocycle)
    doc["functional"] = {"psi": {g: str(v) for g, v in psi.items()}}
    scn = parse_scenario(doc)
    result, code = reports.run_command("oracle", scn, 4)
    defect = descent_defect(GroupFunctional(cocycle, psi),
                            forced_real_parts(cocycle))
    assert result["passed"] == (defect is None) == (code == 0)
    if not result["passed"]:
        assert result["counterexample"]["evaluator"] == "psi"
        report = json.loads(reports.dumps(
            reports.make_report("oracle", result, code, doc)))
        assert reports.recheck(report).confirmed


@settings(DIFF, max_examples=40)
@given(st.one_of(z2_data().map(lambda d: d[2]), p2_data().map(lambda d: d[2]),
                 free_group_data().map(lambda d: _free_group_objects(*d)[0])),
       st.data())
def test_group_psi_is_the_zero_letter_fold_plus_its_letter_values(cocycle,
                                                                  draws):
    """psi(w) = psi_0(w) + sum_j psi(l_j) over the letters l_j of w, with
    psi_0 the functional of the same cocycle whose letter values are all 0
    and psi(g^-1) = conj psi(g), in Scalars alone: the letter values are
    read from `values` and conjugated here, not by `psi_letter`.  The
    values are any, and the words unreduced."""
    p = cocycle.presentation
    functional = GroupFunctional(
        cocycle, {g: draws.draw(ENTRIES) for g in p.generators})
    zero = GroupFunctional(cocycle, {})
    words = draws.draw(st.lists(
        st.lists(st.sampled_from(p.alphabet()), max_size=7).map(tuple),
        min_size=1, max_size=8))
    for word in words:
        expected = zero.fold(word)
        for name, tag in word:
            value = functional.values[name]
            expected = expected + (value if tag == 1 else value.conj())
        assert functional.fold(word) == expected


# --- evaluating elements ----------------------------------------------


@settings(DIFF, max_examples=60)
@given(st.one_of(z2_data().map(lambda d: d[2]),
                 free_group_data().map(lambda d: _free_group_objects(*d)[0])),
       GROUP_WORDS, st.data())
def test_group_eval_element_is_the_sum_of_the_scaled_folds(cocycle, words,
                                                           draws):
    """The words stay unreduced, and psi and the coefficients have
    denominators and imaginary parts."""
    psi = {g: draws.draw(ENTRIES) for g in "ab"}
    coeffs = st.builds(Scalar, SMALL, SMALL)
    element = AlgebraElement(cocycle.presentation,
                             {w: draws.draw(coeffs) for w in words})
    reference = GroupFunctional(cocycle, psi)
    expected = ZERO
    for w, c in element.terms.items():
        expected = expected + c * reference.fold(w)
    got = GroupFunctional(cocycle, psi).eval_element(element)
    assert got == expected and str(got) == str(expected)
