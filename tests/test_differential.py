"""Differential tests: package arithmetic against the naive pair reference.

Hypothesis draws Gaussian rationals, small matrices and words, and every
result of the package's scalar operators, elimination routines and memoised
word evaluators is compared with (or checked by) the plain
(Fraction, Fraction) arithmetic in helpers.  The draws are derandomized, so
a run is repeatable and needs no example database.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlk import linalg
from nlk.cocycles import Cocycle, Representation, coboundary_cocycle
from nlk.functionals import GroupFunctional
from nlk.presentations import AlgebraElement, Presentation
from nlk.scalars import I, ONE, ZERO, Scalar

import helpers as H

DIFF = settings(derandomize=True, database=None, deadline=None, max_examples=150)
MATRICES = settings(DIFF, max_examples=60)

SMALL = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
BIG = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20))
RATIONALS = st.one_of(SMALL, SMALL, BIG)
SCALARS = st.builds(Scalar, RATIONALS, RATIONALS)
# matrix entries: small values and plenty of zeros, so singular and
# rank-deficient matrices come up often
ENTRIES = st.one_of(st.just(ZERO), st.builds(Scalar, SMALL, SMALL))


def matrices(rows, cols):
    return st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda m: tuple(tuple(r) for r in m))


SQUARE = st.integers(1, 4).flatmap(lambda n: matrices(n, n))
RECT = st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda rc: matrices(*rc))


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
    assert x.abs_sq() == H.cmul(px, H.cconj(px))[0]
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


# --- elimination ----------------------------------------------------


@MATRICES
@given(SQUARE)
def test_det_matches_cofactor_expansion(m):
    assert H.to_pair(linalg.det(m)) == H.naive_det(H.to_pairs_mat(m))


@MATRICES
@given(SQUARE)
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
        assert not linalg.is_zero_vector(k)
        assert H.mvec(H.to_pairs_mat(m), H.to_pairs_vec(k)) == H.zero_vec(len(m))


@MATRICES
@given(RECT, st.data())
def test_solve_linear_solves_or_certifies(m, data):
    rows, cols = len(m), len(m[0])
    if data.draw(st.booleans()):
        x = data.draw(st.lists(ENTRIES, min_size=cols, max_size=cols))
        b = linalg.mvmul(m, tuple(x))  # consistent by construction
    else:
        b = tuple(data.draw(st.lists(ENTRIES, min_size=rows, max_size=rows)))
    out = linalg.solve_linear(m, b)
    pm, pb = H.to_pairs_mat(m), H.to_pairs_vec(b)
    if isinstance(out, linalg.LinearSolution):
        assert H.mvec(pm, H.to_pairs_vec(out.solution)) == pb
        for k in out.kernel_basis:
            assert H.mvec(pm, H.to_pairs_vec(k)) == H.zero_vec(rows)
    else:
        lam = H.to_pairs_vec(out.certificate)
        assert row_times(lam, pm) == H.zero_vec(cols)
        lam_b = H.CZERO
        for li, bi in zip(lam, pb):
            lam_b = H.cadd(lam_b, H.cmul(li, bi))
        assert not H.cis_zero(lam_b)


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


HERMITIAN = st.integers(1, 4).flatmap(
    lambda n: st.lists(ENTRIES, min_size=n * (n + 1) // 2,
                       max_size=n * (n + 1) // 2).map(lambda e: hermitian(e, n)))


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


@MATRICES
@given(RECT)
def test_psd_accepts_gram_matrices(b):
    # B^* B is positive semidefinite for every B
    g = linalg.mmul(linalg.conj_transpose(b), b)
    assert linalg.psd_check(g).psd


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


@WORDS
@given(UNITARIES, UNITARIES, VECTORS, GROUP_WORDS)
def test_phi_v_matches_word_matrix_on_groups(ia, ib, v, words):
    p = Presentation.group(["a", "b"], [])
    rep = Representation(p, linalg.standard_form(2), {"a": ia, "b": ib})
    _, phi = coboundary_cocycle(rep, v)
    for w in words:
        moved = linalg.vsub(linalg.mvmul(rep.word_matrix(w), v), v)
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
        moved = linalg.vsub(linalg.mvmul(rep.word_matrix(w), v),
                            linalg.vscale(eps, v))
        assert phi.eval_word(w) == rep.form.inner(v, moved)
