"""Differential tests: package arithmetic against the naive pair reference.

Hypothesis draws Gaussian rationals, small matrices and words, and every
result of the package's scalar operators, matrix products, elimination
routines, hermitian forms, group validation, memoised word evaluators and
star-algebra rewriting is compared with (or checked by) the plain
(Fraction, Fraction) arithmetic and the restart-from-the-left rewriting in
helpers.  The level-at-a-time folds, the batched triple verification and
the oracle are compared with their per-word and per-pair paths, and the
normal forms' keys, built one letter onto a tail's key, with the
letter-by-letter products.  The draws are derandomized, so a run is
repeatable and needs no example database.
"""

import contextlib
import itertools
import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlk import linalg
from nlk.cocycles import (
    Cocycle,
    Representation,
    RepresentationError,
    big_K,
)
from nlk.functionals import (
    AbelianExponents,
    GroupFunctional,
    P2NormalForm,
    StarFunctional,
    brute_force_welldefinedness_oracle,
    forced_real_parts,
    verify_schurmann_triple,
)
from nlk.presentations import (
    STEP_BUDGET_ENV,
    AlgebraElement,
    LegNotInKernel,
    Presentation,
    ReductionBudgetExceeded,
    Tensor2,
    k1_elements,
    kn_spanning_set,
)
from nlk.scalars import I, ONE, ZERO, Scalar

import helpers as H
from helpers import coboundary_cocycle

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
@given(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda rc: matrices(*rc)))
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
        ker = [H.to_pairs_vec(k) for k in out.kernel_basis]
        assert len(ker) == cols - H.rank(pm) == H.rank(ker)
    else:
        lam = H.to_pairs_vec(out.certificate)
        assert row_times(lam, pm) == H.zero_vec(cols)
        lam_b = H.CZERO
        for li, bi in zip(lam, pb):
            lam_b = H.cadd(lam_b, H.cmul(li, bi))
        assert not H.cis_zero(lam_b)


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


# B^* B is definite for invertible B and singular otherwise
GRAMS = st.one_of(HERMITIAN, SQUARE.map(
    lambda b: from_pairs(H.mmul(pair_adjoint(H.to_pairs_mat(b)),
                                H.to_pairs_mat(b)))))


@MATRICES
@given(GRAMS)
def test_hermitian_form_definite_by_leading_minors(g):
    pg = H.to_pairs_mat(g)
    if H.cis_zero(H.naive_det(pg)):
        with pytest.raises(linalg.LinalgError, match="gram matrix is singular"):
            linalg.HermitianForm(g)
        return
    minors = [H.naive_det(tuple(row[:k] for row in pg[:k]))
              for k in range(1, len(pg) + 1)]
    assert linalg.HermitianForm(g).definite == all(
        im == 0 and re > 0 for re, im in minors)


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
def unitary_settings(draw):
    """(gram, image) with image unitary for the form gram = B^* D B.

    B is invertible lower triangular and D a diagonal of signs; the image
    is B^-1 U B for U a diagonal of units, times a rational rotation of the
    first two coordinates when D is constant there.
    """
    n = draw(st.integers(1, 3))
    b = [[draw(NONZERO) if i == j else draw(ENTRIES) if j < i else ZERO
          for j in range(n)] for i in range(n)]
    signs = draw(st.lists(st.sampled_from([ONE, -ONE]), min_size=n, max_size=n))
    u = [[draw(UNITS) if i == j else ZERO for j in range(n)] for i in range(n)]
    if n >= 2 and signs[0] == signs[1] and draw(st.booleans()):
        c, s = Scalar(Fraction(3, 5)), Scalar(Fraction(4, 5))
        u[0][0], u[0][1], u[1][0], u[1][1] = (
            c * u[0][0], -s * u[1][1], s * u[0][0], c * u[1][1])
    pb, pu = H.to_pairs_mat(b), H.to_pairs_mat(u)
    pd = tuple(tuple(H.to_pair(signs[i]) if i == j else H.CZERO
                     for j in range(n)) for i in range(n))
    gram = H.mmul(pair_adjoint(pb), H.mmul(pd, pb))
    image = H.mmul(H.minv(pb), H.mmul(pu, pb))
    return from_pairs(gram), from_pairs(image)


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
    assert (H.to_pairs_mat(rep.letter_matrix(("g", -1)))
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


# --- star-algebra rewriting ----------------------------------------


GENERATORS = ("x", "y", "z")
RULE_COEFFS = st.sampled_from([ZERO, ONE, -ONE, I, Scalar(2, 0),
                               Scalar(Fraction(1, 2), -1)])
REWRITING = settings(DIFF, max_examples=200)


@contextlib.contextmanager
def step_budget(budget):
    old = os.environ.get(STEP_BUDGET_ENV)
    os.environ[STEP_BUDGET_ENV] = str(budget)
    try:
        yield
    finally:
        if old is None:
            del os.environ[STEP_BUDGET_ENV]
        else:
            os.environ[STEP_BUDGET_ENV] = old


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


def _build_system(system, budget):
    gens, starred, character, _, rules = system
    inv = {g: f"{g}*" if s else g for g, s in zip(gens, starred)}
    with step_budget(budget):
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
    p = _build_system(system, budget)
    letters = _reference_letters(system)
    ref_rules = [(lhs, H.to_pair(c), rhs) for lhs, c, rhs in system[4]]
    for word in data.draw(st.lists(st.lists(st.sampled_from(sorted(letters)),
                                            max_size=8).map(tuple),
                                   min_size=1, max_size=6)):
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


def _has_redex(rules, word):
    return any(word[i:i + len(lhs)] == lhs
               for i in range(len(word)) for lhs, _, _ in rules)


@REWRITING
@given(rewriting_systems())
def test_words_up_to_lists_the_irreducible_words(system):
    p = _build_system(system, 0)
    alphabet, rules = system[3], system[4]
    expected = [w for k in range(4) for w in itertools.product(alphabet, repeat=k)
                if not _has_redex(rules, w)]
    assert p.words_up_to(3) == expected


@settings(DIFF, max_examples=30)
@given(rewriting_systems(), st.sampled_from([(1, 2), (2, 1), (2, 2), (3, 1)]))
def test_kn_spanning_set_matches_product_reference(system, shape):
    n, max_len = shape
    p = _build_system(system, 50)
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
def free_group_data(draw):
    n = draw(st.integers(1, 3))
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
@given(free_group_data(), st.dictionaries(st.sampled_from("ab"), ENTRIES),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_level_folds_match_the_reference_on_groups(data, psi, max_len, rnd):
    gram, images, eta = data
    cocycle, functional = _free_group_objects(gram, images, eta, psi)
    words = cocycle.presentation.words_up_to(max_len)
    known = rnd.sample(words, len(words) // 3)
    for w in known:  # the per-word path fills part of both memos first
        functional.fold(w)
    functional.fill_levels(words)
    assert set(words) <= set(cocycle._eta_memo) & set(functional._psi_memo)
    ref = (H.to_pairs_mat(gram),
           {g: H.to_pairs_mat(m) for g, m in images.items()},
           {g: H.to_pairs_vec(v) for g, v in eta.items()},
           {g: H.to_pair(functional.values[g]) for g in "ab"})
    n = len(gram)
    fresh, fresh_psi = _free_group_objects(gram, images, eta, psi)
    # the pair reference is slow, so it sees a sample of every level
    sample = set(rnd.sample(words, min(len(words), 12)))
    for w in words:
        eta_w, eps_w = cocycle._eta_memo[w]
        psi_w = functional._psi_memo[w]
        assert eps_w == ONE
        assert (fresh.eval_word(w), fresh_psi.fold(w)) == (eta_w, psi_w)
        if w in sample or len(w) < 2:
            assert H.to_pairs_vec(eta_w) == H.eta_word(ref[1], ref[2], w, n)
            assert H.to_pair(psi_w) == H.psi_word(ref[1], ref[2], ref[3],
                                                  ref[0], w, n)


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
    cocycle.fill_levels(words)
    for w in words:
        eta_w, eps_w = cocycle._eta_memo[w]
        eps = AlgebraElement.from_word(p, w).epsilon()
        assert eps_w == eps
        assert eta_w == linalg.vsub(linalg.mvmul(rep.word_matrix(w), v),
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
    functional = functional.with_values(psi)
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


@FOLDS
@given(z2_data(), st.integers(2, 5), st.booleans())
def test_oracle_matches_the_per_word_path(data, max_len, with_cocycle):
    p, images, cocycle, psi = data
    nf = AbelianExponents(p)
    functional = GroupFunctional(cocycle, psi)
    got = brute_force_welldefinedness_oracle(
        cocycle if with_cocycle else None, functional, p, nf, max_len)
    fresh = Cocycle(cocycle.representation, {
        g: cocycle.values[(g, 1)] for g in "ab"}, _validated=True)
    expected = H.oracle_per_word(fresh if with_cocycle else None,
                                 GroupFunctional(fresh, psi), p, nf, max_len)
    assert got.to_json() == expected


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


# --- normal-form keys -----------------------------------------------


# the oracle's two normal forms with their letter-by-letter references; the
# abelian form runs on a free group, whose words reach every exponent vector
_P2 = Presentation.group(["a", "b", "r"], [
    ["a", "b", "a^-1", "b^-1"], ["r", "r"], ["r", "a", "r", "a"],
    ["r", "b", "r", "b"]])
_FREE3 = Presentation.group(["a", "b", "c"], [])
NORMAL_FORMS = {
    "abelian": (_FREE3, AbelianExponents(_FREE3),
                lambda w: H.abelian_key(["a", "b", "c"], w)),
    "p2": (_P2, P2NormalForm(_P2), H.p2_key),
}


@DIFF
@given(st.sampled_from(sorted(NORMAL_FORMS)), st.data())
def test_normal_form_keys_match_the_letter_by_letter_products(kind, data):
    p, nf, reference = NORMAL_FORMS[kind]
    word = tuple(data.draw(st.lists(st.sampled_from(p.alphabet()),
                                    max_size=9)))
    assert nf.key(word) == reference(word)
    if word:
        assert nf.step(word[0], reference(word[1:])) == reference(word)


@pytest.mark.parametrize("kind", sorted(NORMAL_FORMS))
def test_normal_form_buckets_match_the_letter_by_letter_keys(kind):
    p, nf, reference = NORMAL_FORMS[kind]
    words = p.words_up_to(5, include_empty=True)
    expected = {}
    for w in words:
        expected.setdefault(reference(w), []).append(w)
    assert list(nf.buckets(words).items()) == list(expected.items())
