"""Exact linear algebra cross-checked against naive reference arithmetic."""

import random
from fractions import Fraction

import pytest

from nlk.cocycles import Representation
from nlk.linalg import (
    DimensionMismatch,
    HermitianForm,
    LinalgError,
    LinearInfeasible,
    LinearSolution,
    columns,
    conj_transpose,
    det,
    from_columns,
    identity,
    inverse,
    kernel,
    mat_shape,
    matrix,
    matrix_to_json,
    mmul,
    mvmul,
    psd_check,
    rank,
    rref,
    solve_linear,
    span_basis,
    standard_form,
    vector,
    vector_to_json,
    zero_vector,
)
from nlk.presentations import Presentation
from nlk.scalars import I, ONE, ZERO, Scalar, sc

import helpers as H


def _rand_scalar(rng, span=5):
    return Scalar(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
                  Fraction(rng.randint(-span, span), rng.randint(1, 3)))


def _rand_matrix(rng, r, c):
    return matrix([[_rand_scalar(rng) for _ in range(c)] for _ in range(r)])


def _rand_vector(rng, n):
    return vector([_rand_scalar(rng) for _ in range(n)])


def test_shapes_and_zero_cases():
    assert mat_shape(identity(3)) == (3, 3)
    assert zero_vector(2) == (ZERO, ZERO)
    assert mvmul((), ()) == ()
    # a matrix with no rows maps anything to the empty vector
    assert mvmul((), (ONE, I)) == ()
    with pytest.raises(DimensionMismatch):
        mvmul(identity(2), (ONE,))


def test_matrix_product_matches_reference():
    rng = random.Random(11)
    for _ in range(30):
        a = _rand_matrix(rng, 3, 2)
        b = _rand_matrix(rng, 2, 4)
        got = H.to_pairs_mat(mmul(a, b))
        want = H.mmul(H.to_pairs_mat(a), H.to_pairs_mat(b))
        assert got == want


def test_det_matches_cofactor_expansion():
    rng = random.Random(12)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            m = _rand_matrix(rng, n, n)
            assert H.to_pair(det(m)) == H.naive_det(H.to_pairs_mat(m))


def test_inverse_matches_reference_and_round_trips():
    rng = random.Random(13)
    found = 0
    while found < 15:
        m = _rand_matrix(rng, 3, 3)
        if det(m).is_zero():
            continue
        found += 1
        inv = inverse(m)
        assert mmul(m, inv) == identity(3)
        assert H.to_pairs_mat(inv) == H.minv(H.to_pairs_mat(m))
    with pytest.raises(LinalgError):
        inverse(matrix([[ONE, ONE], [ONE, ONE]]))


def test_rref_is_idempotent_and_rank_is_stable():
    rng = random.Random(14)
    for _ in range(20):
        m = _rand_matrix(rng, 3, 5)
        red, pivots = rref(list(m))
        red2, pivots2 = rref([list(r) for r in red])
        assert [list(r) for r in red] == [list(r) for r in red2]
        assert pivots == pivots2
        assert rank(m) == len(pivots)
        assert rank(m) == rank(conj_transpose(m))


def test_kernel_vectors_annihilate_and_count_matches_rank():
    rng = random.Random(15)
    for _ in range(20):
        m = _rand_matrix(rng, 3, 5)
        ker = kernel(m)
        assert len(ker) == 5 - rank(m)
        for v in ker:
            assert H.is_zero_vector(mvmul(m, v))
        if ker:
            assert rank(matrix(ker)) == len(ker)


def test_solve_linear_feasible_certified_by_reference_arithmetic():
    rng = random.Random(16)
    for _ in range(20):
        a = _rand_matrix(rng, 3, 4)
        x0 = _rand_vector(rng, 4)
        b = mvmul(a, x0)
        out = solve_linear(a, b)
        assert isinstance(out, LinearSolution)
        got = H.mvec(H.to_pairs_mat(a), H.to_pairs_vec(out.solution))
        assert got == H.to_pairs_vec(b)
        for v in out.kernel_basis:
            assert H.is_zero_vector(mvmul(a, v))


def test_solve_linear_infeasible_yields_checkable_certificate():
    # duplicated row with contradictory right hand sides
    a = matrix([[ONE, I], [ONE, I]])
    b = vector([ONE, ZERO])
    out = solve_linear(a, b)
    assert isinstance(out, LinearInfeasible)
    lam = H.to_pairs_vec(out.certificate)
    ap = H.to_pairs_mat(a)
    combo = [H.CZERO, H.CZERO]
    for i, li in enumerate(lam):
        for j in range(2):
            combo[j] = H.cadd(combo[j], H.cmul(li, ap[i][j]))
    assert all(H.cis_zero(x) for x in combo)
    dot = H.CZERO
    for li, bi in zip(lam, H.to_pairs_vec(b)):
        dot = H.cadd(dot, H.cmul(li, bi))
    assert not H.cis_zero(dot)


def test_span_and_independence_utilities():
    v1 = vector([ONE, ZERO, ONE])
    v2 = vector([ZERO, ONE, ZERO])
    v3 = vector([ONE, ONE, ONE])  # v1 + v2
    pairs = [H.to_pairs_vec(v) for v in (v1, v2)]
    assert H.in_span(pairs, H.to_pairs_vec(v3))
    assert not H.in_span(pairs, H.to_pairs_vec(vector([ONE, ZERO, ZERO])))
    basis = span_basis([v1, v2, v3])
    assert len(basis) == 2
    cols = columns(matrix([v1, v2]))
    assert from_columns(cols) == matrix([v1, v2])


def test_hermitian_form_validation():
    with pytest.raises(LinalgError):
        HermitianForm([[ZERO]])  # singular
    with pytest.raises(LinalgError):
        HermitianForm([[ONE, I], [I, ONE]])  # not hermitian
    with pytest.raises(DimensionMismatch):
        HermitianForm([[ONE, ZERO]])
    assert standard_form(3).definite
    f = HermitianForm([[sc(2), ONE], [ONE, sc(2)]])
    assert f.definite
    g = HermitianForm([[ONE, ZERO], [ZERO, -ONE]])
    assert not g.definite


def test_inner_product_conventions():
    rng = random.Random(17)
    f = HermitianForm([[sc(2), I], [-I, sc(3)]])
    for _ in range(20):
        u, v = _rand_vector(rng, 2), _rand_vector(rng, 2)
        a = _rand_scalar(rng)
        # conjugate-linear in the first slot, linear in the second
        lhs = f.inner(tuple(a * x for x in u), v)
        assert lhs == a.conj() * f.inner(u, v)
        assert f.inner(u, tuple(a * x for x in v)) == a * f.inner(u, v)
        assert f.inner(u, v) == f.inner(v, u).conj()
        got = H.inner(H.to_pairs_mat(f.gram), H.to_pairs_vec(u),
                      H.to_pairs_vec(v))
        assert H.to_pair(f.inner(u, v)) == got
    # a complex b, so the orthocomplement's rows must conjugate it
    b = vector([ONE, I])
    (w,) = f.orthocomplement([b])
    assert not H.is_zero_vector(w) and f.inner(b, w) == ZERO


def form_adjoint(form, m):
    """The package's adjoint of m under form: the image of x* when x maps
    to m."""
    p = Presentation.star_algebra(["x"], {"x": "x*"}, {"x": 0}, [])
    return Representation(p, form, {"x": m}).word_matrix((("x", 1),))


def test_adjoint_satisfies_defining_identity():
    rng = random.Random(18)
    for gram in ([[ONE, ZERO], [ZERO, -ONE]], [[sc(2), I], [-I, sc(3)]]):
        f = HermitianForm(gram)
        for _ in range(15):
            m = _rand_matrix(rng, 2, 2)
            mt = form_adjoint(f, m)
            u, v = _rand_vector(rng, 2), _rand_vector(rng, 2)
            assert f.inner(mvmul(mt, u), v) == f.inner(u, mvmul(m, v))


def test_unitary_and_self_adjoint_predicates():
    f = standard_form(2)
    gram = H.to_pairs_mat(f.gram)
    rot = matrix([[ZERO, ONE], [-ONE, ZERO]])
    assert (H.to_pairs_mat(form_adjoint(f, rot))
            == H.adjoint(gram, H.to_pairs_mat(rot)))
    assert H.is_unitary(gram, H.to_pairs_mat(rot))
    assert not H.is_unitary(gram, H.to_pairs_mat(
        matrix([[sc(2), ZERO], [ZERO, ONE]])))
    assert H.is_self_adjoint(gram, H.to_pairs_mat(matrix([[ONE, I], [-I, ZERO]])))


def test_orthocomplement_identities():
    f = HermitianForm([[sc(2), I, ZERO], [-I, sc(3), ONE], [ZERO, ONE, sc(2)]])
    span = [vector([ONE, ZERO, ONE]), vector([ZERO, ONE, ZERO])]
    comp = f.orthocomplement(span)
    assert len(comp) == 1
    for w in comp:
        assert not H.is_zero_vector(w)
        for v in span:
            assert f.inner(v, w) == ZERO


def test_orthocomplement_of_empty_span_is_everything():
    f = standard_form(2)
    assert f.orthocomplement([]) == [vector([ONE, ZERO]), vector([ZERO, ONE])]


def test_psd_check_accepts_gram_matrices_and_rejects_with_witness():
    rng = random.Random(19)
    for _ in range(10):
        b = _rand_matrix(rng, 2, 3)
        gram = mmul(conj_transpose(b), b)
        assert psd_check(gram).psd
    bad = matrix([[ONE, sc(2)], [sc(2), ONE]])
    res = psd_check(bad)
    assert not res.psd
    v = res.witness
    val = sum((a.conj() * b for a, b in zip(v, mvmul(bad, v))), ZERO)
    assert val.is_real() and val.re < 0
    with pytest.raises(LinalgError):
        psd_check(matrix([[ONE, I], [I, ONE]]))


def test_json_round_trips():
    rng = random.Random(21)
    v = _rand_vector(rng, 3)
    m = _rand_matrix(rng, 2, 2)
    assert tuple(map(Scalar.parse, vector_to_json(v))) == v
    assert tuple(tuple(map(Scalar.parse, row))
                 for row in matrix_to_json(m)) == m
