"""Representations, cocycles, and the obstruction 2-cochain."""

import random

import pytest

from nlk.cocycles import (
    Cocycle,
    CocycleObstructed,
    Representation,
    RepresentationError,
    big_K,
    derivation_space,
    exponent_matrix,
    trivial_representation,
)
from nlk.linalg import (
    HermitianForm,
    identity,
    matrix,
    rank,
    standard_form,
    vector,
)
from nlk.presentations import (
    GROUP,
    AlgebraElement,
    Presentation,
    Tensor2,
    element_vanishes,
    word_from_strs,
)
from nlk.scalars import I, ONE, ZERO, sc

import helpers as H
from helpers import (
    big_L,
    coboundary_cocycle,
    hochschild_boundary,
    hochschild_check_2cocycle,
)


def _z2():
    return Presentation.group(["a", "b"], [["a", "b", "a^-1", "b^-1"]])


def _gamma2():
    return Presentation.group(
        ["a1", "b1", "a2", "b2"],
        [["a1", "b1", "a1^-1", "b1^-1", "a2", "b2", "a2^-1", "b2^-1"]])


def _p2():
    return Presentation.group(
        ["a", "b", "r"],
        [["r", "r"], ["r", "a", "r^-1", "a"], ["r", "b", "r^-1", "b"],
         ["a", "b", "a^-1", "b^-1"]])


def _sign_rep(p, minus_gen, form):
    images = {g: matrix([[sc(-1) if g == minus_gen else ONE]])
              for g in p.generators}
    return Representation(p, form, images)


def test_trivial_representation_images_are_identity():
    p = _z2()
    rep = trivial_representation(p, standard_form(2))
    for g in p.generators:
        assert rep.images[g] == identity(2)
    assert rep.word_matrix(word_from_strs(GROUP, ["a", "b^-1"])) == identity(2)


def test_representation_rejects_non_unitary_image():
    p = Presentation.group(["a"], [])
    with pytest.raises(RepresentationError) as exc:
        Representation(p, standard_form(1), {"a": matrix([[sc(2)]])})
    codes = {v.code for v in exc.value.violations}
    assert codes == {"NOT_STAR_COMPATIBLE"}


def test_representation_rejects_relator_violation():
    p = Presentation.group(["a"], [["a", "a", "a"]])
    with pytest.raises(RepresentationError) as exc:
        _sign_rep(p, "a", standard_form(1))
    assert {v.code for v in exc.value.violations} == {"RELATION_VIOLATED"}


def test_representation_requires_exactly_the_generators():
    p = _z2()
    with pytest.raises(RepresentationError):
        Representation(p, standard_form(1), {"a": matrix([[ONE]])})


def test_inverse_letter_matrix_is_matrix_inverse():
    p = _p2()
    f = standard_form(2)
    rot = matrix([[ZERO, -ONE], [ONE, ZERO]])
    rep = Representation(p, f, {"a": identity(2), "b": identity(2),
                                "r": matrix([[sc(-1), ZERO], [ZERO, sc(-1)]])})
    m = rep.letter_matrix(("r", -1))
    assert H.to_pairs_mat(m) == H.minv(H.to_pairs_mat(rep.images["r"]))
    del rot


def test_star_representation_validates_rules_and_adjoints():
    p = Presentation.star_algebra(
        ["x", "y"], involution={"x": "x", "y": "y*"},
        character={"x": 0, "y": 0},
        rules=[(["x", "x", "y"], -1, ["y"]),
               (["y*", "y"], 0, [])])
    form = HermitianForm([[ONE, ZERO], [ZERO, sc(-1)]])
    zero2 = matrix([[ZERO, ZERO], [ZERO, ZERO]])
    rep = Representation(p, form, {"x": matrix([[ZERO, ONE], [-ONE, ZERO]]),
                                   "y": zero2})
    got = rep.letter_matrix(("x", 1))
    assert got == form.adjoint(rep.images["x"])
    with pytest.raises(RepresentationError):
        Representation(p, form, {"x": identity(2), "y": identity(2)})
    # only self-adjoint generators constrain their image; y* is the adjoint
    # of pi(y) by definition, so a non-normal image of y is fine
    non_normal = matrix([[ONE, sc(2)], [sc(3), sc(4)]])
    self_adjoint = Presentation.star_algebra(
        ["x"], involution={"x": "x"}, character={"x": 0}, rules=[])
    with pytest.raises(RepresentationError) as exc:
        Representation(self_adjoint, standard_form(2), {"x": non_normal})
    assert {v.code for v in exc.value.violations} == {"NOT_STAR_COMPATIBLE"}
    starred = Presentation.star_algebra(
        ["y"], involution={"y": "y*"}, character={"y": 0}, rules=[])
    Representation(starred, standard_form(2), {"y": non_normal})


def test_cocycle_values_default_to_zero_and_inverses_derive():
    p = _z2()
    rep = trivial_representation(p, standard_form(1))
    eta = Cocycle(rep, {"a": vector([ONE])})
    assert eta.letter_value(("b", 1)) == (ZERO,)
    assert eta.letter_value(("a", -1)) == (sc(-1),)


def test_cocycle_inverse_value_uses_inverse_matrix():
    p = Presentation.group(["g"], [])
    f = standard_form(2)
    m = matrix([[ZERO, -ONE], [ONE, ZERO]])
    rep = Representation(p, f, {"g": m})
    eta = Cocycle(rep, {"g": vector([ONE, I])})
    want = H.vneg(H.mvec(H.minv(H.to_pairs_mat(m)),
                         H.to_pairs_vec(vector([ONE, I]))))
    assert H.to_pairs_vec(eta.letter_value(("g", -1))) == want


def test_cocycle_identity_against_reference_fold():
    p = _p2()
    f = standard_form(2)
    images = {"a": identity(2), "b": identity(2),
              "r": matrix([[sc(-1), ZERO], [ZERO, ONE]])}
    rep = Representation(p, f, images)
    eta = Cocycle(rep, {"a": vector([ONE, ZERO]), "b": vector([I, ZERO]),
                        "r": vector([sc(3), ZERO])})
    pairs_images = {g: H.to_pairs_mat(m) for g, m in images.items()}
    pairs_values = {g: H.to_pairs_vec(eta.values[(g, 1)])
                    for g in p.generators}
    rng = random.Random(31)
    alphabet = p.alphabet()
    for _ in range(150):
        w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        got = H.to_pairs_vec(eta.eval_word(w))
        want = H.eta_word(pairs_images, pairs_values, w, 2)
        assert got == want


def test_cocycle_obstruction_on_sign_twisted_surface_relator():
    p = _gamma2()
    rep = _sign_rep(p, "b2", standard_form(1))
    with pytest.raises(CocycleObstructed) as exc:
        Cocycle(rep, {"a1": vector([ONE]), "a2": vector([ONE])})
    v = exc.value.violations[0]
    assert v.code == "COCYCLE_OBSTRUCTED"
    # the relator folds to twice the value on the second generator pair
    assert v.residual == (sc(2),)


def test_exponent_matrices_and_ranks():
    assert exponent_matrix(_z2()) == ((ZERO, ZERO),)
    em = exponent_matrix(_p2())
    assert em == ((ZERO, ZERO, sc(2)),
                  (sc(2), ZERO, ZERO),
                  (ZERO, sc(2), ZERO),
                  (ZERO, ZERO, ZERO))
    assert rank(em) == 3
    assert rank(exponent_matrix(_gamma2())) == 0


def test_derivation_space_dimensions():
    for d in range(1, 5):
        assert derivation_space(_p2(), d) == []
        assert len(derivation_space(_z2(), d)) == 2 * d
        assert len(derivation_space(_gamma2(), d)) == 4 * d


def test_derivation_space_entries_define_cocycles():
    p = _z2()
    for d in (1, 2):
        rep = trivial_representation(p, standard_form(d))
        for assignment in derivation_space(p, d):
            Cocycle(rep, {g: v for g, v in assignment.items()})


def test_big_K_on_commutator_tensor_matches_reference_inner_products():
    p = _z2()
    rep = trivial_representation(p, standard_form(1))
    one = AlgebraElement.one(p)
    am = AlgebraElement.from_word(p, word_from_strs(GROUP, ["a^-1"])) - one
    bm = AlgebraElement.from_word(p, word_from_strs(GROUP, ["b^-1"])) - one
    c1 = Tensor2(p, [(ONE, am, bm), (sc(-1), bm, am)])
    for x, y in ((H.CONE, H.CI), (H.CONE, H.CONE), (H.c(2), H.c(1, 3))):
        eta = Cocycle(rep, {"a": vector([sc(x[0]) + I * sc(x[1])]),
                            "b": vector([sc(y[0]) + I * sc(y[1])])})
        got = H.to_pair(big_K(eta, c1))
        gram = ((H.CONE,),)
        want = H.csub(H.inner(gram, (y,), (x,)), H.inner(gram, (x,), (y,)))
        assert got == want


def test_mu_of_commutator_tensor_vanishes_with_one_insertion():
    p = _z2()
    one = AlgebraElement.one(p)
    am = AlgebraElement.from_word(p, word_from_strs(GROUP, ["a^-1"])) - one
    bm = AlgebraElement.from_word(p, word_from_strs(GROUP, ["b^-1"])) - one
    c1 = Tensor2(p, [(ONE, am, bm), (sc(-1), bm, am)])
    assert element_vanishes(c1.mu(), insertions=1)


def test_big_L_is_a_hochschild_cocycle_on_sample_triples():
    p = _z2()
    rep = trivial_representation(p, standard_form(1))
    eta = Cocycle(rep, {"a": vector([ONE]), "b": vector([I])})
    L = big_L(eta)
    rng = random.Random(32)
    words = p.words_up_to(3)
    triples = []
    for _ in range(60):
        triples.append(tuple(
            AlgebraElement.from_word(p, rng.choice(words)) for _ in range(3)))
    report = hochschild_check_2cocycle(p, L, triples)
    assert report.passed and report.checked == 60


def test_coboundary_cocycle_cancels_its_own_obstruction():
    p = _p2()
    f = standard_form(2)
    rep = Representation(p, f, {"a": identity(2), "b": identity(2),
                                "r": matrix([[sc(-1), ZERO],
                                             [ZERO, sc(-1)]])})
    eta, phi = coboundary_cocycle(rep, vector([ONE, I]))
    L = big_L(eta)
    rng = random.Random(33)
    words = p.words_up_to(2)
    for _ in range(40):
        a = AlgebraElement.from_word(p, rng.choice(words))
        b = AlgebraElement.from_word(p, rng.choice(words))
        cob = (a.epsilon() * phi.eval_element(b)
               - phi.eval_element(a * b)
               + phi.eval_element(a) * b.epsilon())
        assert L.evaluate_pair(a, b) + cob == ZERO


def test_hochschild_boundary_formula_shape():
    p = _z2()
    rep = trivial_representation(p, standard_form(1))
    eta = Cocycle(rep, {"a": vector([ONE])})
    L = big_L(eta)
    one = AlgebraElement.one(p)
    assert hochschild_boundary(L, one, one, one) == L.evaluate_pair(one, one)
