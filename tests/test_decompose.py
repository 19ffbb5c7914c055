"""Tests for the Gaussian/remainder splitting and decomposition attempts."""

import random

import pytest

from nlk import linalg
from nlk.catalog import scenario_doc
from nlk.cocycles import Cocycle, trivial_representation
from nlk.decompose import (
    IMPLICATIONS,
    PROPERTIES,
    PropertyReport,
    attempt_lk,
    check_diagram_consistency,
    invariant_closure,
    split,
)
from nlk.functionals import solve_generating_functional
from nlk.linalg import HermitianForm, IndefiniteFormError
from nlk.presentations import Presentation
from nlk.reports import (
    _check_correction,
    _RecheckFailure,
    confirm_solve_result,
)
from nlk.scalars import I, ONE, ZERO, sc
from nlk.scenarios import parse_scenario

import helpers


def _load(entry_id, name="main"):
    scn = parse_scenario(scenario_doc(entry_id, name))
    rep = scn.build_representation()
    cocycle = scn.build_cocycle(rep)
    return scn, rep, cocycle


def test_invariant_closure_trivial_rep_is_zero():
    p = Presentation.group(
        ["a", "b"], [[("a", 1), ("b", 1), ("a", -1), ("b", -1)]])
    rep = trivial_representation(p, linalg.standard_form(3))
    assert invariant_closure(rep) == []


def test_invariant_closure_sign_rep_is_everything():
    _, rep, _ = _load("p2.nongaussian")
    closure = invariant_closure(rep)
    assert len(closure) == 1
    assert closure[0][0] != ZERO


def test_invariant_closure_no_lk_is_second_axis():
    _, rep, _ = _load("surface.gamma2.no_lk")
    closure = invariant_closure(rep)
    assert len(closure) == 1
    v = closure[0]
    assert v[0] == ZERO and v[1] != ZERO
    # stability under every letter action
    for letter in rep.presentation.alphabet():
        m = rep.word_matrix((letter,))
        assert helpers.in_span([helpers.to_pairs_vec(c) for c in closure],
                               helpers.to_pairs_vec(linalg.mvmul(m, v)))


def test_split_projector_identities():
    _, rep, cocycle = _load("surface.gamma2.no_lk")
    sr = split(cocycle)
    assert sr.gaussian.dim == 1
    assert sr.remainder.dim == 1
    n = rep.form.dim
    ident = linalg.identity(n)
    assert helpers.madd(helpers.to_pairs_mat(sr.p_g),
                        helpers.to_pairs_mat(sr.p_r)) == helpers.to_pairs_mat(ident)
    assert linalg.mmul(sr.p_g, sr.p_g) == sr.p_g
    assert linalg.mmul(sr.p_r, sr.p_r) == sr.p_r
    assert linalg.mmul(sr.p_g, sr.p_r) == linalg.zero_matrix(n, n)
    # each projector fixes its own part's basis and kills the other's
    for v in sr.remainder.basis:
        assert linalg.mvmul(sr.p_r, v) == v
        assert helpers.is_zero_vector(linalg.mvmul(sr.p_g, v))
    for w in sr.gaussian.basis:
        assert linalg.mvmul(sr.p_g, w) == w
        assert helpers.is_zero_vector(linalg.mvmul(sr.p_r, w))
    gram = helpers.to_pairs_mat(rep.form.gram)
    assert helpers.is_self_adjoint(gram, helpers.to_pairs_mat(sr.p_g))
    assert helpers.is_self_adjoint(gram, helpers.to_pairs_mat(sr.p_r))
    for g in rep.presentation.generators:
        img = rep.images[g]
        assert linalg.mmul(sr.p_r, img) == linalg.mmul(img, sr.p_r)
        assert linalg.mmul(sr.p_g, img) == linalg.mmul(img, sr.p_g)


def test_split_part_values_no_lk():
    _, rep, cocycle = _load("surface.gamma2.no_lk")
    sr = split(cocycle)
    # the Gaussian side carries the counit representation
    for g in rep.presentation.generators:
        assert sr.gaussian.representation.images[g] == linalg.identity(1)
    # part coordinates of each generator value agree with projecting first
    for g in rep.presentation.generators:
        eta = cocycle.letter_value((g, 1))
        for part, proj in ((sr.gaussian, sr.p_g), (sr.remainder, sr.p_r)):
            coords = linalg.mvmul(part.coords, eta)
            assert coords == part.cocycle.letter_value((g, 1))
            back = linalg.mvmul(linalg.from_columns(part.basis,
                                                    rows_hint=rep.form.dim),
                                coords)
            assert back == linalg.mvmul(proj, eta)


def test_split_trivial_rep_has_empty_remainder():
    _, rep, cocycle = _load("zk.z2.gaussian")
    sr = split(cocycle)
    assert sr.remainder.dim == 0
    assert sr.gaussian.dim == rep.form.dim
    assert sr.p_r == linalg.zero_matrix(rep.form.dim, rep.form.dim)
    assert sr.p_g == linalg.identity(rep.form.dim)
    for g in rep.presentation.generators:
        coords = sr.gaussian.cocycle.letter_value((g, 1))
        back = linalg.mvmul(linalg.from_columns(sr.gaussian.basis,
                                                rows_hint=rep.form.dim),
                            coords)
        assert back == cocycle.letter_value((g, 1))


def test_split_requires_definite_form():
    p = Presentation.group(
        ["a", "b"], [[("a", 1), ("b", 1), ("a", -1), ("b", -1)]])
    form = HermitianForm(((ONE, ZERO), (ZERO, sc(-1))))
    rep = trivial_representation(p, form)
    cocycle = Cocycle(rep, {})
    with pytest.raises(IndefiniteFormError):
        split(cocycle)


def test_gaussian_part_values_are_additive():
    """The projected cocycle for the counit representation is a derivation:
    its value on a product word is the sum over the letters."""
    _, rep, cocycle = _load("freeproduct.p2_z2", "mixed")
    sr = split(cocycle)
    part = sr.gaussian.cocycle
    letters = [(g, t) for g in rep.presentation.generators for t in (1, -1)]
    rng = random.Random(417)
    for _ in range(50):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 6)))
        total = linalg.zero_vector(sr.gaussian.dim)
        for letter in word:
            total = linalg.vadd(total, part.eval_word((letter,)))
        assert part.eval_word(word) == total


def test_attempt_lk_decomposed_on_mixed_free_product():
    scn, rep, cocycle = _load("freeproduct.p2_z2", "mixed")
    out = solve_generating_functional(cocycle)
    assert out.feasible
    lk = attempt_lk(out.functional)
    assert lk.verdict == "decomposed"
    assert lk.decomposed
    assert lk.split_result.gaussian.dim == 1
    assert lk.split_result.remainder.dim == 1
    assert lk.gaussian_outcome.feasible and lk.remainder_outcome.feasible
    for g in rep.presentation.generators:
        d = lk.derivation[g]
        assert d.re == 0
        total = lk.psi_gaussian.values[g] + lk.psi_remainder.values[g]
        assert total == out.functional.values[g]
    doc = lk.to_json()
    assert doc["verdict"] == "decomposed"
    assert set(doc["parts"]) == {"gaussian", "remainder"}
    assert doc["psi_gaussian"] is not None
    assert doc["derivation_correction"] is not None


def test_recheck_refuses_a_correction_that_breaks_an_exponent_sum():
    _, _, cocycle = _load("freeproduct.p2_z2", "mixed")
    lk = attempt_lk(solve_generating_functional(cocycle).functional)
    assert _check_correction(lk) == \
        "correction: its exponent sums vanish on every relator"
    # a's exponent sum is 0 in a b a^-1 b^-1 and 2 in r a r a
    edited = dict(lk.derivation, a=lk.derivation["a"] + I)
    with pytest.raises(_RecheckFailure) as info:
        _check_correction(lk._replace(derivation=edited))
    assert str(info.value) == \
        "the correction does not vanish on relator ['r', 'a', 'r', 'a']"


def test_attempt_lk_parts_are_generating_functionals():
    """Each part functional of a decomposition satisfies its own fold
    identity against the independent reference evaluator."""
    _, rep, cocycle = _load("freeproduct.p2_z2", "mixed")
    out = solve_generating_functional(cocycle)
    lk = attempt_lk(out.functional)
    part = lk.split_result.remainder
    psi_r = lk.psi_remainder
    images = {g: helpers.to_pairs_mat(part.representation.images[g])
              for g in rep.presentation.generators}
    gram = helpers.to_pairs_mat(part.form.gram)
    etas = {g: helpers.to_pairs_vec(part.cocycle.letter_value((g, 1)))
            for g in rep.presentation.generators}
    psis = {g: helpers.to_pair(psi_r.values[g])
            for g in rep.presentation.generators}
    rng = random.Random(980)
    letters = [(g, t) for g in rep.presentation.generators for t in (1, -1)]
    for _ in range(60):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 6)))
        expected = helpers.psi_word(images, etas, psis, gram, word, 1)
        got = helpers.to_pair(psi_r.fold(word))
        assert got == expected


def test_attempt_lk_no_lk_entry():
    _, rep, cocycle = _load("surface.gamma2.no_lk")
    out = solve_generating_functional(cocycle)
    assert out.feasible
    assert out.functional.values["a1"] == sc(-1)
    assert out.functional.values["b1"] == sc(-1)
    lk = attempt_lk(out.functional)
    assert lk.verdict == "no_lk"
    assert not lk.decomposed
    assert lk.psi_gaussian is None and lk.psi_remainder is None
    assert lk.derivation is None
    assert not lk.gaussian_outcome.feasible
    assert not lk.remainder_outcome.feasible
    g_obs = {str(r.k_r) for r in lk.gaussian_outcome.readings
             if r.k_r != ZERO}
    r_obs = {str(r.k_r) for r in lk.remainder_outcome.readings
             if r.k_r != ZERO}
    assert g_obs == {"-2i"}
    assert r_obs == {"2i"}
    assert confirm_solve_result(lk.gaussian_outcome)
    assert confirm_solve_result(lk.remainder_outcome)
    doc = lk.to_json()
    assert doc["psi_gaussian"] is None
    assert doc["derivation_correction"] is None


def test_property_report_validation():
    rep = PropertyReport(algebra="zk.z2", property="LK",
                         verdict="CHECKED_TRUE_FINITE", evidence={})
    assert rep.to_json()["property"] == "LK"
    with pytest.raises(ValueError):
        PropertyReport(algebra="zk.z2", property="XY",
                       verdict="CHECKED_TRUE_FINITE", evidence={})
    with pytest.raises(ValueError):
        PropertyReport(algebra="zk.z2", property="LK",
                       verdict="MAYBE", evidence={})


def test_diagram_consistency_flags_broken_implication():
    ok = [
        PropertyReport("alg", "AC", "CHECKED_TRUE_FINITE", {}),
        PropertyReport("alg", "GC", "CHECKED_TRUE_FINITE", {}),
        PropertyReport("alg", "LK", "PAPER_CLAIM_TRUE", {}),
    ]
    assert check_diagram_consistency(ok) == []
    broken = [
        PropertyReport("alg", "AC", "CHECKED_TRUE_FINITE", {}),
        PropertyReport("alg", "GC", "WITNESSED_FALSE", {}),
    ]
    conflicts = check_diagram_consistency(broken)
    assert len(conflicts) == 1
    assert "AC" in conflicts[0] and "GC" in conflicts[0]
    # verdicts on different algebras never clash
    split_algebras = [
        PropertyReport("one", "AC", "CHECKED_TRUE_FINITE", {}),
        PropertyReport("two", "GC", "WITNESSED_FALSE", {}),
    ]
    assert check_diagram_consistency(split_algebras) == []
    claims = [
        PropertyReport("alg", "H2Z", "PAPER_CLAIM_TRUE", {}),
        PropertyReport("alg", "AC", "PAPER_CLAIM_FALSE", {}),
    ]
    assert len(check_diagram_consistency(claims)) == 1
    # conflicts reached only through a chain of implications count too
    chained = [
        PropertyReport("alg", "H2Z", "PAPER_CLAIM_TRUE", {}),
        PropertyReport("alg", "LK", "WITNESSED_FALSE", {}),
    ]
    conflicts = check_diagram_consistency(chained)
    assert len(conflicts) == 1
    assert "H2Z" in conflicts[0] and "LK" in conflicts[0]


def test_implication_diagram_shape():
    assert set(PROPERTIES) == {"LK", "GC", "NC", "AC", "H2Z"}
    for p, q in IMPLICATIONS:
        assert p in PROPERTIES and q in PROPERTIES
    assert ("GC", "LK") in IMPLICATIONS
    assert ("NC", "LK") in IMPLICATIONS
    assert ("AC", "GC") in IMPLICATIONS
    assert ("AC", "NC") in IMPLICATIONS
    assert ("H2Z", "AC") in IMPLICATIONS
