"""Generating functionals: folding, solving, verifying, normal forms."""

import random

import pytest

from nlk.cocycles import Cocycle, Representation, trivial_representation
from nlk.functionals import (
    GroupFunctional,
    NoNormalForm,
    StarFunctional,
    brute_force_welldefinedness_oracle,
    build_normal_form,
    forced_real_parts,
    gns_truncated,
    is_gaussian_functional,
    recheck_solve_certificate,
    solve_generating_functional,
    verify_schurmann_triple,
)
from nlk.linalg import (
    HermitianForm,
    IndefiniteFormError,
    identity,
    matrix,
    standard_form,
    vector,
)
from nlk.presentations import (
    GROUP,
    STAR_ALGEBRA,
    Presentation,
    word_from_strs,
)
from nlk.scalars import I, ONE, ZERO, sc

import helpers as H


def _z2():
    return Presentation.group(["a", "b"], [["a", "b", "a^-1", "b^-1"]])


def _z2_cocycle(a_val, b_val):
    p = _z2()
    rep = trivial_representation(p, standard_form(1))
    return Cocycle(rep, {"a": vector([a_val]), "b": vector([b_val])})


def _star_definite(sign=1):
    p = Presentation.star_algebra(
        ["x", "y"], involution={"x": "x", "y": "y*"},
        character={"x": 0, "y": 0},
        rules=[(["x", "x", "y"], -1, ["y"]),
               (["y*", "y"], 0, [])])
    rep = Representation(p, standard_form(1),
                         {"x": matrix([[sc(2)]]),
                          "y": matrix([[ZERO]])})
    eta = Cocycle(rep, {"x": vector([ONE])})
    table = {}
    for k in range(2, 9):
        table[(("x", 0),) * k] = sc(sign * 2 ** (k - 2))
    return p, rep, eta, StarFunctional(p, table)


def test_fold_matches_reference_on_random_words():
    eta = _z2_cocycle(ONE, I)
    psi = GroupFunctional(eta, {"a": sc(-1) + sc(2) * I,
                                "b": sc("-1/2") - I})
    images = {"a": ((H.CONE,),), "b": ((H.CONE,),)}
    eta_vals = {"a": (H.CONE,), "b": (H.CI,)}
    psi_vals = {"a": H.c(-1, 2), "b": (H.c("-1/2")[0], H.c(-1)[0])}
    gram = ((H.CONE,),)
    rng = random.Random(41)
    alphabet = eta.presentation.alphabet()
    for _ in range(200):
        w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        got = H.to_pair(psi.fold(w))
        want = H.psi_word(images, eta_vals, psi_vals, gram, w, 1)
        assert got == want


def test_fold_matches_reference_with_nontrivial_representation():
    p = Presentation.group(
        ["a", "b", "r"],
        [["r", "r"], ["r", "a", "r^-1", "a"], ["r", "b", "r^-1", "b"],
         ["a", "b", "a^-1", "b^-1"]])
    f = standard_form(1)
    images = {"a": matrix([[ONE]]), "b": matrix([[ONE]]),
              "r": matrix([[sc(-1)]])}
    rep = Representation(p, f, images)
    eta = Cocycle(rep, {"a": vector([ONE]), "b": vector([I])})
    psi = GroupFunctional(eta, {"a": sc("-1/2"), "b": sc("-1/2") + I,
                                "r": sc("1/3")})
    pim = {g: H.to_pairs_mat(m) for g, m in images.items()}
    pe = {g: H.to_pairs_vec(eta.values[(g, 1)]) for g in p.generators}
    pp = {"a": H.c("-1/2"), "b": (H.c("-1/2")[0], H.CONE[1]),
          "r": H.c("1/3")}
    pp["b"] = (pp["b"][0], H.CONE[0])
    gram = ((H.CONE,),)
    rng = random.Random(42)
    alphabet = p.alphabet()
    for _ in range(200):
        w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        assert H.to_pair(psi.fold(w)) == H.psi_word(pim, pe, pp, gram, w, 1)


def test_fold_conjugates_on_inverse_words():
    eta = _z2_cocycle(ONE, I)
    psi = GroupFunctional(eta, {"a": sc(-1) + I, "b": sc(-2)})
    rng = random.Random(43)
    alphabet = eta.presentation.alphabet()
    for _ in range(100):
        w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        winv = tuple((n, -t) for n, t in reversed(w))
        assert psi.fold(winv) == psi.fold(w).conj()


def test_forced_real_parts_are_half_norms():
    eta = _z2_cocycle(sc(1) + sc(2) * I, sc(3))
    rho = forced_real_parts(eta)
    assert rho["a"] == sc("-5/2")
    assert rho["b"] == sc("-9/2")


def test_solver_infeasible_when_inner_product_is_imaginary():
    eta = _z2_cocycle(ONE, I)
    out = solve_generating_functional(eta)
    assert out.verdict == "infeasible"
    assert out.functional is None
    rd = out.readings[0]
    assert not rd.re_violation
    assert rd.k_r == sc(0) - sc(2) * I
    assert recheck_solve_certificate(out)
    # confirm the certificate by reference arithmetic
    lam = H.to_pairs_vec(out.certificate)
    amat = H.to_pairs_mat(out.system_matrix)
    for j in range(len(amat[0])):
        s = H.CZERO
        for i, li in enumerate(lam):
            s = H.cadd(s, H.cmul(li, amat[i][j]))
        assert H.cis_zero(s)
    dot = H.CZERO
    for li, bi in zip(lam, H.to_pairs_vec(out.system_rhs)):
        dot = H.cadd(dot, H.cmul(li, bi))
    assert not H.cis_zero(dot)


def test_solver_feasible_case_folds_relators_to_zero():
    eta = _z2_cocycle(ONE, ONE)
    out = solve_generating_functional(eta)
    assert out.verdict == "feasible"
    assert out.ambiguity_dim == 2
    psi = out.functional
    assert psi.values["a"] == sc("-1/2")
    assert psi.values["b"] == sc("-1/2")
    for r in eta.presentation.relators:
        assert psi.fold(r) == ZERO
    assert not recheck_solve_certificate(out)


def test_solver_is_deterministic():
    a = solve_generating_functional(_z2_cocycle(ONE, I)).to_json()
    b = solve_generating_functional(_z2_cocycle(ONE, I)).to_json()
    assert a == b


def test_solver_requires_group_and_definite_form():
    p, rep, eta, psi = _star_definite()
    with pytest.raises(ValueError):
        solve_generating_functional(eta)
    q = _z2()
    form = HermitianForm([[ONE, ZERO], [ZERO, sc(-1)]])
    rep2 = trivial_representation(q, form)
    eta2 = Cocycle(rep2, {"a": vector([ONE, ZERO])})
    with pytest.raises(IndefiniteFormError):
        solve_generating_functional(eta2)


def test_solver_flags_real_part_violation_on_unvalidated_input():
    # bypass cocycle validation to reach the defensive real-part branch
    p = Presentation.group(["g"], [["g", "g"]])
    rep = Representation(p, standard_form(1), {"g": identity(1)},
                         _validated=True)
    eta = Cocycle(rep, {"g": vector([ONE])}, _validated=True)
    out = solve_generating_functional(eta)
    assert out.verdict == "infeasible"
    assert out.readings[0].re_violation
    assert out.readings[0].k_r == sc(-2)
    assert recheck_solve_certificate(out)


def test_verify_counts_at_small_length():
    eta = _z2_cocycle(ONE, ONE)
    psi = solve_generating_functional(eta).functional
    report = verify_schurmann_triple(eta, psi, 2)
    assert report.passed
    assert report.counts == {"psi_at_one": 1, "hermitian": 16,
                             "coboundary": 16, "positivity": 4}


def test_verify_rejects_tampered_functional():
    eta = _z2_cocycle(ONE, ONE)
    psi = solve_generating_functional(eta).functional
    bad = psi.with_values({"a": ZERO, "b": psi.values["b"]})
    report = verify_schurmann_triple(eta, bad, 2)
    assert not report.passed
    assert report.witness["identity"] == "coboundary"


def test_verify_rejects_nonzero_value_at_identity():
    p, rep, eta, psi = _star_definite()
    class Shifted:
        presentation = p

        def psi_word(self, word):
            return psi.psi_word(word) + (ONE if word == () else ZERO)

        def eval_element(self, element):
            out = ZERO
            for w, coeff in element.terms.items():
                out = out + coeff * self.psi_word(w)
            return out

    report = verify_schurmann_triple(eta, Shifted(), 2)
    assert not report.passed
    assert report.witness["identity"] == "psi_at_one"


def test_verify_star_definite_triple_passes():
    p, rep, eta, psi = _star_definite()
    report = verify_schurmann_triple(eta, psi, 4)
    assert report.passed


def test_verify_star_flipped_sign_fails_coboundary():
    p, rep, eta, psi = _star_definite(sign=-1)
    report = verify_schurmann_triple(eta, psi, 4)
    assert not report.passed
    assert report.witness["identity"] == "coboundary"


def test_verify_star_tampered_table_pins_the_witness_pair():
    # psi(x^4) off by one: the first failing pair is (x, x x x), after the
    # pairs of x with every shorter word and none with a word of length 4
    p, rep, eta, psi = _star_definite()
    x = ("x", 0)
    table = {(x,) * k: psi.psi_word((x,) * k) for k in range(2, 9)}
    table[(x,) * 4] = sc(5)
    report = verify_schurmann_triple(eta, StarFunctional(p, table), 4)
    assert report.counts == {"psi_at_one": 1, "hermitian": 80,
                             "coboundary": 12, "positivity": 0}
    assert report.witness == {"identity": "coboundary", "a": ["x"],
                              "b": ["x", "x", "x"], "lhs": "-5", "rhs": "-4"}


def test_star_functional_table_normalization():
    p, rep, eta, psi = _star_definite()
    x = ("x", 0)
    assert psi.psi_word((x, x)) == ONE
    assert psi.psi_word((x,) * 5) == sc(8)
    # reduction happens before lookup: x x y y* reduces away from the table
    assert psi.psi_word(word_from_strs(STAR_ALGEBRA, ["y*", "y"])) == ZERO
    with pytest.raises(ValueError):
        StarFunctional(p, {(): ONE})
    with pytest.raises(ValueError):
        StarFunctional(p, {(("x", 0), ("x", 0), ("y", 0)): ONE})


def test_is_gaussian_for_trivially_acting_cocycle():
    eta = _z2_cocycle(ONE, ONE)
    psi = solve_generating_functional(eta).functional
    report = is_gaussian_functional(psi, 2)
    assert report.gaussian


def test_is_not_gaussian_for_star_power_table():
    p, rep, eta, psi = _star_definite()
    report = is_gaussian_functional(psi, 2)
    assert not report.gaussian
    assert psi.eval_element(report.witness) == report.witness_value
    assert not report.witness_value.is_zero()


def test_gns_truncation_of_star_power_table():
    p, rep, eta, psi = _star_definite()
    res = gns_truncated(psi, 2)
    assert res.psd.psd
    assert res.rank == 1
    assert res.pivot_words == ((("x", 0),),)
    x = ("x", 0)
    assert res.eta_vectors[(x, x)] == (sc(2),)
    # the Gram matrix is the table of psi(v* w) values
    iv = res.words.index((x,))
    assert res.gram[iv][iv] == ONE


def test_gns_flags_non_positive_table():
    p, rep, eta, psi = _star_definite(sign=-1)
    res = gns_truncated(psi, 2)
    assert not res.psd.psd
    assert res.eta_vectors is None


def test_abelian_normal_form_merges_commuting_words():
    p = _z2()
    nf = build_normal_form(p, {"kind": "abelian"})
    ab = word_from_strs(GROUP, ["a", "b"])
    ba = word_from_strs(GROUP, ["b", "a"])
    assert nf.key(ab) == nf.key(ba)
    assert nf.key(word_from_strs(GROUP, ["a", "a^-1"])) == nf.key(())


def test_p2_normal_form_knows_the_rotation_action():
    p = Presentation.group(
        ["a", "b", "r"],
        [["r", "r"], ["r", "a", "r^-1", "a"], ["r", "b", "r^-1", "b"],
         ["a", "b", "a^-1", "b^-1"]])
    nf = build_normal_form(p, {"kind": "p2"})
    lhs = word_from_strs(GROUP, ["r", "a", "r^-1"])
    rhs = word_from_strs(GROUP, ["a^-1"])
    assert nf.key(lhs) == nf.key(rhs)
    assert nf.key(word_from_strs(GROUP, ["r", "r"])) == nf.key(())
    assert nf.key(word_from_strs(GROUP, ["a"])) != nf.key(rhs)


def test_normal_form_rejects_presentation_it_cannot_model():
    p = Presentation.group(["a"], [["a", "a"]])
    with pytest.raises(NoNormalForm):
        build_normal_form(p, {"kind": "abelian"})


def test_oracle_passes_for_consistent_functional():
    p = _z2()
    eta = _z2_cocycle(ONE, ONE)
    psi = solve_generating_functional(eta).functional
    nf = build_normal_form(p, {"kind": "abelian"})
    report = brute_force_welldefinedness_oracle(eta, psi, p, nf, 4)
    assert report.passed
    assert report.counterexample is None
    assert report.pairs > 0


def test_oracle_rejects_candidate_when_solver_says_infeasible():
    p = _z2()
    eta = _z2_cocycle(ONE, I)
    candidate = GroupFunctional(eta, forced_real_parts(eta))
    nf = build_normal_form(p, {"kind": "abelian"})
    report = brute_force_welldefinedness_oracle(eta, candidate, p, nf, 4)
    assert not report.passed
    ce = report.counterexample
    wa = word_from_strs(GROUP, ce["word_a"])
    wb = word_from_strs(GROUP, ce["word_b"])
    assert nf.key(wa) == nf.key(wb)
    assert candidate.fold(wa) != candidate.fold(wb)


def test_solve_outcome_json_shape():
    out = solve_generating_functional(_z2_cocycle(ONE, I))
    doc = out.to_json()
    assert doc["verdict"] == "infeasible"
    assert doc["psi"] is None
    assert doc["obstructions"][0]["K_r"] == "-2i"
    assert doc["system"]["matrix"] == [["0", "0"]]
    assert doc["system"]["rhs"] == ["2"]
    assert doc["certificate"] is not None
