"""Generating functionals: folding, solving, verifying, normal forms."""

import itertools
import random

import pytest

from nlk import functionals
from nlk.catalog import scenario_doc
from nlk.cocycles import Cocycle, Representation, trivial_representation
from nlk.functionals import (
    GroupFunctional,
    StarFunctional,
    TableSupportExceeded,
    brute_force_welldefinedness_oracle,
    descent_defect,
    forced_real_parts,
    gns_truncated,
    is_gaussian_functional,
    relator_readings,
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
    STAR_ALGEBRA,
    AlgebraElement,
    Presentation,
    k1_elements,
    kn_spanning_set,
    word_from_strs,
)
from nlk.reports import confirm_solve_result
from nlk.scalars import I, ONE, ZERO, sc
from nlk.scenarios import parse_scenario

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
    assert confirm_solve_result(out)
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
    assert confirm_solve_result(out)


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
    assert confirm_solve_result(out)


def _solved(entry_id):
    scn = parse_scenario(scenario_doc(entry_id))
    cocycle = scn.build_cocycle(scn.build_representation())
    return cocycle, solve_generating_functional(cocycle)


def test_confirm_solve_result_refuses_a_wrong_real_part():
    eta = _z2_cocycle(ONE, ONE)
    out = solve_generating_functional(eta)
    assert confirm_solve_result(out)
    # the real parts cancel in the commutator's fold, so only the forced
    # real part on a sees the edit
    tampered = GroupFunctional(eta, {"a": sc("1/2"), "b": sc("-3/2")})
    assert all(rd.k_r.is_zero() for rd in relator_readings(tampered))
    assert not confirm_solve_result(out._replace(functional=tampered))


def test_confirm_solve_result_refuses_a_nonzero_fold():
    cocycle, out = _solved("p2.derivations")
    assert out.feasible and confirm_solve_result(out)
    # Im psi(r) = 1 keeps the real parts and folds to 2i on r r
    values = dict(out.functional.values, r=out.functional.values["r"] + I)
    tampered = GroupFunctional(cocycle, values)
    assert relator_readings(tampered)[1].k_r == sc(0, 2)
    assert not confirm_solve_result(out._replace(functional=tampered))


def test_descent_defect_reports_a_wrong_real_part_before_any_relator():
    cocycle, out = _solved("p2.derivations")
    assert descent_defect(out.functional) is None
    # Im psi(r) = 1 folds to 2i on r r
    values = dict(out.functional.values, r=out.functional.values["r"] + I)
    assert descent_defect(GroupFunctional(cocycle, values)) == \
        "psi folds to 2i on relator ['r', 'r']"
    # Re psi(a) = 1 is not the forced 0, and r r still folds to 2i
    values["a"] += 1
    assert any(not rd.k_r.is_zero()
               for rd in relator_readings(GroupFunctional(cocycle, values)))
    tampered = GroupFunctional(cocycle, values)
    assert descent_defect(tampered) == \
        "Re psi(a) = 1 differs from the forced real part 0"
    # decided on the first defining word, a a^-1: no relator was folded
    assert set(tampered._memo) == {(), (("a", -1),), (("a", 1), ("a", -1))}


def test_gns_refuses_a_group_psi_without_the_forced_real_parts():
    cocycle, out = _solved("p2.derivations")
    # Im psi(r) shifted by 1 folds to 2i on the relator r r, and Re psi(b)
    # = 1 is not the forced 0: neither is a generating functional
    values = dict(out.functional.values, r=out.functional.values["r"] + I)
    for defect in ("psi folds to 2i on relator ['r', 'r']",
                   "Re psi(b) = 1 differs from the forced real part 0"):
        tampered = GroupFunctional(cocycle, values)
        with pytest.raises(ValueError) as info:
            gns_truncated(tampered, 2)
        assert str(info.value) == defect == descent_defect(tampered)
        values["b"] += 1


def test_group_gns_and_gaussianity_refuse_a_psi_that_fails_a_relator():
    # the forced-real-part candidate of an infeasible cocycle has the
    # forced real parts, but folds to -2i on the commutator
    scn = parse_scenario(scenario_doc("zk.z2.gaussian", "main"))
    cocycle = scn.build_cocycle(scn.build_representation())
    candidate = GroupFunctional(cocycle, forced_real_parts(cocycle))
    for check in (gns_truncated, is_gaussian_functional):
        with pytest.raises(ValueError) as info:
            check(candidate, 2)
        assert str(info.value) == \
            "psi folds to -2i on relator ['a', 'b', 'a^-1', 'b^-1']"
    # verify reads free-group words, which see the real parts only
    assert verify_schurmann_triple(cocycle, candidate, 4).passed


def test_confirm_solve_result_refuses_a_certificate_that_does_not_annihilate():
    _, out = _solved("p2.nongaussian")
    assert not out.feasible and confirm_solve_result(out)
    # the relator r r has the exponent row (0, 0, 2)
    lam = list(out.certificate)
    lam[1] += ONE
    assert functionals.certificate_defect(
        lam, out.system_matrix, out.system_rhs) == \
        "certificate does not annihilate the system"
    assert not confirm_solve_result(out._replace(certificate=tuple(lam)))


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
    bad = GroupFunctional(eta, {"a": ZERO, "b": psi.values["b"]})
    report = verify_schurmann_triple(eta, bad, 2)
    assert not report.passed
    assert report.witness["identity"] == "coboundary"


def test_verify_rejects_nonzero_value_at_identity():
    p, rep, eta, psi = _star_definite()
    class Shifted:
        presentation = p

        def fold(self, word):
            return psi.fold(word) + (ONE if word == () else ZERO)

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
    table = {(x,) * k: psi.fold((x,) * k) for k in range(2, 9)}
    table[(x,) * 4] = sc(5)
    report = verify_schurmann_triple(eta, StarFunctional(p, table), 4)
    assert report.counts == {"psi_at_one": 1, "hermitian": 80,
                             "coboundary": 12, "positivity": 0}
    assert report.witness == {"identity": "coboundary", "a": ["x"],
                              "b": ["x", "x", "x"], "lhs": "-5", "rhs": "-4"}


def test_star_functional_table_normalization():
    p, rep, eta, psi = _star_definite()
    x = ("x", 0)
    assert psi.fold((x, x)) == ONE
    assert psi.fold((x,) * 5) == sc(8)
    # reduction happens before lookup: x x y y* reduces away from the table
    assert psi.fold(word_from_strs(STAR_ALGEBRA, ["y*", "y"])) == ZERO
    with pytest.raises(ValueError):
        StarFunctional(p, {(): ONE})
    with pytest.raises(ValueError):
        StarFunctional(p, {(("x", 0), ("x", 0), ("y", 0)): ONE})


def test_star_functional_reads_nothing_past_its_support():
    p, rep, eta, psi = _star_definite()
    x, y = ("x", 0), ("y", 0)
    assert psi.support == 8
    # within the support a word the table leaves out is 0
    assert psi.fold((y,) * 8) == ZERO
    past = (x,) * 9
    reads = (lambda: psi.fold(past),
             lambda: psi.eval_element(AlgebraElement.from_word(p, past)),
             lambda: psi.fold(p.multiply((x,) * 4, (x,) * 5)[1]))
    for read in reads:
        with pytest.raises(TableSupportExceeded) as info:
            read()
        assert info.value.word == past and info.value.support == 8
        assert info.value.code == "TABLE_SUPPORT_EXCEEDED"
    # a zero-valued key declares the words up to its length
    wider = StarFunctional(p, {**psi.table, (y,) * 9: ZERO})
    assert wider.support == 9 and wider.table == psi.table
    assert wider.fold(past) == ZERO
    assert StarFunctional(p, {}).support == 0
    with pytest.raises(TableSupportExceeded):
        StarFunctional(p, {}).fold((x,))


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


def _count_products(monkeypatch, p):
    """The (u, v) of every word product formed on p from now on."""
    formed = []
    multiply = p.multiply

    def counted(u, v):
        formed.append((u, v))
        return multiply(u, v)

    monkeypatch.setattr(p, "multiply", counted)
    return formed


def test_gaussianity_stops_at_its_first_witness(monkeypatch):
    p, rep, eta, psi = _star_definite()
    first = kn_spanning_set(p, 3, 2)[0]
    base = len(k1_elements(p, 2))
    formed = _count_products(monkeypatch, p)
    report = is_gaussian_functional(psi, 2)
    assert report.checked == 1
    assert report.witness == first
    assert 0 < len(formed) <= 2 * base


def test_gaussianity_forms_no_group_product_past_its_witness(monkeypatch):
    scn = parse_scenario(scenario_doc("p2.nongaussian", "feasible"))
    cocycle = scn.build_cocycle(scn.build_representation())
    psi = (scn.build_functional(cocycle)
           or solve_generating_functional(cocycle).functional)
    formed = _count_products(monkeypatch, psi.presentation)
    # the word products that the first k distinct products take
    taken = []
    for k in (143, 144):
        formed.clear()
        list(itertools.islice(
            functionals.kn_products(psi.presentation, 3, 2), k))
        taken.append(len(formed))
    formed.clear()
    report = is_gaussian_functional(psi, 2)
    assert report.checked == 143
    assert len(formed) == taken[0] < taken[1]


def test_gaussianity_fills_no_level_past_its_products(monkeypatch):
    scn = parse_scenario(scenario_doc("surface.gamma2.nongaussian", "feasible"))
    psi = solve_generating_functional(
        scn.build_cocycle(scn.build_representation())).functional
    terms = set()
    products = functionals.kn_products

    def recorded(*args):
        for el in products(*args):
            terms.update(el.terms)
            yield el

    monkeypatch.setattr(functionals, "kn_products", recorded)
    report = is_gaussian_functional(psi, 2)
    assert not report.gaussian
    # only the suffixes of the products' words and of the defining words
    # (g g^-1 and the relators), which the descent check folds, are
    # filled, and the witness needs words of length 4; a prefill to 3 * 2
    # would hold 156,865 words
    defining = functionals.defining_words(psi.presentation)
    filled = H.check_group_memo(psi, terms | set(defining))
    by_defining = {w[i:] for w in defining for i in range(len(w) + 1)}
    assert max(map(len, filled - by_defining)) == max(map(len, terms)) == 4


def test_gns_truncation_of_star_power_table():
    p, rep, eta, psi = _star_definite()
    res = gns_truncated(psi, 2)
    assert res.psd.psd
    assert res.rank == 1
    assert res.pivot_words == ((("x", 0),),)
    x = ("x", 0)
    # the Gram matrix is the table of psi(v* w) values
    iv = res.words.index((x,))
    assert res.gram[iv][iv] == ONE


def test_gns_decides_each_junction_once(monkeypatch):
    # every (tail of a canonical star, head of a word) junction is decided
    # once per call; a product with a redex is rewritten from it, not
    # decided again inside `Presentation.multiply`
    scn = parse_scenario(scenario_doc("ac_not_h2z.star_algebra_definite",
                                      "main"))
    psi = scn.build_functional(scn.build_cocycle(scn.build_representation()))
    p = psi.presentation
    # listing the words asks `junction_redex` too, so it happens first
    k = p.junction_width
    words = p.words_up_to(4, include_empty=False)
    stars = [s for s in map(p.involve_word, words) if p.reduce(s) == (ONE, s)]
    pairs = {(s[-k:], w[:k]) for s in stars for w in words}
    decided = []
    junction_redex = Presentation.junction_redex

    def counted(self, tail, head):
        decided.append((tail, head))
        return junction_redex(self, tail, head)

    monkeypatch.setattr(Presentation, "junction_redex", counted)
    gns_truncated(psi, 4)
    assert sorted(decided) == sorted(pairs)
    # some junctions hold a redex, so some products are rewritten
    assert any(junction_redex(p, *pair) is not None for pair in pairs)


def test_gns_rewrites_each_star_once_and_reads_concatenations_inline(
        monkeypatch):
    # psi of the words and of their stars is all that `reduce` computes; the
    # rows rewrite each star once and decide each junction once, and a
    # product that needs no rewrite is read from the table, not by `read`
    scn = parse_scenario(scenario_doc("ac_not_h2z.star_algebra_definite",
                                      "main"))
    psi = scn.build_functional(scn.build_cocycle(scn.build_representation()))
    p = psi.presentation
    calls = {}  # method name -> (positional, keyword arguments) of each call

    def record(owner, name):
        method, seen = getattr(owner, name), calls.setdefault(name, [])

        def recorded(*args, **kwargs):
            seen.append((args, kwargs))
            return method(*args, **kwargs)
        monkeypatch.setattr(owner, name, recorded)

    # listing the words asks `junction_redex` too, so it happens first
    words = p.words_up_to(4, include_empty=False)
    assert len(words) == 80
    for name in ("reduce", "_rewrite", "junction_redex"):
        record(p, name)
    record(psi, "read")
    gns_truncated(psi, 4)
    assert len(calls["reduce"]) == 2 * len(words)
    decided = [args for args, _ in calls["junction_redex"]]
    assert len(decided) == len(set(decided)) > 0
    # every `reduce` runs one `_rewrite`, each star is scanned once up to
    # its junction, and the rest resume at a junction
    scans = [kw for _, kw in calls["_rewrite"] if kw]
    assert scans == [{"keep": p.junction_width}] * len(words)
    rewritten = len(calls["_rewrite"]) - len(calls["reduce"]) - len(scans)
    assert 0 < len(calls["read"]) <= 2 * len(words) + rewritten


def test_gns_rank_pivots_and_eta_match_the_reference():
    scn = parse_scenario(scenario_doc("surface.gamma2.no_lk", "main"))
    group_psi = solve_generating_functional(
        scn.build_cocycle(scn.build_representation())).functional
    for psi, max_len in ((_star_definite()[3], 2), (group_psi, 2)):
        res = gns_truncated(psi, max_len)
        assert res.psd.psd
        gram = H.to_pairs_mat(res.gram)
        cols = [tuple(row[j] for row in gram) for j in range(len(gram))]
        pivots = H.independent_subset(cols)
        assert res.pivot_words == tuple(res.words[p] for p in pivots)
        assert res.rank == H.rank(gram) == len(pivots)


def test_gns_flags_non_positive_table():
    p, rep, eta, psi = _star_definite(sign=-1)
    res = gns_truncated(psi, 2)
    assert not res.psd.psd
    assert res.pivot_words is None


def test_oracle_passes_for_consistent_functional():
    p = _z2()
    eta = _z2_cocycle(ONE, ONE)
    psi = solve_generating_functional(eta).functional
    report = brute_force_welldefinedness_oracle(eta, psi, p, None, 4)
    assert report.passed
    assert report.counterexample is None
    # a a^-1, b b^-1 and the commutator, each against the empty word
    assert (report.words, report.pairs) == (4, 3)


def test_oracle_needs_the_functional_and_its_own_cocycle():
    p = _z2()
    eta = _z2_cocycle(ONE, ONE)
    psi = solve_generating_functional(eta).functional
    # an equal cocycle that is not the functional's own object
    for cocycle, functional in ((None, psi), (_z2_cocycle(ONE, ONE), psi),
                                (eta, None)):
        with pytest.raises(ValueError, match="the functional's cocycle"):
            brute_force_welldefinedness_oracle(cocycle, functional, p, None, 2)


def test_oracle_rejects_candidate_when_solver_says_infeasible():
    p = _z2()
    eta = _z2_cocycle(ONE, I)
    candidate = GroupFunctional(eta, forced_real_parts(eta))
    report = brute_force_welldefinedness_oracle(eta, candidate, p, None, 4)
    assert not report.passed
    assert report.to_json()["counterexample"] == {
        "evaluator": "psi", "word_a": [], "word_b": ["a", "b", "a^-1", "b^-1"],
        "value_a": "0", "value_b": "-2i"}
    assert (report.words, report.pairs) == (4, 3)


def test_oracle_sets_g_g_inverse_against_the_empty_word():
    # a free group has no relator, so only g g^-1 sees a real part
    p = Presentation.group(["a", "b"], [])
    eta = Cocycle(trivial_representation(p, standard_form(1)),
                  {"a": vector([ONE]), "b": vector([I])})
    forced = forced_real_parts(eta)
    good = GroupFunctional(eta, {g: v + I for g, v in forced.items()})
    assert brute_force_welldefinedness_oracle(eta, good, p, None, 0).passed
    # Re psi(b) = 0 where the forced real part is -1/2: psi(b b^-1) = 1
    bad = GroupFunctional(eta, dict(forced, b=I))
    report = brute_force_welldefinedness_oracle(eta, bad, p, None, 0)
    assert report.to_json() == {
        "passed": False, "words": 3, "pairs": 2, "counterexample": {
            "evaluator": "psi", "word_a": [], "word_b": ["b", "b^-1"],
            "value_a": "0", "value_b": "1"}}


def test_failing_oracle_memoises_only_the_suffixes_of_the_words_it_read():
    scn = parse_scenario(scenario_doc("p2.nongaussian", "main"))
    cocycle = scn.build_cocycle(scn.build_representation())
    candidate = GroupFunctional(cocycle, forced_real_parts(cocycle))
    p = scn.presentation
    validated = set(cocycle._eta_memo)  # the relators' suffixes
    report = brute_force_welldefinedness_oracle(cocycle, candidate, p, None, 6)
    assert not report.passed
    ce = report.counterexample
    # the words the oracle compared, in its order, up to the counterexample:
    # g g^-1 for every generator, then the first relator
    read = [(), *(((g, 1), (g, -1)) for g in p.generators), ce["word_b"]]
    assert ce["word_b"] == p.relators[0]
    assert report.words == len(read)
    suffixes = {w[i:] for w in read for i in range(len(w) + 1)}
    # the candidate's memo holds eta and psi of every word it compared
    assert H.check_group_memo(candidate, read) == suffixes
    assert set(cocycle._eta_memo) <= suffixes | validated


def test_solve_outcome_json_shape():
    out = solve_generating_functional(_z2_cocycle(ONE, I))
    doc = out.to_json()
    assert doc["verdict"] == "infeasible"
    assert doc["psi"] is None
    assert doc["obstructions"][0]["K_r"] == "-2i"
    assert doc["system"]["matrix"] == [["0", "0"]]
    assert doc["system"]["rhs"] == ["2"]
    assert doc["certificate"] is not None
