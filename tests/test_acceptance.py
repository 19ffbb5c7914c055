"""Acceptance suite: nine end-to-end criteria, every comparison exact.

Each test prints one ACCEPTANCE line so a plain reading of the captured
output shows which criterion it covers.  All expected values are frozen
from independent derivations; nothing is compared with a tolerance.
"""

import contextlib
import copy
import json
import pathlib
import random

from nlk import catalog, cli, linalg
from nlk.cocycles import CocycleObstructed, big_K
from nlk.cocycles import derivation_space
from nlk.decompose import attempt_lk, split
from nlk.functionals import (
    GroupFunctional,
    brute_force_welldefinedness_oracle,
    forced_real_parts,
    solve_generating_functional,
    verify_schurmann_triple,
)
from nlk.presentations import AlgebraElement, element_vanishes
from nlk.reports import confirm_solve_result
from nlk.scalars import ONE, ZERO, Scalar, sc
from nlk.scenarios import parse_scenario

import helpers
from helpers import big_L, hochschild_boundary

GOLDEN_RUN_ALL = pathlib.Path(__file__).parent / "data" / "catalog_run_all.json"


@contextlib.contextmanager
def criterion(n):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL")
        raise
    print(f"ACCEPTANCE {n} PASS")


def _doc(entry_id, name="main"):
    return copy.deepcopy(catalog.scenario_doc(entry_id, name))


def _solver_verdict(doc):
    """Verdict the solve command reports: an obstructed cocycle counts as
    infeasible (no triple with those generator values exists at all)."""
    scn = parse_scenario(doc)
    rep = scn.build_representation()
    try:
        cocycle = scn.build_cocycle(rep)
    except CocycleObstructed:
        return "infeasible", None
    return solve_generating_functional(cocycle).verdict, cocycle


def _build(entry_id, name="main"):
    scn = parse_scenario(catalog.scenario_doc(entry_id, name))
    rep = scn.build_representation()
    return scn, rep, scn.build_cocycle(rep)


GRID = ("0", "1", "-1", "i", "1+1i", "1/2-1i")


def test_criterion_1_gamma2_gaussian_condition():
    with criterion(1):
        _, _, cocycle = _build("surface.gamma2.gaussian", "main")
        out = solve_generating_functional(cocycle)
        assert out.verdict == "infeasible"
        assert confirm_solve_result(out)
        obstructions = {str(r.k_r) for r in out.readings if r.k_r != ZERO}
        assert obstructions == {"-2i"}

        _, _, feasible_coc = _build("surface.gamma2.gaussian", "feasible")
        out_f = solve_generating_functional(feasible_coc)
        assert out_f.verdict == "feasible"
        # the two inputs sit on either side of the pairing-in-R condition
        assert helpers.inner(((helpers.CONE,),), (helpers.CONE,),
                             (helpers.CI,))[1] != 0
        assert helpers.inner(((helpers.CONE,),), (helpers.CONE,),
                             (helpers.CONE,))[1] == 0


def test_criterion_2_gamma2_nongaussian_point_and_sweep():
    with criterion(2):
        verdict, _ = _solver_verdict(_doc("surface.gamma2.nongaussian",
                                          "obstructed"))
        assert verdict == "infeasible"

        base = _doc("surface.gamma2.nongaussian", "main")
        gram = ((helpers.CONE,),)
        swept = 0
        seen = set()
        for x1 in GRID:
            for y1 in GRID:
                for y2 in GRID[:3]:
                    doc = copy.deepcopy(base)
                    doc["cocycle"] = {"a1": [x1], "b1": [y1],
                                     "a2": ["0"], "b2": [y2]}
                    verdict, _ = _solver_verdict(doc)
                    vx1 = helpers.to_pair(Scalar.parse(x1))
                    vy1 = helpers.to_pair(Scalar.parse(y1))
                    vy2 = helpers.to_pair(Scalar.parse(y2))
                    vx2 = helpers.CZERO
                    lhs = helpers.csub(helpers.inner(gram, (vx1,), (vy1,)),
                                       helpers.inner(gram, (vy1,), (vx1,)))
                    two = helpers.c(2)
                    shift = helpers.csub(
                        vy2, helpers.cadd(helpers.cmul(two, vy1),
                                          helpers.cmul(two, vx1)))
                    rhs = helpers.csub(helpers.inner(gram, (vx2,), (vy2,)),
                                       helpers.inner(gram, (shift,), (vx2,)))
                    condition_holds = lhs == rhs
                    assert (verdict == "feasible") == condition_holds
                    swept += 1
                    seen.add(condition_holds)
        assert swept == len(GRID) * len(GRID) * 3
        assert seen == {True, False}


def test_criterion_3_gamma2_no_lk():
    with criterion(3):
        _, _, cocycle = _build("surface.gamma2.no_lk")
        out = solve_generating_functional(cocycle)
        assert out.verdict == "feasible"
        assert out.functional.values["a1"] == sc(-1)
        assert out.functional.values["b1"] == sc(-1)
        lk = attempt_lk(out.functional)
        assert lk.verdict == "no_lk"
        assert not lk.gaussian_outcome.feasible
        assert not lk.remainder_outcome.feasible
        assert confirm_solve_result(lk.gaussian_outcome)
        assert confirm_solve_result(lk.remainder_outcome)
        assert catalog.run_entry("surface.gamma2.no_lk").ok


def test_criterion_4_z2_grid_and_kernel_tensor():
    with criterion(4):
        base = _doc("zk.z2.gaussian", "main")
        gram = ((helpers.CONE,),)
        pairs = 0
        for va in GRID[1:]:
            for vb in GRID[1:]:
                doc = copy.deepcopy(base)
                doc["cocycle"] = {"a": [va], "b": [vb]}
                scn = parse_scenario(doc)
                rep = scn.build_representation()
                cocycle = scn.build_cocycle(rep)
                out = solve_generating_functional(cocycle)
                a = helpers.to_pair(Scalar.parse(va))
                b = helpers.to_pair(Scalar.parse(vb))
                pairing = helpers.inner(gram, (a,), (b,))
                assert (out.verdict == "feasible") == (pairing[1] == 0)
                value = big_K(cocycle, scn.build_cycles()["c1"])
                closed_form = helpers.csub(helpers.inner(gram, (b,), (a,)),
                                           helpers.inner(gram, (a,), (b,)))
                assert helpers.to_pair(value) == closed_form
                assert (value == ZERO) == (out.verdict == "feasible")
                pairs += 1
        assert pairs == 25


def test_criterion_5_p2_derivations_and_sign_cocycle():
    with criterion(5):
        scn = parse_scenario(_doc("p2.derivations"))
        for dim in (1, 2, 3, 4):
            assert derivation_space(scn.presentation, dim) == []
        verdict_i, _ = _solver_verdict(_doc("p2.nongaussian", "main"))
        assert verdict_i == "infeasible"
        verdict_1, _ = _solver_verdict(_doc("p2.nongaussian", "feasible"))
        assert verdict_1 == "feasible"


def test_criterion_6_star_algebra_triples():
    with criterion(6):
        scn, rep, cocycle = _build("ac_not_h2z.star_algebra_definite")
        functional = scn.build_functional(cocycle)
        report = verify_schurmann_triple(cocycle, functional, 8)
        assert report.passed

        flip_scn, flip_rep, flip_coc = _build("ac_not_h2z.star_algebra_definite",
                                              "flipped_sign")
        flip_psi = flip_scn.build_functional(flip_coc)
        flipped = verify_schurmann_triple(flip_coc, flip_psi, 4)
        assert not flipped.passed
        assert flipped.witness["identity"] == "coboundary"

        ind_scn, _, ind_coc = _build("ac_not_h2z.star_algebra")
        tensor = ind_scn.build_cycles()["kernel_tensor"]
        assert str(big_K(ind_coc, tensor)) == "1"
        assert element_vanishes(tensor.mu())


def test_criterion_7_oracle_matches_solver():
    with criterion(7):
        cases = [("zk.z2.gaussian", "main"), ("zk.z2.gaussian", "feasible"),
                 ("p2.derivations", "main"), ("p2.nongaussian", "main"),
                 ("p2.nongaussian", "feasible"),
                 ("surface.gamma2.nongaussian", "main"),
                 ("surface.gamma2.nongaussian", "feasible"),
                 ("freeproduct.p2_z2", "gaussian"),
                 ("freeproduct.p2_z2", "mixed")]
        for entry_id, name in cases:
            scn, rep, cocycle = _build(entry_id, name)
            out = solve_generating_functional(cocycle)
            if out.feasible:
                psi = out.functional
            else:
                psi = GroupFunctional(cocycle, forced_real_parts(cocycle))
            report = brute_force_welldefinedness_oracle(
                cocycle, psi, scn.presentation, None, 6)
            assert report.passed == out.feasible, (entry_id, name)


def _first_scenario(entry):
    if "main" in entry.scenarios:
        return "main"
    return sorted(entry.scenarios)[0]


def test_criterion_8_invariant_suites():
    with criterion(8):
        rng = random.Random(20260823)

        # cocycle identity eta(uv) = pi(u) eta(v) + eta(u) eps(v),
        # 1000 random word pairs per catalog entry
        for entry_id in catalog.entry_ids():
            entry = catalog.get_entry(entry_id)
            scn, rep, cocycle = _build(entry_id, _first_scenario(entry))
            letters = scn.presentation.alphabet()
            for _ in range(1000):
                u = tuple(rng.choice(letters)
                          for _ in range(rng.randrange(0, 4)))
                v = tuple(rng.choice(letters)
                          for _ in range(rng.randrange(0, 4)))
                eps_v = ONE
                for l in v:
                    eps_v = eps_v * scn.presentation.epsilon_letter(l)
                lhs = cocycle.eval_word(u + v)
                rhs = linalg.vadd(
                    linalg.mvmul(rep.word_matrix(u), cocycle.eval_word(v)),
                    linalg.vscale(eps_v, cocycle.eval_word(u)))
                assert lhs == rhs, (entry_id, u, v)

        # Hochschild coboundary of the obstruction cochain vanishes:
        # 500 random triples on a group entry, 500 on a star entry
        for entry_id, name, count in (("surface.gamma2.no_lk", "main", 500),
                                      ("ac_not_h2z.star_algebra", "main", 500)):
            scn, rep, cocycle = _build(entry_id, name)
            L = big_L(cocycle)
            words = scn.presentation.words_up_to(3)
            for _ in range(count):
                a, b, c = (AlgebraElement.from_word(scn.presentation,
                                                    rng.choice(words))
                           for _ in range(3))
                assert hochschild_boundary(L, a, b, c) == ZERO

        # projector identities for both a split with two nonzero parts and
        # a split with an empty remainder
        for entry_id, name in (("surface.gamma2.no_lk", "main"),
                               ("freeproduct.p2_z2", "mixed"),
                               ("zk.z2.gaussian", "feasible")):
            scn, rep, cocycle = _build(entry_id, name)
            sr = split(cocycle)
            ident = linalg.identity(rep.form.dim)
            assert (helpers.madd(helpers.to_pairs_mat(sr.p_g),
                                 helpers.to_pairs_mat(sr.p_r))
                    == helpers.to_pairs_mat(ident))
            assert linalg.mmul(sr.p_g, sr.p_g) == sr.p_g
            assert linalg.mmul(sr.p_r, sr.p_r) == sr.p_r
            assert linalg.mmul(sr.p_g, sr.p_r) == linalg.zero_matrix(rep.form.dim, rep.form.dim)
            gram = helpers.to_pairs_mat(rep.form.gram)
            assert helpers.is_self_adjoint(gram, helpers.to_pairs_mat(sr.p_g))
            assert helpers.is_self_adjoint(gram, helpers.to_pairs_mat(sr.p_r))
            for g in rep.presentation.generators:
                img = rep.images[g]
                assert linalg.mmul(sr.p_r, img) == linalg.mmul(img, sr.p_r)

        # the Gaussian part of the mixed split is a derivation: additive on
        # products and negating on inverses
        scn, rep, cocycle = _build("freeproduct.p2_z2", "mixed")
        part = split(cocycle).gaussian.cocycle
        letters = [(g, t) for g in rep.presentation.generators
                   for t in (1, -1)]
        for _ in range(200):
            u = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
            v = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
            assert part.eval_word(u + v) == linalg.vadd(part.eval_word(u),
                                                        part.eval_word(v))
            u_inv = tuple((n, -t) for n, t in reversed(u))
            assert part.eval_word(u_inv) == tuple(-x for x in part.eval_word(u))

        # inserting a relator anywhere leaves the fold unchanged:
        # 200 random (x, r, y) triples
        out = solve_generating_functional(cocycle)
        assert out.feasible
        psi = out.functional
        relators = rep.presentation.relators
        for _ in range(200):
            x = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
            y = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
            r = rng.choice(relators)
            assert psi.fold(x + r + y) == psi.fold(x + y)
            assert cocycle.eval_word(x + r + y) == cocycle.eval_word(x + y)


def test_criterion_9_catalog_run_all(capsys):
    with criterion(9):
        assert cli.main(["catalog", "run-all", "--format", "json"]) == 0
        out = capsys.readouterr().out
        # the report is deterministic: it must match the frozen run byte
        # for byte, evidence included
        assert out.encode("utf-8") == GOLDEN_RUN_ALL.read_bytes()
        payload = json.loads(out)
        result = payload["result"]
        assert result["ok"] is True
        assert result["mismatches"] == []
        assert result["diagram_conflicts"] == []
        assert len(result["entries"]) == len(catalog.entry_ids())
        for entry in result["entries"]:
            assert entry["ok"] is True, entry["id"]
