"""Named mutants of the fast paths, each with the tests that must kill it.

Run from anywhere, with pytest installed:

    python3 tests/mutants.py

pytest does not collect this file: its name does not start with "test_".

A mutant is one edit of one file under src/: text that must occur there
exactly once and its replacement.  For each mutant the runner copies src/
to a temporary directory, applies the edit, and runs only the mutant's test
node ids, from the repository root with the copy first on the import path,
one process at a time.  The mutant is

    killed    when one of its tests fails, or they run for TIMEOUT_S,
    survived  when all of them pass,
    stale     when its text does not occur exactly once (the code moved),
    error     when pytest cannot run the tests (a node id is gone).

First the unmutated copy must pass every listed test, or no kill means
anything.  The exit status is 0 only when every mutant is killed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a mutant whose tests run this long loops, and counts as killed
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    text: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root


DIFF = "tests/test_differential.py::"

MUTANTS = (
    # a - c b without the imaginary part of c
    Mutant("scaled_residual without the cb terms", "nlk/scalars.py",
           "(ca * y - cb * z) for x, y, z in zip(ra, rb, ib)]\n"
           "          for ra, rb, ib in zip(ar, br, bi or zeros)]\n"
           "    im = [[u * x - ad * (ca * z + cb * y)",
           "(ca * y) for x, y, z in zip(ra, rb, ib)]\n"
           "          for ra, rb, ib in zip(ar, br, bi or zeros)]\n"
           "    im = [[u * x - ad * (ca * z)",
           (DIFF + "test_scaled_residual_cross_multiplies_the_coefficient",
            "tests/test_pinned_reports.py::"
            "test_violation_report_is_unchanged[cocycle_rule]")),
    # the cocycle check compares and reports [eta(w); eps(w)]
    Mutant("cocycle check keeps the eps entry", "nlk/cocycles.py",
           "return [re[:-1]], im and [im[:-1]], s",
           "return [re], im and [im], s",
           ("tests/test_pinned_reports.py::"
            "test_violation_report_is_unchanged[cocycle_relator]",
            DIFF + "test_cocycle_violations_are_the_reference_residuals")),
    Mutant("pairing without its conjugation", "nlk/linalg.py",
           "return re, im and [-y for y in im], d * gd",
           "return re, im, d * gd",
           (DIFF + "test_hermitian_form_definite_by_leading_minors",)),
    Mutant("GNS concatenation without the star's coefficient",
           "nlk/functionals.py",
           "                        x = coeff * x\n",
           "                        pass\n",
           (DIFF + "test_gns_gram_matches_the_reference_on_cascading_junctions",)),
    Mutant("GNS rewrite resumed with 0 steps", "nlk/functionals.py",
           "                                           coeff, steps)",
           "                                           coeff, 0)",
           (DIFF + "test_gns_gram_counts_the_star_steps_against_each_entry",)),
    Mutant("junction takes the last matching rule", "nlk/presentations.py",
           "            for _, n, rule in rules_at.get(word[i], ()):\n"
           "                if word[i:i + n] == rule.lhs:\n"
           "                    return i, rule",
           "            for _, n, rule in reversed(rules_at.get(word[i], ())):\n"
           "                if word[i:i + n] == rule.lhs:\n"
           "                    return i, rule",
           (DIFF + "test_gns_gram_follows_the_first_rule_at_the_junction",)),
    Mutant("GNS row without the support check", "nlk/functionals.py",
           "                        if len(w) > room:",
           "                        if False:",
           (DIFF + "test_gns_gram_stops_at_a_read_past_the_support_after_a_rewrite",)),
    # the star's scan runs to the end: reduce(w*) then the junction, which
    # is not reduce(w* v) where the rules overlap
    Mutant("GNS star rewritten to its end", "nlk/functionals.py",
           "                                       0, keep=k)",
           "                                       0, keep=0)",
           (DIFF + "test_gns_gram_matches_the_per_entry_reference",)),
    # a redex left just before the stop is never rewritten; the GNS
    # reference tests seldom draw one
    Mutant("star scan stops a letter early after a rewrite",
           "nlk/presentations.py",
           "                    stop = len(cur) - keep\n",
           "                    stop = len(cur) - keep - (keep > 0)\n",
           (DIFF + "test_a_scan_stopped_at_the_junction_resumes_to_the_reduction",)),
    Mutant("word listing reads the last k letters", "nlk/presentations.py",
           "cand[-(k + 1):]", "cand[-k:]",
           (DIFF + "test_words_up_to_lists_the_irreducible_words",)),
    Mutant("closure seeds from the positive letters only", "nlk/decompose.py",
           "    for l in p.alphabet():\n        shifted",
           "    for l in [(g, representation._positive) for g in p.generators]:"
           "\n        shifted",
           (DIFF + "test_invariant_closure_is_the_span_of_its_seeds",)),
    # a non-real pivot p without u = conj(p): the scale turns non-real
    Mutant("row step without the conj(p) branch", "nlk/linalg.py",
           "        if b:\n            # u = a - b i",
           "        if False:\n            # u = a - b i",
           (DIFF + "test_det_matches_cofactor_expansion",)),
    Mutant("row step without the scale's sign fix", "nlk/linalg.py",
           "    if s < 0:\n        g = -g", "    if False:\n        g = -g",
           (DIFF + "test_det_matches_cofactor_expansion",)),
    Mutant("psd witness left unconjugated", "nlk/linalg.py",
           "from_parts(x, -y, scales[i])", "from_parts(x, y, scales[i])",
           (DIFF + "test_psd_witness_has_negative_value",)),
    Mutant("letter rows over a non-least Q(l)", "nlk/functionals.py",
           "q = lcm(d, gd, pd)", "q = d * gd * pd",
           (DIFF + "test_level_folds_match_the_reference_on_groups",)),
    # c psi(w) with c read as its real part
    Mutant("eval_element without the coefficient's imaginary part",
           "nlk/functionals.py",
           "a, b, d = (a * f + e * (ca * x - cb * y),\n"
           "                       b * f + e * (ca * y + cb * x), d * f)",
           "a, b, d = (a * f + e * (ca * x),\n"
           "                       b * f + e * (ca * y), d * f)",
           (DIFF + "test_group_eval_element_is_the_sum_of_the_scaled_folds",)),
    # a group psi that does not descend is no generating functional
    Mutant("group descent refusal skipped", "nlk/functionals.py",
           "    if defect:\n        raise ValueError(defect)",
           "    if False:\n        raise ValueError(defect)",
           ("tests/test_functionals.py::"
            "test_gns_refuses_a_group_psi_without_the_forced_real_parts",
            "tests/test_functionals.py::"
            "test_group_gns_and_gaussianity_refuse_a_psi_that_fails_a_relator",
            DIFF + "test_gns_gram_is_the_eta_pairing_or_a_real_part_refusal")),
    # only the relators: a wrong real part can cancel in every relator, and
    # a free group has none
    Mutant("oracle skips the g g^-1 identities", "nlk/functionals.py",
           "    return ([((g, 1), (g, -1)) for g in presentation.generators]\n"
           "            + list(presentation.relators))",
           "    return list(presentation.relators)",
           ("tests/test_functionals.py::"
            "test_oracle_sets_g_g_inverse_against_the_empty_word",)),
    Mutant("oracle compares the [eta; eps] part only", "nlk/functionals.py",
           "        if not scaled_same(x, one):",
           "        if not scaled_same(head(x), head(one)):",
           ("tests/test_functionals.py::"
            "test_oracle_rejects_candidate_when_solver_says_infeasible",)),
    # psi(g^-1) = psi(g) where it is conj psi(g)
    Mutant("inverse letter's psi left unconjugated", "nlk/functionals.py",
           "return v if tag == 1 else v.conj()", "return v",
           (DIFF + "test_group_psi_is_the_zero_letter_fold_plus_its_letter_values",)),
    # Scalar(1) == 1, but with the triple's hash a dict misses one by the other
    Mutant("Scalar hash without its real branch", "nlk/scalars.py",
           "        if self._b:\n            return hash((self._a, self._b, self._d))",
           "        if True:\n            return hash((self._a, self._b, self._d))",
           ("tests/test_scalars.py::"
            "test_a_real_scalar_hashes_as_the_number_it_equals",)),
    # "6/4" read as (6, 0, 4), a triple that is not canonical
    Mutant("plain literal without its gcd", "nlk/scalars.py",
           "                g = gcd(p, q)\n"
           "                return _make(p // g, 0, q // g)",
           "                return _make(p, 0, q)",
           (DIFF + "test_plain_rationals_parse_as_the_full_grammar_does",)),
    # "3/0" read as (1, 0, 0), "0/0" a ZeroDivisionError
    Mutant("plain literal without its zero-denominator guard",
           "nlk/scalars.py",
           "            if q:\n                g = gcd(p, q)",
           "            if True:\n                g = gcd(p, q)",
           (DIFF + "test_plain_rationals_parse_as_the_full_grammar_does",)),
    # a list or dict in a scalar position raises TypeError (unhashable)
    Mutant("literal memo hashes non-strings", "nlk/scenarios.py",
           "    if isinstance(text, str):\n        x = memo.get(text)",
           "    if True:\n        x = memo.get(text)",
           ("tests/test_scenarios_cli.py::"
            "test_cli_refuses_a_non_string_in_a_scalar_position",)),
    # an undone block with zero diagonal but a nonzero entry, as in
    # [[0, 1], [1, 0]], passes as semidefinite
    Mutant("psd sweep accepting a nonzero undone row", "nlk/linalg.py",
           "    for i in range(n):\n        if not done[i] and (any(re[i][:n])",
           "    for i in ():\n        if not done[i] and (any(re[i][:n])",
           (DIFF + "test_psd_check_matches_the_congruence_reference",)),
)

# Mutants no output can see, each with the reason; they are not run.
EQUIVALENT = (
    # the pivot row's scale cancels out of every `_step`, and det and
    # Sylvester's criterion read the pivot values, not the scales
    Mutant("row scales not swapped", "nlk/linalg.py",
           "            scales[lead], scales[piv] = scales[piv], scales[lead]\n",
           "", ()),
)


def copy_src(workdir):
    src = os.path.join(workdir, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


# pytest with hypothesis's shrink phase off: a kill needs one failing
# example, and shrinking one can take minutes
PYTEST = """import sys, pytest
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate))
settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))"""


def run_tests(src, tests):
    """pytest's exit code on the tests with the package at src: 0 when all
    pass, 1 when one fails (or they run past TIMEOUT_S), else pytest could
    not run them."""
    # the ini file's pythonpath would put the checkout's src/ first
    command = [sys.executable, "-c", PYTEST, "-q", "-x", "-p",
               "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(command, cwd=ROOT, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:
        return 1


def outcome(mutant, workdir):
    src = copy_src(workdir)
    path = os.path.join(src, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.text) != 1:
        return "stale"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.text, mutant.replacement))
    return {0: "survived", 1: "killed"}.get(run_tests(src, mutant.tests),
                                            "error")


def main():
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory() as workdir:
        code = run_tests(copy_src(workdir), tests)
        if code != 0:
            print(f"the unmutated code fails its tests (pytest exit {code})")
            return 1
        bad = 0
        for mutant in MUTANTS:
            start = time.perf_counter()
            result = outcome(mutant, workdir)
            bad += result != "killed"
            print(f"{result:8}  {mutant.name}  "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
