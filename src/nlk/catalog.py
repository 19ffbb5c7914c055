"""Built-in catalog of worked scenarios with expected outcomes.

Each entry is data read by one runner: scenario documents, an ordered list
of checks comparing a computed probe against a frozen expected value (or,
for a cross-check, against a second probe), and property verdicts whose
evidence may quote probes.  Probes read one per-run memo, so a scenario is
parsed once and each derived result is computed once per scenario.  Running
an entry recomputes everything; a mismatch between expected and actual is
reported, never patched over.
"""

from __future__ import annotations

import copy
import functools
from typing import NamedTuple

from . import linalg
from .cocycles import (
    CocycleObstructed,
    RepresentationError,
    big_K,
    derivation_space,
    exponent_matrix,
)
from .decompose import (
    CHECKED_TRUE_FINITE,
    PAPER_CLAIM_TRUE,
    WITNESSED_FALSE,
    PropertyReport,
    attempt_lk,
    check_diagram_consistency,
    split,
)
from .functionals import (
    GroupFunctional,
    brute_force_welldefinedness_oracle,
    forced_real_parts,
    gns_truncated,
    is_gaussian_functional,
    solve_generating_functional,
    verify_schurmann_triple,
)
from .presentations import element_vanishes
from .reports import confirm_solve_result
from .scalars import Scalar
from .scenarios import parse_scenario


# --- result containers ----------------------------------------------


def _plain(value):
    if isinstance(value, Scalar):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in sorted(value.items())}
    return value


class CheckOutcome(NamedTuple):
    name: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_json(self):
        return {"name": self.name, "ok": self.ok,
                "expected": self.expected, "actual": self.actual}


class EntryResult(NamedTuple):
    entry_id: str
    title: str
    checks: tuple
    properties: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def mismatches(self) -> list:
        return [f"{self.entry_id}: {c.name}: expected {c.expected!r}, "
                f"got {c.actual!r}" for c in self.checks if not c.ok]

    def to_json(self):
        return {"id": self.entry_id, "title": self.title, "ok": self.ok,
                "checks": [c.to_json() for c in self.checks],
                "properties": [p.to_json() for p in self.properties]}


# --- the runner -----------------------------------------------------


def _once(method):
    """Memoise a _Run method on its arguments for the life of the run."""
    @functools.wraps(method)
    def memoised(self, *args):
        key = (method.__name__, *args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]
    return memoised


class _Run:
    """The results one entry run derives from its named scenarios.

    Each scenario is parsed and built once, and each result is computed once
    per scenario; the memo lives as long as the run and no longer.
    """

    def __init__(self, entry):
        self.entry = entry
        self._memo = {}

    @_once
    def scenario(self, name):
        return parse_scenario(self.entry.scenarios[name])

    @_once
    def representation(self, name):
        return self.scenario(name).build_representation()

    @_once
    def cocycle(self, name):
        return self.scenario(name).build_cocycle(self.representation(name))

    @_once
    def cycles(self, name):
        return self.scenario(name).build_cycles()

    @_once
    def solve(self, name):
        return solve_generating_functional(self.cocycle(name))

    @_once
    def functional(self, name):
        """The scenario's own functional, else the solved one (or None)."""
        supplied = self.scenario(name).build_functional(self.cocycle(name))
        if supplied is not None:
            return supplied
        return self.solve(name).functional

    @_once
    def lk(self, name):
        return attempt_lk(self.functional(name))

    @_once
    def recheck(self, name, part):
        """Recheck the scenario's solve outcome ("solve") or one of its
        decomposition parts ("gaussian", "remainder") as `recheck` would."""
        if part == "solve":
            outcome = self.solve(name)
        else:
            lk = self.lk(name)
            outcome = (lk.gaussian_outcome if part == "gaussian"
                       else lk.remainder_outcome)
        return confirm_solve_result(outcome)

    @_once
    def split(self, name):
        return split(self.cocycle(name))

    @_once
    def verify(self, name):
        return verify_schurmann_triple(
            self.cocycle(name), self.functional(name),
            self.scenario(name).options.max_word_length)

    @_once
    def oracle(self, name):
        """The oracle on the scenario's functional; where none exists, on the
        forced-real-part candidate, whose ill-definedness it should show."""
        cocycle = self.cocycle(name)
        functional = (self.functional(name)
                      or GroupFunctional(cocycle, forced_real_parts(cocycle)))
        return brute_force_welldefinedness_oracle(
            cocycle, functional, cocycle.presentation, None, 0)

    @_once
    def residuals(self, name):
        """Residuals of the relations the scenario's cocycle violates."""
        try:
            self.cocycle(name)
        except CocycleObstructed as exc:
            return [linalg.vector_to_json(v.residual) for v in exc.violations]
        return []

    @_once
    def representation_rejected(self, name):
        try:
            self.representation(name)
        except RepresentationError:
            return True
        return False

    @_once
    def pairing(self, name, cycle):
        """big_K of the scenario's cocycle on its kernel tensor `cycle`."""
        return big_K(self.cocycle(name), self.cycles(name)[cycle])

    @_once
    def vanishes(self, name, cycle):
        # one relator insertion merges the words of the commutator tensors;
        # star-algebra products are canonical already and ignore the bound
        product = self.cycles(name)[cycle].mu()
        return element_vanishes(product, insertions=1)

    @_once
    def gaussian(self, name, max_len):
        return is_gaussian_functional(self.functional(name), max_len)

    @_once
    def gns(self, name, max_len):
        return gns_truncated(self.functional(name), max_len)


def _value(spec, run):
    """A probe (a callable on the run) evaluated, or a frozen literal."""
    return spec(run) if callable(spec) else spec


class CatalogEntry(NamedTuple):
    entry_id: str
    title: str
    algebra: str
    note: str
    scenarios: dict
    checks: tuple = ()      # (name, expected, probe)
    properties: tuple = ()  # (property, verdict, evidence)

    def run(self) -> EntryResult:
        memo = _Run(self)
        checks = tuple(
            CheckOutcome(name=name, expected=_plain(_value(expected, memo)),
                         actual=_plain(probe(memo)))
            for name, expected, probe in self.checks)
        properties = tuple(
            PropertyReport(self.algebra, prop, verdict,
                           _plain({k: _value(v, memo)
                                   for k, v in evidence.items()}))
            for prop, verdict, evidence in self.properties)
        return EntryResult(entry_id=self.entry_id, title=self.title,
                           checks=checks, properties=properties)


# --- shared scenario fragments --------------------------------------


_Z2_PRESENTATION = {
    "kind": "group",
    "generators": ["a", "b"],
    "relators": [["a", "b", "a^-1", "b^-1"]],
}

_GAMMA2_PRESENTATION = {
    "kind": "group",
    "generators": ["a1", "b1", "a2", "b2"],
    "relators": [["a1", "b1", "a1^-1", "b1^-1",
                  "a2", "b2", "a2^-1", "b2^-1"]],
}

_P2_PRESENTATION = {
    "kind": "group",
    "generators": ["a", "b", "r"],
    "relators": [["a", "b", "a^-1", "b^-1"],
                 ["r", "r"],
                 ["r", "a", "r", "a"],
                 ["r", "b", "r", "b"]],
}

_FREE_PRODUCT_PRESENTATION = {
    "kind": "group",
    "generators": ["a", "b", "r", "c", "d"],
    "relators": [["a", "b", "a^-1", "b^-1"],
                 ["r", "r"],
                 ["r", "a", "r", "a"],
                 ["r", "b", "r", "b"],
                 ["c", "d", "c^-1", "d^-1"]],
}

_STAR_PRESENTATION = {
    "kind": "star_algebra",
    "generators": ["x", "y"],
    "involution": {"x": "x", "y": "y*"},
    "character": {"x": "0", "y": "0"},
    "rules": [
        {"lhs": ["x", "x", "y"], "rhs": {"coeff": "-1", "word": ["y"]}},
        {"lhs": ["y*", "y"], "rhs": {"coeff": "0", "word": []}},
    ],
}

# commutator-style kernel tensor for the rank-two abelian case:
# (a^-1 - 1) (x) (b^-1 - 1)  minus the same with a and b swapped
_C1_CYCLE = [
    {"coeff": "1",
     "left": [[["a^-1"], "1"], [[], "-1"]],
     "right": [[["b^-1"], "1"], [[], "-1"]]},
    {"coeff": "-1",
     "left": [[["b^-1"], "1"], [[], "-1"]],
     "right": [[["a^-1"], "1"], [[], "-1"]]},
]

# the analogous kernel tensor for the genus-two relator
_C2_CYCLE = [
    {"coeff": "1",
     "left": [[["a1^-1"], "1"], [[], "-1"]],
     "right": [[["b1^-1", "b2", "a2"], "1"], [["b2", "a2"], "-1"]]},
    {"coeff": "-1",
     "left": [[["b1^-1"], "1"], [[], "-1"]],
     "right": [[["a1^-1", "b2", "a2"], "1"], [["b2", "a2"], "-1"]]},
    {"coeff": "1",
     "left": [[["a1^-1", "b1^-1", "a2"], "1"], [["a1^-1", "b1^-1"], "-1"]],
     "right": [[["b2"], "1"], [[], "-1"]]},
    {"coeff": "-1",
     "left": [[["a1^-1", "b1^-1", "b2"], "1"], [["a1^-1", "b1^-1"], "-1"]],
     "right": [[["a2"], "1"], [[], "-1"]]},
]

_STAR_KERNEL_TENSOR = [
    {"coeff": "1",
     "left": [[["y*"], "1"]],
     "right": [[["y"], "1"]]},
]

# one-dimensional representations in which one generator acts as the sign
_GAMMA2_SIGN_ON_B2 = {"a1": [["1"]], "b1": [["1"]], "a2": [["1"]],
                      "b2": [["-1"]]}
_P2_SIGN_ON_R = {"a": [["1"]], "b": [["1"]], "r": [["-1"]]}

_FORM_1 = {"gram": [["1"]]}
_FORM_2 = {"gram": [["1", "0"], ["0", "1"]]}


def _star_definite_table(max_power, sign):
    table = {}
    for k in range(2, max_power + 1):
        table[" ".join(["x"] * k)] = str(sign * 2 ** (k - 2))
    return table


# --- shared checks and evidence -------------------------------------


def _claim_note(text):
    return ("holds by an external proof covering all dimensions; "
            "this tool records the claim without certifying it. " + text)


def _solver_matches(cycle):
    """Cross-check: the solver's verdict against the kernel-tensor route."""
    return ("solver_matches_cycle_obstruction",
            lambda r: r.solve("main").feasible,
            lambda r: r.pairing("main", cycle).is_zero())


def _matches_restrictions(label):
    """Cross-check: a free-product verdict against its two restrictions."""
    return (f"{label}_union_matches_restrictions",
            lambda r: r.solve(label).feasible,
            lambda r: (r.solve(f"{label}_rotation_part").feasible
                       and r.solve(f"{label}_abelian_part").feasible))


def _witnessed_with_ac(prop, evidence):
    """`prop` witnessed false, and AC refuted by the same witness cocycle."""
    return ((prop, WITNESSED_FALSE, evidence),
            ("AC", WITNESSED_FALSE,
             dict(evidence, note="the witness cocycle also refutes the "
                                 "all-cocycles property")))


def _derivation_without_functional(witness, cycle):
    return {"scenario": "main",
            "witness": witness,
            "solve_verdict": lambda r: r.solve("main").verdict,
            "certificate_confirmed": lambda r: r.recheck("main", "solve"),
            "big_K_on_kernel_tensor": lambda r: r.pairing("main", cycle)}


def _purely_nongaussian(witness, name="main"):
    return {"scenario": name,
            "witness": witness,
            "gaussian_part_dim": lambda r: r.split(name).gaussian.dim,
            "certificate_confirmed": lambda r: r.recheck(name, "solve")}


def _nonzero_class(cycle, **note):
    return {"scenario": "main",
            "kernel_tensor": cycle,
            "mu_certified_zero": lambda r: r.vanishes("main", cycle),
            "big_K_value": lambda r: r.pairing("main", cycle),
            **note}


# --- the catalog ----------------------------------------------------


ENTRIES = {entry.entry_id: entry for entry in (
    CatalogEntry(
        entry_id="zk.z2.gaussian",
        title="rank-two free abelian group, derivation without functional",
        algebra="zk.z2",
        note="derivations with a non-real generator pairing admit no "
             "generating functional; the kernel tensor c1 gives an "
             "independent route to the same obstruction",
        scenarios={
            "main": {
                "presentation": _Z2_PRESENTATION,
                "form": _FORM_1,
                "cocycle": {"a": ["1"], "b": ["i"]},
                "options": {"max_word_length": 4,
                            "normal_form": {"kind": "abelian"},
                            "cycles": {"c1": _C1_CYCLE}},
            },
            "feasible": {
                "presentation": _Z2_PRESENTATION,
                "form": _FORM_1,
                "cocycle": {"a": ["1"], "b": ["1"]},
                "options": {"max_word_length": 4,
                            "normal_form": {"kind": "abelian"},
                            "cycles": {"c1": _C1_CYCLE}},
            },
        },
        checks=(
            ("solve_main_verdict", "infeasible",
             lambda r: r.solve("main").verdict),
            ("solve_main_certificate_rechecks", True,
             lambda r: r.recheck("main", "solve")),
            ("big_K_c1_main", "-2i", lambda r: r.pairing("main", "c1")),
            ("mu_c1_certified_zero", True,
             lambda r: r.vanishes("main", "c1")),
            _solver_matches("c1"),
            ("solve_feasible_verdict", "feasible",
             lambda r: r.solve("feasible").verdict),
            ("solve_feasible_ambiguity", 2,
             lambda r: r.solve("feasible").ambiguity_dim),
            ("big_K_c1_feasible", "0",
             lambda r: r.pairing("feasible", "c1")),
            ("verify_feasible_triple", True,
             lambda r: r.verify("feasible").passed),
            ("oracle_feasible_passes", True,
             lambda r: r.oracle("feasible").passed),
            ("oracle_rejects_candidate_for_infeasible", False,
             lambda r: r.oracle("main").passed),
            ("feasible_variant_decomposes", "decomposed",
             lambda r: r.lk("feasible").verdict),
            ("split_main_is_purely_gaussian", 0,
             lambda r: r.split("main").remainder.dim),
        ),
        properties=(
            *_witnessed_with_ac("GC", _derivation_without_functional(
                "derivation a -> 1, b -> i with no generating functional",
                "c1")),
            ("H2Z", WITNESSED_FALSE, _nonzero_class(
                "c1", note="a kernel tensor with vanishing product and "
                           "nonvanishing pairing certifies a nonzero second "
                           "homology class")),
            ("NC", PAPER_CLAIM_TRUE,
             {"note": _claim_note("every purely non-Gaussian cocycle here "
                                  "admits a generating functional"),
              "finite_support": "split_main_is_purely_gaussian"}),
            ("LK", PAPER_CLAIM_TRUE,
             {"note": _claim_note(
                 "every generating functional here decomposes"),
              "finite_support": "feasible_variant_decomposes"}),
        )),

    CatalogEntry(
        entry_id="surface.gamma2.gaussian",
        title="genus-two surface group, derivation without functional",
        algebra="surface.gamma2",
        note="same obstruction as the abelian case, read off the single "
             "surface relator; the kernel tensor c2 cross-checks it",
        scenarios={
            "main": {
                "presentation": _GAMMA2_PRESENTATION,
                "form": _FORM_1,
                "cocycle": {"a1": ["1"], "b1": ["i"]},
                "options": {"max_word_length": 3,
                            "cycles": {"c2": _C2_CYCLE}},
            },
            "feasible": {
                "presentation": _GAMMA2_PRESENTATION,
                "form": _FORM_1,
                "cocycle": {"a1": ["1"], "b1": ["1"]},
                "options": {"max_word_length": 3,
                            "cycles": {"c2": _C2_CYCLE}},
            },
        },
        checks=(
            ("solve_main_verdict", "infeasible",
             lambda r: r.solve("main").verdict),
            ("solve_main_certificate_rechecks", True,
             lambda r: r.recheck("main", "solve")),
            ("big_K_c2_main", "-2i", lambda r: r.pairing("main", "c2")),
            ("mu_c2_certified_zero", True,
             lambda r: r.vanishes("main", "c2")),
            _solver_matches("c2"),
            ("solve_feasible_verdict", "feasible",
             lambda r: r.solve("feasible").verdict),
            ("solve_feasible_ambiguity", 4,
             lambda r: r.solve("feasible").ambiguity_dim),
            ("big_K_c2_feasible", "0",
             lambda r: r.pairing("feasible", "c2")),
            ("verify_feasible_triple", True,
             lambda r: r.verify("feasible").passed),
            ("feasible_variant_decomposes", "decomposed",
             lambda r: r.lk("feasible").verdict),
        ),
        properties=(
            *_witnessed_with_ac("GC", _derivation_without_functional(
                "derivation a1 -> 1, b1 -> i with no generating functional",
                "c2")),
            ("H2Z", WITNESSED_FALSE, _nonzero_class("c2")),
        )),

    CatalogEntry(
        entry_id="surface.gamma2.nongaussian",
        title="genus-two surface group, purely non-Gaussian cocycle without "
              "functional",
        algebra="surface.gamma2",
        note="the sign action on the last generator makes every valid "
             "cocycle purely non-Gaussian; values on the second handle must "
             "vanish on the first-handle pair for the relator to hold",
        scenarios={
            "main": {
                "presentation": _GAMMA2_PRESENTATION,
                "form": _FORM_1,
                "representation": _GAMMA2_SIGN_ON_B2,
                "cocycle": {"a1": ["1"], "b1": ["i"]},
                "options": {"max_word_length": 3,
                            "cycles": {"c2": _C2_CYCLE}},
            },
            "feasible": {
                "presentation": _GAMMA2_PRESENTATION,
                "form": _FORM_1,
                "representation": _GAMMA2_SIGN_ON_B2,
                "cocycle": {"a1": ["1"], "b1": ["1"]},
                "options": {"max_word_length": 3},
            },
            "obstructed": {
                "presentation": _GAMMA2_PRESENTATION,
                "form": _FORM_1,
                "representation": _GAMMA2_SIGN_ON_B2,
                "cocycle": {"a1": ["1"], "a2": ["1"]},
                "options": {"max_word_length": 4},
            },
        },
        checks=(
            ("solve_main_verdict", "infeasible",
             lambda r: r.solve("main").verdict),
            ("solve_main_certificate_rechecks", True,
             lambda r: r.recheck("main", "solve")),
            ("big_K_c2_matches_reading",
             lambda r: r.solve("main").readings[0].k_r,
             lambda r: r.pairing("main", "c2")),
            _solver_matches("c2"),
            ("split_purely_nongaussian", 0,
             lambda r: r.split("main").gaussian.dim),
            ("solve_feasible_verdict", "feasible",
             lambda r: r.solve("feasible").verdict),
            ("verify_feasible_triple", True,
             lambda r: r.verify("feasible").passed),
            ("relator_obstructs_nonzero_first_pair_values", [["2"]],
             lambda r: r.residuals("obstructed")),
        ),
        properties=(
            ("NC", WITNESSED_FALSE, _purely_nongaussian(
                "purely non-Gaussian cocycle a1 -> 1, b1 -> i under the sign "
                "action on b2, no generating functional")),
        )),

    CatalogEntry(
        entry_id="surface.gamma2.no_lk",
        title="genus-two surface group, functional with no Gaussian/remainder "
              "decomposition",
        algebra="surface.gamma2",
        note="a direct sum tuned so the two handle obstructions cancel: the "
             "sum admits a functional, each projected part does not",
        scenarios={
            "main": {
                "presentation": _GAMMA2_PRESENTATION,
                "form": _FORM_2,
                "representation": {
                    "a1": [["1", "0"], ["0", "1"]],
                    "b1": [["1", "0"], ["0", "1"]],
                    "a2": [["1", "0"], ["0", "1"]],
                    "b2": [["1", "0"], ["0", "-1"]],
                },
                "cocycle": {"a1": ["1", "1"], "b1": ["i", "-i"]},
                "options": {"max_word_length": 3},
            },
        },
        checks=(
            ("solve_sum_verdict", "feasible",
             lambda r: r.solve("main").verdict),
            ("psi_a1", "-1", lambda r: r.functional("main").values["a1"]),
            ("psi_b1", "-1", lambda r: r.functional("main").values["b1"]),
            ("attempt_lk_verdict", "no_lk", lambda r: r.lk("main").verdict),
            ("gaussian_part_verdict", "infeasible",
             lambda r: r.lk("main").gaussian_outcome.verdict),
            ("remainder_part_verdict", "infeasible",
             lambda r: r.lk("main").remainder_outcome.verdict),
            ("gaussian_part_reading", "-2i",
             lambda r: r.lk("main").gaussian_outcome.readings[0].k_r),
            ("remainder_part_reading", "2i",
             lambda r: r.lk("main").remainder_outcome.readings[0].k_r),
            ("gaussian_certificate_rechecks", True,
             lambda r: r.recheck("main", "gaussian")),
            ("remainder_certificate_rechecks", True,
             lambda r: r.recheck("main", "remainder")),
            ("verify_sum_triple", True, lambda r: r.verify("main").passed),
        ),
        properties=(
            ("LK", WITNESSED_FALSE,
             {"scenario": "main",
              "witness": "direct sum of a derivation part and a sign-action "
                         "part; the sum has a generating functional, both "
                         "projected parts have none",
              "gaussian_reading":
                  lambda r: r.lk("main").gaussian_outcome.readings[0].k_r,
              "remainder_reading":
                  lambda r: r.lk("main").remainder_outcome.readings[0].k_r,
              "certificates_confirmed":
                  lambda r: (r.recheck("main", "gaussian")
                             and r.recheck("main", "remainder"))}),
        )),

    CatalogEntry(
        entry_id="p2.derivations",
        title="plane rotation group, no nonzero derivations",
        algebra="p2",
        note="the exponent-sum system has full column rank, so the "
             "derivation space is zero in every dimension; no independent "
             "kernel tensor is supplied for this presentation, the relator "
             "route is the only obstruction test",
        scenarios={
            "main": {
                "presentation": _P2_PRESENTATION,
                "form": _FORM_1,
                "cocycle": {},
                "options": {"max_word_length": 4,
                            "normal_form": {"kind": "p2"}},
            },
        },
        checks=(
            *((f"derivation_space_dim_{dim}", 0,
               lambda r, dim=dim: len(derivation_space(
                   r.scenario("main").presentation, dim)))
              for dim in (1, 2, 3, 4)),
            ("exponent_matrix_rank", 3,
             lambda r: linalg.rank(exponent_matrix(
                 r.scenario("main").presentation))),
            ("zero_cocycle_solve_verdict", "feasible",
             lambda r: r.solve("main").verdict),
            ("zero_cocycle_ambiguity", 0,
             lambda r: r.solve("main").ambiguity_dim),
            ("zero_cocycle_psi_is_zero", True,
             lambda r: all(v.is_zero() for v in
                           r.functional("main").values.values())),
            ("oracle_passes", True, lambda r: r.oracle("main").passed),
        ),
        properties=tuple(
            (prop, CHECKED_TRUE_FINITE,
             {"computation": "exponent-sum system over the generators",
              "exponent_matrix_rank": 3,
              "generator_count": 3,
              "dims_checked": [1, 2, 3, 4],
              "conclusion": "full column rank forces every derivation to "
                            "zero in every dimension",
              "note": note})
            for prop, note in (
                ("GC", "the only Gaussian cocycle is zero, and the zero "
                       "functional serves it"),
                ("LK", "every cocycle equals its remainder part, so "
                       "psi = 0 + psi is a decomposition")))),

    CatalogEntry(
        entry_id="p2.nongaussian",
        title="plane rotation group, purely non-Gaussian cocycle without "
              "functional",
        algebra="p2",
        note="under the sign action of the rotation the translation values "
             "are free; a functional exists exactly when their pairing is "
             "real",
        scenarios={
            "main": {
                "presentation": _P2_PRESENTATION,
                "form": _FORM_1,
                "representation": _P2_SIGN_ON_R,
                "cocycle": {"a": ["1"], "b": ["i"]},
                "options": {"max_word_length": 4,
                            "normal_form": {"kind": "p2"}},
            },
            "feasible": {
                "presentation": _P2_PRESENTATION,
                "form": _FORM_1,
                "representation": _P2_SIGN_ON_R,
                "cocycle": {"a": ["1"], "b": ["1"]},
                "options": {"max_word_length": 4,
                            "normal_form": {"kind": "p2"}},
            },
        },
        checks=(
            ("solve_main_verdict", "infeasible",
             lambda r: r.solve("main").verdict),
            ("solve_main_certificate_rechecks", True,
             lambda r: r.recheck("main", "solve")),
            ("split_purely_nongaussian", 0,
             lambda r: r.split("main").gaussian.dim),
            ("solve_feasible_verdict", "feasible",
             lambda r: r.solve("feasible").verdict),
            ("solve_feasible_ambiguity", 0,
             lambda r: r.solve("feasible").ambiguity_dim),
            ("verify_feasible_triple", True,
             lambda r: r.verify("feasible").passed),
            ("oracle_feasible_passes", True,
             lambda r: r.oracle("feasible").passed),
            ("oracle_rejects_candidate_for_infeasible", False,
             lambda r: r.oracle("main").passed),
        ),
        properties=_witnessed_with_ac("NC", _purely_nongaussian(
            "the rotation acts as the sign, a -> 1, b -> i; the pairing of "
            "the two translation values is not real"))),

    CatalogEntry(
        entry_id="freeproduct.p2_z2",
        title="free product of the rotation group and the rank-two abelian "
              "group",
        algebra="freeproduct.p2_z2",
        note="the union presentation with no cross relations; verdicts agree "
             "with the two restrictions, which is also how the decomposition "
             "claim is supported; no kernel tensor is supplied, the relator "
             "route is the only obstruction test",
        scenarios={
            "gaussian": {
                "presentation": _FREE_PRODUCT_PRESENTATION,
                "form": _FORM_1,
                "cocycle": {"c": ["1"], "d": ["i"]},
                "options": {"max_word_length": 3},
            },
            "nongaussian": {
                "presentation": _FREE_PRODUCT_PRESENTATION,
                "form": _FORM_1,
                "representation": dict(_P2_SIGN_ON_R, c=[["1"]], d=[["1"]]),
                "cocycle": {"a": ["1"], "b": ["i"]},
                "options": {"max_word_length": 3},
            },
            "mixed": {
                "presentation": _FREE_PRODUCT_PRESENTATION,
                "form": _FORM_2,
                "representation": {
                    "a": [["1", "0"], ["0", "1"]],
                    "b": [["1", "0"], ["0", "1"]],
                    "r": [["1", "0"], ["0", "-1"]],
                    "c": [["1", "0"], ["0", "1"]],
                    "d": [["1", "0"], ["0", "1"]],
                },
                "cocycle": {"c": ["1", "0"], "d": ["1", "0"],
                            "r": ["0", "1"]},
                "options": {"max_word_length": 3},
            },
            "gaussian_rotation_part": {
                "presentation": _P2_PRESENTATION,
                "form": _FORM_1,
                "cocycle": {},
                "options": {"max_word_length": 4},
            },
            "gaussian_abelian_part": {
                "presentation": _Z2_PRESENTATION,
                "form": _FORM_1,
                "cocycle": {"a": ["1"], "b": ["i"]},
                "options": {"max_word_length": 4},
            },
            "mixed_rotation_part": {
                "presentation": _P2_PRESENTATION,
                "form": _FORM_2,
                "representation": {
                    "a": [["1", "0"], ["0", "1"]],
                    "b": [["1", "0"], ["0", "1"]],
                    "r": [["1", "0"], ["0", "-1"]],
                },
                "cocycle": {"r": ["0", "1"]},
                "options": {"max_word_length": 4},
            },
            "mixed_abelian_part": {
                "presentation": _Z2_PRESENTATION,
                "form": _FORM_2,
                "cocycle": {"a": ["1", "0"], "b": ["1", "0"]},
                "options": {"max_word_length": 4},
            },
        },
        checks=(
            ("gaussian_union_verdict", "infeasible",
             lambda r: r.solve("gaussian").verdict),
            ("gaussian_union_certificate_rechecks", True,
             lambda r: r.recheck("gaussian", "solve")),
            ("nongaussian_union_verdict", "infeasible",
             lambda r: r.solve("nongaussian").verdict),
            ("nongaussian_union_purely_nongaussian", 0,
             lambda r: r.split("nongaussian").gaussian.dim),
            ("mixed_union_verdict", "feasible",
             lambda r: r.solve("mixed").verdict),
            ("mixed_union_ambiguity", 2,
             lambda r: r.solve("mixed").ambiguity_dim),
            ("mixed_union_decomposes", "decomposed",
             lambda r: r.lk("mixed").verdict),
            ("verify_mixed_triple", True,
             lambda r: r.verify("mixed").passed),
            _matches_restrictions("gaussian"),
            _matches_restrictions("mixed"),
        ),
        properties=(
            ("GC", WITNESSED_FALSE,
             {"scenario": "gaussian",
              "witness": "derivation c -> 1, d -> i on the abelian free "
                         "factor, no generating functional",
              "certificate_confirmed":
                  lambda r: r.recheck("gaussian", "solve")}),
            ("NC", WITNESSED_FALSE, _purely_nongaussian(
                "purely non-Gaussian cocycle supported on the rotation free "
                "factor with a non-real translation pairing",
                "nongaussian")),
            ("LK", PAPER_CLAIM_TRUE,
             {"note": _claim_note(
                 "functionals on the free product are determined by their "
                 "restrictions to the two free factors, and each factor "
                 "decomposes"),
              "finite_support": "mixed_union_decomposes"}),
        )),

    CatalogEntry(
        entry_id="ac_not_h2z.star_algebra",
        title="two-generator star algebra, nontrivial obstruction class "
              "under an indefinite form",
        algebra="ac_not_h2z",
        note="the pairing takes the value 1 on a kernel tensor whose product "
             "rewrites to zero; with the indefinite form this witnesses a "
             "nonzero obstruction class",
        scenarios={
            "main": {
                "presentation": _STAR_PRESENTATION,
                "form": {"gram": [["1", "0"], ["0", "-1"]]},
                "representation": {
                    "x": [["0", "1"], ["-1", "0"]],
                    "y": [["0", "0"], ["0", "0"]],
                },
                "cocycle": {"y": ["1", "0"]},
                "options": {"max_word_length": 4,
                            "cycles": {"kernel_tensor": _STAR_KERNEL_TENSOR}},
            },
        },
        checks=(
            ("representation_validates", True,
             lambda r: r.representation("main") is not None),
            ("big_K_kernel_tensor", "1",
             lambda r: r.pairing("main", "kernel_tensor")),
            ("mu_kernel_tensor_zero", True,
             lambda r: r.vanishes("main", "kernel_tensor")),
        ),
        properties=(
            ("H2Z", WITNESSED_FALSE, _nonzero_class(
                "kernel_tensor",
                note="the pairing is nonzero on a tensor whose product is "
                     "zero, so the obstruction class is nontrivial")),
        )),

    CatalogEntry(
        entry_id="ac_not_h2z.star_algebra_definite",
        title="two-generator star algebra, verified functional under a "
              "definite form",
        algebra="ac_not_h2z",
        note="with a definite form the second generator is forced to vanish "
             "in both the representation and the cocycle; the surviving "
             "functional is a doubling table on powers of the first "
             "generator",
        scenarios={
            "main": {
                "presentation": _STAR_PRESENTATION,
                "form": _FORM_1,
                "representation": {"x": [["2"]], "y": [["0"]]},
                "cocycle": {"x": ["1"]},
                "functional": {"table": _star_definite_table(8, 1)},
                "options": {"max_word_length": 8},
            },
            "flipped_sign": {
                "presentation": _STAR_PRESENTATION,
                "form": _FORM_1,
                "representation": {"x": [["2"]], "y": [["0"]]},
                "cocycle": {"x": ["1"]},
                "functional": {"table": _star_definite_table(8, -1)},
                "options": {"max_word_length": 4},
            },
            "forced_eta": {
                "presentation": _STAR_PRESENTATION,
                "form": _FORM_1,
                "representation": {"x": [["2"]], "y": [["0"]]},
                "cocycle": {"x": ["1"], "y": ["1"]},
                "options": {"max_word_length": 4},
            },
            "forced_pi": {
                "presentation": _STAR_PRESENTATION,
                "form": _FORM_1,
                "representation": {"x": [["2"]], "y": [["1"]]},
                "cocycle": {"x": ["1"]},
                "options": {"max_word_length": 4},
            },
        },
        checks=(
            ("verify_triple", True, lambda r: r.verify("main").passed),
            ("flipped_sign_table_fails", False,
             lambda r: r.verify("flipped_sign").passed),
            ("flipped_sign_witness_identity", "coboundary",
             lambda r: (r.verify("flipped_sign").witness or {}).get(
                 "identity")),
            ("nonzero_eta_on_annihilated_generator_rejected", [["5"]],
             lambda r: r.residuals("forced_eta")),
            ("nonzero_image_of_annihilated_generator_rejected", True,
             lambda r: r.representation_rejected("forced_pi")),
            ("functional_not_gaussian", False,
             lambda r: r.gaussian("main", 2).gaussian),
            ("gns_psd", True, lambda r: r.gns("main", 2).psd.psd),
            ("gns_rank", 1, lambda r: r.gns("main", 2).rank),
        ),
        properties=(
            ("AC", PAPER_CLAIM_TRUE,
             {"note": _claim_note("every cocycle of this algebra admits a "
                                  "generating functional"),
              "finite_support": [
                  "verify_triple",
                  "nonzero_eta_on_annihilated_generator_rejected",
                  "nonzero_image_of_annihilated_generator_rejected",
              ]}),
        )),
)}


# --- public API -----------------------------------------------------


def entry_ids() -> tuple:
    return tuple(ENTRIES)


def get_entry(entry_id: str) -> CatalogEntry:
    if entry_id not in ENTRIES:
        raise KeyError(f"unknown catalog entry {entry_id!r}")
    return ENTRIES[entry_id]


def scenario_doc(entry_id: str, name: str = "main") -> dict:
    """A copy of the scenario document, which the caller may edit."""
    entry = get_entry(entry_id)
    if name not in entry.scenarios:
        raise KeyError(f"entry {entry_id!r} has no scenario {name!r}")
    return copy.deepcopy(entry.scenarios[name])


def run_entry(entry_id: str) -> EntryResult:
    return get_entry(entry_id).run()


class CatalogRun(NamedTuple):
    results: tuple
    conflicts: tuple

    @property
    def mismatches(self) -> list:
        out = []
        for r in self.results:
            out.extend(r.mismatches())
        return out

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.conflicts

    def to_json(self):
        return {"ok": self.ok,
                "entries": [r.to_json() for r in self.results],
                "mismatches": self.mismatches,
                "diagram_conflicts": list(self.conflicts)}


def run_all() -> CatalogRun:
    # through the module global, so a caller may wrap run_entry
    results = tuple(run_entry(eid) for eid in ENTRIES)
    reports = [p for r in results for p in r.properties]
    conflicts = tuple(check_diagram_consistency(reports))
    return CatalogRun(results=results, conflicts=conflicts)
