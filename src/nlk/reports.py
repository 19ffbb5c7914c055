"""Report construction, text rendering, and certificate rechecking.

A report is a JSON object with the command, the exit code and the command
result; the five scenario commands also embed the scenario document they
ran on.  Reports are self-contained: an infeasibility or counterexample
report carries enough data for `recheck` to confirm the certificate
without re-deciding anything.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from . import linalg
from .cocycles import CocycleObstructed, RepresentationError, exponent_matrix
from .decompose import split
from .functionals import (
    GroupFunctional,
    NoNormalForm,
    TableSupportExceeded,
    brute_force_welldefinedness_oracle,
    certificate_defect,
    forced_real_parts,
    relator_folds,
    verify_schurmann_triple,
)
from .presentations import GROUP, word_from_strs, word_to_strs
from .scalars import ZERO, Scalar
from .scenarios import MAX_WORD_LENGTH, parse_scenario

# The early stops of each scenario command: the fields every stop carries,
# and the reasons the command can give.  The CLI builds its refusals from
# this table, and `recheck` refuses a reason the command never gives.
EARLY_STOPS = {
    "validate": ({}, ()),
    "solve": ({"verdict": "infeasible", "psi": None},
              ("cocycle_obstructed",)),
    "decompose": ({"verdict": "no_lk"},
                  ("cocycle_obstructed", "no_generating_functional")),
    "verify": ({"passed": False},
               ("cocycle_obstructed", "no_generating_functional")),
    "oracle": ({"passed": False}, ("cocycle_obstructed",)),
}


# The result field and value with which each scenario command succeeds.
# Exactly those results exit 0; every other result and every early stop
# exits 2.  The CLI takes its exit codes from here, and `recheck` refuses a
# report whose stored code differs.
SUCCESS = {
    "validate": ("status", "ok"),
    "solve": ("verdict", "feasible"),
    "decompose": ("verdict", "decomposed"),
    "verify": ("passed", True),
    "oracle": ("passed", True),
}


def exit_code_for(command: str, result: dict) -> int:
    """The exit code of a scenario command's result."""
    field, value = SUCCESS[command]
    success = result.get("reason") is None and result.get(field) == value
    return 0 if success else 2


def make_report(command: str, result: dict, exit_code: int,
                scenario_doc: dict | None = None) -> dict:
    """The report envelope; scenario commands pass their scenario document."""
    report = {"command": command, "exit_code": exit_code, "result": result}
    if scenario_doc is not None:
        report["scenario"] = scenario_doc
    return report


def dumps(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# --- text rendering -------------------------------------------------


def _render_solve(result, lines):
    lines.append(f"verdict: {result.get('verdict')}")
    if result.get("reason"):
        lines.append(f"reason: {result['reason']}")
    for v in result.get("violations", []):
        lines.append(f"violation {v.get('code')} at {v.get('target')}: "
                     f"{v.get('message')}")
    for ob in result.get("obstructions", []):
        flag = "re violation" if ob.get("re_violation") else "re ok"
        lines.append(f"relator {' '.join(ob['relator'])}: "
                     f"K_r = {ob['K_r']} ({flag})")
    cert = result.get("certificate")
    if cert is not None:
        lines.append(f"certificate: {' '.join(cert)}")
    if result.get("ambiguity_dim") is not None:
        lines.append(f"ambiguity dimension: {result['ambiguity_dim']}")
    psi = result.get("psi")
    if psi:
        for g in sorted(psi):
            lines.append(f"psi({g}) = {psi[g]}")


def _render_decompose(result, lines):
    lines.append(f"verdict: {result.get('verdict')}")
    if result.get("reason"):
        lines.append(f"reason: {result['reason']}")
        inner = result.get("solve")
        if inner:
            lines.append("total solve:")
            _render_solve(inner, lines)
        return
    sp = result.get("split", {})
    lines.append(f"gaussian dimension: {sp.get('dim_gaussian')}")
    lines.append(f"remainder dimension: {sp.get('dim_remainder')}")
    for part in ("gaussian", "remainder"):
        lines.append(f"{part} part:")
        _render_solve(result.get("parts", {}).get(part, {}), lines)
    for label, key in (("psi_G", "psi_gaussian"), ("psi_R", "psi_remainder")):
        table = result.get(key) or {}
        for g in sorted(table):
            lines.append(f"{label}({g}) = {table[g]}")


def _fmt_value(v):
    if isinstance(v, list):
        return " ".join(str(x) for x in v) if v else "1"
    return str(v)


def _render_verify(result, lines):
    lines.append(f"passed: {result.get('passed')}")
    for name, count in sorted((result.get("counts") or {}).items()):
        lines.append(f"checked {name}: {count}")
    witness = result.get("witness")
    if witness:
        parts = [f"{k} = {_fmt_value(v)}" for k, v in sorted(witness.items())]
        lines.append("witness: " + "; ".join(parts))


def _render_oracle(result, lines):
    lines.append(f"passed: {result.get('passed')}")
    if result.get("words") is not None:
        lines.append(f"words: {result['words']}, compared pairs: "
                     f"{result['pairs']}")
    ce = result.get("counterexample")
    if ce:
        parts = [f"{k} = {_fmt_value(v)}" for k, v in sorted(ce.items())]
        lines.append("counterexample: " + "; ".join(parts))


def _render_validate(result, lines):
    lines.append(f"status: {result.get('status')}")
    if result.get("stage"):
        lines.append(f"stage: {result['stage']}")
    for v in result.get("violations", []):
        lines.append(f"violation {v.get('code')} at {v.get('target')}: "
                     f"{v.get('message')}")


def _render_classify(result, lines):
    lines.append(f"entry: {result['entry']}")
    lines.append(f"algebra: {result['algebra']}")
    lines.append(f"checks ok: {result['checks_ok']}")
    lines += [f"{p['property']}: {p['verdict']}" for p in result["properties"]]
    lines += [f"conflict: {c}" for c in result["diagram_conflicts"]]


def _render_recheck(result, lines):
    lines.append(f"checked command: {result['checked_command']}")
    lines.append(f"confirmed: {result['confirmed']}")
    lines += [f"- {d}" for d in result["details"]]


def _entry_line(entry):
    return f"{entry['id']}: {'ok' if entry['ok'] else 'MISMATCH'}"


def _render_catalog_run(result, lines):
    lines.append(_entry_line(result))
    for c in result["checks"]:
        lines.append(f"  {c['name']}: {'ok' if c['ok'] else 'MISMATCH'}")
        if not c["ok"]:
            lines.append(f"    expected {c['expected']!r}, "
                         f"got {c['actual']!r}")
    lines += [f"  {p['property']}: {p['verdict']}"
              for p in result["properties"]]


def _render_catalog_run_all(result, lines):
    lines += [_entry_line(entry) for entry in result["entries"]]
    lines += [f"mismatch: {m}" for m in result["mismatches"]]
    conflicts = result["diagram_conflicts"]
    if conflicts:
        lines += [f"diagram conflict: {c}" for c in conflicts]
    else:
        lines.append("diagram consistency: ok")


_RENDERERS = {
    "solve": _render_solve,
    "decompose": _render_decompose,
    "verify": _render_verify,
    "oracle": _render_oracle,
    "validate": _render_validate,
    "classify": _render_classify,
    "recheck": _render_recheck,
    "catalog-run": _render_catalog_run,
    "catalog-run-all": _render_catalog_run_all,
}


def render_text(report: dict) -> str:
    """The text form of a report; a scenario report names its command."""
    lines = [f"command: {report['command']}"] if "scenario" in report else []
    _RENDERERS[report["command"]](report["result"], lines)
    lines.append(f"exit: {report['exit_code']}")
    return "\n".join(lines) + "\n"


# --- rechecking -----------------------------------------------------


class RecheckResult(NamedTuple):
    confirmed: bool
    details: list

    def to_json(self):
        return {"confirmed": self.confirmed, "details": list(self.details)}


class _RecheckFailure(Exception):
    pass


# what reading a malformed report can raise
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def _need(cond, message):
    if not cond:
        raise _RecheckFailure(message)


def _cocycle(scenario):
    return scenario.build_cocycle(scenario.build_representation())


def _stored_length(result):
    """The stored word length, refused unless a command could have used it."""
    n = result.get("max_word_length")
    _need(type(n) is int and 0 <= n <= MAX_WORD_LENGTH,
          f"stored max_word_length {n!r} is outside 0..{MAX_WORD_LENGTH}")
    return n


def _functional_from_psi(cocycle, psi_doc):
    return GroupFunctional(cocycle,
                           {g: Scalar.parse(v) for g, v in psi_doc.items()})


def _confirm_solved_psi(cocycle, forced, psi_doc):
    """A solved psi carries the forced real parts and folds to zero over
    every relator; `forced` is forced_real_parts(cocycle)."""
    functional = _functional_from_psi(cocycle, psi_doc)
    for g, value in functional.values.items():
        _need(value.re == forced[g].re,
              f"stored Re psi({g}) = {value.re} differs from the forced "
              f"real part {forced[g]}")
    _need(all(k.is_zero() for k in relator_folds(functional)),
          "stored psi does not vanish on a relator")


def confirm_solve_result(cocycle, result) -> bool:
    """Whether a solve result (as `SolveOutcome.to_json` writes it) holds up
    for `cocycle`: the checks `recheck` makes of a solve report."""
    try:
        _confirm_solve_result(cocycle, result, [])
    except (_RecheckFailure, *_MALFORMED):
        return False
    return True


def _confirm_solve_result(cocycle, result, details):
    """Re-verify a solve result against refolded readings and certificates."""
    p = cocycle.presentation
    base = GroupFunctional(cocycle, forced_real_parts(cocycle))
    stored = result.get("obstructions", [])
    _need(len(stored) == len(p.relators),
          "stored readings do not cover the relators")
    readings = []
    for ob, k_r in zip(stored, relator_folds(base)):
        _need(str(k_r) == ob["K_r"],
              f"stored K_r {ob['K_r']} differs from refolded {k_r}")
        _need(ob["re_violation"] == (k_r.re != 0),
              "stored re_violation flag is wrong")
        readings.append(k_r)
    details.append(f"refolded {len(readings)} relator readings")

    system = result.get("system") or {}
    a_mat = linalg.matrix_from_json(system.get("matrix", []))
    rhs = linalg.vector_from_json(system.get("rhs", []))
    _need(a_mat == exponent_matrix(p), "stored system matrix is wrong")
    _need(rhs == tuple(Scalar(-k.im, 0) for k in readings),
          "stored right-hand side is wrong")

    if result["verdict"] == "infeasible":
        if any(ob["re_violation"] for ob in stored):
            details.append("real-part violation confirmed")
            return
        cert = result.get("certificate")
        _need(cert is not None, "infeasible without certificate")
        defect = certificate_defect(linalg.vector_from_json(cert), a_mat, rhs)
        _need(defect is None, defect)
        details.append("infeasibility certificate confirmed")
    else:
        psi_doc = result.get("psi")
        _need(psi_doc, "feasible result without psi")
        _confirm_solved_psi(cocycle, base.values, psi_doc)
        details.append("stored psi folds to zero on every relator")


# --- early stops ----------------------------------------------------


def _confirm_cocycle_obstructed(scenario, result, details):
    try:
        _cocycle(scenario)
    except CocycleObstructed as exc:
        actual = {v.target for v in exc.violations}
        stored = {v.get("target") for v in result.get("violations", [])}
        _need(stored == actual,
              f"stored obstruction targets {sorted(stored)} differ from "
              f"recomputed {sorted(actual)}")
        details.append(f"cocycle obstruction reproduced at {sorted(actual)}")
        return
    raise _RecheckFailure("stored cocycle obstruction did not reproduce")


def _confirm_no_generating_functional(scenario, result, details):
    cocycle = _cocycle(scenario)
    _need(scenario.build_functional(cocycle) is None,
          "the scenario supplies a functional, so none was solved for")
    solved = result["solve"]
    _need(solved["verdict"] == "infeasible",
          "the stored solve result is not infeasible")
    _confirm_solve_result(cocycle, solved, details)


_STOP_CONFIRMERS = {
    "cocycle_obstructed": _confirm_cocycle_obstructed,
    "no_generating_functional": _confirm_no_generating_functional,
}


# --- each command's own check ---------------------------------------


def _recheck_solve(scenario, result, details):
    _confirm_solve_result(_cocycle(scenario), result, details)


def _recheck_decompose(scenario, result, details):
    cocycle = _cocycle(scenario)
    sr = split(cocycle)
    sp = result.get("split") or {}
    _need(sp.get("dim_gaussian") == sr.gaussian.dim
          and sp.get("dim_remainder") == sr.remainder.dim,
          "stored split dimensions differ from the recomputed split")
    parts = result.get("parts") or {}
    for name, part in (("gaussian", sr.gaussian), ("remainder", sr.remainder)):
        _need(parts.get(name) is not None, f"missing {name} part result")
        _confirm_solve_result(part.cocycle, parts[name], details)
        details.append(f"{name} part confirmed")
    # the rest follows from the confirmed parts and the scenario
    p = scenario.presentation
    supplied = scenario.build_functional(cocycle)
    feasible = parts["gaussian"]["verdict"] == "feasible" \
        == parts["remainder"]["verdict"]
    for key, value in (("verdict", "decomposed" if feasible else "no_lk"), (
            "psi_source", "solver" if supplied is None else "scenario")):
        _need(result.get(key) == value, f"stored {key} {result.get(key)!r} "
                                        f"differs from the derived {value!r}")
    total = {g: Scalar.parse(v) for g, v in result["psi_total"].items()}
    _need(supplied is None or total == supplied.values,
          "stored psi_total differs from the scenario's psi")
    stored = [result.get(k) for k in
              ("psi_gaussian", "psi_remainder", "derivation_correction")]
    if not feasible:
        _need(stored == [None] * 3, "a no_lk result carries part functionals "
                                    "or a correction")
        if supplied is None:
            _confirm_solved_psi(cocycle, forced_real_parts(cocycle),
                                result["psi_total"])
        return
    psi_g, psi_r, d, part_g, part_r = (
        {g: Scalar.parse(doc[g]) for g in p.generators}
        for doc in stored + [parts[n]["psi"] for n in ("gaussian", "remainder")])
    for g in p.generators:
        _need(d[g].re == 0, f"the correction at {g} is not purely imaginary")
        _need(psi_g[g] == part_g[g] + d[g] and psi_r[g] == part_r[g],
              f"stored part psi({g}) differs from the part solution's")
        _need(psi_g[g] + psi_r[g] == total[g], f"parts do not rebuild psi({g})")
    for relator, row in zip(p.relators, exponent_matrix(p)):
        d_r = sum((e * d[g] for e, g in zip(row, p.generators)), ZERO)
        _need(d_r.is_zero(), f"the correction does not vanish on relator "
                             f"{word_to_strs(GROUP, relator)}")
    details.append("psi_G + psi_R rebuilds psi on the generators")


def _recheck_verify(scenario, result, details):
    max_len = _stored_length(result)
    cocycle = _cocycle(scenario)
    if scenario.presentation.kind == GROUP:
        psi_doc = result.get("psi_used")
        _need(psi_doc, "report does not carry the psi it verified")
        functional = _functional_from_psi(cocycle, psi_doc)
    else:
        functional = scenario.build_functional(cocycle)
        _need(functional is not None, "scenario carries no functional")
    try:
        rerun = verify_schurmann_triple(cocycle, functional, max_len)
    except TableSupportExceeded as exc:
        raise _RecheckFailure(f"psi table refused at max_word_length "
                              f"{max_len}: {exc}") from None
    _need(rerun.passed == result["passed"],
          "verification outcome changed on re-run")
    _need(rerun.counts == result.get("counts"),
          f"stored counts {result.get('counts')} differ from the re-run's "
          f"{rerun.counts}")
    _need(rerun.witness == result.get("witness"),
          f"stored witness {result.get('witness')} differs from the "
          f"re-derived {rerun.witness}")
    witness = rerun.witness
    if witness is None:
        details.append("all identity checks reproduced with the stored counts")
        return
    at = "; ".join(f"{k} = {_fmt_value(witness[k])}"
                   for k in ("word", "a", "b") if k in witness)
    values = "; ".join(f"{k} = {v}" for k, v in sorted(witness.items())
                       if k not in ("identity", "word", "a", "b"))
    details.append(f"{witness['identity']} violation re-derived at "
                   f"{at or 'the empty word'}: {values}")


def _recheck_oracle(scenario, result, details):
    max_len = _stored_length(result)
    cocycle = _cocycle(scenario)
    try:
        nf = scenario.build_normal_form()
    except NoNormalForm as exc:
        raise _RecheckFailure(f"normal form {scenario.options.normal_form!r} "
                              f"refused: {exc}") from None
    psi_doc = result.get("psi_used")
    functional = (_functional_from_psi(cocycle, psi_doc)
                  if psi_doc else None)
    ce = result.get("counterexample")
    if ce is not None:
        _need(result.get("passed") is False,
              "a counterexample is stored with a passing outcome")
        wa = word_from_strs(GROUP, ce["word_a"])
        wb = word_from_strs(GROUP, ce["word_b"])
        _need(nf.key(wa) == nf.key(wb),
              f"the stored words name different elements under the "
              f"{nf.name} normal form")
        if ce["evaluator"] == "psi":
            _need(functional is not None, "counterexample names psi but the "
                                          "report carries no psi")
            va, vb = functional.fold(wa), functional.fold(wb)
            _need(str(va) == ce["value_a"] and str(vb) == ce["value_b"],
                  "stored fold values did not reproduce")
        else:
            va, vb = cocycle.eval_word(wa), cocycle.eval_word(wb)
            _need(linalg.vector_to_json(va) == ce["value_a"]
                  and linalg.vector_to_json(vb) == ce["value_b"],
                  "stored cocycle values did not reproduce")
        _need(va != vb, "the two stored words no longer disagree")
        details.append("counterexample word pair reproduced")
        return
    rerun = brute_force_welldefinedness_oracle(
        cocycle, functional, scenario.presentation, nf, max_len)
    _need(rerun.passed, "oracle pass did not reproduce")
    stored = [result.get(k) for k in ("passed", "words", "pairs")]
    _need(stored == [True, rerun.words, rerun.pairs],
          f"stored passed, words, pairs {stored} differ from the re-run's "
          f"[True, {rerun.words}, {rerun.pairs}]")
    details.append(f"oracle re-ran clean over {rerun.pairs} pairs")


def _recheck_validate(scenario, result, details):
    try:
        _cocycle(scenario)
        status = "ok"
        codes = []
    except (RepresentationError, CocycleObstructed) as exc:
        status = "violations"
        codes = sorted({v.code for v in exc.violations})
    _need(status == result.get("status"), "validation status changed")
    if status == "violations":
        stored = sorted({v.get("code")
                         for v in result.get("violations", [])})
        _need(codes == stored, "violation codes changed")
        details.append(f"violations reproduced: {', '.join(codes)}")
    else:
        details.append("representation and cocycle validated again")


_RECHECKERS = {
    "solve": _recheck_solve,
    "decompose": _recheck_decompose,
    "verify": _recheck_verify,
    "oracle": _recheck_oracle,
    "validate": _recheck_validate,
}


def recheck(report: dict) -> RecheckResult:
    """Confirm the early stop a report gives, or else the command's claim."""
    command = report.get("command")
    if not isinstance(command, str) or command not in _RECHECKERS:
        return RecheckResult(confirmed=False,
                             details=[f"no recheck for command {command!r}"])
    result = report.get("result")
    if "scenario" not in report or not isinstance(result, dict):
        return RecheckResult(confirmed=False,
                             details=["report is missing scenario or result"])
    details = []
    try:
        scenario = parse_scenario(report["scenario"])
        reason = result.get("reason")
        if reason is None:
            _RECHECKERS[command](scenario, result, details)
        else:
            fields, reasons = EARLY_STOPS[command]
            _need(reason in reasons,
                  f"{command} never stops early with reason {reason!r}")
            _need(all(result.get(k) == v for k, v in fields.items()),
                  f"an early stop of {command} must report {fields}")
            _STOP_CONFIRMERS[reason](scenario, result, details)
        expected = exit_code_for(command, result)
        stored = report.get("exit_code")
        _need(type(stored) is int and stored == expected,
              f"stored exit_code {stored!r} differs from {expected}, the "
              f"code of this {command} result")
    except _RecheckFailure as exc:
        details.append(str(exc))
        return RecheckResult(confirmed=False, details=details)
    except _MALFORMED as exc:
        details.append(f"malformed report: {exc!r}")
        return RecheckResult(confirmed=False, details=details)
    return RecheckResult(confirmed=True, details=details)
