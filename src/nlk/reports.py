"""Report construction, text rendering, and certificate rechecking.

A report is a JSON object with the command, the exit code, the scenario
document it ran on, and the command result.  Reports are self-contained:
an infeasibility or counterexample report carries enough data for
`recheck` to confirm the certificate without re-deciding anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import linalg
from .cocycles import CocycleObstructed, exponent_matrix
from .functionals import (
    GroupFunctional,
    certificate_defect,
    forced_real_parts,
)
from .presentations import GROUP, word_from_strs
from .scalars import Scalar
from .scenarios import parse_scenario


def make_report(command: str, scenario_doc: dict, result: dict,
                exit_code: int) -> dict:
    return {"command": command, "exit_code": exit_code,
            "scenario": scenario_doc, "result": result}


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
    if result.get("verdict") == "decomposed":
        for label, key in (("psi_G", "psi_gaussian"),
                           ("psi_R", "psi_remainder")):
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


_RENDERERS = {
    "solve": _render_solve,
    "decompose": _render_decompose,
    "verify": _render_verify,
    "oracle": _render_oracle,
    "validate": _render_validate,
}


def render_text(report: dict) -> str:
    command = report.get("command", "?")
    lines = [f"command: {command}"]
    renderer = _RENDERERS.get(command)
    if renderer is None:
        lines.append(json.dumps(report.get("result"), sort_keys=True))
    else:
        renderer(report.get("result") or {}, lines)
    lines.append(f"exit: {report.get('exit_code')}")
    return "\n".join(lines) + "\n"


# --- rechecking -----------------------------------------------------


@dataclass
class RecheckResult:
    confirmed: bool
    details: list

    def to_json(self):
        return {"confirmed": self.confirmed, "details": list(self.details)}


class _RecheckFailure(Exception):
    pass


def _parse_vec(items):
    return tuple(Scalar.parse(s) for s in items)


def _parse_mat(rows):
    return tuple(_parse_vec(r) for r in rows)


def _need(cond, message):
    if not cond:
        raise _RecheckFailure(message)


def _rebuild(report):
    return parse_scenario(report["scenario"])


def _rebuild_cocycle(scenario):
    rep = scenario.build_representation()
    return rep, scenario.build_cocycle(rep)


def _functional_from_psi(cocycle, psi_doc):
    return GroupFunctional(cocycle,
                           {g: Scalar.parse(v) for g, v in psi_doc.items()})


def _confirm_cocycle_obstruction(scenario, stored_violations, details):
    rep = scenario.build_representation()
    try:
        scenario.build_cocycle(rep)
    except CocycleObstructed as exc:
        actual = {v.target for v in exc.violations}
        stored = {v.get("target") for v in stored_violations}
        _need(stored == actual,
              f"stored obstruction targets {sorted(stored)} differ from "
              f"recomputed {sorted(actual)}")
        details.append(f"cocycle obstruction reproduced at {sorted(actual)}")
        return
    raise _RecheckFailure("stored cocycle obstruction did not reproduce")


def _confirm_solve_result(scenario, result, details, cocycle=None):
    """Re-verify a solve result against refolded readings and certificates."""
    if result.get("reason") == "cocycle_obstructed":
        _confirm_cocycle_obstruction(scenario, result.get("violations", []),
                                     details)
        return
    p = scenario.presentation
    if cocycle is None:
        _, cocycle = _rebuild_cocycle(scenario)
    base = GroupFunctional(cocycle, forced_real_parts(cocycle))
    stored = result.get("obstructions", [])
    _need(len(stored) == len(p.relators),
          "stored readings do not cover the relators")
    readings = []
    for ob, relator in zip(stored, p.relators):
        k_r = base.fold(relator)
        _need(str(k_r) == ob["K_r"],
              f"stored K_r {ob['K_r']} differs from refolded {k_r}")
        _need(ob["re_violation"] == (k_r.re != 0),
              "stored re_violation flag is wrong")
        readings.append(k_r)
    details.append(f"refolded {len(readings)} relator readings")

    system = result.get("system") or {}
    a_mat = _parse_mat(system.get("matrix", []))
    rhs = _parse_vec(system.get("rhs", []))
    _need(a_mat == exponent_matrix(p), "stored system matrix is wrong")
    _need(rhs == tuple(Scalar(-k.im, 0) for k in readings),
          "stored right-hand side is wrong")

    if result["verdict"] == "infeasible":
        if any(ob["re_violation"] for ob in stored):
            details.append("real-part violation confirmed")
            return
        cert = result.get("certificate")
        _need(cert is not None, "infeasible without certificate")
        defect = certificate_defect(_parse_vec(cert), a_mat, rhs)
        _need(defect is None, defect)
        details.append("infeasibility certificate confirmed")
    else:
        psi_doc = result.get("psi")
        _need(psi_doc, "feasible result without psi")
        functional = _functional_from_psi(cocycle, psi_doc)
        for relator in p.relators:
            _need(functional.fold(relator).is_zero(),
                  "stored psi does not vanish on a relator")
        details.append("stored psi folds to zero on every relator")


def _recheck_solve(report, details):
    scenario = _rebuild(report)
    _confirm_solve_result(scenario, report["result"], details)


def _recheck_decompose(report, details):
    from .decompose import split

    scenario = _rebuild(report)
    result = report["result"]
    reason = result.get("reason")
    if reason == "cocycle_obstructed":
        _confirm_cocycle_obstruction(scenario, result.get("violations", []),
                                     details)
        return
    if reason == "no_generating_functional":
        _confirm_solve_result(scenario, result["solve"], details)
        return
    _, cocycle = _rebuild_cocycle(scenario)
    sr = split(cocycle)
    sp = result.get("split") or {}
    _need(sp.get("dim_gaussian") == sr.gaussian.dim
          and sp.get("dim_remainder") == sr.remainder.dim,
          "stored split dimensions differ from the recomputed split")
    for name, part in (("gaussian", sr.gaussian), ("remainder", sr.remainder)):
        part_result = (result.get("parts") or {}).get(name)
        _need(part_result is not None, f"missing {name} part result")
        part_scenario = _PartScenario(part)
        _confirm_solve_result(part_scenario, part_result, details,
                              cocycle=part.cocycle)
        details.append(f"{name} part confirmed")
    if result.get("verdict") == "decomposed":
        psi_total = result.get("psi_total") or {}
        psi_g = result.get("psi_gaussian") or {}
        psi_r = result.get("psi_remainder") or {}
        for g in scenario.presentation.generators:
            total = Scalar.parse(psi_g[g]) + Scalar.parse(psi_r[g])
            _need(total == Scalar.parse(psi_total[g]),
                  f"parts do not rebuild psi({g})")
        details.append("psi_G + psi_R rebuilds psi on the generators")


class _PartScenario:
    """Adapter giving a split part the scenario surface recheck needs."""

    def __init__(self, part):
        self.presentation = part.cocycle.presentation
        self._part = part

    def build_representation(self):
        return self._part.representation

    def build_cocycle(self, rep):
        return self._part.cocycle


def _recheck_verify(report, details):
    from .functionals import verify_schurmann_triple

    scenario = _rebuild(report)
    result = report["result"]
    reason = result.get("reason")
    if reason == "cocycle_obstructed":
        _confirm_cocycle_obstruction(scenario, result.get("violations", []),
                                     details)
        return
    if reason == "no_generating_functional":
        _confirm_solve_result(scenario, result["solve"], details)
        return
    rep, cocycle = _rebuild_cocycle(scenario)
    if scenario.presentation.kind == GROUP:
        psi_doc = result.get("psi_used")
        _need(psi_doc, "report does not carry the psi it verified")
        functional = _functional_from_psi(cocycle, psi_doc)
    else:
        functional = scenario.build_functional(cocycle)
        _need(functional is not None, "scenario carries no functional")
    rerun = verify_schurmann_triple(cocycle, functional,
                                    result["max_word_length"])
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


def _recheck_oracle(report, details):
    from .functionals import (brute_force_welldefinedness_oracle,
                              build_normal_form)

    scenario = _rebuild(report)
    result = report["result"]
    if result.get("reason") == "cocycle_obstructed":
        _confirm_cocycle_obstruction(scenario, result.get("violations", []),
                                     details)
        return
    rep, cocycle = _rebuild_cocycle(scenario)
    psi_doc = result.get("psi_used")
    functional = (_functional_from_psi(cocycle, psi_doc)
                  if psi_doc else None)
    ce = result.get("counterexample")
    if ce is not None:
        wa = word_from_strs(GROUP, ce["word_a"])
        wb = word_from_strs(GROUP, ce["word_b"])
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
    nf = build_normal_form(scenario.presentation,
                           scenario.options.normal_form)
    rerun = brute_force_welldefinedness_oracle(
        cocycle, functional, scenario.presentation, nf,
        result["max_word_length"])
    _need(rerun.passed, "oracle pass did not reproduce")
    details.append(f"oracle re-ran clean over {rerun.pairs} pairs")


def _recheck_validate(report, details):
    from .cocycles import RepresentationError

    scenario = _rebuild(report)
    result = report["result"]
    try:
        rep = scenario.build_representation()
        scenario.build_cocycle(rep)
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
    command = report.get("command")
    if command not in _RECHECKERS:
        return RecheckResult(confirmed=False,
                             details=[f"no recheck for command {command!r}"])
    if "scenario" not in report or "result" not in report:
        return RecheckResult(confirmed=False,
                             details=["report is missing scenario or result"])
    details = []
    try:
        _RECHECKERS[command](report, details)
    except _RecheckFailure as exc:
        details.append(str(exc))
        return RecheckResult(confirmed=False, details=details)
    except (KeyError, TypeError, ValueError) as exc:
        details.append(f"malformed report: {exc!r}")
        return RecheckResult(confirmed=False, details=details)
    return RecheckResult(confirmed=True, details=details)
