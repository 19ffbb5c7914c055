"""The scenario commands, their reports, text rendering and rechecking.

A report is a JSON object with the command, the exit code and the command
result; the five scenario commands also embed the scenario document they
ran on.  `run_command` is the one runner of each scenario command: the CLI
calls it to write a report, and `recheck` calls it again on the embedded
scenario.  A report is confirmed only when its stored result and exit code
are the re-run's, as canonical JSON text; then the certificates the re-run's
result rests on are checked on the re-run's own objects: each solve
outcome's infeasibility certificate or solved psi, a decomposition's
derivation correction, and an oracle counterexample's defining word.
"""

from __future__ import annotations

import functools
import json
from typing import NamedTuple

from . import linalg
from .cocycles import CocycleObstructed, RepresentationError
from .decompose import attempt_lk
from .functionals import (
    GroupFunctional,
    brute_force_welldefinedness_oracle,
    certificate_defect,
    defining_words,
    descent_defect,
    forced_real_parts,
    relator_readings,
    solve_generating_functional,
    verify_schurmann_triple,
)
from .presentations import GROUP, word_to_strs
from .scenarios import MAX_WORD_LENGTH, parse_scenario

# The fields every early stop of a scenario command carries besides its
# reason and evidence; `validate` never stops early.
EARLY_STOPS = {
    "validate": {},
    "solve": {"verdict": "infeasible", "psi": None},
    "decompose": {"verdict": "no_lk"},
    "verify": {"passed": False},
    "oracle": {"passed": False},
}


# The result field and value with which each scenario command succeeds.
# Exactly those results exit 0; every other result and every early stop
# exits 2.
SUCCESS = {
    "validate": ("status", "ok"),
    "solve": ("verdict", "feasible"),
    "decompose": ("verdict", "decomposed"),
    "verify": ("passed", True),
    "oracle": ("passed", True),
}


def make_report(command: str, result: dict, exit_code: int,
                scenario_doc: dict | None = None) -> dict:
    """The report envelope; scenario commands pass their scenario document."""
    report = {"command": command, "exit_code": exit_code, "result": result}
    if scenario_doc is not None:
        report["scenario"] = scenario_doc
    return report


def dumps(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# --- the scenario commands ------------------------------------------
#
# Each runner takes the scenario, the word length and a list to which it
# appends the certificate checks its result rests on: callables that return
# a detail line, or raise _RecheckFailure.  Only `recheck` calls them.


class _EarlyStop(Exception):
    """A scenario command stopping before its own check, with the evidence."""

    def __init__(self, reason, **evidence):
        super().__init__(reason)
        self.reason = reason
        self.evidence = evidence


def _require_group(scenario, command):
    if scenario.presentation.kind != GROUP:
        raise ValueError(f"{command} needs a group presentation; this "
                         f"scenario is a star algebra")


def _violations_json(exc):
    return [v.to_json() for v in exc.violations]


def _cocycle(scenario):
    """The scenario's cocycle; an obstructed one stops the command."""
    rep = scenario.build_representation()
    try:
        return scenario.build_cocycle(rep)
    except CocycleObstructed as exc:
        raise _EarlyStop("cocycle_obstructed",
                         violations=_violations_json(exc)) from None


def _check_supplied(functional):
    """Stop unless a supplied group psi descends (`descent_defect`): it
    carries the forced real parts and folds to zero on every relator, the
    checks a solved psi passes."""
    forced = forced_real_parts(functional.cocycle)
    if descent_defect(functional, forced) is None:
        return
    raise _EarlyStop("ill_defined_psi",
                     forced_real_parts={g: str(v) for g, v in forced.items()},
                     readings=[rd.to_json()
                               for rd in relator_readings(functional)])


def _functional_for(scenario, cocycle, checks):
    """The functional a scenario designates, supplied or solved for, and its
    source; an ill-defined supplied psi, or none at all, stops the command."""
    supplied = scenario.build_functional(cocycle)
    if supplied is not None:
        _check_supplied(supplied)
        return supplied, "scenario"
    outcome = solve_generating_functional(cocycle)
    if not outcome.feasible:
        checks.append(functools.partial(_check_solve, "embedded solve",
                                        outcome))
        raise _EarlyStop("no_generating_functional", solve=outcome.to_json())
    return outcome.functional, "solver"


def _cmd_validate(scenario, max_len, checks):
    try:
        rep = scenario.build_representation()
    except RepresentationError as exc:
        return {"status": "violations", "stage": "representation",
                "violations": _violations_json(exc)}
    try:
        scenario.build_cocycle(rep)
    except CocycleObstructed as exc:
        return {"status": "violations", "stage": "cocycle",
                "violations": _violations_json(exc)}
    return {"status": "ok",
            "kind": scenario.presentation.kind,
            "generators": list(scenario.presentation.generators),
            "dim": scenario.form.dim}


def _cmd_solve(scenario, max_len, checks):
    _require_group(scenario, "solve")
    outcome = solve_generating_functional(_cocycle(scenario))
    checks.append(functools.partial(_check_solve, "solve", outcome))
    return outcome.to_json()


def _cmd_decompose(scenario, max_len, checks):
    _require_group(scenario, "decompose")
    functional, source = _functional_for(scenario, _cocycle(scenario), checks)
    lk = attempt_lk(functional)
    checks += [functools.partial(_check_solve, "gaussian part",
                                 lk.gaussian_outcome),
               functools.partial(_check_solve, "remainder part",
                                 lk.remainder_outcome)]
    if lk.decomposed:
        checks.append(functools.partial(_check_correction, lk))
    result = lk.to_json()
    result["psi_source"] = source
    result["psi_total"] = functional.to_json()["psi"]
    return result


def _cmd_verify(scenario, max_len, checks):
    cocycle = _cocycle(scenario)
    if scenario.presentation.kind == GROUP:
        functional, source = _functional_for(scenario, cocycle, checks)
        psi_used = functional.to_json()["psi"]
    else:
        functional = scenario.build_functional(cocycle)
        if functional is None:
            raise ValueError("verify needs a functional in the scenario for "
                             "star algebras")
        source, psi_used = "scenario", None
    report = verify_schurmann_triple(cocycle, functional, max_len)
    result = {"max_word_length": max_len, "psi_source": source,
              **report.to_json()}
    if psi_used is not None:
        result["psi_used"] = psi_used
    return result


def _cmd_oracle(scenario, max_len, checks):
    _require_group(scenario, "oracle")
    cocycle = _cocycle(scenario)
    # a supplied psi is folded as it is, since the oracle is the check that
    # exhibits an ill-defined one; where no functional exists, the
    # forced-real-part candidate is folded so that the oracle can exhibit
    # the ill-definedness the solver certified
    functional = scenario.build_functional(cocycle)
    source = "scenario"
    if functional is None:
        outcome = solve_generating_functional(cocycle)
        functional, source = outcome.functional, "solver"
        if functional is None:
            functional = GroupFunctional(cocycle, forced_real_parts(cocycle))
            source = "forced_real_parts_candidate"
    report = brute_force_welldefinedness_oracle(
        cocycle, functional, scenario.presentation, None, max_len)
    if report.counterexample is not None:
        checks.append(functools.partial(_check_counterexample, functional,
                                        report.counterexample))
    return {"psi_source": source, "psi_used": functional.to_json()["psi"],
            **report.to_json()}


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def run_command(command: str, scenario, max_len: int,
                checks: list | None = None) -> tuple:
    """Run a scenario command: its result and exit code.

    An early stop gives the command's stop fields, the reason and its
    evidence.  The certificate checks the result rests on are appended to
    `checks` when one is given.
    """
    try:
        result = _COMMANDS[command](scenario, max_len,
                                    [] if checks is None else checks)
    except _EarlyStop as stop:
        result = {**EARLY_STOPS[command], "reason": stop.reason,
                  **stop.evidence}
    field, value = SUCCESS[command]
    success = result.get("reason") is None and result.get(field) == value
    return result, 0 if success else 2


# --- text rendering -------------------------------------------------


def _relator_lines(readings, lines):
    lines += [f"relator {' '.join(ob['relator'])}: K_r = {ob['K_r']} "
              f"({'re violation' if ob.get('re_violation') else 're ok'})"
              for ob in readings]


def _render_stop(result, lines):
    """Why a scenario command stopped early, and the evidence it carries."""
    if not result.get("reason"):
        return
    lines.append(f"reason: {result['reason']}")
    for v in result.get("violations", []):
        lines.append(f"violation {v.get('code')} at {v.get('target')}: "
                     f"{v.get('message')}")
    forced = result.get("forced_real_parts") or {}
    lines += [f"forced Re psi({g}) = {forced[g]}" for g in sorted(forced)]
    _relator_lines(result.get("readings", []), lines)
    if result.get("solve"):
        lines.append("total solve:")
        _render_solve(result["solve"], lines)


def _render_solve(result, lines):
    lines.append(f"verdict: {result.get('verdict')}")
    _render_stop(result, lines)
    _relator_lines(result.get("obstructions", []), lines)
    cert = result.get("certificate")
    if cert is not None:
        lines.append(f"certificate: {' '.join(cert)}")
    if result.get("ambiguity_dim") is not None:
        lines.append(f"ambiguity dimension: {result['ambiguity_dim']}")
    psi = result.get("psi") or {}
    lines += [f"psi({g}) = {psi[g]}" for g in sorted(psi)]


def _render_decompose(result, lines):
    lines.append(f"verdict: {result.get('verdict')}")
    if result.get("reason"):
        _render_stop(result, lines)
        return
    sp = result.get("split", {})
    lines.append(f"gaussian dimension: {sp.get('dim_gaussian')}")
    lines.append(f"remainder dimension: {sp.get('dim_remainder')}")
    for part in ("gaussian", "remainder"):
        lines.append(f"{part} part:")
        _render_solve(result.get("parts", {}).get(part, {}), lines)
    for label, key in (("psi_G", "psi_gaussian"), ("psi_R", "psi_remainder")):
        table = result.get(key) or {}
        lines += [f"{label}({g}) = {table[g]}" for g in sorted(table)]


def _fmt_value(v):
    if isinstance(v, list):
        return " ".join(str(x) for x in v) if v else "1"
    return str(v)


def _render_check(result, lines):
    """verify and oracle: verdict, stop evidence, counts and witness."""
    lines.append(f"passed: {result.get('passed')}")
    _render_stop(result, lines)
    for name, count in sorted((result.get("counts") or {}).items()):
        lines.append(f"checked {name}: {count}")
    if result.get("words") is not None:
        lines.append(f"words folded: {result['words']}, identities "
                     f"compared: {result['pairs']}")
    for key in ("witness", "counterexample"):
        if result.get(key):
            parts = [f"{k} = {_fmt_value(v)}" for k, v in sorted(result[key].items())]
            lines.append(f"{key}: " + "; ".join(parts))


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
    "verify": _render_check,
    "oracle": _render_check,
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


def _need(cond, message):
    if not cond:
        raise _RecheckFailure(message)


def _check_solve(label, outcome):
    """Confirm a solve outcome on its own objects: a reading with a nonzero
    real part or an infeasibility certificate of its system, or a solved psi
    with the forced real parts that a fresh fold finds zero on every relator."""
    if not outcome.feasible:
        if any(rd.re_violation for rd in outcome.readings):
            return f"{label}: a relator reading with a nonzero real part"
        _need(outcome.certificate is not None,
              f"{label}: infeasible without certificate")
        defect = certificate_defect(outcome.certificate, outcome.system_matrix,
                                    outcome.system_rhs)
        _need(defect is None, f"{label}: {defect}")
        return f"{label}: infeasibility certificate confirmed"
    cocycle = outcome.functional.cocycle
    fresh = GroupFunctional(cocycle, outcome.functional.values)
    defect = descent_defect(fresh, forced_real_parts(cocycle))
    _need(defect is None, f"{label}: {defect}")
    return f"{label}: psi has the forced real parts and folds to zero on " \
           f"every relator"


def confirm_solve_result(outcome) -> bool:
    """Whether a `SolveOutcome` holds up: the check `recheck` makes of every
    solve outcome a report rests on."""
    try:
        _check_solve("solve", outcome)
    except _RecheckFailure:
        return False
    return True


def _check_correction(lk):
    """The derivation correction of a decomposition is a derivation: its
    exponent sums vanish over every relator."""
    p, d = lk.split_result.cocycle.presentation, lk.derivation
    # the parts share the presentation, so a part's system matrix is its
    # exponent matrix; one product reads every relator's exponent sum
    a_mat = lk.gaussian_outcome.system_matrix
    sums = linalg.mmul(a_mat, [[d[g]] for g in p.generators]) if a_mat else ()
    for relator, (total,) in zip(p.relators, sums):
        _need(total.is_zero(), f"the correction does not vanish on relator "
                               f"{word_to_strs(GROUP, relator)}")
    return "correction: its exponent sums vanish on every relator"


def _check_counterexample(functional, ce):
    """An oracle counterexample sets a defining word of the group, g g^-1
    or a relator, against the empty word, and the word folds afresh to
    another value than the empty word's: psi through a functional with a
    memo of its own, eta through the cocycle."""
    word, defining = ce["word_b"], defining_words(functional.presentation)
    _need(ce["word_a"] == () and word in defining,
          "counterexample: not a defining word against the empty word")
    fresh = GroupFunctional(functional.cocycle, functional.values)
    fold = fresh.fold if ce["evaluator"] == "psi" else fresh.cocycle.eval_word
    shown = " ".join(word_to_strs(GROUP, word))
    _need(fold(word) == ce["value_b"] != ce["value_a"] == fold(()),
          f"counterexample: a fresh {ce['evaluator']} fold of {shown} is "
          f"the empty word's")
    return (f"counterexample: {shown} is a defining word, and a fresh "
            f"{ce['evaluator']} fold of it is not the empty word's")


def _text(value) -> str:
    # the text `dumps` writes, without its indentation
    return json.dumps(value, sort_keys=True)


_ABSENT = object()


def _first_difference(stored, derived, path):
    """(JSON pointer, stored value, derived value) at the first place, in key
    order, where two values of differing JSON text differ."""
    for kind in (dict, (list, tuple)):
        if isinstance(stored, kind) and isinstance(derived, kind):
            a, b = (x if kind is dict else dict(enumerate(x))
                    for x in (stored, derived))
            for key in sorted(a.keys() | b.keys()):
                if key not in a or key not in b:
                    return (f"{path}/{key}", a.get(key, _ABSENT),
                            b.get(key, _ABSENT))
                if _text(a[key]) != _text(b[key]):
                    return _first_difference(a[key], b[key], f"{path}/{key}")
    return path, stored, derived


def _shown(value):
    if value is _ABSENT:
        return "absent"
    text = _text(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _compare(stored, derived, path, rerun):
    """Refuse unless stored and derived are one JSON text; the refusal names
    the first differing path."""
    if _text(stored) == _text(derived):
        return
    where, a, b = _first_difference(stored, derived, path)
    raise _RecheckFailure(f"{rerun}: stored {where} = {_shown(a)} differs "
                          f"from the re-run's {_shown(b)}")


def recheck(report: dict) -> RecheckResult:
    """Re-run the report's command on its scenario, require the stored result
    and exit code, then confirm the certificates the result rests on."""
    command = report.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        return RecheckResult(confirmed=False,
                             details=[f"no recheck for command {command!r}"])
    result = report.get("result")
    if "scenario" not in report or not isinstance(result, dict):
        return RecheckResult(confirmed=False,
                             details=["report is missing scenario or result"])
    details = []
    at = ""
    try:
        scenario = parse_scenario(report["scenario"])
        if "max_word_length" in result:
            # the length comes from the file: refused unless a command could
            # have used it, before anything runs
            max_len = result["max_word_length"]
            _need(type(max_len) is int and 0 <= max_len <= MAX_WORD_LENGTH,
                  f"stored /result/max_word_length = {_shown(max_len)} is "
                  f"outside 0..{MAX_WORD_LENGTH}")
            at = f" at the stored max_word_length {max_len}"
        else:
            max_len = scenario.options.max_word_length
        checks = []
        derived, exit_code = run_command(command, scenario, max_len, checks)
        rerun = f"re-ran {command}{at}"
        _compare(result, derived, "/result", rerun)
        _compare(report.get("exit_code"), exit_code, "/exit_code", rerun)
        details.append(f"{rerun}: result and exit code reproduced")
        details += [check() for check in checks]
    except _RecheckFailure as exc:
        details.append(str(exc))
    except ValueError as exc:
        code = getattr(exc, "code", None)
        details.append(f"{command}{at} fails on the stored scenario: "
                       f"{f'{code}: ' if code else ''}{exc}")
    else:
        return RecheckResult(confirmed=True, details=details)
    return RecheckResult(confirmed=False, details=details)
