"""Command-line interface.

Scenario commands accept either a path to a scenario JSON file or the id of
a built-in catalog entry (which resolves to that entry's main scenario).
Exit codes: 0 when the run passes or is feasible, 2 when it produces a
certified negative (infeasible, counterexample, mismatch), 1 for input or
internal errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, reports
from .cocycles import CocycleObstructed, RepresentationError
from .decompose import (
    DecompositionInconsistent,
    attempt_lk,
    check_diagram_consistency,
)
from .functionals import (
    NoNormalForm,
    brute_force_welldefinedness_oracle,
    build_normal_form,
    forced_real_parts,
    solve_generating_functional,
    verify_schurmann_triple,
)
from .functionals import GroupFunctional
from .linalg import LinalgError
from .presentations import GROUP, PresentationError, ReductionBudgetExceeded
from .scenarios import (
    MAX_WORD_LENGTH,
    ScenarioError,
    load_scenario,
    parse_scenario,
)


class CliError(Exception):
    """Input or usage problem; maps to exit code 1."""


def _load_target(target):
    if os.path.exists(target):
        return load_scenario(target)
    if target in catalog.ENTRIES:
        try:
            return parse_scenario(catalog.scenario_doc(target))
        except KeyError as exc:
            raise CliError(str(exc)) from exc
    raise CliError(f"{target!r} is neither a readable file nor a catalog "
                   f"entry id")


def _require_group(scenario, command):
    if scenario.presentation.kind != GROUP:
        raise CliError(f"{command} needs a group presentation; this scenario "
                       f"is a star algebra")


def _violations_json(exc):
    return [v.to_json() for v in exc.violations]


# --- scenario commands ----------------------------------------------


def _cmd_validate(scenario, max_len):
    try:
        rep = scenario.build_representation()
    except RepresentationError as exc:
        return {"status": "violations", "stage": "representation",
                "violations": _violations_json(exc)}, 2
    try:
        scenario.build_cocycle(rep)
    except CocycleObstructed as exc:
        return {"status": "violations", "stage": "cocycle",
                "violations": _violations_json(exc)}, 2
    return {"status": "ok",
            "kind": scenario.presentation.kind,
            "generators": list(scenario.presentation.generators),
            "dim": scenario.form.dim}, 0


def _cmd_solve(scenario, max_len):
    _require_group(scenario, "solve")
    rep = scenario.build_representation()
    try:
        cocycle = scenario.build_cocycle(rep)
    except CocycleObstructed as exc:
        return {"verdict": "infeasible", "reason": "cocycle_obstructed",
                "violations": _violations_json(exc), "psi": None}, 2
    outcome = solve_generating_functional(cocycle)
    return outcome.to_json(), 0 if outcome.feasible else 2


def _functional_for(scenario, cocycle):
    """The functional a scenario designates: supplied, or solved for."""
    supplied = scenario.build_functional(cocycle)
    if supplied is not None:
        return supplied, "scenario", None
    outcome = solve_generating_functional(cocycle)
    if outcome.feasible:
        return outcome.functional, "solver", outcome
    return None, "solver", outcome


def _cmd_decompose(scenario, max_len):
    _require_group(scenario, "decompose")
    rep = scenario.build_representation()
    try:
        cocycle = scenario.build_cocycle(rep)
    except CocycleObstructed as exc:
        return {"verdict": "no_lk", "reason": "cocycle_obstructed",
                "violations": _violations_json(exc)}, 2
    functional, source, outcome = _functional_for(scenario, cocycle)
    if functional is None:
        return {"verdict": "no_lk", "reason": "no_generating_functional",
                "solve": outcome.to_json()}, 2
    lk = attempt_lk(functional)
    result = lk.to_json()
    result["psi_source"] = source
    result["psi_total"] = functional.to_json()["psi"]
    return result, 0 if lk.decomposed else 2


def _cmd_verify(scenario, max_len):
    rep = scenario.build_representation()
    try:
        cocycle = scenario.build_cocycle(rep)
    except CocycleObstructed as exc:
        return {"passed": False, "reason": "cocycle_obstructed",
                "violations": _violations_json(exc)}, 2
    if scenario.presentation.kind == GROUP:
        functional, source, outcome = _functional_for(scenario, cocycle)
        if functional is None:
            return {"passed": False, "reason": "no_generating_functional",
                    "solve": outcome.to_json()}, 2
        psi_used = functional.to_json()["psi"]
    else:
        functional = scenario.build_functional(cocycle)
        if functional is None:
            raise CliError("verify needs a functional in the scenario for "
                           "star algebras")
        source, psi_used = "scenario", None
    report = verify_schurmann_triple(cocycle, functional, max_len)
    result = {"max_word_length": max_len, "psi_source": source,
              **report.to_json()}
    if psi_used is not None:
        result["psi_used"] = psi_used
    return result, 0 if report.passed else 2


def _cmd_oracle(scenario, max_len):
    _require_group(scenario, "oracle")
    nf = build_normal_form(scenario.presentation, scenario.options.normal_form)
    rep = scenario.build_representation()
    try:
        cocycle = scenario.build_cocycle(rep)
    except CocycleObstructed as exc:
        return {"passed": False, "reason": "cocycle_obstructed",
                "violations": _violations_json(exc)}, 2
    functional, source, outcome = _functional_for(scenario, cocycle)
    if functional is None:
        # no functional exists; fold the forced-real-part candidate so the
        # oracle can exhibit the ill-definedness the solver certified
        functional = GroupFunctional(cocycle, forced_real_parts(cocycle))
        source = "forced_real_parts_candidate"
    report = brute_force_welldefinedness_oracle(
        cocycle, functional, scenario.presentation, nf, max_len)
    result = {"max_word_length": max_len, "normal_form": nf.name,
              "psi_source": source, "psi_used": functional.to_json()["psi"],
              **report.to_json()}
    return result, 0 if report.passed else 2


_SCENARIO_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


# --- catalog-backed commands ----------------------------------------


def _cmd_classify(entry_id):
    try:
        entry = catalog.get_entry(entry_id)
    except KeyError as exc:
        raise CliError(str(exc)) from exc
    res = entry.run()
    conflicts = check_diagram_consistency(res.properties)
    result = {"entry": entry.entry_id, "algebra": entry.algebra,
              "checks_ok": res.ok,
              "properties": [p.to_json() for p in res.properties],
              "diagram_conflicts": conflicts}
    return result, 0 if res.ok and not conflicts else 2


def _cmd_recheck(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise CliError("a report file must hold a JSON object")
    outcome = reports.recheck(report)
    result = {"checked_command": report.get("command"),
              **outcome.to_json()}
    return result, 0 if outcome.confirmed else 2


# --- output ---------------------------------------------------------


def _emit(command, scenario_doc, result, code, fmt):
    report = reports.make_report(command, scenario_doc, result, code)
    if fmt == "json":
        sys.stdout.write(reports.dumps(report))
    else:
        sys.stdout.write(reports.render_text(report))
    return code


def _emit_plain(command, result, code, fmt, text_lines):
    if fmt == "json":
        payload = {"command": command, "exit_code": code, "result": result}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")
    return code


# --- argument parsing -----------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlk",
        description="Exact workbench for generating functionals of cocycles "
                    "on finitely presented group and star algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("validate", "check the representation and cocycle relations"),
            ("solve", "decide whether a generating functional exists"),
            ("decompose", "attempt a Gaussian/remainder decomposition"),
            ("verify", "check the triple identities up to a word length"),
            ("oracle", "brute-force well-definedness cross-check"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("target",
                        help="scenario file or catalog entry id")
        sp.add_argument("--max-word-length", type=int, default=None,
                        help="override the scenario's word length bound")
        sp.add_argument("--format", choices=("json", "text"),
                        default="text")

    sp = sub.add_parser("classify",
                        help="property verdicts for a catalog entry")
    sp.add_argument("target", help="catalog entry id")
    sp.add_argument("--format", choices=("json", "text"), default="text")

    sp = sub.add_parser("recheck",
                        help="confirm the certificate in a report file")
    sp.add_argument("target", help="report JSON file")
    sp.add_argument("--format", choices=("json", "text"), default="text")

    cat = sub.add_parser("catalog", help="built-in example catalog")
    catsub = cat.add_subparsers(dest="catalog_command", required=True)
    catsub.add_parser("list")
    runp = catsub.add_parser("run")
    runp.add_argument("entry_id")
    runp.add_argument("--format", choices=("json", "text"), default="text")
    runall = catsub.add_parser("run-all")
    runall.add_argument("--format", choices=("json", "text"),
                        default="text")
    return parser


def _dispatch(args) -> int:
    if args.command in _SCENARIO_COMMANDS:
        scenario = _load_target(args.target)
        max_len = args.max_word_length
        if max_len is None:
            max_len = scenario.options.max_word_length
        if not 0 <= max_len <= MAX_WORD_LENGTH:
            raise CliError(f"--max-word-length must be in 0..{MAX_WORD_LENGTH}")
        result, code = _SCENARIO_COMMANDS[args.command](scenario, max_len)
        return _emit(args.command, scenario.raw, result, code, args.format)

    if args.command == "classify":
        result, code = _cmd_classify(args.target)
        lines = [f"entry: {result['entry']}",
                 f"algebra: {result['algebra']}",
                 f"checks ok: {result['checks_ok']}"]
        lines += [f"{p['property']}: {p['verdict']}"
                  for p in result["properties"]]
        lines += [f"conflict: {c}" for c in result["diagram_conflicts"]]
        lines.append(f"exit: {code}")
        return _emit_plain("classify", result, code, args.format, lines)

    if args.command == "recheck":
        result, code = _cmd_recheck(args.target)
        lines = [f"checked command: {result['checked_command']}",
                 f"confirmed: {result['confirmed']}"]
        lines += [f"- {d}" for d in result["details"]]
        lines.append(f"exit: {code}")
        return _emit_plain("recheck", result, code, args.format, lines)

    if args.command == "catalog":
        return _dispatch_catalog(args)

    raise CliError(f"unknown command {args.command!r}")


def _dispatch_catalog(args) -> int:
    if args.catalog_command == "list":
        for eid in catalog.entry_ids():
            entry = catalog.get_entry(eid)
            sys.stdout.write(f"{eid}: {entry.title}\n")
        return 0

    if args.catalog_command == "run":
        try:
            res = catalog.run_entry(args.entry_id)
        except KeyError as exc:
            raise CliError(str(exc)) from exc
        code = 0 if res.ok else 2
        lines = [f"{res.entry_id}: {'ok' if res.ok else 'MISMATCH'}"]
        for c in res.checks:
            mark = "ok" if c.ok else "MISMATCH"
            lines.append(f"  {c.name}: {mark}")
            if not c.ok:
                lines.append(f"    expected {c.expected!r}, "
                             f"got {c.actual!r}")
        for p in res.properties:
            lines.append(f"  {p.property}: {p.verdict}")
        lines.append(f"exit: {code}")
        return _emit_plain("catalog-run", res.to_json(), code, args.format,
                           lines)

    if args.catalog_command == "run-all":
        run = catalog.run_all()
        code = 0 if run.ok else 2
        lines = []
        for res in run.results:
            lines.append(f"{res.entry_id}: {'ok' if res.ok else 'MISMATCH'}")
        for m in run.mismatches:
            lines.append(f"mismatch: {m}")
        if run.conflicts:
            lines += [f"diagram conflict: {c}" for c in run.conflicts]
        else:
            lines.append("diagram consistency: ok")
        lines.append(f"exit: {code}")
        return _emit_plain("catalog-run-all", run.to_json(), code,
                           args.format, lines)

    raise CliError(f"unknown catalog command {args.catalog_command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ScenarioError, PresentationError, NoNormalForm,
            ReductionBudgetExceeded, LinalgError,
            DecompositionInconsistent) as exc:
        code = getattr(exc, "code", None)
        prefix = f"{code}: " if code else ""
        sys.stderr.write(f"error: {prefix}{exc}\n")
        return 1
    except RepresentationError as exc:
        sys.stderr.write(f"error: invalid representation: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
