"""Command-line interface.

Scenario commands (validate, solve, decompose, verify, oracle) accept
either a path to a scenario JSON file or the id of a built-in catalog entry
(which resolves to that entry's main scenario), and run through
`reports.run_command`, the runner `recheck` runs again.  Every command with
a `--format` option wraps its result in one report envelope
(`reports.make_report`) and writes it once, as JSON (`reports.dumps`) or as
text (`reports.render_text`); `catalog list` prints one line per entry.
Exit codes: 0 when the run passes or is feasible, 2 when it produces a
certified negative (infeasible, counterexample, mismatch, refuted recheck),
1 for input, usage or internal errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import reports
from .cocycles import RepresentationError
from .decompose import check_diagram_consistency
from .scenarios import MAX_WORD_LENGTH, load_scenario, parse_scenario


class CliError(ValueError):
    """Input or usage problem; maps to exit code 1."""


def _load_target(target):
    if os.path.exists(target):
        return load_scenario(target)
    from . import catalog
    if target in catalog.ENTRIES:
        try:
            return parse_scenario(catalog.scenario_doc(target))
        except KeyError as exc:
            raise CliError(str(exc)) from exc
    raise CliError(f"{target!r} is neither a readable file nor a catalog "
                   f"entry id")


def _scenario_report(args) -> dict:
    scenario = _load_target(args.target)
    max_len = args.max_word_length
    if max_len is None:
        max_len = scenario.options.max_word_length
    if not 0 <= max_len <= MAX_WORD_LENGTH:
        raise CliError(f"--max-word-length must be in 0..{MAX_WORD_LENGTH}")
    result, code = reports.run_command(args.command, scenario, max_len)
    return reports.make_report(args.command, result, code, scenario.raw)


# --- catalog-backed and report commands -----------------------------


def _cmd_classify(args):
    from . import catalog
    try:
        entry = catalog.get_entry(args.target)
    except KeyError as exc:
        raise CliError(str(exc)) from exc
    res = entry.run()
    conflicts = check_diagram_consistency(res.properties)
    result = {"entry": entry.entry_id, "algebra": entry.algebra,
              "checks_ok": res.ok,
              "properties": [p.to_json() for p in res.properties],
              "diagram_conflicts": conflicts}
    return result, 0 if res.ok and not conflicts else 2


def _cmd_recheck(args):
    path = args.target
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise CliError(f"{path} nests too deeply to parse as JSON") from None
    if not isinstance(report, dict):
        raise CliError("a report file must hold a JSON object")
    outcome = reports.recheck(report)
    result = {"checked_command": report.get("command"),
              **outcome.to_json()}
    return result, 0 if outcome.confirmed else 2


def _cmd_catalog_run(args):
    from . import catalog
    try:
        res = catalog.run_entry(args.entry_id)
    except KeyError as exc:
        raise CliError(str(exc)) from exc
    return res.to_json(), 0 if res.ok else 2


def _cmd_catalog_run_all(args):
    from . import catalog
    run = catalog.run_all()
    return run.to_json(), 0 if run.ok else 2


# the commands that need no scenario, by the command their report names
_OTHER_COMMANDS = {
    "classify": _cmd_classify,
    "recheck": _cmd_recheck,
    "catalog-run": _cmd_catalog_run,
    "catalog-run-all": _cmd_catalog_run_all,
}


# --- argument parsing -----------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error exiting 1, as any input error does, for
    2 is a certified negative; subparsers are made of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing does not mutate it."""
    parser = _Parser(
        prog="nlk",
        description="Exact workbench for generating functionals of cocycles "
                    "on finitely presented group and star algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = {"choices": ("json", "text"), "default": "text"}

    for name, help_text in (
            ("validate", "check the representation and cocycle relations"),
            ("solve", "decide whether a generating functional exists"),
            ("decompose", "attempt a Gaussian/remainder decomposition"),
            ("verify", "check the triple identities up to a word length"),
            ("oracle", "check psi on the group's defining words"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("target",
                        help="scenario file or catalog entry id")
        sp.add_argument("--max-word-length", type=int, default=None,
                        help="override the scenario's word length bound")
        sp.add_argument("--format", **fmt)

    sp = sub.add_parser("classify",
                        help="property verdicts for a catalog entry")
    sp.add_argument("target", help="catalog entry id")
    sp.add_argument("--format", **fmt)

    sp = sub.add_parser("recheck",
                        help="confirm the certificate in a report file")
    sp.add_argument("target", help="report JSON file")
    sp.add_argument("--format", **fmt)

    cat = sub.add_parser("catalog", help="built-in example catalog")
    catsub = cat.add_subparsers(dest="catalog_command", required=True)
    catsub.add_parser("list")
    runp = catsub.add_parser("run")
    runp.add_argument("entry_id")
    runp.add_argument("--format", **fmt)
    catsub.add_parser("run-all").add_argument("--format", **fmt)
    return parser


def _dispatch(args) -> int:
    if args.command in reports.SUCCESS:  # a scenario command
        report = _scenario_report(args)
    elif args.command == "catalog" and args.catalog_command == "list":
        from . import catalog
        for eid in catalog.entry_ids():
            sys.stdout.write(f"{eid}: {catalog.get_entry(eid).title}\n")
        return 0
    else:
        name = args.command
        if name == "catalog":
            name = f"catalog-{args.catalog_command}"
        result, code = _OTHER_COMMANDS[name](args)
        report = reports.make_report(name, result, code)
    emit = reports.dumps if args.format == "json" else reports.render_text
    sys.stdout.write(emit(report))
    return report["exit_code"]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except RepresentationError as exc:
        sys.stderr.write(f"error: invalid representation: {exc}\n")
        return 1
    except ValueError as exc:
        # every error of the package and of the CLI is a ValueError; most
        # carry a code
        code = getattr(exc, "code", None)
        prefix = f"{code}: " if code else ""
        sys.stderr.write(f"error: {prefix}{exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
