"""The four workloads: which operations each one times, how each operation
is prepared, and how its outcome is judged against the known answer.

An operation ("op") is one call into the program's public API.  ``prepare``
parses and builds the objects an op needs (fresh for every op, so no op sees
another op's caches) and returns the timed call; ``judge`` compares the
outcome with the answer known by construction and returns the list of
problems plus a canonical text of the report, which feeds the run digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field

import inputs

# A workload's schedule fixes the structure of every input; the seed only
# draws the values, so every seed costs about the same.  Ops stay short (at
# most about 0.8 s here) so that a run repeats each one many times and a
# call's median over the run is a steady measure.

# (input, dim, positive, verify length, oracle length); a negative group input
# is the forced-real-part candidate of an infeasible cocycle, a negative star
# input is a sign-flipped table
WORDS = (
    ("z2", 1, True, 4, 5),
    ("z2", 2, False, 3, 4),
    ("z2", 1, False, None, 6),
    ("p2", 1, True, 3, 4),
    ("gamma2", 1, True, 3, None),
    ("freeproduct", 1, False, 2, None),
    ("star", 1, True, 5, None),
    ("star", 2, True, 4, None),
    ("star", 1, False, 5, None),
)

# (input, dim, positive, op, length)
ELEMENTS = (
    ("z2", 1, True, "gns", 2),
    ("z2", 2, True, "gns", 2),
    ("gamma2", 1, True, "gns", 1),
    ("z2", 1, True, "gaussian", 1),
    ("z2", 2, True, "gaussian", 1),
    ("gamma2", 1, True, "gaussian", 1),
    ("star", 1, True, "gns", 3),
    ("star", 2, True, "gns", 3),
    ("star", 2, False, "gns", 3),
    ("star", 1, True, "gns", 4),
    ("star", 1, True, "gaussian", 2),
    ("star", 2, True, "gaussian", 2),
)

# (group, dim, feasible)
CERTIFY = (
    ("z2", 3, True),
    ("z2", 4, False),
    ("z2", 5, False),
    ("z2", 9, False),
    ("z2", 6, True),
    ("gamma2", 3, False),
    ("gamma2", 4, True),
    ("p2", 3, True),
    ("p2", 4, True),
    ("freeproduct", 3, False),
    ("freeproduct", 3, True),
)

DECIDE_COMMANDS = ("validate", "solve", "decompose")

# catalog entries that certify runs through `nlk catalog run`, so that the
# catalog layer is measured; the slow entries are left to the catalog workload
CATALOG_RUNS = ("zk.z2.gaussian", "p2.derivations", "ac_not_h2z.star_algebra")

WORKLOADS = ("words", "certify", "elements", "catalog")


@dataclass
class Op:
    label: str
    kind: str          # verify, oracle, gns, gaussian, cli, catalog
    doc: dict | None = None
    max_len: int = 0
    expect: dict = field(default_factory=dict)
    argv: tuple = ()   # cli ops: the command line, {dir} standing for the work dir
    report: str = ""   # decide ops: where the report goes for its recheck
    cls: str = "decide"  # latency class: decide, recheck or catalog


def build_ops(workload: str, seed: int) -> list:
    """The ops of one pass, in order, with their known answers."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "words":
        return _words_ops(rng)
    if workload == "elements":
        return _elements_ops(rng)
    if workload == "certify":
        return _certify_ops(rng)
    if workload == "catalog":
        return [Op(label="catalog/run_all", kind="catalog")]
    raise ValueError(f"unknown workload {workload!r}")


def _input_doc(rng, name, dim, positive, max_len):
    if name == "star":
        return inputs.star_input(rng, dim, max_len, 1 if positive else -1)
    return inputs.group_input(rng, name, dim, positive, max_len)


def _words_ops(rng):
    ops = []
    for i, (name, dim, positive, verify_len, oracle_len) in enumerate(WORDS):
        doc = _input_doc(rng, name, dim, positive, max(verify_len or 0, oracle_len or 0))
        tag = f"{i}/{name}/d{dim}/{'pos' if positive else 'neg'}"
        if verify_len is not None:
            # free words cannot see relators, so every group input passes;
            # a flipped star table fails first at the coboundary identity
            expect = ({"passed": True} if positive or name != "star"
                      else {"passed": False, "identity": "coboundary"})
            ops.append(Op(f"verify/{tag}/L{verify_len}", "verify", doc,
                          verify_len, expect))
        if oracle_len is not None:
            expect = ({"passed": True} if positive
                      else {"passed": False, "evaluator": "psi"})
            ops.append(Op(f"oracle/{tag}/L{oracle_len}", "oracle", doc,
                          oracle_len, expect))
    return ops


def _elements_ops(rng):
    ops = []
    for i, (name, dim, positive, kind, length) in enumerate(ELEMENTS):
        star = name == "star"
        # gns needs psi up to twice the length, Gaussianity three times
        table_len = length * (2 if kind == "gns" else 3)
        doc = _input_doc(rng, name, dim, positive, table_len)
        if kind == "gns":
            expect = ({"psd": True, "rank": dim} if positive
                      else {"psd": False})
        else:
            expect = ({"gaussian": False, "checked": 1} if star
                      else {"gaussian": True})
        tag = f"{i}/{name}/d{dim}/{'pos' if positive else 'neg'}"
        ops.append(Op(f"{kind}/{tag}/L{length}", kind, doc, length, expect))
    return ops


def _certify_ops(rng):
    ops = []
    for i, (group, dim, feasible) in enumerate(CERTIFY):
        doc = inputs.certify_input(rng, group, dim, feasible)
        name = f"s{i:02d}-{group}-d{dim}"
        scenario = f"{{dir}}/{name}.json"
        verdicts = {
            "validate": (0, {"status": "ok"}),
            "solve": ((0, {"verdict": "feasible"}) if feasible
                      else (2, {"verdict": "infeasible"})),
            "decompose": ((0, {"verdict": "decomposed"}) if feasible
                          else (2, {"verdict": "no_lk",
                                    "reason": "no_generating_functional"})),
        }
        for command in DECIDE_COMMANDS:
            code, fields = verdicts[command]
            label = f"{name}/{command}"
            report = f"{{dir}}/{name}.{command}.json"
            ops.append(Op(label, "cli", doc, expect={"exit": code, **fields},
                          argv=(command, scenario, "--format", "json"),
                          report=report))
            ops.append(Op(f"{label}/recheck", "cli",
                          expect={"exit": 0, "confirmed": True},
                          argv=("recheck", report, "--format", "json"),
                          cls="recheck"))
    for entry_id in CATALOG_RUNS:
        ops.append(Op(f"catalog/{entry_id}", "cli",
                      expect={"exit": 0, "ok": True},
                      argv=("catalog", "run", entry_id, "--format", "json"),
                      cls="catalog"))
    return ops


def write_scenarios(ops, workdir):
    """Certify ops read their scenario from a file, as a CLI user would."""
    for op in ops:
        if op.report:
            with open(op.argv[1].format(dir=workdir), "w", encoding="utf-8") as fh:
                json.dump(op.doc, fh, indent=2, sort_keys=True)


# --- preparing and running one op -----------------------------------------


def prepare(op, nlk, workdir):
    """Build the op's objects and return the call to time."""
    if op.kind == "catalog":
        return lambda: _run_catalog(nlk)
    if op.kind == "cli":
        argv = [a.format(dir=workdir) for a in op.argv]
        return lambda: _run_cli(nlk, argv)
    scenario = nlk.scenarios.parse_scenario(op.doc)
    rep = scenario.build_representation()
    cocycle = scenario.build_cocycle(rep)
    functional = scenario.build_functional(cocycle)
    fn = nlk.functionals
    if op.kind == "verify":
        return lambda: fn.verify_schurmann_triple(cocycle, functional, op.max_len)
    if op.kind == "oracle":
        nf = scenario.build_normal_form()
        return lambda: fn.brute_force_welldefinedness_oracle(
            cocycle, functional, scenario.presentation, nf, op.max_len)
    if op.kind == "gns":
        return lambda: fn.gns_truncated(functional, op.max_len)
    if op.kind == "gaussian":
        return lambda: fn.is_gaussian_functional(functional, op.max_len)
    raise ValueError(f"unknown op kind {op.kind!r}")


def _run_catalog(nlk):
    """catalog.run_all(), with each entry's wall time recorded on the side."""
    catalog = nlk.catalog
    run_entry = catalog.run_entry
    entry_seconds = []

    def timed(entry_id):
        start = time.perf_counter()
        try:
            return run_entry(entry_id)
        finally:
            entry_seconds.append((entry_id, time.perf_counter() - start))

    catalog.run_entry = timed
    try:
        return catalog.run_all(), entry_seconds
    finally:
        catalog.run_entry = run_entry


def samples(op, outcome, seconds, scale):
    """Latency samples of an op as (key, class, seconds), `seconds` being the
    op's normalised time; a catalog run gives one decide sample per entry,
    its wall time normalised by the op's `scale`."""
    if op.kind == "catalog":
        entries = outcome[1] if outcome is not None else []
        return [(f"catalog/{entry_id}", "decide", t * scale)
                for entry_id, t in entries]
    return [(op.label, op.cls, seconds)]


def _run_cli(nlk, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = nlk.cli.main(argv)
    return code, out.getvalue()


def judge(op, outcome, workdir):
    """Problems with an op's outcome, and the canonical report text."""
    if op.kind == "cli":
        code, text = outcome
        problems = [] if code == op.expect["exit"] else [
            f"exit {code}, expected {op.expect['exit']}"]
        try:
            report = json.loads(text)
        except ValueError:
            return problems + [f"output is not JSON: {text[:200]!r}"], text
        result = report.get("result") or {}
        problems += [f"{key} is {result.get(key)!r}, expected {want!r}"
                     for key, want in op.expect.items()
                     if key != "exit" and result.get(key) != want]
        if op.report:
            with open(op.report.format(dir=workdir), "w", encoding="utf-8") as fh:
                fh.write(text)
        return problems, text
    if op.kind == "catalog":
        run = outcome[0]
        report = run.to_json()
        problems = [] if run.ok else [
            f"catalog mismatches {report['mismatches']} conflicts "
            f"{report['diagram_conflicts']}"]
        return problems, _canonical(report)
    report = outcome.to_json()
    if op.kind == "gns":
        seen = {"psd": report["psd"], "rank": report["rank"]}
    elif op.kind == "gaussian":
        seen = {"gaussian": report["gaussian"], "checked": report["checked"]}
    else:
        witness = report.get("witness") or report.get("counterexample") or {}
        seen = {"passed": report["passed"],
                "identity": witness.get("identity"),
                "evaluator": witness.get("evaluator")}
    problems = [f"{key} is {seen[key]!r}, expected {want!r}"
                for key, want in op.expect.items() if seen[key] != want]
    return problems, _canonical(report)


def _canonical(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
