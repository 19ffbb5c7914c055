"""Benchmark for nlk: seeded workloads whose answers are known by construction.

Run from the repository root:

    python3 perfbench/run.py --workload words --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, as a table
    python3 perfbench/selftest.py                # the benchmark's own checks

Workloads (workloads.py holds the op schedules, inputs.py the inputs and why
their answers are known):

    words     verify_schurmann_triple and the normal-form oracle on long words
    certify   cli validate/solve/decompose on block-unitary scenarios, cli
              recheck on every report, and three `cli catalog run` entries
    elements  gns_truncated and is_gaussian_functional on group and star
              functionals
    catalog   catalog.run_all() on the nine built-in entries (seed unused);
              not in BENCHMARK.json, see CHANGES.md

Load shape: one process, one caller, closed loop; every op runs on objects
built for it alone.  A pass runs every op of the workload once; passes repeat
(at least MIN_PASSES times) until the next one would end after --seconds.

Times are normalised to the host's current speed.  The host is a share of a
busy machine whose speed drifts by up to 2x over seconds to minutes, for the
reference loop below as much as for the program, so every timed call is
bracketed by a fixed pure-Python reference loop (stdlib Fraction arithmetic,
no nlk code) and its wall time is scaled by REFERENCE_S over the loop's time
around it.  REFERENCE_S is the loop's time on an idle core of the machine the
benchmark was tuned on (2 vCPU, Python 3.11), so a normalised time reads as
seconds on that machine at rest.  The raw wall times go to .perfbench-out/.

End-to-end metrics (--trace 0), times normalised:
    setup_s        median over SETUP_RUNS fresh interpreters of importing nlk
                   and parsing and building one pass's objects
    run_s          sum over the calls of a pass of each call's median time
                   over the run's passes
    decide_p50_ms  median and 90th percentile (nearest rank) over the
    decide_p90_ms  verdict-producing calls of each call's median time:
                   on certify the validate/solve/decompose commands, on
                   catalog one call per entry
    peak_rss_mb    maximum resident set size of the workload process
Certify also prints recheck_p50_ms and recheck_p90_ms, and every run prints
failed_ratio and the sha256 digest of its reports and verdicts.

Per-layer metrics (--trace 1): the untraced passes run as above, then one
more pass runs with the public functions of every nlk module wrapped in spans
(tracing.py).  Counts come from that single pass, so they repeat exactly;
trace.overhead_s is that pass's op time minus the untraced run_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details, and the spans of traced runs, go to
.perfbench-out/ at the root of the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_RUNS = 15
REFERENCE_STEPS = 400
REFERENCE_S = 1.5e-3
REFERENCE_TRIES = 3
MIN_PASSES = 2
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("decide_p50_ms", "ms"),
              ("decide_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    return args


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def import_nlk():
    os.environ.pop("NLK_STEP_BUDGET", None)
    sys.path.insert(0, SRC)
    import nlk
    import nlk.cli
    import nlk.reports
    if not os.path.abspath(nlk.__file__).startswith(SRC + os.sep):
        fail(f"imported nlk from {nlk.__file__}, not from {SRC}")
    return nlk


def reference_loop():
    """Fixed work like the program's (small-rational arithmetic and tuple-keyed
    dict traffic) that calls no nlk code, so its time is the host's speed."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, REFERENCE_STEPS):
        if i % 8 == 0:
            acc = Fraction(0)
        acc = acc * Fraction(3, 5) + Fraction(i % 17 + 1, i % 13 + 2)
        seen[(i % 64, i % 7)] = acc
    return acc


def host_seconds():
    """The reference loop's median time over REFERENCE_TRIES tries, now: the
    host's average speed over a call, not its fastest moment, is what the
    call sees."""
    times = []
    for _ in range(REFERENCE_TRIES):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup(workload, seed, workdir):
    """Import nlk, make the inputs and build one pass's objects.  Returns the
    program's share of the wall time (input generation is not counted)."""
    import_start = time.perf_counter()
    nlk = import_nlk()
    imported = time.perf_counter()
    ops = workloads.build_ops(workload, seed)
    workloads.write_scenarios(ops, workdir)
    build_start = time.perf_counter()
    thunks = [workloads.prepare(op, nlk, workdir) for op in ops]
    done = time.perf_counter()
    return nlk, ops, thunks, (imported - import_start) + (done - build_start)


def normalised_setup(workload, seed, workdir):
    """setup(), its time normalised by the reference loop around it."""
    host_seconds()  # warm-up: the first loop of an interpreter runs cold
    before = host_seconds()
    nlk, ops, thunks, raw = setup(workload, seed, workdir)
    scale = REFERENCE_S / ((before + host_seconds()) / 2)
    return nlk, ops, thunks, raw * scale


def fresh_setups(args, count):
    """Normalised setup times of `count` fresh interpreters, run one after
    another; the reference loop runs here, in a warm interpreter, around
    each."""
    out = []
    for _ in range(count):
        before = host_seconds()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"setup run failed:\n{proc.stderr}")
        scale = REFERENCE_S / ((before + host_seconds()) / 2)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        out.append(raw * scale)
    return out


def run_pass(nlk, ops, thunks, workdir, tracer=None):
    """Run every op once.  Returns (normalised op seconds, raw op seconds,
    samples, problems, texts)."""
    op_seconds, raw_seconds, sample_list, problems, texts = [], [], [], [], []
    for i, op in enumerate(ops):
        if thunks is not None:
            thunk = thunks[i]
        elif tracer is not None:
            thunk = tracer.root("bench.prepare",
                                lambda: workloads.prepare(op, nlk, workdir))
        else:
            thunk = workloads.prepare(op, nlk, workdir)
        before = host_seconds()
        start = time.perf_counter()
        try:
            outcome = thunk() if tracer is None else tracer.root("bench.op", thunk)
            error = None
        except Exception:  # the op's failure is counted, the run goes on
            outcome, error = None, traceback.format_exc()
        raw = time.perf_counter() - start
        scale = REFERENCE_S / ((before + host_seconds()) / 2)
        seconds = raw * scale
        op_seconds.append(seconds)
        raw_seconds.append(raw)
        if error is None:
            found, text = workloads.judge(op, outcome, workdir)
        else:
            found, text = [f"raised:\n{error}"], ""
        problems.append(found)
        texts.append(text)
        sample_list.extend(workloads.samples(op, outcome, seconds, scale))
    return op_seconds, raw_seconds, sample_list, problems, texts


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def source_info():
    """Which code was measured: the commit when the checkout is a git work
    tree, and a digest of src/nlk either way."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "nlk")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {"commit": commit, "src_sha256": h.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def run_workload(args):
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        measure(args, workdir)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)


def measure(args, workdir):
    begin = time.perf_counter()
    if args.setup_only:
        raw = setup(args.workload, args.seed, workdir)[3]
        print(json.dumps({"setup_s": raw}))
        return
    nlk, ops, thunks, own_setup = normalised_setup(
        args.workload, args.seed, workdir)
    run = Run(ops)
    setup_samples = [own_setup]
    op_series = {op.label: [] for op in ops}
    raw_series = {op.label: [] for op in ops}
    sample_series = {}  # sample key -> (class, seconds per pass)
    timed_begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        op_seconds, raw_seconds, samples, problems, texts = run_pass(
            nlk, ops, thunks, workdir)
        thunks = None  # later passes build their objects just before each op
        run.tally(problems, texts, "report differs from the first pass")
        for op, seconds, raw in zip(ops, op_seconds, raw_seconds):
            op_series[op.label].append(seconds)
            raw_series[op.label].append(raw)
        for key, cls, seconds in samples:
            sample_series.setdefault(key, (cls, []))[1].append(seconds)
        # fresh-interpreter setups go between passes, so that they sample
        # the same stretch of machine time as the passes do
        if len(setup_samples) < SETUP_RUNS:
            setup_samples.extend(fresh_setups(args, 1))
        now = time.perf_counter()
        passes = len(op_series[ops[0].label])
        if (passes >= MIN_PASSES
                and now - timed_begin + (now - pass_start) > args.seconds):
            break
    setup_samples.extend(fresh_setups(args, SETUP_RUNS - len(setup_samples)))

    # Normalised times scatter both ways around a call's cost, so each call
    # counts with its median over the passes; run_s is one pass of those.
    typical = {key: (cls, statistics.median(v))
               for key, (cls, v) in sample_series.items()}
    latency = {cls: sorted(t for c, t in typical.values() if c == cls)
               for cls in ("decide", "recheck")}
    if not latency["decide"]:
        fail("the workload made no decide samples")
    result = {
        "setup_s": statistics.median(setup_samples),
        "run_s": sum(t for _, t in typical.values()),
        "decide_p50_ms": percentile(latency["decide"], 50) * 1e3,
        "decide_p90_ms": percentile(latency["decide"], 90) * 1e3,
    }
    extra = {"passes": passes, "setup_samples": setup_samples,
             "pass_seconds": [sum(v[i] for v in op_series.values())
                              for i in range(passes)],
             "raw_pass_seconds": [sum(v[i] for v in raw_series.values())
                                  for i in range(passes)],
             "op_median_s": {k: statistics.median(v)
                             for k, v in op_series.items()}}
    for cls, values in latency.items():
        if values:
            extra[f"{cls}_p50_ms"] = percentile(values, 50) * 1e3
            extra[f"{cls}_p90_ms"] = percentile(values, 90) * 1e3
            extra[f"{cls}_calls"] = len(values)

    layer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(nlk)
        tracer.install()
        try:
            op_seconds, _, _, problems, texts = run_pass(
                nlk, ops, None, workdir, tracer)
        finally:
            tracer.uninstall()
        run.tally(problems, texts, "traced report differs from the untraced one")
        extra["traced_run_s"] = sum(op_seconds)
        layer = tracer.metrics(extra["traced_run_s"] - result["run_s"])
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write_spans(spans)
        extra["spans"] = os.path.relpath(spans, ROOT)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024

    end_to_end = {name: {"value": result[name], "unit": unit}
                  for name, unit in END_TO_END}
    extra.update(failed_ratio=run.failed / run.attempted,
                 report_sha256=run.digest(), wall_s=time.perf_counter() - begin)
    info = dict(source_info(), workload=args.workload, seed=args.seed,
                seed_used=args.workload != "catalog", passes=passes,
                ops_per_pass=len(ops), setup_runs=SETUP_RUNS,
                seconds=args.seconds, trace=args.trace)
    with open(os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w", encoding="utf-8") as fh:
        json.dump({"info": info, "end_to_end": end_to_end, "extra": extra,
                   "per_layer": layer, "problems": run.problems}, fh, indent=2)

    name = args.workload
    for key in ("commit", "src_sha256", "python", "nproc", "workload", "seed",
                "seed_used", "passes", "ops_per_pass", "setup_runs"):
        print(f"# {key}: {info[key]}")
    for metric, entry in end_to_end.items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    for cls in ("decide", "recheck"):
        if f"{cls}_calls" in extra:
            if cls == "recheck":
                for q in ("p50", "p90"):
                    print(f"{name} recheck_{q}_ms = {extra[f'recheck_{q}_ms']:.6g} ms")
            print(f"{name} {cls} latency over {extra[f'{cls}_calls']} calls x "
                  f"{passes} passes")
    print(f"{name} failed_ratio = {extra['failed_ratio']:.6g} ratio "
          f"({run.failed} of {run.attempted} ops)")
    print(f"{name} report_sha256 = {extra['report_sha256']}")
    for metric, entry in (layer or {}).items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    for item in run.problems:
        sys.stderr.write(f"FAILED {item['op']}: {'; '.join(item['problems'])}\n")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": layer if layer is not None else end_to_end}))


class Run:
    """Attempted and failed ops of a run, and the reports of its first pass."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_texts = None

    def tally(self, problems, texts, differs):
        if self.first_texts is None:
            self.first_texts = texts
        for op, found, text, first in zip(self.ops, problems, texts,
                                          self.first_texts):
            self.attempted += 1
            if text != first:
                found = found + [differs]
            if found:
                self.failed += 1
                self.problems.append({"op": op.label, "problems": found})

    def digest(self):
        h = hashlib.sha256()
        for op, text in zip(self.ops, self.first_texts):
            h.update(op.label.encode() + b"\0" + text.encode() + b"\0")
        return h.hexdigest()


def run_all(args):
    """Every workload in its own interpreter, one after another, as a table."""
    rows = []
    ok = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {workload} exited with {proc.returncode}")
        final = json.loads(lines[-1])
        ok = ok and final["correct"]
        rows.extend(line for line in lines[:-1] if not line.startswith("#"))
        rows.append(f"{workload} correct = {final['correct']} "
                    f"({final['failed']} failed of {final['attempted']})")
    print("\n".join(rows))
    sys.exit(0 if ok else 1)


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "nlk", "__init__.py")):
        fail(f"no nlk sources under {SRC}; run from a checkout of the repository")
    os.makedirs(OUT, exist_ok=True)
    if args.all:
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
