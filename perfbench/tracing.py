"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of ``nlk`` modules with wrappers
that record a span (name, start, end, parent) per call, plus a few counts
read from arguments and results.  Scalar operators are only counted: a clock
read per arithmetic operation would swamp the trace.  Spans stay in memory
until the pass ends; ``metrics`` derives calls and self time (span time minus
the time covered by child spans) per name, and ``write_spans`` saves them.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter

# (module, attribute path, metric name); every call becomes a span
SPANS = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve_linear", "linalg.solve_linear"),
    ("linalg", "inverse", "linalg.inverse"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "mmul", "linalg.mmul"),
    ("linalg", "mvmul", "linalg.mvmul"),
    ("linalg", "psd_check", "linalg.psd_check"),
    ("linalg", "HermitianForm.inner", "linalg.HermitianForm.inner"),
    ("presentations", "Presentation.words_up_to", "presentations.words_up_to"),
    ("presentations", "Presentation.free_reduce", "presentations.free_reduce"),
    ("presentations", "Presentation.reduce", "presentations.reduce"),
    ("presentations", "AlgebraElement.build", "presentations.AlgebraElement.build"),
    ("presentations", "kn_spanning_set", "presentations.kn_spanning_set"),
    ("cocycles", "Representation.__init__", "cocycles.Representation.init"),
    ("cocycles", "Representation.word_matrix", "cocycles.Representation.word_matrix"),
    ("cocycles", "Cocycle.__init__", "cocycles.Cocycle.init"),
    ("cocycles", "Cocycle.eval_word", "cocycles.Cocycle.eval_word"),
    ("functionals", "GroupFunctional.fold", "functionals.GroupFunctional.fold"),
    ("functionals", "verify_schurmann_triple", "functionals.verify_schurmann_triple"),
    ("functionals", "brute_force_welldefinedness_oracle",
     "functionals.brute_force_welldefinedness_oracle"),
    ("functionals", "solve_generating_functional",
     "functionals.solve_generating_functional"),
    ("functionals", "gns_truncated", "functionals.gns_truncated"),
    ("functionals", "is_gaussian_functional", "functionals.is_gaussian_functional"),
    ("decompose", "split", "decompose.split"),
    ("decompose", "invariant_closure", "decompose.invariant_closure"),
    ("decompose", "attempt_lk", "decompose.attempt_lk"),
    ("scenarios", "parse_scenario", "scenarios.parse_scenario"),
    ("reports", "recheck", "reports.recheck"),
    ("reports", "dumps", "reports.dumps"),
    ("cli", "main", "cli.main"),
    ("catalog", "run_entry", "catalog.run_entry"),
)

# per-layer metric name -> unit, in output order
PER_LAYER = {}


def _layer(name, unit):
    PER_LAYER[name] = unit


for _name in ("add", "mul", "div", "parse"):
    _layer(f"scalars.{_name}.calls", "count")
_layer("scalars.max_bits", "bits")
for _name in ("rref", "solve_linear", "inverse", "det", "mmul"):
    _layer(f"linalg.{_name}.calls", "count")
    _layer(f"linalg.{_name}.self_s", "s")
_layer("linalg.rref.max_cells", "count")
for _name in ("psd_check", "mvmul", "HermitianForm.inner"):
    _layer(f"linalg.{_name}.calls", "count")
    _layer(f"linalg.{_name}.self_s", "s")
_layer("linalg.psd_check.max_n", "count")
for _name, _extra in (("words_up_to", ("words",)), ("free_reduce", ()),
                      ("reduce", ("budget_errors",)),
                      ("AlgebraElement.build", ())):
    _layer(f"presentations.{_name}.calls", "count")
    _layer(f"presentations.{_name}.self_s", "s")
    for _e in _extra:
        _layer(f"presentations.{_name}.{_e}", "count")
_layer("presentations.kn_spanning_set.self_s", "s")
_layer("presentations.kn_spanning_set.elements", "count")
_layer("presentations.kn_spanning_set.useful_ratio", "ratio")
for _name in ("cocycles.Cocycle.eval_word", "cocycles.Representation.word_matrix",
              "functionals.GroupFunctional.fold", "scenarios.parse_scenario",
              "functionals.solve_generating_functional", "reports.recheck",
              "cli.main", "catalog.run_entry"):
    _layer(f"{_name}.calls", "count")
    _layer(f"{_name}.self_s", "s")
_layer("cocycles.Representation.init.self_s", "s")
_layer("cocycles.Cocycle.init.self_s", "s")
_layer("functionals.verify_schurmann_triple.self_s", "s")
_layer("functionals.verify_schurmann_triple.checks", "count")
_layer("functionals.brute_force_welldefinedness_oracle.self_s", "s")
_layer("functionals.brute_force_welldefinedness_oracle.words", "count")
_layer("functionals.brute_force_welldefinedness_oracle.pairs", "count")
_layer("functionals.gns_truncated.self_s", "s")
_layer("functionals.gns_truncated.gram_n", "count")
_layer("functionals.is_gaussian_functional.self_s", "s")
_layer("functionals.is_gaussian_functional.checked", "count")
for _name in ("split", "invariant_closure", "attempt_lk"):
    _layer(f"decompose.{_name}.self_s", "s")
_layer("reports.dumps.self_s", "s")
_layer("reports.dumps.bytes", "bytes")
_layer("trace.overhead_s", "s")


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self, nlk):
        self.nlk = nlk
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counts = Counter()
        self.maxima = Counter()
        self._undo = []

    # --- spans ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, after=None, on_error=None):
        """Wrap fn so every call records a span; `after` sees
        (args, kwargs, result) and `on_error` the exception."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def root(self, name, thunk):
        """Run thunk under a top-level span (the op or its preparation)."""
        return self.span(name, thunk)()

    # --- installing wrappers ----------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_function(self, module, attr, new):
        """Rebind a module function everywhere nlk imported it by name."""
        old = getattr(module, attr)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._replace(mod, key, new)

    def _modules(self):
        nlk = self.nlk
        return [nlk] + [getattr(nlk, m) for m in (
            "scalars", "linalg", "presentations", "cocycles", "functionals",
            "decompose", "scenarios", "reports", "cli", "catalog")]

    def install(self):
        nlk = self.nlk
        hooks = self._hooks()
        for module_name, path, name in SPANS:
            module = getattr(nlk, module_name)
            after, on_error = hooks.get(name, (None, None))
            if "." not in path:
                fn = getattr(module, path)
                self._replace_function(module, path,
                                       self.span(name, fn, after, on_error))
                continue
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(name, raw.__func__, after, on_error))
            else:
                wrapped = self.span(name, raw, after, on_error)
            self._replace(cls, attr, wrapped)
        self._install_scalar_counters()

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _install_scalar_counters(self):
        scalar = self.nlk.scalars.Scalar
        counts, maxima = self.counts, self.maxima

        def counted(key, fn, track_bits):
            def wrapper(a, b):
                counts[key] += 1
                result = fn(a, b)
                if track_bits:
                    bits = max(_bits(result.re), _bits(result.im))
                    if bits > maxima["scalars.max_bits"]:
                        maxima["scalars.max_bits"] = bits
                return result
            return wrapper

        # __radd__ and __rmul__ are separate class attributes; __rsub__ and
        # __rtruediv__ delegate to the counted forward operators
        for attr, key, bits in (("__add__", "add", False), ("__radd__", "add", False),
                                ("__sub__", "add", False), ("__mul__", "mul", True),
                                ("__rmul__", "mul", True), ("__truediv__", "div", True)):
            self._replace(scalar, attr,
                          counted(f"scalars.{key}.calls", scalar.__dict__[attr], bits))
        parse = scalar.__dict__["parse"].__func__

        def counted_parse(cls, text):
            counts["scalars.parse.calls"] += 1
            return parse(cls, text)

        self._replace(scalar, "parse", classmethod(counted_parse))

    def _hooks(self):
        """Counts taken from arguments and results at span boundaries."""
        counts, maxima = self.counts, self.maxima
        words_up_to = self.nlk.presentations.Presentation.words_up_to

        def maximum(key, value):
            if value > maxima[key]:
                maxima[key] = value

        def rref(args, kwargs, result):
            rows = args[0]
            maximum("linalg.rref.max_cells",
                    len(rows) * (len(rows[0]) if rows else 0))

        def psd(args, kwargs, result):
            maximum("linalg.psd_check.max_n", len(args[0]))

        def words(args, kwargs, result):
            counts["presentations.words_up_to.words"] += len(result)

        def budget(exc):
            if isinstance(exc, self.nlk.presentations.ReductionBudgetExceeded):
                counts["presentations.reduce.budget_errors"] += 1

        def spanning(args, kwargs, result):
            presentation, n, max_len = args
            base = len(words_up_to(presentation, max_len, include_empty=False))
            counts["presentations.kn_spanning_set.elements"] += len(result)
            counts["presentations.kn_spanning_set.products"] += base ** n

        def verify(args, kwargs, result):
            counts["functionals.verify_schurmann_triple.checks"] += sum(
                result.counts.values())

        def oracle(args, kwargs, result):
            counts["functionals.brute_force_welldefinedness_oracle.words"] += result.words
            counts["functionals.brute_force_welldefinedness_oracle.pairs"] += result.pairs

        def gns(args, kwargs, result):
            maximum("functionals.gns_truncated.gram_n", len(result.gram))

        def gaussian(args, kwargs, result):
            counts["functionals.is_gaussian_functional.checked"] += result.checked

        def dumps(args, kwargs, result):
            counts["reports.dumps.bytes"] += len(result)

        return {
            "linalg.rref": (rref, None),
            "linalg.psd_check": (psd, None),
            "presentations.words_up_to": (words, None),
            "presentations.reduce": (None, budget),
            "presentations.kn_spanning_set": (spanning, None),
            "functionals.verify_schurmann_triple": (verify, None),
            "functionals.brute_force_welldefinedness_oracle": (oracle, None),
            "functionals.gns_truncated": (gns, None),
            "functionals.is_gaussian_functional": (gaussian, None),
            "reports.dumps": (dumps, None),
        }

    # --- results ----------------------------------------------------------

    def self_times(self):
        """calls and self seconds per span name."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        return calls, self_s

    def metrics(self, overhead_s):
        calls, self_s = self.self_times()
        values = dict(self.counts)
        values.update(self.maxima)
        for name in calls:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        products = values.get("presentations.kn_spanning_set.products", 0)
        values["presentations.kn_spanning_set.useful_ratio"] = (
            values.get("presentations.kn_spanning_set.elements", 0) / products
            if products else 0.0)
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in PER_LAYER.items()}

    def write_spans(self, path):
        """One line per span: id, name, start, end, parent id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]!r}\t{self.span_end[i]!r}\t"
                         f"{self.span_parent[i]}\n")
