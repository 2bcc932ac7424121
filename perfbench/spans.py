"""Per-layer spans recorded from outside the program.

Each traced function is replaced, in every smallgain module that holds a
reference to it (and on the class for methods), by a wrapper that records a
span: name, start, end, parent span, operation id, whether it returned,
and one size figure (points, cycles, states, anchors, witness found).
Spans stay in memory and are written out at the end.  ``uninstall``
restores the original objects, so untraced passes run the program as is.

A layer's self time is a span's duration minus the time its child spans
cover.  ``eval_operator`` and ``eval_operator_ext`` share one span name;
a call nested in another call of that name (``eval_operator`` delegates to
``eval_operator_ext``) adds self time but not a call.
"""

from __future__ import annotations

import csv
import importlib
import pkgutil
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "parser", "gains", "graph", "sgc", "paths", "compose", "simulate")

CONSTRUCTORS = ("path_max", "path_three_sum", "path_mixed", "path_bounded",
                "path_irreducible", "path_homogeneous", "path_reducible")


def _rows(args, kwargs, out):
    s = args[1] if len(args) > 1 else kwargs.get("s")
    shape = getattr(s, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _anchors(args, kwargs, out):
    sigma = args[1] if len(args) > 1 else kwargs["sigma"]
    return sigma.anchor_count


# (span name, defining module, attribute, class or None, size figure)
TARGETS = [
    ("cli.main", "cli", "main", None, None),
    ("cli.load_config", "cli", "load_config", None, None),
    ("parser.parse_gain", "parser", "parse_gain", None, None),
    ("gains.eval_operator", "gains", "eval_operator", None, _rows),
    ("gains.eval_operator", "gains", "eval_operator_ext", None, _rows),
    ("gains.inverse", "gains", "inverse", "GainExpr", None),
    ("graph.subordinated_cycles", "graph", "subordinated_cycles", None,
     lambda a, k, out: len(out)),
    ("graph.scc", "graph", "scc_decompose", None, None),
    ("graph.scc", "graph", "is_irreducible", None, None),
    ("sgc.falsify_sgc", "sgc", "falsify_sgc", None,
     lambda a, k, out: int(out.fails)),
    ("sgc.check_cycle_condition", "sgc", "check_cycle_condition", None, None),
    ("sgc.check_linear_spectral", "sgc", "check_linear_spectral", None, None),
    ("sgc.nonlinear_perron", "sgc", "nonlinear_perron", None, None),
    ("paths.construct_path", "paths", "construct_path", None, None),
    *[(f"paths.{name}", "paths", name, None, None) for name in CONSTRUCTORS],
    ("paths.validate_path", "paths", "validate_path", None, _anchors),
    ("paths.export_path_csv", "paths", "export_path_csv", None, None),
    ("compose.derive_phi", "compose", "derive_phi", None, None),
    ("compose.compose", "compose", "compose", None, None),
    ("compose.eval_V_batch", "compose", "eval_V_batch", "CompositeLyapunov",
     lambda a, k, out: len(out)),
    ("simulate.integrate", "simulate", "integrate", None, None),
    ("simulate.check_decrease", "simulate", "check_decrease", None, None),
    ("simulate.check_iss_bound", "simulate", "check_iss_bound", None, None),
    ("simulate.model_f", "simulate", "f", "LinearBlock", None),
    ("simulate.model_f", "simulate", "f", "CohenGrossberg", None),
    ("simulate.export_trajectory_csv", "simulate", "export_trajectory_csv",
     None, None),
]

# called 3x per RK4 step: counted, not spanned
COUNTED = [("simulate.input_signal", "simulate", "__call__", "InputSignal")]


def _package_modules(pkg):
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{pkg.__name__}.{info.name}"))
    return mods


class Tracer:
    def __init__(self, pkg):
        self.modules = _package_modules(pkg)
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.op = -1
        self._stack: list = []
        self._saved: list = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, size):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                rec[5] = True
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if size is not None:
                rec[6] = size(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, module, attr, cls, wrapped):
        mod = importlib.import_module(f"{self.modules[0].__name__}.{module}")
        if cls is not None:
            owner = getattr(mod, cls)
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped(owner.__dict__[attr]))
            return
        orig = getattr(mod, attr)
        new = wrapped(orig)
        # patch the name in every module that imported it, under any alias
        for m in self.modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._saved.append((m, key, orig))
                    setattr(m, key, new)

    def install(self):
        for name, module, attr, cls, size in TARGETS:
            self._replace(module, attr, cls,
                          lambda fn, name=name, size=size: self._span(name, fn, size))
        for name, module, attr, cls in COUNTED:
            self._replace(module, attr, cls,
                          lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- results --------------------------------------------------------

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "op", "ok", "size"])
            for k, rec in enumerate(self.spans):
                out.writerow([k, *rec])

    def summary(self) -> dict:
        """Per-name totals: calls, self_ms, ok calls, size sum."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        agg = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "ok": 0, "size": 0})
        for k, rec in enumerate(self.spans):
            name, parent = rec[0], rec[3]
            a = agg[name]
            a["self_ms"] += 1e3 * (rec[2] - rec[1] - child[k])
            if parent >= 0 and self.spans[parent][0] == name == "gains.eval_operator":
                continue
            a["calls"] += 1
            a["ok"] += rec[5]
            a["size"] += rec[6] or 0
        for name, count in self.counts.items():
            agg[name]["calls"] += count
        return dict(agg)


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics the benchmark reports, from one traced pass."""

    def get(name, key="calls"):
        return summary.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for name in ("cli.load_config", "cli.main", "parser.parse_gain"):
        put(f"{name}.self_ms", get(name, "self_ms"), "ms")
    put("parser.parse_gain.calls", get("parser.parse_gain"), "count")
    ev = "gains.eval_operator"
    put(f"{ev}.calls", get(ev), "count")
    put(f"{ev}.points", get(ev, "size"), "count")
    put(f"{ev}.points_per_call", ratio(get(ev, "size"), get(ev)), "count")
    put(f"{ev}.self_ms", get(ev, "self_ms"), "ms")
    put("gains.inverse.calls", get("gains.inverse"), "count")
    put("gains.inverse.self_ms", get("gains.inverse", "self_ms"), "ms")
    sc = "graph.subordinated_cycles"
    put(f"{sc}.calls", get(sc), "count")
    put(f"{sc}.cycles", get(sc, "size"), "count")
    put(f"{sc}.self_ms", get(sc, "self_ms"), "ms")
    put("graph.scc.self_ms", get("graph.scc", "self_ms"), "ms")
    fs = "sgc.falsify_sgc"
    put(f"{fs}.calls", get(fs), "count")
    put(f"{fs}.self_ms", get(fs, "self_ms"), "ms")
    put(f"{fs}.witness_ratio", ratio(get(fs, "size"), get(fs)), "ratio")
    for name in ("check_cycle_condition", "check_linear_spectral", "nonlinear_perron"):
        put(f"sgc.{name}.self_ms", get(f"sgc.{name}", "self_ms"), "ms")
    for name in ("construct_path",) + CONSTRUCTORS + ("validate_path",):
        put(f"paths.{name}.calls", get(f"paths.{name}"), "count")
        put(f"paths.{name}.self_ms", get(f"paths.{name}", "self_ms"), "ms")
    ctor_calls = sum(get(f"paths.{c}") for c in CONSTRUCTORS)
    ctor_ok = sum(get(f"paths.{c}", "ok") for c in CONSTRUCTORS)
    put("paths.constructor_success_ratio", ratio(ctor_ok, ctor_calls), "ratio")
    vp = "paths.validate_path"
    put("paths.anchors_mean", ratio(get(vp, "size"), get(vp)), "count")
    put("paths.export_path_csv.self_ms", get("paths.export_path_csv", "self_ms"), "ms")
    for name in ("derive_phi", "compose"):
        put(f"compose.{name}.self_ms", get(f"compose.{name}", "self_ms"), "ms")
    vb = "compose.eval_V_batch"
    put(f"{vb}.calls", get(vb), "count")
    put(f"{vb}.states", get(vb, "size"), "count")
    put(f"{vb}.self_ms", get(vb, "self_ms"), "ms")
    for name in ("integrate", "check_decrease", "check_iss_bound",
                 "export_trajectory_csv"):
        put(f"simulate.{name}.self_ms", get(f"simulate.{name}", "self_ms"), "ms")
    put("simulate.model_f.calls", get("simulate.model_f"), "count")
    put("simulate.model_f.self_ms", get("simulate.model_f", "self_ms"), "ms")
    put("simulate.input_signal.calls", get("simulate.input_signal"), "count")
    for layer in LAYERS:
        names = [n for n in summary if n.split(".")[0] == layer]
        put(f"{layer}.self_ms", sum(get(n, "self_ms") for n in names), "ms")
        put(f"{layer}.calls", sum(get(n) for n in names), "count")
    return out
