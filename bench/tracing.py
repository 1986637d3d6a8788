"""Per-layer tracing of qshallow calls, done from outside the package.

A layer is one module of ``qshallow``. :func:`instrument` wraps selected
public functions and methods of each module for the duration of a ``with``
block, and puts the originals back when the block ends, so nothing under
``src/`` changes. Every binding of a wrapped function is replaced, not only
the one in its own module: ``adversary.py`` calls ``sim.run`` through its own
``run`` name, and that call must be seen too.

Two kinds of wrapper exist:

- *span* wrappers record ``(name, start, end, parent)`` for each call;
- *aggregated* wrappers, for functions called hundreds of thousands of times
  (``apply_gate``, ``basis_map``, the ``PartialState`` helpers), only add the
  call's count and duration to a total, and charge that duration to the
  enclosing span so that its self time excludes it.

Self time is a span's duration minus the time of its child spans and of the
aggregated calls made directly under it. Counts (widths, |K|, recruits, ...)
are computed from the wrapped calls' arguments and results, after the span's
end time is taken.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from qshallow import adversary, circuits, reference, sim, verify

# ``qshallow.lightcone`` is re-exported as a function, so fetch the module.
lightcone = importlib.import_module("qshallow.lightcone")

LAYERS = ("circuits", "reference", "sim", "lightcone", "adversary", "verify")

# The per-layer metrics, in the order BENCHMARK.json lists them: name -> unit.
# Every "_s" metric is self time in seconds per op; every count is per op.
PER_LAYER_UNITS = {
    "circuits.parse_circuit_s": "s/op",
    "circuits.circuit_sha256_s": "s/op",
    "circuits.rewrite_toffoli_to_z_s": "s/op",
    "circuits.doc_bytes": "B/op",
    "circuits.self_s": "s/op",
    "reference.basis_map_calls": "count/op",
    "reference.basis_map_s": "s/op",
    "reference.self_s": "s/op",
    "sim.run_s": "s/op",
    "sim.run_calls": "count/op",
    "sim.apply_gate_s": "s/op",
    "sim.apply_gate_calls": "count/op",
    "sim.other_s": "s/op",
    "sim.width_mean": "wires",
    "sim.width_max": "wires",
    "sim.amp_updates": "count/op",
    "sim.bytes_computed": "B/op",
    "sim.cone_frac": "ratio",
    "sim.self_s": "s/op",
    "lightcone.lightcone_s": "s/op",
    "lightcone.lightcone_counterexample_s": "s/op",
    "lightcone.cone_mean": "wires",
    "lightcone.cone_max": "wires",
    "lightcone.self_s": "s/op",
    "adversary.kill_base_s": "s/op",
    "adversary.kill_step_s": "s/op",
    "adversary.kill_steps": "count/op",
    "adversary.verify_kill_s": "s/op",
    "adversary.parity_certificate_s": "s/op",
    "adversary.recheck_certificate_s": "s/op",
    "adversary.certificate_json_s": "s/op",
    "adversary.robust_check_s": "s/op",
    "adversary.committed_mean": "wires",
    "adversary.committed_max": "wires",
    "adversary.cap_ratio_max": "ratio",
    "adversary.recruits": "count/op",
    "adversary.kills.base-zero": "count/op",
    "adversary.kills.fresh-zero": "count/op",
    "adversary.kills.recruited": "count/op",
    "adversary.invariant_breaches": "count/op",
    "adversary.self_s": "s/op",
    "verify.verify_clean_s": "s/op",
    "verify.sensitivity_scan_s": "s/op",
    "verify.basis_inputs": "count/op",
    "verify.self_s": "s/op",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

AMP_BYTES = 16  # one complex128 amplitude


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    agg_child: float = 0.0  # time of aggregated calls made directly under it


def self_times(spans: list[Span]) -> dict[str, tuple[float, float]]:
    """Per span name: (total self time, total inclusive time).

    Inclusive time counts only the outermost call of a name, so a function
    that calls itself is not counted twice.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for i, s in enumerate(spans):
        duration = s.end - s.start
        out[s.name][0] += duration - child[i] - s.agg_child
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            out[s.name][1] += duration
    return {name: (v[0], v[1]) for name, v in out.items()}


@dataclass
class Tracer:
    """Spans of the current op, and totals folded in from finished ops."""

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    in_aggregate: bool = False
    top_aggregate: float = 0.0  # aggregated calls made outside any span
    self_s: Counter = field(default_factory=Counter)
    incl_s: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    maxima: dict[str, float] = field(default_factory=dict)
    ops: int = 0
    op_wall: float = 0.0
    attributed: float = 0.0
    cone_cache: dict = field(default_factory=dict)

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self.stack.pop()

    def add_aggregate(self, name: str, seconds: float) -> None:
        self.self_s[name] += seconds
        self.counts[name + "#calls"] += 1
        if self.stack:
            self.spans[self.stack[-1]].agg_child += seconds
        else:
            self.top_aggregate += seconds

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def end_op(self, wall: float) -> None:
        """Fold the finished op's spans into the totals and drop them."""
        for name, (own, incl) in self_times(self.spans).items():
            self.self_s[name] += own
            self.incl_s[name] += incl
        for s in self.spans:
            self.counts[s.name + "#calls"] += 1
        self.attributed += self.top_aggregate + sum(
            s.end - s.start for s in self.spans if s.parent is None
        )
        self.ops += 1
        self.op_wall += wall
        self.spans.clear()
        self.stack.clear()
        self.top_aggregate = 0.0
        self.cone_cache.clear()

    # -- summary -------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer, summed over the layer's functions."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def metrics(self, overhead: float) -> dict[str, float]:
        """Every per-layer metric of PER_LAYER_UNITS, normalised per op."""
        ops = max(self.ops, 1)
        c = self.counts

        def per_op(key: str) -> float:
            return c[key] / ops

        def mean(total: str, n: str) -> float:
            return c[total] / c[n] if c[n] else 0.0

        m = {}
        for name in PER_LAYER_UNITS:
            if name.endswith("_s") and not name.endswith(".self_s"):
                m[name] = self.self_s[name[:-2]] / ops
        for layer, seconds in self.layer_self().items():
            m[layer + ".self_s"] = seconds / ops
        m.update(
            {
                "circuits.doc_bytes": per_op("doc_bytes"),
                "reference.basis_map_calls": per_op("reference.basis_map#calls"),
                "sim.run_calls": per_op("run_calls"),
                "sim.apply_gate_calls": per_op("sim.apply_gate#calls"),
                "sim.width_mean": mean("width_sum", "sim.apply_gate#calls"),
                "sim.width_max": self.maxima.get("width", 0),
                "sim.amp_updates": per_op("amp_updates"),
                "sim.bytes_computed": per_op("amp_updates") * 2 * AMP_BYTES,
                "sim.cone_frac": mean("cone_sum", "run_width_sum"),
                "lightcone.cone_mean": mean("lc_cone_sum", "lc_reports"),
                "lightcone.cone_max": self.maxima.get("lc_cone", 0),
                "adversary.kill_steps": per_op("kill_steps"),
                "adversary.committed_mean": mean("committed_sum", "kill_states"),
                "adversary.committed_max": self.maxima.get("committed", 0),
                "adversary.cap_ratio_max": self.maxima.get("cap_ratio", 0.0),
                "adversary.recruits": per_op("recruits"),
                "adversary.kills.base-zero": per_op("kills.base-zero"),
                "adversary.kills.fresh-zero": per_op("kills.fresh-zero"),
                "adversary.kills.recruited": per_op("kills.recruited"),
                "adversary.invariant_breaches": per_op("invariant_breaches"),
                "verify.basis_inputs": per_op("basis_inputs"),
                "trace.coverage": self.attributed / self.op_wall if self.op_wall else 0.0,
                "trace.overhead": overhead,
            }
        )
        return {name: float(m[name]) for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# Counting hooks: called with (tracer, args, kwargs, result) after the span
# ---------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_parse(t: Tracer, args, kwargs, result) -> None:
    t.counts["doc_bytes"] += len(_arg(args, kwargs, 0, "text", ""))


def _backward_cone(c: circuits.Circuit, wire: int, lo: int, hi: int) -> frozenset[int]:
    """Wires of layers[lo..=hi] that can influence ``wire`` after layer hi."""
    cone = {wire}
    for i in range(hi, lo - 1, -1):
        for g in c.layers[i].gates:
            support = g.support()
            if support & cone:
                cone |= support
    return frozenset(cone)


def _count_run(t: Tracer, args, kwargs, result) -> None:
    c = args[0]
    state = _arg(args, kwargs, 1, "state", None)
    lo = _arg(args, kwargs, 2, "from_layer", 0)
    hi = _arg(args, kwargs, 3, "to_layer", None)
    hi = c.depth() - 1 if hi is None else hi
    key = (id(c), lo, hi)
    cached = t.cone_cache.get(key)
    if cached is None or cached[0] is not c:
        cached = (c, _backward_cone(c, c.target, lo, hi))
        t.cone_cache[key] = cached
    width = len(state.wires)
    t.counts["run_calls"] += 1
    t.counts["run_width_sum"] += width
    t.counts["cone_sum"] += len(cached[1].intersection(state.wires))


def _count_apply_gate(t: Tracer, args, kwargs, result) -> None:
    width = len(_arg(args, kwargs, 1, "s", None).wires)
    t.counts["width_sum"] += width
    t.counts["amp_updates"] += 1 << width
    t.note_max("width", width)


def _count_lightcone(t: Tracer, args, kwargs, result) -> None:
    size = len(result.sets[-1])
    t.counts["lc_cone_sum"] += size
    t.counts["lc_reports"] += 1
    t.note_max("lc_cone", size)


def _count_kill_state(t: Tracer, args, kwargs, result) -> None:
    c = args[1] if isinstance(args[0], adversary.KillState) else args[0]
    size = len(result.committed)
    t.counts["kill_states"] += 1
    t.counts["committed_sum"] += size
    t.note_max("committed", size)
    t.note_max("cap_ratio", size / adversary.committed_bound(result.mode, c.a, result.k))
    entry = result.history[-1]
    for record in entry.killed:
        t.counts["kills." + record.via] += 1
    if isinstance(args[0], adversary.KillState):
        t.counts["kill_steps"] += 1
        t.counts["recruits"] += len(entry.fresh)


def _count_verify_clean(t: Tracer, args, kwargs, result) -> None:
    t.counts["basis_inputs"] += result.checked


def _count_sensitivity(t: Tracer, args, kwargs, result) -> None:
    t.counts["basis_inputs"] += 1 << args[0].n


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------

# (owner, attribute, metric name, aggregated?, counting hook)
TARGETS = (
    (circuits, "parse_circuit", "circuits.parse_circuit", False, _count_parse),
    (circuits, "circuit_sha256", "circuits.circuit_sha256", False, None),
    (circuits, "rewrite_toffoli_to_z", "circuits.rewrite_toffoli_to_z", False, None),
    (reference.ReferenceOp, "basis_map", "reference.basis_map", True, None),
    (sim, "run", "sim.run", False, _count_run),
    (sim, "apply_gate", "sim.apply_gate", True, _count_apply_gate),
    (sim, "read_target", "sim.other", True, None),
    (sim, "full_input_state", "sim.other", True, None),
    (sim.PartialState, "zero", "sim.other", True, None),
    (sim.PartialState, "basis", "sim.other", True, None),
    (sim.PartialState, "random", "sim.other", True, None),
    (sim.PartialState, "tensor", "sim.other", True, None),
    (sim.PartialState, "extend_zeros", "sim.other", True, None),
    (sim.PartialState, "restricted_probability", "sim.other", True, None),
    (lightcone, "lightcone", "lightcone.lightcone", False, _count_lightcone),
    (lightcone, "lightcone_counterexample", "lightcone.lightcone_counterexample", False, None),
    (adversary, "kill_base", "adversary.kill_base", False, _count_kill_state),
    (adversary, "kill_step", "adversary.kill_step", False, _count_kill_state),
    (adversary, "verify_kill", "adversary.verify_kill", False, None),
    (adversary, "parity_certificate", "adversary.parity_certificate", False, None),
    (adversary, "recheck_certificate", "adversary.recheck_certificate", False, None),
    (adversary, "certificate_to_json", "adversary.certificate_json", False, None),
    (adversary, "certificate_from_json", "adversary.certificate_json", False, None),
    (adversary, "robust_check", "adversary.robust_check", False, None),
    (verify, "verify_clean", "verify.verify_clean", False, _count_verify_clean),
    (verify, "sensitivity_scan", "verify.sensitivity_scan", False, _count_sensitivity),
)


def _span_wrapper(t: Tracer, fn, name: str, hook):
    def wrapper(*args, **kwargs):
        index = t.open(name)
        try:
            result = fn(*args, **kwargs)
        except adversary.InvariantError as exc:
            if not getattr(exc, "_bench_counted", False):  # count at the raising call only
                exc._bench_counted = True
                t.counts["invariant_breaches"] += 1
            raise
        finally:
            t.close(index)
        if hook is not None:
            hook(t, args, kwargs, result)
        return result

    return wrapper


def _aggregate_wrapper(t: Tracer, fn, name: str, hook):
    def wrapper(*args, **kwargs):
        if t.in_aggregate:
            return fn(*args, **kwargs)
        t.in_aggregate = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t.add_aggregate(name, time.perf_counter() - start)
            t.in_aggregate = False
        if hook is not None:
            hook(t, args, kwargs, result)
        return result

    return wrapper


def package_modules() -> list:
    return [
        m
        for key, m in sys.modules.items()
        if m is not None and (key == "qshallow" or key.startswith("qshallow."))
    ]


@contextmanager
def instrument(t: Tracer):
    """Wrap every TARGETS entry for the duration of the block."""
    saved: list[tuple[object, str, object]] = []
    modules = package_modules()
    try:
        for owner, attr, name, aggregated, hook in TARGETS:
            make = _aggregate_wrapper if aggregated else _span_wrapper
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(make(t, raw.__func__, name, hook))
                else:
                    wrapped = make(t, raw, name, hook)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = make(t, original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, original))
                        setattr(module, key, wrapped)
        yield t
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

# Predictions written before measuring, from scratch cProfile runs: (workload,
# claim, what is measured, relation, value). Shares are of traced op wall
# time; "~" holds within 0.10 of the value.
PREDICTIONS = (
    ("wide-verdict", "sim.run dominates (~84% of op time, einsum 65%)",
     ("incl", "sim.run"), ">", 0.6),
    ("wide-verdict", "circuits (parse/hash) does not matter here",
     ("layer", "circuits"), "<", 0.01),
    ("wide-structure", "sim is idle (<1% of op time)", ("layer", "sim"), "<", 0.01),
    ("wide-structure", "circuits.circuit_sha256 ~79% of op time",
     ("self", "circuits.circuit_sha256"), "~", 0.79),
    ("wide-structure", "circuits.parse_circuit ~18% of op time",
     ("self", "circuits.parse_circuit"), "~", 0.18),
    ("wide-structure", "per-gate cost does not matter here",
     ("self", "sim.apply_gate"), "<", 0.01),
    ("kill-campaign", "adversary.verify_kill ~94% of op time",
     ("incl", "adversary.verify_kill"), "~", 0.94),
    ("kill-campaign", "per-gate apply_gate time dominates (>50%)",
     ("self", "sim.apply_gate"), ">", 0.5),
    ("oracle-sweep", "per-gate apply_gate time dominates (>50%)",
     ("self", "sim.apply_gate"), ">", 0.5),
    ("oracle-sweep", "the oracles are the op (>90% in verify_clean,"
     " sensitivity_scan, robust_check)",
     ("incl", "verify.verify_clean+verify.sensitivity_scan+adversary.robust_check"), ">", 0.9),
    ("oracle-sweep", "the only workload that exercises reference",
     ("layer", "reference"), ">", 0.0),
    ("kill-campaign", "reference is not exercised", ("layer", "reference"), "<", 1e-9),
    ("wide-verdict", "reference is not exercised", ("layer", "reference"), "<", 1e-9),
    ("wide-structure", "reference is not exercised", ("layer", "reference"), "<", 1e-9),
)


# The ROADMAP re-anchor baseline, restated from this trace: (workload, what
# the baseline measured, its value then, function names whose inclusive time
# per op, times the count, reproduces it).
BASELINE = (
    ("kill-campaign", "criterion 5 (100 x kill + verify_kill)", "27.5 s",
     100, "adversary.verify_kill"),
    ("kill-campaign", "criterion 6, certificate part (100 x build + recheck)",
     "12.5 s with 10 oracle checks",
     100, "adversary.parity_certificate+adversary.recheck_certificate"),
)


def share(t: Tracer, kind: str, names: str) -> float:
    """Share of traced op wall time: a layer's self time, or the self or
    inclusive time of one or more functions joined by '+'."""
    if kind == "layer":
        seconds = t.layer_self()[names]
    else:
        table = t.self_s if kind == "self" else t.incl_s
        seconds = sum(table[name] for name in names.split("+"))
    return seconds / t.op_wall if t.op_wall else 0.0


def prediction_results(workload: str, t: Tracer) -> list[tuple[str, float, bool]]:
    out = []
    for name, claim, (kind, names), relation, value in PREDICTIONS:
        if name != workload:
            continue
        measured = share(t, kind, names)
        held = {
            ">": measured > value,
            "<": measured < value,
            "~": abs(measured - value) <= 0.10,
        }[relation]
        out.append((claim, measured, held))
    return out


def print_report(workload: str, t: Tracer, metrics: dict[str, float]) -> None:
    layers = t.layer_self()
    dominant = max(layers, key=layers.get)
    print(
        f"trace report: {workload}  ({t.ops} traced ops; coverage"
        f" {metrics['trace.coverage']:.1%} of op wall time; tracing overhead"
        f" x{metrics['trace.overhead']:.3f} in ops_per_s)"
    )
    print("  layer        self s/op    share")
    for layer, seconds in layers.items():
        print(f"  {layer:<11} {seconds / t.ops:10.5f}  {seconds / t.op_wall:6.1%}")
    print(f"  dominant layer: {dominant}")
    print("  function                                calls/op   self s/op   incl s/op")
    for name in sorted(t.self_s):
        calls = t.counts[name + "#calls"] / t.ops
        incl = t.incl_s.get(name, t.self_s[name])
        print(f"  {name:<38} {calls:9.1f}  {t.self_s[name] / t.ops:10.5f}  {incl / t.ops:10.5f}")
    for name, what, then, count, names in BASELINE:
        if name == workload:
            seconds = sum(t.incl_s[n] for n in names.split("+")) / t.ops
            print(f"  baseline: {what}: {count * seconds:.2f} s now; {then} at re-anchor")
    for claim, measured, held in prediction_results(workload, t):
        print(f"  prediction {'held' if held else 'REFUTED'}: {claim} (measured {measured:.1%})")
