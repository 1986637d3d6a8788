"""Self-tests of the benchmark: ``python3 -m pytest -q bench/test_bench.py``."""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import run

q = run.import_qshallow()

import tracing  # noqa: E402  (needs qshallow on the path)
import workloads  # noqa: E402
from tracing import Span, Tracer, instrument, self_times  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def breaching_circuit():
    """The smallest known improved-mode cap breach: 8 wires, depth 4."""
    z = q.ZGate
    return q.Circuit(
        n=8,
        a=0,
        target=7,
        layers=(
            q.Layer([z((3, 7)), z((0, 4)), z((1, 5))]),
            q.Layer([z((1, 7)), z((0, 2))]),
            q.Layer([z((0, 7))]),
            q.Layer([q.SingleQubit(7, q.HADAMARD)]),
        ),
    )


def wrapped_bindings() -> list[str]:
    """Names in the package bound to a benchmark wrapper."""
    found = []
    for owner in tracing.package_modules() + [q.PartialState, q.ReferenceOp]:
        for key, value in list(vars(owner).items()):
            fn = value.__func__ if isinstance(value, staticmethod) else value
            if getattr(fn, "__qualname__", "").startswith(("_span_wrapper", "_aggregate_wrapper")):
                found.append(f"{getattr(owner, '__name__', owner)}.{key}")
    return found


def structure_op(c) -> workloads.Op:
    doc = q.serialize_circuit(c)
    return workloads.Op("structure", doc, hashlib.sha256(doc.encode()).hexdigest())


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span("a", 0.0, 10.0),
        Span("b", 1.0, 4.0, parent=0),
        Span("c", 2.0, 3.0, parent=1),
        Span("d", 5.0, 9.0, parent=0, agg_child=1.0),
        Span("a", 6.0, 8.0, parent=3),  # "a" again, under "d"
    ]
    out = self_times(spans)
    assert out["a"] == pytest.approx((3.0 + 2.0, 10.0))  # inner "a" not re-counted inclusive
    assert out["b"] == pytest.approx((2.0, 3.0))
    assert out["c"] == pytest.approx((1.0, 1.0))
    assert out["d"] == pytest.approx((4.0 - 2.0 - 1.0, 4.0))


def test_wrappers_are_restored_after_a_traced_run():
    names = ("run", "apply_gate", "parse_circuit", "lightcone")
    originals = {name: getattr(q, name) for name in names}
    basis_map = q.ReferenceOp.__dict__["basis_map"]
    zero = q.PartialState.__dict__["zero"]
    warm, _ = workloads.make_inputs("oracle-sweep", 0)
    tracer = Tracer()
    with instrument(tracer):
        assert wrapped_bindings()
        assert q.run is not originals["run"]
        run.measure([warm], 0.0, tracer)
    assert wrapped_bindings() == []
    for name, fn in originals.items():
        assert getattr(q, name) is fn
    assert q.adversary.run is originals["run"]
    assert q.ReferenceOp.__dict__["basis_map"] is basis_map
    assert q.PartialState.__dict__["zero"] is zero
    assert tracer.ops == len(warm) and tracer.counts["reference.basis_map#calls"] > 0


def test_amp_updates_hand_checked_on_three_wires():
    c = q.Circuit(
        n=3,
        a=0,
        target=2,
        layers=(
            q.Layer([q.SingleQubit(0, q.HADAMARD), q.ZGate((1, 2))]),
            q.Layer([q.Cnot(0, 1)]),
        ),
    )
    tracer = Tracer()
    with instrument(tracer):
        q.run(c, q.full_input_state(c, {}))
    tracer.end_op(1.0)
    m = tracer.metrics(overhead=1.0)
    # Three gate applications on a 3-wire state: 3 * 2**3 amplitudes.
    assert m["sim.apply_gate_calls"] == 3
    assert m["sim.amp_updates"] == 24
    assert m["sim.bytes_computed"] == 24 * 2 * 16
    assert m["sim.width_mean"] == 3 and m["sim.width_max"] == 3
    # Wire 2 is reached only through Z(1,2): its cone is {1, 2} of 3 wires.
    assert m["sim.cone_frac"] == pytest.approx(2 / 3)
    assert m["sim.run_calls"] == 1


def test_breaching_circuit_is_one_failed_op_not_a_crash():
    op = structure_op(breaching_circuit())
    stats = run.measure([[op]], 0.0)
    assert (stats.attempted, stats.failed, stats.wrong) == (1, 1, 0)
    assert stats.failures == {"InvariantError": 1}
    # Met again on later passes, it is still one failed op of the pool.
    ok = structure_op(q.random_single_qubit_z_circuit(8, 0, 4, np.random.default_rng(1)))
    stats = run.measure([[op], [ok]], 0.2)
    assert stats.executions > 2 and (stats.attempted, stats.failed) == (2, 1)
    tracer = Tracer()
    with instrument(tracer):
        traced = run.measure([[op]], 0.0, tracer)
    assert traced.failures == {"InvariantError": 1}
    assert tracer.metrics(1.0)["adversary.invariant_breaches"] == 1


def test_a_wrong_verdict_is_counted_and_marks_the_run_incorrect():
    c = q.build_parity_logdepth(3)
    op = workloads.Op("verify-permutation", q.serialize_circuit(c), "parity fail")
    stats = run.measure([[op]], 0.0)
    assert stats.failures == {"WrongVerdict": 1} and stats.wrong == 1


def test_a_verdict_that_changes_on_a_repeat_is_one_wrong_op(monkeypatch):
    answers = itertools.cycle([b"a", b"b"])
    monkeypatch.setitem(workloads.RUNNERS, "flaky", lambda op: workloads.Outcome(True, next(answers)))
    stats = run.measure([[workloads.Op("flaky", "")]], 0.01)
    assert stats.executions > 2 and stats.failures == {"Unrepeatable": 1}
    assert (stats.attempted, stats.failed, stats.wrong) == (1, 1, 1)


def test_inputs_follow_the_seed():
    _, a = workloads.make_inputs("kill-campaign", 3)
    _, b = workloads.make_inputs("kill-campaign", 3)
    _, c = workloads.make_inputs("kill-campaign", 4)
    assert a == b and a != c


def test_benchmark_json_names_match_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == ["kill-campaign", "oracle-sweep"] and set(gated) <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
