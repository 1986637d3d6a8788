import importlib

import numpy as np
import pytest

from qshallow import (
    HADAMARD,
    Circuit,
    Cnot,
    Layer,
    MeasurementSpec,
    SingleQubit,
    Toffoli,
    build_parity_logdepth,
    check_depth_bound,
    full_input_state,
    lightcone,
    lightcone_counterexample,
    read_target,
    run,
    sensitivity_scan,
    serialize_circuit,
)
from qshallow.cli import main
from qshallow.randcirc import random_bounded_arity_circuit


def test_hand_propagation_example():
    # Output layer CNOT(0,1) measured at 0; deeper layer CNOT(0,2), CNOT(1,3).
    c = Circuit(
        n=5,
        a=0,
        target=0,
        layers=(
            Layer([Cnot(0, 2), Cnot(1, 3)]),  # applied first (deeper)
            Layer([Cnot(0, 1)]),  # output layer
        ),
    )
    report = lightcone(c, MeasurementSpec(0))
    assert report.sets[0] == {0, 1}
    assert report.sets[1] == {0, 1, 2, 3}
    assert report.free_inputs == (4,)
    # brute-force cross-check: no sensitivity outside the cone
    assert set(sensitivity_scan(c, MeasurementSpec(0))) <= report.sets[-1]


def test_depth_zero_circuit():
    c = Circuit(n=4, a=0, target=2, layers=())
    report = lightcone(c, MeasurementSpec(2))
    assert report.sets == (frozenset({2}),)
    assert report.free_inputs == (0, 1, 3)


def test_all_single_qubit_gates():
    layers = tuple(Layer([SingleQubit(1, HADAMARD)]) for _ in range(4))
    c = Circuit(n=3, a=0, target=1, layers=layers)
    report = lightcone(c, MeasurementSpec(1))
    assert all(s == {1} for s in report.sets)
    assert report.max_arity == 1


def test_nesting_and_arity_bound_on_random_circuits():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        a = int(rng.integers(0, max(1, 10 - n) + 1))
        k = int(rng.integers(2, 4))
        c = random_bounded_arity_circuit(n, a, int(rng.integers(0, 5)), rng, max_arity=k)
        report = lightcone(c, MeasurementSpec(c.target))
        for i in range(len(report.sets) - 1):
            assert report.sets[i] <= report.sets[i + 1]
        for i, s in enumerate(report.sets, start=1):
            assert len(s) <= report.max_arity ** i


def test_truncated_parity_tree_yields_counterexample():
    full = build_parity_logdepth(8)
    truncated = Circuit(n=full.n, a=0, target=full.target, layers=full.layers[:2])
    m = MeasurementSpec(truncated.target)
    report = lightcone(truncated, m)
    assert len(report.sets[-1]) <= 4
    pair = lightcone_counterexample(truncated, m)
    assert pair is not None
    # re-verify by independent simulation
    r0 = read_target(run(truncated, full_input_state(truncated, {})), m)
    r1 = read_target(
        run(truncated, full_input_state(truncated, {pair.flip_wire: 1})), m
    )
    assert abs(r0.p1 - r1.p1) <= 1e-9
    assert abs(pair.parity_readings[0] - pair.parity_readings[1]) == 1.0


def test_full_parity_tree_has_no_counterexample():
    c = build_parity_logdepth(8)
    assert lightcone_counterexample(c, MeasurementSpec(c.target)) is None


def test_untouched_target_reads_zero_on_both_inputs():
    c = Circuit(n=3, a=0, target=2, layers=(Layer([Cnot(0, 1)]),))
    pair = lightcone_counterexample(c, MeasurementSpec(2))
    assert pair is not None
    assert pair.readings[0].p1 == 0.0 and pair.readings[1].p1 == 0.0


def test_check_depth_bound_triggered_and_found():
    rng = np.random.default_rng(1)
    c = random_bounded_arity_circuit(8, 0, 2, rng, max_arity=2)
    verdict = check_depth_bound(c, "parity")
    assert verdict.bound_triggered  # 2^2 < 8
    assert verdict.report.free_inputs
    assert verdict.verdict == "not-parity"


def test_check_depth_bound_not_triggered():
    # The bound does not force a free input here, but the cone still misses
    # wire 2, and that decides the verdict.
    rng = np.random.default_rng(2)
    c = random_bounded_arity_circuit(4, 0, 2, rng, max_arity=2)
    verdict = check_depth_bound(c, "parity")
    assert not verdict.bound_triggered  # 2^2 = 4
    assert verdict.verdict == "not-parity"
    assert verdict.flip_wire == 2


def test_check_depth_bound_giant_toffoli():
    c = Circuit(
        n=5, a=0, target=4, layers=(Layer([Toffoli((0, 1, 2, 3), 4)]),)
    )
    verdict = check_depth_bound(c, "parity")
    assert verdict.max_arity == 5
    assert not verdict.bound_triggered


def test_fanout_verdict_via_conjugation():
    rng = np.random.default_rng(3)
    c = random_bounded_arity_circuit(8, 0, 2, rng, max_arity=2)
    verdict = check_depth_bound(c, "fanout")
    assert verdict.bound_triggered
    assert verdict.report.free_inputs
    assert verdict.verdict == "not-fanout"


UNKNOWN_AGAINST = ["banana", "Parity", None]
FREE_WIRE_0 = Circuit(n=4, a=0, target=3, layers=(Layer([Cnot(2, 3)]),))


@pytest.mark.parametrize("against", UNKNOWN_AGAINST)
def test_check_depth_bound_refuses_an_unknown_against(against):
    with pytest.raises(ValueError, match="expected parity or fanout"):
        check_depth_bound(FREE_WIRE_0, against)


@pytest.mark.parametrize("against", UNKNOWN_AGAINST)
def test_lightcone_counterexample_refuses_an_unknown_against(against):
    with pytest.raises(ValueError, match="expected parity or fanout"):
        lightcone_counterexample(FREE_WIRE_0, MeasurementSpec(3), against)


def test_counterexample_flips_least_free_input():
    c = Circuit(n=4, a=0, target=3, layers=(Layer([Cnot(2, 3)]),))
    pair = lightcone_counterexample(c, MeasurementSpec(3))
    assert pair.flip_wire == 0
    assert pair.x == (0, 0, 0, 0)


@pytest.mark.parametrize("against", ["parity", "fanout"])
def test_verdict_agrees_with_the_simulated_pair(against):
    # lightcone_counterexample simulates the analyzed circuit (the Hadamard
    # conjugate against fanout) on both inputs; it is the oracle for the
    # verdict that check_depth_bound reads off the cone alone.
    rng = np.random.default_rng(11)
    decided = untriggered = 0
    for _ in range(120):
        n = int(rng.integers(2, 9))
        a = int(rng.integers(0, 10 - n + 1))
        k = int(rng.integers(2, 4))
        c = random_bounded_arity_circuit(n, a, int(rng.integers(0, 5)), rng, max_arity=k)
        m = MeasurementSpec(c.target)
        verdict = check_depth_bound(c, against)
        pair = lightcone_counterexample(c, m, against)
        if pair is None:
            assert verdict.verdict == "no-verdict" and verdict.flip_wire is None
            continue
        assert verdict.verdict == f"not-{against}"
        assert verdict.flip_wire == pair.flip_wire
        assert verdict.flip_wire not in sensitivity_scan(c, m)
        decided += 1
        untriggered += not verdict.bound_triggered
    assert 0 < untriggered < decided < 120


def test_verdicts_run_no_simulation(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a lightcone verdict simulated the circuit")

    sim = importlib.import_module("qshallow.sim")
    for name in ("run", "apply_gate"):
        monkeypatch.setattr(sim, name, refuse)
    c = random_bounded_arity_circuit(8, 0, 2, np.random.default_rng(1), max_arity=2)
    assert check_depth_bound(c, "parity").verdict == "not-parity"
    assert check_depth_bound(c, "fanout").verdict == "not-fanout"
    path = tmp_path / "c.json"
    path.write_text(serialize_circuit(c))
    assert main(["lightcone", "--circuit", str(path), "--against", "fanout"]) == 1
    assert "verdict: not-fanout" in capsys.readouterr().out


@pytest.mark.parametrize("against", ["parity", "fanout"])
def test_counterexample_walks_the_cone_once(monkeypatch, against):
    lc = importlib.import_module("qshallow.lightcone")
    walks = []
    backward_cone = lc.backward_cone

    def counted(*args):
        walks.append(args)
        return backward_cone(*args)

    monkeypatch.setattr(lc, "backward_cone", counted)
    truncated = Circuit(n=9, a=0, target=8, layers=build_parity_logdepth(8).layers[:2])
    pair = lightcone_counterexample(truncated, MeasurementSpec(8), against)
    assert pair is not None and len(walks) == 1
    assert lightcone_counterexample(build_parity_logdepth(8), MeasurementSpec(8)) is None
    assert len(walks) == 2


@pytest.mark.parametrize("wire", [9, -1])
def test_a_measured_wire_outside_the_circuit_is_refused(wire):
    c = build_parity_logdepth(8)  # 9 wires
    for analyze in (lightcone, lightcone_counterexample):
        with pytest.raises(ValueError, match=f"^measured wire {wire} out of range$"):
            analyze(c, MeasurementSpec(wire))
