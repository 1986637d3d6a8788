"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen (they are also shown in captured output on failure).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from qshallow import (
    HADAMARD,
    Circuit,
    Cnot,
    Layer,
    MeasurementSpec,
    ReferenceOp,
    SingleQubit,
    build_parity_logdepth,
    committed_bound,
    full_input_state,
    kill_base,
    kill_run,
    kill_step,
    lightcone,
    lightcone_counterexample,
    parity_certificate,
    parity_logdepth_depth,
    read_target,
    recheck_certificate,
    reference_dense,
    rewrite_toffoli_to_z,
    robust_check,
    run,
    sensitivity_scan,
    tradeoff_bound,
    verify_clean,
    verify_kill,
)
from qshallow.circuits import Toffoli, ZGate
from qshallow.sim import dense_operator
from qshallow.randcirc import (
    random_bounded_arity_circuit,
    random_single_qubit_z_circuit,
)


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"FAIL criterion {number}: {label} (took {elapsed:.1f}s > {budget_s}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_s}s budget")
    timing = f" [{elapsed:.1f}s]" if budget_s is not None else ""
    print(f"PASS criterion {number}: {label}{timing}")


def test_criterion_1_parity_upper_bound():
    with criterion(1, "log-depth parity construction verifies cleanly", budget_s=10):
        for n in (1, 2, 4, 8, 16):
            c = build_parity_logdepth(n)
            assert c.depth() == parity_logdepth_depth(n)
            result = verify_clean(c, ReferenceOp("parity", n))
            assert result.ok and result.max_deviation <= 1e-9, (n, result.first_failure)


def test_criterion_2_hadamard_conjugation_identity():
    with criterion(2, "fanout equals Hadamard-conjugated parity (dense)", budget_s=1):
        for n in (1, 2, 3):
            h_all = np.array([[1.0]], dtype=complex)
            for _ in range(n + 1):
                h_all = np.kron(h_all, HADAMARD)
            p = reference_dense(ReferenceOp("parity", n))
            f = reference_dense(ReferenceOp("fanout", n))
            assert np.abs(h_all @ p @ h_all - f).max() <= 1e-10


def test_criterion_3_toffoli_hzh_identity():
    with criterion(3, "Toffoli equals H-Z-H sandwich (dense, arities 1-5)", budget_s=1):
        for arity in range(1, 6):
            wires = arity + 1
            tof = Circuit(
                n=wires,
                a=0,
                target=arity,
                layers=(Layer([Toffoli(tuple(range(arity)), arity)]),),
            )
            rewritten = rewrite_toffoli_to_z(tof)
            diff = np.abs(dense_operator(tof) - dense_operator(rewritten)).max()
            assert diff <= 1e-12, (arity, diff)


def test_criterion_4_lightcone_counterexamples():
    with criterion(
        4, "lightcone counterexample on 200 shallow 2-qubit-gate circuits", budget_s=30
    ):
        rng = np.random.default_rng(0)
        for i in range(200):
            c = random_bounded_arity_circuit(8, 0, 2, rng, max_arity=2)
            m = MeasurementSpec(c.target)
            pair = lightcone_counterexample(c, m)
            assert pair is not None, f"circuit {i}: no counterexample"
            r0 = read_target(run(c, full_input_state(c, {})), m)
            r1 = read_target(run(c, full_input_state(c, {pair.flip_wire: 1})), m)
            assert abs(r0.p1 - r1.p1) <= 1e-9, f"circuit {i}: readings moved"
            assert abs(pair.parity_readings[0] - pair.parity_readings[1]) == 1.0


def _campaign_circuits(count=100, n=12, a=0, depth=4, seed=0):
    rng = np.random.default_rng(seed)
    return [random_single_qubit_z_circuit(n, a, depth, rng) for _ in range(count)]


def test_criterion_5_kill_soundness_campaign():
    with criterion(
        5, "gate-killing size bounds + witness checks on 100 circuits", budget_s=60
    ):
        for i, c in enumerate(_campaign_circuits()):
            for mode in ("basic", "improved"):
                s = kill_base(c, mode)
                assert len(s.committed) <= committed_bound(mode, c.a, s.k)
                while s.k < c.depth():
                    s = kill_step(s, c)  # raises InvariantError on a breach
                    assert len(s.committed) <= committed_bound(mode, c.a, s.k)
                result = verify_kill(c, s, trials=20, seed=i)
                assert result.ok, (i, mode, result.max_p1)
                assert result.max_p1 <= 1e-9


def test_criterion_6_certificates_never_inconclusive():
    with criterion(6, "certificates: all not-parity, re-simulated, cross-checked"):
        assert committed_bound("improved", 0, 4) == 4 < 12
        for i, c in enumerate(_campaign_circuits()):
            cert = parity_certificate(c, "improved")
            assert cert.verdict == "not-parity", i
            assert cert.readings[0] <= 1e-9 and cert.readings[1] <= 1e-9
            assert recheck_certificate(cert, c), i
        # cross-check at oracle scale: same ensemble, n + a <= 10
        rng = np.random.default_rng(0)
        for i in range(10):
            c = random_single_qubit_z_circuit(10, 0, 4, rng)
            cert = parity_certificate(c, "improved")
            assert cert.verdict == "not-parity"
            assert not verify_clean(c, ReferenceOp("parity", 9)).ok, i


def test_criterion_7_tradeoff_formula():
    with criterion(7, "ancilla-depth tradeoff formula values"):
        assert tradeoff_bound(1024, 0, "parity").unbounded_gate_depth == 16.0
        assert tradeoff_bound(1024, 31, "parity").unbounded_gate_depth == 8.0
        assert tradeoff_bound(1024, 0, "fanout").unbounded_gate_depth == 14.0


def test_criterion_8_no_false_accusation():
    with criterion(8, "true parity circuit defeats the adversary"):
        c = rewrite_toffoli_to_z(build_parity_logdepth(8))
        cert = parity_certificate(c, "improved")
        assert cert.verdict == "inconclusive"
        assert verify_clean(c, ReferenceOp("parity", 8)).ok


def test_criterion_9_sensitivity_contained_in_lightcone():
    with criterion(9, "sensitivity scan contained in lightcone on 200 circuits"):
        rng = np.random.default_rng(0)
        violations = 0
        for _ in range(200):
            n = int(rng.integers(2, 8))
            a = int(rng.integers(0, max(0, 8 - n) + 1))
            k = int(rng.integers(2, 4))
            c = random_bounded_arity_circuit(
                n, a, int(rng.integers(0, 5)), rng, max_arity=k
            )
            m = MeasurementSpec(c.target)
            if not set(sensitivity_scan(c, m)) <= lightcone(c, m).sets[-1]:
                violations += 1
        assert violations == 0


def test_criterion_10_robust_computation():
    with criterion(10, "robust computation examples behave as specified"):
        # (a) no ancillae: reduces to basis-wise operator equality
        assert robust_check(build_parity_logdepth(4), ReferenceOp("parity", 4))
        # (b) parity routed through an ancilla and uncomputed, y-independent
        through_ancilla = Circuit(
            n=3,
            a=1,
            target=2,
            layers=(
                Layer([Cnot(0, 3)]),
                Layer([Cnot(1, 3)]),
                Layer([Cnot(3, 2)]),
                Layer([Cnot(0, 3)]),
                Layer([Cnot(1, 3)]),
                Layer([Cnot(3, 2)]),
            ),
        )
        assert robust_check(through_ancilla, ReferenceOp("parity", 2))
        # (c) an ancilla flipped for good breaks robustness
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        flipped = Circuit(
            n=3,
            a=1,
            target=2,
            layers=through_ancilla.layers + (Layer([SingleQubit(3, x)]),),
        )
        assert not robust_check(flipped, ReferenceOp("parity", 2))
