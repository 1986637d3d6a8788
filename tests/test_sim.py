import tracemalloc

import numpy as np
import pytest

from qshallow import (
    HADAMARD,
    PAULI_X,
    Circuit,
    Cnot,
    CoverageError,
    Layer,
    MeasurementSpec,
    PartialState,
    SingleQubit,
    Toffoli,
    ZGate,
    apply_layer,
    dense_operator,
    full_input_state,
    read_target,
    run,
)
from qshallow.randcirc import random_bounded_arity_circuit
from qshallow.sim import adjoint_gate, bit_table

# Little-endian CNOT(control=0, target=1): basis index b0 + 2*b1.
CNOT01_DENSE = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)


def basis(wires, ones=()):
    return PartialState.basis(wires, {w: 1 for w in ones})


def apply_one(g, s):
    return apply_layer(Layer([g]), s)


def undo(c, s):
    """Pull a state back through the circuit the way ``kill_step`` does: the
    per-gate adjoints of each layer, last layer first."""
    for layer in reversed(c.layers):
        s = apply_layer(Layer(adjoint_gate(g) for g in layer.gates), s)
    return s


def test_state_validation():
    with pytest.raises(ValueError, match="norm"):
        PartialState((0,), np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError, match="duplicate"):
        PartialState((0, 0), np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError, match="length"):
        PartialState((0, 1), np.array([1.0, 0.0], dtype=complex))


def test_z_gate_signs():
    s = basis((0, 1), ones=(0, 1))
    out = apply_one(ZGate((0, 1)), s)
    assert out.amps[3] == -1.0
    s01 = basis((0, 1), ones=(1,))
    out01 = apply_one(ZGate((0, 1)), s01)
    assert np.array_equal(out01.amps, s01.amps)


def test_toffoli_basis_action():
    s = basis((0, 1, 2), ones=(0, 1))  # |110> in wire order 0,1,2
    out = apply_one(Toffoli((0, 1), 2), s)
    assert out.amps[0b111] == 1.0
    # control not satisfied: unchanged
    s2 = basis((0, 1, 2), ones=(0,))
    out2 = apply_one(Toffoli((0, 1), 2), s2)
    assert np.array_equal(out2.amps, s2.amps)


def test_hadamard_involution():
    plus = apply_one(SingleQubit(0, HADAMARD), PartialState.zero((0,)))
    back = apply_one(SingleQubit(0, HADAMARD), plus)
    assert abs(back.amps[0] - 1.0) <= 1e-12


def test_layer_of_hadamards_uniform():
    out = apply_layer(
        Layer([SingleQubit(0, HADAMARD), SingleQubit(1, HADAMARD)]),
        PartialState.zero((0, 1)),
    )
    assert np.abs(out.amps - 0.5).max() <= 1e-12


def test_empty_layer_identity():
    s = basis((0, 3), ones=(3,))
    assert np.array_equal(apply_layer(Layer(()), s).amps, s.amps)


def test_layer_z_and_x_composes():
    # {Z({0,1}), X(2)} on |110> -> -|111>: compose the two single-gate results.
    s = basis((0, 1, 2), ones=(0, 1))
    via_layer = apply_layer(Layer([ZGate((0, 1)), SingleQubit(2, PAULI_X)]), s)
    via_gates = apply_one(SingleQubit(2, PAULI_X), apply_one(ZGate((0, 1)), s))
    assert np.array_equal(via_layer.amps, via_gates.amps)
    assert via_layer.amps[0b111] == -1.0


def test_gate_outside_state_refused():
    s = PartialState.zero((0, 1))
    with pytest.raises(CoverageError):
        apply_one(Cnot(0, 2), s)
    with pytest.raises(CoverageError):
        apply_one(ZGate((1, 2)), s)


def test_run_slices_and_adjoint():
    c = Circuit(
        n=3,
        a=0,
        target=2,
        layers=(
            Layer([SingleQubit(0, HADAMARD)]),
            Layer([Cnot(0, 1)]),
            Layer([Toffoli((0, 1), 2)]),
        ),
    )
    s = PartialState.zero((0, 1, 2))
    assert np.array_equal(run(Circuit(n=3, a=0, target=2), s).amps, s.amps)  # no layers
    full = run(c, s)
    expect = (np.zeros(8, dtype=complex))
    expect[0] = 1 / np.sqrt(2)
    expect[0b111] = 1 / np.sqrt(2)
    assert np.abs(full.amps - expect).max() <= 1e-12
    back = undo(c, full)
    assert np.abs(back.amps - s.amps).max() <= 1e-10


def test_read_target():
    m = MeasurementSpec(0)
    zero = PartialState.zero((0,))
    r = read_target(zero, m)
    assert r.p1 == 0.0 and r.exact_zero
    plus = apply_one(SingleQubit(0, HADAMARD), zero)
    r = read_target(plus, m)
    assert abs(r.p1 - 0.5) <= 1e-12 and not r.exact_zero


def test_dense_identity_and_cnot():
    ident = Circuit(n=2, a=0, target=0, layers=())
    assert np.array_equal(dense_operator(ident), np.eye(4))
    cnot = Circuit(n=2, a=0, target=1, layers=(Layer([Cnot(0, 1)]),))
    assert np.array_equal(dense_operator(cnot), CNOT01_DENSE)


def test_dense_operator_guard():
    big = Circuit(n=13, a=0, target=0, layers=())
    with pytest.raises(ValueError, match="12 wires"):
        dense_operator(big)


def test_tensor_and_extend():
    a = basis((1,), ones=(1,))
    b = apply_one(SingleQubit(4, HADAMARD), PartialState.zero((4,)))
    joint = a.tensor(b)
    assert joint.wires == (1, 4)
    # wire 1 is bit 0, wire 4 is bit 1: |1> x |+> has mass on indices 1 and 3
    assert np.abs(joint.amps[[1, 3]] - 1 / np.sqrt(2)).max() <= 1e-12
    grown = joint.extend_zeros((0, 2))
    assert grown.wires == (0, 1, 2, 4)
    assert abs(grown.restricted_probability(0, 0) - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="share wires"):
        a.tensor(a)


@pytest.mark.parametrize("seed", range(10))
def test_norm_preserved_and_adjoint_inverts(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    a = int(rng.integers(0, 3))
    c = random_bounded_arity_circuit(n, a, int(rng.integers(1, 5)), rng, max_arity=3)
    s = PartialState.random(range(c.wires), rng)
    out = run(c, s)
    assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-10
    back = undo(c, out)
    assert np.abs(back.amps - s.amps).max() <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_layer_gate_order_irrelevant(seed):
    rng = np.random.default_rng(seed)
    c = random_bounded_arity_circuit(6, 0, 1, rng, max_arity=3)
    layer = c.layers[0]
    s = PartialState.random(range(c.wires), rng)
    reference = apply_layer(layer, s)
    for _ in range(3):
        perm = list(layer.gates)
        rng.shuffle(perm)
        again = apply_layer(Layer(perm), s)
        assert np.abs(again.amps - reference.amps).max() <= 1e-12


def test_z_gate_diagonal_on_basis_states():
    rng = np.random.default_rng(3)
    for _ in range(20):
        wires = tuple(sorted(rng.choice(8, size=4, replace=False)))
        gate = ZGate(tuple(sorted(rng.choice(wires, size=2, replace=False))))
        ones = [w for w in wires if rng.random() < 0.5]
        s = basis(wires, ones)
        out = apply_one(gate, s)
        assert np.abs(np.abs(out.amps) - np.abs(s.amps)).max() == 0.0
        index = int(np.nonzero(s.amps)[0][0])
        assert abs(out.amps[index]) == 1.0


def test_full_input_state_forces_ancillae_zero():
    c = Circuit(n=2, a=2, target=0, layers=())
    s = full_input_state(c, {0: 1, 1: 1})
    assert s.wires == (0, 1, 2, 3)
    assert s.amps[0b0011] == 1.0


@pytest.mark.parametrize("seed", range(5))
def test_dense_operator_is_unitary(seed):
    rng = np.random.default_rng(seed)
    c = random_bounded_arity_circuit(4, 1, 3, rng, max_arity=3)
    u = dense_operator(c)
    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-9


def test_bit_table_refuses_a_wide_table_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="24-wire simulation limit"):
            bit_table([1] * 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the table would be 8 TiB


def test_norm_checks_fail_on_nan():
    with pytest.raises(ValueError, match="state norm nan"):
        PartialState((0,), np.array([np.nan, 0]))
    c = Circuit(n=1, a=0, target=0, layers=(Layer([SingleQubit(0, [[np.nan, 0], [0, 1]])]),))
    with pytest.raises(ValueError, match="state norm nan"):
        run(c, PartialState.zero((0,)))
