"""The witness steps against the plain simulator path, bit for bit, and the
slices they compile.

``kill_base``, ``kill_step`` and ``verify_kill`` reach the kernel only
through the ``PartialState`` entry points (``apply_layer``,
``extend_zeros``, ``project_zeros``, ``restricted_probability``). Those skip
work that cannot change a bit: a layer with no gates, a second norm check of
a state the kernel has checked, an index table that maps a state onto
itself. The reference below does all of it: every layer, empty ones too, is
compiled and run by ``compile_layers(...).apply``, every state is rebuilt
and re-checked by the ``PartialState`` constructor, every projection gathers
through ``index_map``, and every reading sums the two einsums of the
kernel's probability. The construction's entries come from ``_next_entry``
on both sides; what is compared is the arithmetic on the witness.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from qshallow import (
    HADAMARD,
    PAULI_X,
    Circuit,
    InvariantError,
    Layer,
    PartialState,
    SingleQubit,
    kill_base,
    kill_run,
    kill_step,
    verify_kill,
)
from qshallow.adversary import VerifyKillResult, _next_entry
from qshallow.randcirc import random_single_qubit_z_circuit
from qshallow.sim import READING_TOL, adjoint_gate, compile_layers, index_map, tensor_indices
import qshallow.sim as sim

from test_pool_results import kill_campaign_cases


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: signed zeros and NaN payloads included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def plain_apply_layer(layer: Layer, s: PartialState) -> PartialState:
    block = s.amps.reshape(-1, 1).copy()
    out = compile_layers((layer,), s.wires).apply(block)
    return PartialState(s.wires, out[:, 0])


def plain_tensor(s: PartialState, other: PartialState) -> PartialState:
    merged, own, theirs = tensor_indices(s.wires, other.wires)
    return PartialState(merged, s.amps[own] * other.amps[theirs])


def plain_extend_zeros(s: PartialState, wires) -> PartialState:
    new = tuple(sorted(set(wires) - set(s.wires)))
    return plain_tensor(s, PartialState.zero(new)) if new else s


def plain_project_zeros(s: PartialState, kept: tuple[int, ...]) -> PartialState:
    amps = s.amps[index_map(kept, s.wires)]
    return PartialState(kept, amps / np.linalg.norm(amps))


def plain_reading(s: PartialState, wire: int) -> float:
    x = s.amps.reshape(-1, 2, 1 << s.wires.index(wire), 1)[:, 1]
    mass = np.einsum("ijb,ijb->b", x.real, x.real)
    mass += np.einsum("ijb,ijb->b", x.imag, x.imag)
    return float(mass[0])


def plain_kill_base(c, mode) -> PartialState:
    entry, inside = _next_entry(c, mode, ())
    psi = plain_apply_layer(Layer(map(adjoint_gate, inside)), PartialState.zero(entry.committed))
    return plain_extend_zeros(psi, entry.fresh)


def plain_verify_kill(c, s) -> VerifyKillResult:
    """``verify_kill`` on the plain path, check for check."""
    readings = [0.0]

    def reads_zero(state, wires) -> bool:
        readings.extend(plain_reading(state, w) for w in wires)
        return max(readings) <= READING_TOL

    if not 0 < len(s.history) <= c.depth() or s.psi.wires != s.committed:
        return VerifyKillResult(False, 0.0, None)
    inside = []
    for k, entry in enumerate(s.history):
        try:
            expected, gates = _next_entry(c, s.mode, s.history[:k])
        except InvariantError:
            expected = None
        if entry != expected:
            return VerifyKillResult(False, 0.0, None)
        inside.append(gates)
    state = s.psi
    for k in reversed(range(len(s.history))):
        entry = s.history[k]
        kept = s.history[k - 1].committed if k else entry.committed
        if not reads_zero(state, [r.pinned_wire for r in entry.killed]):
            return VerifyKillResult(False, max(readings), None)
        state = plain_apply_layer(Layer(inside[k]), state)
        if not reads_zero(state, sorted(set(entry.committed) - set(kept))):
            return VerifyKillResult(False, max(readings), None)
        state = plain_project_zeros(state, kept)
    target_p1 = plain_reading(state, c.target)
    ok = reads_zero(state, (c.target, *range(c.n, c.wires)))
    return VerifyKillResult(ok, max(readings), target_p1)


def with_exact_gates(c: Circuit, rng: np.random.Generator) -> Circuit:
    """``c`` with about half of its single-qubit gates replaced by H or X,
    whose exact zeros (and their adjoints' -0.0 imaginary parts) the Haar
    gates never have."""
    layers = []
    for layer in c.layers:
        gates = []
        for g in layer.gates:
            if isinstance(g, SingleQubit) and rng.random() < 0.5:
                g = SingleQubit(g.wire, (HADAMARD, PAULI_X)[int(rng.integers(2))])
            gates.append(g)
        layers.append(Layer(gates))
    return dataclasses.replace(c, layers=tuple(layers))


def differential_cases():
    """200 seeded Z-ensemble circuits with n + a <= 10 and a in {0, 1, 2};
    every other one also has H and X gates."""
    for i in range(200):
        rng = np.random.default_rng(2200 + i)
        a = i % 3
        n = int(rng.integers(2, 11 - a))
        c = random_single_qubit_z_circuit(n, a, int(rng.integers(2, 6)), rng)
        yield (with_exact_gates(c, rng) if i % 2 else c), rng


def test_witness_steps_match_the_plain_path_bit_for_bit():
    steps = replays = 0
    for c, rng in differential_cases():
        for mode in ("basic", "improved"):
            s = kill_base(c, mode)
            psi = plain_kill_base(c, mode)
            assert s.psi.wires == psi.wires and same_bits(s.psi.amps, psi.amps)
            while s.k < c.depth():
                entry, inside = _next_entry(c, mode, s.history)
                try:
                    s = kill_step(s, c)
                except InvariantError:  # the cap; the plain path has no cap to compare
                    break
                psi = plain_apply_layer(Layer(map(adjoint_gate, inside)), psi)
                psi = plain_extend_zeros(psi, entry.fresh)
                assert s.history[-1] == entry
                assert s.psi.wires == psi.wires and same_bits(s.psi.amps, psi.amps), (c, mode, s.k)
                steps += 1
            if s.k < c.depth():
                continue
            # The construction's witness, and a random one over the same
            # wires, which the replay refuses at some reading.
            noisy = dataclasses.replace(s, psi=PartialState.random(s.psi.wires, rng))
            for state in (s, noisy):
                assert verify_kill(c, state) == plain_verify_kill(c, state), (c, mode)
                replays += 1
    assert steps > 400 and replays > 600


def test_witness_steps_compile_one_slice_per_step_with_gates_inside(monkeypatch):
    """On the kill-campaign seed-0 pool, ``kill_run`` and ``verify_kill``
    each compile one single-layer slice for each step whose layer has gates
    inside K, the output layer's included; a step without them compiles
    nothing."""
    compiled = []
    original = sim.compile_layers

    def counting(layers, wires):
        compiled.append(len(layers))
        return original(layers, wires)

    monkeypatch.setattr(sim, "compile_layers", counting)
    empty_steps = 0
    for c, _ in kill_campaign_cases():
        for mode in ("basic", "improved"):
            compiled.clear()
            s = kill_run(c, mode)
            built = len(compiled)
            assert verify_kill(c, s).ok
            with_gates = [bool(_next_entry(c, mode, s.history[:k])[1]) for k in range(c.depth())]
            assert built == sum(with_gates)
            assert len(compiled) - built == sum(with_gates)
            assert set(compiled) <= {1}
            empty_steps += with_gates.count(False)
    assert empty_steps > 100


@pytest.mark.parametrize("mode", ["basic", "improved"])
def test_an_empty_step_returns_the_witness_itself(mode):
    """A layer with no gates inside K leaves the witness object as it is."""
    for c, _ in kill_campaign_cases():
        s = kill_base(c, mode)
        entry, inside = _next_entry(c, mode, s.history)
        if not inside and not entry.fresh:
            assert kill_step(s, c).psi is s.psi
            return
    pytest.fail("no empty second step in the pool")
