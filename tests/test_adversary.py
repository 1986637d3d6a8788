import dataclasses
import json
import pathlib

import numpy as np
import pytest

from qshallow import (
    HADAMARD,
    Circuit,
    Cnot,
    InvariantError,
    KillRecord,
    Layer,
    MeasurementSpec,
    PartialState,
    ReferenceOp,
    SingleQubit,
    ZGate,
    apply_layer,
    build_parity_logdepth,
    dense_operator,
    certificate_from_json,
    certificate_to_json,
    committed_bound,
    kill_base,
    kill_run,
    kill_step,
    parity_certificate,
    read_target,
    recheck_certificate,
    rewrite_toffoli_to_z,
    robust_check,
    run,
    strip_killed,
    verify_clean,
    verify_kill,
)
from qshallow.randcirc import random_single_qubit_z_circuit
import qshallow.adversary as adversary
import qshallow.sim as sim
from qshallow.sim import (
    block_columns,
    column_probabilities,
    compile_layers,
    random_amps,
    tensor_indices,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_base_case_single_qubit_fed_target():
    c = Circuit(n=1, a=0, target=0, layers=(Layer([SingleQubit(0, HADAMARD)]),))
    s = kill_base(c, "improved")
    assert s.committed == (0,)
    assert s.fresh_zero == frozenset()
    # H is self-adjoint: psi = H|0> = |+>
    assert np.abs(s.psi.amps - 1 / np.sqrt(2)).max() <= 1e-12


def test_base_case_z_fed_target():
    c = Circuit(n=4, a=0, target=1, layers=(Layer([ZGate((1, 3))]),))
    s = kill_base(c, "improved")
    assert s.committed == (1,)
    assert np.array_equal(s.psi.amps, [1.0, 0.0])
    assert s.fresh_zero == {1}
    assert len(s.killed) == 1
    record = s.killed[0]
    assert record.via == "base-zero" and record.pinned_wire == 1
    # wire 3 is not recruited at the base: the pinned target already kills the gate
    assert 3 in s.rest


def test_base_case_unfed_ancillae():
    c = Circuit(n=1, a=2, target=0, layers=(Layer(()),))
    s = kill_base(c, "improved")
    assert s.committed == (0, 1, 2)
    assert np.array_equal(s.psi.amps, [1.0] + [0.0] * 7)
    assert s.fresh_zero == frozenset()


def test_base_requires_single_qubit_z_circuit():
    c = Circuit(n=2, a=0, target=1, layers=(Layer([Cnot(0, 1)]),))
    with pytest.raises(ValueError, match="rewrite"):
        kill_base(c, "improved")
    with pytest.raises(ValueError, match="depth"):
        kill_base(Circuit(n=2, a=0, target=1, layers=()), "improved")


def test_step_fresh_zero_kills_without_recruitment():
    # Layer with Z({2,5}); wire 2 committed and fresh; improved mode kills free.
    c = Circuit(
        n=6,
        a=0,
        target=2,
        layers=(Layer([ZGate((2, 5))]), Layer([ZGate((2, 0))])),
    )
    s1 = kill_base(c, "improved")  # kills Z(2,0) via pinned target, 2 fresh
    assert s1.fresh_zero == {2}
    s2 = kill_step(s1, c)
    assert s2.committed == (2,)  # no recruitment
    assert s2.killed[-1].via == "fresh-zero"
    assert 5 in s2.rest

    # Same circuit in basic mode: wire 5 is recruited and pinned.
    s1b = kill_base(c, "basic")
    s2b = kill_step(s1b, c)
    assert s2b.committed == (2, 5)
    assert s2b.killed[-1].via == "recruited"
    assert s2b.killed[-1].pinned_wire == 5
    assert np.array_equal(s2b.psi.amps, [1.0, 0.0, 0.0, 0.0])


def test_step_single_qubit_layer_no_recruitment():
    c = Circuit(
        n=2,
        a=0,
        target=1,
        layers=(Layer([SingleQubit(1, X)]), Layer([SingleQubit(1, HADAMARD)])),
    )
    s = kill_run(c, "improved")
    assert s.committed == (1,)
    # psi = X^dag H^dag |0> = X |+> = |+>
    assert np.abs(s.psi.amps - 1 / np.sqrt(2)).max() <= 1e-12


def test_hand_trace_depth_two():
    # Output H(t), deeper Z({t,1}): K_2 = {t,1}, psi = |0>_1 (x) |+>_t.
    c = Circuit(
        n=3,
        a=0,
        target=2,
        layers=(Layer([ZGate((1, 2))]), Layer([SingleQubit(2, HADAMARD)])),
    )
    s = kill_run(c, "improved")
    assert s.k == 2
    assert s.committed == (1, 2)
    expected = np.zeros(4, dtype=complex)
    expected[0b00] = 1 / np.sqrt(2)
    expected[0b10] = 1 / np.sqrt(2)  # wire 2 is bit 1
    assert np.abs(s.psi.amps - expected).max() <= 1e-12
    result = verify_kill(c, s, trials=20)
    assert result.ok


def test_recruitment_prefers_ancillae_then_least_index():
    c = Circuit(
        n=3,
        a=2,
        target=0,
        layers=(Layer([ZGate((0, 1, 2))]), Layer([SingleQubit(0, HADAMARD)])),
    )
    # Ancillae 3,4 are committed from the start; the straddling Z offers
    # input wires 1 and 2 only: least index 1 is taken.
    s = kill_run(c, "improved")
    assert s.killed[-1].pinned_wire == 1

    c2 = Circuit(
        n=2,
        a=1,
        target=0,
        layers=(Layer([ZGate((0, 1))]), Layer([SingleQubit(0, HADAMARD)])),
    )
    s2 = kill_run(c2, "improved")
    # only input wire 1 is on offer
    assert s2.killed[-1].pinned_wire == 1


def test_step_records_fresh_zero_kills_before_recruits():
    # K = {3, 4} after the base step, which pins the target 3. In the next
    # layer gate 0, Z(0,4), has no pinned wire and recruits wire 0, while
    # gate 1, Z(1,3), is killed for free via wire 3: the records still list
    # the fresh-zero kill first.
    c = Circuit(
        n=4,
        a=1,
        target=3,
        layers=(Layer([ZGate((0, 4)), ZGate((1, 3))]), Layer([ZGate((2, 3))])),
    )
    s = kill_step(kill_base(c, "improved"), c)
    assert s.history[-1].killed == (
        KillRecord(layer=0, gate_index=1, wires=(1, 3), pinned_wire=3, via="fresh-zero"),
        KillRecord(layer=0, gate_index=0, wires=(0, 4), pinned_wire=0, via="recruited"),
    )
    assert s.committed == (0, 3, 4)
    assert s.fresh_zero == {0}
    assert verify_kill(c, s).ok


def test_step_refuses_a_non_z_gate_straddling_k():
    # kill_base refuses a Cnot anywhere in the circuit, so hand kill_step a
    # circuit whose deeper layer holds one, across K = {1} and wire 0.
    base = kill_base(
        Circuit(n=2, a=0, target=1, layers=(Layer([]), Layer([SingleQubit(1, HADAMARD)]))),
        "improved",
    )
    c = Circuit(
        n=2, a=0, target=1, layers=(Layer([Cnot(0, 1)]), Layer([SingleQubit(1, HADAMARD)]))
    )
    with pytest.raises(
        InvariantError,
        match=r"^layer 0, gate 0: unexpected committed-side overlap \[0, 1\] vs committed \[1\]$",
    ):
        kill_step(base, c)


def test_size_bounds_hold_on_campaign():
    rng = np.random.default_rng(0)
    for _ in range(100):
        c = random_single_qubit_z_circuit(10, 0, 4, rng)
        for mode in ("basic", "improved"):
            s = kill_base(c, mode)
            while s.k < c.depth():
                s = kill_step(s, c)
                assert len(s.committed) <= committed_bound(mode, c.a, s.k)
            assert set(s.committed) | set(s.rest) == set(range(c.wires))
            assert not set(s.committed) & set(s.rest)
            assert s.psi.wires == s.committed


def test_improved_bound_breach_raises():
    # Worst-case growth: the target meets a fresh-avoiding straddling Z-gate
    # in three consecutive layers while an earlier recruit meets another; the
    # committed set reaches 5 wires at step 4, over the improved cap of 4.
    t, a1, a2, a3, a4 = 0, 1, 2, 3, 4
    c = Circuit(
        n=6,
        a=0,
        target=t,
        layers=(
            Layer([ZGate((t, a3)), ZGate((a1, a4))]),
            Layer([ZGate((t, a2))]),
            Layer([ZGate((t, a1))]),
            Layer([SingleQubit(t, HADAMARD)]),
        ),
    )
    with pytest.raises(InvariantError, match="exceeding"):
        kill_run(c, "improved")
    # Basic mode has the room, and its witness still works.
    s = kill_run(c, "basic")
    assert len(s.committed) == 5 <= committed_bound("basic", 0, 4)
    assert verify_kill(c, s, trials=10).ok


@pytest.mark.parametrize("mode", ["basic", "improved"])
def test_verify_kill_on_random_circuits(mode):
    rng = np.random.default_rng(42)
    for i in range(20):
        c = random_single_qubit_z_circuit(9, 0, 3, rng)
        s = kill_run(c, mode)
        result = verify_kill(c, s, trials=20, seed=i)
        assert result.ok, (i, result.max_p1, result.max_state_diff)
        assert result.max_p1 <= 1e-9
        assert result.max_state_diff <= 1e-10


def test_verify_kill_depth_one_z_fed_all_ones_rest():
    # Z-gate feeding the pinned target is inert even on the all-ones rest.
    c = Circuit(n=3, a=0, target=0, layers=(Layer([ZGate((0, 1, 2))]),))
    s = kill_run(c, "improved")
    rest_state = PartialState.basis(s.rest, {w: 1 for w in s.rest})
    out = run(c, rest_state.tensor(s.psi))
    assert read_target(out, MeasurementSpec(0)).p1 == 0.0


def two_suffix_verify_kill(c, s, trials, seed):
    """(readings, max state diff, ok) with each block simulated through two
    independently compiled suffixes, the full one and the stripped one, from
    the same draws in the same blocks as ``verify_kill``."""
    rng = np.random.default_rng(seed)
    from_layer = c.depth() - s.k
    wires, own, theirs = tensor_indices(s.rest, s.psi.wires)
    full = compile_layers(c.layers[from_layer:], wires)
    stripped = compile_layers(strip_killed(c, s.killed).layers[from_layer:], wires)
    target = wires.index(c.target)
    witness = s.psi.amps[theirs][:, None]
    count = trials + 1
    step = block_columns(len(wires))
    readings, diffs = [], []
    for first in range(0, count, step):
        rest = np.zeros((2 ** len(s.rest), min(step, count - first)), dtype=complex)
        for j in range(rest.shape[1]):
            if first + j == 0 or not s.rest:
                rest[0, j] = 1.0
            else:
                rest[:, j] = random_amps(len(s.rest), rng)
        start = rest[own] * witness
        out_full = full.apply(start.copy())
        out_killed = stripped.apply(start)
        p_full = column_probabilities(out_full, target)
        p_killed = column_probabilities(out_killed, target)
        readings += zip(p_full.tolist(), p_killed.tolist())
        diffs.append(np.abs(out_killed - out_full).max())
    max_diff = float(max(diffs))
    ok = max(max(pair) for pair in readings) <= 1e-9 and max_diff <= 1e-10
    return readings, max_diff, ok


def kill_states(c, mode):
    """Every KillState of the construction, from the base case to k = depth."""
    s = kill_base(c, mode)
    states = [s]
    while s.k < c.depth():
        s = kill_step(s, c)
        states.append(s)
    return states


def test_verify_kill_matches_two_independent_suffix_runs():
    """Sharing the part of the two suffixes before the first killed gate
    changes no reading. The seeds put the first killed layer at every offset
    from the first processed layer, in full and partial kill states, and
    include states with no killed gate. A true witness reads ~0 whatever the
    suffix does elsewhere, so each state is also checked with a random
    witness, whose readings and state differences are far from 0."""
    seen = set()
    for seed in (0, 2, 3, 4, 6, 12):
        rng = np.random.default_rng(seed)
        c = random_single_qubit_z_circuit(8 + seed % 5, 0, 4, rng)
        for mode in ("basic", "improved"):
            for s in kill_states(c, mode):
                from_layer = c.depth() - s.k
                split = min((r.layer - from_layer for r in s.killed), default=None)
                seen.add((s.k, split))
                noise = dataclasses.replace(s, psi=PartialState.random(s.psi.wires, rng))
                for state in (s, noise):
                    result = verify_kill(c, state, trials=9, seed=seed)
                    readings, max_diff, ok = two_suffix_verify_kill(c, state, 9, seed)
                    assert len(result.readings) == len(readings) == 10
                    for got, want in zip(result.readings, readings):
                        assert abs(got[0] - want[0]) <= 1e-15
                        assert abs(got[1] - want[1]) <= 1e-15
                    assert abs(result.max_state_diff - max_diff) <= 1e-15
                    assert result.ok == ok
                assert result.max_p1 > 1e-3 and not result.ok
    offsets = {(k, split) for k in range(1, 5) for split in [*range(k), None]}
    assert seen == offsets


def test_verify_kill_applies_each_part_once_without_kills(monkeypatch):
    """With no killed gate, the full and stripped suffixes are one circuit,
    so each of its compiled parts runs once per block, not once per suffix."""
    c = random_single_qubit_z_circuit(12, 0, 4, np.random.default_rng(3))
    s = kill_run(c, "improved")
    assert not s.killed
    wires = tensor_indices(s.rest, s.psi.wires)[0]
    suffix = compile_layers(c.layers[c.depth() - s.k :], wires).parts
    trials = block_columns(len(wires)) - 1  # one block
    seen = []
    original = sim.apply_gate

    def counting(part, block):
        seen.append(part)
        return original(part, block)

    monkeypatch.setattr(sim, "apply_gate", counting)
    assert verify_kill(c, s, trials=trials).ok
    assert len(seen) == len(suffix) > 0
    for got, want in zip(seen, suffix):
        assert type(got) is type(want)
        for field in dataclasses.fields(want):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name))


def forward_cone(c, s):
    """(layer, gate index) of every gate in the killed gates' forward cone:
    a gate is in it if it is killed or touches a wire that cone gates of
    earlier layers hold."""
    killed = {(r.layer, r.gate_index) for r in s.killed}
    wires, gates = set(), set()
    for i in range(c.depth() - s.k, c.depth()):
        grown = set()
        for j, g in enumerate(c.layers[i].gates):
            if (i, j) in killed or g.support() & wires:
                gates.add((i, j))
                grown |= g.support()
        wires |= grown
    return gates


def test_verify_kill_applies_each_part_once_with_kills(monkeypatch):
    """Per block, every part of the shared part (the suffix outside the killed
    gates' forward cone) runs once, and each tail's parts run once: only the
    cone is simulated per suffix."""
    c = random_single_qubit_z_circuit(12, 0, 4, np.random.default_rng(0))
    s = kill_run(c, "basic")
    from_layer = c.depth() - s.k
    cone = forward_cone(c, s)
    assert s.killed and 0 < len(cone) < sum(len(layer.gates) for layer in c.layers)
    wires = tensor_indices(s.rest, s.psi.wires)[0]
    outside = [
        Layer(g for j, g in enumerate(c.layers[i].gates) if (i, j) not in cone)
        for i in range(from_layer, c.depth())
    ]
    want_shared = compile_layers(outside, wires).parts
    compiled, seen = [], []
    original_compile, original_apply = adversary.compile_layers, sim.apply_gate

    def recording_compile(layers, order):
        compiled.append(original_compile(layers, order))
        return compiled[-1]

    def counting(part, block):
        seen.append(id(part))
        return original_apply(part, block)

    monkeypatch.setattr(adversary, "compile_layers", recording_compile)
    monkeypatch.setattr(sim, "apply_gate", counting)
    blocks = 3
    assert verify_kill(c, s, trials=blocks * block_columns(len(wires)) - 1).ok
    shared, full, stripped = (compiled_layers.parts for compiled_layers in compiled)
    assert len(shared) == len(want_shared) > 0 and full
    for got, want in zip(shared, want_shared):
        assert type(got) is type(want)
        for field in dataclasses.fields(want):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name))
    assert len(seen) == blocks * (len(shared) + len(full) + len(stripped))
    for part in shared + full + stripped:
        assert seen.count(id(part)) == blocks


@pytest.mark.parametrize("seed", range(8))
def test_cone_split_keeps_both_suffix_operators(seed):
    """Shared part then full tail is the processed suffix, and shared part
    then stripped tail is the stripped suffix, as dense operators; every
    suffix gate lands in exactly one of the shared part and the full tail,
    the full tail holding the killed gates' forward cone."""
    rng = np.random.default_rng(seed)
    a = seed % 3
    n = int(rng.integers(4, 9 - a))
    heavy = {"p_single": 0.3, "p_join_z": 0.9} if seed % 2 else {}
    c = random_single_qubit_z_circuit(n, a, 4, rng, **heavy)
    for mode in ("basic", "improved"):
        for s in kill_states(c, mode):
            from_layer = c.depth() - s.k
            shared, full, stripped = adversary._cone_split(c, from_layer, s.killed)
            assert len(shared) == len(full) == len(stripped) == s.k
            cone = forward_cone(c, s)
            for i, (out, inside, kept) in enumerate(zip(shared, full, stripped)):
                gates = c.layers[from_layer + i].gates
                want_inside = [g for j, g in enumerate(gates) if (from_layer + i, j) in cone]
                assert list(inside.gates) == want_inside
                assert list(out.gates) == [g for g in gates if g not in want_inside]
                assert list(kept.gates) == [
                    g for g in strip_killed(c, s.killed).layers[from_layer + i].gates
                    if g in want_inside
                ]

            def operator(layers):
                return dense_operator(dataclasses.replace(c, layers=tuple(layers)))

            suffix = c.layers[from_layer:]
            stripped_suffix = strip_killed(c, s.killed).layers[from_layer:]
            assert np.abs(operator(shared + full) - operator(suffix)).max() <= 1e-12
            assert np.abs(operator(shared + stripped) - operator(stripped_suffix)).max() <= 1e-12


def fibonacci(m):
    prev, cur = 0, 1
    for _ in range(m - 1):
        prev, cur = cur, prev + cur
    return cur


EIGHT_WIRE = Circuit(
    n=8,
    a=0,
    target=7,
    layers=(
        Layer([ZGate((3, 7)), ZGate((0, 4)), ZGate((1, 5))]),
        Layer([ZGate((1, 7)), ZGate((0, 2))]),
        Layer([ZGate((0, 7))]),
        Layer([SingleQubit(7, HADAMARD)]),
    ),
)


def test_improved_growth_meets_the_fibonacci_bound(monkeypatch):
    """With the asserted cap switched off, improved mode's committed set
    never exceeds (a+1)*F(k+1), the growth that tradeoff_bound's
    unbounded-gate depth rests on: seeded Z-heavy draws at n=64 (depth 7-8)
    and n=1000 (depth 6), and the 8-wire circuit, which meets it at every
    step and exceeds today's asserted cap (a+1)*2^ceil(k/2) at step 4."""
    monkeypatch.setattr(adversary, "_assert_bound", lambda *args: None)
    sizes = [len(s.committed) for s in kill_states(EIGHT_WIRE, "improved")]
    assert sizes == [fibonacci(k + 1) for k in range(1, 5)] == [1, 2, 3, 5]
    assert sizes[-1] > committed_bound("improved", 0, 4)
    over_cap = 0
    for n, depths in ((64, (7, 8)), (1000, (6,))):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            depth = depths[seed % len(depths)]
            c = random_single_qubit_z_circuit(n, 0, depth, rng, p_single=0.3, p_join_z=0.9)
            for s in kill_states(c, "improved"):
                assert len(s.committed) <= fibonacci(s.k + 1), (n, seed, s.k)
                over_cap += len(s.committed) > committed_bound("improved", 0, s.k)
    assert over_cap > 0


def test_verify_kill_refuses_negative_trials(monkeypatch):
    c = random_single_qubit_z_circuit(8, 0, 3, np.random.default_rng(5))
    s = kill_run(c, "improved")

    def no_compile(*args):
        raise AssertionError("compiled before the trial count was checked")

    with monkeypatch.context() as patch:
        patch.setattr(adversary, "compile_layers", no_compile)
        with pytest.raises(ValueError, match=r"trials must be >= 0, got -1"):
            verify_kill(c, s, trials=-1)
    # trials=0 still checks the all-zeros rest state, and only that one.
    result = verify_kill(c, s, trials=0)
    assert result.ok and result.trials == 1 and len(result.readings) == 1
    start = PartialState.zero(s.rest).tensor(s.psi)
    suffix = dataclasses.replace(c, layers=c.layers[c.depth() - s.k :])
    p1 = run(suffix, start).restricted_probability(c.target, 1)
    assert abs(result.readings[0][0] - p1) <= 1e-15


def test_strip_killed_removes_only_killed_gates():
    c = Circuit(
        n=3,
        a=0,
        target=2,
        layers=(Layer([ZGate((1, 2)), SingleQubit(0, HADAMARD)]),),
    )
    s = kill_run(c, "improved")
    stripped = strip_killed(c, s.killed)
    assert stripped.layers[0].gates == (SingleQubit(0, HADAMARD),)


def test_witness_pullback_structure():
    # Applying a processed layer's surviving committed-side gates forward to
    # the new witness recovers the previous witness tensor |0> on recruits.
    rng = np.random.default_rng(7)
    for _ in range(15):
        c = random_single_qubit_z_circuit(8, 0, 3, rng)
        s_prev = kill_base(c, "improved")
        while s_prev.k < c.depth():
            s_next = kill_step(s_prev, c)
            layer_index = c.depth() - 1 - s_prev.k
            killed_here = {
                (r.layer, r.gate_index) for r in s_next.killed if r.layer == layer_index
            }
            forward = s_next.psi
            for j, g in enumerate(c.layers[layer_index].gates):
                if (layer_index, j) in killed_here:
                    continue
                if g.support() <= set(s_prev.committed):
                    forward = apply_layer(Layer([g]), forward)
            recruited = tuple(
                w for w in s_next.committed if w not in s_prev.committed
            )
            expected = s_prev.psi.extend_zeros(recruited)
            assert forward.wires == expected.wires
            assert np.abs(forward.amps - expected.amps).max() <= 1e-10
            s_prev = s_next


# -- certificates ------------------------------------------------------------


def test_certificate_identity_circuit():
    ident = Circuit(
        n=4,
        a=0,
        target=3,
        layers=(Layer([SingleQubit(w, I2) for w in range(4)]),),
    )
    cert = parity_certificate(ident, "improved")
    assert cert.verdict == "not-parity"
    assert cert.free_input == 0
    assert cert.readings == (0.0, 0.0)
    assert cert.reference_readings == (0.0, 1.0)
    assert cert.ancilla_consistency
    assert recheck_certificate(cert, ident)


def test_certificate_true_parity_inconclusive():
    c = rewrite_toffoli_to_z(build_parity_logdepth(8))
    for mode in ("basic", "improved"):
        cert = parity_certificate(c, mode)
        assert cert.verdict == "inconclusive"
        assert cert.free_input is None
        assert recheck_certificate(cert, c)
    assert verify_clean(c, ReferenceOp("parity", 8)).ok


def test_certificate_true_fanout_inconclusive():
    # The fanout route conjugates back to the parity circuit, which defeats
    # the construction just the same.
    c = rewrite_toffoli_to_z(build_parity_logdepth(4))
    from qshallow import conjugate_parity_to_fanout

    fanout_circuit = conjugate_parity_to_fanout(c)
    cert = parity_certificate(fanout_circuit, "improved", against="fanout")
    assert cert.verdict == "inconclusive"


def test_certificate_campaign_not_parity_and_rechecks():
    rng = np.random.default_rng(0)
    for i in range(30):
        c = random_single_qubit_z_circuit(12, 0, 4, rng)
        cert = parity_certificate(c, "improved")
        assert cert.verdict == "not-parity", i
        assert cert.readings[0] <= 1e-9 and cert.readings[1] <= 1e-9
        # the parity operator's readings on the two inputs complement each other
        assert cert.reference_readings[0] + cert.reference_readings[1] == pytest.approx(
            1.0, abs=1e-9
        )
        assert max(cert.reference_readings) >= 0.5 - 1e-9
        assert recheck_certificate(cert, c)


def test_certificate_mixed_parity_witness_still_sound():
    # A target fed by H has a witness with both even and odd support: the
    # parity operator reads 1/2 on both test inputs while the circuit reads 0.
    c = Circuit(n=4, a=0, target=3, layers=(Layer([SingleQubit(3, HADAMARD)]),))
    cert = parity_certificate(c, "improved")
    assert cert.verdict == "not-parity"
    assert cert.readings == (0.0, 0.0)
    assert cert.reference_readings[0] == pytest.approx(0.5, abs=1e-12)
    assert cert.reference_readings[1] == pytest.approx(0.5, abs=1e-12)
    assert recheck_certificate(cert, c)


def test_certificate_pure_parity_witness_flips_by_one():
    ident = Circuit(
        n=3, a=0, target=2, layers=(Layer([SingleQubit(2, I2)]),)
    )
    cert = parity_certificate(ident, "improved")
    assert abs(cert.reference_readings[0] - cert.reference_readings[1]) == 1.0


def test_fanout_certificate_via_conjugation():
    rng = np.random.default_rng(9)
    c = random_single_qubit_z_circuit(12, 0, 3, rng)
    cert = parity_certificate(c, "improved", against="fanout")
    assert cert.verdict == "not-fanout"
    assert recheck_certificate(cert, c)


def test_ancilla_consistency_flag():
    # An ancilla fed by H in the output layer leaves the witness excited there.
    c = Circuit(
        n=2,
        a=1,
        target=1,
        layers=(Layer([SingleQubit(2, HADAMARD)]), Layer([SingleQubit(1, HADAMARD)])),
    )
    cert = parity_certificate(c, "improved")
    assert cert.verdict == "not-parity"
    assert not cert.ancilla_consistency

    clean = Circuit(
        n=2, a=1, target=1, layers=(Layer([SingleQubit(1, HADAMARD)]),)
    )
    assert parity_certificate(clean, "improved").ancilla_consistency


def test_certificate_json_roundtrip_byte_exact():
    rng = np.random.default_rng(4)
    c = random_single_qubit_z_circuit(10, 0, 3, rng)
    cert = parity_certificate(c, "improved")
    text = certificate_to_json(cert)
    again = certificate_from_json(text)
    assert certificate_to_json(again) == text
    assert again == cert
    assert recheck_certificate(again, c)
    golden = json.loads((pathlib.Path(__file__).parent / "data" / "golden.json").read_text())
    texts = [t for name, t in golden.items() if name.startswith("certificate ") and t[0] == "{"]
    assert len(texts) > 80
    for text in texts:
        assert certificate_to_json(certificate_from_json(text)) == text


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: [obj],
        lambda obj: {k: v for k, v in obj.items() if k != "history"},
        lambda obj: {k: v for k, v in obj.items() if k != "witness"},
        lambda obj: {**obj, "history": 5},
        lambda obj: {**obj, "readings": 0.0},
        lambda obj: {**obj, "witness": {**obj["witness"], "amps": [[1.0]]}},
        lambda obj: {**obj, "readings": "ab"},
        lambda obj: {**obj, "reference_readings": ["a", "b"]},
        lambda obj: {**obj, "readings": obj["readings"] + [0.0]},
        lambda obj: {**obj, "reference_readings": obj["reference_readings"][:1]},
        lambda obj: {**obj, "readings": [False, False]},
    ],
    ids=[
        "array",
        "no-history",
        "no-witness",
        "history-int",
        "scalar-readings",
        "amp-1-value",
        "string-readings",
        "string-reference-readings",
        "three-readings",
        "one-reference-reading",
        "bool-readings",
    ],
)
def test_certificate_from_json_refuses_a_malformed_document(edit):
    """A certificate is read from outside the program: a document of the
    wrong shape is refused with ``ValueError``, not a crash of another type."""
    c = random_single_qubit_z_circuit(10, 0, 3, np.random.default_rng(4))
    obj = json.loads(certificate_to_json(parity_certificate(c, "improved")))
    with pytest.raises(ValueError, match="^malformed kill certificate: "):
        certificate_from_json(json.dumps(edit(obj)))


def test_recheck_rejects_wrong_circuit():
    rng = np.random.default_rng(11)
    c1 = random_single_qubit_z_circuit(10, 0, 3, rng)
    c2 = random_single_qubit_z_circuit(10, 0, 3, rng)
    cert = parity_certificate(c1, "improved")
    assert not recheck_certificate(cert, c2)


def test_recheck_rejects_a_free_input_that_is_not_free():
    c = random_single_qubit_z_circuit(8, 2, 3, np.random.default_rng(5))
    cert = parity_certificate(c, "improved")
    assert recheck_certificate(cert, c)
    # a committed wire, an ancilla, a wire past the end, a string, the free
    # input (wire 0) as a float, and as bools
    assert cert.free_input == 0
    for wire in (c.target, c.n, c.wires, "0", float(cert.free_input), False, True):
        assert not recheck_certificate(dataclasses.replace(cert, free_input=wire), c)


@pytest.mark.parametrize(
    "edit",
    [
        {"readings": "both", "reference_readings": "second"},
        {"readings": "both"},
        {"readings": "second"},
        {"reference_readings": "second"},
        {"reference_readings": "first"},
    ],
    ids=lambda edit: ",".join(f"{k}={v}" for k, v in edit.items()),
)
def test_recheck_rejects_nan_readings(edit):
    """Every stored reading is compared against a re-simulated one; a NaN
    must fail that comparison rather than slip past a ``>`` test."""
    c = random_single_qubit_z_circuit(12, 0, 4, np.random.default_rng(0))
    cert = parity_certificate(c, "improved")
    assert recheck_certificate(cert, c)
    obj = json.loads(certificate_to_json(cert))
    for field, which in edit.items():
        for i in {"first": [0], "second": [1], "both": [0, 1]}[which]:
            obj[field][i] = float("nan")
    edited = certificate_from_json(json.dumps(obj, indent=1))
    assert not recheck_certificate(edited, c)


def _reference_moved(first, second):
    return lambda cert: {
        "reference_readings": (
            cert.reference_readings[0] + first,
            cert.reference_readings[1] + second,
        )
    }


@pytest.mark.parametrize(
    "shape, edit",
    [
        ((12, 0, 4), lambda cert: {"verdict": "banana"}),
        ((12, 0, 4), lambda cert: {"verdict": "not-fanout"}),
        ((12, 0, 4), lambda cert: {"against": "banana", "verdict": "not-banana"}),
        ((6, 2, 3), lambda cert: {"ancilla_consistency": True}),
        ((12, 0, 4), lambda cert: {"free_input": None}),
        ((12, 0, 4), lambda cert: {"readings": None}),
        ((12, 0, 4), lambda cert: {"readings": (0.5, cert.readings[1])}),
        ((12, 0, 4), _reference_moved(1e-3, -1e-3)),
        ((12, 0, 4), _reference_moved(-1e-3, 1e-3)),
        ((12, 0, 4), _reference_moved(0.9 * sim.READING_TOL, 0.9 * sim.READING_TOL)),
        ((12, 0, 4), lambda cert: {"psi_wires": (cert.psi_wires[0] + 0.5,) + cert.psi_wires[1:]}),
        ((12, 0, 4), lambda cert: {"psi_wires": (-1,) + cert.psi_wires[1:]}),
        ((12, 0, 4), lambda cert: {"readings": cert.readings + (0.0,)}),
        ((12, 0, 4), lambda cert: {"reference_readings": cert.reference_readings + (0.0,)}),
        ((12, 0, 4), lambda cert: {"readings": cert.readings[:1]}),
    ],
    ids=[
        "verdict",
        "verdict-against-mismatch",
        "against",
        "ancilla-consistency",
        "no-free-input",
        "no-readings",
        "reading-edited",
        "reference-moved-up",
        "reference-moved-down",
        "reference-sum-above-1",
        "witness-wire-fractional",
        "witness-wire-negative",
        "third-reading",
        "third-reference-reading",
        "one-reading",
    ],
)
def test_recheck_rejects_edited_claims(shape, edit):
    """The verdict must be not-{against} for an against of parity or fanout,
    and the ancilla flag must be the one the witness gives. The n=6, a=2
    certificate's witness excites an ancilla, so its flag is false. A
    not-parity verdict needs a free input and stored readings; each stored
    reading must match the recomputed one within ``READING_TOL``, and the
    reference readings must sum to 1, which two readings each raised by
    less than the tolerance do not. A witness wire must be an int the
    circuit has, and each readings tuple must hold exactly two numbers."""
    c = random_single_qubit_z_circuit(*shape, np.random.default_rng(0))
    cert = parity_certificate(c, "improved")
    assert cert.verdict == "not-parity" and recheck_certificate(cert, c)
    edit = edit(cert)
    assert all(getattr(cert, field) != value for field, value in edit.items())
    assert not recheck_certificate(dataclasses.replace(cert, **edit), c)


@pytest.mark.parametrize(
    "edit",
    [
        lambda cert: {"psi_wires": cert.psi_wires[::-1]},
        lambda cert: {"psi_amps": tuple(2 * a for a in cert.psi_amps)},
        lambda cert: {"psi_amps": cert.psi_amps + (0j,)},
    ],
    ids=["wires-out-of-order", "norm-2", "one-amplitude-too-many"],
)
def test_recheck_rejects_a_malformed_witness(edit):
    """A witness that is not a unit state over ascending wires fails the
    recheck instead of raising."""
    c = random_single_qubit_z_circuit(12, 0, 4, np.random.default_rng(0))
    cert = parity_certificate(c, "improved")
    assert len(cert.psi_wires) > 1 and recheck_certificate(cert, c)
    assert not recheck_certificate(dataclasses.replace(cert, **edit(cert)), c)


def test_small_committed_set_guarantees_free_input():
    # (a+1) * 2^ceil(d/2) = 4 < 12: a free input always remains.
    rng = np.random.default_rng(0)
    for _ in range(40):
        c = random_single_qubit_z_circuit(12, 0, 4, rng)
        assert committed_bound("improved", 0, 4) < 12
        cert = parity_certificate(c, "improved")
        assert cert.verdict != "inconclusive"


# -- robust computation ------------------------------------------------------


def test_robust_no_ancillae_reduces_to_basis_equality():
    assert robust_check(build_parity_logdepth(4), ReferenceOp("parity", 4))
    broken = Circuit(n=3, a=0, target=2, layers=(Layer([SingleQubit(2, X)]),))
    assert not robust_check(broken, ReferenceOp("parity", 2))


def robust_parity_through_ancilla():
    # b picks up (y ^ x0 ^ x1) and then y again, netting x0 ^ x1; the
    # ancilla returns to y whatever y was.
    return Circuit(
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


def test_robust_parity_through_ancilla():
    c = robust_parity_through_ancilla()
    assert verify_clean(c, ReferenceOp("parity", 2)).ok
    assert robust_check(c, ReferenceOp("parity", 2))


def test_robust_fails_when_ancilla_flipped():
    base = robust_parity_through_ancilla()
    c = Circuit(
        n=3, a=1, target=2, layers=base.layers + (Layer([SingleQubit(3, X)]),)
    )
    assert not robust_check(c, ReferenceOp("parity", 2))


def test_robust_fails_when_ancilla_feeds_the_target():
    # Clean with the ancilla at |0>, but an excited ancilla flips the target.
    base = build_parity_logdepth(2)
    c = Circuit(n=3, a=1, target=2, layers=base.layers + (Layer([Cnot(3, 2)]),))
    assert verify_clean(c, ReferenceOp("parity", 2)).ok
    assert not robust_check(c, ReferenceOp("parity", 2))


def test_robust_guard():
    c = Circuit(n=11, a=0, target=0, layers=())
    with pytest.raises(ValueError, match="n \\+ a <= 10"):
        robust_check(c, ReferenceOp("parity", 10))


def test_robust_check_is_one_function_under_both_names():
    import qshallow
    from qshallow import adversary, verify

    assert qshallow.robust_check is adversary.robust_check is verify.robust_check
