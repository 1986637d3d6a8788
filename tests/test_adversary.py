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
    Toffoli,
    ZGate,
    apply_layer,
    build_parity_logdepth,
    certificate_from_json,
    certificate_to_json,
    committed_bound,
    dense_operator,
    kill_base,
    kill_run,
    kill_step,
    parity_certificate,
    read_target,
    recheck_certificate,
    rewrite_toffoli_to_z,
    robust_check,
    run,
    verify_clean,
    verify_kill,
)
from qshallow.randcirc import _random_unitary_2x2, random_single_qubit_z_circuit
from qshallow.reference import analyzed_circuit
import qshallow.adversary as adversary
import qshallow.sim as sim
from qshallow.sim import READING_TOL, column_probabilities, tensor_indices

from kill_oracle import strip_killed, two_suffix_verify_kill
from test_flip_pair import plain_parity_reading
from test_golden import golden_certificates

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
    result = verify_kill(c, s)
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
    assert verify_kill(c, s).ok


@pytest.mark.parametrize("mode", ["basic", "improved"])
def test_verify_kill_on_random_circuits(mode):
    rng = np.random.default_rng(42)
    for i in range(20):
        c = random_single_qubit_z_circuit(9, 0, 3, rng)
        s = kill_run(c, mode)
        result = verify_kill(c, s)
        assert result.ok, (i, result.max_p1)
        assert result.max_p1 <= 1e-9 and result.target_p1 <= result.max_p1


def test_verify_kill_refuses_a_pinned_wire_that_reads_one():
    """The output layer's Z(0, 2) is killed at the committed ancilla 2. A
    witness with that ancilla at |1> still leaves the target at 0, since the
    gate then acts on wire 0 alone, but the kill's claim is false: the replay
    refuses it on the pinned wire, before it reaches the target."""
    c = Circuit(
        n=2,
        a=1,
        target=1,
        layers=(Layer([ZGate((0, 2)), SingleQubit(1, HADAMARD)]),),
    )
    s = kill_run(c, "improved")
    assert s.killed == (KillRecord(0, 0, (0, 2), 2, "base-zero"),)
    assert verify_kill(c, s).ok
    excited = dataclasses.replace(s, psi=PartialState((1, 2), np.array([0, 0, 1, 1]) / np.sqrt(2)))
    rest = PartialState.basis(excited.rest, {0: 1})
    assert read_target(run(c, rest.tensor(excited.psi)), MeasurementSpec(1)).p1 <= 1e-30
    result = verify_kill(c, excited)
    assert not result.ok and result.max_p1 == pytest.approx(1.0) and result.target_p1 is None


@pytest.mark.parametrize("mode", ["basic", "improved"])
def test_verify_kill_and_recheck_refuse_a_history_the_circuit_breaches(mode):
    """Re-deriving the history on a circuit whose output-layer Toffoli touches
    the target and a wire outside K raises ``InvariantError``; the replay
    reads that as a refused history. The recheck analyzes that circuit's
    H-Z-H rewrite, three layers deep, and refuses the certificate on the
    history's length."""
    good = Circuit(n=2, a=0, target=1, layers=(Layer([SingleQubit(1, HADAMARD)]),))
    bad = Circuit(n=2, a=0, target=1, layers=(Layer([Toffoli((0,), 1)]),))
    with pytest.raises(InvariantError, match="unexpected committed-side overlap"):
        adversary._next_entry(bad, mode, ())
    assert verify_kill(bad, kill_run(good, mode)) == adversary.VerifyKillResult(False, 0.0, None)
    cert = parity_certificate(good, mode)
    assert recheck_certificate(cert, good)
    assert recheck_certificate(cert, bad) is False


def test_kill_step_refuses_a_run_past_the_input_layer():
    c = Circuit(n=2, a=0, target=1, layers=(Layer([SingleQubit(1, HADAMARD)]),) * 2)
    with pytest.raises(ValueError, match="all 2 layers already processed"):
        kill_step(kill_run(c, "improved"), c)


def test_kill_base_refuses_an_unknown_mode():
    c = Circuit(n=2, a=0, target=1, layers=(Layer([SingleQubit(1, HADAMARD)]),))
    with pytest.raises(ValueError, match="mode must be 'basic' or 'improved', got 'fast'"):
        kill_base(c, "fast")


def test_verify_kill_depth_one_z_fed_all_ones_rest():
    # Z-gate feeding the pinned target is inert even on the all-ones rest.
    c = Circuit(n=3, a=0, target=0, layers=(Layer([ZGate((0, 1, 2))]),))
    s = kill_run(c, "improved")
    rest_state = PartialState.basis(s.rest, {w: 1 for w in s.rest})
    out = run(c, rest_state.tensor(s.psi))
    assert read_target(out, MeasurementSpec(0)).p1 == 0.0


def kill_states(c, mode):
    """Every KillState of the construction, from the base case to k = depth."""
    s = kill_base(c, mode)
    states = [s]
    while s.k < c.depth():
        s = kill_step(s, c)
        states.append(s)
    return states


def test_verify_kill_matches_two_independent_suffix_runs():
    """The exact replay agrees on ``ok`` with the sampled oracle, which runs
    every wire through the whole suffix and through the suffix without the
    killed gates: on the Z ensemble at n = 8-12, in both modes, at every
    partial and full kill state, for the construction's witness and for a
    random one, whose readings are far from 0. The seeds put the first
    killed layer at every offset from the first processed layer, and include
    states with no killed gate."""
    seen = set()
    for seed in (0, 2, 3, 4, 6, 12):
        rng = np.random.default_rng(seed)
        c = random_single_qubit_z_circuit(8 + seed % 5, 0, 4, rng)
        for mode in ("basic", "improved"):
            for s in kill_states(c, mode):
                from_layer = c.depth() - s.k
                split = min((r.layer - from_layer for r in s.killed), default=None)
                seen.add((s.k, split))
                assert verify_kill(c, s).ok and two_suffix_verify_kill(c, s, 9, seed)["ok"]
                noise = dataclasses.replace(s, psi=PartialState.random(s.psi.wires, rng))
                result = verify_kill(c, noise)
                assert not result.ok and result.max_p1 > 1e-3
                assert not two_suffix_verify_kill(c, noise, 9, seed)["ok"]
    offsets = {(k, split) for k in range(1, 5) for split in [*range(k), None]}
    assert seen == offsets


def test_verify_kill_is_stricter_than_the_sampled_check_only_on_pinned_wires():
    """Witnesses edited by rolling their amplitudes. Whenever the replay
    accepts one, so does the sampled oracle. The replay rejects some that the
    oracle accepts: in those a wire that a kill pins to |0> reads |1>, and
    the replay stops there, before the target, though the killed gate acts
    as the identity on the sampled states anyway."""
    stricter = 0
    for seed in (0, 2, 3, 4, 6, 12):
        c = random_single_qubit_z_circuit(8 + seed % 5, 0, 4, np.random.default_rng(seed))
        for mode in ("basic", "improved"):
            for s in kill_states(c, mode):
                for shift in range(1, len(s.psi.amps)):
                    psi = PartialState(s.psi.wires, np.roll(s.psi.amps, shift))
                    rolled = dataclasses.replace(s, psi=psi)
                    result = verify_kill(c, rolled)
                    if two_suffix_verify_kill(c, rolled, 9, seed)["ok"]:
                        if not result.ok:
                            stricter += 1
                            assert result.target_p1 is None and result.max_p1 > READING_TOL
                    else:
                        assert not result.ok
    assert stricter > 0


@pytest.mark.parametrize("seed", range(8))
def test_verify_kill_matches_dense_suffix_operators(seed):
    """Small draws with ancillae, Z-heavy on odd seeds, at every kill state of
    both modes. The replay accepts the construction's witness, and what it
    proves holds for every rest basis state, so by linearity for every rest
    state: as dense operators, the processed suffix and the suffix without
    the killed gates act alike on (rest tensor psi), and leave the target at
    |0>. A random witness is refused."""
    rng = np.random.default_rng(seed)
    a = seed % 3
    n = int(rng.integers(4, 9 - a))
    heavy = {"p_single": 0.3, "p_join_z": 0.9} if seed % 2 else {}
    c = random_single_qubit_z_circuit(n, a, 4, rng, **heavy)
    for mode in ("basic", "improved"):
        for s in kill_states(c, mode):
            assert verify_kill(c, s).ok
            own, theirs = tensor_indices(s.rest, s.psi.wires)[1:]
            rests = own[:, None] == np.arange(2 ** len(s.rest))[None, :]
            start = rests * s.psi.amps[theirs][:, None]  # column r: rest basis state r, psi

            def suffix(circuit):
                layers = circuit.layers[c.depth() - s.k :]
                return dense_operator(dataclasses.replace(circuit, layers=layers)) @ start

            full = suffix(c)
            assert np.abs(full - suffix(strip_killed(c, s.killed))).max() <= 1e-10
            assert column_probabilities(full, c.target).max() <= READING_TOL
            noise = dataclasses.replace(s, psi=PartialState.random(s.psi.wires, rng))
            assert not verify_kill(c, noise).ok


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


def parity_readings(cert, c):
    """The parity operator's readings of the target on the certificate's
    flip pair, by the plain XOR oracle over the construction's witness."""
    psi = kill_run(c, cert.mode).psi
    return tuple(
        plain_parity_reading(c.n, c.target, psi.wires, psi.amps, flip)
        for flip in (None, cert.free_input)
    )


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
    assert parity_readings(cert, ident) == (0.0, 1.0)
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
        assert sum(parity_readings(cert, c)) == pytest.approx(1.0, abs=1e-9)
        assert max(parity_readings(cert, c)) >= 0.5 - 1e-9
        assert recheck_certificate(cert, c)


def test_certificate_mixed_parity_witness_still_sound():
    # A target fed by H has a witness with both even and odd support: the
    # parity operator reads 1/2 on both test inputs while the circuit reads 0.
    c = Circuit(n=4, a=0, target=3, layers=(Layer([SingleQubit(3, HADAMARD)]),))
    cert = parity_certificate(c, "improved")
    assert cert.verdict == "not-parity"
    assert cert.readings == (0.0, 0.0)
    assert parity_readings(cert, c) == pytest.approx((0.5, 0.5), abs=1e-12)
    assert recheck_certificate(cert, c)


def test_certificate_pure_parity_witness_flips_by_one():
    ident = Circuit(
        n=3, a=0, target=2, layers=(Layer([SingleQubit(2, I2)]),)
    )
    cert = parity_certificate(ident, "improved")
    baseline, flipped = parity_readings(cert, ident)
    assert abs(baseline - flipped) == 1.0


def test_fanout_certificate_via_conjugation():
    rng = np.random.default_rng(9)
    c = random_single_qubit_z_circuit(12, 0, 3, rng)
    cert = parity_certificate(c, "improved", against="fanout")
    assert cert.verdict == "not-fanout"
    assert recheck_certificate(cert, c)


def test_a_witness_excited_on_an_ancilla_still_certifies():
    """An H on an ancilla leaves the witness excited there, and the verdict
    holds either way (see ``KillCertificate``): the certificate is
    not-parity and rechecks. Without that H the witness is |0> on it."""

    def ancilla_p1(layers):
        c = Circuit(n=2, a=1, target=1, layers=layers)
        cert = parity_certificate(c, "improved")
        assert cert.verdict == "not-parity" and recheck_certificate(cert, c)
        return kill_run(c, "improved").psi.restricted_probability(2, 1)

    output = Layer([SingleQubit(1, HADAMARD)])
    assert ancilla_p1((Layer([SingleQubit(2, HADAMARD)]), output)) == pytest.approx(0.5)
    assert ancilla_p1((output,)) == 0.0


def test_parity_certificate_refuses_an_unknown_against_before_the_construction(monkeypatch):
    c = Circuit(n=2, a=0, target=1, layers=(Layer([SingleQubit(1, HADAMARD)]),))

    def construction(*args):
        raise AssertionError("the construction ran")

    monkeypatch.setattr(adversary, "_next_entry", construction)
    with pytest.raises(ValueError, match="unknown operator kind 'banana'"):
        parity_certificate(c, "improved", "banana")


def test_verify_kill_refuses_a_witness_whose_ancilla_ends_excited():
    """The replay requires every ancilla, as well as the target, to read |0>
    at the output. Ancilla 3 meets no gate here, so a witness with it at |1>
    passes every step and ends with the target at |0>; only the ancilla's
    final reading refuses it."""
    c = Circuit(
        n=3,
        a=1,
        target=2,
        layers=(Layer([ZGate((0, 1))]), Layer([SingleQubit(2, HADAMARD)])),
    )
    s = kill_run(c, "improved")
    assert s.committed == (2, 3) and verify_kill(c, s).ok
    # Bit 1 of the witness index carries ancilla 3: swap its two halves.
    flipped = s.psi.amps.reshape(2, 2)[::-1].ravel()
    check = verify_kill(c, dataclasses.replace(s, psi=PartialState(s.psi.wires, flipped)))
    assert not check.ok
    assert check.target_p1 <= READING_TOL and abs(check.max_p1 - 1.0) <= 1e-12


def conjugated_circuit(n, a, rng, clean=True):
    """A*M*A^-1 over n inputs and a ancillae. A puts a Toffoli from one or
    two of the first n // 2 inputs into each ancilla, one per layer. M is two
    layers of Z-gates over random groups and Haar single-qubit gates, on the
    other inputs when ``clean``, so M never moves a basis value of the wires
    A reads or writes, and A^-1 = A reversed returns every ancilla to |0>;
    otherwise on any wire."""
    fed = list(range(n // 2))
    conj = []
    for j in range(a):
        controls = rng.choice(fed, int(rng.integers(1, 3)), replace=False)
        conj.append(Layer([Toffoli(tuple(sorted(controls.tolist())), n + j)]))
    middle = []
    for _ in range(2):
        gates, rest = [], []
        for w in range(n + a):
            if (n // 2 <= w < n or not clean) and rng.random() < 0.5:
                q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                gates.append(SingleQubit(w, q * (np.diag(r) / np.abs(np.diag(r)))))
            else:
                rest.append(w)
        rng.shuffle(rest)
        while len(rest) >= 2:
            size = min(int(rng.integers(2, 4)), len(rest))
            gates.append(ZGate(tuple(sorted(rest[:size]))))
            rest = rest[size:]
        middle.append(Layer(gates))
    return Circuit(n=n, a=a, target=n - 1, layers=tuple(conj + middle + conj[::-1]))


def excited_witnesses(clean, draws=32):
    """Over seeded A*M*A^-1 draws (n 6-8, a 1-2), rewritten to H-Z-H and run
    in both modes with every input as target: how many circuits map an
    ancilla-zero input onto an ancilla-nonzero output (by the dense
    operator), how many constructions complete, and how many of their
    witnesses read |1> on an ancilla above ``READING_TOL``."""
    rng = np.random.default_rng(3000 if clean else 3100)
    leaky = completed = excited = 0
    for _ in range(draws):
        n, a = int(rng.integers(6, 9)), int(rng.integers(1, 3))
        c = conjugated_circuit(n, a, rng, clean)
        leaky += np.count_nonzero(dense_operator(c)[2**n :, : 2**n]) > 0
        z = rewrite_toffoli_to_z(c)
        for target in range(n):
            for mode in ("basic", "improved"):
                try:
                    s = kill_run(dataclasses.replace(z, target=target), mode)
                except InvariantError:
                    continue
                completed += 1
                excited += any(
                    s.psi.restricted_probability(w, 1) > READING_TOL for w in range(n, n + a)
                )
    return leaky, completed, excited


def test_no_construction_on_a_clean_circuit_has_an_excited_witness():
    """The ancilla-subspace lemma on clean A*M*A^-1 circuits: each maps
    ancilla-zero inputs onto ancilla-zero outputs, so no witness that
    completes is excited on an ancilla. The same family with single-qubit
    gates on A's wires too is not clean, and there the check finds excited
    witnesses."""
    leaky, completed, excited = excited_witnesses(clean=True)
    assert leaky == 0 and completed >= 400 and excited == 0
    leaky, completed, excited = excited_witnesses(clean=False)
    assert leaky > 0 and excited > completed // 2


@pytest.mark.parametrize("mode", ["basic", "improved"])
@pytest.mark.parametrize("against", ["parity", "fanout"])
def test_certificate_path_simulates_no_whole_circuit(monkeypatch, mode, against):
    """Building and rechecking a certificate reads the witness replay alone:
    with the whole-circuit simulation refused, both still succeed."""

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate path simulated a whole circuit")

    c = random_single_qubit_z_circuit(12, 0, 4, np.random.default_rng(0))
    monkeypatch.setattr(sim, "run", refuse)
    monkeypatch.setattr(adversary, "run", refuse)
    cert = parity_certificate(c, mode, against)
    assert cert.verdict == f"not-{against}"
    assert recheck_certificate(cert, c)


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
        lambda obj: {**obj, "history": 5},
        lambda obj: {**obj, "readings": 0.0},
        lambda obj: {**obj, "readings": "ab"},
        lambda obj: {**obj, "reference_readings": ["a", "b"]},
        lambda obj: {**obj, "readings": [0.0, 0.0, 0.0]},
        lambda obj: {**obj, "readings": [False, False]},
        lambda obj: {**obj, "circuit_sha256": "0" * 64},
        lambda obj: {**obj, "mode": "banana"},
        lambda obj: edit_step(obj, k=True),
        lambda obj: edit_step(obj, committed=["a"]),
        lambda obj: edit_step(obj, fresh=[0.0]),
        lambda obj: edit_kill(obj, via="banana"),
        lambda obj: edit_kill(obj, pinned_wire=2.5),
        lambda obj: edit_kill(obj, layer=False),
        lambda obj: edit_kill(obj, wires=["0", 1]),
        lambda obj: {**obj, "version": 5},
        lambda obj: {**obj, "version": "9.9"},
        lambda obj: {**obj, "extra": 1},
        lambda obj: {**obj, "ancilla_consistency": 1},
        lambda obj: edit_witness_wire(obj, "2"),
        lambda obj: edit_witness_wire(obj, [2]),
        lambda obj: edit_witness_wire(obj, None),
        lambda obj: edit_step(obj, extra=1),
        lambda obj: edit_kill(obj, extra=1),
    ],
    ids=[
        "array",
        "no-history",
        "history-int",
        "scalar-readings",
        "string-readings",
        "string-reference-readings",
        "three-readings",
        "bool-readings",
        "circuit-sha256",
        "mode",
        "bool-k",
        "string-committed",
        "float-fresh",
        "via",
        "fractional-pinned-wire",
        "bool-layer",
        "string-kill-wire",
        "int-version",
        "unknown-version",
        "extra-field",
        "int-ancilla-consistency",
        "string-witness-wire",
        "list-witness-wire",
        "null-witness-wire",
        "extra-history-key",
        "extra-kill-key",
    ],
)
def test_certificate_from_json_refuses_a_malformed_document(edit):
    """A certificate is read from outside the program: a document of the
    wrong shape is refused with ``ValueError``, not a crash of another type.
    That includes a ``mode`` other than basic or improved, a ``via`` the
    construction never writes, history integers that are not ints, a
    ``version`` other than the package's, a field the writer does not write
    at any level (an earlier layout's ``readings``, ``circuit_sha256``,
    ``reference_readings`` or ``ancilla_consistency`` among them), and wires
    of the last committed set that are not ints."""
    c = random_single_qubit_z_circuit(12, 0, 4, np.random.default_rng(0))
    obj = json.loads(certificate_to_json(parity_certificate(c, "improved")))
    with pytest.raises(ValueError, match="^malformed kill certificate: "):
        certificate_from_json(json.dumps(edit(obj)))


@pytest.mark.parametrize(
    "truncate",
    [
        lambda text: "",
        lambda text: text[:1],
        lambda text: text[: len(text) // 2],
        lambda text: text[:-1],
    ],
    ids=["empty", "brace", "half", "no-last-brace"],
)
def test_certificate_from_json_refuses_a_truncated_document(truncate):
    """A document that is not JSON, as a truncated one is, is malformed too:
    its ``JSONDecodeError`` is wrapped, not let through."""
    c = random_single_qubit_z_circuit(12, 0, 4, np.random.default_rng(0))
    text = certificate_to_json(parity_certificate(c, "improved"))
    with pytest.raises(ValueError, match="^malformed kill certificate: ") as exc:
        certificate_from_json(truncate(text))
    assert isinstance(exc.value.__cause__, json.JSONDecodeError)


def edit_step(obj, step=0, **fields):
    """The document with ``fields`` replaced in history entry ``step``."""
    history = [dict(e) for e in obj["history"]]
    history[step].update(fields)
    return {**obj, "history": history}


def edit_witness_wire(obj, wire):
    """The document with the witness's first wire, the first of the last
    committed set, replaced by ``wire``."""
    committed = obj["history"][-1]["committed"]
    return edit_step(obj, -1, committed=[wire, *committed[1:]])


def edit_kill(obj, **fields):
    """The document with ``fields`` replaced in its first kill record."""
    step = next(i for i, e in enumerate(obj["history"]) if e["killed"])
    killed = obj["history"][step]["killed"]
    return edit_step(obj, step, killed=[{**killed[0], **fields}, *killed[1:]])


def history_edits(obj, analyzed):
    """(name, document) of each edit of the kill history that a recheck must
    refuse: an empty history, one without its last step, and per step a
    dropped and an added committed wire, a removed kill record, the pin moved
    to the gate's other wire, a kill pointed at a gate that is not a Z-gate,
    and the step swapped with the next one."""
    history = obj["history"]
    yield "empty", {**obj, "history": []}
    yield "truncated", {**obj, "history": history[:-1]}
    non_z = [
        (i, j)
        for i, layer in enumerate(analyzed.layers)
        for j, g in enumerate(layer.gates)
        if not isinstance(g, ZGate)
    ]
    for step, e in enumerate(history):
        committed = e["committed"]
        yield f"step {step}: drop wire", edit_step(obj, step, committed=committed[:-1])
        extra = min(set(range(analyzed.wires)) - set(committed), default=None)
        if extra is not None:
            added = sorted([*committed, extra])
            yield f"step {step}: add wire {extra}", edit_step(obj, step, committed=added)
        if step + 1 < len(history):
            swapped = [*history[:step], history[step + 1], e, *history[step + 2 :]]
            yield f"steps {step}, {step + 1} swapped", {**obj, "history": swapped}
        if not e["killed"]:
            continue
        first, *others = e["killed"]
        yield f"step {step}: kill removed", edit_step(obj, step, killed=others)
        for wire in first["wires"]:
            if wire != first["pinned_wire"]:
                moved = {**first, "pinned_wire": wire}
                yield f"step {step}: pin moved to {wire}", edit_step(obj, step, killed=[moved, *others])
                break
        if non_z:
            layer, j = min(non_z, key=lambda lj: lj[0] != first["layer"])
            at = {**first, "layer": layer, "gate_index": j}
            yield f"step {step}: kill at non-Z gate", edit_step(obj, step, killed=[at, *others])


def test_recheck_refuses_every_edit_of_a_golden_kill_history():
    """Every golden certificate rechecks, and no edit of its kill history
    does: each edit is refused when parsed or fails the recheck."""
    count = 0
    for case, analyzed, c, obj in golden_certificates():
        assert recheck_certificate(certificate_from_json(json.dumps(obj)), c)
        for name, edited in history_edits(obj, analyzed):
            assert edited["history"] != obj["history"]
            try:
                cert = certificate_from_json(json.dumps(edited))
            except ValueError:
                continue
            assert not recheck_certificate(cert, c), (case, name)
            count += 1
    assert count > 1000


def value_edits(value, wires):
    """Replacements for one JSON value: a string, a list, an object, null
    and both bools; for an int, a float and the wires -1 and ``wires``; for
    a float, NaN; for either, an int too large for a float. One that leaves
    the value equal, type included, is left out."""
    text = "x" if isinstance(value, (dict, list)) else repr(value)
    edits = [text, [value], {}, None, True, False]
    if type(value) is int:
        edits += [float(value), -1, wires]
    if type(value) is float:
        edits.append(float("nan"))
    if type(value) in (int, float):
        edits.append(10**400)  # an int too large for a float
    return [e for e in edits if not (type(e) is type(value) and e == value)]


def document_edits(node, wires):
    """(path, edited node) for each edit of ``node``: its value replaced
    (:func:`value_edits`); for an object, each key dropped, one key added,
    and the edits of each value; for an array, the edits of its first
    element."""
    for value in value_edits(node, wires):
        yield (), value
    if isinstance(node, dict):
        for key in node:
            yield (f"-{key}",), {k: v for k, v in node.items() if k != key}
        yield ("+extra",), {**node, "extra": 1}
        for key, value in node.items():
            for path, edited in document_edits(value, wires):
                yield (key, *path), {**node, key: edited}
    elif isinstance(node, list) and node:
        for path, edited in document_edits(node[0], wires):
            yield (0, *path), [edited, *node[1:]]


def test_every_edit_of_a_golden_certificate_is_refused():
    """Every golden certificate, decisive or inconclusive, rechecks; every
    edit of :func:`document_edits` is refused with ``ValueError`` when
    parsed or fails the recheck, and raises nothing else."""
    paths, rechecked = set(), 0
    for case, _, c, obj in golden_certificates():
        assert recheck_certificate(certificate_from_json(json.dumps(obj)), c)
        for path, edited in document_edits(obj, c.wires):
            paths.add(tuple(p for p in path if p != 0))
            try:
                parsed = certificate_from_json(json.dumps(edited))
            except ValueError:
                continue
            assert not recheck_certificate(parsed, c), (case, path)
            rechecked += 1
    assert rechecked > 1000
    # every level was reached: the document, its free input, a history entry and a kill record
    assert {("free_input",), ("history", "committed"), ("history", "killed", "via")} <= paths


def test_recheck_rejects_wrong_circuit():
    rng = np.random.default_rng(11)
    c1 = random_single_qubit_z_circuit(10, 0, 3, rng)
    c2 = random_single_qubit_z_circuit(10, 0, 3, rng)
    cert = parity_certificate(c1, "improved")
    assert not recheck_certificate(cert, c2)


def redrawn(c, rng):
    """``c`` with each single-qubit matrix replaced by a Haar draw: the same
    gate layout, other gates."""
    return dataclasses.replace(c, layers=tuple(
        Layer(
            SingleQubit(g.wire, _random_unitary_2x2(rng)) if isinstance(g, SingleQubit) else g
            for g in layer.gates
        )
        for layer in c.layers
    ))


def moved_z_wire(c, cert):
    """``c`` with one wire of the first killed Z-gate moved to a wire its
    layer leaves idle or gives a single-qubit gate, which takes the freed
    wire: another gate layout, on which the history's step for that layer
    is not the construction's."""
    shift = 1 if cert.against == "fanout" else 0  # the conjugate's leading H layer
    r = next(r for e in cert.history for r in e.killed)
    gates = list(c.layers[r.layer - shift].gates)
    taken = {w for g in gates if not isinstance(g, SingleQubit) for w in g.support()}
    old, new = r.wires[0], min(set(range(c.wires)) - taken)
    gates[r.gate_index] = ZGate(tuple(sorted({*r.wires[1:], new})))
    gates = [
        SingleQubit(old, g.u) if isinstance(g, SingleQubit) and g.wire == new else g for g in gates
    ]
    layers = list(c.layers)
    layers[r.layer - shift] = Layer(gates)
    return dataclasses.replace(c, layers=tuple(layers))


@pytest.mark.parametrize("against", ["parity", "fanout"])
@pytest.mark.parametrize("draw", [{}, {"p_single": 0.3, "p_join_z": 0.9}], ids=["z", "z-heavy"])
def test_a_certificate_rechecks_on_every_redraw_of_its_single_qubit_gates(draw, against):
    """The kill argument reads each gate's wires and whether it is a Z-gate,
    never a matrix. So a certificate rechecks on every circuit of its
    circuit's gate layout: for three Haar redraws of each single-qubit
    matrix, the original certificate rechecks, the construction on the
    redraw replays ok (``verify_kill``) to the same history, and the
    sampled oracle over every wire agrees. Moving one wire of a killed
    Z-gate changes the layout, and the certificate is refused."""
    rng = np.random.default_rng(len(draw))
    redraws = edits = 0
    for n, a in [(6, 0), (6, 2), (8, 1), (10, 0), (10, 2)]:
        for seed in range(2):
            c = random_single_qubit_z_circuit(n, a, 4, np.random.default_rng(seed), **draw)
            cert = parity_certificate(c, "improved", against)
            assert recheck_certificate(cert, c)
            for _ in range(3):
                other = redrawn(c, rng)
                assert other != c and recheck_certificate(cert, other)
                analyzed = rewrite_toffoli_to_z(analyzed_circuit(other, against))
                s = kill_run(analyzed, "improved")
                assert s.history == cert.history and verify_kill(analyzed, s).ok
                assert two_suffix_verify_kill(analyzed, s)["ok"]
                redraws += 1
            if any(e.killed for e in cert.history):
                assert not recheck_certificate(cert, moved_z_wire(c, cert))
                edits += 1
    assert redraws == 30 and edits >= 5


def assert_refused(cert, c, edit, malformed):
    """A ``malformed`` edit cannot be built: ``dataclasses.replace`` raises
    the malformed ``ValueError``. Any other builds, and fails the recheck."""
    if malformed:
        with pytest.raises(ValueError, match="^malformed kill certificate: "):
            dataclasses.replace(cert, **edit)
    else:
        assert not recheck_certificate(dataclasses.replace(cert, **edit), c)


def test_recheck_rejects_a_free_input_that_is_not_free():
    c = random_single_qubit_z_circuit(8, 2, 3, np.random.default_rng(5))
    cert = parity_certificate(c, "improved")
    assert recheck_certificate(cert, c)
    # A committed wire, an ancilla and a wire past the end fail the recheck;
    # a string, the free input (wire 0) as a float, and bools are malformed.
    assert cert.free_input == 0
    for wire in (c.target, c.n, c.wires):
        assert_refused(cert, c, {"free_input": wire}, malformed=False)
    for wire in ("0", float(cert.free_input), False, True):
        assert_refused(cert, c, {"free_input": wire}, malformed=True)


def _witness_wires(cert, edit):
    """The edit that gives the witness the wires ``edit`` makes of its own,
    the last committed set."""
    last = cert.history[-1]
    edited = dataclasses.replace(last, committed=edit(last.committed))
    return {"history": (*cert.history[:-1], edited)}


@pytest.mark.parametrize(
    "shape, edit, malformed",
    [
        ((12, 0, 4), lambda cert: {"verdict": "banana"}, False),
        ((12, 0, 4), lambda cert: {"verdict": "not-fanout"}, False),
        ((12, 0, 4), lambda cert: {"against": "banana", "verdict": "not-banana"}, True),
        ((12, 0, 4), lambda cert: {"free_input": None}, False),
        ((12, 0, 4), lambda cert: _witness_wires(cert, lambda ws: (ws[0] + 0.5, *ws[1:])), True),
        ((12, 0, 4), lambda cert: _witness_wires(cert, lambda ws: (-1, *ws[1:])), False),
        ((12, 0, 4), lambda cert: _witness_wires(cert, lambda ws: ws[::-1]), False),
        ((12, 0, 4), lambda cert: {"verdict": "inconclusive", "free_input": None}, False),
    ],
    ids=[
        "verdict",
        "verdict-against-mismatch",
        "against",
        "no-free-input",
        "witness-wire-fractional",
        "witness-wire-negative",
        "witness-wires-out-of-order",
        "inconclusive-with-a-free-input",
    ],
)
def test_recheck_rejects_edited_claims(shape, edit, malformed):
    """The verdict must be not-{against} for an against of parity or fanout.
    A not-parity verdict needs a free input. The witness wires, the last
    committed set, must be the construction's, in order too. An
    inconclusive verdict is refused while an input lies outside the
    witness. An unknown ``against`` and a fractional witness wire are
    malformed."""
    c = random_single_qubit_z_circuit(*shape, np.random.default_rng(0))
    cert = parity_certificate(c, "improved")
    assert cert.verdict == "not-parity" and recheck_certificate(cert, c)
    edit = edit(cert)
    assert all(getattr(cert, field) != value for field, value in edit.items())
    assert_refused(cert, c, edit, malformed)


def _replaced_step(cert, step, **fields):
    """The edit that replaces ``fields`` in history entry ``step``."""
    history = list(cert.history)
    history[step] = dataclasses.replace(history[step], **fields)
    return {"history": tuple(history)}


def _replaced_kill(cert, **fields):
    """The edit that replaces ``fields`` in the first kill record."""
    step = next(i for i, e in enumerate(cert.history) if e.killed)
    first, *others = cert.history[step].killed
    return _replaced_step(cert, step, killed=(dataclasses.replace(first, **fields), *others))


@pytest.mark.parametrize(
    "edit",
    [
        lambda cert: {"history": 5},
        lambda cert: {"history": list(cert.history)},
        lambda cert: {"history": (5,)},
        lambda cert: _replaced_step(cert, -1, committed=5),
        lambda cert: _replaced_step(cert, -1, committed=list(cert.history[-1].committed)),
        lambda cert: _replaced_step(cert, -1, fresh=None),
        lambda cert: _replaced_step(cert, -1, killed=None),
        lambda cert: _replaced_step(cert, -1, killed=(5,)),
        lambda cert: _replaced_kill(cert, wires=5),
        lambda cert: _replaced_kill(cert, wires=None),
    ],
    ids=[
        "history-int",
        "history-list",
        "history-of-ints",
        "int-committed",
        "list-committed",
        "null-fresh",
        "null-killed",
        "killed-of-ints",
        "int-kill-wires",
        "null-kill-wires",
    ],
)
def test_a_history_that_is_not_tuples_is_malformed(edit):
    """``dataclasses.replace`` with a history, a history entry's
    ``committed``, ``fresh`` or ``killed``, or a kill record's ``wires`` that
    is not a tuple, or a history or ``killed`` of something other than
    entries and kill records, raises the malformed ``ValueError``, not a
    ``TypeError`` or an ``AttributeError``."""
    c = random_single_qubit_z_circuit(12, 0, 4, np.random.default_rng(0))
    cert = parity_certificate(c, "improved")
    assert_refused(cert, c, edit(cert), malformed=True)


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
