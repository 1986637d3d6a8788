"""Property tests of the compiled, batched layer kernel against a dense
reference built here, layer by layer, from np.kron and permutation matrices."""

import dataclasses
import hashlib

import numpy as np
import pytest

from qshallow import (
    HADAMARD,
    PAULI_X,
    Circuit,
    Cnot,
    CoverageError,
    Layer,
    PartialState,
    SingleQubit,
    Toffoli,
    ZGate,
    apply_layer,
    build_parity_logdepth,
    circuit_sha256,
    conjugate_parity_to_fanout,
    kill_run,
    rewrite_toffoli_to_z,
    run,
    serialize_circuit,
)
from qshallow.randcirc import random_bounded_arity_circuit, random_single_qubit_z_circuit

from kill_oracle import strip_killed, two_suffix_verify_kill
import qshallow.sim as sim
from qshallow.sim import (
    BLOCK_AMPS,
    FUSE_MAX_BITS,
    MAX_STATE_WIRES,
    Contraction,
    Gather,
    SignFlip,
    adjoint_gate,
    block_columns,
    compile_layers,
    run_basis,
    tensor_indices,
)

TOL = 1e-12


# -- dense reference -----------------------------------------------------------


def gate_matrix(g, wires):
    """Dense matrix of one gate over ``wires`` (bit p = wires[p])."""
    w = len(wires)
    index = np.arange(2**w)

    def bit(x):
        return (index >> wires.index(x)) & 1

    if isinstance(g, SingleQubit):
        p = wires.index(g.wire)
        return np.kron(np.kron(np.eye(2 ** (w - 1 - p)), g.u), np.eye(2**p))
    if isinstance(g, ZGate):
        fire = np.ones(2**w, dtype=int)
        for x in g.wires:
            fire &= bit(x)
        return np.diag(1.0 - 2.0 * fire).astype(complex)
    fire = np.ones(2**w, dtype=int)
    for x in g.controls:
        fire &= bit(x)
    image = index ^ (fire << wires.index(g.target))
    perm = np.zeros((2**w, 2**w), dtype=complex)
    perm[image, index] = 1.0
    return perm


def layer_matrix(layer, wires):
    m = np.eye(2 ** len(wires), dtype=complex)
    for g in layer.gates:
        m = gate_matrix(g, wires) @ m
    return m


def slice_matrix(c, wires, lo=0, hi=None, adjoint=False):
    hi = c.depth() - 1 if hi is None else hi
    m = np.eye(2 ** len(wires), dtype=complex)
    for i in range(lo, hi + 1):
        m = layer_matrix(c.layers[i], wires) @ m
    return m.conj().T if adjoint else m


def apply(compiled, block):
    """The compiled slice run on a copy of ``block``."""
    return compiled.apply(block.copy())


def random_columns(rng, width, batch):
    raw = rng.standard_normal((2**width, batch)) + 1j * rng.standard_normal((2**width, batch))
    return raw / np.linalg.norm(raw, axis=0)


# -- circuit ensembles ---------------------------------------------------------


def layered_circuit(n, a, depth, rng, gate):
    """Layers that split a random permutation of the wires into groups of
    1-3; ``gate(group, rng)`` picks the gate on each group."""
    layers = []
    for _ in range(depth):
        order = [int(w) for w in rng.permutation(n + a)]
        gates = []
        while order:
            size = min(int(rng.integers(1, 4)), len(order))
            group, order = order[:size], order[size:]
            gates.append(gate(group, rng))
        layers.append(Layer(gates))
    return Circuit(n=n, a=a, target=n - 1, layers=tuple(layers))


def toffoli_or_phase(group, rng):
    kind = rng.integers(0, 3)
    if len(group) == 1 and kind == 0:
        return Toffoli((), group[0])
    if len(group) == 1:
        return SingleQubit(group[0], np.array([[0, 1], [1j, 0]]))
    if len(group) == 2 and kind == 0:
        return Cnot(group[0], group[1])
    return Toffoli(tuple(group[1:]), group[0])


def random_toffoli_circuit(n, a, depth, rng):
    """Layers of Toffolis (0-2 controls) and Cnots, with some single-qubit gates."""
    return layered_circuit(n, a, depth, rng, toffoli_or_phase)


def random_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def single_qubit_circuit(width, depth, rng, share=0.6):
    """Layers of distinct random unitaries on random wire subsets, so runs of
    adjacent bits have gaps; a Z-gate joins two of the other wires, if any."""
    layers = []
    for _ in range(depth):
        hit = rng.random(width) < share
        gates = [SingleQubit(w, random_unitary(rng)) for w in range(width) if hit[w]]
        rest = [w for w in range(width) if not hit[w]]
        if len(rest) >= 2:
            gates.append(ZGate(tuple(rest[:2])))
        layers.append(Layer(gates))
    return Circuit(n=width, a=0, target=width - 1, layers=tuple(layers))


def ensemble(kind, seed, depth=None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    a = int(rng.integers(0, 9 - n))  # n + a <= 8
    drawn = int(rng.integers(1, 5))
    depth = drawn if depth is None else depth
    if kind == "z":
        return random_single_qubit_z_circuit(n, a, depth, rng), rng
    if kind == "bounded":
        return random_bounded_arity_circuit(n, a, depth, rng, max_arity=3), rng
    if kind == "single":
        return single_qubit_circuit(n + a, depth, rng, share=0.8), rng
    return random_toffoli_circuit(n, a, depth, rng), rng


KINDS = ("z", "bounded", "toffoli", "single")


# -- kernel vs dense reference -------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_dense_reference(kind, seed):
    c, rng = ensemble(kind, seed)
    wires = tuple(range(c.wires))
    dense = slice_matrix(c, wires)
    for batch in (1, 3, 40):
        block = random_columns(rng, c.wires, batch)
        out = apply(compile_layers(c.layers, wires), block)
        assert np.abs(out - dense @ block).max() <= TOL


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_slices_and_adjoint_match_dense_reference(kind, seed):
    """A layer slice, and its adjoint as ``kill_step`` builds it (the slice's
    layers reversed, each gate replaced by ``adjoint_gate``), compiled."""
    c, rng = ensemble(kind, 100 + seed)
    wires = tuple(range(c.wires))
    block = random_columns(rng, c.wires, 3)
    for lo in range(c.depth()):
        for hi in range(lo - 1, c.depth()):
            layers = c.layers[lo : hi + 1]
            inverse = [Layer(adjoint_gate(g) for g in layer.gates) for layer in reversed(layers)]
            for adjoint, sliced in ((False, layers), (True, inverse)):
                expect = slice_matrix(c, wires, lo, hi, adjoint) @ block
                out = apply(compile_layers(sliced, wires), block)
                assert np.abs(out - expect).max() <= TOL


def test_coverage_error_for_single_qubit_and_toffoli():
    for gate in (SingleQubit(3, np.eye(2)), Toffoli((0, 4), 1), ZGate((0, 4))):
        with pytest.raises(CoverageError, match="not covered"):
            compile_layers((Layer([gate]),), (0, 1))
        with pytest.raises(CoverageError, match="not covered"):
            apply_layer(Layer([gate]), PartialState.zero((0, 1)))


@pytest.mark.parametrize(
    "layer",
    [
        Layer([SingleQubit(0, PAULI_X), SingleQubit(0, HADAMARD)]),
        Layer([Cnot(0, 1), Toffoli((), 0)]),
    ],
    ids=["x-and-h", "cnot-and-x"],
)
def test_layer_with_overlapping_supports_is_refused(layer):
    c = Circuit(n=2, a=0, target=1, layers=(layer,))
    with pytest.raises(ValueError, match="overlapping supports.*wire 0"):
        run(c, PartialState.zero((0, 1)))
    with pytest.raises(ValueError, match="overlapping supports.*wire 0"):
        apply_layer(layer, PartialState.zero((0, 1)))


def test_cnot_is_a_one_control_toffoli():
    cnot, toffoli = Cnot(0, 1), Toffoli((0,), 1)
    assert isinstance(cnot, Toffoli) and cnot.controls == (0,) and cnot.control == 0
    assert cnot != toffoli and cnot.support() == toffoli.support()
    (from_cnot,) = compile_layers((Layer([cnot]),), range(3)).parts
    (from_toffoli,) = compile_layers((Layer([toffoli]),), range(3)).parts
    assert np.array_equal(from_cnot.index, from_toffoli.index)
    as_cnot = Circuit(n=2, a=0, target=1, layers=(Layer([cnot]),))
    as_toffoli = Circuit(n=2, a=0, target=1, layers=(Layer([toffoli]),))
    assert '"kind": "cnot"' in serialize_circuit(as_cnot)
    assert '"kind": "toffoli"' in serialize_circuit(as_toffoli)
    assert circuit_sha256(as_cnot) != circuit_sha256(as_toffoli)


def test_each_layer_compiles_to_one_diagonal_one_permutation_and_contractions():
    c = Circuit(
        n=6,
        a=0,
        target=5,
        layers=(
            Layer([ZGate((0, 1)), ZGate((2, 3)), SingleQubit(4, np.eye(2)), ZGate((5,))]),
            Layer([Toffoli((0, 1), 2), Cnot(3, 4), SingleQubit(5, np.eye(2))]),
        ),
    )
    parts = compile_layers(c.layers, range(6)).parts
    assert [type(p) for p in parts] == [SignFlip, Contraction, Gather, Contraction]
    assert [p.position for p in parts if isinstance(p, Contraction)] == [4, 5]


def test_every_part_is_applied_through_apply_gate(monkeypatch):
    c = Circuit(
        n=3,
        a=0,
        target=2,
        layers=(
            Layer([SingleQubit(0, np.array([[1, 1], [1, -1]]) / np.sqrt(2)), ZGate((1, 2))]),
            Layer([Cnot(0, 1)]),
        ),
    )
    expected = run(c, PartialState.zero(range(3))).amps
    seen = []
    original = sim.apply_gate

    def counting(part, block):
        seen.append((type(part), block.wires, block.amps.shape))
        return original(part, block)

    monkeypatch.setattr(sim, "apply_gate", counting)
    out = run(c, PartialState.zero(range(3)))
    assert np.abs(out.amps - expected).max() <= TOL
    assert seen == [
        (SignFlip, (0, 1, 2), (8, 1)),
        (Contraction, (0, 1, 2), (8, 1)),
        (Gather, (0, 1, 2), (8, 1)),
    ]


# -- fused single-qubit runs ---------------------------------------------------


def contraction_spans(compiled):
    """(position, k) of every compiled contraction."""
    return [
        (p.position, p.u.shape[0].bit_length() - 1)
        for p in compiled.parts
        if isinstance(p, Contraction)
    ]


@pytest.mark.parametrize("width", range(1, 9))
@pytest.mark.parametrize("seed", range(3))
def test_fused_runs_with_gaps_match_dense_reference(width, seed):
    """Widths 1-3 are below the fusion width; batches of 1-17 columns put the
    low runs on both sides of the kron-gemm switch."""
    rng = np.random.default_rng(500 + 10 * width + seed)
    c = single_qubit_circuit(width, 3, rng)
    wires = tuple(range(width))
    compiled = compile_layers(c.layers, wires)
    assert all(k <= min(width, FUSE_MAX_BITS) for _, k in contraction_spans(compiled))
    dense = slice_matrix(c, wires)
    for batch in (1, 2, 3, 17):
        block = random_columns(rng, width, batch)
        out = apply(compiled, block)
        assert np.abs(out - dense @ block).max() <= TOL


@pytest.mark.parametrize(
    "bits", [range(8), range(7), (0, 1, 2, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6), (0, 3, 4, 7)]
)
def test_runs_longer_than_the_fusion_width_split(bits):
    rng = np.random.default_rng(sum(bits))
    c = Circuit(
        n=8,
        a=0,
        target=7,
        layers=(Layer([SingleQubit(w, random_unitary(rng)) for w in bits]),),
    )
    wires = tuple(range(8))
    compiled = compile_layers(c.layers, wires)
    spans = contraction_spans(compiled)
    covered = [p + j for p, k in spans for j in range(k)]
    assert set(bits) <= set(covered) and len(covered) == len(set(covered))
    assert len(spans) > 1 and all(k <= FUSE_MAX_BITS for _, k in spans)
    for batch in (1, 5):
        block = random_columns(rng, 8, batch)
        out = apply(compiled, block)
        assert np.abs(out - slice_matrix(c, wires) @ block).max() <= TOL


@pytest.mark.parametrize("extra", (-1, 0, 1, 130))
def test_fused_basis_runs_straddle_block_boundaries(extra):
    rng = np.random.default_rng(700 + extra)
    c = single_qubit_circuit(8, 3, rng, share=0.8)
    step = block_columns(c.wires)
    assert step * 2**c.wires == BLOCK_AMPS
    inputs = rng.integers(0, 2**c.wires, size=step + extra)
    dense = slice_matrix(c, tuple(range(c.wires)))
    seen = 0
    for first, block in run_basis(c, inputs):
        assert first == seen
        assert np.abs(block - dense[:, inputs[first : first + block.shape[1]]]).max() <= TOL
        seen += block.shape[1]
    assert seen == inputs.size


def test_fused_groups_for_gates_on_bits_0_1_2_3_5_9():
    rng = np.random.default_rng(7)
    gates = {b: random_unitary(rng) for b in (0, 1, 2, 3, 5, 9)}
    layer = Layer([ZGate((4, 6))] + [SingleQubit(b, u) for b, u in gates.items()])
    parts = compile_layers((layer,), range(10)).parts
    assert [type(p) for p in parts] == [SignFlip, Contraction, Contraction, Contraction]
    groups = [(p.position, p.u.shape) for p in parts[1:]]
    assert groups == [(0, (16, 16)), (5, (2, 2)), (9, (2, 2))]
    # Bit position + j is bit j of u's index: the lowest bit's gate is the
    # rightmost Kronecker factor.
    expect = np.kron(np.kron(np.kron(gates[3], gates[2]), gates[1]), gates[0])
    assert np.abs(parts[1].u - expect).max() <= TOL
    assert np.array_equal(parts[2].u, gates[5]) and np.array_equal(parts[3].u, gates[9])


# -- single-qubit chains folded across layers ----------------------------------


def layer_by_layer_contractions(layers, wires):
    """Contractions the slice compiles to when each layer compiles alone."""
    return sum(len(contraction_spans(compile_layers((layer,), wires))) for layer in layers)


@pytest.mark.parametrize("kind", KINDS)
def test_folded_multi_layer_slices_match_dense_reference(kind):
    """Slices of two or more layers of deeper draws, so single-qubit gates
    chain across several layers (the Toffoli ensemble rewritten to H-Z-H,
    which puts H gates back to back); a folded slice never compiles to more
    contractions than its layers do one by one, and some slices fold."""
    folded = 0
    for seed in range(6):
        c, rng = ensemble(kind, 800 + seed, depth=3 if kind == "toffoli" else 6)
        if kind == "toffoli":
            c = rewrite_toffoli_to_z(c)
        wires = tuple(range(c.wires))
        block = random_columns(rng, c.wires, 5)
        for lo in range(c.depth()):
            dense = layer_matrix(c.layers[lo], wires)
            for hi in range(lo + 1, c.depth()):
                dense = layer_matrix(c.layers[hi], wires) @ dense
                layers = c.layers[lo : hi + 1]
                compiled = compile_layers(layers, wires)
                spans = len(contraction_spans(compiled))
                assert spans <= layer_by_layer_contractions(layers, wires)
                folded += spans < layer_by_layer_contractions(layers, wires)
                assert np.abs(apply(compiled, block) - dense @ block).max() <= TOL
    assert folded


def test_chain_across_three_layers_compiles_to_one_contraction():
    """Wire 1 carries a gate in layers 0, 2 and 3 and skips layer 1, whose
    Z-gate touches other wires: the chain is one contraction, in layer 0's
    place, of the product in application order."""
    rng = np.random.default_rng(11)
    us = [random_unitary(rng) for _ in range(3)]
    layers = (
        Layer([SingleQubit(1, us[0])]),
        Layer([ZGate((0, 2))]),
        Layer([SingleQubit(1, us[1])]),
        Layer([SingleQubit(1, us[2])]),
    )
    compiled = compile_layers(layers, range(3))
    parts = compiled.parts
    assert [type(p) for p in parts] == [Contraction, SignFlip]
    assert parts[0].position == 1
    assert np.abs(parts[0].u - us[2] @ us[1] @ us[0]).max() <= TOL
    c = Circuit(n=3, a=0, target=2, layers=layers)
    block = random_columns(rng, 3, 4)
    assert np.abs(apply(compiled, block) - slice_matrix(c, (0, 1, 2)) @ block).max() <= TOL


@pytest.mark.parametrize(
    "between",
    [ZGate((1,)), ZGate((0, 1)), Toffoli((1,), 2), Toffoli((0, 2), 1), Cnot(1, 0)],
    ids=["z", "z-pair", "control", "target", "cnot-control"],
)
def test_z_gate_or_toffoli_on_the_wire_stops_the_fold(between):
    rng = np.random.default_rng(12)
    first, second = random_unitary(rng), random_unitary(rng)
    layers = (
        Layer([SingleQubit(1, first)]),
        Layer([between]),
        Layer([SingleQubit(1, second)]),
    )
    compiled = compile_layers(layers, range(3))
    contractions = [p for p in compiled.parts if isinstance(p, Contraction)]
    assert [type(p) for p in compiled.parts][1:-1] in ([SignFlip], [Gather])
    assert len(contractions) == 2
    assert np.array_equal(contractions[0].u, first) and np.array_equal(contractions[1].u, second)
    c = Circuit(n=3, a=0, target=2, layers=layers)
    block = random_columns(rng, 3, 4)
    assert np.abs(apply(compiled, block) - slice_matrix(c, (0, 1, 2)) @ block).max() <= TOL


@pytest.mark.parametrize(
    "second",
    [
        Layer([SingleQubit(0, PAULI_X), SingleQubit(0, HADAMARD)]),
        Layer([SingleQubit(0, HADAMARD), ZGate((0, 1))]),
        Layer([SingleQubit(1, HADAMARD), SingleQubit(0, PAULI_X), Toffoli((), 0)]),
    ],
    ids=["two-singles", "single-and-z", "single-and-x"],
)
def test_fold_still_refuses_a_layer_that_uses_a_wire_twice(second):
    """Wire 0 carries a single-qubit gate in the layer before, so the first
    of the later layer's gates on wire 0 could fold; the layer is refused."""
    layers = (Layer([SingleQubit(0, HADAMARD), SingleQubit(1, PAULI_X)]), second)
    with pytest.raises(ValueError, match="overlapping supports.*wire 0"):
        compile_layers(layers, range(2))
    with pytest.raises(ValueError, match="overlapping supports.*wire 0"):
        run(Circuit(n=2, a=0, target=1, layers=layers), PartialState.zero((0, 1)))


def test_compiling_leaves_the_circuit_gate_matrices_unchanged():
    rng = np.random.default_rng(13)
    c = single_qubit_circuit(6, 5, rng, share=0.9)
    singles = [g for layer in c.layers for g in layer.gates if isinstance(g, SingleQubit)]
    before = [g.u.copy() for g in singles]
    compiled = compile_layers(c.layers, range(6))
    apply(compiled, random_columns(rng, 6, 3))
    list(run_basis(c, np.arange(8)))
    assert len(contraction_spans(compiled)) < layer_by_layer_contractions(c.layers, range(6))
    for g, u in zip(singles, before):
        assert np.array_equal(g.u, u)


# -- exact inverse pairs and sign flips ----------------------------------------


def inverse_pair_circuit(width, depth, rng):
    """Layers that put H H, X X and U U^dag back to back on wires, with
    Z-gates (and a few Toffolis) on other wires in between, so pairs cancel
    across layers past sign flips on other bits. Returns the
    circuit and how many gates are the exact adjoint of the single-qubit gate
    before them on their wire, with no Z-gate or Toffoli on it in between."""
    last = {}  # wire -> its last single-qubit matrix, while nothing else touched it
    pairs = 0
    layers = []
    for _ in range(depth):
        order = [int(w) for w in rng.permutation(width)]
        gates = []
        while order:
            size = 1 if rng.random() < 0.7 else min(int(rng.integers(2, 4)), len(order))
            group, order = order[:size], order[size:]
            if size > 1:
                if rng.random() < 0.8:
                    gates.append(ZGate(tuple(group)))
                else:
                    gates.append(Toffoli(tuple(group[1:]), group[0]))
                for w in group:
                    last.pop(w, None)
                continue
            w = group[0]
            pick = int(rng.integers(0, 6))
            if pick == 0:
                continue
            if pick < 3 and w in last:
                u = last[w].conj().T
                pairs += 1
            else:
                u = (HADAMARD, PAULI_X, random_unitary(rng))[pick % 3]
            gates.append(SingleQubit(w, u))
            last[w] = u
        layers.append(Layer(gates))
    return Circuit(n=width, a=0, target=width - 1, layers=tuple(layers)), pairs


def test_inverse_pairs_and_merged_flips_match_dense_reference():
    """Every slice of seeded circuits rich in exact inverse pairs and Z-gates,
    over a shuffled wire order, against the dense reference."""
    pairs = 0
    for seed in range(12):
        rng = np.random.default_rng(1000 + seed)
        width = int(rng.integers(3, 9))
        c, seeded = inverse_pair_circuit(width, 6, rng)
        pairs += seeded
        wires = tuple(int(w) for w in rng.permutation(width))
        block = random_columns(rng, width, 3)
        for lo in range(c.depth()):
            for hi in range(lo, c.depth()):
                compiled = compile_layers(c.layers[lo : hi + 1], wires)
                expect = slice_matrix(c, wires, lo, hi) @ block
                assert np.abs(apply(compiled, block) - expect).max() <= TOL
    assert pairs > 20


def test_exact_inverse_pair_cancels_and_the_wire_stays_open():
    """H H on wire 1 across a Z-gate on other wires leaves nothing; the U
    after them lands, unmultiplied, in the first H's layer."""
    rng = np.random.default_rng(14)
    u = random_unitary(rng)
    layers = (
        Layer([SingleQubit(1, HADAMARD)]),
        Layer([ZGate((0, 2))]),
        Layer([SingleQubit(1, HADAMARD)]),
        Layer([SingleQubit(1, u)]),
    )
    parts = compile_layers(layers, range(3)).parts
    assert [type(p) for p in parts] == [Contraction, SignFlip]
    assert parts[0].position == 1 and np.array_equal(parts[0].u, u)
    (flip,) = compile_layers(layers[:3], range(3)).parts
    assert isinstance(flip, SignFlip) and flip.mask == 0b101


@pytest.mark.parametrize(
    "second, cancels",
    [
        (lambda u: u.conj().T, True),
        (lambda u: np.linalg.inv(u), False),  # U^-1 = U^dag only up to rounding
        (lambda u: u.conj().T * (1 + 2**-52), False),
    ],
    ids=["adjoint", "inverse", "adjoint-off-by-an-ulp"],
)
def test_only_a_bitwise_adjoint_cancels(second, cancels):
    rng = np.random.default_rng(15)
    u = random_unitary(rng)
    v = second(u)
    assert np.abs(v @ u - np.eye(2)).max() <= TOL
    assert cancels or not np.array_equal(v, u.conj().T)
    layers = (Layer([SingleQubit(0, u)]), Layer([SingleQubit(0, v)]))
    parts = compile_layers(layers, range(1)).parts
    if cancels:
        assert parts == ()
    else:
        assert len(parts) == 1 and np.array_equal(parts[0].u, v @ u)


@pytest.mark.parametrize(
    "between",
    [
        SingleQubit(2, HADAMARD),
        Cnot(2, 4),
        SingleQubit(1, HADAMARD),
        Cnot(4, 3),
        Toffoli((3, 4), 2),
    ],
    ids=["disjoint-single", "disjoint-cnot", "shared-single", "shared-cnot", "shared-control"],
)
def test_sign_flip_merges_back_past_disjoint_parts_only(between):
    """Z(0, 1), then ``between``, then Z(1, 3): no flip merges back, not even
    past a ``between`` that leaves bits 1 and 3 alone. Each layer's flip
    stays in its layer's place, as that layer compiles it alone."""
    layers = (Layer([ZGate((0, 1))]), Layer([between]), Layer([ZGate((1, 3))]))
    wires = tuple(range(5))
    parts = compile_layers(layers, wires).parts
    alone = [compile_layers((layer,), wires).parts[0] for layer in layers]
    assert [type(p) for p in parts] == [type(p) for p in alone]
    assert [type(p) for p in parts][::2] == [SignFlip, SignFlip]
    for got, want in zip(parts[::2], alone[::2]):
        assert got.mask == want.mask and np.array_equal(got.signs, want.signs)
    c = Circuit(n=5, a=0, target=4, layers=layers)
    block = random_columns(np.random.default_rng(16), 5, 2)
    out = apply(compile_layers(layers, wires), block)
    assert np.abs(out - slice_matrix(c, wires) @ block).max() <= TOL


def test_each_layer_with_a_z_gate_compiles_to_one_sign_flip_in_layer_order():
    """On seeded multi-layer draws of every ensemble, over shuffled wire
    orders, the compiled slice holds exactly one sign flip per layer that
    has a Z-gate, in layer order: the flip that layer compiles to alone."""
    for kind in KINDS:
        flips = 0
        for seed in range(8):
            c, rng = ensemble(kind, 1500 + seed, depth=5)
            if kind == "toffoli":
                c = rewrite_toffoli_to_z(c)
            wires = tuple(int(w) for w in rng.permutation(c.wires))
            parts = compile_layers(c.layers, wires).parts
            got = [p for p in parts if isinstance(p, SignFlip)]
            want = [
                compile_layers((layer,), wires).parts[0]
                for layer in c.layers
                if any(isinstance(g, ZGate) for g in layer.gates)
            ]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.mask == w.mask and np.array_equal(g.signs, w.signs)
            flips += len(got)
        assert flips >= 12, kind


@pytest.mark.parametrize("against, contractions", [("parity", 15), ("fanout", 13)])
def test_rewritten_log_depth_circuits_compile_to_fewer_contractions(against, contractions):
    """At n=9 the H-Z-H rewrite puts H H between consecutive Toffoli layers:
    the fold used to contract each such pair into a near-identity 2x2, 18
    contractions for parity and 20 for its fanout conjugate; now no compiled
    contraction is the identity up to rounding."""
    c = build_parity_logdepth(9)
    if against == "fanout":
        c = conjugate_parity_to_fanout(c)
    c = rewrite_toffoli_to_z(c)
    compiled = compile_layers(c.layers, range(c.wires))
    found = [p for p in compiled.parts if isinstance(p, Contraction)]
    assert len(found) == contractions
    assert all(np.abs(p.u - np.eye(len(p.u))).max() > 1e-12 for p in found)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_a_sign_flip_holds_float64_signs_and_flips_exactly(real):
    """A layer's Z-gates compile to float64 signs, the dtype of a real block
    and the real part of a complex one; +-1 is exact in every dtype, so the
    flip gives the bits float32 signs give."""
    wires = tuple(range(5))
    flip = compile_layers((Layer([ZGate((0, 1)), ZGate((2, 4))]),), wires).parts[0]
    assert isinstance(flip, SignFlip) and flip.signs.dtype == np.float64
    block = random_columns(np.random.default_rng(3), 5, 4)
    block = block.real.copy() if real else block
    expect = block * flip.signs.astype(np.float32)[:, None]
    b = sim.Block(wires, block, np.empty_like(block))
    flip.apply(b)
    assert b.amps.dtype == expect.dtype and b.amps.tobytes() == expect.tobytes()


def single_layer_parts_digest(kind):
    """sha256 over every part of every layer compiled alone, for seeded
    draws of one ensemble over shuffled wire orders. The signs, +-1 in any
    dtype, are hashed as the float32 they were stored as when the digests
    were recorded."""
    h = hashlib.sha256()
    for seed in range(6):
        c, rng = ensemble(kind, 900 + seed, depth=4)
        if kind == "toffoli":
            c = rewrite_toffoli_to_z(c)
        wires = tuple(int(w) for w in rng.permutation(c.wires))
        for layer in c.layers:
            for p in compile_layers((layer,), wires).parts:
                h.update(type(p).__name__.encode())
                if isinstance(p, SignFlip):
                    h.update(p.signs.astype(np.float32).tobytes())
                for name in ("index", "position", "u"):
                    if hasattr(p, name):
                        h.update(np.asarray(getattr(p, name)).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("z", "bb4ff80c32e86ff6782a7a29ecf5aacb10ee0e909b92dbada8af061f27758172"),
        ("bounded", "f2e5704b9644b8dcad74a78cb68fecf6b30ddb9b730da020e1d78819b623c1d2"),
        ("toffoli", "9468e6f0b366c05e05a4abde3956fae9b74c2a6a788c7573c19b669e9e6b276e"),
        ("single", "209800c5b46013f6c738b57cf9da024a568cc47f724161a8c4a4cb56a079bd42"),
    ],
)
def test_a_single_layer_compiles_to_the_same_parts(kind, digest):
    """One layer has nothing to fold or cancel: its parts hash to the bytes
    recorded before pairs cancelled across layers."""
    assert single_layer_parts_digest(kind) == digest


# -- batching ------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_batch_agrees_with_batch_of_one(kind):
    c, rng = ensemble(kind, 300)
    wires = tuple(range(c.wires))
    block = random_columns(rng, c.wires, 17)
    out = apply(compile_layers(c.layers, wires), block)
    for j in range(block.shape[1]):
        single = run(c, PartialState(wires, block[:, j].copy()))
        assert np.abs(out[:, j] - single.amps).max() <= TOL


@pytest.mark.parametrize("extra", (-1, 0, 1, 130))
def test_basis_runs_straddle_block_boundaries(extra):
    rng = np.random.default_rng(400 + extra)
    c = random_bounded_arity_circuit(5, 3, 3, rng, max_arity=3)
    step = block_columns(c.wires)
    assert step * 2**c.wires == BLOCK_AMPS
    inputs = rng.integers(0, 2**c.wires, size=step + extra)
    dense = slice_matrix(c, tuple(range(c.wires)))
    seen = 0
    for first, block in run_basis(c, inputs):
        assert first == seen and block.shape[1] <= step
        assert np.abs(block - dense[:, inputs[first : first + block.shape[1]]]).max() <= TOL
        seen += block.shape[1]
    assert seen == inputs.size


@pytest.mark.parametrize("seed", (16, 23))
@pytest.mark.parametrize("trials", (6, 7, 8, 20))
def test_verify_kill_batch_matches_per_state_runs(seed, trials):
    """The sampled witness check (the tests' oracle for ``verify_kill``) runs
    its rest states as the columns of blocks. 12 wires give 8 columns per
    block, so these trial counts straddle a block boundary; the readings must
    match one run per rest state, drawn from the same generator in the same
    order. A random witness makes the readings depend on the rest state (a
    true witness reads ~0 on all); these seeds give circuits where they do."""
    rng = np.random.default_rng(seed)
    c = random_single_qubit_z_circuit(12, 0, 4, rng)
    s = kill_run(c, "basic")
    s = dataclasses.replace(s, psi=PartialState.random(s.psi.wires, rng))
    result = two_suffix_verify_kill(c, s, trials, seed=9)
    full_readings = [p_full for p_full, _ in result["readings"]]
    assert not result["ok"] and max(full_readings) - min(full_readings) > 0.01

    draws = np.random.default_rng(9)
    rests = [PartialState.zero(s.rest)]
    rests += [PartialState.random(s.rest, draws) for _ in range(trials)]
    assert result["trials"] == len(rests)
    stripped = strip_killed(c, s.killed)
    diffs = []
    for (p_full, p_killed), rest in zip(result["readings"], rests):
        start = rest.tensor(s.psi)
        suffix = slice(c.depth() - s.k, None)
        full = run(dataclasses.replace(c, layers=c.layers[suffix]), start)
        killed = run(dataclasses.replace(stripped, layers=stripped.layers[suffix]), start)
        assert abs(p_full - full.restricted_probability(c.target, 1)) <= TOL
        assert abs(p_killed - killed.restricted_probability(c.target, 1)) <= TOL
        diffs.append(np.abs(full.amps - killed.amps).max())
    assert abs(result["max_state_diff"] - max(diffs)) <= TOL and max(diffs) > 0.01


# -- real arithmetic -----------------------------------------------------------


def rotation(rng):
    t = rng.uniform(0, 2 * np.pi)
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def real_gate(group, rng):
    """H, X, a real rotation, a Z-gate, a Toffoli or a Cnot: a real matrix."""
    kind = int(rng.integers(0, 3))
    if len(group) == 1:
        return SingleQubit(group[0], (HADAMARD, PAULI_X, rotation(rng))[kind])
    if kind == 0:
        return ZGate(tuple(group))
    if len(group) == 2 and kind == 1:
        return Cnot(group[0], group[1])
    return Toffoli(tuple(group[1:]), group[0])


def toffoli_gate(group, rng):
    return Toffoli(tuple(group[1:]), group[0])


def with_gate(c, gate):
    return dataclasses.replace(c, layers=c.layers + (Layer([gate]),))


def basis_dtypes(c):
    return {block.dtype for _, block in run_basis(c, np.arange(2**c.wires))}


@pytest.mark.parametrize("n", (2, 3, 5, 8))
def test_run_basis_blocks_are_real_exactly_for_real_circuits(n):
    """The H-Z-H rewritten log-depth parity circuit, its fanout conjugate and
    Toffoli-only circuits run in float64 blocks; a phase or a Haar gate
    makes them complex."""
    rng = np.random.default_rng(1100 + n)
    parity = build_parity_logdepth(n)
    real = [
        rewrite_toffoli_to_z(parity),
        rewrite_toffoli_to_z(conjugate_parity_to_fanout(parity)),
        parity,
        layered_circuit(n, 2, 4, rng, toffoli_gate),
    ]
    for c in real:
        assert compile_layers(c.layers, range(c.wires)).real
        assert basis_dtypes(c) == {np.dtype(np.float64)}
    for gate in (SingleQubit(0, np.diag([1, 1j])), SingleQubit(n - 1, random_unitary(rng))):
        for c in real:
            assert basis_dtypes(with_gate(c, gate)) == {np.dtype(complex)}


@pytest.mark.parametrize("seed", range(12))
def test_real_blocks_match_per_state_complex_runs(seed):
    """Every column of every real basis block equals the complex ``run`` of
    its input as one state, for seeded all-real circuits with n + a <= 10."""
    rng = np.random.default_rng(1200 + seed)
    n = int(rng.integers(2, 8))
    a = int(rng.integers(0, 11 - n))
    c = layered_circuit(n, a, int(rng.integers(2, 7)), rng, real_gate)
    if seed % 3 == 0:
        c = rewrite_toffoli_to_z(c)
    inputs = rng.permutation(2**c.wires)[: 3 * block_columns(c.wires) // 2]
    wires = tuple(range(c.wires))
    for first, block in run_basis(c, inputs):
        assert block.dtype == np.float64
        for j in range(block.shape[1]):
            x = int(inputs[first + j])
            state = PartialState.basis(wires, {w: x >> w & 1 for w in wires})
            assert np.abs(block[:, j] - run(c, state).amps).max() <= 1e-15


@pytest.mark.parametrize("batch", (1, 5, 32))
def test_real_contractions_match_dense_kron_at_every_position(batch):
    """A real 2**k x 2**k matrix at every position of an 8-wire block,
    complex and float64, against kron(I, u, I); most of these run in the
    stacked-matmul branch, in real arithmetic on the float64 block."""
    rng = np.random.default_rng(1300 + batch)
    width = 8
    stacked = 0
    for k in range(1, FUSE_MAX_BITS + 1):
        for position in range(width - k + 1):
            u = rotation(rng)
            for _ in range(k - 1):
                u = np.kron((HADAMARD.real, PAULI_X.real, rotation(rng))[rng.integers(3)], u)
            part = Contraction(position, u.astype(complex))
            assert part.real_u is not None
            stacked += (2**k << position) * batch > sim.KRON_MAX_SIDE
            dense = np.kron(np.kron(np.eye(2 ** (width - position - k)), u), np.eye(2**position))
            complex_block = random_columns(rng, width, batch)
            for block in (complex_block, np.ascontiguousarray(complex_block.real)):
                b = sim.Block(tuple(range(width)), block.copy(), np.empty_like(block))
                part.apply(b)
                assert b.amps.dtype == block.dtype
                assert np.abs(b.amps - dense @ block).max() <= TOL
    assert stacked >= 12


def test_a_float64_block_needs_a_real_slice():
    rng = np.random.default_rng(1400)
    block = np.zeros((8, 2))
    block[0] = 1.0
    real = compile_layers((Layer([SingleQubit(0, HADAMARD), Cnot(1, 2)]),), range(3))
    assert real.real and apply(real, block).dtype == np.float64
    for u in (np.diag([1, 1j]), random_unitary(rng)):
        layers = (Layer([SingleQubit(0, HADAMARD)]), Layer([SingleQubit(1, u)]))
        phased = compile_layers(layers, range(3))
        assert not phased.real
        with pytest.raises(ValueError, match="need a C-ordered complex128 block of 8 rows"):
            apply(phased, block)


# -- width guard ---------------------------------------------------------------


def test_width_guard_refuses_before_allocating():
    too_wide = range(MAX_STATE_WIRES + 1)
    for make in (
        lambda: PartialState.zero(too_wide),
        lambda: PartialState.basis(too_wide, {0: 1}),
        lambda: PartialState.random(too_wide, np.random.default_rng(0)),
        lambda: tensor_indices(tuple(range(13)), tuple(range(13, 26))),
        lambda: compile_layers((), too_wide),
        lambda: block_columns(MAX_STATE_WIRES + 1),
    ):
        with pytest.raises(ValueError, match="wire simulation limit"):
            make()
    assert block_columns(20) == 1
