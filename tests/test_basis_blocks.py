"""``run_basis`` starts each block from the closed-form image of its basis
inputs under the compiled circuit's leading product parts, and applies only
the parts after them. Every column must match ``run`` on that basis state
within 1e-15, and the block must have the exact zeros of the same inputs run
through every part by the kernel, as one-hot columns of the block's dtype.
(A real block and the complex ``run`` can differ in an exact zero: real and
complex gemm round differently, as they did before the closed form.)"""

import numpy as np
import pytest

from qshallow import (
    HADAMARD,
    PAULI_X,
    Circuit,
    Cnot,
    Layer,
    PartialState,
    SingleQubit,
    Toffoli,
    ZGate,
    build_parity_logdepth,
    rewrite_toffoli_to_z,
    run,
)
from qshallow.randcirc import random_bounded_arity_circuit, random_single_qubit_z_circuit
import qshallow.sim as sim
from qshallow.sim import (
    CompiledLayers,
    Contraction,
    Gather,
    SignFlip,
    block_columns,
    compile_layers,
    leading_product,
    run_basis,
)

from test_kernel import random_unitary

TOL = 1e-15


def prefix_length(parts):
    """The leading product parts, by their definition: the longest prefix in
    which no part touches a bit that an earlier contraction of it spans."""
    spanned = 0
    for k, part in enumerate(parts):
        if part.mask & spanned:
            return k
        if isinstance(part, Contraction):
            spanned |= part.mask
    return len(parts)


def assert_matches_run(c, inputs):
    """Every column of every block against ``run`` on its basis state, and
    every block against the kernel run through every part."""
    wires = tuple(range(c.wires))
    compiled = compile_layers(c.layers, wires)
    seen = 0
    for first, block in run_basis(c, inputs):
        assert first == seen and block.shape[0] == 2**c.wires
        chunk = inputs[first : first + block.shape[1]]
        one_hot = np.zeros_like(block)
        one_hot[chunk, np.arange(len(chunk))] = 1.0
        kernel = compiled.apply(one_hot)
        assert np.abs(block - kernel).max(initial=0.0) <= TOL
        assert np.array_equal(block == 0, kernel == 0)
        for j, x in enumerate(chunk.tolist()):
            expect = run(c, PartialState.basis(wires, {w: x >> w & 1 for w in wires})).amps
            assert np.abs(block[:, j] - expect).max() <= TOL
        seen += block.shape[1]
    assert seen == len(inputs)


def drawn_circuit(kind, seed):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(2, 8))
    a = int(rng.integers(0, 11 - n))  # n + a <= 10
    depth = int(rng.integers(1, 5))
    if kind == "z":
        return random_single_qubit_z_circuit(n, a, depth, rng)
    if kind == "bounded":
        return random_bounded_arity_circuit(n, a, depth, rng, max_arity=3)
    return rewrite_toffoli_to_z(build_parity_logdepth(n))  # real: H, Z-gates


@pytest.mark.parametrize("kind", ("z", "bounded", "parity-hzh"))
@pytest.mark.parametrize("seed", range(5))
def test_every_basis_column_matches_run(kind, seed):
    c = drawn_circuit(kind, seed)
    assert kind != "parity-hzh" or compile_layers(c.layers, range(c.wires)).real
    assert_matches_run(c, np.arange(2**c.wires))


HAAR = random_unitary(np.random.default_rng(2100))


@pytest.mark.parametrize(
    "layers, width, kinds, prefix",
    [
        # A gather before a contraction on the bit it wrote.
        ((Layer([Cnot(0, 1)]), Layer([SingleQubit(1, HAAR)])), 3, "GC", 2),
        # Gates on bits 0 and 2 make one run over bits 0-2; a Z on bit 1, the
        # run's identity bit, ends the prefix.
        (
            (Layer([SingleQubit(0, HADAMARD), SingleQubit(2, HAAR)]), Layer([ZGate((1, 3))])),
            4,
            "CS",
            1,
        ),
        # A sign flip after a contraction, on bits the run leaves alone.
        ((Layer([SingleQubit(0, HAAR)]), Layer([ZGate((2, 3))])), 4, "CS", 2),
        # A gather after a contraction on disjoint bits, then a part inside
        # the run.
        (
            (Layer([SingleQubit(0, HADAMARD)]), Layer([Toffoli((2, 3), 4)]), Layer([Cnot(0, 2)])),
            5,
            "CGG",
            2,
        ),
        # Two runs of one layer, and a sign flip on bits between them.
        (
            (Layer([SingleQubit(0, HAAR), SingleQubit(5, HADAMARD), ZGate((3, 4))]),),
            6,
            "SCC",
            3,
        ),
        # Contractions of two layers on disjoint runs, the later one lower.
        ((Layer([SingleQubit(4, HADAMARD)]), Layer([SingleQubit(0, PAULI_X)])), 5, "CC", 2),
    ],
    ids=[
        "gather-then-contraction",
        "flip-on-identity-bit-of-run",
        "flip-after-contraction-disjoint",
        "gather-after-contraction",
        "two-runs-one-layer",
        "later-run-lower",
    ],
)
def test_hand_built_prefixes(layers, width, kinds, prefix):
    c = Circuit(n=width, a=0, target=width - 1, layers=layers)
    parts = compile_layers(c.layers, range(width)).parts
    assert "".join(type(p).__name__[0] for p in parts) == kinds
    assert prefix_length(parts) == prefix
    assert_matches_run(c, np.arange(2**width))


def test_a_toffoli_only_slice_is_all_prefix_with_exact_entries():
    c = build_parity_logdepth(7)
    compiled = compile_layers(c.layers, range(c.wires))
    assert compiled.parts and all(isinstance(p, Gather) for p in compiled.parts)
    start, rest = leading_product(compiled)
    assert rest.parts == () and start.runs == ()
    inputs = np.arange(2**c.wires)
    for first, block in run_basis(c, inputs):
        assert block.dtype == np.float64
        assert np.array_equal(np.count_nonzero(block, axis=0), np.ones(block.shape[1]))
        assert set(np.unique(block)) <= {0.0, 1.0}
    assert_matches_run(c, inputs[::7])


def test_a_gather_enters_the_closed_form_inverted():
    """No layer compiles to a gather that is not an involution, so a 3-cycle
    is built by hand: out[i] = in[index[i]] takes basis state y to the row
    i with index[i] == y."""
    index = np.array([1, 2, 0, 3, 5, 6, 4, 7])
    flip = SignFlip(np.float64([1, -1] * 4), 0b001)
    compiled = CompiledLayers((0, 1, 2), (Gather(index, 0b011), Contraction(2, HAAR), flip))
    start, rest = leading_product(compiled)
    assert rest.parts == ()
    block = np.empty((8, 8), dtype=complex)
    start.fill(block, np.arange(8))
    expect = np.eye(8, dtype=complex)
    b = sim.Block(compiled.wires, expect, np.empty_like(expect))
    for part in compiled.parts:
        part.apply(b)
    assert np.abs(block - b.amps).max() <= TOL


def test_an_empty_circuit_yields_the_basis_states():
    for layers in ((), (Layer(),)):
        c = Circuit(n=3, a=1, target=2, layers=layers)
        inputs = np.array([5, 0, 15, 5])
        ((first, block),) = run_basis(c, inputs)
        assert first == 0 and np.array_equal(block, np.eye(16)[:, inputs])


@pytest.mark.parametrize("extra", (-3, 5))
def test_unsorted_duplicate_inputs_with_a_short_last_chunk(extra):
    rng = np.random.default_rng(2200 + extra)
    c = random_single_qubit_z_circuit(7, 2, 4, rng)
    step = block_columns(c.wires)
    inputs = rng.integers(0, 2**c.wires, size=2 * step + extra)
    assert len(np.unique(inputs)) < len(inputs)
    widths = [block.shape[1] for _, block in run_basis(c, inputs)]
    assert widths[:-1] == [step] * (len(widths) - 1) and 0 < widths[-1] < step
    assert_matches_run(c, inputs)


def test_inputs_outside_the_basis_are_refused():
    c = random_single_qubit_z_circuit(3, 0, 2, np.random.default_rng(2300))
    for bad in (np.array([0, 8]), np.array([-1]), np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="basis inputs must be integers"):
            next(run_basis(c, bad))


@pytest.mark.parametrize("seed", range(4))
def test_each_block_applies_exactly_the_parts_after_the_prefix(monkeypatch, seed):
    rng = np.random.default_rng(2400 + seed)
    c = random_bounded_arity_circuit(5, 3, 4, rng, max_arity=3)
    parts = compile_layers(c.layers, range(c.wires)).parts
    after = [(type(p), p.mask) for p in parts[prefix_length(parts) :]]
    seen = []
    original = sim.apply_gate

    def counting(part, block):
        seen.append((type(part), part.mask))
        return original(part, block)

    monkeypatch.setattr(sim, "apply_gate", counting)
    inputs = np.arange(2**c.wires)
    blocks = sum(1 for _ in run_basis(c, inputs))
    assert blocks == -(-len(inputs) // block_columns(c.wires))
    assert seen == after * blocks
