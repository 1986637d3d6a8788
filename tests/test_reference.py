import math

import numpy as np
import pytest

from qshallow import (
    HADAMARD,
    Cnot,
    MeasurementSpec,
    PartialState,
    ReferenceOp,
    apply_reference,
    build_parity_logdepth,
    conjugate_parity_to_fanout,
    dense_operator,
    full_input_state,
    parity_capacity,
    parity_logdepth_depth,
    read_target,
    reference_dense,
    rewrite_toffoli_to_z,
    run,
    tradeoff_bound,
    validate,
    verify_clean,
)


def basis(wires, ones=()):
    return PartialState.basis(wires, {w: 1 for w in ones})


def test_parity_basis_action():
    op = ReferenceOp("parity", 3)
    s = basis(op.wires, ones=(0, 2))  # |101, b=0>
    out = apply_reference(op, s)
    assert np.array_equal(out.amps, s.amps)  # xor = 0, unchanged
    s0 = basis(op.wires)
    assert np.array_equal(apply_reference(op, s0).amps, s0.amps)


def test_fanout_basis_action():
    op = ReferenceOp("fanout", 3)
    s = basis(op.wires, ones=(0, 2, 3))  # |101, b=1>
    out = apply_reference(op, s)
    # x flips to 010, b stays 1: index 0b1010
    assert out.amps[0b1010] == 1.0


def test_apply_reference_on_superset_of_wires():
    op = ReferenceOp("parity", 2)
    s = basis((0, 1, 2, 5), ones=(1, 5))
    out = apply_reference(op, s)
    # parity of wires 0,1 is 1: target wire 2 flips; wire 5 untouched
    assert out.amps[0b1110] == 1.0


def test_apply_reference_coverage():
    op = ReferenceOp("parity", 3)
    with pytest.raises(ValueError, match="does not cover"):
        apply_reference(op, PartialState.zero((0, 1, 2)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fanout_is_hadamard_conjugate_of_parity(n):
    # Independent oracle: dense reference permutations and a plain Kronecker
    # product of Hadamards, no circuit machinery involved.
    h_all = np.array([[1.0]], dtype=complex)
    for _ in range(n + 1):
        h_all = np.kron(h_all, HADAMARD)
    p = reference_dense(ReferenceOp("parity", n))
    f = reference_dense(ReferenceOp("fanout", n))
    assert np.abs(h_all @ p @ h_all - f).max() <= 1e-10


def test_reference_dense_matches_apply_reference():
    op = ReferenceOp("fanout", 2)
    dense = reference_dense(op)
    for j in range(8):
        amps = np.zeros(8, dtype=complex)
        amps[j] = 1.0
        out = apply_reference(op, PartialState(op.wires, amps))
        assert np.array_equal(out.amps, dense[:, j])


# -- log-depth parity construction ------------------------------------------


def xor_tree_oracle(c, input_bits):
    """Independent bit-level evaluation of a Cnot-only circuit."""
    bits = list(input_bits)
    for layer in c.layers:
        updates = {}
        for g in layer.gates:
            assert isinstance(g, Cnot)
            updates[g.target] = bits[g.target] ^ bits[g.control]
        bits_after = list(bits)
        for w, v in updates.items():
            bits_after[w] = v
        bits = bits_after
    return tuple(bits)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 11, 16])
def test_build_parity_logdepth_is_clean_parity(n):
    c = build_parity_logdepth(n)
    assert validate(c) == []
    assert c.n == n + 1 and c.a == 0 and c.target == n
    assert c.depth() == parity_logdepth_depth(n)
    assert all(layer.gates for layer in c.layers)
    rng = np.random.default_rng(n)
    cases = range(2 ** (n + 1)) if n <= 6 else rng.integers(0, 2 ** (n + 1), size=200)
    for x in cases:
        input_bits = [(int(x) >> w) & 1 for w in range(n + 1)]
        out = xor_tree_oracle(c, input_bits)
        expected = list(input_bits)
        expected[n] ^= int(np.bitwise_xor.reduce(input_bits[:n]))
        assert list(out) == expected, f"n={n}, x={x:b}"


@pytest.mark.parametrize("n", [1, 4, 8])
def test_build_parity_logdepth_verify_clean(n):
    result = verify_clean(build_parity_logdepth(n), ReferenceOp("parity", n))
    assert result.ok and result.max_deviation <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_build_parity_logdepth_dense_permutation_equality(n):
    c = build_parity_logdepth(n)
    assert np.array_equal(dense_operator(c), reference_dense(ReferenceOp("parity", n)))


def test_parity_capacity_table():
    assert [parity_capacity(d) for d in range(1, 8)] == [1, 2, 4, 6, 10, 14, 22]
    assert [parity_logdepth_depth(n) for n in (1, 2, 4, 8, 16)] == [1, 2, 3, 5, 7]


def test_run_parity_on_spec_input():
    c = build_parity_logdepth(4)
    out = run(c, full_input_state(c, {0: 1, 1: 0, 2: 1, 3: 1}))
    # |1011, b=0> -> |1011, 1>; cross-check against the reference operator
    assert read_target(out, MeasurementSpec(c.target)).p1 == pytest.approx(1.0, abs=1e-12)
    ref = apply_reference(
        ReferenceOp("parity", 4), full_input_state(c, {0: 1, 1: 0, 2: 1, 3: 1})
    )
    assert np.abs(out.amps - ref.amps).max() <= 1e-12


def test_conjugate_adds_two_layers_and_cancels():
    c = build_parity_logdepth(2)
    once = conjugate_parity_to_fanout(c)
    assert once.depth() == c.depth() + 2
    twice = conjugate_parity_to_fanout(once)
    assert np.abs(dense_operator(twice) - dense_operator(c)).max() <= 1e-12


def test_conjugated_construction_computes_fanout():
    c = conjugate_parity_to_fanout(build_parity_logdepth(4))
    result = verify_clean(c, ReferenceOp("fanout", 4))
    assert result.ok


def test_conjugate_of_dense_parity_is_fanout():
    c = build_parity_logdepth(2)
    conj = conjugate_parity_to_fanout(c)
    assert np.abs(dense_operator(conj) - reference_dense(ReferenceOp("fanout", 2))).max() <= 1e-12


def test_tradeoff_bound_values():
    assert tradeoff_bound(1024, 0, "parity").unbounded_gate_depth == 16.0
    assert tradeoff_bound(1024, 31, "parity").unbounded_gate_depth == 8.0
    assert tradeoff_bound(1024, 0, "fanout").unbounded_gate_depth == 14.0
    b = tradeoff_bound(1024, 0, "parity")
    assert b.bounded_gate_depth == 10.0
    assert tradeoff_bound(1024, 0, "fanout").bounded_gate_depth == 8.0
    # fanout's unbounded bound floors at zero
    assert tradeoff_bound(2, 1, "fanout").unbounded_gate_depth == 0.0


def test_unbounded_bound_is_the_least_depth_the_fibonacci_growth_allows():
    """The least d with (a+1)*F(d+1) - a >= n, F(1) = F(2) = 1: at depth d-1
    the committed set of at most (a+1)*F(d) wires, a of them ancillae,
    leaves an input free."""
    fib = [0, 1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    for a in (0, 1, 2, 7, 31):
        for n in [*range(1, 300), 1024, 4096, 10**6]:
            d = tradeoff_bound(n, a, "parity").unbounded_gate_depth
            assert d == int(d) >= 0
            d = int(d)
            assert (a + 1) * fib[d + 1] - a >= n
            assert d == 0 or (a + 1) * fib[d] - a < n
            assert tradeoff_bound(n, a, "fanout").unbounded_gate_depth == max(d - 2, 0)


@pytest.mark.parametrize("n", range(1, 5))
def test_fanout_bounds_never_negative(n):
    fanout = tradeoff_bound(n, 0, "fanout")
    assert fanout.bounded_gate_depth == max(math.log2(n) - 2.0, 0.0) >= 0.0
    assert fanout.unbounded_gate_depth >= 0.0
    assert tradeoff_bound(n, 0, "parity").bounded_gate_depth == math.log2(n)


@pytest.mark.parametrize("kind", ["parity", "fanout"])
def test_basis_map_vectorized_matches_scalar(kind):
    op = ReferenceOp(kind, 5)
    indices = np.arange(2 ** (op.n + 1), dtype=np.int64)
    mapped = op.basis_map(indices)
    assert mapped.dtype == np.int64
    assert mapped.tolist() == [op.basis_map(int(x)) for x in indices]
    assert type(op.basis_map(7)) is int


def plain_basis_map(kind, n, index):
    """The module docstring's definition, bit by bit."""
    bits = [(index >> i) & 1 for i in range(n + 1)]
    if kind == "parity":
        for i in range(n):
            bits[n] ^= bits[i]
    else:
        bits[:n] = [x ^ bits[n] for x in bits[:n]]
    return sum(bit << i for i, bit in enumerate(bits))


@pytest.mark.parametrize("kind", ["parity", "fanout"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 12])
def test_basis_map_matches_the_bitwise_definition(kind, n):
    op = ReferenceOp(kind, n)
    indices = np.arange(2 ** (n + 1), dtype=np.int64)
    assert op.basis_map(indices).tolist() == [plain_basis_map(kind, n, int(x)) for x in indices]


@pytest.mark.parametrize("kind", ["parity", "fanout"])
def test_basis_map_on_python_ints_wider_than_int64(kind):
    op = ReferenceOp(kind, 70)
    rng = np.random.default_rng(0)
    for _ in range(50):
        index = int(rng.integers(0, 2**62)) << 9 | int(rng.integers(0, 2**9))
        assert op.basis_map(index) == plain_basis_map(kind, 70, index)


def test_tradeoff_bound_validation():
    with pytest.raises(ValueError):
        tradeoff_bound(0, 0, "parity")
    with pytest.raises(ValueError):
        tradeoff_bound(4, -1, "parity")
    with pytest.raises(ValueError, match="unknown operator kind 'banana': expected parity or fanout"):
        tradeoff_bound(4, 0, "banana")


def test_reference_op_and_construction_refuse_no_summed_bits():
    with pytest.raises(ValueError, match="reference op arity must be >= 1, got 0"):
        ReferenceOp("parity", 0)
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        parity_logdepth_depth(0)


@pytest.mark.parametrize(
    "n", [*range(1, 65), 128, 256, 512, 1024, 65, 99, 333, 577, 1000]
)
def test_unbounded_bound_counts_rewritten_layers(n):
    """The unbounded-gate bound counts single-qubit + Z layers: the Cnot-only
    construction beats it in Cnot layers at n=1024 (19 < 20.0), but not once
    each Cnot layer is rewritten to H, Z, H (57 layers)."""
    c = build_parity_logdepth(n)
    rewritten = rewrite_toffoli_to_z(c)
    assert tradeoff_bound(c.n, c.a, "parity").unbounded_gate_depth <= rewritten.depth()
