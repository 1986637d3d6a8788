"""Reference operators (parity, fanout) and explicit circuit constructions.

A :class:`ReferenceOp` of arity n acts on wires 0..n: wires 0..n-1 are the
fanned/summed bits and wire n is the distinguished bit b. On basis states:

- parity: b ^= x_0 ^ ... ^ x_{n-1}, the x wires unchanged;
- fanout: x_i ^= b for every i, b unchanged.

The two are conjugate via a Hadamard on every wire, which
:func:`conjugate_parity_to_fanout` realizes as a depth +2 circuit transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .circuits import HADAMARD, Circuit, Cnot, Layer, SingleQubit
from .sim import PartialState, index_map

OpKind = Literal["parity", "fanout"]


def check_op_kind(kind: str) -> None:
    """Refuse, with ``ValueError``, any operator kind but parity and fanout."""
    if kind not in get_args(OpKind):
        raise ValueError(f"unknown operator kind {kind!r}: expected parity or fanout")


@dataclass(frozen=True)
class ReferenceOp:
    """Exact basis-permutation operator on wires 0..n (wire n is b)."""

    kind: OpKind
    n: int

    def __post_init__(self) -> None:
        check_op_kind(self.kind)
        if self.n < 1:
            raise ValueError(f"reference op arity must be >= 1, got {self.n}")

    @property
    def wires(self) -> tuple[int, ...]:
        return tuple(range(self.n + 1))

    def basis_map(self, index):
        """Image of a basis state given as an integer with bit i = wire i.
        Also maps an int64 array of such integers elementwise; a Python int
        maps to a Python int."""
        if self.kind == "parity":
            # Fold the x bits onto bit 0: after shifts 1, 2, 4, ... reaching
            # n, bit 0 holds x_0 ^ ... ^ x_{n-1} (the bits above are masked off).
            par = index & ((1 << self.n) - 1)
            shift = 1
            while shift < self.n:
                par ^= par >> shift
                shift <<= 1
            return index ^ ((par & 1) << self.n)
        b_bit = (index >> self.n) & 1
        return index ^ (b_bit * ((1 << self.n) - 1))


def apply_reference(op: ReferenceOp, s: PartialState) -> PartialState:
    """Apply the operator's basis permutation, extended linearly. The state
    must cover all n+1 wires of the op (it may cover more)."""
    missing = [w for w in op.wires if w not in s.wires]
    if missing:
        raise ValueError(f"state over {s.wires} does not cover op wires {missing}")
    local = index_map(s.wires, op.wires)
    to_state = index_map(op.wires, s.wires)
    out = np.empty_like(s.amps)
    out[np.arange(s.amps.size) ^ to_state[local ^ op.basis_map(local)]] = s.amps
    return PartialState(s.wires, out)


def reference_dense(op: ReferenceOp) -> np.ndarray:
    """Dense permutation matrix of the op on its own n+1 wires."""
    dim = 2 ** (op.n + 1)
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        out[op.basis_map(j), j] = 1.0
    return out


# ---------------------------------------------------------------------------
# Log-depth parity construction
#
# The circuit computes the parity operator itself: the target picks up the
# XOR of all inputs and every input wire is returned to its original value.
# Restoring the inputs is what costs depth. A CNOT layer can feed the target
# from at most one wire, and a wire feeding the target at layer i can hold a
# subtree XOR of at most 2^(i-1) inputs (built in layers 1..i-1) that must be
# unwound again in layers i+1..d. The achievable leaf budget at depth d is
# therefore
#
#     capacity(d) = sum_{i=1..d} 2^min(i-1, d-i)
#
# and the builder emits the greedy schedule meeting it: per feed slot i, an
# XOR subtree over its own block of inputs, computed just in time, injected
# into the target at layer i, then unwound in mirror order.
# ---------------------------------------------------------------------------


def parity_capacity(depth: int) -> int:
    """Maximum number of inputs the pipelined-tree construction handles."""
    return sum(2 ** min(i - 1, depth - i) for i in range(1, depth + 1))


def parity_logdepth_depth(n: int) -> int:
    """Exact depth of build_parity_logdepth(n): min{d >= 1 : capacity(d) >= n}."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = 1
    while parity_capacity(d) < n:
        d += 1
    return d


def build_parity_logdepth(n: int) -> Circuit:
    """CNOT-only circuit on n+1 wires (inputs 0..n-1, target b = wire n) that
    computes the parity operator exactly, at the depth given by
    :func:`parity_logdepth_depth`. Works for every n >= 1, powers of two or not.
    """
    depth = parity_logdepth_depth(n)
    target = n
    layer_gates: list[list[Cnot]] = [[] for _ in range(depth)]

    # Greedy slot sizes: slot i (1-based layer) may carry 2^min(i-1, d-i) leaves.
    remaining = n
    next_wire = 0
    for slot in range(1, depth + 1):
        size = min(2 ** min(slot - 1, depth - slot), remaining)
        if size == 0:
            continue
        block = list(range(next_wire, next_wire + size))
        next_wire += size
        remaining -= size
        tree_depth = max(0, (size - 1).bit_length())  # ceil(log2(size)), 0 for size 1
        # Level l of the block's XOR tree into block[0] runs in layer
        # slot-tree_depth-1+l and, unwinding in mirror order, in layer
        # slot+tree_depth+1-l (1-based); the sum reaches the target in layer slot.
        for level in range(1, tree_depth + 1):
            stride = 2 ** (level - 1)
            gates = [Cnot(block[j + stride], block[j]) for j in range(0, size - stride, 2 * stride)]
            layer_gates[slot - tree_depth - 2 + level].extend(gates)
            layer_gates[slot + tree_depth - level].extend(gates)
        layer_gates[slot - 1].append(Cnot(block[0], target))
    assert remaining == 0, "slot capacities did not cover all inputs"
    return Circuit(
        n=n + 1,
        a=0,
        target=target,
        layers=tuple(Layer(gates) for gates in layer_gates),
    )


def conjugate_parity_to_fanout(c: Circuit) -> Circuit:
    """Sandwich the circuit between Hadamard layers on every non-ancilla wire
    (depth +2). A circuit computing parity cleanly then computes fanout
    cleanly, and vice versa."""
    h_layer = Layer(SingleQubit(w, HADAMARD) for w in range(c.n))
    return Circuit(
        n=c.n, a=c.a, target=c.target, layers=(h_layer,) + tuple(c.layers) + (h_layer,)
    )


def analyzed_circuit(c: Circuit, against: OpKind) -> Circuit:
    """The circuit both no-side arguments analyze: the circuit itself against
    parity; against fanout, its Hadamard conjugate, since a parity verdict on
    the conjugate is a fanout verdict on the circuit. Any other ``against``
    is refused."""
    check_op_kind(against)
    return conjugate_parity_to_fanout(c) if against == "fanout" else c


@dataclass(frozen=True)
class TradeoffBound:
    """Minimum-depth formulas for computing an operator on n bits with a
    ancillae. ``unbounded_gate_depth`` is an integer threshold held as a
    float; ``bounded_gate_depth`` is real (callers take its ceiling against
    integer depths).

    ``unbounded_gate_depth`` counts layers of the single-qubit + Z form that
    the gate-killing argument analyzes: a circuit with Toffoli or Cnot gates
    is measured after :func:`rewrite_toffoli_to_z`, which turns each of its
    Toffoli layers into three. ``bounded_gate_depth`` applies to circuits
    whose gate arity is bounded (any number of ancillae).
    """

    gate: OpKind
    n: int
    a: int
    unbounded_gate_depth: float
    bounded_gate_depth: float


def tradeoff_bound(n: int, a: int, gate: OpKind) -> TradeoffBound:
    """Depth lower bounds. Against unbounded-arity Toffoli/Z circuits, counted
    in single-qubit + Z layers after :func:`rewrite_toffoli_to_z`, parity
    needs depth at least the least d with (a+1)*F(d+1) - a >= n (Fibonacci,
    F(1) = F(2) = 1). Below it the improved-mode construction leaves an input
    free: each recruit of step k+1 kills a distinct gate that touches a wire
    of K_k not pinned at step k, so |K_{k+1}| <= |K_k| + |K_{k-1}| from
    |K_1| = a+1 and |K_2| <= 2(a+1), and K holds at most (a+1)*F(d+1) wires
    after d steps, a of them ancillae. Against bounded-arity circuits parity
    needs log2(n). Fanout sheds 2 layers from each (its Hadamard
    conjugation), never going below 0."""
    if n < 1 or a < 0:
        raise ValueError(f"need n >= 1, a >= 0, got n={n}, a={a}")
    check_op_kind(gate)
    depth, fib, prev = 0, 1, 0  # fib = F(depth + 1), prev = F(depth)
    while (a + 1) * fib - a < n:
        depth, fib, prev = depth + 1, fib + prev, fib
    unbounded = float(depth)
    bounded = math.log2(n)
    if gate == "fanout":
        unbounded = max(unbounded - 2.0, 0.0)
        bounded = max(bounded - 2.0, 0.0)
    return TradeoffBound(
        gate=gate, n=n, a=a, unbounded_gate_depth=unbounded, bounded_gate_depth=bounded
    )
