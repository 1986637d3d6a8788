"""Exact state-vector simulation over arbitrary wire subsets.

A :class:`PartialState` holds amplitudes for an explicit subset of a circuit's
wires, so sub-circuits can be simulated on exactly the wires they touch.

Amplitude indexing convention: the wire set is kept sorted ascending and bit
``p`` of the amplitude index (value ``2**p``) carries the p-th smallest wire.
So for wires (2, 5, 9), index 0b011 is the basis state with wires 2 and 5 set
to 1 and wire 9 set to 0.

There is one simulation core. :func:`compile_layers` compiles a slice of
layers once, for one wire ordering, into parts: each layer becomes a +-1
diagonal for all of its Z-gates (:class:`SignFlip`), an index permutation for
all of its Toffoli/Cnot gates (:class:`Gather`), and one :class:`Contraction`
per run of adjacent bits that carry its single-qubit gates: a run spans at
most ``FUSE_MAX_BITS`` bits and contracts them with the Kronecker product of
its gates (identity on a bit without one). The parts apply to a
*block*: a C-ordered complex array of shape ``(2**w, batch)`` whose column j
is one state over the w wires, so the batch index varies fastest in memory.
The block and one scratch buffer of its shape serve as ping-pong buffers,
each part is applied through :func:`apply_gate`, the per-part hook, and each
column's norm is checked once, after the last part. :func:`run` (a whole
circuit) and :func:`apply_layer` (one layer) are the :class:`PartialState`
entry points, batch-of-1 wrappers over the kernel; loops over many states
(basis inputs, random trials) hand it blocks of at most ``BLOCK_AMPS``
amplitudes each, or one column when a single state is larger.

No state wider than ``MAX_STATE_WIRES`` wires is allocated: the
:class:`PartialState` constructors, :func:`full_input_state`,
:func:`bit_table` and the kernel refuse such widths with ``ValueError``.

A gate that touches a wire outside the state raises :class:`CoverageError`,
and two gates of one layer on a shared wire raise ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuits import Circuit, Gate, Layer, MeasurementSpec, SingleQubit, Toffoli, ZGate

NORM_TOL = 1e-10
MAX_STATE_WIRES = 24  # 2**24 amplitudes = 256 MiB per state
BLOCK_AMPS = 2**15  # amplitudes per block handed to the kernel by batched loops
DENSE_OPERATOR_MAX_WIRES = 12
# Single-qubit gates of one layer on a run of up to this many adjacent bits
# compile into one contraction, so one pass over the block applies them all.
# A run of k bits costs 2**k multiply-adds per amplitude; 4 measured fastest
# (widths 1-6 compared in CHANGES.md).
FUSE_MAX_BITS = 4
# A contraction whose kron operand side 2**k * inner (inner = 2**p * batch)
# is at most this runs as one gemm against kron(U^T, I) instead of a stacked
# 2**k x 2**k matmul, which is several times slower there (each product
# covers too few amplitudes); above it, the kron operand's zeros cost more.
KRON_MAX_SIDE = 32


class CoverageError(ValueError):
    """A gate touches wires that the state does not cover."""


def check_width(width: int) -> None:
    """Refuse, before anything is allocated, a state over too many wires."""
    if width > MAX_STATE_WIRES:
        raise ValueError(
            f"a state over {width} wires exceeds the {MAX_STATE_WIRES}-wire simulation limit"
        )


def bit_table(weights: Sequence[int]) -> np.ndarray:
    """Entry j is the OR of ``weights[b]`` over the set bits b of j: the map
    from an index with one bit per weight to the bits those weights set."""
    check_width(len(weights))
    table = np.zeros(1 << len(weights), dtype=np.int64)
    for b, weight in enumerate(weights):
        np.bitwise_or(table[: 1 << b], weight, out=table[1 << b : 2 << b])
    return table


def tensor_indices(
    first: tuple[int, ...], second: tuple[int, ...]
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Sorted union of two disjoint wire tuples and, for every amplitude index
    over it, the matching index into each factor's amplitudes."""
    overlap = set(first) & set(second)
    if overlap:
        raise ValueError(f"tensor factors share wires {sorted(overlap)}")
    merged = tuple(sorted(first + second))
    check_width(len(merged))
    own = bit_table([1 << first.index(w) if w in first else 0 for w in merged])
    theirs = bit_table([1 << second.index(w) if w in second else 0 for w in merged])
    return merged, own, theirs


def _column_mass(x: np.ndarray) -> np.ndarray:
    """Sum of |amplitude|^2 over every axis but the last, without a
    temporary array of the input's size."""
    axes = "ijklm"[: x.ndim - 1] + "b"
    spec = f"{axes},{axes}->b"
    return np.einsum(spec, x.real, x.real) + np.einsum(spec, x.imag, x.imag)


def column_probabilities(block: np.ndarray, position: int, value: int = 1) -> np.ndarray:
    """Per column of a block: the probability that the wire at bit
    ``position`` reads ``value``."""
    return _column_mass(block.reshape(-1, 2, 1 << position, block.shape[1])[:, value])


def random_amps(width: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unit vector over ``width`` wires (normalized complex
    Gaussian), drawn as 2**width real parts, then 2**width imaginary parts."""
    raw = rng.standard_normal(2**width) + 1j * rng.standard_normal(2**width)
    return raw / np.linalg.norm(raw)


@dataclass(frozen=True)
class PartialState:
    """Unit-norm complex amplitudes over an explicit, sorted set of wires."""

    wires: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        wires = tuple(self.wires)
        if len(set(wires)) != len(wires):
            raise ValueError(f"duplicate wires in state: {wires}")
        if any(wires[i] >= wires[i + 1] for i in range(len(wires) - 1)):
            raise ValueError(f"state wires must be sorted ascending: {wires}")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2 ** len(wires),):
            raise ValueError(
                f"amplitude vector has length {amps.shape}, expected {2 ** len(wires)}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm!r} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "amps", amps)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(wires: Iterable[int]) -> "PartialState":
        return PartialState.basis(wires, {})

    @staticmethod
    def basis(wires: Iterable[int], bits: dict[int, int]) -> "PartialState":
        """Basis state with the given wire -> bit assignment (missing wires are 0)."""
        wires = tuple(sorted(wires))
        check_width(len(wires))
        index = 0
        for p, w in enumerate(wires):
            if bits.get(w, 0):
                index |= 1 << p
        amps = np.zeros(2 ** len(wires), dtype=complex)
        amps[index] = 1.0
        return PartialState(wires, amps)

    @staticmethod
    def random(wires: Iterable[int], rng: np.random.Generator) -> "PartialState":
        """Haar-ish random unit vector (normalized complex Gaussian)."""
        wires = tuple(sorted(wires))
        check_width(len(wires))
        return PartialState(wires, random_amps(len(wires), rng))

    # -- structure ----------------------------------------------------------

    def position(self, wire: int) -> int:
        """Bit position of a wire in the amplitude index."""
        try:
            return self.wires.index(wire)
        except ValueError:
            raise CoverageError(f"wire {wire} not covered by state over {self.wires}")

    def tensor(self, other: "PartialState") -> "PartialState":
        """Tensor product with a state over disjoint wires."""
        if not other.wires:  # a state over no wires is the scalar 1
            return self
        merged, own, theirs = tensor_indices(self.wires, other.wires)
        return PartialState(merged, self.amps[own] * other.amps[theirs])

    def extend_zeros(self, new_wires: Iterable[int]) -> "PartialState":
        """Grow the state by tensoring |0> on each new wire."""
        new_wires = tuple(sorted(set(new_wires) - set(self.wires)))
        if not new_wires:
            return self
        return self.tensor(PartialState.zero(new_wires))

    def restricted_probability(self, wire: int, value: int) -> float:
        """Total probability mass with the given wire equal to value."""
        column = self.amps.reshape(-1, 1)
        return float(column_probabilities(column, self.position(wire), value)[0])


READING_TOL = 1e-9  # a target |1>-probability at most this reads as 0


@dataclass(frozen=True)
class TargetReading:
    """Probability of measuring |1> on the target wire."""

    p1: float
    exact_zero: bool

    def __post_init__(self) -> None:
        if not -1e-12 <= self.p1 <= 1.0 + 1e-12:
            raise ValueError(f"probability {self.p1} outside [0, 1]")


def adjoint_gate(g: Gate) -> Gate:
    """Per-gate adjoint; Z-gates and Toffolis (Cnot included) are involutions."""
    if isinstance(g, SingleQubit):
        return SingleQubit(g.wire, g.u.conj().T)
    return g


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------


@dataclass
class Block:
    """States over ``wires`` as the columns of a C-ordered ``(2**w, batch)``
    array, and a scratch array of the same shape. A part that cannot work in
    place writes into the scratch array, and the two swap roles."""

    wires: tuple[int, ...]
    amps: np.ndarray
    scratch: np.ndarray

    def swap(self) -> None:
        self.amps, self.scratch = self.scratch, self.amps


@dataclass(frozen=True)
class SignFlip:
    """Every Z-gate of a layer, as one +-1 diagonal over the amplitude index."""

    signs: np.ndarray

    def apply(self, b: Block) -> None:
        b.amps *= self.signs[:, None]


@dataclass(frozen=True)
class Gather:
    """Every Toffoli (Cnot included) of a layer, as one permutation:
    ``out[i] = in[index[i]]``."""

    index: np.ndarray

    def apply(self, b: Block) -> None:
        np.take(b.amps, self.index, axis=0, out=b.scratch, mode="clip")
        b.swap()


@dataclass(frozen=True)
class Contraction:
    """The single-qubit gates of one layer on a run of k adjacent bits: the
    2**k x 2**k matrix ``u`` (their Kronecker product, identity on any bit of
    the run without a gate) on bits ``position`` to ``position + k - 1``,
    where bit ``position + j`` is bit j of u's index."""

    position: int
    u: np.ndarray

    def apply(self, b: Block) -> None:
        dim = self.u.shape[0]
        inner = (1 << self.position) * b.amps.shape[1]
        side = dim * inner
        if side <= KRON_MAX_SIDE:
            pair = (self.u.T[:, None, :, None] * np.eye(inner)[:, None, :]).reshape(side, side)
            np.matmul(b.amps.reshape(-1, side), pair, out=b.scratch.reshape(-1, side))
        else:
            np.matmul(
                self.u, b.amps.reshape(-1, dim, inner), out=b.scratch.reshape(-1, dim, inner)
            )
        b.swap()


_EYE2 = np.eye(2)


def _fused_contractions(singles: dict[int, np.ndarray]) -> list[Contraction]:
    """Single-qubit gate matrices keyed by bit position, as one contraction
    per run of at most ``FUSE_MAX_BITS`` adjacent positions. Each run starts
    at the lowest gate bit not yet covered and ends at its last gate bit."""
    runs: list[list[int]] = []
    for p in sorted(singles):
        if runs and p - runs[-1][0] < FUSE_MAX_BITS:
            runs[-1].append(p)
        else:
            runs.append([p])
    out = []
    for run in runs:
        u = singles[run[0]]
        for p in range(run[0] + 1, run[-1] + 1):
            a = singles.get(p, _EYE2)
            m = u.shape[0]  # kron(a, u): a acts on the run's new top bit
            u = (a[:, None, :, None] * u[None, :, None, :]).reshape(2 * m, 2 * m)
        out.append(Contraction(run[0], u))
    return out


Part = SignFlip | Gather | Contraction


def _compile_layer(
    gates: Sequence[Gate], wires: tuple[int, ...], position: dict[int, int], index: np.ndarray
) -> list[Part]:
    """One layer's parts: its Z-gates, its Toffolis and its single-qubit
    gates, fused by runs of adjacent bits. They commute, as gate supports
    within a layer are disjoint; a layer whose gates share a wire is refused."""

    def mask(ws: Iterable[int]) -> int:
        out = 0
        for w in ws:
            try:
                out |= 1 << position[w]
            except KeyError:
                raise CoverageError(f"wire {w} not covered by state over {wires}") from None
        return out

    used = 0
    flips = None
    gather = None
    singles: dict[int, np.ndarray] = {}
    for g in gates:
        if not isinstance(g, (ZGate, SingleQubit, Toffoli)):
            raise TypeError(f"unknown gate type {type(g).__name__}")
        support = mask(g.support())
        if support & used:
            shared = wires[(support & used).bit_length() - 1]
            raise ValueError(f"overlapping supports in one layer: wire {shared} is used twice")
        used |= support
        if isinstance(g, ZGate):
            fire = (index & support) == support
            flips = fire if flips is None else flips ^ fire
        elif isinstance(g, SingleQubit):
            singles[position[g.wire]] = g.u
        else:
            controls = mask(g.controls)
            step = np.where((index & controls) == controls, 1 << position[g.target], 0)
            gather = (index if gather is None else gather) ^ step
    parts: list[Part] = []
    if flips is not None:
        # float32 holds +-1 exactly, at half the memory of float64.
        parts.append(SignFlip(np.where(flips, -1.0, 1.0).astype(np.float32)))
    if gather is not None:
        parts.append(Gather(gather))
    return parts + _fused_contractions(singles)


@dataclass(frozen=True)
class CompiledLayers:
    """A layer slice compiled for one wire ordering (bit p = ``wires[p]``),
    as its parts in application order."""

    wires: tuple[int, ...]
    parts: tuple[Part, ...]

    def apply(self, block: np.ndarray) -> np.ndarray:
        """Run every column of a ``(2**w, batch)`` block through the slice.
        The block is overwritten; use the returned array, which is either the
        block or a scratch buffer of its shape."""
        if (
            block.ndim != 2
            or block.shape[0] != 2 ** len(self.wires)
            or block.dtype != complex
            or not block.flags.c_contiguous
        ):
            raise ValueError(
                f"need a C-ordered complex block of {2 ** len(self.wires)} rows,"
                f" got {block.dtype} {block.shape}"
            )
        b = Block(self.wires, block, np.empty_like(block))
        for part in self.parts:
            apply_gate(part, b)
        norms = np.sqrt(_column_mass(b.amps))
        bad = np.nonzero(~(np.abs(norms - 1.0) <= NORM_TOL))[0]
        if bad.size:
            raise ValueError(f"state norm {float(norms[bad[0]])!r} is not 1 within {NORM_TOL}")
        return b.amps


def compile_layers(layers: Sequence[Layer], wires: Iterable[int]) -> CompiledLayers:
    """Compile layers (in application order) over a wire ordering."""
    wires = tuple(wires)
    check_width(len(wires))
    position = {w: p for p, w in enumerate(wires)}
    index = np.arange(2 ** len(wires))
    parts: list[Part] = []
    for layer in layers:
        parts += _compile_layer(layer.gates, wires, position, index)
    return CompiledLayers(wires, tuple(parts))


def block_columns(width: int) -> int:
    """Columns per block for states over ``width`` wires (at least one)."""
    check_width(width)
    return max(1, BLOCK_AMPS >> width)


def _run_state(compiled: CompiledLayers, s: PartialState) -> PartialState:
    out = compiled.apply(s.amps.reshape(-1, 1).copy())
    return PartialState(s.wires, out[:, 0])


def apply_gate(part: Part, block: Block) -> None:
    """Apply one compiled part to a block in place. The kernel applies every
    part through here, so a profile of this function covers all simulation
    work."""
    part.apply(block)


def apply_layer(layer: Layer, s: PartialState) -> PartialState:
    """Apply every gate of a layer (order irrelevant: disjoint supports)."""
    return _run_state(compile_layers((layer,), s.wires), s)


def run(c: Circuit, state: PartialState) -> PartialState:
    """Apply every layer of the circuit, ``layers[0]`` first."""
    return _run_state(compile_layers(c.layers, state.wires), state)


def run_basis(c: Circuit, inputs: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Run the whole circuit on basis states over all of its wires, given as
    integers with bit w = wire w, one block at a time. Yields
    ``(first, block)``: column j of the block is the output for
    ``inputs[first + j]``. The caller may overwrite the block."""
    compiled = compile_layers(c.layers, range(c.wires))
    step = block_columns(c.wires)
    for first in range(0, len(inputs), step):
        chunk = inputs[first : first + step]
        block = np.zeros((2**c.wires, len(chunk)), dtype=complex)
        block[chunk, np.arange(len(chunk))] = 1.0
        yield first, compiled.apply(block)


def read_target(s: PartialState, m: MeasurementSpec) -> TargetReading:
    """Probability mass on target = 1; flags p1 <= ``READING_TOL`` as exactly zero."""
    p1 = s.restricted_probability(m.wire, 1)
    return TargetReading(p1=p1, exact_zero=p1 <= READING_TOL)


def full_input_state(c: Circuit, input_bits: dict[int, int]) -> PartialState:
    """Basis state over all wires of the circuit; unlisted wires (including
    all ancillae) start as |0>. Refused beyond ``MAX_STATE_WIRES`` wires."""
    return PartialState.basis(range(c.wires), input_bits)


def dense_operator(c: Circuit) -> np.ndarray:
    """Full 2^w x 2^w matrix of the circuit (column j = circuit applied to
    basis state j). Limited to ``DENSE_OPERATOR_MAX_WIRES`` wires."""
    w = c.wires
    if w > DENSE_OPERATOR_MAX_WIRES:
        raise ValueError(
            f"dense_operator limited to {DENSE_OPERATOR_MAX_WIRES} wires, circuit has {w}"
        )
    dim = 2**w
    out = np.empty((dim, dim), dtype=complex)
    for first, block in run_basis(c, np.arange(dim)):
        out[:, first : first + block.shape[1]] = block
    return out

