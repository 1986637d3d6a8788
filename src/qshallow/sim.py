"""Exact state-vector simulation over arbitrary wire subsets.

A :class:`PartialState` holds amplitudes for an explicit subset of a circuit's
wires, so sub-circuits can be simulated on exactly the wires they touch.

Amplitude indexing convention: the wire set is kept sorted ascending and bit
``p`` of the amplitude index (value ``2**p``) carries the p-th smallest wire.
So for wires (2, 5, 9), index 0b011 is the basis state with wires 2 and 5 set
to 1 and wire 9 set to 0. :func:`index_map` is the one place that turns two
wire orderings into an index table between them.

There is one simulation core. :func:`compile_layers` compiles a slice of
layers once, for one wire ordering, into parts: each layer becomes a +-1
diagonal for all of its Z-gates (:class:`SignFlip`), an index permutation for
all of its Toffoli/Cnot gates (:class:`Gather`), and one :class:`Contraction`
per run of adjacent bits that carry its single-qubit gates: a run spans at
most ``FUSE_MAX_BITS`` bits and contracts them with the Kronecker product of
its gates (identity on a bit without one). Across the slice, a single-qubit
gate folds into the previous single-qubit gate on its wire when no Z-gate or
Toffoli touched that wire in between: the earlier layer contracts their
product and the later layer drops the gate. This never adds a contraction,
since the earlier layer already contracts that bit, and it removes the later
layer's contraction when nothing else is left in its run; a chain of gates on
one wire then costs one pass. When the later gate is bitwise the adjoint of
the matrix held on its wire (``H H``, ``X X``, ``U U^dag``), both gates go
instead of contracting a product that is the identity only up to rounding,
and the wire stays open at the earlier layer. Each layer's sign flip stays
in its layer's place. The circuit's own gates are never changed, and
:func:`apply_layer` compiles a single layer, so it never folds or cancels.

The parts apply to a *block*: a C-ordered array of shape ``(2**w, batch)``
whose column j is one state over the w wires, so the batch index varies
fastest in memory. A block is complex, or float64 when the compiled slice is
real: no contraction has a non-zero imaginary part (sign flips and gathers
always are real). :func:`run_basis` hands real slices float64 blocks, so
basis-input loops over circuits of Toffolis, Z-gates, H and X run in real
arithmetic throughout; a complex block contracts in complex arithmetic.
:meth:`CompiledLayers.apply` takes the block alone and allocates one scratch
buffer of its shape; the two serve as ping-pong buffers, each part is
applied through :func:`apply_gate`, the per-part hook, and each column's
norm is checked once, after the last part, in one pass over the block's
float64 view. :func:`run` (a whole circuit) and :func:`apply_layer` (one
layer) are the :class:`PartialState` entry points, batch-of-1 wrappers over
the kernel; loops over many states
(basis inputs, the tests' sampled rest states) hand it blocks of at most
``BLOCK_AMPS`` amplitudes each, or one column when a single state is larger.
The wrappers do no work the arithmetic does not need: a layer with no gates
returns the state itself, and a state the kernel returns (or a tensor
product, or a projection) is not checked a second time.

:func:`run_basis`, the loop under the brute-force oracles, does not run the
slice's leading product parts on its basis inputs: up to the first part that
touches a bit an earlier contraction spans, the parts take a basis state to a
product state, which :class:`ProductStart` writes in closed form. The kernel
applies the parts after them. Every block of one call reuses the same two
buffers.

No state wider than ``MAX_STATE_WIRES`` wires is allocated: the
:class:`PartialState` constructors, :func:`full_input_state`,
:func:`bit_table` and the kernel refuse such widths with ``ValueError``.

A gate that touches a wire outside the state raises :class:`CoverageError`,
and two gates of one layer on a shared wire raise ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def index_map(wires: Sequence[int], sub: Sequence[int]) -> np.ndarray:
    """For every amplitude index over ``wires`` (bit p carries ``wires[p]``),
    the index over ``sub`` that reads the same bits: bit i carries ``sub[i]``,
    and a wire of ``sub`` outside ``wires`` reads 0."""
    return bit_table([1 << sub.index(w) if w in sub else 0 for w in wires])


def tensor_indices(
    first: tuple[int, ...], second: tuple[int, ...]
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Sorted union of two disjoint wire tuples and, for every amplitude index
    over it, the matching index into each factor's amplitudes."""
    overlap = set(first) & set(second)
    if overlap:
        raise ValueError(f"tensor factors share wires {sorted(overlap)}")
    merged = tuple(sorted(first + second))
    return merged, index_map(merged, first), index_map(merged, second)


def _column_mass(x: np.ndarray) -> np.ndarray:
    """Sum of |amplitude|^2 over the first two of three axes, without a
    temporary array of the input's size."""
    mass = np.einsum("ijb,ijb->b", x.real, x.real)
    if x.dtype.kind == "c":
        mass += np.einsum("ijb,ijb->b", x.imag, x.imag)
    return mass


def column_probabilities(block: np.ndarray, position: int, value: int = 1) -> np.ndarray:
    """Per column of a block: the probability that the wire at bit
    ``position`` reads ``value``, the int 0 or 1 (a bool is refused)."""
    _check_bit(value)
    return _column_mass(block.reshape(-1, 2, 1 << position, block.shape[1])[:, value])


def _check_bit(value: object) -> None:
    """Refuse, with ``ValueError``, anything but the int 0 or 1 (a bool too)."""
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"a wire reads the int 0 or 1, not {value!r}")


def random_amps(width: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unit vector over ``width`` wires (normalized complex
    Gaussian), drawn as 2**width real parts, then 2**width imaginary parts."""
    raw = rng.standard_normal(2**width) + 1j * rng.standard_normal(2**width)
    return raw / np.linalg.norm(raw)


def _ascending(wires: Iterable[int]) -> tuple[int, ...]:
    """``wires`` as a tuple, refused unless ascending without duplicates."""
    wires = tuple(wires)
    if any(wires[i] >= wires[i + 1] for i in range(len(wires) - 1)):
        raise ValueError(f"state wires must be ascending without duplicates: {wires}")
    return wires


@dataclass(frozen=True)
class PartialState:
    """Unit-norm complex amplitudes over an explicit, sorted set of wires.

    The constructor checks that the wires ascend, that there are
    ``2**len(wires)`` amplitudes and that their norm is 1. A state the
    simulator derives from checked ones (a kernel output, whose norm the
    kernel has checked, a tensor product, a projection) skips those checks
    through :meth:`_derived`."""

    wires: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        wires = _ascending(self.wires)
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

    def __eq__(self, other: object) -> bool:
        # Exact amplitudes; hashing still fails on the array, as for SingleQubit.
        return (
            isinstance(other, PartialState)
            and self.wires == other.wires
            and np.array_equal(self.amps, other.amps)
        )

    @classmethod
    def _derived(cls, wires: tuple[int, ...], amps: np.ndarray) -> "PartialState":
        """A state whose ascending wires, complex ``2**len(wires)`` amplitudes
        and unit norm its producer already guarantees."""
        s = object.__new__(cls)
        object.__setattr__(s, "wires", wires)
        object.__setattr__(s, "amps", amps)
        return s

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(wires: Iterable[int]) -> "PartialState":
        return PartialState.basis(wires, {})

    @staticmethod
    def basis(wires: Iterable[int], bits: dict[int, int]) -> "PartialState":
        """Basis state with the given wire -> bit assignment (missing wires
        are 0). A bit on a wire outside ``wires``, or one that is not the int
        0 or 1, is refused with ``ValueError``."""
        wires = tuple(sorted(wires))
        check_width(len(wires))
        position = {w: p for p, w in enumerate(wires)}
        index = 0
        for w, bit in bits.items():
            if w not in position:
                raise ValueError(f"wire {w!r} is not among the state's wires {wires}")
            _check_bit(bit)
            index |= bit << position[w]
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
        return PartialState._derived(merged, self.amps[own] * other.amps[theirs])

    def extend_zeros(self, new_wires: Iterable[int]) -> "PartialState":
        """Grow the state by tensoring |0> on each new wire."""
        new_wires = tuple(sorted(set(new_wires) - set(self.wires)))
        if not new_wires:
            return self
        check_width(len(new_wires))
        zeros = np.zeros(2 ** len(new_wires), dtype=complex)
        zeros[0] = 1.0
        return self.tensor(PartialState._derived(new_wires, zeros))

    def project_zeros(self, wires: Iterable[int]) -> "PartialState":
        """The state left on ``wires``, a subset of this state's wires in
        ascending order, once every other wire is projected onto |0>,
        renormalized: the inverse of :meth:`extend_zeros` on a state whose
        other wires read |0>."""
        wires = tuple(wires)
        if wires == self.wires:
            amps = self.amps
        else:
            for w in _ascending(wires):
                self.position(w)
            amps = self.amps[index_map(wires, self.wires)]
        norm = np.linalg.norm(amps)
        if not norm > 0.0:
            raise ValueError(f"no mass is left on {wires} with the other wires at |0>")
        return PartialState._derived(wires, amps / norm)

    def restricted_probability(self, wire: int, value: int) -> float:
        """Total probability mass with the given wire equal to value (the
        int 0 or 1)."""
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
    """Z-gates as one +-1 diagonal over the amplitude index; ``mask`` holds
    the bits they touch."""

    signs: np.ndarray
    mask: int

    def apply(self, b: Block) -> None:
        b.amps *= self.signs[:, None]


@dataclass(frozen=True)
class Gather:
    """Every Toffoli (Cnot included) of a layer, as one permutation:
    ``out[i] = in[index[i]]``; ``mask`` holds the bits the gates touch."""

    index: np.ndarray
    mask: int

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
    # ``u`` as a float64 matrix when its imaginary part is exactly zero (H, X
    # and their folded products), else None.
    real_u: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        real = not np.count_nonzero(self.u.imag)
        object.__setattr__(self, "real_u", self.u.real.copy() if real else None)

    @property
    def mask(self) -> int:
        """The run's bits."""
        return (self.u.shape[0] - 1) << self.position

    def apply(self, b: Block) -> None:
        dim = self.u.shape[0]
        u = self.u if b.amps.dtype == complex else self.real_u
        inner = (1 << self.position) * b.amps.shape[1]
        side = dim * inner
        if side <= KRON_MAX_SIDE:
            pair = (u.T[:, None, :, None] * np.eye(inner)[:, None, :]).reshape(side, side)
            np.matmul(b.amps.reshape(-1, side), pair, out=b.scratch.reshape(-1, side))
        else:
            np.matmul(u, b.amps.reshape(-1, dim, inner), out=b.scratch.reshape(-1, dim, inner))
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
) -> tuple[list[Part], dict[int, np.ndarray], int]:
    """One layer's diagonal and permutation parts, its single-qubit gate
    matrices keyed by bit position, and the mask of the bits its gates
    touch. They commute, as gate supports within a layer are disjoint; a
    layer whose gates share a wire is refused."""

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
    z_bits = 0
    toffoli_bits = 0
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
            z_bits |= support
        elif isinstance(g, SingleQubit):
            singles[position[g.wire]] = g.u
        else:
            controls = mask(g.controls)
            step = np.where((index & controls) == controls, 1 << position[g.target], 0)
            gather = (index if gather is None else gather) ^ step
            toffoli_bits |= support
    parts: list[Part] = []
    if flips is not None:
        parts.append(SignFlip(np.where(flips, -1.0, 1.0), z_bits))
    if gather is not None:
        parts.append(Gather(gather, toffoli_bits))
    return parts, singles, used


@dataclass(frozen=True)
class CompiledLayers:
    """A layer slice compiled for one wire ordering (bit p = ``wires[p]``),
    as its parts in application order."""

    wires: tuple[int, ...]
    parts: tuple[Part, ...]
    # Whether every part is real: no contraction has a non-zero imaginary
    # part (sign flips and gathers always are real).
    real: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        real = all(p.real_u is not None for p in self.parts if isinstance(p, Contraction))
        object.__setattr__(self, "real", real)

    def apply(self, block: np.ndarray) -> np.ndarray:
        """Run every column of a ``(2**w, batch)`` block through the slice.
        The block is complex, or float64 when the slice is real. It is
        overwritten; use the returned array, which is it or a scratch array
        of its shape allocated here."""
        return self._run(Block(self.wires, block, np.empty_like(block)))

    def _run(self, b: Block) -> np.ndarray:
        """Apply every part to a block whose scratch array is C-ordered, of
        its shape and dtype, and apart from it; check each column's norm."""
        block = b.amps
        complex_block = block.dtype == complex
        if (
            block.ndim != 2
            or block.shape[0] != 2 ** len(self.wires)
            or not (complex_block or self.real and block.dtype == np.float64)
            or not block.flags.c_contiguous
        ):
            kinds = "complex128 or float64" if self.real else "complex128"
            raise ValueError(
                f"need a C-ordered {kinds} block of {2 ** len(self.wires)} rows,"
                f" got {block.dtype} {block.shape}"
            )
        for part in self.parts:
            apply_gate(part, b)
        # One pass over the float64 view: on a complex block, columns 2j and
        # 2j+1 hold column j's real and imaginary parts.
        flat = b.amps.view(np.float64)
        sq = np.einsum("ij,ij->j", flat, flat)
        norms = np.sqrt(sq[0::2] + sq[1::2] if complex_block else sq)
        ok = np.abs(norms - 1.0) <= NORM_TOL
        if np.count_nonzero(ok) < ok.size:
            bad = float(norms[np.argmin(ok)])
            raise ValueError(f"state norm {bad!r} is not 1 within {NORM_TOL}")
        return b.amps


def compile_layers(layers: Sequence[Layer], wires: Iterable[int]) -> CompiledLayers:
    """Compile layers (in application order) over a wire ordering.

    A single-qubit gate folds into the previous single-qubit gate on its wire
    when no Z-gate or Toffoli touched the wire in between: the earlier layer
    applies their product, and the later layer loses the gate. That never adds
    a contraction, as the earlier layer already contracted that bit. When the
    later gate is exactly the adjoint of the matrix held there, both go
    instead, and the wire stays open at the earlier layer, where a later gate
    on it can still fold. Gates of one layer never fold together: each layer
    is checked, and a layer whose gates share a wire refused, before any of
    its gates folds. Each layer's sign flip stays in its layer's place."""
    wires = tuple(wires)
    check_width(len(wires))
    position = {w: p for p, w in enumerate(wires)}
    index = np.arange(2 ** len(wires))
    compiled: list[tuple[list[Part], dict[int, np.ndarray]]] = []
    # bit -> the single-qubit matrices of the layer that later gates on that
    # bit fold into (no Z-gate or Toffoli has touched the bit since); after a
    # cancellation that layer holds no matrix on the bit until one folds in
    open_at: dict[int, dict[int, np.ndarray]] = {}
    for layer in layers:
        parts, singles, used = _compile_layer(layer.gates, wires, position, index)
        open_at = {p: held for p, held in open_at.items() if p in singles or not used >> p & 1}
        for p in list(singles):
            held = open_at.get(p)
            if held is None:
                open_at[p] = singles
                continue
            u = singles.pop(p)
            if p not in held:
                held[p] = u
            elif np.array_equal(u, held[p].conj().T):
                del held[p]
            else:
                held[p] = u @ held[p]
        compiled.append((parts, singles))
    return CompiledLayers(
        wires,
        tuple(part for parts, singles in compiled for part in parts + _fused_contractions(singles)),
    )


def block_columns(width: int) -> int:
    """Columns per block for states over ``width`` wires (at least one)."""
    check_width(width)
    return max(1, BLOCK_AMPS >> width)


def _run_state(compiled: CompiledLayers, s: PartialState) -> PartialState:
    block = s.amps.reshape(-1, 1).copy()
    out = compiled.apply(block)
    return PartialState._derived(s.wires, out[:, 0])


def apply_gate(part: Part, block: Block) -> None:
    """Apply one compiled part to a block in place. The kernel applies every
    part through here, so a profile of this function covers all simulation
    work except the leading product parts that :func:`run_basis` evaluates
    in closed form (:class:`ProductStart`)."""
    part.apply(block)


def apply_layer(layer: Layer, s: PartialState) -> PartialState:
    """Apply every gate of a layer (order irrelevant: disjoint supports). A
    layer with no gates returns the state itself."""
    if not layer.gates:
        return s
    return _run_state(compile_layers((layer,), s.wires), s)


def run(c: Circuit, state: PartialState) -> PartialState:
    """Apply every layer of the circuit, ``layers[0]`` first."""
    return _run_state(compile_layers(c.layers, state.wires), state)


@dataclass(frozen=True)
class ProductStart:
    """The leading product parts of a compiled slice, evaluated in closed form
    on basis inputs: the longest prefix of the parts in which no part touches
    a bit that an earlier contraction of the prefix spans.

    Within the prefix every sign flip and gather acts on basis bits only, so
    it applies to the integer inputs: a sign per input, and the inverse of
    the gather's permutation (``steps`` holds each sign flip as it is and
    each gather with its index inverted). The contractions (``runs``, by
    position) act on disjoint bit runs, so input x becomes the product state
    ``sign(x) * prod_r u_r[i_r, x_r]`` at row ``(x & ~spanned) | sum_r i_r <<
    p_r``, where x is the input after the gathers and x_r its bits on run r.
    ``offsets[i]`` is the row offset of the spanned bits' values read as the
    compact index i, lowest spanned bit first."""

    steps: tuple[SignFlip | Gather, ...]
    runs: tuple[Contraction, ...]
    spanned: int
    offsets: np.ndarray

    def fill(self, block: np.ndarray, inputs: np.ndarray) -> None:
        """Write into column j of the ``(2**w, len(inputs))`` block the image
        of the basis state whose amplitude index is ``inputs[j]``."""
        x = inputs
        batch = len(x)
        amps = np.ones((1, batch))
        for step in self.steps:
            if isinstance(step, SignFlip):
                amps = amps * step.signs[x]
            else:
                x = step.index[x]
        for run in self.runs:
            u = run.u if block.dtype == complex else run.real_u
            column = u[:, (x >> run.position) & (len(u) - 1)]
            amps = (column[:, None, :] * amps[None]).reshape(-1, batch)
        block.fill(0.0)
        base = (x & ~self.spanned) * batch + np.arange(batch)
        block.reshape(-1)[self.offsets[:, None] * batch + base] = amps


def leading_product(compiled: CompiledLayers) -> tuple[ProductStart, CompiledLayers]:
    """Split a compiled slice into its leading product parts, in closed form,
    and a slice over the same wires of the parts after them."""
    spanned = 0
    steps: list[SignFlip | Gather] = []
    runs: list[Contraction] = []
    for part in compiled.parts:
        if part.mask & spanned:
            break
        if isinstance(part, Contraction):
            runs.append(part)
            spanned |= part.mask
        elif isinstance(part, Gather):
            inverse = np.empty_like(part.index)
            inverse[part.index] = np.arange(part.index.size)
            steps.append(Gather(inverse, part.mask))
        else:
            steps.append(part)
    start = ProductStart(
        tuple(steps),
        tuple(sorted(runs, key=lambda r: r.position)),
        spanned,
        bit_table([1 << p for p in range(len(compiled.wires)) if spanned >> p & 1]),
    )
    return start, CompiledLayers(compiled.wires, compiled.parts[len(steps) + len(runs) :])


def run_basis(c: Circuit, inputs: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Run the whole circuit on basis states over all of its wires, given as
    integers with bit w = wire w, one block at a time. Yields
    ``(first, block)``: column j of the block is the output for
    ``inputs[first + j]``. The blocks are float64 when the compiled circuit
    is real, complex otherwise. Each block starts as the closed-form image
    of its inputs under the leading product parts (:class:`ProductStart`),
    and the kernel applies the parts after them. The caller may overwrite a
    block; it stays valid until the next one is requested, as every block
    reuses the same two buffers."""
    dim = 2**c.wires
    inputs = np.asarray(inputs)
    integral = inputs.dtype.kind in "iu"
    if not integral or inputs.size and not 0 <= inputs.min() <= inputs.max() < dim:
        raise ValueError(f"basis inputs must be integers in [0, {dim})")
    inputs = inputs.astype(np.int64, copy=False)
    compiled = compile_layers(c.layers, range(c.wires))
    start, rest = leading_product(compiled)
    step = block_columns(c.wires)
    dtype = float if compiled.real else complex
    size = dim * min(step, len(inputs))
    amps, scratch = np.empty(size, dtype), np.empty(size, dtype)
    for first in range(0, len(inputs), step):
        chunk = inputs[first : first + step]
        block = amps[: dim * len(chunk)].reshape(dim, len(chunk))
        start.fill(block, chunk)
        yield first, rest._run(Block(rest.wires, block, scratch[: block.size].reshape(block.shape)))


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

