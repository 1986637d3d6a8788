"""Layered circuit representation, validation, file format, and rewrites.

Conventions used throughout the package:

- Wires are 0-based. A circuit has ``n`` input wires (0 .. n-1) followed by
  ``a`` ancilla wires (n .. n+a-1). Ancillae are assumed to start in |0>.
- ``layers[0]`` is applied to the input first; ``layers[-1]`` is the output
  layer (the one a measurement looks at).
- A layer is a tensor product: the supports of its gates must be pairwise
  disjoint.
- Gate matrices are stored as exact complex pairs; unitarity is checked by
  :func:`validate` at tolerance 1e-10, not enforced at construction time.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

UNITARITY_TOL = 1e-10

SQRT_HALF = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


class CircuitFormatError(ValueError):
    """Raised when a circuit document cannot be parsed into a valid circuit."""


@dataclass(frozen=True, eq=False)
class SingleQubit:
    """An arbitrary one-wire gate given by its 2x2 matrix."""

    wire: int
    u: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.u, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError(f"single-qubit matrix must be 2x2, got {mat.shape}")
        object.__setattr__(self, "u", mat)

    def support(self) -> frozenset[int]:
        return frozenset((self.wire,))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SingleQubit)
            and self.wire == other.wire
            and np.array_equal(self.u, other.u)
        )


@dataclass(frozen=True)
class ZGate:
    """Diagonal gate that negates the amplitude of the all-ones assignment
    on its wires. On a single wire this is the phase gate Z."""

    wires: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(self.wires))

    def support(self) -> frozenset[int]:
        return frozenset(self.wires)


@dataclass(frozen=True)
class Toffoli:
    """Multi-controlled NOT: target is XORed with the AND of the controls.

    Zero controls degenerate to Pauli X on the target.
    """

    controls: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "controls", tuple(self.controls))

    def support(self) -> frozenset[int]:
        return frozenset(self.controls) | {self.target}


class Cnot(Toffoli):
    """Controlled NOT: a one-control Toffoli, kept as its own kind for the
    file format and for gate-counting. It never equals a Toffoli."""

    def __init__(self, control: int, target: int) -> None:
        super().__init__((control,), target)

    @property
    def control(self) -> int:
        return self.controls[0]

    def __repr__(self) -> str:
        return f"Cnot(control={self.control}, target={self.target})"


Gate = Union[SingleQubit, ZGate, Toffoli]


@dataclass(frozen=True)
class Layer:
    """A set of gates applied simultaneously (disjoint supports)."""

    gates: tuple[Gate, ...]

    def __init__(self, gates: Iterable[Gate] = ()) -> None:
        object.__setattr__(self, "gates", tuple(gates))

    def support(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for g in self.gates:
            out |= g.support()
        return out


@dataclass(frozen=True)
class Circuit:
    """An ordered list of layers over n input wires and a ancilla wires.

    ``layers[0]`` is applied first. ``target`` names the measured wire.
    """

    n: int
    a: int
    target: int
    layers: tuple[Layer, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def wires(self) -> int:
        return self.n + self.a

    def depth(self) -> int:
        return len(self.layers)

    def max_arity(self) -> int:
        """Largest gate support size; 1 for a circuit with no gates."""
        arity = 1
        for layer in self.layers:
            for g in layer.gates:
                arity = max(arity, len(g.support()))
        return arity


@dataclass(frozen=True)
class MeasurementSpec:
    """Measurement of the |1>-projector on a single wire of the output layer."""

    wire: int


def backward_cone(c: Circuit, wire: int) -> tuple[tuple[frozenset[int], ...], Circuit]:
    """Walk from the output layer toward the input, growing the set of wires
    that can influence ``wire`` by the support of every gate touching it.

    Returns the set after each layer, ``sets[0]`` at the output (just
    ``({wire},)`` for a circuit of depth 0), and the circuit that keeps only
    the gates the walk grew through, with the same n, a, target and depth.
    Every dropped gate commutes past the measurement of ``wire``, so the kept
    circuit reads that wire exactly as ``c`` does, on a state that need
    cover only the last set's wires."""
    current = frozenset((wire,))
    sets: list[frozenset[int]] = []
    kept: list[Layer] = []
    for layer in reversed(c.layers):
        gates = [g for g in layer.gates if g.support() & current]
        current = current.union(*(g.support() for g in gates))
        sets.append(current)
        kept.append(Layer(gates))
    cone = Circuit(n=c.n, a=c.a, target=c.target, layers=tuple(reversed(kept)))
    return tuple(sets) or (current,), cone


def gate_kinds(c: Circuit) -> set[str]:
    kinds: set[str] = set()
    for layer in c.layers:
        for g in layer.gates:
            kinds.add(type(g).__name__)
    return kinds


def is_single_qubit_z_circuit(c: Circuit) -> bool:
    """True when the circuit contains only SingleQubit and ZGate gates."""
    return gate_kinds(c) <= {"SingleQubit", "ZGate"}


def is_permutation_circuit(c: Circuit) -> bool:
    """True when the circuit contains only basis-permuting gates (Toffolis,
    Cnot included)."""
    return gate_kinds(c) <= {"Toffoli", "Cnot"}


def _validate_gate(g: Gate, wires: int, where: str, violations: list[str]) -> None:
    support = sorted(g.support())
    for w in support:
        if not 0 <= w < wires:
            violations.append(
                f"{where}: wire index {w} out of range (circuit has {wires} wires)"
            )
    if isinstance(g, SingleQubit):
        if not np.isfinite(g.u).all():
            i, j = np.argwhere(~np.isfinite(g.u))[0]
            violations.append(f"{where}: non-finite matrix entry [{i}][{j}] = {g.u[i, j]}")
            return
        dev = float(np.abs(g.u.conj().T @ g.u - IDENTITY_2).max())
        if dev > UNITARITY_TOL:
            violations.append(f"{where}: non-unitary matrix (max |U^dag U - I| = {dev:.3e})")
    elif isinstance(g, ZGate):
        if len(g.wires) == 0:
            violations.append(f"{where}: z-gate needs at least one wire")
        if len(set(g.wires)) != len(g.wires):
            violations.append(f"{where}: duplicate wires in z-gate {g.wires}")
    elif isinstance(g, Cnot):
        if g.control == g.target:
            violations.append(f"{where}: cnot control equals target ({g.control})")
    elif isinstance(g, Toffoli):
        if len(set(g.controls)) != len(g.controls):
            violations.append(f"{where}: duplicate control wires {g.controls}")
        if g.target in g.controls:
            violations.append(f"{where}: toffoli target {g.target} is also a control")


def validate(c: Circuit) -> list[str]:
    """Check every structural invariant; return a list of violations (empty = ok)."""
    violations: list[str] = []
    if c.n < 0 or c.a < 0:
        violations.append(f"negative wire counts (n={c.n}, a={c.a})")
    if not 0 <= c.target < c.wires:
        violations.append(f"target {c.target} out of range (circuit has {c.wires} wires)")
    for i, layer in enumerate(c.layers):
        seen: dict[int, int] = {}
        for j, g in enumerate(layer.gates):
            _validate_gate(g, c.wires, f"layer {i}, gate {j}", violations)
            for w in g.support():
                if w in seen:
                    violations.append(
                        f"overlapping supports in layer {i}: wire {w} used by gates"
                        f" {seen[w]} and {j}"
                    )
                else:
                    seen[w] = j
    return violations


# ---------------------------------------------------------------------------
# File format
#
# { "n": int, "ancillae": int, "target": int,
#   "layers": [ [ gate, ... ], ... ] }               # layers[0] applied first
# gate ::= {"kind":"u","wire":q,"matrix":[[[re,im],[re,im]],[[re,im],[re,im]]]}
#        | {"kind":"z","wires":[q,...]}
#        | {"kind":"toffoli","controls":[q,...],"target":q}
#        | {"kind":"cnot","control":q,"target":q}
# ---------------------------------------------------------------------------


def _gate_to_obj(g: Gate) -> dict:
    if isinstance(g, SingleQubit):
        matrix = [[[float(e.real), float(e.imag)] for e in row] for row in g.u]
        return {"kind": "u", "wire": g.wire, "matrix": matrix}
    if isinstance(g, ZGate):
        return {"kind": "z", "wires": list(g.wires)}
    if isinstance(g, Cnot):
        return {"kind": "cnot", "control": g.control, "target": g.target}
    if isinstance(g, Toffoli):
        return {"kind": "toffoli", "controls": list(g.controls), "target": g.target}
    raise TypeError(f"unknown gate type {type(g).__name__}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise CircuitFormatError(f"{where}: missing field {key!r}")
    return obj[key]


def _as_wire(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CircuitFormatError(f"{where}: wire index must be an integer, got {value!r}")
    return value


def _gate_from_obj(obj, where: str) -> Gate:
    if not isinstance(obj, dict):
        raise CircuitFormatError(f"{where}: gate must be an object, got {type(obj).__name__}")
    kind = _require(obj, "kind", where)
    if kind == "u":
        wire = _as_wire(_require(obj, "wire", where), where)
        matrix = _require(obj, "matrix", where)
        try:
            u = np.array(
                [[complex(e[0], e[1]) for e in row] for row in matrix], dtype=complex
            )
        except (TypeError, IndexError, ValueError) as exc:
            raise CircuitFormatError(f"{where}: bad matrix encoding ({exc})") from exc
        if u.shape != (2, 2):
            raise CircuitFormatError(f"{where}: matrix must be 2x2, got {u.shape}")
        return SingleQubit(wire, u)
    if kind == "z":
        wires = _require(obj, "wires", where)
        if not isinstance(wires, list):
            raise CircuitFormatError(f"{where}: 'wires' must be a list")
        return ZGate(tuple(_as_wire(w, where) for w in wires))
    if kind == "toffoli":
        controls = _require(obj, "controls", where)
        if not isinstance(controls, list):
            raise CircuitFormatError(f"{where}: 'controls' must be a list")
        target = _as_wire(_require(obj, "target", where), where)
        return Toffoli(tuple(_as_wire(w, where) for w in controls), target)
    if kind == "cnot":
        control = _as_wire(_require(obj, "control", where), where)
        target = _as_wire(_require(obj, "target", where), where)
        return Cnot(control, target)
    raise CircuitFormatError(f"{where}: unknown gate kind {kind!r}")


def parse_circuit(text: str) -> Circuit:
    """Parse the JSON circuit document; raise CircuitFormatError on any problem,
    including validation violations of the resulting circuit."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"malformed circuit document: {exc}") from exc
    if not isinstance(obj, dict):
        raise CircuitFormatError("circuit document must be a JSON object")
    n = _require(obj, "n", "circuit")
    a = _require(obj, "ancillae", "circuit")
    target = _require(obj, "target", "circuit")
    raw_layers = _require(obj, "layers", "circuit")
    for name, value in (("n", n), ("ancillae", a), ("target", target)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise CircuitFormatError(f"circuit: {name!r} must be an integer")
    if not isinstance(raw_layers, list):
        raise CircuitFormatError("circuit: 'layers' must be a list")
    layers = []
    for i, raw_layer in enumerate(raw_layers):
        if not isinstance(raw_layer, list):
            raise CircuitFormatError(f"layer {i}: must be a list of gates")
        layers.append(
            Layer(
                _gate_from_obj(g, f"layer {i}, gate {j}") for j, g in enumerate(raw_layer)
            )
        )
    circuit = Circuit(n=n, a=a, target=target, layers=tuple(layers))
    violations = validate(circuit)
    if violations:
        raise CircuitFormatError(
            "circuit document violates invariants:\n  " + "\n  ".join(violations)
        )
    return circuit


# A "u" gate as ``json.dumps(..., indent=1)`` renders it three levels deep in
# the document, with a field for the wire and for each of the eight numbers.
_U_ENTRY = "      [\n       {},\n       {}\n      ]"
_U_ROW = "     [\n" + _U_ENTRY + ",\n" + _U_ENTRY + "\n     ]"
_U_GATE = (
    '   {{\n    "kind": "u",\n    "wire": {},\n    "matrix": [\n'
    + _U_ROW + ",\n" + _U_ROW + "\n    ]\n   }}"
)


def _gate_text(g: Gate) -> str:
    """One gate as it appears in the canonical document. A "u" gate with
    finite entries fills ``_U_GATE`` (``repr`` is how json writes a finite
    float); any other gate goes through ``json.dumps``."""
    if isinstance(g, SingleQubit):
        numbers = [x for e in g.u.ravel().tolist() for x in (e.real, e.imag)]
        if all(map(math.isfinite, numbers)):
            return _U_GATE.format(g.wire, *map(repr, numbers))
    return "   " + json.dumps(_gate_to_obj(g), indent=1).replace("\n", "\n   ")


def serialize_circuit(c: Circuit) -> str:
    """Render the canonical JSON document (fixed field order, one gate per
    entry): the text of ``json.dumps(obj, indent=1)`` for the document object,
    written out gate by gate."""
    layers = [
        "  [\n" + ",\n".join(map(_gate_text, layer.gates)) + "\n  ]" if layer.gates else "  []"
        for layer in c.layers
    ]
    body = "[\n" + ",\n".join(layers) + "\n ]" if layers else "[]"
    return f'{{\n "n": {c.n},\n "ancillae": {c.a},\n "target": {c.target},\n "layers": {body}\n}}'


def circuit_sha256(c: Circuit) -> str:
    """Stable content hash of the canonical serialization."""
    return hashlib.sha256(serialize_circuit(c).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Rewrites
# ---------------------------------------------------------------------------


def rewrite_toffoli_to_z(c: Circuit) -> Circuit:
    """Replace every Toffoli (Cnot included) by the sandwich H(target),
    Z(controls+target), H(target), expanding each affected layer into three.
    Layers without Toffolis pass through unchanged, so the result's full
    operator equals the input's and its depth grows by at most a factor of 3."""
    new_layers: list[Layer] = []
    for layer in c.layers:
        targets = [g.target for g in layer.gates if isinstance(g, Toffoli)]
        if not targets:
            new_layers.append(layer)
            continue
        h_layer = Layer(SingleQubit(t, HADAMARD) for t in targets)
        middle = Layer(
            ZGate(tuple(sorted(g.support()))) if isinstance(g, Toffoli) else g
            for g in layer.gates
        )
        new_layers.extend((h_layer, middle, h_layer))
    return Circuit(n=c.n, a=c.a, target=c.target, layers=tuple(new_layers))
