"""Gate-killing witness construction and the certificates it produces.

Working backward from the output layer, the construction maintains a
committed wire set K with a witness state psi over it, such that applying the
already-processed layer suffix to (anything on the rest R) tensor psi always
leaves the target wire reading |0>. Z-gates that straddle K and R are
*killed*: one of their wires is pinned to |0> (a freshly recruited R wire, or
in improved mode a wire pinned on the previous step), which makes the gate
act as the identity, so it can be dropped without changing the suffix's
action on these states.

Each layer is one pass over its gates: a gate off K is skipped, a Z-gate
straddling K is killed, a gate inside K is pulled back through the witness,
and any other gate touching K is an :class:`InvariantError`. Each step
appends one :class:`KillHistoryEntry` (k, K, the wires it pinned, its kills)
to :class:`KillState`'s history, which is the only place those facts live.

If, after all layers, some input wire is still outside K, flipping it cannot
move the target reading away from 0, while the parity operator's reading
always flips, so the circuit provably does not compute parity. The
serialized :class:`KillCertificate` lets anyone replay that argument with two
plain simulations.

Layer bookkeeping uses application-order indices (``layers[0]`` first);
the step counter k walks from the output layer (k = 1) toward the input
layer (k = depth).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .circuits import (
    Circuit,
    Layer,
    MeasurementSpec,
    ZGate,
    backward_cone,
    circuit_sha256,
    is_single_qubit_z_circuit,
)
from .reference import OpKind, conjugate_parity_to_fanout, parity_mask
from .sim import (
    READING_TOL,
    PartialState,
    TargetReading,
    adjoint_gate,
    apply_layer,
    block_columns,
    column_probabilities,
    compile_layers,
    random_amps,
    read_target,
    run,
    tensor_indices,
)
from .verify import robust_check  # noqa: F401  (re-exported: part of this module's API)

STATE_TOL = 1e-10

Mode = str  # "basic" | "improved"


class InvariantError(RuntimeError):
    """An internal invariant of the construction was breached."""


@dataclass(frozen=True)
class KillRecord:
    """One killed Z-gate: where it sits, and which pinned-|0> wire justifies
    treating it as the identity."""

    layer: int
    gate_index: int
    wires: tuple[int, ...]
    pinned_wire: int
    via: str  # "base-zero" | "fresh-zero" | "recruited"


@dataclass(frozen=True)
class KillHistoryEntry:
    k: int
    committed: tuple[int, ...]
    fresh: tuple[int, ...]
    killed: tuple[KillRecord, ...]


@dataclass(frozen=True)
class KillState:
    """Progress of the construction after processing k layers from the output.
    ``history`` (one entry per layer) is the only record of k, the committed
    set K, last step's pinned wires and the kills; the properties read it."""

    mode: Mode
    rest: tuple[int, ...]
    psi: PartialState
    history: tuple[KillHistoryEntry, ...]

    @property
    def k(self) -> int:
        return self.history[-1].k

    @property
    def committed(self) -> tuple[int, ...]:
        return self.history[-1].committed

    @property
    def fresh_zero(self) -> frozenset[int]:
        return frozenset(self.history[-1].fresh)

    @property
    def killed(self) -> tuple[KillRecord, ...]:
        return tuple(r for e in self.history for r in e.killed)


def committed_bound(mode: Mode, a: int, k: int) -> int:
    """Hard cap asserted on |K| after step k."""
    if mode == "basic":
        return (a + 1) * 2 ** k
    return (a + 1) * 2 ** math.ceil(k / 2)


def _check_mode(mode: Mode) -> None:
    if mode not in ("basic", "improved"):
        raise ValueError(f"mode must be 'basic' or 'improved', got {mode!r}")


def _assert_bound(mode: Mode, c: Circuit, k: int, committed: set[int]) -> None:
    bound = committed_bound(mode, c.a, k)
    if len(committed) > bound:
        raise InvariantError(
            f"committed set has {len(committed)} wires after step {k}, exceeding the"
            f" {mode}-mode cap (a+1)*2^{'k' if mode == 'basic' else 'ceil(k/2)'}"
            f" = {bound}"
        )


def _record_step(
    c: Circuit,
    mode: Mode,
    history: tuple[KillHistoryEntry, ...],
    committed: set[int],
    fresh: set[int],
    killed: list[KillRecord],
    psi: PartialState,
) -> KillState:
    """Check the cap on K after the step that ``history`` lacks, and return
    the state with that step's entry appended."""
    k = len(history) + 1
    _assert_bound(mode, c, k, committed)
    entry = KillHistoryEntry(
        k=k, committed=tuple(sorted(committed)), fresh=tuple(sorted(fresh)), killed=tuple(killed)
    )
    rest = tuple(w for w in range(c.wires) if w not in committed)
    return KillState(mode=mode, rest=rest, psi=psi, history=history + (entry,))


def kill_base(c: Circuit, mode: Mode) -> KillState:
    """Process the output layer: commit the target and every ancilla, choose
    each wire's one-qubit witness factor, and kill Z-gates feeding them."""
    _check_mode(mode)
    if not is_single_qubit_z_circuit(c):
        raise ValueError(
            "construction needs a single-qubit + Z circuit; rewrite Toffoli/Cnot first"
        )
    if c.depth() < 1:
        raise ValueError("construction needs depth >= 1")
    layer_index = c.depth() - 1
    committed = {c.target} | set(range(c.n, c.wires))
    zero = np.array([1.0, 0.0], dtype=complex)
    factors = dict.fromkeys(committed, zero)
    fresh: set[int] = set()
    killed: list[KillRecord] = []
    for j, g in enumerate(c.layers[layer_index].gates):
        touched = g.support() & committed
        if not touched:
            continue
        if isinstance(g, ZGate):  # pin the touched wires and kill the gate
            fresh |= touched
            killed.append(KillRecord(layer_index, j, g.wires, min(touched), "base-zero"))
        else:
            factors[g.wire] = g.u.conj().T @ zero
    killed.sort(key=lambda r: r.pinned_wire)
    psi = functools.reduce(
        PartialState.tensor, (PartialState((w,), factors[w]) for w in sorted(committed))
    )
    return _record_step(c, mode, (), committed, fresh, killed, psi)


def kill_step(s: KillState, c: Circuit) -> KillState:
    """Advance one layer toward the input in one pass over its gates. A
    Z-gate that straddles K is killed: for free via a wire pinned on the last
    step in improved mode, else by recruiting one of its uncommitted wires
    into K pinned to |0> (an ancilla first, else the lowest). A gate inside K
    is pulled back through the witness; a gate off K is skipped."""
    if s.k >= c.depth():
        raise ValueError(f"all {c.depth()} layers already processed")
    layer_index = c.depth() - 1 - s.k
    committed = set(s.committed)
    pinned = s.fresh_zero if s.mode == "improved" else frozenset()
    killed: list[KillRecord] = []
    pulled = []
    for j, g in enumerate(c.layers[layer_index].gates):
        support = g.support()
        if not support & committed:
            continue
        if support <= committed:
            pulled.append(adjoint_gate(g))
        elif isinstance(g, ZGate) and support & pinned:
            killed.append(KillRecord(layer_index, j, g.wires, min(support & pinned), "fresh-zero"))
        elif isinstance(g, ZGate):
            outside = sorted(support - committed)
            recruit = next((w for w in outside if w >= c.n), outside[0])
            killed.append(KillRecord(layer_index, j, g.wires, recruit, "recruited"))
        else:
            raise InvariantError(
                f"layer {layer_index}, gate {j}: unexpected committed-side overlap"
                f" {sorted(support)} vs committed {sorted(committed)}"
            )
    killed.sort(key=lambda r: r.via == "recruited")  # stable: fresh-zero kills come first
    recruited = {r.pinned_wire for r in killed if r.via == "recruited"}
    psi = apply_layer(Layer(pulled), s.psi).extend_zeros(recruited)
    return _record_step(c, s.mode, s.history, committed | recruited, recruited, killed, psi)


def kill_run(c: Circuit, mode: Mode) -> KillState:
    """Run the construction through every layer (k ends at depth)."""
    s = kill_base(c, mode)
    while s.k < c.depth():
        s = kill_step(s, c)
    return s


def strip_killed(c: Circuit, killed: tuple[KillRecord, ...]) -> Circuit:
    """Copy of the circuit with every killed gate removed (replaced by the
    identity its pinned wire justifies)."""
    dropped = {(r.layer, r.gate_index) for r in killed}
    layers = tuple(
        Layer(g for j, g in enumerate(layer.gates) if (i, j) not in dropped)
        for i, layer in enumerate(c.layers)
    )
    return Circuit(n=c.n, a=c.a, target=c.target, layers=layers)


@dataclass(frozen=True)
class VerifyKillResult:
    ok: bool
    trials: int
    readings: tuple[tuple[float, float], ...]  # (full-gate p1, killed-dropped p1)
    max_p1: float
    max_state_diff: float


def _tensor_columns(rest: np.ndarray, own: np.ndarray, witness: np.ndarray) -> np.ndarray:
    """Block whose column j is (rest column j) tensor the witness."""
    block = rest[own]
    block *= witness
    return block


def _cone_split(
    c: Circuit, from_layer: int, killed: tuple[KillRecord, ...]
) -> tuple[tuple[Layer, ...], tuple[Layer, ...], tuple[Layer, ...]]:
    """Sort the gates of ``c.layers[from_layer:]`` by one forward walk from
    the killed gates. A gate joins the cone if it is killed or touches a wire
    that cone gates of earlier layers hold; the cone then grows by its
    support. Returns, one pseudo-layer per layer, the shared gates (every
    other gate), the cone gates (the full tail) and the cone gates that are
    not killed (the stripped tail)."""
    dropped = {(r.layer, r.gate_index) for r in killed}
    cone: set[int] = set()
    shared: list[Layer] = []
    full: list[Layer] = []
    stripped: list[Layer] = []
    for i in range(from_layer, c.depth()):
        outside, inside, kept = [], [], []
        for j, g in enumerate(c.layers[i].gates):
            if (i, j) in dropped:
                inside.append(g)
            elif g.support() & cone:
                inside.append(g)
                kept.append(g)
            else:
                outside.append(g)
        cone.update(*(g.support() for g in inside))
        shared.append(Layer(outside))
        full.append(Layer(inside))
        stripped.append(Layer(kept))
    return tuple(shared), tuple(full), tuple(stripped)


def verify_kill(
    c: Circuit, s: KillState, trials: int = 20, seed: int = 0
) -> VerifyKillResult:
    """Check the witness the hard way: for the all-zeros basis state and
    ``trials`` random unit states over the uncommitted wires, simulate the
    processed layer suffix on (rest tensor psi) twice -- once with killed
    gates dropped, once with every gate in place -- and demand a target
    reading of at most ``READING_TOL`` and matching states from both runs.

    The rest states are drawn from ``seed`` in trial order and run as
    columns of one block at a time. The two suffixes can differ only inside
    the forward cone of the killed gates (:func:`_cone_split`), so each
    block runs once through the gates outside it, the shared part; then a
    copy runs through the cone gates, the full tail, and the block itself
    through the cone gates that are not killed, the stripped tail. This is
    exact: the cone only grows, so a gate outside it at its layer is
    disjoint from every earlier cone gate, commutes ahead of all of them,
    and sits unchanged in both suffixes. With no killed gate the cone is
    empty, the block is both outputs and the state difference is 0."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rng = np.random.default_rng(seed)
    wires, own, theirs = tensor_indices(s.rest, s.psi.wires)
    shared_layers, full_tail, stripped_tail = _cone_split(c, c.depth() - s.k, s.killed)
    shared = compile_layers(shared_layers, wires)
    full = compile_layers(full_tail, wires)
    stripped = compile_layers(stripped_tail, wires)
    target = wires.index(c.target)
    witness = s.psi.amps[theirs][:, None]

    count = trials + 1
    step = block_columns(len(wires))
    readings: list[tuple[float, float]] = []
    max_diff = 0.0
    for first in range(0, count, step):
        rest = np.zeros((2 ** len(s.rest), min(step, count - first)), dtype=complex)
        for j in range(rest.shape[1]):
            if first + j == 0 or not s.rest:
                rest[0, j] = 1.0  # the all-zeros rest state, or no rest wires
            else:
                rest[:, j] = random_amps(len(s.rest), rng)
        out_killed = shared.apply(_tensor_columns(rest, own, witness))
        if not s.killed:  # both tails are empty: the block is both outputs
            p1 = column_probabilities(out_killed, target).tolist()
            readings.extend(zip(p1, p1))
            continue
        out_full = full.apply(out_killed.copy())
        out_killed = stripped.apply(out_killed)
        p_full = column_probabilities(out_full, target)
        p_killed = column_probabilities(out_killed, target)
        out_killed -= out_full
        diff = np.abs(out_killed).max(axis=0)
        readings.extend(zip(p_full.tolist(), p_killed.tolist()))
        max_diff = max(max_diff, float(diff.max()))
    max_p1 = max(max(pair) for pair in readings)
    ok = max_p1 <= READING_TOL and max_diff <= STATE_TOL
    return VerifyKillResult(
        ok=ok,
        trials=count,
        readings=tuple(readings),
        max_p1=max_p1,
        max_state_diff=max_diff,
    )


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KillCertificate:
    """Re-checkable record that a circuit cannot compute parity (or fanout).

    ``free_input`` is an input wire outside the final committed set; the two
    test inputs are all-zeros over the uncommitted wires and the same with
    ``free_input`` flipped, each tensored with the witness. ``readings`` are
    the circuit's target probabilities on them (both must be ~0), while
    ``reference_readings`` are the parity operator's on the same states
    (they sum to 1, so at least one is far from the circuit's).

    ``ancilla_consistency`` reports whether the witness is |0> on every
    ancilla wire. When it is false, the verdict holds only for the witness's
    state class: the clean-computation premise constrains the circuit on
    ancillae-|0> inputs only, so a disagreement reached through an
    ancillae-excited witness is flagged rather than taken as unconditional.
    """

    version: str
    circuit_sha256: str
    against: OpKind
    mode: Mode
    history: tuple[KillHistoryEntry, ...]
    psi_wires: tuple[int, ...]
    psi_amps: tuple[complex, ...]
    free_input: int | None
    readings: tuple[float, float] | None
    reference_readings: tuple[float, float] | None
    ancilla_consistency: bool
    verdict: str  # "not-parity" | "not-fanout" | "inconclusive"


def analyzed_circuit(c: Circuit, against: OpKind) -> Circuit:
    """The circuit both no-side arguments analyze: the circuit itself against
    parity; against fanout, its Hadamard conjugate, since a parity verdict on
    the conjugate is a fanout verdict on the circuit."""
    return conjugate_parity_to_fanout(c) if against == "fanout" else c


def flip_pair(
    c: Circuit, m: MeasurementSpec, psi: PartialState, free_input: int
) -> tuple[tuple[TargetReading, TargetReading], tuple[float, float]]:
    """The two-input check that ends every no-side argument. The inputs are
    all-zeros over the wires ``psi`` leaves out, tensored with ``psi``, and
    the same with the input wire ``free_input`` (outside ``psi``) set.
    Returns the circuit's readings of the measured wire on both inputs, then
    the parity operator's.

    Only the measured wire's backward cone is simulated: its gates, on the
    cone's wires outside ``psi`` tensored with ``psi``. The parity readings
    come from ``psi`` and the bits alone: the baseline one is psi's mass of
    odd parity and, the free input adding one set bit, the flipped one its
    mass of even parity."""
    sets, cone = backward_cone(c, m.wire)
    rest = tuple(w for w in sets[-1] if w not in psi.wires)
    readings = [
        read_target(run(cone, PartialState.basis(rest, bits).tensor(psi)), m)
        for bits in ({}, {free_input: 1})
    ]
    mass = np.abs(psi.amps) ** 2
    odd = parity_mask(psi.wires, m.wire, c.n)
    return (readings[0], readings[1]), (float(np.sum(mass[odd])), float(np.sum(mass[~odd])))


def _ancilla_consistency(psi: PartialState, c: Circuit) -> bool:
    mass = 0.0
    for w in range(c.n, c.wires):
        mass = max(mass, psi.restricted_probability(w, 1))
    return mass <= READING_TOL


def parity_certificate(
    c: Circuit, mode: Mode = "improved", against: OpKind = "parity"
) -> KillCertificate:
    """Run the construction and package the verdict. For ``against='fanout'``
    the circuit is first conjugated by Hadamard layers, and the parity
    verdict on the conjugate certifies the fanout verdict on the input."""
    analyzed = analyzed_circuit(c, against)
    return package_certificate(c, analyzed, kill_run(analyzed, mode), against)


def package_certificate(
    c: Circuit, analyzed: Circuit, s: KillState, against: OpKind
) -> KillCertificate:
    """Package a finished construction ``s`` on ``analyzed_circuit(c,
    against)``: pick the first free input and replay its flip pair."""
    free_inputs = [w for w in s.rest if w < analyzed.n]
    free_input = free_inputs[0] if free_inputs else None
    readings = reference_readings = None
    if free_input is not None:
        pair, reference_readings = flip_pair(
            analyzed, MeasurementSpec(analyzed.target), s.psi, free_input
        )
        for reading, name in zip(pair, ("baseline", "flipped")):
            if reading.p1 > READING_TOL:
                raise InvariantError(
                    f"witness failed: target reading {reading.p1} on {name} input"
                )
        readings = (pair[0].p1, pair[1].p1)
    return KillCertificate(
        version=__version__,
        circuit_sha256=circuit_sha256(c),
        against=against,
        mode=s.mode,
        history=s.history,
        psi_wires=s.psi.wires,
        psi_amps=tuple(complex(v) for v in s.psi.amps),
        free_input=free_input,
        readings=readings,
        reference_readings=reference_readings,
        ancilla_consistency=_ancilla_consistency(s.psi, analyzed),
        verdict="inconclusive" if free_input is None else f"not-{against}",
    )


def certificate_to_json(cert: KillCertificate) -> str:
    obj = {
        "format": "kill-certificate",
        "version": cert.version,
        "circuit_sha256": cert.circuit_sha256,
        "against": cert.against,
        "mode": cert.mode,
        "history": [asdict(e) for e in cert.history],
        "witness": {
            "wires": list(cert.psi_wires),
            "amps": [[v.real, v.imag] for v in cert.psi_amps],
        },
        "free_input": cert.free_input,
        "readings": list(cert.readings) if cert.readings is not None else None,
        "reference_readings": (
            list(cert.reference_readings)
            if cert.reference_readings is not None
            else None
        ),
        "ancilla_consistency": cert.ancilla_consistency,
        "verdict": cert.verdict,
    }
    return json.dumps(obj, indent=1)


def certificate_from_json(text: str) -> KillCertificate:
    obj = json.loads(text)
    if obj.get("format") != "kill-certificate":
        raise ValueError(f"not a kill certificate: format={obj.get('format')!r}")
    history = tuple(
        KillHistoryEntry(
            k=e["k"],
            committed=tuple(e["committed"]),
            fresh=tuple(e["fresh"]),
            killed=tuple(KillRecord(**{**r, "wires": tuple(r["wires"])}) for r in e["killed"]),
        )
        for e in obj["history"]
    )
    return KillCertificate(
        version=obj["version"],
        circuit_sha256=obj["circuit_sha256"],
        against=obj["against"],
        mode=obj["mode"],
        history=history,
        psi_wires=tuple(obj["witness"]["wires"]),
        psi_amps=tuple(complex(re, im) for re, im in obj["witness"]["amps"]),
        free_input=obj["free_input"],
        readings=tuple(obj["readings"]) if obj["readings"] is not None else None,
        reference_readings=(
            tuple(obj["reference_readings"])
            if obj["reference_readings"] is not None
            else None
        ),
        ancilla_consistency=obj["ancilla_consistency"],
        verdict=obj["verdict"],
    )


def recheck_certificate(cert: KillCertificate, c: Circuit) -> bool:
    """Independently replay a certificate against a circuit: hash, witness
    readings, and the parity-operator separation are all re-simulated."""
    if circuit_sha256(c) != cert.circuit_sha256:
        return False
    psi = PartialState(cert.psi_wires, np.array(cert.psi_amps, dtype=complex))
    if cert.verdict == "inconclusive":
        return cert.free_input is None and cert.readings is None
    if cert.free_input is None or cert.readings is None or cert.reference_readings is None:
        return False
    analyzed = analyzed_circuit(c, cert.against)
    if cert.free_input not in range(analyzed.n) or cert.free_input in psi.wires:
        return False
    pair, reference = flip_pair(analyzed, MeasurementSpec(analyzed.target), psi, cert.free_input)
    for i in range(2):
        p1 = pair[i].p1
        if p1 > READING_TOL or abs(p1 - cert.readings[i]) > READING_TOL:
            return False
        if abs(reference[i] - cert.reference_readings[i]) > READING_TOL:
            return False
    # The parity operator's two readings complement each other; the larger one
    # certifies disagreement with the circuit's ~0 reading on that input.
    ref0, ref1 = cert.reference_readings
    if abs(ref0 + ref1 - 1.0) > READING_TOL:
        return False
    return max(ref0, ref1) >= 0.5 - READING_TOL
