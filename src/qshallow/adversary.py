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

:func:`verify_kill` checks the argument where it is made, on K alone: it
replays the witness forward through the processed layers, checking each
history entry, each kill's pinned |0> and each step's recruits, and ends on
the readings of the target and every ancilla, which must be |0> (see
:class:`KillCertificate` for why the ancillae make the verdict unconditional).
If, after all layers, some input wire is still outside
K, flipping it cannot move the target reading away from 0, while the parity
operator's reading always flips, so the circuit provably does not compute
parity. The serialized :class:`KillCertificate` lets anyone replay that
argument with :func:`recheck_certificate`.

Layer bookkeeping uses application-order indices (``layers[0]`` first);
the step counter k walks from the output layer (k = 1) toward the input
layer (k = depth).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Iterable, Literal, get_args

import numpy as np

from ._version import __version__
from .circuits import Circuit, Gate, Layer, ZGate, circuit_sha256, is_single_qubit_z_circuit
from .reference import OpKind, analyzed_circuit
from .sim import READING_TOL, PartialState, adjoint_gate, apply_layer
from .sim import run  # noqa: F401  (kept in this namespace for callers that patch or trace it)
from .verify import robust_check  # noqa: F401  (re-exported: part of this module's API)

Mode = Literal["basic", "improved"]
Via = Literal["base-zero", "fresh-zero", "recruited"]  # how a kill is justified


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
    via: Via


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
    if mode not in get_args(Mode):
        raise ValueError(f"mode must be 'basic' or 'improved', got {mode!r}")


def _assert_bound(mode: Mode, c: Circuit, k: int, committed: tuple[int, ...]) -> None:
    bound = committed_bound(mode, c.a, k)
    if len(committed) > bound:
        raise InvariantError(
            f"committed set has {len(committed)} wires after step {k}, exceeding the"
            f" {mode}-mode cap (a+1)*2^{'k' if mode == 'basic' else 'ceil(k/2)'}"
            f" = {bound}"
        )


def _next_entry(
    c: Circuit, mode: Mode, history: tuple[KillHistoryEntry, ...]
) -> tuple[KillHistoryEntry, list[Gate]]:
    """The entry that the step after ``history`` appends, and the gates of
    its layer that lie inside the last K, in one pass over the layer. A gate
    off K is skipped. On the first step, the output layer, K is the target
    and every ancilla, and each Z-gate touching it is killed by pinning the
    touched wires. Later, a Z-gate straddling K is killed for free via a wire
    pinned on the last step in improved mode, else by recruiting its lowest
    uncommitted wire into K pinned to |0> (an input: the first step commits
    every ancilla). Any other gate touching K must lie inside it."""
    k = len(history) + 1
    layer_index = c.depth() - k
    if history:
        committed = set(history[-1].committed)
        pinned = frozenset(history[-1].fresh) if mode == "improved" else frozenset()
    else:
        committed, pinned = {c.target, *range(c.n, c.wires)}, frozenset()
    kills: list[KillRecord] = []  # base-zero (first step) or fresh-zero kills, in gate order
    recruits: list[KillRecord] = []  # recruited kills in gate order
    inside: list[Gate] = []
    for j, g in enumerate(c.layers[layer_index].gates):
        support = g.support()
        if committed.isdisjoint(support):
            continue
        if isinstance(g, ZGate) and not history:
            kills.append(KillRecord(layer_index, j, g.wires, min(support & committed), "base-zero"))
        elif support <= committed:
            inside.append(g)
        elif isinstance(g, ZGate) and not pinned.isdisjoint(support):
            kills.append(KillRecord(layer_index, j, g.wires, min(support & pinned), "fresh-zero"))
        elif isinstance(g, ZGate):
            recruit = min(support - committed)
            recruits.append(KillRecord(layer_index, j, g.wires, recruit, "recruited"))
        else:
            raise InvariantError(
                f"layer {layer_index}, gate {j}: unexpected committed-side overlap"
                f" {sorted(support)} vs committed {sorted(committed)}"
            )
    if history:
        killed = kills + recruits  # fresh-zero kills come first
        fresh = {r.pinned_wire for r in recruits}
        committed |= fresh
    else:
        killed = sorted(kills, key=lambda r: r.pinned_wire)
        fresh = {w for r in killed for w in r.wires if w in committed}
    entry = KillHistoryEntry(k, tuple(sorted(committed)), tuple(sorted(fresh)), tuple(killed))
    return entry, inside


def _record_step(
    c: Circuit,
    mode: Mode,
    history: tuple[KillHistoryEntry, ...],
    entry: KillHistoryEntry,
    psi: PartialState,
) -> KillState:
    """Check the cap on K after ``entry``'s step, and return the state with
    that entry appended."""
    _assert_bound(mode, c, entry.k, entry.committed)
    committed = set(entry.committed)
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
    entry, inside = _next_entry(c, mode, ())
    zero = np.array([1.0, 0.0], dtype=complex)
    factors = dict.fromkeys(entry.committed, zero)
    for g in inside:
        factors[g.wire] = g.u.conj().T @ zero
    psi = functools.reduce(
        PartialState.tensor, (PartialState((w,), factors[w]) for w in entry.committed)
    )
    return _record_step(c, mode, (), entry, psi)


def kill_step(s: KillState, c: Circuit) -> KillState:
    """Advance one layer toward the input (:func:`_next_entry`): pull the
    gates inside K back through the witness, and pin each recruit to |0>."""
    if s.k >= c.depth():
        raise ValueError(f"all {c.depth()} layers already processed")
    entry, inside = _next_entry(c, s.mode, s.history)
    psi = apply_layer(Layer(map(adjoint_gate, inside)), s.psi).extend_zeros(entry.fresh)
    return _record_step(c, s.mode, s.history, entry, psi)


def kill_run(c: Circuit, mode: Mode) -> KillState:
    """Run the construction through every layer (k ends at depth)."""
    s = kill_base(c, mode)
    while s.k < c.depth():
        s = kill_step(s, c)
    return s


@dataclass(frozen=True)
class VerifyKillResult:
    ok: bool
    max_p1: float  # the largest |1>-probability on a wire the replay required to read |0>
    target_p1: float | None  # the target's final reading; None if the replay stopped before it


def verify_kill(c: Circuit, s: KillState, trials: int = 20, seed: int = 0) -> VerifyKillResult:
    """Replay the witness exactly: start from ``s.psi`` on the final K and
    walk the processed layers toward the output. Each history entry must be
    the one the construction appends after the entries before it
    (:func:`_next_entry`), and at each layer

    - every killed gate's pinned wire must read |0>, so the Z-gate acts as
      the identity whatever the uncommitted wires hold;
    - the other gates touching K lie inside the previous step's K, and are
      applied;
    - the wires this step added to K must read |0>, and are projected out.

    At the end the target and every ancilla must read |0>. A wire reads |0>
    when its |1>-probability is at most ``READING_TOL``. The state stays a
    product of the uncommitted wires' state and the replayed one, so this
    proves that the target reads the replay's final reading, and the
    ancillae |0>, for every state of the uncommitted wires. A history that
    is not the construction's fails with ``max_p1`` 0. ``trials`` and
    ``seed`` are ignored; they are kept for callers of the sampled check
    that this replay replaced."""
    readings = [0.0]

    def reads_zero(state: PartialState, wires: Iterable[int]) -> bool:
        readings.extend(state.restricted_probability(w, 1) for w in wires)
        return max(readings) <= READING_TOL

    if not 0 < len(s.history) <= c.depth() or s.psi.wires != s.committed:
        return VerifyKillResult(False, 0.0, None)
    inside = []  # per step, the gates applied to the replayed state
    for k, entry in enumerate(s.history):
        try:
            expected, gates = _next_entry(c, s.mode, s.history[:k])
        except InvariantError:
            expected = None
        if entry != expected:
            return VerifyKillResult(False, 0.0, None)
        inside.append(gates)
    state = s.psi
    for k in reversed(range(len(s.history))):
        entry = s.history[k]
        kept = s.history[k - 1].committed if k else entry.committed
        if not reads_zero(state, (r.pinned_wire for r in entry.killed)):
            return VerifyKillResult(False, max(readings), None)
        state = apply_layer(Layer(inside[k]), state)
        if not reads_zero(state, (w for w in entry.committed if w not in kept)):
            return VerifyKillResult(False, max(readings), None)
        state = state.project_zeros(kept)
    target_p1 = state.restricted_probability(c.target, 1)
    readings.append(target_p1)
    ok = reads_zero(state, range(c.n, c.wires))  # every ancilla, and the target
    return VerifyKillResult(ok, max(readings), target_p1)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KillCertificate:
    """Re-checkable record that a circuit cannot compute parity (or fanout).

    It stores only what its checker cannot derive. ``psi_amps`` is the
    witness over the final committed set, ``history[-1].committed``, and
    ``free_input`` an input wire outside that set; the two test inputs are
    all-zeros over the uncommitted wires and the same with ``free_input``
    flipped, each tensored with the witness. ``readings`` holds the replay's
    final target reading (:func:`verify_kill`, ~0) once per input, as it
    holds on both. The parity operator's readings on the two inputs sum to
    1, as the flipped input has one more set bit, so one of them is at
    least 1/2, far from the circuit's.

    The replay ends with the target and every ancilla at |0>, so the output
    lies in the ancilla-zero subspace. A circuit that cleanly computes
    parity (ancillae |0> in and out, any per-input phase) maps the
    ancilla-zero inputs onto the ancilla-zero outputs and, being unitary,
    the rest onto the rest, so its input, the rest's state tensored with the
    witness, is ancilla-zero too. A witness excited on an ancilla thus
    already contradicts clean computation, and any other gets the flip
    argument. Fanout follows through the Hadamard conjugate, which leaves
    the ancillae alone.

    The fields are the document's schema: :func:`certificate_to_json` writes
    them in field order and :func:`certificate_from_json` reads exactly them.
    A certificate that exists is well-formed: constructing one, also by
    :func:`certificate_from_json` or ``dataclasses.replace``, refuses a field
    of a type or a word the construction never writes with
    ``ValueError("malformed kill certificate: …")``. Whether the fields fit
    together, the witness's length and norm among them, and what they claim
    is for :func:`recheck_certificate` to check.
    """

    version: str
    circuit_sha256: str
    against: OpKind
    mode: Mode
    history: tuple[KillHistoryEntry, ...]
    psi_amps: tuple[complex, ...]
    free_input: int | None
    readings: tuple[float, float] | None
    verdict: str  # "not-parity" | "not-fanout" | "inconclusive"

    def __post_init__(self) -> None:
        def require(holds: bool, rule: str) -> None:
            if not holds:
                raise ValueError(f"malformed kill certificate: {rule}")

        kills = [r for e in self.history for r in e.killed]
        ints = [v for e in self.history for v in (e.k, *e.committed, *e.fresh)]
        ints += [v for r in kills for v in (r.layer, r.gate_index, r.pinned_wire, *r.wires)]
        if self.free_input is not None:
            ints.append(self.free_input)
        readings = self.readings
        # Each rule is tested only once the ones before it hold.
        require(self.version == __version__, f"version must be {__version__!r}")
        require(self.against in get_args(OpKind), "against must be parity or fanout")
        require(self.mode in get_args(Mode), "mode must be basic or improved")
        vias = get_args(Via)
        require(all(r.via in vias for r in kills), f"each kill's via must be one of {vias}")
        ints_ok = all(type(v) is int for v in ints)  # a bool is not an int
        require(ints_ok, "wires and history integers must be ints")
        require(set(map(type, self.psi_amps)) <= {complex}, "witness amplitudes must be complex")
        pair = type(readings) is tuple and len(readings) == 2 and _numbers(readings)
        require(readings is None or pair, "readings must be None or two numbers")


def _numbers(values: Iterable[object]) -> bool:
    """Whether every value is a float, or an int a float can hold (a bool is neither)."""
    return all(type(v) is float or type(v) is int and abs(v) <= sys.float_info.max for v in values)


def parity_certificate(
    c: Circuit, mode: Mode = "improved", against: OpKind = "parity"
) -> KillCertificate:
    """Run the construction on ``analyzed_circuit(c, against)``, replay its
    witness (:func:`verify_kill`), and package the verdict with the first
    free input. For ``against='fanout'`` the analyzed circuit is the Hadamard
    conjugate, and the parity verdict on it certifies the fanout verdict on
    ``c``. The replay proves that the target reads its final reading whatever
    the uncommitted wires hold, so on both flip inputs; a replay that refuses
    the witness raises ``InvariantError("witness failed: …")``."""
    analyzed = analyzed_circuit(c, against)
    s = kill_run(analyzed, mode)
    check = verify_kill(analyzed, s)
    if not check.ok:
        raise InvariantError(f"witness failed: the replay refused it (max reading {check.max_p1})")
    free_input = next((w for w in s.rest if w < analyzed.n), None)
    return KillCertificate(
        version=__version__,
        circuit_sha256=circuit_sha256(c),
        against=against,
        mode=s.mode,
        history=s.history,
        psi_amps=tuple(complex(v) for v in s.psi.amps),
        free_input=free_input,
        readings=None if free_input is None else (check.target_p1, check.target_p1),
        verdict="inconclusive" if free_input is None else f"not-{against}",
    )


def certificate_to_json(cert: KillCertificate) -> str:
    # Field order is key order, so the dataclasses declare the schema; json
    # writes a tuple as a list.
    obj = {
        "format": "kill-certificate",
        **vars(cert),
        "history": [{**vars(e), "killed": [vars(r) for r in e.killed]} for e in cert.history],
        "psi_amps": [[v.real, v.imag] for v in cert.psi_amps],
    }
    return json.dumps(obj, indent=1)


def _array(value: object) -> tuple:
    """``value`` as a tuple if it is a JSON array."""
    if not isinstance(value, list):
        raise ValueError(f"expected an array, got {type(value).__name__}")
    return tuple(value)


def certificate_from_json(text: str) -> KillCertificate:
    """Parse a certificate document: map the JSON :func:`certificate_to_json`
    writes onto :class:`KillCertificate`, whose construction checks the rest
    of the shape. The document must have exactly the keys ``format`` and the
    certificate's field names, and each history entry and kill record
    exactly its dataclass's fields; each list must be a JSON array, and each
    amplitude two numbers. Anything else raises ``ValueError("malformed kill
    certificate: …")``. A non-finite reading or amplitude parses, and fails
    :func:`recheck_certificate`."""
    obj = json.loads(text)
    if isinstance(obj, dict) and obj.get("format") != "kill-certificate":
        raise ValueError(f"not a kill certificate: format={obj.get('format')!r}")
    names = [f.name for f in fields(KillCertificate)]
    try:
        if not isinstance(obj, dict) or obj.keys() != {"format", *names}:
            raise ValueError(f"expected an object with exactly the keys format, {', '.join(names)}")
        values = {name: obj[name] for name in names}
        amps = _array(values["psi_amps"])
        pairs = all(isinstance(p, list) and len(p) == 2 for p in amps)
        if not (pairs and _numbers(itertools.chain.from_iterable(amps))):
            raise ValueError("each witness amplitude must be an array of two numbers")
        values["psi_amps"] = tuple(itertools.starmap(complex, amps))
        if values["readings"] is not None:
            values["readings"] = _array(values["readings"])
        # The dataclasses refuse a history entry or kill record with a missing or extra key.
        values["history"] = tuple(
            KillHistoryEntry(**{
                **e,
                "committed": _array(e["committed"]),
                "fresh": _array(e["fresh"]),
                "killed": tuple(
                    KillRecord(**{**r, "wires": _array(r["wires"])}) for r in _array(e["killed"])
                ),
            })
            for e in _array(values["history"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed kill certificate: {exc!r}") from exc
    return KillCertificate(**values)


def recheck_certificate(cert: KillCertificate, c: Circuit) -> bool:
    """Check what a well-formed certificate claims about a circuit. Its hash
    must be the circuit's, its history must have one entry per layer of the
    analyzed circuit, and its verdict must be inconclusive or
    ``not-{against}``. Only then is the witness built, ``psi_amps`` over
    ``history[-1].committed`` (ascending wires, unit norm), and
    :func:`verify_kill` replays the history from it, so every
    ``committed``, ``fresh`` and ``killed`` claim is checked and the target
    reads the same whatever the uncommitted wires hold. An inconclusive
    verdict has no free input or readings, and its witness covers every
    input. Any other has an input wire outside the witness as free input,
    and both stored readings within ``READING_TOL`` of the replay's final
    target reading. The parity operator's readings need no check: on the
    flip pair they sum to 1."""
    if circuit_sha256(c) != cert.circuit_sha256:
        return False
    analyzed = analyzed_circuit(c, cert.against)
    if not 0 < len(cert.history) == analyzed.depth() or cert.verdict not in (
        "inconclusive", f"not-{cert.against}"
    ):
        return False
    committed = cert.history[-1].committed
    try:
        psi = PartialState(committed, np.array(cert.psi_amps, dtype=complex))
    except ValueError:  # wires out of order, not 2**len(wires) amplitudes, or a norm other than 1
        return False
    rest = tuple(w for w in range(c.wires) if w not in committed)
    check = verify_kill(analyzed, KillState(cert.mode, rest, psi, cert.history))
    if not check.ok:
        return False
    free_inputs = set(range(analyzed.n)).difference(committed)
    if cert.verdict == "inconclusive":  # no claims, and no input outside the witness
        return (cert.free_input, cert.readings) == (None, None) and not free_inputs
    if cert.free_input not in free_inputs or cert.readings is None:
        return False
    # Written so that a NaN or an infinity fails it.
    return all(abs(v - check.target_p1) <= READING_TOL for v in cert.readings)
