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
:class:`KillCertificate` for why the ancillae make the verdict
unconditional). If, after all layers, some input wire is still outside K,
flipping it cannot move the target reading away from 0, while the parity
operator's reading always flips, so the circuit provably does not compute
parity. :func:`parity_certificate` builds a :class:`KillCertificate` from
the history alone, and :func:`recheck_certificate` checks a serialized one
against the circuit it is handed, with integers alone: its history must be
the construction's on that circuit. Neither simulates anything; the witness
and its replay are the numeric oracle.

Layer bookkeeping uses application-order indices (``layers[0]`` first);
the step counter k walks from the output layer (k = 1) toward the input
layer (k = depth).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Literal, get_args

from ._version import __version__
from .circuits import Circuit, Gate, Layer, ZGate, is_single_qubit_z_circuit, rewrite_toffoli_to_z
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


def _replayed_steps(
    c: Circuit, mode: Mode, history: tuple[KillHistoryEntry, ...]
) -> list[list[Gate]] | None:
    """The gates inside the previous K per step, or None unless the history
    has 1 to depth entries, each the one :func:`_next_entry` appends next."""
    if not 0 < len(history) <= c.depth():
        return None
    inside = []
    for k, entry in enumerate(history):
        try:
            expected, gates = _next_entry(c, mode, history[:k])
        except InvariantError:
            return None
        if entry != expected:
            return None
        inside.append(gates)
    return inside


def _steps(
    c: Circuit, mode: Mode, history: tuple[KillHistoryEntry, ...] = ()
) -> Iterator[tuple[KillHistoryEntry, list[Gate]]]:
    """The construction's steps after ``history``, through the input layer:
    each entry :func:`_next_entry` appends, with the gates of its layer
    inside the last K, once the cap on K after it holds. From the output
    layer, the mode must be known and the circuit a single-qubit + Z circuit
    of depth >= 1."""
    if not history:
        if mode not in get_args(Mode):
            raise ValueError(f"mode must be 'basic' or 'improved', got {mode!r}")
        if not is_single_qubit_z_circuit(c):
            raise ValueError(
                "construction needs a single-qubit + Z circuit; rewrite Toffoli/Cnot first"
            )
        if c.depth() < 1:
            raise ValueError("construction needs depth >= 1")
    while len(history) < c.depth():
        entry, inside = _next_entry(c, mode, history)
        _assert_bound(mode, c, entry.k, entry.committed)
        history += (entry,)
        yield entry, inside


def _witness_step(c: Circuit, mode: Mode, s: KillState | None) -> KillState:
    """Take the construction's step after ``s`` (:func:`_steps`) and pull the
    witness over the last K (|0...0> on K_1 before the first step) back
    through its inside gates, adding each wire pinned on this step at |0>."""
    history = () if s is None else s.history
    entry, inside = next(_steps(c, mode, history))
    start = PartialState.zero(entry.committed) if s is None else s.psi
    psi = apply_layer(Layer(map(adjoint_gate, inside)), start).extend_zeros(entry.fresh)
    rest = tuple(sorted(set(range(c.wires)).difference(entry.committed)))
    return KillState(mode=mode, rest=rest, psi=psi, history=history + (entry,))


def kill_base(c: Circuit, mode: Mode) -> KillState:
    """Process the output layer: commit the target and every ancilla, kill
    the Z-gates touching them, and pull |0...0> on them back through the rest."""
    return _witness_step(c, mode, None)


def kill_step(s: KillState, c: Circuit) -> KillState:
    """Advance one layer toward the input (:func:`_next_entry`): pull the
    gates inside K back through the witness, and pin each recruit to |0>."""
    if s.k >= c.depth():
        raise ValueError(f"all {c.depth()} layers already processed")
    return _witness_step(c, s.mode, s)


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
    (:func:`_replayed_steps`), and at each layer

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

    inside = _replayed_steps(c, s.mode, s.history)  # per step, the gates applied to the state
    if inside is None or s.psi.wires != s.committed:
        return VerifyKillResult(False, 0.0, None)
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

    It stores only what its checker cannot derive: the kill history and
    ``free_input``, an input wire outside the final committed set
    ``history[-1].committed``. The witness over that set, the pull-back of
    |0...0> on K_1 (the target and every ancilla) through the history's
    inside gates (:func:`kill_run`), is derivable and meets every pin by
    construction: a pinned wire enters it as |0> (at the output, or as a
    recruit), and only Z-gates killed on it touch it up to its kill. So the
    target reads exactly 0 on both test inputs, all-zeros over the
    uncommitted wires and the same with ``free_input`` flipped, each
    tensored with the witness; the ``readings`` property derives that
    proven 0 once per input, ``(0.0, 0.0)``, and the document holds no
    float. The parity operator's readings on the two inputs sum to 1, as
    the flipped input has one more set bit, so one of them is at least 1/2,
    far from the circuit's.

    The argument reads only each gate's wires and whether it is a Z-gate: a
    Z-gate pinned at |0> is the identity whatever the single-qubit gates
    are. So the certificate binds no circuit hash: it proves the same of
    every circuit on which its history is the construction's, every circuit
    of its circuit's gate layout among them.

    Replayed to the output, the witness also leaves every ancilla at |0>,
    where it started as |0...0> on K_1. A circuit that cleanly computes
    parity (ancillae |0> in and out, any per-input phase) maps the
    ancilla-zero inputs onto the ancilla-zero outputs and, being unitary,
    the rest onto the rest. So a witness excited on an ancilla already
    contradicts clean computation, and any other gets the flip argument.
    Fanout follows through the Hadamard conjugate, which leaves the
    ancillae alone.

    The fields are the document's schema: :func:`certificate_to_json` writes
    them in field order and :func:`certificate_from_json` reads exactly them.
    A certificate that exists is well-formed: constructing one, also by
    :func:`certificate_from_json` or ``dataclasses.replace``, refuses a field
    of a type or a word the construction never writes with
    ``ValueError("malformed kill certificate: …")``. Whether the fields fit
    together and what they claim is for :func:`recheck_certificate` to check.
    """

    version: str
    against: OpKind
    mode: Mode
    history: tuple[KillHistoryEntry, ...]
    free_input: int | None
    verdict: str  # "not-parity" | "not-fanout" | "inconclusive"

    @property
    def readings(self) -> tuple[float, float] | None:
        """The target's proven readings on the two flip inputs, or None with
        no free input."""
        return None if self.free_input is None else (0.0, 0.0)

    def __post_init__(self) -> None:
        def require(holds: bool, rule: str) -> None:
            if not holds:
                raise ValueError(f"malformed kill certificate: {rule}")

        history = self.history
        # Each rule is tested only once the ones before it hold.
        require(self.version == __version__, f"version must be {__version__!r}")
        require(self.against in get_args(OpKind), "against must be parity or fanout")
        require(self.mode in get_args(Mode), "mode must be basic or improved")
        entries = type(history) is tuple and all(
            isinstance(e, KillHistoryEntry)
            and all(type(v) is tuple for v in (e.committed, e.fresh, e.killed))
            and all(isinstance(r, KillRecord) and type(r.wires) is tuple for r in e.killed)
            for e in history
        )
        require(entries, "history must be a tuple of entries, and each list in it a tuple")
        kills = [r for e in history for r in e.killed]
        vias = get_args(Via)
        require(all(r.via in vias for r in kills), f"each kill's via must be one of {vias}")
        ints = [v for e in history for v in (e.k, *e.committed, *e.fresh)]
        ints += [v for r in kills for v in (r.layer, r.gate_index, r.pinned_wire, *r.wires)]
        if self.free_input is not None:
            ints.append(self.free_input)
        ints_ok = all(type(v) is int for v in ints)  # a bool is not an int
        require(ints_ok, "wires and history integers must be ints")


def parity_certificate(
    c: Circuit, mode: Mode = "improved", against: OpKind = "parity"
) -> KillCertificate:
    """Run the construction's steps (:func:`_steps`) on the circuit the
    verdict is about, and package their history with the first free input.
    That circuit is ``analyzed_circuit(c, against)`` (for fanout the
    Hadamard conjugate) with each Toffoli rewritten to H-Z-H. Nothing is
    simulated, so no width limit applies: the target reads exactly 0 on
    both flip inputs (see :class:`KillCertificate`), which the history
    proves and the certificate does not store."""
    analyzed = rewrite_toffoli_to_z(analyzed_circuit(c, against))
    history = tuple(entry for entry, _ in _steps(analyzed, mode))
    free_input = min(set(range(analyzed.n)).difference(history[-1].committed), default=None)
    return KillCertificate(
        version=__version__,
        against=against,
        mode=mode,
        history=history,
        free_input=free_input,
        verdict="inconclusive" if free_input is None else f"not-{against}",
    )


def certificate_to_json(cert: KillCertificate) -> str:
    # Field order is key order, so the dataclasses declare the schema; json
    # writes a tuple as a list.
    obj = {
        "format": "kill-certificate",
        **vars(cert),
        "history": [{**vars(e), "killed": [vars(r) for r in e.killed]} for e in cert.history],
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
    of the shape. The document must be JSON, with exactly the keys
    ``format`` and the certificate's field names, and each history entry and
    kill record exactly its dataclass's fields; each list must be a JSON
    array. Anything else, an earlier layout's ``circuit_sha256`` or
    ``readings`` key among it, raises ``ValueError("malformed kill
    certificate: …")``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed kill certificate: {exc!r}") from exc
    if isinstance(obj, dict) and obj.get("format") != "kill-certificate":
        raise ValueError(f"not a kill certificate: format={obj.get('format')!r}")
    names = [f.name for f in fields(KillCertificate)]
    try:
        if not isinstance(obj, dict) or obj.keys() != {"format", *names}:
            raise ValueError(f"expected an object with exactly the keys format, {', '.join(names)}")
        values = {name: obj[name] for name in names}
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
    """Check what a well-formed certificate claims about the circuit it is
    handed, with integers alone (nothing is simulated). Its history must
    have one entry per layer of the circuit the verdict is about (as
    :func:`parity_certificate` picks it) and be exactly the construction's
    on it (:func:`_replayed_steps`), whose witness meets every pin (see
    :class:`KillCertificate`); and its verdict must be inconclusive, with
    no free input and every input in the last K, or ``not-{against}``, with
    an input outside the last K as free input. So a certificate rechecks on
    every circuit of its circuit's gate layout, whatever their single-qubit
    gates, and on any circuit it rechecks on, the verdict holds."""
    analyzed = rewrite_toffoli_to_z(analyzed_circuit(c, cert.against))
    if (
        not 0 < len(cert.history) == analyzed.depth()
        or cert.verdict not in ("inconclusive", f"not-{cert.against}")
        or _replayed_steps(analyzed, cert.mode, cert.history) is None
    ):
        return False
    free_inputs = set(range(analyzed.n)).difference(cert.history[-1].committed)
    if cert.verdict == "inconclusive":  # no claim, and no input outside the last K
        return cert.free_input is None and not free_inputs
    return cert.free_input in free_inputs
