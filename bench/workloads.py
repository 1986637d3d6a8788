"""Seeded inputs and checked operations of the four benchmark workloads.

An *op* is one verdict: it parses its circuit from a serialized document (as
``qshallow <command> --circuit FILE`` does), runs the public ``qshallow``
calls of its kind, checks the answer, and returns the canonical bytes of the
verdict. A wrong or unverified answer raises :class:`WrongVerdict`.

A workload is a *pass*: a short, fixed list of op kinds and sizes. A run's
inputs are a seeded pool of passes, each over fresh circuits. Runs repeat
whole passes, so every run holds the same mix of cost classes and its median
latency stays inside one class (the class each pass holds most of, or the
middle one). Every run covers the whole pool, so which ops fail depends on
the seed alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Every call goes through the package namespace, so that the tracer's
# wrappers (installed on ``qshallow`` and its modules) see it.
import qshallow as q

READING_TOL = 1e-9
KILL_TRIALS = 20


class WrongVerdict(Exception):
    """A verdict that its independent check rejected."""


@dataclass(frozen=True)
class Op:
    kind: str
    doc: str
    expect: str = ""  # kind-specific: a sha256, an oracle answer, ...
    seed: int = 0
    size: str = ""  # the cost-class label's size part, e.g. "n=18"

    @property
    def label(self) -> str:
        return f"{self.kind} {self.size}".strip()


@dataclass(frozen=True)
class Outcome:
    decisive: bool
    canonical: bytes


# ---------------------------------------------------------------------------
# Op kinds
# ---------------------------------------------------------------------------


def _certificate(c) -> tuple[str, str]:
    """Improved-mode certificate, JSON round trip and independent recheck."""
    cert = q.parity_certificate(c, "improved")
    text = q.certificate_to_json(cert)
    if not q.recheck_certificate(q.certificate_from_json(text), c):
        raise WrongVerdict("certificate failed its recheck")
    if cert.verdict == "not-parity" and max(cert.readings) > READING_TOL:
        raise WrongVerdict(f"witness readings {cert.readings} are not ~0")
    return cert.verdict, text


def op_kill(op: Op) -> Outcome:
    """Acceptance criteria 5 and 6 for one circuit: both kill modes with their
    witness replayed, then a rechecked improved-mode certificate."""
    c = q.parse_circuit(op.doc)
    for mode in ("basic", "improved"):
        check = q.verify_kill(c, q.kill_run(c, mode), trials=KILL_TRIALS, seed=op.seed)
        if not check.ok:
            raise WrongVerdict(f"{mode} witness failed: max reading {check.max_p1}")
    verdict, text = _certificate(c)
    return Outcome(verdict == "not-parity", text.encode())


def op_certificate(op: Op) -> Outcome:
    verdict, text = _certificate(q.parse_circuit(op.doc))
    return Outcome(verdict == "not-parity", text.encode())


def op_counterexample(op: Op) -> Outcome:
    """Lightcone counterexample, checked against the cone and the readings."""
    c = q.parse_circuit(op.doc)
    m = q.MeasurementSpec(c.target)
    pair = q.lightcone_counterexample(c, m)
    if pair is None:
        return Outcome(False, b"no-counterexample")
    if pair.flip_wire in q.lightcone(c, m).sets[-1]:
        raise WrongVerdict(f"flip wire {pair.flip_wire} lies inside the lightcone")
    if abs(pair.readings[0].p1 - pair.readings[1].p1) > READING_TOL:
        raise WrongVerdict("the flip moved the circuit's reading")
    if abs(pair.parity_readings[0] - pair.parity_readings[1]) != 1.0:
        raise WrongVerdict("the parity readings do not differ by 1")
    return Outcome(True, f"flip {pair.flip_wire}".encode())


def _oracle(answer, expected) -> Outcome:
    if answer != expected:
        raise WrongVerdict(f"oracle answered {answer!r}, expected {expected!r}")
    return Outcome(True, json.dumps(answer).encode())


def op_verify(op: Op) -> Outcome:
    """``verify_clean`` against ``op.expect`` = "<parity|fanout> <ok>"; a
    circuit with Toffoli/Cnot gates goes through the H-Z-H rewrite first
    unless it is meant for the permutation path."""
    against, expected = op.expect.split()
    c = q.parse_circuit(op.doc)
    if op.kind == "verify-dense":
        c = q.rewrite_toffoli_to_z(c)
    result = q.verify_clean(c, q.ReferenceOp(against, c.n - 1))
    return _oracle([result.ok, result.checked], [expected == "ok", 2 ** c.n])


def op_sensitivity(op: Op) -> Outcome:
    c = q.parse_circuit(op.doc)
    m = q.MeasurementSpec(c.target)
    influential = q.sensitivity_scan(c, m)
    outside = set(influential) - q.lightcone(c, m).sets[-1]
    if outside:
        raise WrongVerdict(f"inputs {sorted(outside)} matter but lie outside the lightcone")
    return Outcome(True, json.dumps(influential).encode())


def op_robust(op: Op) -> Outcome:
    c = q.parse_circuit(op.doc)
    return _oracle(q.robust_check(c, q.ReferenceOp("parity", c.n - 1)), True)


def op_structure(op: Op) -> Outcome:
    """The n >> cone regime without simulation: parse, hash, lightcone and
    both kill modes. Decisive when an input wire stays uncommitted."""
    c = q.parse_circuit(op.doc)
    digest = q.circuit_sha256(c)
    if digest != op.expect:
        raise WrongVerdict("parsed circuit hashes differently from its document")
    cone = q.lightcone(c, q.MeasurementSpec(c.target)).sets[-1]
    free = []
    for mode in ("basic", "improved"):
        state = q.kill_run(c, mode)
        free.append([w for w in state.rest if w < c.n][:1])
    decisive = all(free)
    return Outcome(decisive, json.dumps([digest, sorted(cone), free]).encode())


RUNNERS: dict[str, Callable[[Op], Outcome]] = {
    "kill": op_kill,
    "certificate": op_certificate,
    "counterexample": op_counterexample,
    "verify-dense": op_verify,
    "verify-z": op_verify,
    "verify-permutation": op_verify,
    "sensitivity": op_sensitivity,
    "robust": op_robust,
    "structure": op_structure,
}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def kill_campaign_pass(rng: np.random.Generator, first_seed: int, n: int = 12) -> list[Op]:
    """Ten criterion-5/6 circuits: Z ensemble, a = 0, depth 4."""
    ops = []
    for i in range(10):
        doc = q.serialize_circuit(q.random_single_qubit_z_circuit(n, 0, 4, rng))
        ops.append(Op("kill", doc, seed=first_seed + i, size=f"n={n}"))
    return ops


def wide_verdict_pass(rng: np.random.Generator, sizes=range(16, 21)) -> list[Op]:
    """A certificate and a 2-arity counterexample at each n, depth 4, plus a
    second certificate at n=18 (the ROADMAP baseline size) and two more
    counterexamples at n=19. Five ops cost less than the three n=19
    counterexamples and five cost more, so the median is the middle one of
    that class rather than one circuit of whichever class sorts in the middle."""
    ops = []
    for n in sizes:
        z = q.random_single_qubit_z_circuit(n, 0, 4, rng)
        ops.append(Op("certificate", q.serialize_circuit(z), size=f"n={n}"))
        for _ in range(3 if n == 19 else 1):
            c = q.random_bounded_arity_circuit(n, 0, 4, rng, max_arity=2)
            ops.append(Op("counterexample", q.serialize_circuit(c), size=f"n={n}"))
        if n == 18:
            z = q.random_single_qubit_z_circuit(n, 0, 4, rng)
            ops.append(Op("certificate", q.serialize_circuit(z), size=f"n={n}"))
    return ops


def oracle_sweep_pass(
    rng: np.random.Generator, parity_n: int = 9, permutation_n: int = 16, z_n: int = 10
) -> list[Op]:
    """The brute-force oracles at their size caps. Four of the nine ops are
    Z-ensemble negatives, with three cheaper and two dearer ops around them,
    so the median always falls on that class."""
    parity = q.build_parity_logdepth(parity_n)
    parity_doc = q.serialize_circuit(parity)
    fanout_doc = q.serialize_circuit(q.conjugate_parity_to_fanout(parity))
    permutation_doc = q.serialize_circuit(q.build_parity_logdepth(permutation_n))
    sens = q.random_bounded_arity_circuit(z_n - 2, 2, 4, rng, max_arity=2)
    ops = [
        Op("verify-permutation", permutation_doc, "parity ok", size=f"n={permutation_n}"),
        Op("sensitivity", q.serialize_circuit(sens), size=f"n+a={z_n}"),
        Op("robust", parity_doc, size=f"n={parity_n}"),
    ]
    for _ in range(4):
        z = q.random_single_qubit_z_circuit(z_n, 0, 4, rng)
        ops.append(Op("verify-z", q.serialize_circuit(z), "parity fail", size=f"n={z_n}"))
    ops.append(Op("verify-dense", parity_doc, "parity ok", size=f"parity n={parity_n}"))
    ops.append(Op("verify-dense", fanout_doc, "fanout ok", size=f"fanout n={parity_n}"))
    return ops


def wide_structure_pass(rng: np.random.Generator, n: int = 1000) -> list[Op]:
    """Two depth-4 circuits and one depth-6 circuit: the median stays in the
    depth-4 class, while depth 6 brings cones of up to ~55 wires."""
    ops = []
    for depth in (4, 4, 6):
        doc = q.serialize_circuit(q.random_single_qubit_z_circuit(n, 0, depth, rng))
        digest = hashlib.sha256(doc.encode()).hexdigest()
        ops.append(Op("structure", doc, digest, size=f"depth={depth}"))
    return ops


# Workload name -> passes in the pool of a run (runs cycle over them). Each
# pool takes 8-35 s on a 2-vCPU host. Why each workload exists is in
# README.md; BENCHMARK.json gates kill-campaign and oracle-sweep.
WORKLOADS = {
    "kill-campaign": 12,
    "wide-verdict": 2,
    "oracle-sweep": 3,
    "wide-structure": 16,
}


def make_inputs(name: str, seed: int) -> tuple[list[Op], list[list[Op]]]:
    """(warm-up pass at small sizes, pool of timed passes), all from ``seed``."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    count = WORKLOADS[name]
    if name == "kill-campaign":
        warm = kill_campaign_pass(rng, 0, n=6)
        return warm, [kill_campaign_pass(rng, 10 * i) for i in range(count)]
    if name == "wide-verdict":
        return wide_verdict_pass(rng, sizes=(8,)), [wide_verdict_pass(rng) for _ in range(count)]
    if name == "oracle-sweep":
        warm = oracle_sweep_pass(rng, parity_n=3, permutation_n=4, z_n=5)
        return warm, [oracle_sweep_pass(rng) for _ in range(count)]
    if name == "wide-structure":
        return wide_structure_pass(rng, n=64), [wide_structure_pass(rng) for _ in range(count)]
    raise KeyError(name)
