"""Golden bytes for the no-side verdicts.

``tests/data/golden.json`` maps a case name to the exact text a fixed input
produces: ``certificate_to_json`` of a kill certificate, or ``repr`` of a
lightcone counterexample pair. The test regenerates every case and compares
the text character for character, so any change to a certificate or a pair
shows up, down to the last digit of a pair's reading. A certificate holds no
float at all: the target readings it proves are 0, exactly, and are not
stored. The numeric oracle under the integer recheck runs here too: each
golden certificate's witness, rebuilt by the construction, must replay to
those proven readings.

Regenerate the data (only for a change that is meant to alter the bytes, such
as a change to the kill rule or to the document, and say so in the change
log) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np

from qshallow import (
    HADAMARD,
    Circuit,
    InvariantError,
    Layer,
    MeasurementSpec,
    SingleQubit,
    ZGate,
    build_parity_logdepth,
    certificate_from_json,
    certificate_to_json,
    kill_run,
    lightcone_counterexample,
    parity_certificate,
    rewrite_toffoli_to_z,
    verify_kill,
)
from qshallow.reference import analyzed_circuit
from qshallow.sim import READING_TOL
from qshallow.randcirc import random_bounded_arity_circuit, random_single_qubit_z_circuit

DATA = pathlib.Path(__file__).parent / "data" / "golden.json"


def _z_circuit(n: int, a: int, seed: int, depth: int = 4, **draw) -> Circuit:
    return random_single_qubit_z_circuit(n, a, depth, np.random.default_rng(seed), **draw)


def _certificate_circuits() -> dict[str, Circuit]:
    circuits = {
        f"z n={n} a={a} seed={seed}": _z_circuit(n, a, seed)
        for n in (6, 8, 12)
        for a in (0, 1, 2)
        for seed in (0, 1)
    }
    # Z-heavy draws and wider ancilla registers: most output-layer wires are
    # fed by Z-gates, so these pin histories rich in base-zero and fresh-zero
    # kills, and large first committed sets.
    for n in (8, 12):
        for depth in (4, 6):
            for a in (3, 5):
                circuits[f"z n={n} a={a} depth={depth} seed=0"] = _z_circuit(n, a, 0, depth)
            for a in (0, 1, 3, 5):
                circuits[f"z-heavy n={n} a={a} depth={depth} seed=0"] = _z_circuit(
                    n, a, 0, depth, p_single=0.3, p_join_z=0.9
                )
    circuits["z n=8 a=1 seed=2 target=0"] = dataclasses.replace(_z_circuit(8, 1, 2), target=0)
    circuits["z n=8 a=2 seed=3 target=ancilla 8"] = dataclasses.replace(
        _z_circuit(8, 2, 3), target=8
    )
    circuits["h-witness n=4"] = Circuit(
        n=4, a=0, target=3, layers=(Layer([SingleQubit(3, HADAMARD)]),)
    )
    # A circuit that computes parity: every certificate is inconclusive.
    circuits["parity-logdepth n=4"] = rewrite_toffoli_to_z(build_parity_logdepth(4))
    # Breaches the improved-mode cap at step 4 (the error text is the case).
    circuits["improved-cap breach n=6"] = Circuit(
        n=6,
        a=0,
        target=0,
        layers=(
            Layer([ZGate((0, 3)), ZGate((1, 4))]),
            Layer([ZGate((0, 2))]),
            Layer([ZGate((0, 1))]),
            Layer([SingleQubit(0, HADAMARD)]),
        ),
    )
    return circuits


def _certificate_text(c: Circuit, mode: str, against: str) -> str:
    try:
        return certificate_to_json(parity_certificate(c, mode, against))
    except InvariantError as exc:
        return f"InvariantError: {exc}"


def generate() -> dict[str, str]:
    """Every golden case, regenerated from the current code."""
    out = {}
    for name, c in _certificate_circuits().items():
        for mode in ("basic", "improved"):
            for against in ("parity", "fanout"):
                out[f"certificate {name} {mode} {against}"] = _certificate_text(c, mode, against)
    for n in (8, 12, 16):
        for seed in range(4):
            base = random_bounded_arity_circuit(n, 0, 2, np.random.default_rng(seed))
            for target in (n - 1, 0):
                c = dataclasses.replace(base, target=target)
                for against in ("parity", "fanout"):
                    pair = lightcone_counterexample(c, MeasurementSpec(target), against)
                    out[f"pair bounded n={n} seed={seed} target={target} {against}"] = repr(pair)
    tree = build_parity_logdepth(8)  # its cone covers every input: no pair
    out["pair parity-logdepth n=8"] = repr(
        lightcone_counterexample(tree, MeasurementSpec(tree.target))
    )
    return out


def golden_certificates():
    """(case name, analyzed circuit, circuit, document) of every certificate
    in the golden data, decisive or inconclusive."""
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    for name, c in _certificate_circuits().items():
        for mode in ("basic", "improved"):
            for against in ("parity", "fanout"):
                case = f"certificate {name} {mode} {against}"
                if golden[case].startswith("{"):
                    yield case, analyzed_circuit(c, against), c, json.loads(golden[case])


def test_the_witness_replay_confirms_every_golden_certificate():
    """The numeric oracle under the integer recheck: for every golden
    certificate the construction's witness replays ok, to the stored
    history, and each proven reading (``KillCertificate.readings``) lies
    within ``READING_TOL`` of the replay's final target reading."""
    count = 0
    for case, analyzed, _, obj in golden_certificates():
        cert = certificate_from_json(json.dumps(obj))
        s = kill_run(analyzed, cert.mode)
        check = verify_kill(analyzed, s)
        assert check.ok and s.history == cert.history, case
        assert all(abs(v - check.target_p1) <= READING_TOL for v in cert.readings or ()), case
        count += 1
    assert count == 187


def test_no_golden_certificate_holds_a_float():
    """A certificate is integers and words: parsing any golden certificate
    document never meets a float, so float rounding cannot change a golden
    byte."""

    def refuse(text):
        raise AssertionError(f"a certificate holds the float {text}")

    golden = json.loads(DATA.read_text(encoding="utf-8"))
    texts = [t for name, t in golden.items() if name.startswith("certificate ") and t[0] == "{"]
    assert len(texts) == 187
    for text in texts:
        json.loads(text, parse_float=refuse)


def test_verdict_bytes_match_golden_data():
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    actual = generate()
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"{len(changed)} cases changed, first: {changed[0]}"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
