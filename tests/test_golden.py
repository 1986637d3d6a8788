"""Golden bytes for the no-side verdicts.

``tests/data/golden.json`` maps a case name to the exact text a fixed input
produces: ``certificate_to_json`` of a kill certificate, or ``repr`` of a
lightcone counterexample pair. The test regenerates every case and compares
the text character for character, so any change to a certificate or a pair
shows up, down to the last digit of a reading.

Regenerate the data (only for a change that is meant to alter the bytes, such
as a different floating-point rounding, and say so in the change log) with::

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
    certificate_to_json,
    lightcone_counterexample,
    parity_certificate,
    rewrite_toffoli_to_z,
)
from qshallow.randcirc import random_bounded_arity_circuit, random_single_qubit_z_circuit

DATA = pathlib.Path(__file__).parent / "data" / "golden.json"


def _z_circuit(n: int, a: int, seed: int) -> Circuit:
    return random_single_qubit_z_circuit(n, a, 4, np.random.default_rng(seed))


def _certificate_circuits() -> dict[str, Circuit]:
    circuits = {
        f"z n={n} a={a} seed={seed}": _z_circuit(n, a, seed)
        for n in (6, 8, 12)
        for a in (0, 1, 2)
        for seed in (0, 1)
    }
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


def test_verdict_bytes_match_golden_data():
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    actual = generate()
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"{len(changed)} cases changed, first: {changed[0]}"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
