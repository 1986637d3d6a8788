"""The parity operator's readings on a verdict's two inputs, checked against
a plain-Python XOR over basis indices that shares no code with the package:
the certificate's ``reference_readings`` and the lightcone pair's
``parity_readings``, with the measured wire at 0, at n-1 and on an ancilla."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from qshallow import MeasurementSpec, lightcone_counterexample, parity_certificate
from qshallow.randcirc import random_bounded_arity_circuit, random_single_qubit_z_circuit


def plain_parity_reading(n, measured, psi_wires, psi_amps, flip_wire):
    """Probability that the measured wire reads 1 after the parity operator,
    on |0...0> over the wires psi leaves out (flip_wire set to 1 when given)
    tensored with psi: the measured bit XOR every other input bit."""
    total = 0.0
    for psi_index, amp in enumerate(psi_amps):
        bits = {w: (psi_index >> p) & 1 for p, w in enumerate(psi_wires)}
        if flip_wire is not None:
            bits[flip_wire] = 1
        out = bits.get(measured, 0)
        for w in range(n):
            if w != measured:
                out ^= bits.get(w, 0)
        if out:
            total += abs(amp) ** 2
    return total


MEASURED = ["first input", "last input", "ancilla"]


def _measured_wire(where: str, n: int) -> int:
    return {"first input": 0, "last input": n - 1, "ancilla": n}[where]


@pytest.mark.parametrize("where", MEASURED)
@pytest.mark.parametrize("against", ["parity", "fanout"])
def test_certificate_reference_readings_match_plain_xor(where, against):
    n, a = 8, 1
    checked = 0
    for seed in range(6):
        c = random_single_qubit_z_circuit(n, a, 3, np.random.default_rng(seed))
        c = dataclasses.replace(c, target=_measured_wire(where, n))
        cert = parity_certificate(c, "basic", against)
        if cert.free_input is None:
            continue
        for reading, flip in zip(cert.reference_readings, (None, cert.free_input)):
            expected = plain_parity_reading(n, c.target, cert.psi_wires, cert.psi_amps, flip)
            assert reading == pytest.approx(expected, abs=1e-12)
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("where", MEASURED)
@pytest.mark.parametrize("against", ["parity", "fanout"])
def test_lightcone_parity_readings_match_plain_xor(where, against):
    n, a = 10, 1
    checked = 0
    for seed in range(6):
        c = random_bounded_arity_circuit(n, a, 2, np.random.default_rng(seed))
        m = MeasurementSpec(_measured_wire(where, n))
        pair = lightcone_counterexample(c, m, against)
        if pair is None:
            continue
        expected = tuple(
            plain_parity_reading(n, m.wire, (), [1.0], flip) for flip in (None, pair.flip_wire)
        )
        assert pair.parity_readings == expected
        checked += 1
    assert checked >= 3
