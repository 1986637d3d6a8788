"""The parity operator's readings on a verdict's two inputs, checked against
a plain-Python XOR over basis indices that shares no code with the package:
the certificate's ``reference_readings`` and the lightcone pair's
``parity_readings``, with the measured wire at 0, at n-1 and on an ancilla.
Also: ``flip_pair``, which simulates only the measured wire's backward cone,
against a simulation over every wire, and smoke tests at paper scale."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from qshallow import (
    MeasurementSpec,
    PartialState,
    is_single_qubit_z_circuit,
    kill_run,
    lightcone_counterexample,
    parity_certificate,
    read_target,
    recheck_certificate,
    run,
)
from qshallow.adversary import analyzed_circuit, flip_pair
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


def _full_reading(c, m, psi, bits):
    """The measured wire's reading from a simulation over every wire."""
    rest = tuple(w for w in range(c.wires) if w not in psi.wires)
    return read_target(run(c, PartialState.basis(rest, bits).tensor(psi)), m).p1


def _cone_cases(where, against):
    """Flip-pair inputs on circuits of at most 12 wires from both ensembles:
    the witness of a kill run (Z ensemble only) and a random psi over a
    random wire subset, each with an input wire outside psi to flip."""
    n, a = 9, 2
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        for c in (
            random_single_qubit_z_circuit(n, a, 4, rng),
            random_bounded_arity_circuit(n, a, 3, rng),
        ):
            c = analyzed_circuit(dataclasses.replace(c, target=_measured_wire(where, n)), against)
            m = MeasurementSpec(c.target)
            if is_single_qubit_z_circuit(c):
                psi = kill_run(c, "basic").psi
                yield c, m, psi, min(w for w in range(n) if w not in psi.wires)
            wires = rng.choice(c.wires, size=int(rng.integers(0, 5)), replace=False)
            psi = PartialState.random(wires.tolist(), rng)
            yield c, m, psi, min(w for w in range(n) if w not in psi.wires)


@pytest.mark.parametrize("where", MEASURED)
@pytest.mark.parametrize("against", ["parity", "fanout"])
def test_cone_flip_pair_matches_full_simulation(where, against):
    checked = 0
    for c, m, psi, flip in _cone_cases(where, against):
        readings, parity = flip_pair(c, m, psi, flip)
        for reading, bits in zip(readings, ({}, {flip: 1})):
            assert reading.p1 == pytest.approx(_full_reading(c, m, psi, bits), abs=1e-12)
        for reading, flipped in zip(parity, (None, flip)):
            expected = plain_parity_reading(c.n, m.wire, psi.wires, psi.amps, flipped)
            assert reading == pytest.approx(expected, abs=1e-12)
        checked += 1
    assert checked == 12


def test_lightcone_pair_at_n_1024():
    c = random_bounded_arity_circuit(1024, 0, 4, np.random.default_rng(3))
    pair = lightcone_counterexample(c, MeasurementSpec(c.target))
    assert pair is not None and pair.parity_readings == (0.0, 1.0)


def test_certificate_at_n_1000_rechecks():
    c = random_single_qubit_z_circuit(1000, 0, 4, np.random.default_rng(0))
    cert = parity_certificate(c)
    assert cert.verdict == "not-parity"
    assert recheck_certificate(cert, c)
