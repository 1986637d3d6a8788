"""The readings on a verdict's two flip inputs, checked against oracles that
share no code with the verdict, with the measured wire at 0, at n-1 and on an
ancilla. The parity operator's readings (the lightcone pair's
``parity_readings``, and the flip-pair lemma that a certificate rests on)
against a plain-Python XOR over basis indices; the circuit's (the
certificate's ``readings``, taken from the exact witness replay, and the
lightcone pair's, simulated on the measured wire's backward cone) against a
simulation over every wire. Also smoke tests at paper scale."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from qshallow import (
    MeasurementSpec,
    PartialState,
    certificate_from_json,
    certificate_to_json,
    is_single_qubit_z_circuit,
    kill_run,
    lightcone_counterexample,
    parity_certificate,
    read_target,
    recheck_certificate,
    run,
)
from qshallow.adversary import analyzed_circuit
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
def test_parity_readings_on_a_flip_pair_sum_to_one(where, against):
    """The flip-pair lemma under every ``not-{against}`` certificate: the
    flipped input has one more set bit than the baseline, so the parity
    operator's two readings of the measured wire sum to 1, and one of them
    is at least 1/2. Checked with the plain XOR on each certificate's
    witness and free input, and on a random psi over a random wire subset
    with a random free input outside it, within 1e-12."""
    n, a = 8, 1
    rng = np.random.default_rng(7)
    certificates = 0
    for seed in range(6):
        c = random_single_qubit_z_circuit(n, a, 3, np.random.default_rng(seed))
        c = dataclasses.replace(c, target=_measured_wire(where, n))
        cert = parity_certificate(c, "basic", against)
        psi = PartialState.random(rng.choice(n + a, int(rng.integers(0, 5)), replace=False), rng)
        free = int(rng.choice([w for w in range(n) if w not in psi.wires]))
        pairs = [(psi.wires, psi.amps, free)]
        if cert.free_input is not None:
            pairs.append((cert.history[-1].committed, cert.psi_amps, cert.free_input))
            certificates += 1
        for wires, amps, flip in pairs:
            baseline = plain_parity_reading(n, c.target, wires, amps, None)
            flipped = plain_parity_reading(n, c.target, wires, amps, flip)
            assert baseline + flipped == pytest.approx(1.0, abs=1e-12)
    assert certificates >= 3


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
    """(circuit, analyzed circuit, measurement) on circuits of 11 wires from
    both ensembles, four draws each."""
    n, a = 9, 2
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        for c in (
            random_single_qubit_z_circuit(n, a, 4, rng),
            random_bounded_arity_circuit(n, a, 3, rng),
        ):
            c = dataclasses.replace(c, target=_measured_wire(where, n))
            yield c, analyzed_circuit(c, against), MeasurementSpec(c.target)


@pytest.mark.parametrize("where", MEASURED)
@pytest.mark.parametrize("against", ["parity", "fanout"])
def test_cone_flip_pair_matches_full_simulation(where, against):
    """Two oracle checks on each draw's flip pairs, within 1e-12: a kill-run
    witness's certificate ``readings`` (Z ensemble only) and the lightcone
    pair's readings against a simulation over every wire."""
    witnesses = pairs = 0
    for c, analyzed, m in _cone_cases(where, against):
        if is_single_qubit_z_circuit(c):
            cert = parity_certificate(c, "basic", against)
            s = kill_run(analyzed, "basic")
            assert s.history == cert.history and np.array_equal(s.psi.amps, cert.psi_amps)
            for reading, bits in zip(cert.readings, ({}, {cert.free_input: 1})):
                assert reading == pytest.approx(_full_reading(analyzed, m, s.psi, bits), abs=1e-12)
            witnesses += 1
        pair = lightcone_counterexample(c, m, against)
        if pair is not None:
            empty = PartialState.zero(())
            for reading, bits in zip(pair.readings, ({}, {pair.flip_wire: 1})):
                assert reading.p1 == pytest.approx(
                    _full_reading(analyzed, m, empty, bits), abs=1e-12
                )
            pairs += 1
    assert (witnesses, pairs) == (4, 8)


def test_lightcone_pair_at_n_1024():
    c = random_bounded_arity_circuit(1024, 0, 4, np.random.default_rng(3))
    pair = lightcone_counterexample(c, MeasurementSpec(c.target))
    assert pair is not None and pair.parity_readings == (0.0, 1.0)


def test_certificate_at_n_1000_rechecks():
    c = random_single_qubit_z_circuit(1000, 0, 4, np.random.default_rng(0))
    cert = parity_certificate(c)
    assert cert.verdict == "not-parity"
    assert recheck_certificate(cert, c)


@pytest.mark.parametrize("depth, seed", [(4, 9), (6, 1), (6, 6), (6, 9)])
def test_certificate_at_n_1024_beyond_the_cone_limit(depth, seed):
    """a=3 draws whose target cone spans 25 to 34 wires, beyond the
    simulation limit, while the committed set holds 5 to 12: the certificate
    needs only the replay on the committed set."""
    c = random_single_qubit_z_circuit(1024, 3, depth, np.random.default_rng(seed))
    cert = parity_certificate(c)
    assert cert.verdict == "not-parity"
    assert recheck_certificate(certificate_from_json(certificate_to_json(cert)), c)
