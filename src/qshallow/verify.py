"""Brute-force ground truth: exact clean-computation checking (on
ancillae-|0> inputs, or on every ancilla setting for the robust check) and
input sensitivity scans, used to validate constructions and certificates at
desk scale. The amplitude-level checks run their basis inputs through the
simulator in batched blocks.

A circuit *cleanly computes* a reference operator when, for every basis
setting of the non-ancilla wires with all ancillae |0>, its output equals the
operator's output on those wires tensored with |0> ancillae. Comparison is
per-input up to a global phase by default (circuits of single-qubit gates
legitimately differ from their permutation targets by one); ``strict_phase``
demands literal matrix-element equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, MeasurementSpec, Toffoli, is_permutation_circuit
from .sim import READING_TOL, column_probabilities, run_basis
from .reference import ReferenceOp

AMPLITUDE_TOL = 1e-9
PERMUTATION_CHECK_MAX_WIRES = 16  # op arity + ancillae, bit-level path
DENSE_CHECK_MAX_WIRES = 10  # op arity + ancillae, amplitude path; n + a for the robust check


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a clean-computation check."""

    ok: bool
    checked: int
    max_deviation: float
    first_failure: str | None = None


def _permutation_images(c: Circuit, inputs: np.ndarray) -> np.ndarray:
    """Route basis states (as integers, bit w = wire w) through a circuit of
    Toffolis (Cnot included) only."""
    v = inputs.copy()
    for layer in c.layers:
        for g in layer.gates:
            if isinstance(g, Toffoli):
                controls = sum(1 << w for w in g.controls)
                v ^= ((v & controls) == controls).astype(v.dtype) << g.target
            else:  # pragma: no cover - guarded by caller
                raise TypeError(f"not a permutation gate: {type(g).__name__}")
    return v


def _verify_clean_permutation(c: Circuit, op: ReferenceOp) -> VerifyResult:
    dim = 2 ** c.n
    inputs = np.arange(dim, dtype=np.int64)  # ancilla bits (>= n) start 0
    outputs = _permutation_images(c, inputs)
    expected = op.basis_map(inputs)
    bad = np.nonzero(outputs != expected)[0]
    if bad.size == 0:
        return VerifyResult(ok=True, checked=dim, max_deviation=0.0)
    x = int(bad[0])
    return VerifyResult(
        ok=False,
        checked=dim,
        max_deviation=1.0,
        first_failure=(
            f"input {x:0{c.n}b} (wire 0 rightmost): expected basis state"
            f" {int(expected[bad[0]]):0{c.wires}b}, observed {int(outputs[bad[0]]):0{c.wires}b}"
        ),
    )


def _verify_clean_dense(
    c: Circuit, op: ReferenceOp, strict_phase: bool, inputs: np.ndarray
) -> VerifyResult:
    """Amplitude-level check on the given basis inputs over all wires: input
    x (ancilla bits included, as the high bits) must map to op's image of its
    low n bits with the ancilla bits unchanged."""
    low = (1 << c.n) - 1
    expected = op.basis_map(inputs & low) | (inputs & ~low)
    max_dev = 0.0
    first_failure = None
    for first, out in run_basis(c, inputs):
        cols = np.arange(out.shape[1])
        rows = expected[first : first + out.shape[1]]
        if strict_phase:
            phase = 1.0
        else:
            ref = out[rows, cols]
            mag = np.abs(ref)
            nonzero = mag > 1e-12
            phase = np.where(nonzero, ref / np.where(nonzero, mag, 1.0), 1.0)
        out[rows, cols] -= phase
        dev = np.abs(out).max(axis=0)
        max_dev = float(np.maximum(max_dev, dev.max()))
        bad = np.nonzero(~(dev <= AMPLITUDE_TOL))[0]
        if bad.size and first_failure is None:
            j = int(bad[0])
            first_failure = (
                f"input {int(inputs[first + j]):0{c.n}b} (wire 0 rightmost): expected basis"
                f" state {int(rows[j]):0{c.wires}b}, max amplitude deviation {dev[j]:.3e}"
            )
    return VerifyResult(
        ok=first_failure is None,
        checked=len(inputs),
        max_deviation=max_dev,
        first_failure=first_failure,
    )


def _check_arity(c: Circuit, op: ReferenceOp) -> None:
    if c.n != op.n + 1:
        raise ValueError(
            f"circuit has {c.n} non-ancilla wires but op of arity {op.n} needs {op.n + 1}"
        )


def verify_clean(c: Circuit, op: ReferenceOp, strict_phase: bool = False) -> VerifyResult:
    """Check that the circuit cleanly computes the reference operator on every
    basis input (ancillae 0, and required to end at 0).

    Permutation-only circuits (Toffolis, Cnot included) are routed bit-exactly
    and allow up to op.n + a = 16; general circuits are simulated
    amplitude-by-amplitude and allow up to op.n + a = 10.
    """
    _check_arity(c, op)
    if is_permutation_circuit(c):
        if op.n + c.a > PERMUTATION_CHECK_MAX_WIRES:
            raise ValueError(
                f"permutation check limited to op.n + a <= {PERMUTATION_CHECK_MAX_WIRES}"
            )
        return _verify_clean_permutation(c, op)
    if op.n + c.a > DENSE_CHECK_MAX_WIRES:
        raise ValueError(f"dense check limited to op.n + a <= {DENSE_CHECK_MAX_WIRES}")
    return _verify_clean_dense(c, op, strict_phase, np.arange(2**c.n))


def robust_check(c: Circuit, against: ReferenceOp) -> bool:
    """Clean computation on every ancilla basis setting: for each input basis
    x and ancilla basis y, the circuit must map |x>|y> to (op|x>)|y> up to a
    per-input global phase. Limited to n + a <= 10."""
    if c.wires > DENSE_CHECK_MAX_WIRES:
        raise ValueError(f"robust check limited to n + a <= {DENSE_CHECK_MAX_WIRES}")
    _check_arity(c, against)
    return _verify_clean_dense(c, against, False, np.arange(2**c.wires)).ok


def sensitivity_scan(c: Circuit, m: MeasurementSpec) -> tuple[int, ...]:
    """Input wires that can influence the target reading: wire i is reported
    iff flipping it on some basis input (ancillae 0) moves the target's
    |1>-probability by more than ``READING_TOL``. Limited to n + a <= 10."""
    if c.wires > DENSE_CHECK_MAX_WIRES:
        raise ValueError(f"sensitivity scan limited to n + a <= {DENSE_CHECK_MAX_WIRES}")
    if not 0 <= m.wire < c.wires:
        raise ValueError(f"measured wire {m.wire} out of range")
    xs = np.arange(2**c.n)
    p1 = np.empty(xs.size)
    for first, out in run_basis(c, xs):
        p1[first : first + out.shape[1]] = column_probabilities(out, m.wire)
    influential = []
    for i in range(c.n):
        if np.abs(p1[xs] - p1[xs ^ (1 << i)]).max() > READING_TOL:
            influential.append(i)
    return tuple(influential)
