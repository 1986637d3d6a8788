"""Backward cone-of-influence analysis and the counterexamples it licenses.

Walking from the output layer toward the input, the set of wires that can
influence a single measured wire grows by at most a factor of the maximum
gate arity k per layer. When the deepest set still misses some input wire,
that wire provably cannot affect the measurement, and flipping it yields a
machine-checkable pair of inputs on which the circuit disagrees with the
parity operator (whose output depends on every input).

Set indexing follows the measurement outward: ``sets[0]`` is the support at
the output layer and ``sets[-1]`` the full cone at the input side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adversary import analyzed_circuit, flip_pair
from .circuits import Circuit, MeasurementSpec, backward_cone
from .reference import OpKind
from .sim import PartialState, TargetReading


@dataclass(frozen=True)
class LightconeReport:
    """Nested influence sets S_1 (output side) through S_d (input side)."""

    sets: tuple[frozenset[int], ...]
    max_arity: int
    bound_per_level: tuple[int, ...]
    free_inputs: tuple[int, ...]


@dataclass(frozen=True)
class LightconePair:
    """Two basis inputs differing in one provably uninfluential wire, with the
    circuit's target readings (equal) and the parity operator's (different)."""

    x: tuple[int, ...]
    flip_wire: int
    readings: tuple[TargetReading, TargetReading]
    parity_readings: tuple[float, float]


@dataclass(frozen=True)
class DepthBoundVerdict:
    """Finite-instance depth-bound check: when max_arity**depth < n the
    lightcone cannot cover every input and a counterexample is attempted."""

    against: OpKind
    n: int
    depth: int
    max_arity: int
    bound_triggered: bool
    pair: LightconePair | None
    verdict: str  # "not-parity" | "not-fanout" | "no-verdict"


def lightcone(c: Circuit, m: MeasurementSpec) -> LightconeReport:
    """Propagate the measured wire's influence set backward through the layers."""
    if not 0 <= m.wire < c.wires:
        raise ValueError(f"measured wire {m.wire} out of range")
    k = c.max_arity()
    sets, _ = backward_cone(c, m.wire)
    free_inputs = tuple(w for w in range(c.n) if w not in sets[-1])
    bounds = tuple(k ** i for i in range(1, len(sets) + 1))
    return LightconeReport(
        sets=sets, max_arity=k, bound_per_level=bounds, free_inputs=free_inputs
    )


def lightcone_counterexample(
    c: Circuit, m: MeasurementSpec, against: OpKind = "parity"
) -> LightconePair | None:
    """Disprove that the circuit computes parity (or, via Hadamard
    conjugation, fanout) by exhibiting a free input wire: the circuit's
    target reading ignores the flip, the reference operator's does not.
    Returns None when the lightcone covers every input (no verdict)."""
    c = analyzed_circuit(c, against)
    report = lightcone(c, m)
    if not report.free_inputs:
        return None
    flip = report.free_inputs[0]
    readings, parity = flip_pair(c, m, PartialState.zero(()), flip)
    return LightconePair(x=(0,) * c.n, flip_wire=flip, readings=readings, parity_readings=parity)


def check_depth_bound(c: Circuit, against: OpKind = "parity") -> DepthBoundVerdict:
    """Test the finite form of the arity-depth bound and package the result."""
    k = c.max_arity()
    triggered = k ** c.depth() < c.n
    pair = None
    verdict = "no-verdict"
    if triggered:
        pair = lightcone_counterexample(c, MeasurementSpec(c.target), against)
        if pair is not None:
            verdict = "not-parity" if against == "parity" else "not-fanout"
    return DepthBoundVerdict(
        against=against,
        n=c.n,
        depth=c.depth(),
        max_arity=k,
        bound_triggered=triggered,
        pair=pair,
        verdict=verdict,
    )


def report_to_dict(report: LightconeReport) -> dict:
    """JSON-ready rendering (sets as sorted arrays)."""
    return {
        "sets": [sorted(s) for s in report.sets],
        "max_arity": report.max_arity,
        "bound_per_level": list(report.bound_per_level),
        "free_inputs": list(report.free_inputs),
    }
