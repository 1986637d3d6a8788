"""Backward cone-of-influence analysis and the counterexamples it licenses.

Walking from the output layer toward the input, the set of wires that can
influence a single measured wire grows by at most a factor of the maximum
gate arity k per layer. When the deepest set still misses some input wire,
that wire provably cannot affect the measurement, while parity's output
depends on every input: ``check_depth_bound`` reads that verdict off the
cone. ``lightcone_counterexample`` illustrates it with the one flip pair the
package still simulates: the cone's gates, run on the cone's wires.

Set indexing follows the measurement outward: ``sets[0]`` is the support at
the output layer and ``sets[-1]`` the full cone at the input side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import Circuit, MeasurementSpec, backward_cone
from .reference import OpKind, analyzed_circuit, check_op_kind
from .sim import PartialState, TargetReading, read_target, run


@dataclass(frozen=True)
class LightconeReport:
    """Nested influence sets S_1 (output side) through S_d (input side)."""

    sets: tuple[frozenset[int], ...]
    max_arity: int
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
    """The lightcone verdict on a circuit's target, decided from ``report``
    alone: ``not-{against}`` exactly when some input is free, with
    ``free_inputs[0]`` as the flip wire. ``bound_triggered`` records whether
    the finite arity-depth bound max_arity**depth < n holds; a free input
    decides the verdict either way."""

    against: OpKind
    n: int
    depth: int
    bound_triggered: bool
    report: LightconeReport
    verdict: str  # "not-parity" | "not-fanout" | "no-verdict"

    @property
    def max_arity(self) -> int:
        return self.report.max_arity

    @property
    def flip_wire(self) -> int | None:
        return self.report.free_inputs[0] if self.report.free_inputs else None


def lightcone(c: Circuit, m: MeasurementSpec) -> LightconeReport:
    """Propagate the measured wire's influence set backward through the layers."""
    sets, _ = backward_cone(c, m.wire)
    free_inputs = tuple(w for w in range(c.n) if w not in sets[-1])
    return LightconeReport(sets=sets, max_arity=c.max_arity(), free_inputs=free_inputs)


def lightcone_counterexample(
    c: Circuit, m: MeasurementSpec, against: OpKind = "parity"
) -> LightconePair | None:
    """Disprove that the circuit computes parity (or, via Hadamard
    conjugation, fanout) by exhibiting a free input wire: the circuit's
    target reading ignores the flip, the reference operator's does not. One
    backward-cone walk of the analyzed circuit gives both the free input
    (the first input outside the full cone) and the cone circuit, which runs
    once on the cone's wires. The inputs are all-zero and the same with the
    free input set, so parity reads (0, 1) off the bits. Returns None when
    the lightcone covers every input (no verdict)."""
    c = analyzed_circuit(c, against)
    sets, cone = backward_cone(c, m.wire)
    flip = next((w for w in range(c.n) if w not in sets[-1]), None)
    if flip is None:
        return None
    # The flip wire lies outside the cone, so both inputs run the same cone state.
    reading = read_target(run(cone, PartialState.zero(sets[-1])), m)
    return LightconePair((0,) * c.n, flip, (reading, reading), parity_readings=(0.0, 1.0))


def check_depth_bound(c: Circuit, against: OpKind = "parity") -> DepthBoundVerdict:
    """The one lightcone verdict, from the cone walk alone: a free input lies
    outside the target's backward cone, so flipping it cannot move the
    target's reading while the operator's flips, and nothing is simulated.
    Against fanout the analyzed circuit is the Hadamard conjugate, which only
    adds single-qubit layers; those never grow a cone, so it has the same
    cone and free inputs as ``c`` and ``c`` is walked directly."""
    check_op_kind(against)
    report = lightcone(c, MeasurementSpec(c.target))
    return DepthBoundVerdict(
        against=against,
        n=c.n,
        depth=c.depth(),
        bound_triggered=report.max_arity ** c.depth() < c.n,
        report=report,
        verdict=f"not-{against}" if report.free_inputs else "no-verdict",
    )
