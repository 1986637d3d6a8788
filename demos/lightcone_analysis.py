# The backward lightcone of a measurement: which wires can matter at all,
# and what to do with the ones that cannot.

from qshallow import (
    Circuit,
    MeasurementSpec,
    build_parity_logdepth,
    check_depth_bound,
    lightcone,
    lightcone_counterexample,
    sensitivity_scan,
)

# Take the real 8-input parity circuit and keep only its first two layers.
full = build_parity_logdepth(8)
truncated = Circuit(n=full.n, a=0, target=full.target, layers=full.layers[:2])
m = MeasurementSpec(truncated.target)

report = lightcone(truncated, m)
print(f"max gate arity k = {report.max_arity}")
for i, s in enumerate(report.sets, start=1):
    print(f"S_{i} = {sorted(s)}   (|S_{i}| = {len(s)} <= k^{i} = {report.max_arity ** i})")
print(f"free inputs (outside S_{len(report.sets)}): {list(report.free_inputs)}")
print()

# With two layers of 2-wire gates the cone holds at most 4 wires, so at least
# 4 of the 8 summed inputs are invisible to the measurement. Flipping one of
# them produces a concrete disproof that the truncation computes parity.
pair = lightcone_counterexample(truncated, m)
print(f"flip wire {pair.flip_wire}: circuit reads "
      f"{pair.readings[0].p1:.3f} -> {pair.readings[1].p1:.3f} (unchanged),")
print(f"                parity reads {pair.parity_readings[0]:.0f} -> "
      f"{pair.parity_readings[1]:.0f} (flipped)")
print()

# A brute-force sensitivity scan agrees: nothing outside the cone matters.
influential = sensitivity_scan(truncated, m)
print(f"influential wires by exhaustive scan: {list(influential)}")
print(f"contained in the cone: {set(influential) <= report.sets[-1]}")
print()

# check_depth_bound decides from the cone alone, with no simulation. The
# full-depth circuit covers every input, so this argument has no verdict there.
for name, c in (("truncated", truncated), ("full", full)):
    verdict = check_depth_bound(c, "parity")
    print(f"{name} circuit: arity-depth trigger k^d < n is {verdict.bound_triggered}, "
          f"free inputs {list(verdict.report.free_inputs)} -> verdict: {verdict.verdict}")
