# Killing large Z-gates one layer at a time: watch the committed wire set K,
# the witness state over it, and the certificate that falls out.
#
# Unbounded-arity Z-gates defeat the lightcone argument (one gate can touch
# every wire), so instead we pin wires to |0>. A Z-gate with a pinned wire
# can never see its all-ones firing pattern and collapses to the identity.

import numpy as np

from qshallow import (
    MeasurementSpec,
    certificate_to_json,
    kill_base,
    kill_step,
    parity_certificate,
    random_single_qubit_z_circuit,
    read_target,
    recheck_certificate,
    run,
    verify_kill,
    PartialState,
)

rng = np.random.default_rng(74)
c = random_single_qubit_z_circuit(
    n=10, a=0, depth=5, rng=rng, p_single=0.4, p_join_z=0.7
)
m = MeasurementSpec(c.target)

print(f"circuit: n = {c.n}, depth = {c.depth()}, target wire {c.target}")
for i, layer in enumerate(c.layers):
    kinds = []
    for g in layer.gates:
        name = type(g).__name__
        kinds.append(f"Z{sorted(g.support())}" if name == "ZGate" else f"u({sorted(g.support())[0]})")
    print(f"  layer {i}: {' '.join(kinds)}")
print()

# Walk the layers from the measurement backward. Each step may recruit wires
# (pinning them to |0>) to kill Z-gates that straddle K and the rest; in
# improved mode a wire pinned on the previous step kills its gate for free.
state = kill_base(c, "improved")
print(f"k=1 (output layer): K = {list(state.committed)}, "
      f"fresh zeros = {sorted(state.fresh_zero)}")
while state.k < c.depth():
    state = kill_step(state, c)
    newly = state.history[-1]
    kills = [f"layer {r.layer} gate {r.gate_index} via {r.via} (pin {r.pinned_wire})"
             for r in newly.killed]
    print(f"k={state.k}: K = {list(state.committed)}, killed: {kills or 'nothing'}")
print()

# The guarantee: feed the witness on K, anything at all on the rest, and the
# target reads 0. The replay checks it on K alone, walking the witness back
# toward the output: each kill's pinned wire and each recruit must read |0>
# where the argument needs it, and the target must read |0> at the end.
check = verify_kill(c, state)
print(f"exact witness replay: {'ok' if check.ok else 'FAILED'}, "
      f"max |1> reading on a pinned wire or the target {check.max_p1:.2e}, "
      f"final target reading {check.target_p1:.2e}")

# One concrete run: all-ones on the rest wires.
ones = PartialState.basis(state.rest, {w: 1 for w in state.rest})
reading = read_target(run(c, ones.tensor(state.psi)), m)
print(f"target reading on the all-ones rest-state: {reading.p1:.2e}")
print()

# Since K missed some input wire, the circuit ignores it -- parity would not.
# The certificate is the kill history alone: the witness it implies meets
# every pin, so the circuit's readings are proven to be 0, not stored.
cert = parity_certificate(c, "improved")
print(f"verdict: {cert.verdict}, free input wire {cert.free_input}")
print(f"circuit readings on the two test inputs: {cert.readings} (proven, not stored)")
# The flipped input has one more set bit, so parity's two readings sum to 1.
print("parity readings on the same inputs:      sum to 1, so one is at least 1/2")
print(f"independent recheck of the certificate:  {recheck_certificate(cert, c)}")
print()
print("the certificate itself is a plain JSON document:")
print("\n".join(certificate_to_json(cert).splitlines()[:12]) + "\n ...")
