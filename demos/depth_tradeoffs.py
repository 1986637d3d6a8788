# How deep must a circuit be to compute parity or fanout? The answer depends
# on the gate model and on how many ancilla wires are allowed.

from qshallow import build_parity_logdepth, parity_logdepth_depth, tradeoff_bound

# Lower bounds (compare integer depths against their ceilings):
#   bounded-arity gates:     depth >= log2(n), any number of ancillae
#   unbounded Toffoli/Z:     depth >= least d with (a+1)*F(d+1) - a >= n
#                            for parity (Fibonacci F(1) = F(2) = 1, counted
#                            in single-qubit + Z layers), and 2 less for
#                            fanout (Hadamard conjugation).
print("parity on n bits, unbounded-arity model, varying ancilla budget a:")
print("    n      a=0     a=3     a=31    a=255")
for n in (64, 256, 1024, 4096):
    row = [tradeoff_bound(n, a, "parity").unbounded_gate_depth for a in (0, 3, 31, 255)]
    print(f"{n:6d}  " + "  ".join(f"{v:6.2f}" for v in row))
print()

print("fanout sheds two layers from each bound:")
for n in (64, 1024):
    p = tradeoff_bound(n, 0, "parity")
    f = tradeoff_bound(n, 0, "fanout")
    print(
        f"  n={n}: parity >= {p.unbounded_gate_depth:.2f}, "
        f"fanout >= {f.unbounded_gate_depth:.2f}  "
        f"(bounded-arity: {p.bounded_gate_depth:.2f} / {f.bounded_gate_depth:.2f})"
    )
print()

# Upper bound side: the Cnot-only construction. Its depth sits between the
# bounded-arity floor log2(n) and 2*log2(n). The unbounded-gate bound counts
# layers of the single-qubit + Z form, so it applies to the construction after
# rewrite_toffoli_to_z, which turns each Cnot layer into three (H, Z, H): 57
# layers at n=1024.
print("  n    construction depth   log2(n)   unbounded-gate bound")
for n in (4, 8, 16, 64, 256, 1024):
    d = parity_logdepth_depth(n)
    p = tradeoff_bound(n, 0, "parity")
    print(f"{n:4d}        {d:4d}           {p.bounded_gate_depth:5.2f}     "
          f"{p.unbounded_gate_depth:6.2f}")

# (Building the n=1024 circuit explicitly is instant if you want to look at it:)
c = build_parity_logdepth(64)
print(f"\nn=64 circuit: depth {c.depth()}, "
      f"{sum(len(l.gates) for l in c.layers)} cnot gates")
