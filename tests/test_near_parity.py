"""Soundness next to the shipped construction: one-gate mutants of the
log-depth parity circuit, some of which still compute parity cleanly.

Each base is ``build_parity_logdepth(n)`` for n 2-8, with up to two of its
inputs that no Cnot writes read through ancilla copies (copied in a new first
layer, uncopied in a new last one). A base is confirmed clean by
``verify_clean``, rewritten to H·Z·H and kept when it has at most 10 wires. A
mutant deletes a gate, adds or drops a Z wire, inserts a Z-gate or inserts an
H. No mutant that ``verify_clean`` accepts may get a certificate, in either
mode, and every certificate must recheck. How many of the other mutants get
one (completeness) is printed, not asserted.
"""

import numpy as np

from qshallow import (
    HADAMARD,
    Circuit,
    Cnot,
    Layer,
    ReferenceOp,
    SingleQubit,
    ZGate,
    build_parity_logdepth,
    parity_certificate,
    recheck_certificate,
    rewrite_toffoli_to_z,
    verify_clean,
)

MUTANTS_PER_BASE = 10
MAX_WIRES = 10  # verify_clean's dense limit


def with_ancilla_copies(c, a):
    """``c`` with its first ``a`` never-written inputs read through ancilla
    copies, or None when it has fewer such inputs."""
    if a == 0:
        return c
    written = {g.target for layer in c.layers for g in layer.gates}
    copied = [w for w in range(c.n) if w not in written][:a]
    if len(copied) < a:
        return None
    copy = {w: c.n + i for i, w in enumerate(copied)}
    fan = Layer(Cnot(w, copy[w]) for w in copied)
    layers = [
        Layer(Cnot(copy.get(g.control, g.control), g.target) for g in layer.gates)
        for layer in c.layers
    ]
    return Circuit(n=c.n, a=a, target=c.target, layers=(fan, *layers, fan))


def bases():
    for n in range(2, 9):
        for a in range(3):
            c = with_ancilla_copies(build_parity_logdepth(n), a)
            if c is None or c.wires > MAX_WIRES:
                continue
            assert verify_clean(c, ReferenceOp("parity", c.n - 1)).ok, (n, a)
            yield rewrite_toffoli_to_z(c)


def mutant(c, rng):
    """``c`` with one gate deleted, one Z wire added or dropped, one Z-gate
    inserted or one H inserted, in a random layer."""
    while True:
        layers = [list(layer.gates) for layer in c.layers]
        gates = layers[int(rng.integers(len(layers)))]
        free = sorted(set(range(c.wires)).difference(*(g.support() for g in gates)))
        zs = [j for j, g in enumerate(gates) if isinstance(g, ZGate)]
        wide = [j for j in zs if len(gates[j].wires) > 1]
        kind = int(rng.integers(5))
        if kind == 0 and gates:
            del gates[int(rng.integers(len(gates)))]
        elif kind == 1 and zs and free:
            j = zs[int(rng.integers(len(zs)))]
            gates[j] = ZGate(tuple(sorted((*gates[j].wires, free[int(rng.integers(len(free)))]))))
        elif kind == 2 and wide:
            j = wide[int(rng.integers(len(wide)))]
            wires = list(gates[j].wires)
            del wires[int(rng.integers(len(wires)))]
            gates[j] = ZGate(tuple(wires))
        elif kind == 3 and len(free) >= 2:
            pair = rng.choice(len(free), 2, replace=False)
            gates.append(ZGate(tuple(sorted(free[int(i)] for i in pair))))
        elif kind == 4 and free:
            gates.append(SingleQubit(free[int(rng.integers(len(free)))], HADAMARD))
        else:
            continue
        return Circuit(n=c.n, a=c.a, target=c.target, layers=tuple(map(Layer, layers)))


def test_no_near_parity_mutant_that_computes_parity_gets_a_certificate():
    rng = np.random.default_rng(0)
    clean = others = 0
    decisive = {"basic": 0, "improved": 0}
    for base in bases():
        for _ in range(MUTANTS_PER_BASE):
            m = mutant(base, rng)
            is_parity = verify_clean(m, ReferenceOp("parity", m.n - 1)).ok
            clean += is_parity
            others += not is_parity
            for mode in decisive:
                cert = parity_certificate(m, mode)
                assert recheck_certificate(cert, m), (m, mode)
                assert not (is_parity and cert.verdict != "inconclusive"), (m, mode)
                decisive[mode] += cert.verdict != "inconclusive"
    assert clean and others
    print(
        f"near-parity mutants: {clean} compute parity cleanly; of the other {others},"
        f" {decisive['basic']} get a certificate in basic mode, {decisive['improved']} in improved"
    )
