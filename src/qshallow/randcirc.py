"""Seeded random circuit ensembles for campaigns and property tests.

Two ensembles:

- :func:`random_single_qubit_z_circuit` draws layers of probability-1/2
  single-qubit gates (Hadamard, X, phase, or a Haar-random unitary) and
  Z-gates over random disjoint wire sets of size at most 4 -- the gate set
  the killing construction targets.
- :func:`random_bounded_arity_circuit` draws layers of single-qubit gates,
  Cnots, and small Z-gates with every gate arity at most k -- the gate set
  the lightcone bound targets.

Both take a ``numpy.random.Generator`` so campaigns stay reproducible.
"""

from __future__ import annotations

import numpy as np

from .circuits import HADAMARD, PAULI_X, Circuit, Cnot, Layer, SingleQubit, ZGate


def _random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_single_qubit(wire: int, rng: np.random.Generator) -> SingleQubit:
    choice = rng.integers(0, 4)
    if choice == 0:
        u = HADAMARD
    elif choice == 1:
        u = PAULI_X
    elif choice == 2:
        u = np.diag([1.0, np.exp(1j * rng.uniform(0, 2 * np.pi))])
    else:
        u = _random_unitary_2x2(rng)
    return SingleQubit(wire, u)


def random_single_qubit_z_circuit(
    n: int,
    a: int,
    depth: int,
    rng: np.random.Generator,
    p_single: float = 0.5,
    p_join_z: float = 0.5,
) -> Circuit:
    """Each wire of a layer gets a single-qubit gate with probability
    ``p_single``; each other wire joins the Z pool with probability
    ``p_join_z``, and the pool is shuffled and cut into Z-gates of 2 to 4
    wires (the last one possibly smaller). Target is the last input wire."""
    wires = n + a
    layers = []
    for _ in range(depth):
        gates: list = []
        free = []
        for w in range(wires):
            if rng.random() < p_single:
                gates.append(_random_single_qubit(w, rng))
            else:
                free.append(w)
        pool = [w for w in free if rng.random() < p_join_z]
        rng.shuffle(pool)
        while pool:
            size = min(int(rng.integers(2, 5)), len(pool))
            group, pool = pool[:size], pool[size:]
            gates.append(ZGate(tuple(sorted(group))))
        layers.append(Layer(gates))
    return Circuit(n=n, a=a, target=n - 1, layers=tuple(layers))


def random_bounded_arity_circuit(
    n: int,
    a: int,
    depth: int,
    rng: np.random.Generator,
    max_arity: int = 2,
) -> Circuit:
    """Each layer walks a shuffled order of the wires. While two or more
    remain, with probability 0.6 the next 2 to ``max_arity`` wires take a
    multi-wire gate: a pair is a Cnot or a Z-gate with probability 1/2 each,
    a larger group a Z-gate. Otherwise the next wire gets a single-qubit gate
    with probability 1/2. Target is the last input wire."""
    if max_arity < 2:
        raise ValueError("need max_arity >= 2")
    wires = n + a
    layers = []
    for _ in range(depth):
        order = list(range(wires))
        rng.shuffle(order)
        gates: list = []
        while order:
            if len(order) >= 2 and rng.random() < 0.6:
                size = min(int(rng.integers(2, max_arity + 1)), len(order))
                group, order = order[:size], order[size:]
                if size == 2 and rng.random() < 0.5:
                    gates.append(Cnot(group[0], group[1]))
                else:
                    gates.append(ZGate(tuple(sorted(group))))
            else:
                w, order = order[0], order[1:]
                if rng.random() < 0.5:
                    gates.append(_random_single_qubit(w, rng))
        layers.append(Layer(gates))
    return Circuit(n=n, a=a, target=n - 1, layers=tuple(layers))
