"""The sampled witness check that ``verify_kill``'s exact replay replaced,
kept as the tests' oracle for states over at most 16 wires.

It simulates the processed layer suffix on (rest tensor psi) for the
all-zeros rest state and ``trials`` random unit rest states, drawn with
``sim.random_amps`` from ``seed`` in trial order, twice: through the whole
suffix and through the suffix with every killed gate removed. A true witness
reads ~0 on every sample, and both runs end in the same state.
"""

from __future__ import annotations

import numpy as np

from qshallow import Circuit, Layer
from qshallow.sim import (
    READING_TOL,
    block_columns,
    column_probabilities,
    compile_layers,
    random_amps,
    tensor_indices,
)

STATE_TOL = 1e-10


def strip_killed(c, killed):
    """Copy of the circuit with every killed gate removed (replaced by the
    identity its pinned wire justifies)."""
    dropped = {(r.layer, r.gate_index) for r in killed}
    layers = tuple(
        Layer(g for j, g in enumerate(layer.gates) if (i, j) not in dropped)
        for i, layer in enumerate(c.layers)
    )
    return Circuit(n=c.n, a=c.a, target=c.target, layers=layers)


def two_suffix_verify_kill(c, s, trials=20, seed=0):
    """The sampled check of kill state ``s``, in the shape of the records in
    ``tests/data/pool_results.json``: ``ok``, ``trials`` (rest states run),
    ``readings`` (per rest state, the target's |1>-probability through the
    whole suffix and through the stripped one), ``max_p1`` and
    ``max_state_diff``. Each block of rest states runs through two
    independently compiled suffixes, the full one and the stripped one."""
    rng = np.random.default_rng(seed)
    from_layer = c.depth() - s.k
    wires, own, theirs = tensor_indices(s.rest, s.psi.wires)
    full = compile_layers(c.layers[from_layer:], wires)
    stripped = compile_layers(strip_killed(c, s.killed).layers[from_layer:], wires)
    target = wires.index(c.target)
    witness = s.psi.amps[theirs][:, None]
    count = trials + 1
    step = block_columns(len(wires))
    readings, diffs = [], []
    for first in range(0, count, step):
        rest = np.zeros((2 ** len(s.rest), min(step, count - first)), dtype=complex)
        for j in range(rest.shape[1]):
            if first + j == 0 or not s.rest:
                rest[0, j] = 1.0
            else:
                rest[:, j] = random_amps(len(s.rest), rng)
        start = rest[own] * witness
        out_full = full.apply(start.copy())
        out_killed = stripped.apply(start)
        p_full = column_probabilities(out_full, target)
        p_killed = column_probabilities(out_killed, target)
        readings += [list(pair) for pair in zip(p_full.tolist(), p_killed.tolist())]
        diffs.append(np.abs(out_killed - out_full).max())
    max_p1 = max(max(pair) for pair in readings)
    max_diff = float(max(diffs))
    return {
        "ok": max_p1 <= READING_TOL and max_diff <= STATE_TOL,
        "trials": count,
        "readings": readings,
        "max_p1": max_p1,
        "max_state_diff": max_diff,
    }
