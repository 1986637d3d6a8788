"""The witness checks and ``verify_clean`` on the benchmark's seed-0 pools.

The circuits are drawn here exactly as ``bench/workloads.py`` draws the
kill-campaign and oracle-sweep pools for seed 0 (warm-up pass included), and
each one's ``circuit_sha256`` is pinned, so a change to the draws fails
loudly instead of comparing other circuits. ``tests/data/pool_results.json``
holds every result as the simulator computed it before exact inverse pairs
cancelled at compile time. Its ``verify_kill`` records are the sampled check
that the exact replay replaced: the sampled oracle
(``kill_oracle.two_suffix_verify_kill``) must still reproduce them, and the
replay, ``verify_kill``, must agree with each record's ``ok``. The floats
must agree within ``TOL`` and everything else exactly, except ``verify_clean``'s
``max_deviation``: on a circuit that computes its operator it is the rounding
residue of the whole run, which fewer contractions make smaller, so it may
fall but not grow by more than ``TOL``.

Regenerate the data (only for a change that is meant to move these results,
and say so in the change log) with::

    PYTHONPATH=src python tests/test_pool_results.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from qshallow import (
    ReferenceOp,
    build_parity_logdepth,
    circuit_sha256,
    conjugate_parity_to_fanout,
    kill_run,
    rewrite_toffoli_to_z,
    verify_clean,
    verify_kill,
)
from qshallow.randcirc import random_bounded_arity_circuit, random_single_qubit_z_circuit

from kill_oracle import two_suffix_verify_kill

DATA = pathlib.Path(__file__).parent / "data" / "pool_results.json"
TOL = 1e-15
KILL_TRIALS = 20


def kill_campaign_cases():
    """(circuit, seed) of the 120 timed kill ops: twelve passes of ten n=12
    Z-ensemble circuits, after the warm-up pass's ten n=6 draws."""
    rng = np.random.default_rng([0, 0])
    for _ in range(10):
        random_single_qubit_z_circuit(6, 0, 4, rng)
    for i in range(12):
        for j in range(10):
            yield random_single_qubit_z_circuit(12, 0, 4, rng), 10 * i + j


def oracle_sweep_cases():
    """(circuit, against) of every dense ``verify_clean`` call of the pool,
    and the permutation-path one: the Z-ensemble negatives of three passes
    (after the warm-up pass's draws) and the rewritten log-depth parity
    circuit and its fanout conjugate, which every pass repeats."""
    rng = np.random.default_rng([0, 2])
    for i, z_n in enumerate((5, 10, 10, 10)):
        random_bounded_arity_circuit(z_n - 2, 2, 4, rng, max_arity=2)
        draws = [random_single_qubit_z_circuit(z_n, 0, 4, rng) for _ in range(4)]
        if i > 0:  # pass 0 is the warm-up
            yield from ((z, "parity") for z in draws)
    parity = build_parity_logdepth(9)
    yield rewrite_toffoli_to_z(parity), "parity"
    yield rewrite_toffoli_to_z(conjugate_parity_to_fanout(parity)), "fanout"
    yield build_parity_logdepth(16), "parity"


def generate() -> dict[str, list]:
    kill = []
    for c, seed in kill_campaign_cases():
        case = {"sha256": circuit_sha256(c), "seed": seed}
        for mode in ("basic", "improved"):
            case[mode] = two_suffix_verify_kill(c, kill_run(c, mode), KILL_TRIALS, seed)
        kill.append(case)
    clean = []
    for c, against in oracle_sweep_cases():
        r = verify_clean(c, ReferenceOp(against, c.n - 1))
        clean.append(
            {
                "sha256": circuit_sha256(c),
                "against": against,
                "ok": r.ok,
                "checked": r.checked,
                "max_deviation": r.max_deviation,
                "first_failure": r.first_failure,
            }
        )
    return {"verify_kill": kill, "verify_clean": clean}


def assert_close(actual, expected, where: str) -> None:
    """Floats within ``TOL``; every other value, and the shape, exactly."""
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            if key == "max_deviation" and expected["ok"]:
                assert actual[key] <= expected[key] + TOL, f"{where}: {actual[key]!r}"
            else:
                assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert abs(actual - expected) <= TOL, f"{where}: {actual!r} vs {expected!r}"
    else:
        assert actual == expected, f"{where}: {actual!r} vs {expected!r}"


def test_pool_results_match_recorded_data():
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    assert_close(generate(), expected, "pool")


def test_verify_kill_agrees_with_every_recorded_ok():
    expected = json.loads(DATA.read_text(encoding="utf-8"))["verify_kill"]
    cases = list(kill_campaign_cases())
    assert len(cases) == len(expected)
    for (c, _), record in zip(cases, expected):
        for mode in ("basic", "improved"):
            assert verify_kill(c, kill_run(c, mode)).ok == record[mode]["ok"], (record, mode)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(generate(), indent=1) + "\n", encoding="utf-8")
