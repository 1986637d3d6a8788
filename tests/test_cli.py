import gc
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from qshallow import (
    Circuit,
    Cnot,
    Layer,
    certificate_from_json,
    parse_circuit,
    recheck_certificate,
    serialize_circuit,
)
from qshallow.cli import build_parser, main
from qshallow.randcirc import random_bounded_arity_circuit, random_single_qubit_z_circuit

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def parity8(tmp_path):
    path = tmp_path / "parity8.json"
    result = main(["build", "parity-logdepth", "--n", "8", "--out", str(path)])
    assert result == 0
    return path


@pytest.fixture
def random12(tmp_path):
    rng = np.random.default_rng(0)
    c = random_single_qubit_z_circuit(12, 0, 4, rng)
    path = tmp_path / "random12.json"
    path.write_text(serialize_circuit(c))
    return path


def test_build_emits_parseable_circuit(parity8):
    doc = json.loads(parity8.read_text())
    assert doc["n"] == 9 and doc["ancillae"] == 0 and doc["target"] == 8


def test_simulate_parity_input(parity8, capsys):
    assert main(["simulate", "--circuit", str(parity8), "--input", "1011"[:4] + "0111"]) == 0
    out = capsys.readouterr().out
    # parity of 10110111 is 0
    assert "target p1 = 0.000000" in out


def test_simulate_odd_parity(tmp_path, capsys):
    path = tmp_path / "p4.json"
    main(["build", "parity-logdepth", "--n", "4", "--out", str(path)])
    assert main(["simulate", "--circuit", str(path), "--input", "1011"]) == 0
    assert "target p1 = 1.000000" in capsys.readouterr().out


def test_simulate_identity_zero(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"n": 4, "ancillae": 0, "target": 3, "layers": []}')
    assert main(["simulate", "--circuit", str(path), "--input", "0000"]) == 0
    assert "target p1 = 0.000000" in capsys.readouterr().out


def test_reading_a_circuit_file_closes_it(parity8, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["simulate", "--circuit", str(parity8), "--input", "10110111"]) == 0
        assert main(["verify", "--circuit", str(parity8), "--against", "parity"]) == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_simulate_malformed_bitstring(parity8, capsys):
    assert main(["simulate", "--circuit", str(parity8), "--input", "10x1"]) == 2


def test_simulate_length_mismatch(parity8):
    assert main(["simulate", "--circuit", str(parity8), "--input", "101"]) == 2


def test_verify_parity_ok(parity8, capsys):
    assert main(["verify", "--circuit", str(parity8), "--against", "parity"]) == 0
    assert "clean computation confirmed" in capsys.readouterr().out


def test_verify_wrong_op_negative(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"n": 3, "ancillae": 0, "target": 2, "layers": []}')
    assert main(["verify", "--circuit", str(path), "--against", "parity"]) == 1
    assert "NOT a clean parity computation" in capsys.readouterr().out


def test_bound_output(capsys):
    assert main(["bound", "--n", "1024", "--a", "31", "--gate", "parity"]) == 0
    assert "d ≥ 8.00" in capsys.readouterr().out
    assert main(["bound", "--n", "1024", "--gate", "fanout"]) == 0
    assert "d ≥ 14.00" in capsys.readouterr().out


def test_adversary_negative_writes_certificate(random12, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = main(["adversary", "--circuit", str(random12), "--out", str(cert_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "verdict: not-parity" in out
    doc = json.loads(cert_path.read_text())
    assert doc["format"] == "kill-certificate"
    assert doc["verdict"] == "not-parity"


def test_adversary_deterministic_output(random12, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["adversary", "--circuit", str(random12), "--out", str(a)])
    main(["adversary", "--circuit", str(random12), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_adversary_on_true_parity_inconclusive(parity8, capsys):
    assert main(["adversary", "--circuit", str(parity8)]) == 0
    out = capsys.readouterr().out
    assert "rewriting Toffoli/Cnot" in out
    assert "verdict: inconclusive" in out


@pytest.mark.parametrize("against", ["parity", "fanout"])
def test_adversary_certificate_of_a_toffoli_circuit_rechecks(tmp_path, capsys, against):
    """The library, not the CLI, rewrites Toffolis to H-Z-H, so the
    certificate is bound to the circuit file as given: it rechecks against
    the parsed file, for the log-depth parity tree (inconclusive) and for a
    Cnot circuit that does not compute parity."""
    tree, cnot = tmp_path / "p.json", tmp_path / "cnot.json"
    assert main(["build", "parity-logdepth", "--n", "3", "--out", str(tree)]) == 0
    cnot.write_text(serialize_circuit(Circuit(n=3, a=0, target=2, layers=(Layer([Cnot(0, 2)]),))))
    for path, verdict in ((tree, "inconclusive"), (cnot, f"not-{against}")):
        out = tmp_path / "cert.json"
        args = ["adversary", "--circuit", str(path), "--against", against, "--out", str(out)]
        assert main(args) == (0 if verdict == "inconclusive" else 1)
        assert "rewriting Toffoli/Cnot" in capsys.readouterr().out
        cert = certificate_from_json(out.read_text())
        assert cert.verdict == verdict
        assert recheck_certificate(cert, parse_circuit(path.read_text()))


def test_lightcone_counterexample_exit(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(
        '{"n": 8, "ancillae": 0, "target": 7, "layers":'
        ' [[{"kind": "cnot", "control": 0, "target": 7}]]}'
    )
    assert main(["lightcone", "--circuit", str(path)]) == 1
    out = capsys.readouterr().out
    assert "free inputs: [1, 2, 3, 4, 5, 6]" in out
    assert "verdict: not-parity" in out


def test_lightcone_covered_no_verdict(parity8, capsys):
    assert main(["lightcone", "--circuit", str(parity8)]) == 0
    assert "no counterexample" in capsys.readouterr().out


def test_rewrite_pipe_roundtrip(parity8, tmp_path, capsys):
    rewritten = tmp_path / "rw.json"
    assert main(
        ["rewrite", "--circuit", str(parity8), "--rule", "t2hzh", "--out", str(rewritten)]
    ) == 0
    assert main(["verify", "--circuit", str(rewritten), "--against", "parity"]) == 0


def test_rewrite_conjugate_fanout(tmp_path):
    p4 = tmp_path / "p4.json"
    main(["build", "parity-logdepth", "--n", "4", "--out", str(p4)])
    f4 = tmp_path / "f4.json"
    assert main(
        ["rewrite", "--circuit", str(p4), "--rule", "conjugate-fanout", "--out", str(f4)]
    ) == 0
    assert main(["verify", "--circuit", str(f4), "--against", "fanout"]) == 0


def test_build_fanout_via_parity_verifies_as_fanout_only(tmp_path, capsys):
    f4 = tmp_path / "f4.json"
    assert main(["build", "fanout-via-parity", "--n", "4", "--out", str(f4)]) == 0
    assert main(["verify", "--circuit", str(f4), "--against", "fanout"]) == 0
    assert "clean computation confirmed" in capsys.readouterr().out
    assert main(["verify", "--circuit", str(f4), "--against", "parity"]) == 1
    assert "NOT a clean parity computation" in capsys.readouterr().out


def test_missing_file_exits_2():
    assert main(["verify", "--circuit", "/nonexistent.json", "--against", "parity"]) == 2


def test_build_verify_pipeline_subprocess():
    # pytest's pythonpath setting does not reach child processes.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    build = subprocess.run(
        [sys.executable, "-m", "qshallow", "build", "parity-logdepth", "--n", "4"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0
    verify = subprocess.run(
        [sys.executable, "-m", "qshallow", "verify", "--circuit", "-", "--against", "parity"],
        input=build.stdout,
        env=env,
        capture_output=True,
        text=True,
    )
    assert verify.returncode == 0
    assert "clean computation confirmed" in verify.stdout


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--n", "abc", "--gate", "parity"])
    assert exc.value.code == 2


def test_adversary_fanout_route(random12, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = main(
        [
            "adversary",
            "--circuit",
            str(random12),
            "--against",
            "fanout",
            "--out",
            str(cert_path),
        ]
    )
    assert code == 1
    assert json.loads(cert_path.read_text())["verdict"] == "not-fanout"


def test_lightcone_fanout_route(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(
        '{"n": 8, "ancillae": 0, "target": 7, "layers":'
        ' [[{"kind": "cnot", "control": 0, "target": 7}]]}'
    )
    assert main(["lightcone", "--circuit", str(path), "--against", "fanout"]) == 1
    assert "verdict: not-fanout" in capsys.readouterr().out


def test_invariant_breach_exits_3(tmp_path, capsys):
    # Committed-set growth beyond the improved-mode cap is an internal
    # invariant breach, reported with its own exit code.
    doc = {
        "n": 6,
        "ancillae": 0,
        "target": 0,
        "layers": [
            [
                {"kind": "z", "wires": [0, 3]},
                {"kind": "z", "wires": [1, 4]},
            ],
            [{"kind": "z", "wires": [0, 2]}],
            [{"kind": "z", "wires": [0, 1]}],
            [
                {
                    "kind": "u",
                    "wire": 0,
                    "matrix": [
                        [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
                        [[0.7071067811865476, 0.0], [-0.7071067811865476, 0.0]],
                    ],
                }
            ],
        ],
    }
    path = tmp_path / "breach.json"
    path.write_text(json.dumps(doc))
    assert main(["adversary", "--circuit", str(path), "--mode", "improved"]) == 3
    assert "invariant breach" in capsys.readouterr().err
    assert main(["adversary", "--circuit", str(path), "--mode", "basic"]) == 1


def test_simulate_too_wide_exits_2_without_allocating(tmp_path, capsys):
    path = tmp_path / "wide30.json"
    doc = {"n": 30, "ancillae": 0, "target": 29, "layers": [[{"kind": "z", "wires": [0, 29]}]]}
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = main(["simulate", "--circuit", str(path), "--input", "0" * 30])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "24-wire simulation limit" in capsys.readouterr().err
    assert peak < 2**20  # one 30-wire state would be 16 GiB


def test_adversary_builds_no_witness_and_runs_no_replay(random12, monkeypatch, capsys):
    """The certificate comes from the kill history alone: with the witness
    construction, its replay and the layer application refused, the verdict
    still comes out."""
    from qshallow import adversary

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate built or replayed a witness")

    for name in ("kill_run", "kill_base", "kill_step", "verify_kill", "apply_layer"):
        monkeypatch.setattr(adversary, name, refuse)
    code = main(["adversary", "--circuit", str(random12), "--against", "fanout"])
    assert code == 1
    assert "verdict: not-fanout" in capsys.readouterr().out


def test_adversary_has_no_selfcheck_option(random12, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["adversary", "--circuit", str(random12), "--selfcheck"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --selfcheck" in capsys.readouterr().err


def test_readme_commands_parse():
    """Every ``qshallow`` command in README.md's sh blocks, each side of a
    pipe included, is one the parser accepts."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    commands = [
        shlex.split(part, comments=True)
        for block in blocks
        for line in block.splitlines()
        for part in line.split("|")
    ]
    commands = [argv[1:] for argv in commands if argv[:1] == ["qshallow"]]
    assert len(commands) >= 9
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README shows a command the parser refuses: qshallow {shlex.join(argv)}")


def test_readme_states_each_sim_constant_as_the_module_sets_it():
    """Every ``NAME = value`` README.md states for a ``qshallow.sim``
    constant equals the module's value."""
    import qshallow.sim as sim

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`([A-Z][A-Z0-9_]*) = ([^`]+)`", readme)
    stated = [(name, value) for name, value in stated if hasattr(sim, name)]
    assert {name for name, _ in stated} >= {
        "FUSE_MAX_BITS",
        "KRON_MAX_SIDE",
        "BLOCK_AMPS",
        "MAX_STATE_WIRES",
    }
    for name, value in stated:
        assert eval(value, {"__builtins__": {}}) == getattr(sim, name), f"README: {name} = {value}"


def test_out_of_memory_is_a_one_line_usage_error(monkeypatch, capsys):
    """A ``MemoryError`` exits 2, not 1, which means a negative verdict."""
    import qshallow.cli as cli

    def build(n):
        raise MemoryError()

    monkeypatch.setattr(cli, "build_parity_logdepth", build)
    assert main(["build", "parity-logdepth", "--n", "5000000"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_lightcone_too_wide_cone_is_a_verdict_without_allocating(tmp_path, capsys):
    path = tmp_path / "wide41.json"
    gate = {"kind": "z", "wires": list(range(40))}
    doc = {"n": 41, "ancillae": 0, "target": 0, "layers": [[gate]]}
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = main(["lightcone", "--circuit", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    out = capsys.readouterr().out
    assert "counterexample: free input 40 lies outside" in out
    assert "verdict: not-parity" in out
    assert peak < 2**20  # a table over 41 wires would be 16 TiB


def test_lightcone_verdict_at_n_1024(tmp_path, capsys):
    path = tmp_path / "wide1024.json"
    c = random_bounded_arity_circuit(1024, 0, 4, np.random.default_rng(3))
    path.write_text(serialize_circuit(c))
    assert main(["lightcone", "--circuit", str(path)]) == 1
    assert "verdict: not-parity" in capsys.readouterr().out


@pytest.mark.parametrize("depth", [6, 7, 8, 9])
def test_lightcone_verdict_at_paper_scale(tmp_path, capsys, depth):
    # Cones of about 50 to 150 wires: no simulation could hold them, and the
    # verdict needs none.
    path = tmp_path / "paper1024.json"
    c = random_bounded_arity_circuit(1024, 0, depth, np.random.default_rng(0), max_arity=2)
    path.write_text(serialize_circuit(c))
    assert main(["lightcone", "--circuit", str(path)]) == 1
    assert "verdict: not-parity" in capsys.readouterr().out


@pytest.mark.parametrize("token, shown", [("NaN", "nan"), ("Infinity", "inf")])
def test_verify_refuses_a_non_finite_matrix_entry(tmp_path, capsys, token, shown):
    # The gate never touches the target, so a NaN that slipped through the
    # unitarity check used to read "clean computation confirmed".
    path = tmp_path / "c.json"
    path.write_text(
        '{"n": 2, "ancillae": 0, "target": 1, "layers": [[{"kind": "u", "wire": 0,'
        f' "matrix": [[[{token}, 0], [0, 0]], [[0, 0], [1, 0]]]}}]]}}'
    )
    assert main(["verify", "--circuit", str(path), "--against", "parity"]) == 2
    err = capsys.readouterr().err
    assert f"layer 0, gate 0: non-finite matrix entry [0][0] = ({shown}+0j)" in err


def test_adversary_at_n_1024_with_a_wide_cone_exits_1(tmp_path, capsys):
    """The target's backward cone spans 34 wires, beyond the simulation
    limit, while the committed set holds 12; with a=31 the first committed
    set alone holds 32. The certificate comes from the kill history alone,
    so neither width matters, and the verdict is not a usage error."""
    for a, depth, seed in ((3, 6, 6), (31, 4, 0)):
        c = random_single_qubit_z_circuit(1024, a, depth, np.random.default_rng(seed))
        path = tmp_path / f"wide1024-a{a}.json"
        path.write_text(serialize_circuit(c))
        out = tmp_path / f"cert-a{a}.json"
        assert main(["adversary", "--circuit", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "verdict: not-parity"
        assert recheck_certificate(certificate_from_json(out.read_text()), c)
