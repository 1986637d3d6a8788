import json
import warnings

import numpy as np
import pytest

from qshallow import (
    HADAMARD,
    Circuit,
    CircuitFormatError,
    Cnot,
    Layer,
    SingleQubit,
    Toffoli,
    ZGate,
    build_parity_logdepth,
    dense_operator,
    is_single_qubit_z_circuit,
    parse_circuit,
    rewrite_toffoli_to_z,
    serialize_circuit,
    validate,
)
from qshallow.randcirc import random_bounded_arity_circuit


def test_validate_clean_circuit():
    c = Circuit(n=2, a=0, target=1, layers=(Layer([Cnot(0, 1)]),))
    assert validate(c) == []


def test_validate_empty_circuit_ok():
    assert validate(Circuit(n=3, a=1, target=0, layers=())) == []


def test_validate_overlapping_supports():
    bad = Circuit(
        n=5,
        a=0,
        target=0,
        layers=(
            Layer([Cnot(0, 1)]),
            Layer([Cnot(2, 3)]),
            Layer([Cnot(3, 4), ZGate((3, 0))]),
        ),
    )
    violations = validate(bad)
    assert len(violations) == 1
    assert "overlapping supports in layer 2" in violations[0]
    assert "wire 3" in violations[0]


def test_validate_non_unitary():
    bad = Circuit(
        n=1,
        a=0,
        target=0,
        layers=(Layer([SingleQubit(0, np.array([[1, 0], [0, 0]], dtype=complex))]),),
    )
    violations = validate(bad)
    assert len(violations) == 1
    assert "non-unitary" in violations[0]


def test_validate_wire_ranges_and_gate_shapes():
    bad = Circuit(
        n=2,
        a=0,
        target=5,
        layers=(
            Layer([Cnot(0, 0)]),
            Layer([Toffoli((1, 1), 0)]),
            Layer([ZGate(())]),
            Layer([Cnot(0, 7)]),
        ),
    )
    text = "\n".join(validate(bad))
    assert "target 5 out of range" in text
    assert "cnot control equals target" in text
    assert "duplicate control wires" in text
    assert "at least one wire" in text
    assert "wire index 7 out of range" in text


def test_toffoli_target_in_controls():
    bad = Circuit(n=3, a=0, target=0, layers=(Layer([Toffoli((0, 1), 1)]),))
    assert any("also a control" in v for v in validate(bad))


def test_parse_simple_cnot_document():
    doc = '{"n": 2, "ancillae": 0, "target": 1, "layers": [[{"kind": "cnot", "control": 0, "target": 1}]]}'
    c = parse_circuit(doc)
    assert c.depth() == 1
    assert c.layers[0].gates == (Cnot(0, 1),)


def test_parse_unknown_kind():
    doc = '{"n": 2, "ancillae": 0, "target": 1, "layers": [[{"kind": "zz", "wires": [0]}]]}'
    with pytest.raises(CircuitFormatError, match="unknown gate kind 'zz'"):
        parse_circuit(doc)


def test_parse_malformed_json():
    with pytest.raises(CircuitFormatError, match="malformed"):
        parse_circuit("{not json")


def test_parse_out_of_range_wire():
    doc = '{"n": 2, "ancillae": 0, "target": 0, "layers": [[{"kind": "z", "wires": [4]}]]}'
    with pytest.raises(CircuitFormatError, match="out of range"):
        parse_circuit(doc)


def test_roundtrip_parity_construction():
    c = build_parity_logdepth(8)
    again = parse_circuit(serialize_circuit(c))
    assert c == again
    # serialize ∘ parse is the canonical form: byte-stable
    assert serialize_circuit(again) == serialize_circuit(c)


def test_roundtrip_all_gate_kinds():
    c = Circuit(
        n=3,
        a=1,
        target=2,
        layers=(
            Layer([SingleQubit(0, HADAMARD), ZGate((1, 2))]),
            Layer([Toffoli((0, 1), 3)]),
            Layer([Cnot(3, 0)]),
            Layer(()),
        ),
    )
    again = parse_circuit(serialize_circuit(c))
    assert c == again


def test_roundtrip_preserves_exact_matrix_entries():
    u = np.array(
        [[0.6 + 0.8j, 0.0], [0.0, np.exp(1j * 0.12345678901234567)]], dtype=complex
    )
    c = Circuit(n=1, a=0, target=0, layers=(Layer([SingleQubit(0, u)]),))
    again = parse_circuit(serialize_circuit(c))
    assert np.array_equal(again.layers[0].gates[0].u, u)


def json_dumps_document(c):
    """The canonical document as ``json.dumps(obj, indent=1)`` writes it."""

    def gate(g):
        if isinstance(g, SingleQubit):
            matrix = [[[float(e.real), float(e.imag)] for e in row] for row in g.u]
            return {"kind": "u", "wire": g.wire, "matrix": matrix}
        if isinstance(g, ZGate):
            return {"kind": "z", "wires": list(g.wires)}
        if isinstance(g, Cnot):
            return {"kind": "cnot", "control": g.control, "target": g.target}
        return {"kind": "toffoli", "controls": list(g.controls), "target": g.target}

    obj = {
        "n": c.n,
        "ancillae": c.a,
        "target": c.target,
        "layers": [[gate(g) for g in layer.gates] for layer in c.layers],
    }
    return json.dumps(obj, indent=1)


# Matrix entries whose text is easy to get wrong: signed zeros, exponents,
# 17-digit values, and the non-finite values json spells its own way.
AWKWARD_NUMBERS = [0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, -5e-324, 1e16, 2.5e-8, 1 / 3]
NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def random_document_circuit(rng, numbers):
    n = int(rng.integers(1, 7))
    a = int(rng.integers(0, 3))
    layers = []
    for _ in range(int(rng.integers(0, 5))):
        wires = [int(w) for w in rng.permutation(n + a)]
        gates = []
        while wires and rng.random() < 0.8:
            kind = rng.integers(0, 5)
            if kind == 0:
                u = np.empty((2, 2), dtype=complex)
                u.real, u.imag = rng.choice(numbers, size=(2, 2, 2))
                gates.append(SingleQubit(wires.pop(), u))
            elif kind == 1:
                gates.append(SingleQubit(wires.pop(), rng.standard_normal((2, 2)) + 0j))
            elif kind == 2:
                size = int(rng.integers(1, len(wires) + 1))
                gates.append(ZGate(tuple(wires.pop() for _ in range(size))))
            elif kind == 3 or len(wires) < 2:
                size = int(rng.integers(0, len(wires)))
                controls = tuple(wires.pop() for _ in range(size))
                gates.append(Toffoli(controls, wires.pop()))
            else:
                gates.append(Cnot(wires.pop(), wires.pop()))
        layers.append(Layer(gates))
    return Circuit(n=n, a=a, target=int(rng.integers(0, n + a)), layers=tuple(layers))


@pytest.mark.parametrize("seed", range(40))
def test_serialize_matches_json_dumps(seed):
    """The gate-by-gate writer gives json.dumps's bytes on every gate kind,
    empty layers, depth 0, ancillae and signed zeros; every fifth draw also
    puts non-finite entries into its "u" gates."""
    rng = np.random.default_rng(seed)
    numbers = AWKWARD_NUMBERS + (NON_FINITE if seed % 5 == 0 else [])
    for _ in range(25):
        c = random_document_circuit(rng, numbers)
        assert serialize_circuit(c) == json_dumps_document(c)


def test_serialize_matches_json_dumps_on_edge_circuits():
    cases = [
        Circuit(n=1, a=0, target=0),
        Circuit(n=2, a=3, target=4, layers=(Layer(), Layer())),
        Circuit(n=1, a=0, target=0, layers=(Layer([SingleQubit(0, -0.0 * HADAMARD)]),)),
        build_parity_logdepth(9),
        rewrite_toffoli_to_z(build_parity_logdepth(5)),
    ]
    for c in cases:
        assert serialize_circuit(c) == json_dumps_document(c)


def test_rewrite_single_toffoli_matches_on_all_basis_states():
    c = Circuit(n=3, a=0, target=2, layers=(Layer([Toffoli((0, 1), 2)]),))
    rewritten = rewrite_toffoli_to_z(c)
    assert is_single_qubit_z_circuit(rewritten)
    assert rewritten.depth() == 3
    gates = rewritten.layers[1].gates
    assert gates == (ZGate((0, 1, 2)),)
    assert np.abs(dense_operator(c) - dense_operator(rewritten)).max() <= 1e-12


def test_rewrite_no_toffoli_unchanged():
    c = Circuit(n=2, a=0, target=0, layers=(Layer([ZGate((0, 1))]),))
    assert rewrite_toffoli_to_z(c) == c


def test_rewrite_cnot_dense_equality():
    c = Circuit(n=2, a=0, target=1, layers=(Layer([Cnot(0, 1)]),))
    rewritten = rewrite_toffoli_to_z(c)
    assert np.abs(dense_operator(c) - dense_operator(rewritten)).max() <= 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_rewrite_property_random_circuits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    a = int(rng.integers(0, 3))
    if n + a > 6:
        a = 6 - n
    c = random_bounded_arity_circuit(n, a, int(rng.integers(1, 4)), rng, max_arity=3)
    rewritten = rewrite_toffoli_to_z(c)
    assert validate(rewritten) == []
    assert is_single_qubit_z_circuit(rewritten)
    assert rewritten.depth() <= 3 * c.depth()
    assert np.abs(dense_operator(c) - dense_operator(rewritten)).max() <= 1e-10


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf)])
def test_validate_non_finite_entry_without_warnings(entry):
    u = np.array([[1, 0], [0, entry]], dtype=complex)
    bad = Circuit(n=1, a=0, target=0, layers=(Layer([SingleQubit(0, u)]),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no invalid-value warning from U^dag U
        violations = validate(bad)
    assert violations == [f"layer 0, gate 0: non-finite matrix entry [1][1] = {u[1, 1]}"]
