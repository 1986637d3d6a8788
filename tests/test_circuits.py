import json
import re
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
    circuit_sha256,
    dense_operator,
    is_single_qubit_z_circuit,
    parse_circuit,
    rewrite_toffoli_to_z,
    serialize_circuit,
    validate,
)
from qshallow.randcirc import random_bounded_arity_circuit, random_single_qubit_z_circuit


def test_gate_support_is_built_once_without_changing_repr_equality_or_hash():
    gates = (ZGate([1, 2]), Toffoli([0, 3], 2), Cnot(1, 0), SingleQubit(4, np.eye(2)))
    assert [repr(g) for g in gates[:3]] == [
        "ZGate(wires=(1, 2))",
        "Toffoli(controls=(0, 3), target=2)",
        "Cnot(control=1, target=0)",
    ]
    assert repr(gates[3]).startswith("SingleQubit(wire=4, u=array(")
    assert [g.support() for g in gates] == [{1, 2}, {0, 2, 3}, {0, 1}, {4}]
    assert all(g.support() is g.support() for g in gates)
    assert hash(gates[0]) == hash(((1, 2),)) and hash(gates[1]) == hash(((0, 3), 2))
    assert gates[0] == ZGate((1, 2)) and gates[1] == Toffoli((0, 3), 2)
    assert gates[2] == Cnot(1, 0) and gates[2] != Toffoli((1,), 0)
    assert gates[3] == SingleQubit(4, np.eye(2)) and gates[3] != SingleQubit(4, HADAMARD)


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


def _doc(**fields):
    return {"n": 2, "ancillae": 0, "target": 1, "layers": [], **fields}


def _gate(gate):
    return _doc(layers=[[gate]])


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "circuit document must be a JSON object"),
        ({"ancillae": 0, "target": 1, "layers": []}, "circuit: missing field 'n'"),
        (_gate({"wires": [0]}), "layer 0, gate 0: missing field 'kind'"),
        (_doc(n="2"), "circuit: 'n' must be an integer"),
        (_doc(target=True), "circuit: 'target' must be an integer"),
        (_doc(layers={}), "circuit: 'layers' must be a list"),
        (_doc(layers=[5]), "layer 0: must be a list of gates"),
        (_doc(layers=[[5]]), "layer 0, gate 0: gate must be an object, got int"),
        (_gate({"kind": "z", "wires": [0.0]}), "wire index must be an integer, got 0.0"),
        (_gate({"kind": "u", "wire": 0, "matrix": 5}), "layer 0, gate 0: bad matrix encoding"),
        (
            _gate({"kind": "u", "wire": 0, "matrix": [[[1, 0]], [[0, 0]]]}),
            "layer 0, gate 0: matrix must be 2x2, got (2, 1)",
        ),
        (_gate({"kind": "z", "wires": 0}), "layer 0, gate 0: 'wires' must be a list"),
        (
            _gate({"kind": "toffoli", "controls": 0, "target": 1}),
            "layer 0, gate 0: 'controls' must be a list",
        ),
        (_gate({"kind": "z", "wires": [0, 0]}), "layer 0, gate 0: duplicate wires in z-gate"),
        (_doc(n=-1, target=0), "negative wire counts (n=-1, a=0)"),
    ],
)
def test_parse_refuses_each_malformed_document(doc, message):
    with pytest.raises(CircuitFormatError, match=re.escape(message)):
        parse_circuit(json.dumps(doc))


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


def test_every_gate_renders_through_its_template(monkeypatch):
    """Every gate kind (empty wire lists, multi-digit wires, and "u" gates
    with NaN and +-Infinity entries among them) renders through its template,
    never through ``json.dumps``, and still gives its bytes."""
    nan, inf = float("nan"), float("inf")
    c = Circuit(
        n=12,
        a=1,
        target=0,
        layers=(
            Layer([ZGate(()), Toffoli((), 0), ZGate((12, 3, 10)), Cnot(5, 7)]),
            Layer([Toffoli((11, 1, 2), 4), SingleQubit(6, HADAMARD), ZGate((9,))]),
            Layer(),
            Layer([
                SingleQubit(0, [[nan, complex(0, inf)], [-inf, complex(-inf, nan)]]),
                SingleQubit(8, [[1, complex(inf, -0.0)], [0, complex(nan, -inf)]]),
            ]),
        ),
    )
    expected = json_dumps_document(c)
    assert "NaN" in expected and "-Infinity" in expected

    def refuse(*args, **kwargs):
        raise AssertionError("serialize_circuit called json.dumps")

    monkeypatch.setattr(json, "dumps", refuse)
    assert serialize_circuit(c) == expected


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


def test_validate_checks_every_matrix_in_gate_order():
    """The stacked unitarity check reports, gate by gate in layer order, what
    a per-gate check of U^dag U reports, among the other violations."""
    rng = np.random.default_rng(3)
    skewed = [HADAMARD * (1 + 10.0**-e) for e in range(2, 12, 2)]
    layers = (
        Layer([SingleQubit(0, skewed[0]), SingleQubit(1, HADAMARD), SingleQubit(9, skewed[1])]),
        Layer([ZGate((0, 1)), SingleQubit(2, np.array([[1, 0], [0, np.nan]]))]),
        Layer([SingleQubit(0, skewed[2]), Cnot(1, 1), SingleQubit(2, skewed[3])]),
        Layer([SingleQubit(w, rng.standard_normal((2, 2))) for w in range(3)]),
        Layer([SingleQubit(1, skewed[4])]),
    )
    c = Circuit(n=3, a=0, target=0, layers=layers)
    expected = []
    for i, layer in enumerate(layers):
        for j, g in enumerate(layer.gates):
            where = f"layer {i}, gate {j}"
            if isinstance(g, Cnot):
                expected.append(f"{where}: cnot control equals target (1)")
            if not isinstance(g, SingleQubit):
                continue
            if g.wire > 2:
                expected.append(f"{where}: wire index {g.wire} out of range (circuit has 3 wires)")
            if not np.isfinite(g.u).all():
                expected.append(f"{where}: non-finite matrix entry [1][1] = {g.u[1, 1]}")
                continue
            dev = float(np.abs(g.u.conj().T @ g.u - np.eye(2)).max())
            if dev > 1e-10:
                expected.append(f"{where}: non-unitary matrix (max |U^dag U - I| = {dev:.3e})")
    assert validate(c) == expected
    assert len(expected) == 11


@pytest.mark.parametrize(
    "u, shown",
    [([[1e200, 0], [0, 1]], "inf"), ([[1e200 + 1e200j, 1e200 - 1e200j], [1, 1]], "nan")],
    ids=["inf", "nan"],
)
def test_validate_refuses_a_finite_matrix_whose_check_overflows(u, shown):
    """U^dag U of a finite matrix can overflow to inf, or to NaN through
    inf - inf; either fails the unitarity check, without a warning."""
    bad = Circuit(n=1, a=0, target=0, layers=(Layer([SingleQubit(0, np.array(u))]),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        violations = validate(bad)
    assert violations == [f"layer 0, gate 0: non-unitary matrix (max |U^dag U - I| = {shown})"]


@pytest.mark.parametrize(
    "n, digest",
    [
        (1, "47b8a0998b9697fa05091bc0b2a72be68ebfdf87b91a064590b6812c0dc25cb7"),
        (2, "48e574984bc13353979d53f167a95ddd0cec987b900a459650068c38b9249a7c"),
        (3, "1e617e9528c3f19c04c491290fbacede3647634d55ed46c9910d3253847e0dc9"),
        (5, "325478f2f5419165a841bc13c29f9e96967b6fd873f601292d233c8831c16117"),
        (9, "ca79cabf71399b2b5032e4e7832cc883a12a761bbded513f8e50591a64768549"),
        (16, "aa1abaf0592b6c03d0d33af2b440e21f065f45dd71a7741a8d213c05f2485313"),
        (100, "b58fe1b7da0dabf5746f1a16905845139f3ce918af306eb6869b9769d916f3db"),
        (1024, "64ca942335813dae9d5af6a51e96a54072ae0193ad42d3f8fc7f83b8842f4ba0"),
    ],
    ids=lambda v: str(v)[:8],
)
def test_parity_logdepth_bytes_are_pinned(n, digest):
    """The builder and the canonical writer together fix these hashes."""
    assert circuit_sha256(build_parity_logdepth(n)) == digest


Z, ARITY = random_single_qubit_z_circuit, random_bounded_arity_circuit


@pytest.mark.parametrize(
    "draw, digest",
    [
        ((Z, 6, 0, 4, 0), "0a003a66b2c9525ae46e4f6e74de2583dca9523232ff484146a1ecfc43b0e5be"),
        ((Z, 12, 1, 6, 1), "73e5f4b0ca15da15f889e2b114abe23c80e7bab3ab75a848d3dc560e02c08059"),
        ((Z, 20, 3, 5, 2), "ebde32d4ea9ed87fda50f600e55b46e816fef99b99f99958f898462a76a635df"),
        ((ARITY, 6, 0, 4, 0), "a77e920af3659aabaa42cc1d0db17f1003c60a6dfa980774bde512422e52fa34"),
        ((ARITY, 12, 1, 6, 1), "20e738b1ea0ba4eb7ce23709fd6ccdba1cd7495592a7e7753a0c51393401870b"),
        ((ARITY, 20, 3, 5, 2, 2), "d900e9cab928b7b75823621a67032900bb016407dac72e058d11e43512d3e03b"),
        ((ARITY, 8, 2, 4, 0, 3), "0fa5f53ba76a3f232cc45bd38ad5dc1a1deab8e36147a9bc905625902dad77d6"),
        ((ARITY, 12, 1, 6, 2, 4), "b43297a7e7971d2f11a6894de11ab9f11333e15ba8243594430d37e79f1dedb0"),
    ],
    ids=lambda v: v[:8] if isinstance(v, str) else " ".join([v[0].__name__, *map(str, v[1:])]),
)
def test_ensemble_draw_bytes_are_pinned(draw, digest):
    """A seeded draw (ensemble, n, a, depth, seed[, max_arity]) and the
    canonical writer together fix these hashes."""
    ensemble, n, a, depth, seed, *max_arity = draw
    c = ensemble(n, a, depth, np.random.default_rng(seed), *max_arity)
    assert circuit_sha256(c) == digest
