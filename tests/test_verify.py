import numpy as np
import pytest

from qshallow import (
    HADAMARD,
    Circuit,
    Cnot,
    Layer,
    MeasurementSpec,
    ReferenceOp,
    SingleQubit,
    Toffoli,
    ZGate,
    build_parity_logdepth,
    conjugate_parity_to_fanout,
    lightcone,
    sensitivity_scan,
    verify_clean,
)
from qshallow.randcirc import random_bounded_arity_circuit
from qshallow.sim import run_basis
import qshallow.verify as verify
from qshallow.verify import _permutation_images


def test_parity_construction_verifies():
    result = verify_clean(build_parity_logdepth(4), ReferenceOp("parity", 4))
    assert result.ok
    assert result.checked == 32
    assert result.max_deviation == 0.0


def test_identity_fails_at_first_single_one_input():
    ident = Circuit(n=4, a=0, target=3, layers=())
    result = verify_clean(ident, ReferenceOp("parity", 3))
    assert not result.ok
    # first failing basis input is x = (1,0,0,b=0): index 1
    assert "input 0001" in result.first_failure


def test_conjugated_parity_verifies_as_fanout():
    c = conjugate_parity_to_fanout(build_parity_logdepth(2))
    assert verify_clean(c, ReferenceOp("fanout", 2)).ok


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError, match="arity"):
        verify_clean(build_parity_logdepth(4), ReferenceOp("parity", 3))


def test_dirty_ancilla_fails():
    # XORs an input into the ancilla and never uncomputes.
    c = Circuit(
        n=2,
        a=1,
        target=1,
        layers=(Layer([Cnot(0, 2)]), Layer([Cnot(0, 1)])),
    )
    result = verify_clean(c, ReferenceOp("parity", 1))
    assert not result.ok


def test_strict_phase_flag():
    # Z on the target after a clean parity circuit: phases differ on odd inputs
    # but the measurement statistics do not.
    base = build_parity_logdepth(1)
    c = Circuit(
        n=2, a=0, target=1, layers=base.layers + (Layer([ZGate((1,))]),)
    )
    assert verify_clean(c, ReferenceOp("parity", 1)).ok
    strict = verify_clean(c, ReferenceOp("parity", 1), strict_phase=True)
    assert not strict.ok


def test_guards():
    big_perm = build_parity_logdepth(17)
    with pytest.raises(ValueError, match="op.n \\+ a <= 16"):
        verify_clean(big_perm, ReferenceOp("parity", 17))
    dense = Circuit(
        n=12, a=0, target=11, layers=(Layer([SingleQubit(0, HADAMARD)]),)
    )
    with pytest.raises(ValueError, match="op.n \\+ a <= 10"):
        verify_clean(dense, ReferenceOp("parity", 11))


def test_permutation_and_dense_paths_agree():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = build_parity_logdepth(3)
        fast = verify_clean(c, ReferenceOp("parity", 3))
        # pad with identity single-qubit gates to force the dense path
        padded = Circuit(
            n=c.n,
            a=c.a,
            target=c.target,
            layers=c.layers + (Layer([SingleQubit(0, np.eye(2, dtype=complex))]),),
        )
        slow = verify_clean(padded, ReferenceOp("parity", 3))
        assert fast.ok == slow.ok == True  # noqa: E712


@pytest.mark.parametrize("seed", range(4))
def test_permutation_images_match_the_kernel(seed):
    """The bit-level oracle and the compiled kernel agree on Cnots and on
    Toffolis with 0-3 controls."""
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(4):
        order = [int(w) for w in rng.permutation(7)]
        gates = []
        while order:
            size = min(int(rng.integers(1, 5)), len(order))
            group, order = order[:size], order[size:]
            if size == 2 and rng.random() < 0.5:
                gates.append(Cnot(*group))
            else:
                gates.append(Toffoli(tuple(group[1:]), group[0]))
        layers.append(Layer(gates))
    c = Circuit(n=7, a=0, target=0, layers=tuple(layers))
    inputs = np.arange(2**7)
    images = _permutation_images(c, inputs)
    for first, block in run_basis(c, inputs):
        columns = np.abs(block).argmax(axis=0)
        assert np.array_equal(columns, images[first : first + block.shape[1]])


def test_sensitivity_scan_full_parity():
    c = build_parity_logdepth(4)
    influential = sensitivity_scan(c, MeasurementSpec(c.target))
    assert set(influential) >= set(range(4))


def test_sensitivity_scan_untouched_wires():
    c = Circuit(n=5, a=0, target=1, layers=(Layer([Cnot(0, 1)]),))
    influential = sensitivity_scan(c, MeasurementSpec(1))
    assert set(influential) <= {0, 1}


def test_sensitivity_scan_guard():
    c = Circuit(n=11, a=0, target=0, layers=())
    with pytest.raises(ValueError, match="n \\+ a <= 10"):
        sensitivity_scan(c, MeasurementSpec(0))


@pytest.mark.parametrize("seed", range(8))
def test_sensitivity_contained_in_lightcone(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    a = int(rng.integers(0, 2))
    c = random_bounded_arity_circuit(n, a, int(rng.integers(1, 4)), rng, max_arity=2)
    m = MeasurementSpec(c.target)
    assert set(sensitivity_scan(c, m)) <= lightcone(c, m).sets[-1]


def test_lightcone_verdicts_agree_with_oracle():
    # Whenever the counterexample names a circuit not-parity, the exhaustive
    # clean-computation check agrees.
    from qshallow import ReferenceOp as Op
    from qshallow import lightcone_counterexample

    rng = np.random.default_rng(21)
    disproofs = 0
    for _ in range(30):
        c = random_bounded_arity_circuit(8, 0, 2, rng, max_arity=2)
        pair = lightcone_counterexample(c, MeasurementSpec(c.target))
        if pair is not None:
            disproofs += 1
            assert not verify_clean(c, Op("parity", 7)).ok
    assert disproofs > 0


def test_adversary_verdicts_agree_with_oracle():
    from qshallow import parity_certificate
    from qshallow.randcirc import random_single_qubit_z_circuit

    rng = np.random.default_rng(22)
    for _ in range(10):
        c = random_single_qubit_z_circuit(9, 0, 3, rng)
        cert = parity_certificate(c, "improved")
        if cert.verdict == "not-parity":
            assert not verify_clean(c, ReferenceOp("parity", 8)).ok


NAN_GATE = np.array([[np.nan, 0], [0, 1]], dtype=complex)


def test_nan_circuit_fails_instead_of_confirming():
    # Built by hand, so no validation: the kernel's norm check must catch it.
    c = Circuit(n=2, a=0, target=1, layers=(Layer([SingleQubit(0, NAN_GATE)]),))
    with pytest.raises(ValueError, match="state norm nan"):
        verify_clean(c, ReferenceOp("parity", 1))


def test_dense_check_fails_on_a_nan_output(monkeypatch):
    # Even an output that got past the kernel's norm check fails the
    # deviation test, and the deviation reads nan rather than 0.
    def nan_blocks(c, inputs):
        for first, out in run_basis(c, inputs):
            out[0, 0] = np.nan
            yield first, out

    monkeypatch.setattr(verify, "run_basis", nan_blocks)
    c = Circuit(n=2, a=0, target=1, layers=(Layer([SingleQubit(0, HADAMARD)]),))
    result = verify._verify_clean_dense(c, ReferenceOp("parity", 1), False, np.arange(4))
    assert not result.ok
    assert np.isnan(result.max_deviation)
    assert "input 00" in result.first_failure
