"""The package's layering and its single declarations, read from the source.

``lightcone`` decides from the cone walk alone, so it must not import the
gate-killing module, and ``verify``, ``lightcone`` and ``adversary`` import
one another only where ``adversary`` re-exports ``robust_check``. Each
vocabulary (operator kind, kill mode, kill justification) is one ``Literal``,
and every list of its values, the CLI's choices included, is derived from it.
The kill certificate's fields are its document's schema.
"""

import ast
import dataclasses
import json
import pathlib
from typing import get_args

import numpy as np
import pytest

import qshallow
from qshallow import (
    KillCertificate,
    certificate_from_json,
    certificate_to_json,
    parity_certificate,
    recheck_certificate,
)
from qshallow.adversary import Mode, Via
from qshallow.cli import build_parser
from qshallow.randcirc import random_single_qubit_z_circuit
from qshallow.reference import OpKind

SRC = pathlib.Path(qshallow.__file__).parent
VOCABULARIES = [set(get_args(t)) for t in (OpKind, Mode, Via)]


def trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def sibling_imports(tree):
    """The package modules a module imports (``from .x import ...``)."""
    return {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_lightcone_does_not_import_the_gate_killing_module():
    imports = {name: sibling_imports(tree) for name, tree in trees().items()}
    assert "adversary" not in imports["lightcone"]
    verdict_modules = {"verify", "lightcone", "adversary"}
    edges = {(m, i) for m in verdict_modules for i in imports[m] & verdict_modules}
    assert edges == {("adversary", "verify")}


def test_each_vocabulary_is_spelled_only_in_its_literal():
    spelled = []
    for name, tree in trees().items():
        declared = {
            id(node.slice)
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "Literal"
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Tuple, ast.List, ast.Set)) or id(node) in declared:
                continue
            values = [e.value for e in node.elts if isinstance(e, ast.Constant)]
            if len(values) == len(node.elts) >= 2 and any(set(values) <= v for v in VOCABULARIES):
                spelled.append(f"{name}.py:{node.lineno}")
    assert spelled == []


def test_cli_choices_come_from_the_literals():
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    expected = {
        ("verify", "--against"): get_args(OpKind),
        ("lightcone", "--against"): get_args(OpKind),
        ("adversary", "--against"): get_args(OpKind),
        ("adversary", "--mode"): get_args(Mode),
        ("bound", "--gate"): get_args(OpKind),
    }
    choices = {
        (command, option): tuple(action.choices)
        for command, sub in commands.items()
        for action in sub._actions
        for option in action.option_strings[:1]
        if action.choices
    }
    assert {key: choices[key] for key in expected} == expected


@pytest.fixture(scope="module")
def certified():
    c = random_single_qubit_z_circuit(12, 0, 4, np.random.default_rng(0))
    return c, parity_certificate(c, "improved")


def test_the_certificate_document_is_its_fields_in_order(certified):
    """The document's keys are ``format`` and the fields, in field order, and
    the writer spells no top-level key but the ones whose values it converts."""
    _, cert = certified
    names = [f.name for f in dataclasses.fields(KillCertificate)]
    assert list(json.loads(certificate_to_json(cert))) == ["format", *names]
    writer = next(
        node
        for node in ast.walk(trees()["adversary"])
        if isinstance(node, ast.FunctionDef) and node.name == "certificate_to_json"
    )
    document = next(node for node in ast.walk(writer) if isinstance(node, ast.Dict))
    spelled = [key.value for key in document.keys if isinstance(key, ast.Constant)]
    assert spelled == ["format", "history", "psi_amps"]


def test_a_document_of_the_earlier_layout_is_malformed(certified):
    """The layout with a nested witness and the parity operator's readings
    and ancilla flag stored is refused, not read."""
    _, cert = certified
    obj = json.loads(certificate_to_json(cert))
    head = ("format", "version", "circuit_sha256", "against", "mode", "history")
    earlier = {
        **{k: obj[k] for k in head},
        "witness": {"wires": obj["history"][-1]["committed"], "amps": obj["psi_amps"]},
        "free_input": obj["free_input"],
        "readings": obj["readings"],
        "reference_readings": [0.0, 1.0],
        "ancilla_consistency": True,
        "verdict": obj["verdict"],
    }
    with pytest.raises(ValueError, match="^malformed kill certificate: "):
        certificate_from_json(json.dumps(earlier, indent=1))


def test_a_certificate_with_an_empty_history_fails_the_recheck(certified):
    """With no history there are no witness wires, and the one-amplitude
    witness over none is well-formed. The recheck refuses such a
    certificate on the history's length before it reads the last committed
    set, so it raises no ``IndexError``, read from its document too; so it
    does with the witness left as it was."""
    c, cert = certified
    empty = dataclasses.replace(cert, history=(), psi_amps=(1 + 0j,))
    assert not recheck_certificate(empty, c)
    assert not recheck_certificate(certificate_from_json(certificate_to_json(empty)), c)
    assert not recheck_certificate(dataclasses.replace(cert, history=()), c)
