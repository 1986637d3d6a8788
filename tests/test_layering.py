"""The package's layering and its single declarations, read from the source.

``lightcone`` decides from the cone walk alone, so it must not import the
gate-killing module, and ``verify``, ``lightcone`` and ``adversary`` import
one another only where ``adversary`` re-exports ``robust_check``. Each
vocabulary (operator kind, kill mode, kill justification) is one ``Literal``,
and every list of its values, the CLI's choices included, is derived from it.
"""

import ast
import pathlib
from typing import get_args

import qshallow
from qshallow.adversary import Mode, Via
from qshallow.cli import build_parser
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
