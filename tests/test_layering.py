"""Layering lints.

The tower's exp, log and Zech tables are private to `tower.py`.  Every
other module reaches tower arithmetic through the raw ops (`_add`, `_neg`,
`_mul`, `_inv`) or `TowerElem`, so no module but `tower.py` may read an
attribute named `_exp`, `_log` or `_zech`.  Only `tower.py` constructs a
`TowerElem`; other modules get one from `Tower.element`, the
enumerations or the operators.

In `verify.py` only the runner builds a `Report`: check bodies return
`(verdict, payload[, reason])` and `run_lemma` turns that into the report,
with `run_all` adding one SKIP for a check it cannot schedule."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sl2ext"
PRIVATE = {"_exp", "_log", "_zech"}
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "tower.py")


def _private_reads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE]


def test_every_module_is_checked():
    assert (SRC / "tower.py").exists()
    assert {p.name for p in MODULES} >= {"coeff.py", "grp.py", "indmod.py", "cohom.py", "towerext.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_tower_tables_stay_private(path):
    assert _private_reads(path) == []


def _calls(node, name):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == name]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_tower_builds_tower_elements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [n.lineno for n in _calls(tree, "TowerElem")] == []


def test_only_the_runner_builds_reports():
    tree = ast.parse((SRC / "verify.py").read_text(), filename="verify.py")
    runners = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in ("run_lemma", "run_all")]
    assert len(runners) == 2
    inside = sum(len(_calls(node, "Report")) for node in runners)
    assert inside > 0 and len(_calls(tree, "Report")) == inside
