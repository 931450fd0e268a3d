"""Layering lints.

The tower's exp, log and Zech tables are private to `tower.py`.  Every
other module reaches tower arithmetic through the raw ops (`_add`, `_neg`,
`_mul`, `_inv`, `_pow`) and the fused cell map `_mobius`, so no module but
`tower.py` may read an attribute named `_exp`, `_log` or `_zech`.  Only
`InducedModule._compile` reads `_mobius` (as an attribute or a getattr
string): the action oracle, `bruhat` and `reassemble` stay on the raw ops
and matrix products, independent of it.  Tower elements cross every module
boundary as raw ints: `TowerElem` is the tests' operator front, so no
module but `tower.py` names it (in an import, an annotation or a call)
or reads a `.val`.

A group element's action on an induced module is compiled by
`InducedModule._compile` and applied by `InducedModule._apply`; every
other module takes a compiled action through the public `action` (or the
single-use `act`), so no module but `indmod.py` names either helper.

Every public function and method in `src/sl2ext` has a reader in `src/`
outside its own body: code that only tests call is deleted or becomes a
registry check.  A module function is read by its name or as an
attribute; a method only as an attribute (`x.name`), so a local variable
that shares a method's name does not count as a reader.

`CoeffField._sub_scaled` updates its first argument in place, so no
module but `linalg.py` reads it, to call it or to bind it for a call;
`coeff.py` only forwards it to the base class (`super()._sub_scaled`).

F_{p^n} arithmetic is written once, in `tower.GaloisField`, whose tables
are built with `polyutil`'s polynomial products: no module but `tower.py`
reads `mul_mod`, `rem_mod` or `pow_mod` as an attribute or imports them
(`polyutil.py` itself calls them by their bare names).

In `verify.py` only the runner builds a `Report`: check bodies return
`(verdict, payload[, reason])` and `run_lemma` turns that into the report,
with `run_all` adding one SKIP for a check it cannot schedule.

The unreduced cocycle solver is the BFS solver's independent oracle, so
`cohom.ext1_unreduced` and every `cohom` function it reaches by name read
none of the BFS tree's names (`tree`, `cross`, `gens`, `_gen_mats`), as an
attribute, a name or a getattr string.  Only its Hom-space guard,
`hom_space`, may read them: it checks dim B1, not the cocycles.

Both cocycle solvers eliminate in the reps' own field, so `cohom` imports
nothing from `coeff` but `CoeffField`.  A ring map from one field into
another (a reduction mod l, say) can only lower a rank: an oracle built on
one proves Ext1 = 0 only when the lowered rank still meets its bound, and
needs a second, exact route for every other system.

Every `sl2ext verify` is a fresh interpreter, so what `import sl2ext.cli`
loads is paid on every run.  The package's value classes are
`typing.NamedTuple`s: `dataclasses` would pull in `inspect` and generate
code for each class at import, and no module imports it.  `traceback` is
imported by the exit-3 handler alone, when a crash needs it."""

import ast
import collections
import os
import pathlib
import subprocess
import sys

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


def _annotations(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)] + [node.returns]
    return [node.annotation] if isinstance(node, ast.AnnAssign) else []


def _names(tree, name):
    """Sorted lines naming `name`: as a variable, an attribute, an imported
    alias or inside a string annotation."""
    lines = []
    for n in ast.walk(tree):
        for ann in _annotations(n):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                lines += [n.lineno] * len(_names(ast.parse(ann.value, mode="eval"), name))
        if (isinstance(n, ast.Name) and n.id == name
                or isinstance(n, ast.Attribute) and n.attr == name
                or isinstance(n, ast.ImportFrom) and any(a.name == name for a in n.names)):
            lines.append(n.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_tower_names_tower_elements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _names(tree, "TowerElem") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_tower_unwraps_tower_elements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "val"]
    assert reads == []


def test_the_lints_see_every_spelling():
    source = ("from .tower import Tower, TowerElem\n"
              "def f(x: TowerElem, y: 'list[TowerElem]') -> 'TowerElem':\n"
              "    z: 'TowerElem | None' = tower.TowerElem(1)\n")
    assert _names(ast.parse(source), "TowerElem") == [1, 2, 2, 2, 3, 3]


ACTION_HELPERS = {"_compile", "_apply"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "indmod.py"),
                         ids=lambda p: p.name)
def test_only_indmod_reaches_the_compiled_action_helpers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [(n.lineno, n.attr) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in ACTION_HELPERS] == []


@pytest.mark.parametrize("name", ["verify.py", "towerext.py", "cohom.py"])
def test_loops_take_the_public_compiled_action(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    assert _calls(tree, "action")


def _sub_scaled_reads(tree):
    """Lines reading `_sub_scaled` (to call it, or to bind it for a call),
    except a forward to `super()`."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "_sub_scaled"
                  and not (isinstance(n.value, ast.Call) and getattr(n.value.func, "id", None) == "super"))


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py"),
                         ids=lambda p: p.name)
def test_only_linalg_calls_the_in_place_kernel(path):
    assert _sub_scaled_reads(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_kernel_lint_sees_every_call():
    source = ("def f(field, a, b):\n    field._sub_scaled(a, 1, b)\n"
              "    sub = field._sub_scaled\n    return super()._sub_scaled(a, 1, b)\n")
    assert _sub_scaled_reads(ast.parse(source)) == [2, 3]
    assert _sub_scaled_reads(ast.parse((SRC / "linalg.py").read_text()))


POLY_ARITHMETIC = {"mul_mod", "rem_mod", "pow_mod"}


def _poly_arithmetic_reads(tree):
    """Lines reading a polynomial product mod p as an attribute or
    importing one."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in POLY_ARITHMETIC
                  or isinstance(n, ast.ImportFrom) and any(a.name in POLY_ARITHMETIC for a in n.names))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_tower_multiplies_polynomials_mod_p(path):
    assert _poly_arithmetic_reads(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_polynomial_lint_sees_every_spelling():
    source = ("from .polyutil import mul_mod, trim\nfrom . import polyutil\n"
              "def f(a, b, m, p):\n    r = polyutil.rem_mod(mul_mod(a, b, p), m, p)\n"
              "    g = polyutil.pow_mod\n    return polyutil.trim(r)\n")
    assert _poly_arithmetic_reads(ast.parse(source)) == [1, 4, 5]
    assert _poly_arithmetic_reads(ast.parse((SRC / "tower.py").read_text()))


FUSED_CELL_MAP = "_mobius"
CELL_MAP_READER = ("indmod.py", "InducedModule._compile")


def _cell_map_reads(node, scope=""):
    """(enclosing qualified name, line) of every read of the fused cell map,
    as an attribute or a getattr string; the scope is "" at module level."""
    reads = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if (isinstance(child, ast.Attribute) and child.attr == FUSED_CELL_MAP
                or isinstance(child, ast.Constant) and child.value == FUSED_CELL_MAP):
            reads.append((scope, child.lineno))
        reads += _cell_map_reads(child, inner)
    return sorted(reads, key=lambda r: r[1])


def _foreign_cell_map_reads(name, tree):
    return [r for r in _cell_map_reads(tree) if (name, r[0]) != CELL_MAP_READER]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_compile_reads_the_fused_cell_map(path):
    assert _foreign_cell_map_reads(path.name, ast.parse(path.read_text(), filename=str(path))) == []


def test_the_cell_map_lint_sees_every_read():
    source = ("cell = tower._mobius\n"
              "class InducedModule:\n    def _compile(self, g):\n        return self.tower._mobius(0, 1)\n"
              "    def oracle_act_label(self, g, label):\n        f = getattr(self.tower, '_mobius')\n"
              "        def inner():\n            return self.tower._mobius\n"
              "def bruhat(g):\n    return g.tower._mobius(0, 1, 0)\n")
    assert _foreign_cell_map_reads("indmod.py", ast.parse(source)) == [
        ("", 1), ("InducedModule.oracle_act_label", 6),
        ("InducedModule.oracle_act_label.inner", 8), ("bruhat", 10)]
    assert _foreign_cell_map_reads("grp.py", ast.parse(source))[1] == ("InducedModule._compile", 4)
    assert _cell_map_reads(ast.parse((SRC / "indmod.py").read_text()))


def test_only_the_runner_builds_reports():
    tree = ast.parse((SRC / "verify.py").read_text(), filename="verify.py")
    runners = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in ("run_lemma", "run_all")]
    assert len(runners) == 2
    inside = sum(len(_calls(node, "Report")) for node in runners)
    assert inside > 0 and len(_calls(tree, "Report")) == inside


def _referenced(node, attributes_only=False) -> collections.Counter:
    """How often each name is read under node, as an Attribute and, unless
    attributes_only, as a Name."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return collections.Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                               if isinstance(n, kinds))


def _public_defs(tree):
    """(qualified name, def, is a method) of every public module function
    and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{d.name}", d, True) for d in node.body
                        if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"))


def _unreferenced(src):
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(src.glob("*.py"))}
    refs = {kind: sum((_referenced(tree, kind) for tree in trees.values()), collections.Counter())
            for kind in (False, True)}
    return [f"{name}:{qual}" for name, tree in trees.items()
            for qual, node, method in _public_defs(tree)
            if refs[method][node.name] == _referenced(node, method)[node.name]]


def test_every_public_function_has_a_reader_in_src():
    assert _unreferenced(SRC) == []


def test_the_reader_lint_sees_an_unread_function(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return used()\n\n"
                                   "class K:\n    def m(self):\n        return self.m\n"
                                   "    def n(self):\n        return 0\n"
                                   "    def v(self):\n        return 1\n")
    # a local variable named like the unread method K.v is no reader of it;
    # a module function read by its bare name is
    (tmp_path / "b.py").write_text("from .a import K\nK().n()\n\n"
                                   "def f():\n    return 2\n\n"
                                   "def g():\n    v = f()\n    return v\n")
    assert _unreferenced(tmp_path) == ["a.py:used", "a.py:K.m", "a.py:K.v", "b.py:g"]


BFS_TREE = {"tree", "cross", "gens", "_gen_mats"}
ORACLE = ("ext1_unreduced", "_unreduced_rows", "_rank", "_coboundary_rank")
HOM_GUARD = {"hom_space"}


def _tree_reads(tree, roots, allowed=HOM_GUARD):
    """(function, line, name) of every read of a BFS-tree name in the roots
    and in the module functions they reach by name, except `allowed`."""
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    todo, seen, reads = list(roots), set(), []
    while todo:
        name = todo.pop()
        if name in seen or name in allowed:
            continue
        seen.add(name)
        for n in ast.walk(defs[name]):
            word = (n.attr if isinstance(n, ast.Attribute) else n.id if isinstance(n, ast.Name)
                    else n.value if isinstance(n, ast.Constant) else None)
            if word in BFS_TREE:
                reads.append((name, n.lineno, word))
            if isinstance(n, ast.Name) and n.id in defs:
                todo.append(n.id)
    return sorted(reads, key=lambda r: r[1])


def test_the_unreduced_oracle_reads_no_bfs_tree():
    tree = ast.parse((SRC / "cohom.py").read_text(), filename="cohom.py")
    assert _tree_reads(tree, ORACLE) == []
    assert _tree_reads(tree, ["ext1_bfs"])  # the BFS solver does read it


def test_the_oracle_lint_sees_a_planted_read():
    source = ("def hom_space(M, N):\n    return M._gen_mats\n"
              "def _walk(group):\n    return group.tree\n"
              "def _unreduced_rows(group, field, a, b):\n    return _walk(group)\n"
              "def _rank(rows, field, most):\n    return getattr(field, 'cross')\n"
              "def _coboundary_rank(M, N):\n    gens = M.group\n    return gens\n"
              "def ext1_unreduced(M, N):\n    return hom_space(M, N), _rank(0, 0, 0)\n")
    assert _tree_reads(ast.parse(source), ORACLE) == [
        ("_walk", 4, "tree"), ("_rank", 8, "cross"), ("_coboundary_rank", 10, "gens"),
        ("_coboundary_rank", 11, "gens")]
    assert _tree_reads(ast.parse(source), ["ext1_unreduced"], allowed=()) == [
        ("hom_space", 2, "_gen_mats"), ("_rank", 8, "cross")]


def _foreign_coeff_imports(tree):
    """(line, name) of every import from `coeff` but `CoeffField`: a name
    taken from the module, or the module itself."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[-1] == "coeff":
            found += [(n.lineno, a.name) for a in n.names if a.name != "CoeffField"]
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            found += [(n.lineno, a.name) for a in n.names if a.name.split(".")[-1] == "coeff"]
    return found


def test_the_cocycle_solvers_import_one_field_type():
    tree = ast.parse((SRC / "cohom.py").read_text(), filename="cohom.py")
    assert _foreign_coeff_imports(tree) == []


def test_the_field_import_lint_sees_every_spelling():
    source = ("from .coeff import CoeffField, residue_map\nfrom . import coeff, grp\n"
              "import sl2ext.coeff\nfrom sl2ext.coeff import PrimeField as F\n"
              "from .linalg import nullspace\nfrom .coeff import CoeffField\n")
    assert _foreign_coeff_imports(ast.parse(source)) == [
        (1, "residue_map"), (2, "coeff"), (3, "sl2ext.coeff"), (4, "PrimeField")]


STARTUP_FREE = ("dataclasses", "inspect", "traceback", "pickle", "multiprocessing", "concurrent", "select",
                "signal")


def test_the_cli_starts_without_dataclasses_inspect_or_traceback():
    code = ("import sys, sl2ext.cli\n"
            f"print(sorted(m for m in {STARTUP_FREE!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def _imported_modules(tree):
    return {a.name.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names} | {
        (n.module or "").split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and not n.level}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in _imported_modules(ast.parse(path.read_text(), filename=str(path)))


def test_the_import_lint_sees_every_spelling():
    source = ("import dataclasses\nfrom dataclasses import dataclass\nimport os.path as p\n"
              "from .grp import bruhat\n")
    assert _imported_modules(ast.parse(source)) == {"dataclasses", "os"}
