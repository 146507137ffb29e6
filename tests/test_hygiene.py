"""Source hygiene of the coxlat package."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coxlat"


def _imported(nodes) -> dict:
    imported = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def _names(tree) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _unused_imports(tree: ast.Module) -> list:
    # an import in a function body must be used in that function
    unused = [
        (line, name)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for name, line in _imported(fn.body).items()
        if name not in _names(fn)
    ]
    imported = _imported(ast.walk(tree))
    used = _names(tree)
    for node in tree.body:
        # names listed in __all__ are re-exports, hence used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    unused += [(line, name) for name, line in imported.items() if name not in used]
    return sorted(unused)


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {name}" for line, name in _unused_imports(tree)]
    assert found == []


def test_all_names_resolve():
    # perfbench/replay.py reads every __all__ entry of a layer with getattr
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "coxlat" if path.stem == "__init__" else f"coxlat.{path.stem}"
        mod = importlib.import_module(name)
        missing += [
            f"{path.name}: {n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)
        ]
    assert missing == []


def _imports_of(stem: str, nodes, top: str = "numpy") -> list:
    found = []
    for node in nodes:
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        found += [f"{stem}:{node.lineno}: {n}" for n in names if n.split(".")[0] == top]
    return found


def test_exact_layer_imports_no_numpy_at_module_level():
    # catalog and the exact verify checks run without loading numpy
    found = []
    for stem in ("intmat", "rootsys", "lattice", "gabrielov"):
        found += _imports_of(stem, ast.parse((SRC / f"{stem}.py").read_text()).body)
    assert found == []


def test_ising_imports_numpy_only_inside_functions():
    # verify ising-symmetry reads stdlib entries; only densifying or solving H loads numpy
    assert _imports_of("ising", ast.parse((SRC / "ising.py").read_text()).body) == []


def test_float_layer_imports_no_numpy_anywhere():
    # eigen and every verify check run without loading numpy: no import of it
    # at module level or in a function body of the float layer or the CLI
    found = []
    for stem in ("spectral", "qdeform", "cli"):
        found += _imports_of(stem, ast.walk(ast.parse((SRC / f"{stem}.py").read_text())))
    assert found == []


def test_only_ising_imports_numpy():
    # numpy is the ising extra: no other module imports it, at module level
    # or in a function body
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "ising":
            found += _imports_of(path.stem, ast.walk(ast.parse(path.read_text())))
    assert found == []


def test_no_module_imports_dataclasses():
    # the records are named tuples: dataclasses (and the inspect, ast and dis it
    # loads) costs every CLI process start-up time, at module level or in a body
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _imports_of(path.stem, ast.walk(ast.parse(path.read_text())), "dataclasses")
    assert found == []


# Public names that no src module and no demo uses: only the tests do.
# Each should join a `verify` record or move into tests/, so this list may
# only shrink; the scan fails on a name missing from it, and on one that has
# gained a caller and should leave it.
TEST_ONLY_PUBLIC_NAMES = {
    "lattice.gauge_transform",
    "lattice.orthogonality_check",
    "qdeform.q_eigenvector",
    "rootsys.join_exponent_arithmetic",
    "spectral.an_eigenvector",
    "spectral.cartan_coxeter_transfer",
    "spectral.coxeter_cartan_transfer",
    "spectral.transfer_eigenvalue",
}


def _public_names(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _used_names(tree: ast.Module) -> set:
    """Every identifier a module reads, imports or calls.  The CLI reads
    per-system functions as getattr(module, f"{system.lower()}_suffix"): such
    a call adds each public name of that module that is a lower-case system
    name (e8, d4, ...) followed by the suffix, as "module.name"."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[0], ast.Name)
              and (SRC / f"{node.args[0].id}.py").exists()
              and isinstance(node.args[1], ast.JoinedStr)
              and isinstance(node.args[1].values[-1], ast.Constant)):
            module, suffix = node.args[0].id, node.args[1].values[-1].value
            tree_of = ast.parse((SRC / f"{module}.py").read_text())
            used |= {f"{module}.{name}" for name in _public_names(tree_of)
                     if re.fullmatch(r"[a-z]\d+" + re.escape(suffix), name)}
    return used


def test_no_public_name_serves_only_the_tests():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    demos = sorted((SRC.parent.parent / "demos").glob("*.py"))
    used = set().union(*map(_used_names, trees.values()),
                       *(_used_names(ast.parse(p.read_text())) for p in demos))
    test_only = {f"{stem}.{name}" for stem, tree in trees.items()
                 for name in _public_names(tree)
                 if name not in used and f"{stem}.{name}" not in used}
    assert test_only == TEST_ONLY_PUBLIC_NAMES
