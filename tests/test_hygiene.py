"""Source hygiene of the coxlat package."""

from __future__ import annotations

import ast
import importlib
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


def _environment_reads(tree: ast.Module) -> list:
    """Lines that read the process environment: os.getenv, or os.environ
    anywhere but as the target of a subscript store."""
    stored = {id(node.value) for node in ast.walk(tree)
              if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and (node.attr == "getenv" or (node.attr == "environ" and id(node) not in stored))]


def test_src_reads_no_environment_variable():
    # an environment variable read is an option no test or caller sees: the
    # program may set one for a library it loads, but it branches on none
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line}" for line in _environment_reads(ast.parse(path.read_text()))]
    assert found == []


def test_no_module_imports_dataclasses():
    # the records are named tuples: dataclasses (and the inspect, ast and dis it
    # loads) costs every CLI process start-up time, at module level or in a body
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _imports_of(path.stem, ast.walk(ast.parse(path.read_text())), "dataclasses")
    assert found == []


def _teardown_reliance(stem: str, tree: ast.Module) -> list:
    """atexit imports, os._exit calls outside cli.main, and open() calls that
    are not the context expression of a with statement."""
    found = _imports_of(stem, ast.walk(tree), "atexit")
    exits = {id(n): n for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "_exit"
             and isinstance(n.value, ast.Name) and n.value.id == "os"}
    if stem == "cli":
        [main] = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "main"]
        for node in ast.walk(main):
            exits.pop(id(node), None)
    found += [f"{stem}:{n.lineno}: os._exit" for n in exits.values()]
    managed = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, ast.With) for item in node.items}
    found += [f"{stem}:{n.lineno}: open" for n in ast.walk(tree)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
              and n.func.id == "open" and id(n) not in managed]
    return found


def test_nothing_relies_on_interpreter_teardown():
    # a coxlat process ends with os._exit in cli.main, which runs no atexit
    # hook and flushes no open file: a with block closes every file first
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _teardown_reliance(path.stem, ast.parse(path.read_text()))
    assert found == []


def _public_names(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _used_names(tree: ast.Module) -> set:
    """Every identifier a module reads, imports or calls."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _sources():
    """The parsed src modules by stem, and the parsed demos."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    demos = [ast.parse(p.read_text()) for p in sorted((SRC.parent.parent / "demos").glob("*.py"))]
    return trees, demos


def test_no_public_name_serves_only_the_tests():
    # a public name that no src module and no demo uses is a test helper: it
    # joins a `verify` record or moves into tests/
    trees, demos = _sources()
    used = set().union(*map(_used_names, [*trees.values(), *demos]))
    test_only = {f"{stem}.{name}" for stem, tree in trees.items()
                 for name in _public_names(tree)
                 if name not in used and f"{stem}.{name}" not in used}
    assert test_only == set()


def _module_level_names(tree: ast.Module) -> list:
    """Names a module binds at its top level: defs, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def _read_names(tree: ast.Module) -> set:
    """Every identifier a module loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_no_private_name_is_dead():
    # a private helper that no src module reads has lost its last caller
    trees, _ = _sources()
    read = set().union(*map(_read_names, trees.values()))
    dead = [f"{stem}.{name}" for stem, tree in trees.items()
            for name in _module_level_names(tree)
            if name.startswith("_") and not name.startswith("__") and name not in read]
    assert dead == []


def test_no_public_method_serves_only_the_tests():
    # a public method or property of a public class that no src module and no
    # demo reads as an attribute is a test helper: it belongs in tests/
    trees, demos = _sources()
    read = {n.attr for tree in [*trees.values(), *demos]
            for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    test_only = [f"{stem}.{cls.name}.{fn.name}" for stem, tree in trees.items()
                 for cls in tree.body
                 if isinstance(cls, ast.ClassDef) and cls.name in _public_names(tree)
                 for fn in cls.body
                 if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                 and fn.name not in read]
    assert test_only == []


# Defaulted parameters that only the tests set, by "module.function".  argv
# is set by the tests and by the benchmark's in-process replay, which drive
# main directly.  This list may only shrink.
TEST_ONLY_OPTIONS = {"cli.main": "argv"}


def _literal(node):
    try:
        return True, ast.literal_eval(node)
    except ValueError:
        return False, None


def _defaulted_params(fn: ast.FunctionDef) -> dict:
    """name -> (position or None for keyword-only, default node)."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    params = {a.arg: (first + i, d)
              for i, (a, d) in enumerate(zip(positional[first:], fn.args.defaults))}
    params.update({a.arg: (None, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                   if d is not None})
    return params


def _sets(call: ast.Call, name: str, position, default) -> bool:
    """Whether call passes parameter name a value other than a literal equal to
    its default; a starred argument may pass anything."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return True
    values = [k.value for k in call.keywords if k.arg == name]
    if position is not None and position < len(call.args):
        values.append(call.args[position])
    default_is_literal, default_value = _literal(default)
    for value in values:
        is_literal, passed = _literal(value)
        if not (is_literal and default_is_literal and passed == default_value):
            return True
    return False


def test_no_option_serves_only_the_tests():
    # an option no caller sets is a branch only the tests take: make it a
    # module constant that a test monkeypatches, or drop it
    trees, demos = _sources()
    calls = [node for tree in [*trees.values(), *demos]
             for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def callee(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None

    unset = {}
    for stem, tree in trees.items():
        public = set(_public_names(tree))
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name in public):
                continue
            key = f"{stem}.{fn.name}"
            for name, (position, default) in _defaulted_params(fn).items():
                if not any(_sets(c, name, position, default)
                           for c in calls if callee(c) == fn.name):
                    unset.setdefault(key, []).append(name)
    assert {k: ", ".join(v) for k, v in unset.items()} == TEST_ONLY_OPTIONS


def _record_fields(cls: ast.ClassDef) -> list:
    """Fields of a NamedTuple class or of a class built on a namedtuple(...) base."""
    fields = []
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id == "NamedTuple":
            fields += [n.target.id for n in cls.body
                       if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
        elif (isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
              and base.func.id == "namedtuple"):
            spec = ast.literal_eval(base.args[1])
            fields += spec.replace(",", " ").split() if isinstance(spec, str) else list(spec)
    return fields


def test_no_record_field_is_dead():
    # a field that no src module and no demo reads as an attribute is data the
    # record carries for nobody: drop it, or the record
    trees, demos = _sources()
    read = {n.attr for tree in [*trees.values(), *demos]
            for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    fields = [(f"{stem}.{cls.name}", field) for stem, tree in trees.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for field in _record_fields(cls)]
    assert len(fields) >= 20  # the scan sees the records
    assert [f"{rec}.{field}" for rec, field in fields if field not in read] == []
