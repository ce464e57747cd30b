import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wallcross").glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "gitwalls.py"}


def test_no_assert_in_library():
    """`python -O` strips assert statements, so no runtime check may be one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_dataclasses_in_library():
    """dataclasses pulls in inspect on every cold start; value types derive
    from exactq.Value instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


def package_imports(name: str, top_level: bool = False) -> set[str]:
    """The package modules that src/wallcross/<name> imports: relative
    imports by module, absolute ones by full name.  With top_level, only the
    imports that run when the module is loaded count, not those in a
    function body."""
    (path,) = [p for p in SOURCES if p.name == name]
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in tree.body if top_level else ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("wallcross"):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("wallcross")}
    return found


def test_no_function_caches_in_the_algebra_modules():
    """The groupoid model's slots hold its memos; stackalg, invariants and
    exactq keep no second cache behind functools."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name in ("stackalg.py", "invariants.py", "exactq.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and {"lru_cache", "cache"} & {getattr(node, a, None) for a in ("id", "attr", "name")}
    ]
    assert found == []


def calls_of(name: str):
    """(module, enclosing top-level definition, call node) of each call of
    name, bare or as an attribute, in the package."""
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    yield path.name, getattr(top, "name", None), node


def test_every_raise_names_a_documented_family():
    """Library code raises ValueError for malformed input and a WallcrossError
    subclass for what a valid input cannot do (the errors module docstring),
    or TypeError and AttributeError where Python's own protocols expect them.
    Only cli's argparse plumbing and main_entry's exit raise anything else.
    A bare raise re-raises what its handler caught."""
    from wallcross import errors

    families = {"ValueError", "TypeError", "AttributeError"} | {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.WallcrossError)
    }
    plumbing = {("cli.py", "_UsageError"), ("cli.py", "argparse.ArgumentTypeError")}
    found = [
        f"{path.name}:{node.lineno}: {name}"
        for path in SOURCES
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Raise) and node.exc is not None
        and (name := ast.unparse(getattr(node.exc, "func", node.exc))) not in families
        and (path.name, name) not in plumbing
        and (path.name, getattr(top, "name", None), name) != ("cli.py", "main_entry", "SystemExit")
    ]
    assert found == []


def test_errors_has_one_class_per_kind():
    """The base and the five kinds of "valid input, cannot be done"; none is a
    ValueError, so malformed input and the kinds stay two disjoint families."""
    from wallcross import errors

    classes = {name: obj for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert sorted(classes) == ["BoundExceededError", "ConsistencyError", "MissingDataError",
                               "PoleError", "UnsupportedError", "WallcrossError"]
    assert all(issubclass(cls, errors.WallcrossError) and not issubclass(cls, ValueError)
               for cls in classes.values())


def test_registry_is_loaded_only_by_cli_main():
    """main loads the registry once per request and hands it to the verb."""
    assert [(module, top) for module, top, _ in calls_of("load_registry")] == [("cli.py", "main")]


def test_fractions_are_built_from_integer_parts_outside_exactq():
    """Outside exactq, a Fraction is built from a numerator and a
    denominator, or from one int literal; any other value becomes a
    Fraction through exactq.parse_rational, the one place that decides what
    a rational is."""
    def integer_parts(args) -> bool:
        return len(args) == 2 or (
            len(args) == 1 and isinstance(args[0], ast.Constant) and type(args[0].value) is int
        )

    found = [
        f"{module}:{node.lineno}"
        for module, _, node in calls_of("Fraction")
        if module != "exactq.py" and (node.keywords or not integer_parts(node.args))
    ]
    assert found == []


def test_family_records_are_built_only_by_the_decoder():
    """The built-in families and an overlay's records take one path:
    wallsets._record_from_json is the only caller of FamilyRecord."""
    callers = {(module, top) for module, top, _ in calls_of("FamilyRecord")}
    assert callers == {("wallsets.py", "_record_from_json")}


def test_only_cli_main_writes_stdout():
    """A verb returns its output and cli.main writes it once, so an error
    raised anywhere leaves stdout empty."""
    found = {
        (path.name, getattr(top, "name", None))
        for path in SOURCES
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "stdout"
        and getattr(node.value, "id", None) == "sys"
    }
    assert found == {("cli.py", "main")}


def test_every_print_goes_to_stderr():
    def to_stderr(node) -> bool:
        return any(
            kw.arg == "file" and isinstance(kw.value, ast.Attribute) and kw.value.attr == "stderr"
            and getattr(kw.value.value, "id", None) == "sys"
            for kw in node.keywords
        )

    found = [f"{module}:{node.lineno}" for module, _, node in calls_of("print")
             if not to_stderr(node)]
    assert found == []


def test_stackalg_imports_only_errors_and_exactq():
    """Descriptors take the point ids from the caller, so stackalg loads no
    registry and imports no other module of the package."""
    assert package_imports("stackalg.py") == {"errors", "exactq"}


def test_gitwalls_imports_only_errors_exactq_wallsets():
    """Every git-walls request compiles what gitwalls imports from source
    (the benchmark runs with PYTHONDONTWRITEBYTECODE=1), so that cold cost
    stays at these three modules."""
    assert package_imports("gitwalls.py") == {"errors", "exactq", "wallsets"}


def test_importing_a_module_loads_only_what_it_imports():
    """A fresh `import wallcross.<module>` loads exactly the package modules
    that the module's top-level imports reach, directly or not: the package
    root re-exports nothing, and a function-local import, such as cli's lazy
    arrangement, waits for its call."""
    loaded = {}
    for module in [p.stem for p in SOURCES if p.stem not in ("__init__", "__main__")]:
        todo, closure = [module], set()
        while todo:
            if (name := todo.pop()) not in closure:
                closure.add(name)
                todo += [m.removeprefix("wallcross.")
                         for m in package_imports(f"{name}.py", top_level=True)]
        probe = (f"import sys, wallcross.{module}; "
                 "print(*sorted(m for m in sys.modules if m.startswith('wallcross.')))")
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(SOURCES[0].parents[1])), timeout=120,
        )
        if proc.stdout.split() != sorted(f"wallcross.{m}" for m in closure):
            loaded[module] = proc.stdout.split()
    assert loaded == {}


def test_every_bound_is_named_by_a_test():
    """Each module-level MAX_* bound of the package is named by a test, so
    that no refusal goes untested."""
    tests = Path(__file__).resolve().parent
    text = "\n".join(p.read_text() for p in tests.glob("test_*.py") if p.name != "test_source.py")
    bounds = [
        target.id
        for path in SOURCES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    ]
    assert {"MAX_CELLS", "MAX_FLATS", "MAX_MONOMIALS"} <= set(bounds)
    assert [name for name in bounds if not re.search(rf"\b{name}\b", text)] == []


def test_traced_targets_resolve():
    """Every span target of the benchmark tracer names a function or method
    that the package defines itself, so a rename fails here before it breaks
    the traced benchmark run."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    (targets,) = [
        node.value
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    entries = [(elt.elts[0].value, elt.elts[1].value) for elt in targets.elts]
    assert len(entries) >= 20
    missing = []
    for modname, path in entries:
        *owners, attr = path.split(".")
        owner = importlib.import_module(modname)
        for name in owners:
            owner = getattr(owner, name, None)
        # the tracer replaces the attribute in the owner's own namespace
        if not callable(getattr(owner, "__dict__", {}).get(attr)):
            missing.append(f"{modname}:{path}")
    assert missing == []


def test_every_public_name_is_reached():
    """Each public module-level function, class and constant, and each public
    method and property of a public class, is used by code in the package, or
    named by the README or by a benchmark file that calls the package
    (perfbench/oracles.py imports nothing from wallcross, so a name it defines
    for itself reaches nothing): an API that only its own tests call does not
    belong in the library.  Uses are AST names and attributes outside
    the name's own definition; docstrings do not count.  Dunders and the
    methods of _-prefixed classes are skipped.
    The check works on names, not on owners: a name used anywhere, say
    to_json, counts as reached for every class that defines it."""
    root = Path(__file__).resolve().parents[1]
    named = "\n".join(
        (root / path).read_text()
        for path in ["README.md", "perfbench/worker.py", "perfbench/tracing.py", "perfbench/run.py"]
    )
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    # (name, scope) of every definition to check, where a scope is (module,
    # top-level statement) or (module, class statement, class-body statement)
    defined = []
    uses: dict[str, set] = {}  # name -> the scopes using it
    for module, tree in trees.items():
        for index, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, (module, index)))
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                defined += [(name, (module, index)) for name in names]
            scopes = dict.fromkeys(ast.walk(node), (module, index))
            for member, item in enumerate(node.body if isinstance(node, ast.ClassDef) else ()):
                scopes.update(dict.fromkeys(ast.walk(item), (module, index, member)))
                if isinstance(item, ast.FunctionDef) and not node.name.startswith("_"):
                    defined.append((item.name, (module, index, member)))
            for sub, scope in scopes.items():
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    name = sub.id if isinstance(sub, ast.Name) else sub.attr
                    uses.setdefault(name, set()).add(scope)
    unreached = []
    for name, scope in defined:
        if name.startswith("_") or re.search(rf"\b{name}\b", named):
            continue
        if not {use for use in uses.get(name, ()) if use[: len(scope)] != scope}:
            unreached.append(f"{scope[0]}:{name}")
    assert unreached == []


def models_reached(*roots):
    """The parsed tests/_models.py and the top-level functions that the roots
    call there, directly or not, roots included, by name."""
    tree = ast.parse((Path(__file__).resolve().parent / "_models.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, reached = list(roots), {}
    while todo:
        if (name := todo.pop()) not in reached:
            reached[name] = fn = defs[name]
            todo += [n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id in defs]
    return tree, reached


def test_gitwalls_oracles_share_no_code_with_gitwalls():
    """The oracles that the wall sweep, its antichain and the probe walk
    must match, and every `_models` function they call, read no `gitwalls`
    name, so that a fault in the module cannot hide in its own oracle."""
    tree, reached = models_reached(
        "fingerprint", "stability_mask", "maximal_family", "kernel_probes", "unpruned_probes")
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "wallcross.gitwalls"
        for alias in node.names
    }
    found = sorted(
        f"{name}:{node.lineno}"
        for name, fn in reached.items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id in {"gitwalls", *imported}
    )
    assert found == []


def test_orbit_oracles_share_no_code_with_the_walk():
    """The cell and orbit oracles, and every `_models` function they call,
    read no enumeration name of `arrangement`: they filter their own full
    product, so a fault in the lex walk cannot hide in them."""
    _, reached = models_reached("cells_oracle", "orbits_oracle", "group_images")
    listing = {"cells", "all_cells", "orbits", "_lex_walk"}
    found = sorted(
        f"{name}:{node.lineno}"
        for name, fn in reached.items()
        for node in ast.walk(fn)
        if getattr(node, "id", None) in listing or getattr(node, "attr", None) in listing
    )
    assert found == []


def test_arrangement_lists_by_one_walk():
    """Cells and orbit representatives come from one lex-order walk:
    `arrangement` imports no itertools, and `cells` and `orbits` each call
    `_lex_walk` and sort nothing."""
    (path,) = [p for p in SOURCES if p.name == "arrangement.py"]
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "itertools" not in modules
    methods = {
        (cls.name, fn.name): fn
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
    }
    for key in (("ProductArrangement", "cells"), ("SymmetricFolding", "orbits")):
        called = {
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(methods[key])
            if isinstance(node, ast.Call)
        }
        assert "_lex_walk" in called and not called & {"sort", "sorted"}, key


def test_mutants_names_a_missing_default_test_file(tool, monkeypatch, capsys):
    """errors has no tests/test_errors.py: the tool says so and asks for
    --tests, before it copies src/ or runs pytest."""
    mutants = tool("mutants")
    monkeypatch.setattr(mutants, "run_tests", lambda *args: "failed")
    assert mutants.main(["errors"]) == 2
    err = capsys.readouterr().err
    assert err == "no test file tests/test_errors.py; name the module's tests with --tests\n"


@pytest.mark.parametrize("lines, message", [
    ("a", "--lines takes comma-separated line numbers, got 'a'"),
    ("1,2", "no mutation site on line 1, 2 of gitwalls.py"),
])
def test_mutants_refuses_lines_that_select_nothing(tool, monkeypatch, capsys, lines, message):
    """A --lines value that is not a line number, or names a line with no
    mutation site, stops the tool before it copies src/ or runs pytest."""
    mutants = tool("mutants")
    monkeypatch.setattr(mutants, "run_tests", lambda *args: pytest.fail("ran the tests"))
    assert mutants.main(["gitwalls", "--lines", lines]) == 2
    assert capsys.readouterr().err == message + "\n"
