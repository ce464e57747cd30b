import ast
import importlib
from pathlib import Path

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
