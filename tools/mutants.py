"""Hand-run mutation check of one wallcross module against its tests.

    python tools/mutants.py gitwalls
    python tools/mutants.py gitwalls --lines 105,107,109
    python tools/mutants.py stackalg --tests tests/test_stackalg.py tests/test_acceptance.py

Each mutant changes one site of src/wallcross/<module>.py: it swaps < and
<=, > and >=, == and !=, + and -, or * and //, or it adds 1 to an integer
constant 0, 1 or 2.  The module is written back by ast.unparse into a fresh
copy of src/, and `pytest -x` runs the module's test files (by default
tests/test_<module>.py, which must exist) against that copy, JOBS mutants at
a time.  A baseline round-trips the module unmutated first and must pass.
--lines takes source line numbers, each of which must hold a mutation site;
anything else stops the run with status 2 before any test runs.

A mutant is killed when its run fails or takes over TIMEOUT seconds.  A
survivor listed in EQUIVALENT is reported with the reason it cannot change
behaviour; any other survivor is a gap in the tests, and the exit status is
1.  An EQUIVALENT entry of the module that matches no mutant, because its
line was edited, stops the run with status 2 before any test runs.
Standard library only; pytest does not collect this file.  Background:
DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE Computer
11(4), 1978; Jia and Harman, "An analysis and survey of the development of
mutation testing", IEEE TSE 37(5), 2011.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
JOBS = 2
TIMEOUT = 300

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
}

# (module, enclosing function, stripped source line, "before -> after"): why
# the mutant behaves the same.  A suffix " #k" marks the k-th mutant of that
# text on that line.
_PAIRS = "for vp, p, mp in side if vp > 0 for vq, q, mq in side if vq < 0"
_LEAD = "return tuple(-v for v in vec) if lead < 0 else vec"
_RJ = "sign, q = (-1, rj) if rj > 0 else (1, -rj)"
_MASK = "sum(1 << i for i in range(n) if p[i] == p[i + 1]))"
_GCD = "g = -gcd(a, b, c, d) if (a or b) < 0 else gcd(a, b, c, d)"
_SIGN = "return f\"{xterm} {'+' if q > 0 else '-'} {abs(q)}\" if q else xterm"
_SLOTS = "part_of, later = [0] * k, [0] * k  # each slot's part, and its part's slots after it"
_PARTITION = "the parts partition the slots, so the loop below overwrites every entry"
_FRAGS = "for p in range(2 * max(arr.wall_counts, default=0) + 1)].__getitem__"
_LONGER = ("the fragment list only grows, and a cell reads positions up to "
           "2 max(wall_counts) alone")
EQUIVALENT = {
    ("gitwalls", "_primitive", "return tuple(v // g for v in vec) if g > 1 else vec",
     "g > 1 -> g >= 1"):
        "dividing by 1 changes nothing, and g == 0 (the zero vector) still returns vec",
    ("gitwalls", "_sign_canonical", _LEAD, "lead < 0 -> lead <= 0"):
        "lead is nonzero there",
    ("gitwalls", "_sign_canonical", _LEAD, "lead < 0 -> lead < 1"):
        "lead is a nonzero integer there",
    ("gitwalls", "_cut", _PAIRS, "vp > 0 -> vp >= 0"):
        "side holds only the nonzero values",
    ("gitwalls", "_cut", _PAIRS, "vq < 0 -> vq <= 0"):
        "side holds only the nonzero values",
    ("gitwalls", "_cut", _PAIRS, "vq < 0 -> vq < 1"):
        "side holds only the nonzero integer values",
    ("gitwalls", "candidate_weights", _MASK, "1 << i -> 2 << i"):
        "every tie mask moves up one bit, so which masks hold which is unchanged",
    ("gitwalls", "_Search.__init__", _RJ, "rj > 0 -> rj >= 0"):
        "r_j = 0 gives q = 0 either way, and 0 < sign * w < 0 holds for no w",
    ("gitwalls", "_Search.__init__", _RJ, "rj > 0 -> rj > 1"):
        "r_j = 1 puts the threshold -w in (0, 1) for no integer w, either way",
    ("exactq", "_canonical", _GCD, "(a or b) < 0 -> (a or b) <= 0"):
        "a = b = 0 makes the determinant 0, which every caller rules out, so a or b is nonzero",
    ("exactq", "_canonical", _GCD, "(a or b) < 0 -> (a or b) < 1"):
        "a = b = 0 makes the determinant 0, which every caller rules out, so a or b is a "
        "nonzero integer",
    ("exactq", "_linear_str", _SIGN, "q > 0 -> q >= 0"):
        "q == 0 takes the other branch and returns xterm",
    ("arrangement", "_lex_walk", _SLOTS, "[0] * k -> [1] * k"): _PARTITION,
    ("arrangement", "_lex_walk", _SLOTS, "[0] * k -> [1] * k #2"): _PARTITION,
    ("arrangement", "_lex_walk.walk", "nxt = lasts[:n] + (p if later[i] else 0,) + lasts[n + 1 :]",
     "p if later[i] else 0 -> p if later[i] else 1"):
        "later[i] == 0 closes the part, whose last value no later slot reads; the constant "
        "stands for every closed part in the memo keys, 0 and 1 alike",
    ("arrangement", "SymmetricFolding.orbits",
     "multi, orbits = [part for part in self.grouping if len(part) > 1], []",
     "len(part) > 1 -> len(part) >= 1"):
        "a one-slot part multiplies size by 1 // 1",
    ("arrangement", "_render_json.coords_writer", _FRAGS,
     "2 * max(arr.wall_counts, default=0) -> 3 * max(arr.wall_counts, default=0)"): _LONGER,
    ("arrangement", "_render_json.coords_writer", _FRAGS, "default=0 -> default=1"): _LONGER,
    ("arrangement", "_render_json.coords_writer", _FRAGS,
     "2 * max(arr.wall_counts, default=0) + 1 -> 2 * max(arr.wall_counts, default=0) + 2"):
        _LONGER,
}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """The mutable sites in source order: (node, index of the compare
    operator or None for a binary operator or a constant)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append((node, None))
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1, 2):
            found.append((node, None))
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset, site[1] or 0))


def _scopes(tree: ast.AST) -> dict[ast.AST, str]:
    """Each node's enclosing definition, as Class.method or function ("" at
    module level); each node also gets a `parent` attribute."""
    out: dict[ast.AST, str] = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            child.parent = node
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            out[child] = inner
            visit(child, inner)

    visit(tree, "")
    return out


def mutate(source: str, k: int) -> tuple[str, dict]:
    """The module with site k mutated, and the mutant's description."""
    tree = ast.parse(source)
    scope = _scopes(tree)
    node, i = sites(tree)[k]
    shown = node  # a constant is shown with the expression around it
    while isinstance(shown, (ast.Constant, ast.UnaryOp, ast.Slice, ast.List, ast.Tuple)):
        shown = shown.parent
    before = ast.unparse(shown)
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.BinOp):
        node.op = SWAPS[type(node.op)]()
    else:
        node.value += 1
    info = {"line": node.lineno, "scope": scope[node],
            "text": source.splitlines()[node.lineno - 1].strip(),
            "change": f"{before} -> {ast.unparse(shown)}"}
    return ast.unparse(tree), info


def run_tests(module: str, text: str, tests: list[str]) -> str:
    """'passed', 'failed' or 'timeout' for the tests against src/ with
    src/wallcross/<module>.py replaced by `text`."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "wallcross" / f"{module}.py").write_text(text)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module name under src/wallcross, e.g. gitwalls")
    parser.add_argument("--lines", help="comma-separated source lines to mutate (default all)")
    parser.add_argument("--tests", nargs="+", help="test files (default tests/test_<module>.py)")
    args = parser.parse_args(argv)

    source = (ROOT / "src" / "wallcross" / f"{args.module}.py").read_text()
    tests = args.tests or [f"tests/test_{args.module}.py"]
    missing = [t for t in tests if not (ROOT / t.split("::")[0]).exists()]
    if missing:
        print(f"no test file {', '.join(missing)}; name the module's tests with --tests",
              file=sys.stderr)
        return 2
    try:
        lines = {int(v) for v in args.lines.split(",")} if args.lines else None
    except ValueError:
        print(f"--lines takes comma-separated line numbers, got {args.lines!r}", file=sys.stderr)
        return 2
    found = sites(ast.parse(source))
    if lines and (empty := sorted(lines - {node.lineno for node, _ in found})):
        print(f"no mutation site on line {', '.join(map(str, empty))} of {args.module}.py",
              file=sys.stderr)
        return 2
    mutants = [mutate(source, k) for k in range(len(found))]
    seen: dict[tuple[str, str, str], int] = {}
    for _, info in mutants:
        nth = seen[key] = seen.get(key := (info["scope"], info["text"], info["change"]), 0) + 1
        info["change"] += f" #{nth}" if nth > 1 else ""
    keys = {(args.module, info["scope"], info["text"], info["change"]) for _, info in mutants}
    stale = [key for key in EQUIVALENT if key[0] == args.module and key not in keys]
    for key in stale:
        print(f"EQUIVALENT entry matches no mutant: {key}", file=sys.stderr)
    if stale:
        return 2
    mutants = [(text, info) for text, info in mutants if lines is None or info["line"] in lines]
    if run_tests(args.module, ast.unparse(ast.parse(source)), tests) != "passed":
        print("baseline: the round-tripped, unmutated module fails its tests", file=sys.stderr)
        return 2

    def one(mutant):
        text, info = mutant
        return info, run_tests(args.module, text, tests)

    unexplained = 0
    counts = {"failed": 0, "timeout": 0, "passed": 0}
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for info, outcome in pool.map(one, mutants):
            counts[outcome] += 1
            if outcome != "passed":
                continue
            reason = EQUIVALENT.get((args.module, info["scope"], info["text"], info["change"]))
            unexplained += reason is None
            label = f"equivalent ({reason})" if reason else "SURVIVED"
            print(f"{info['line']:4d} {info['scope']}: {info['change']}  {label}")
    print(f"{args.module}: {len(mutants)} mutants, {counts['failed']} killed, "
          f"{counts['timeout']} timed out, {counts['passed']} survived, "
          f"{unexplained} unexplained")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
