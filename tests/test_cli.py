import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wallcross
from wallcross import arrangement, gitwalls, invariants
from wallcross.cli import MAX_ERROR_LINE, _build_parser, main, main_entry
from wallcross.errors import ConsistencyError
from wallcross.exactq import MoebiusMap
from wallcross.invariants import FanoNumerics
from wallcross.wallsets import load_registry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_walls_text(capsys):
    code, out, err = run(capsys, "walls", "--family", "dp3", "--space", "t")
    assert code == 0
    assert out == "1/5 1/3 3/7 5/9 9/13\n"
    assert err == ""
    code, out, _ = run(capsys, "walls", "--family", "dp3")
    assert code == 0
    assert out == "2/11 4/13 2/5 10/19 2/3\n"  # c is the default space
    code, out, _ = run(capsys, "walls", "--family", "dp4", "--space", "t")
    assert out == "1/6 2/7 3/8 6/11 2/3\n"
    code, out, _ = run(capsys, "walls", "--family", "p1")
    assert code == 0 and out == "\n"


def test_walls_json(capsys):
    code, out, _ = run(capsys, "walls", "--family", "dp4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "family": "dp4",
        "space": "c",
        "walls": ["1/7", "1/4", "1/3", "1/2", "5/8"],
    }


def test_walls_errors(capsys):
    code, _, err = run(capsys, "walls", "--family", "dp2")
    assert code == 2 and "error:" in err  # registered family, no wall table
    code, _, err = run(capsys, "walls", "--family", "nope")
    assert code == 2 and "nope" in err
    code, _, err = run(capsys, "walls")
    assert code == 1 and "usage error:" in err
    code, _, err = run(capsys, "walls", "--family", "dp3", "--space", "q")
    assert code == 1


def test_help_and_unknown_verb(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "walls" in out and "Command-line front end." in out
    code, out, _ = run(capsys, "walls", "--help")
    assert code == 0 and "--family" in out
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_main_entry_exits_with_the_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["wallcross", "walls", "--family", "dp3"])
    with pytest.raises(SystemExit) as exc:
        main_entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "2/11 4/13 2/5 10/19 2/3\n"
    monkeypatch.setattr(sys, "argv", ["wallcross", "frobnicate"])
    with pytest.raises(SystemExit) as exc:
        main_entry()
    assert exc.value.code == 1


def test_product_text_report(capsys):
    code, out, _ = run(capsys, "product", "--families", "dp3,dp4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "families: dp3, dp4"
    assert "factor 0 (dp3): 6 chambers, 5 walls" in lines
    assert "factor 1 (dp4): 6 chambers, 5 walls" in lines
    assert "codim-0 cells: 36" in lines
    assert "codim-1 cells: 60" in lines
    assert "codim-2 cells: 25" in lines
    assert "total cells: 121" in lines
    assert "crossing graph: 36 nodes, 60 edges, connected" in lines


def test_product_single_point_factor(capsys):
    code, out, _ = run(capsys, "product", "--families", "p1")
    assert code == 0
    assert "factor 0 (p1): 1 chamber, 0 walls" in out
    assert "codim-0 cells: 1" in out
    assert "crossing graph: 1 node, 0 edges, connected" in out


def test_product_fold_report(capsys):
    code, out, _ = run(capsys, "product", "--families", "dp3,dp3", "--fold")
    assert code == 0
    assert "folding by family id: dp3 -> positions 0,1" in out
    assert "codim-0 orbits: 21 (enumeration) = 21 (burnside)" in out
    assert "codim-1 orbits: 30 (enumeration) = 30 (burnside)" in out
    assert "codim-2 orbits: 15 (enumeration) = 15 (burnside)" in out


def test_consistency_error_is_exit_3(capsys, monkeypatch):
    def broken(self, codim):
        raise ConsistencyError("Burnside sum 7 not divisible by 2")

    monkeypatch.setattr(arrangement.SymmetricFolding, "burnside_orbit_count", broken)
    code, _, err = run(capsys, "product", "--families", "dp3,dp3", "--fold")
    assert code == 3
    assert err == "error: Burnside sum 7 not divisible by 2\n"


def test_orbit_disagreement_leaves_stdout_empty(capsys, monkeypatch):
    def off_by_one(self, codim):
        return self.orbit_count(codim) + 1

    monkeypatch.setattr(arrangement.SymmetricFolding, "burnside_orbit_count", off_by_one)
    code, out, err = run(capsys, "product", "--families", "dp3,dp3", "--fold")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "orbit counts disagree" in err


@pytest.mark.parametrize("argv", [["dp3,dp4"], ["dp3,dp3,dp4", "--fold"]])
def test_product_text_report_is_render_text(capsys, argv):
    code, out, _ = run(capsys, "product", "--families", *argv)
    assert code == 0
    registry = load_registry()
    arr = arrangement.build_product([registry[fid] for fid in argv[0].split(",")])
    folding = None
    if "--fold" in argv:
        folding = arrangement.SymmetricFolding(arr, arrangement.grouping_by_id(arr))
    assert arrangement.render(folding or arr, "text") == out


def test_product_refuses_more_than_max_factors(capsys):
    bound = arrangement.MAX_FACTORS
    argv = ["product", "--families", ",".join(["dp3"] * (bound + 1))]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {bound + 1} factors, above the bound {bound}\n"


def test_product_formats_are_the_render_formats():
    # the parser is built without importing arrangement, so the two lists
    # are kept equal here
    sub = next(a for a in _build_parser()._actions if a.dest == "verb")
    (fmt,) = [a for a in sub.choices["product"]._actions if a.dest == "format"]
    assert set(fmt.choices) == set(arrangement.RENDER_FORMATS)


def test_product_json(capsys):
    code, out, _ = run(capsys, "product", "--families", "dp3,dp4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cell_counts"] == {"0": 36, "1": 60, "2": 25}
    code, out2, _ = run(
        capsys, "product", "--families", "dp3,dp3", "--fold", "--format", "json"
    )
    assert json.loads(out2)["folding"]["orbit_counts"]["0"] == 21


def test_product_svg_matches_library_render(capsys):
    code, out, _ = run(capsys, "product", "--families", "dp3,dp4", "--format", "svg")
    assert code == 0
    registry = load_registry()
    arr = arrangement.build_product([registry["dp3"], registry["dp4"]])
    assert out == arrangement.render(arr, "svg")
    code, again, _ = run(capsys, "product", "--families", "dp3,dp4", "--format", "svg")
    assert again == out  # byte-determinism across invocations


@pytest.mark.parametrize(
    "fmt, golden", [("svg", "dp3_dp3_fold_c.svg"), ("json", "dp3_dp3_fold_c.json")]
)
def test_product_fold_matches_golden(capsys, data_dir, fmt, golden):
    code, out, _ = run(
        capsys, "product", "--families", "dp3,dp3", "--fold", "--format", fmt
    )
    assert code == 0
    assert out == (data_dir / golden).read_text()  # orbit order and labels


def test_product_fold_bound_error_leaves_stdout_empty(capsys):
    # the JSON document lists every cell, and dp3^15 has 6^15 top cells
    argv = ["product", "--families", ",".join(["dp3"] * 15), "--fold", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: 470184984576 codim-0 cells, above the bound 2000000\n"


def test_product_fold_text_counts_past_the_bound(capsys):
    # dp3^15 has C(25, 15) = 3,268,760 orbit representatives in all; the text
    # report counts them by the closed form, and codim 7 alone has 424,710
    code, out, err = run(capsys, "product", "--families", ",".join(["dp3"] * 15), "--fold")
    assert (code, err) == (0, "")
    assert "codim-7 orbits: 424710 (enumeration) = 424710 (burnside)" in out.splitlines()


def test_counting_paths_list_no_orbit(capsys, monkeypatch, registry):
    def listing(self, codim):
        raise AssertionError("a count listed the orbit representatives")

    monkeypatch.setattr(arrangement.SymmetricFolding, "orbits", listing)
    arr = arrangement.build_product([registry["dp3"]] * 4)
    folding = arrangement.SymmetricFolding(arr, arrangement.grouping_by_id(arr))
    text = arrangement.render(folding, "text")
    assert "codim-0 orbits: 126 (enumeration) = 126 (burnside)" in text.splitlines()
    code, out, _ = run(capsys, "check")
    assert code == 0 and out.splitlines()[-1] == "all checks passed"


def test_product_fold_p1_9_report(capsys):
    # S_9 has 362,880 elements; Burnside never lists them
    code, out, err = run(capsys, "product", "--families", ",".join(["p1"] * 9), "--fold")
    assert code == 0 and err == ""
    assert out == "\n".join([
        "families: " + ", ".join(["p1"] * 9),
        *(f"factor {i} (p1): 1 chamber, 0 walls" for i in range(9)),
        "codim-0 cells: 1",
        *(f"codim-{j} cells: 0" for j in range(1, 10)),
        "total cells: 1",
        "crossing graph: 1 node, 0 edges, connected",
        "folding by family id: p1 -> positions 0,1,2,3,4,5,6,7,8",
        "codim-0 orbits: 1 (enumeration) = 1 (burnside)",
        *(f"codim-{j} orbits: 0 (enumeration) = 0 (burnside)" for j in range(1, 10)),
    ]) + "\n"


def test_product_ascii(capsys):
    code, out, _ = run(capsys, "product", "--families", "dp3", "--format", "ascii")
    assert code == 0 and out.splitlines()[0].count("|") == 5
    code, _, err = run(
        capsys, "product", "--families", "dp3,dp3,dp3", "--format", "svg"
    )
    assert code == 2 and "at most 2 factors" in err


def test_product_t_space(capsys):
    code, out, _ = run(
        capsys, "walls", "--family", "dp3", "--space", "t", "--format", "json"
    )
    walls = json.loads(out)["walls"]
    code, out, _ = run(
        capsys, "product", "--families", "dp3", "--space", "t", "--format", "json"
    )
    assert json.loads(out)["factors"][0]["walls"] == walls


# (families, point, text stdout, JSON stdout), byte for byte: a point inside
# chambers, on two walls, on one wall, with one factor and with three.
CHAMBER_CASES = [
    (
        "dp3,dp4",
        "1/2,1/5",
        "point: 1/2, 1/5\ncell: (chamber 3, chamber 1)\ncodim: 0\n",
        '{\n  "cell": {\n    "codim": 0,\n    "coords": [\n      {\n        "index": 3,\n'
        '        "kind": "chamber"\n      },\n      {\n        "index": 1,\n'
        '        "kind": "chamber"\n      }\n    ]\n  },\n  "families": [\n    "dp3",\n'
        '    "dp4"\n  ],\n  "point": [\n    "1/2",\n    "1/5"\n  ],\n  "space": "c"\n}\n',
    ),
    (
        "dp3,dp4",
        "2/5,1/4",
        "point: 2/5, 1/4\ncell: (wall 2, wall 1)\ncodim: 2\n",
        '{\n  "cell": {\n    "codim": 2,\n    "coords": [\n      {\n        "index": 2,\n'
        '        "kind": "wall"\n      },\n      {\n        "index": 1,\n'
        '        "kind": "wall"\n      }\n    ]\n  },\n  "families": [\n    "dp3",\n'
        '    "dp4"\n  ],\n  "point": [\n    "2/5",\n    "1/4"\n  ],\n  "space": "c"\n}\n',
    ),
    (
        "dp3,dp4",
        "2/5,9/10",
        "point: 2/5, 9/10\ncell: (wall 2, chamber 5)\ncodim: 1\n",
        '{\n  "cell": {\n    "codim": 1,\n    "coords": [\n      {\n        "index": 2,\n'
        '        "kind": "wall"\n      },\n      {\n        "index": 5,\n'
        '        "kind": "chamber"\n      }\n    ]\n  },\n  "families": [\n    "dp3",\n'
        '    "dp4"\n  ],\n  "point": [\n    "2/5",\n    "9/10"\n  ],\n  "space": "c"\n}\n',
    ),
    (
        "dp3",
        "1/3",
        "point: 1/3\ncell: (chamber 2)\ncodim: 0\n",
        '{\n  "cell": {\n    "codim": 0,\n    "coords": [\n      {\n        "index": 2,\n'
        '        "kind": "chamber"\n      }\n    ]\n  },\n  "families": [\n    "dp3"\n'
        '  ],\n  "point": [\n    "1/3"\n  ],\n  "space": "c"\n}\n',
    ),
    (
        "dp3,dp4,p1",
        "2/5,9/10,1/2",
        "point: 2/5, 9/10, 1/2\ncell: (wall 2, chamber 5, chamber 0)\ncodim: 1\n",
        '{\n  "cell": {\n    "codim": 1,\n    "coords": [\n      {\n        "index": 2,\n'
        '        "kind": "wall"\n      },\n      {\n        "index": 5,\n'
        '        "kind": "chamber"\n      },\n      {\n        "index": 0,\n'
        '        "kind": "chamber"\n      }\n    ]\n  },\n  "families": [\n    "dp3",\n'
        '    "dp4",\n    "p1"\n  ],\n  "point": [\n    "2/5",\n    "9/10",\n    "1/2"\n'
        '  ],\n  "space": "c"\n}\n',
    ),
]


def test_chamber_text(capsys):
    for families, point, text, _ in CHAMBER_CASES:
        assert run(capsys, "chamber", "--families", families, "--point", point) == (0, text, "")


def test_chamber_json(capsys):
    for families, point, _, text in CHAMBER_CASES:
        got = run(capsys, "chamber", "--families", families, "--point", point, "--format", "json")
        assert got == (0, text, "")


def test_chamber_errors(capsys):
    code, _, err = run(capsys, "chamber", "--families", "dp3,dp4", "--point", "1/2")
    assert code == 2  # wrong point length
    code, _, err = run(capsys, "chamber", "--families", "dp3,dp4", "--point", "0,1/2")
    assert code == 2  # outside the open interval
    code, _, err = run(capsys, "chamber", "--families", "dp3", "--point", "zzz")
    assert code == 1  # unparsable rational is a usage error
    code, out, _ = run(capsys, "chamber", "--families", "dp3", "--point", "\u0661/\u0662")
    assert (code, out) == (1, "")  # Arabic-Indic 1/2: only ASCII digits make a rational
    code, out, _ = run(capsys, "chamber", "--families", "dp3", "--point", "\u30001/2")
    assert (code, out) == (1, "")  # an ideographic space is no ASCII blank
    code, out, _ = run(capsys, "chamber", "--families", "dp3,dp4", "--point", " 1/2,\t1/3 ")
    assert code == 0 and out.startswith("point: 1/2, 1/3\n")  # ASCII blanks still pass


def test_stack_text(capsys):
    code, out, _ = run(capsys, "stack", "--factors", "dp3,dp4,dp4,p1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "factors: dp3, dp4, dp4, p1"
    assert lines[1] == "descriptor: dp3 x [dp4^2/S2]"
    assert len(lines) == 2  # no product-map line for arity 4

    code, out, _ = run(capsys, "stack", "--factors", "dp3,dp4")
    assert "descriptor: dp3 x dp4" in out
    assert "product map: isomorphism" in out

    code, out, _ = run(capsys, "stack", "--factors", "dp3,dp3")
    assert "descriptor: [dp3^2/S2]" in out
    assert "product map: s2-gerbe" in out

    code, out, _ = run(capsys, "stack", "--factors", "p1,p1")
    assert "descriptor: pt" in out
    assert "product map: s2-gerbe" in out


def test_stack_iso(capsys):
    code, out, _ = run(
        capsys, "stack", "--factors", "dp3,dp4", "--iso", "dp3=dp4"
    )
    assert code == 0
    assert "descriptor: [dp3^2/S2]" in out
    assert "product map: s2-gerbe" in out
    code, out, _ = run(
        capsys,
        "stack",
        "--factors",
        "dp3,dp4",
        "--iso",
        "dp3=dp4",
        "--format",
        "json",
    )
    doc = json.loads(out)
    assert doc["iso"] == [["dp3", "dp4"]]
    assert doc["descriptor"] == {
        "kind": "sym",
        "base": {"kind": "atom", "id": "dp3"},
        "power": 2,
    }
    assert doc["product_map"] == "s2-gerbe"
    code, _, err = run(capsys, "stack", "--factors", "dp3", "--iso", "dp3")
    assert code == 1  # malformed iso pair is a usage error


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chamber", "--families", "dp3", "--point", "1/0"],
         "argument --point: zero denominator in rational literal '1/0'"),
        (["product", "--families", ","], "argument --families: no family ids in ','"),
        (["stack", "--factors", "dp3", "--iso", "dp3"],
         "argument --iso: iso pair 'dp3' needs two distinct ids"),
    ],
)
def test_usage_errors_say_what_was_wrong(capsys, argv, message):
    """argparse reports the option decoder's own message, not its name."""
    assert run(capsys, *argv) == (1, "", f"usage error: {message}\n")


def test_stack_json_without_map(capsys):
    code, out, _ = run(
        capsys, "stack", "--factors", "dp3,dp3,dp3", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["product_map"] is None
    assert doc["descriptor"]["kind"] == "sym" and doc["descriptor"]["power"] == 3


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["--factors", "nosuch,dp3"], "nosuch"),
        (["--factors", "dp3,dp4", "--format", "json", "--iso", "nosuch=other"], "nosuch, other"),
        (["--factors", "zz,dp3", "--iso", "dp3=dp4,dp4=aa"], "aa, zz"),
    ],
)
def test_stack_rejects_unknown_ids(capsys, argv, missing):
    # the same check, message and exit code as product and chamber
    assert run(capsys, "stack", *argv) == (2, "", f"error: unknown family id(s): {missing}\n")
    code, _, err = run(capsys, "product", "--families", "nosuch,dp3")
    assert (code, err) == (2, "error: unknown family id(s): nosuch\n")


def test_stack_accepts_overlay_ids(capsys, tmp_path):
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps({"toy": dict(POINT_DP4["dp4"], moduli_note="toy")}))
    argv = ["stack", "--factors", "toy,dp3", "--iso", "toy=dp4", "--registry", str(path)]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "descriptor: dp3 x toy" in out.splitlines()
    assert run(capsys, *argv[:-2])[0] == 2  # without the overlay toy is unknown


def test_git_walls_text(capsys):
    code, out, _ = run(capsys, "git-walls", "--degree", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1/5 1/3 3/7 5/9 9/13"
    assert lines[1] == "registry t-walls (dp3): 1/5 1/3 3/7 5/9 9/13"
    assert lines[2] == "match: yes"


def test_git_walls_json(capsys):
    code, out, _ = run(capsys, "git-walls", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["walls"] == ["1/5", "1/3", "3/7", "5/9", "9/13"]
    assert doc["registry_match"] is True
    assert set(doc["witnesses"]) == set(doc["walls"])
    code, again, _ = run(capsys, "git-walls", "--format", "json")
    assert again == out


def test_git_walls_registry_only_degrees(capsys):
    code, _, err = run(capsys, "git-walls", "--degree", "4")
    assert code == 2
    assert "degree 4 is registry-only" in err


ONE_WALL_PATH = Path(__file__).parent / "data" / "overlay_dp3_one_wall.json"
ONE_WALL_DP3 = json.loads(ONE_WALL_PATH.read_text())


def test_git_walls_mismatch_is_exit_3(capsys):
    code, out, _ = run(capsys, "git-walls", "--registry", str(ONE_WALL_PATH))
    assert code == 3
    assert "match: NO" in out
    code, out, _ = run(capsys, "git-walls", "--registry", str(ONE_WALL_PATH), "--format", "json")
    assert code == 3
    assert json.loads(out)["registry_match"] is False


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_git_walls_sweeps_once(capsys, monkeypatch, fmt):
    sweeps = []
    original = gitwalls._Search.walls

    def counting(self):
        sweeps.append((self.n, sum(self.mons[0])))  # the first monomial is (d, 0, ..., 0)
        return original(self)

    monkeypatch.setattr(gitwalls._Search, "walls", counting)
    code, _, _ = run(capsys, "git-walls", "--format", fmt)
    assert code == 0
    assert sweeps == [(3, 3)]


def test_check_runs_green(capsys):
    code, out, _ = run(capsys, "check")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all checks passed"
    assert sum(1 for line in lines if line.startswith("ok ")) == 5
    assert not any(line.startswith("FAIL") for line in lines)


def _subprocess_env():
    src = str(Path(wallcross.__file__).resolve().parents[1])
    path_entries = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))


def test_git_walls_refuses_other_degrees_without_importing_gitwalls():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from wallcross.cli import main; code = main(sys.argv[1:]); "
         "print('wallcross.gitwalls' in sys.modules); sys.exit(code)",
         "git-walls", "--degree", "4"],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: degree 4 is registry-only; only degree 3 is recomputed\n"
    assert proc.stdout == "False\n"


def test_check_fails_under_optimize():
    # python -O strips assert statements; the checks must not depend on them
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import sys; from wallcross.cli import main; sys.exit(main(sys.argv[1:]))",
         "check", "--registry", str(ONE_WALL_PATH)],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120,
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "FAIL _check_arrangement: dp3 x dp4 cell counts [12, 16, 5]" in lines
    assert lines[-1] == "CHECKS FAILED"


# dp4 re-registered as a point, with its compiled-in numerics and walls
POINT_DP4 = {
    "dp4": {
        "dimension": 2,
        "volume": "4",
        "moduli_note": "point",
        "hilbert": ["1", "2", "2"],
        "c_walls": ["1/7", "1/4", "1/3", "1/2", "5/8"],
        "t_walls": ["1/6", "2/7", "3/8", "6/11", "2/3"],
        "reparam": [6, 0, 1, 5],
    }
}


def test_stack_and_check_read_overlay_point_ids(capsys, tmp_path):
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps(POINT_DP4))
    code, out, _ = run(capsys, "stack", "--factors", "dp3,dp4", "--registry", str(path))
    assert code == 0
    assert "descriptor: dp3" in out.splitlines()
    code, out, _ = run(capsys, "check", "--registry", str(path))
    assert code == 3
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL _check_stack: descriptor dp3"
    ]
    assert sum(1 for line in lines if line.startswith("ok ")) == 4
    assert lines[-1] == "CHECKS FAILED"


def _doubled_volume(a, b, product_numerics=invariants.product_numerics):
    prod = product_numerics(a, b)
    return FanoNumerics(prod.dimension, 2 * prod.volume, prod.hilbert)


# t = c/2 keeps the walls inside (0, 1) but moves the endpoint 1
HALVING_TOY = {"toy": {"dimension": 1, "volume": 2, "moduli_note": "toy", "hilbert": ["1", "2"],
                       "c_walls": ["1/3", "1/2"], "reparam": [1, 0, 0, 2]}}


@pytest.mark.parametrize(
    "overlay, patch, failed",
    [
        (HALVING_TOY, None, "FAIL _check_moebius: toy endpoints"),
        (None, (MoebiusMap, "inverse", lambda self: MoebiusMap(1, 0, 0, 1)),
         "FAIL _check_moebius: dp3 inverse"),
        (None, (invariants, "product_numerics", _doubled_volume),
         "FAIL _check_products: dp1 x dp1"),
        (None, (arrangement.SymmetricFolding, "burnside_orbit_count",
                lambda self, codim, count=arrangement.SymmetricFolding.burnside_orbit_count:
                count(self, codim) + 1),
         "FAIL _check_arrangement: codim-0 orbit counts disagree: "
         "21 (enumeration), 22 (burnside)"),
    ],
    ids=["endpoints", "inverse", "products", "orbits"],
)
def test_check_reports_each_failure(capsys, monkeypatch, tmp_path, overlay, patch, failed):
    argv = ["check"]
    if overlay is not None:
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps(overlay))
        argv += ["--registry", str(path)]
    if patch is not None:
        monkeypatch.setattr(*patch)
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 3
    assert [line for line in lines if line.startswith("FAIL")] == [failed]
    assert sum(1 for line in lines if line.startswith("ok ")) == 4
    assert lines[-1] == "CHECKS FAILED"


def test_registry_overlay_round_trip(capsys, tmp_path):
    overlay = {
        "toy": {
            "dimension": 1,
            "volume": 2,
            "moduli_note": "toy line",
            "hilbert": ["1", "2"],
            "c_walls": ["1/3", "1/2"],
            "reparam": [1, 0, 0, 1],
        }
    }
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps(overlay))
    code, out, _ = run(capsys, "walls", "--family", "toy", "--registry", str(path))
    assert code == 0 and out == "1/3 1/2\n"
    code, out, _ = run(
        capsys, "product", "--families", "toy,p1", "--registry", str(path)
    )
    assert code == 0 and "codim-0 cells: 3" in out


def test_readme_examples_run(capsys, data_dir, monkeypatch, tool):
    """Each of the README's CLI examples, as the manifest reads them, exits 0
    with empty stderr, and a line with an inline comment prints exactly that
    comment.  The lines run from tests/data, so the overlay line reads the
    manifest's my_families.json."""
    examples = tool("outputs").readme_examples()
    assert len(examples) == 15
    monkeypatch.chdir(data_dir)
    for line, comment in examples:
        code, out, err = run(capsys, *shlex.split(line))
        assert (code, err) == (0, ""), line
        assert out and (not comment or out == comment + "\n"), line


def test_broken_overlay_is_computation_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"dp3": {"dimension": 2}}))
    code, _, err = run(capsys, "walls", "--family", "dp3", "--registry", str(path))
    assert code == 2 and "error:" in err
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "walls", "--family", "dp3", "--registry", str(missing))
    assert code == 2
    float_reparam = dict(ONE_WALL_DP3["dp3"], reparam=[1.7, 0, 0, 1])
    path.write_text(json.dumps({"dp3": float_reparam}))
    code, out, err = run(
        capsys, "walls", "--family", "dp3", "--space", "t", "--registry", str(path)
    )
    assert code == 2 and out == ""
    assert "reparam entry 1.7 is not an integer" in err
    path.write_text(json.dumps({"dp3": dict(ONE_WALL_DP3["dp3"], dimension=3000)}))
    code, out, err = run(capsys, "walls", "--family", "dp3", "--registry", str(path))
    assert code == 2 and out == ""
    assert "dimension 3000 above the bound 100" in err


@pytest.mark.parametrize("where, key", [("field", "volume"), ("nested", "a")])
def test_repeated_key_in_record_names_the_record(capsys, data_dir, where, key):
    path = data_dir / f"overlay_repeated_{where}.json"
    code, out, err = run(capsys, "walls", "--family", "dp3", "--registry", str(path))
    assert (code, out, err) == (2, "", f"error: registry record 'toy': repeats key {key!r}\n")


@pytest.mark.parametrize("fold", [False, True])
def test_product_text_enumerates_each_codim_at_most_twice(capsys, monkeypatch, fold):
    calls = []
    original = arrangement.ProductArrangement.cells

    def counting(self, codim):
        calls.append(codim)
        return original(self, codim)

    monkeypatch.setattr(arrangement.ProductArrangement, "cells", counting)
    argv = ["product", "--families", "dp3,dp3,dp3"] + ["--fold"] * fold
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "codim-3 cells: 125" in out.splitlines()
    assert all(calls.count(j) <= 2 for j in range(4))
    # the cell, graph and orbit counts all come from closed forms: no cell is built
    assert calls == []


def test_product_text_past_cell_bound_uses_closed_form(capsys):
    nine = ",".join(["dp3"] * 9)
    code, out, err = run(capsys, "product", "--families", nine)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert f"codim-0 cells: {6**9}" in lines and f"codim-9 cells: {5**9}" in lines
    assert f"total cells: {11**9}" in lines
    assert lines[-1] == f"crossing graph: {6**9} nodes, {9 * 5 * 6**8} edges, connected"


def test_cli_module_runs_as_script():
    proc = subprocess.run(
        [sys.executable, "-m", "wallcross.cli", "check", "--registry", str(ONE_WALL_PATH)],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120,
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "FAIL _check_arrangement: dp3 x dp4 cell counts [12, 16, 5]" in lines
    assert lines[-1] == "CHECKS FAILED"


def test_package_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "wallcross", "check", "--registry", str(ONE_WALL_PATH)],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120,
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "CHECKS FAILED"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("reparam", [9, 0, 1], "reparam [9, 0, 1] needs 4 entries"),
        ("reparam", 7, "reparam 7 is not a list"),
        ("reparam", [], "reparam [] needs 4 entries"),
        ("c_walls", 5, "c_walls 5 is not a list"),
        ("hilbert", 3, "hilbert 3 is not a list"),
        # JSON true loads as a bool, and null as None: neither is a scalar here
        ("hilbert", ["1", True, "3/2"], "not a rational literal: True"),
        ("moduli_note", None, "moduli_note None is not a string"),
        ("c_wals", ["1/3"], "registry record 'dp3': unknown field(s): c_wals\n"),
        (None, None, "registry overlay repeats key 'dp3'\n"),  # the record twice
    ],
)
def test_malformed_overlay_shape_is_computation_error(capsys, tmp_path, field, value, message):
    path = tmp_path / "bad.json"
    if field is None:  # json.dumps never repeats a key, so the file is written by hand
        record = json.dumps(ONE_WALL_DP3["dp3"])
        path.write_text(f'{{"dp3": {record}, "dp3": {record}}}')
    else:
        path.write_text(json.dumps({"dp3": dict(ONE_WALL_DP3["dp3"], **{field: value})}))
    code, out, err = run(capsys, "walls", "--family", "dp3", "--registry", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("hilbert", [list(range(200_000))]),  # one entry whose repr is 1.4 MB
        ("c_walls", [f"1/{q}" for q in range(2, 50_002)]),  # every wall, out of order
        ("reparam", list(range(100_000))),
    ],
)
def test_long_refusal_keeps_its_head(capsys, tmp_path, data_dir, field, value):
    toy = json.loads((data_dir / "my_families.json").read_text())["toy"]
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"toy": dict(toy, **{field: value})}))
    code, out, err = run(capsys, "walls", "--family", "toy", "--registry", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: registry record 'toy': ") and err.endswith(" [...]\n")
    assert len(err.encode()) == MAX_ERROR_LINE + 1  # the newline


@pytest.mark.parametrize("extra", [0, 1])
def test_error_line_is_cut_only_past_the_cap(capsys, extra):
    head = "error: unknown family id(s): "
    fid = "x" * (MAX_ERROR_LINE - len(head) + extra)
    code, out, err = run(capsys, "walls", "--family", fid)
    assert (code, out) == (2, "")
    whole = head + fid + "\n"
    assert err == (whole if extra == 0 else whole[: MAX_ERROR_LINE - 6] + " [...]\n")


def test_overlay_bool_volume_is_computation_error(capsys, tmp_path):
    # a line-like record, where volume true would load as the consistent 1
    record = {"dimension": 1, "volume": True, "moduli_note": "line", "hilbert": ["1", "1"],
              "c_walls": ["1/2"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": record}))
    code, out, err = run(capsys, "walls", "--family", "q", "--registry", str(path))
    assert (code, out, err) == (2, "", "error: registry record 'q': not a rational literal: True\n")


def test_product_ascii_two_factor_grid(capsys, data_dir):
    code, out, err = run(capsys, "product", "--families", "dp3,dp4", "--format", "ascii")
    assert (code, err) == (0, "")
    assert out == (data_dir / "product_dp3_dp4.ascii").read_text()


# Imports a cold request adds to a bare interpreter, printed after the request.
IMPORT_PROBE = (
    "import io, sys\n"
    "bare = set(sys.modules)\n"
    "from wallcross.cli import main\n"
    "out, sys.stdout = sys.stdout, io.StringIO()\n"
    "main(sys.argv[1:])\n"
    "print(' '.join(sorted(set(sys.modules) - bare)), file=out)\n"
)


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (["walls", "--family", "dp3"], "wallsets", "arrangement gitwalls stackalg"),
        (["walls"], "wallsets", "arrangement gitwalls stackalg"),  # usage error
        (["stack", "--factors", "dp3,dp4"], "stackalg", "arrangement gitwalls"),
        (["product", "--families", "dp3,dp4"], "arrangement", "gitwalls stackalg"),
        (["chamber", "--families", "dp3,dp4", "--point", "1/2,1/5"], "arrangement",
         "gitwalls stackalg"),
        (["check"], "arrangement stackalg", "gitwalls"),
    ],
)
def test_verbs_import_only_their_modules(argv, loaded, absent):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120,
    )
    added = set(proc.stdout.split())
    assert {f"wallcross.{m}" for m in loaded.split()} <= added, proc.stderr
    assert not added & {f"wallcross.{m}" for m in absent.split()}
    assert not added & {"dataclasses", "inspect"}


# -- the error contract, over random argv and overlay records -----------------

IDS = ["dp3", "dp4", "p1", "dp2", "toy", "nope"]
# wrong types, a zero denominator, a float, bools and a 401-digit integer
JUNK = [None, True, False, 1.5, 10**400, -1, 7, "1/0", "0.5", "x", "", [], ["1/2", 3], {"a": 1}]
BAD_TEXT = ["1/2,1/5", "1/0", "0.5", "", "a=b", "-1", str(10**400)]
VERB_FLAGS = {  # verb -> {flag: well-formed values}; None is a comma-separated id list
    "walls": {"--family": IDS, "--space": ["c", "t"], "--format": ["text", "json"]},
    "product": {"--families": None, "--format": ["text", "json", "svg", "ascii"],
                "--space": ["c", "t"]},
    "chamber": {"--families": None, "--point": ["1/2,1/5", "1/3", "2/11,1/2,1/2"],
                "--format": ["text", "json"]},
    "stack": {"--factors": None, "--iso": ["dp3=dp4", "toy=dp3", "nope=dp4,p1=toy"],
              "--format": ["text", "json"]},
    "git-walls": {"--degree": ["3", "4"], "--format": ["text", "json"]},
    "check": {},
    "nope": {},
}


def random_request(rng: random.Random):
    """argv for one of the six verbs or an unknown one, and an overlay (or
    None): each flag mostly present and well formed, each record dp3-like
    with keys dropped or replaced by junk, now and then an unknown key or a
    non-object."""
    verb = rng.choice(sorted(VERB_FLAGS))
    argv = [verb, *["--fold"] * (verb == "product" and rng.random() < 0.5)]
    for flag, values in VERB_FLAGS[verb].items():
        ids = rng.choices(IDS[:3] if rng.random() < 0.7 else IDS, k=rng.randint(1, 3))
        value = rng.choice(values or [",".join(ids)])
        if rng.random() < 0.8:
            argv += [flag, rng.choice(BAD_TEXT) if rng.random() < 0.1 else value]
    if rng.random() < 0.3:
        return argv, None
    overlay = {}
    for fid in rng.sample(IDS, rng.randint(1, 2)):
        record = dict(ONE_WALL_DP3["dp3"], t_walls=["9/17"])  # the image of 1/2
        keys = sorted(record)
        for key in rng.sample(keys, rng.choice([0, 0, 1, 2])):
            del record[key]
        for key in rng.sample(keys, rng.choice([0, 1, 1, 2])):
            record[key] = rng.choice(JUNK)
        if rng.random() < 0.1:  # a misspelt field
            record["c_wals"] = rng.choice(JUNK)
        overlay[fid] = record
    return argv, rng.choice(JUNK) if rng.random() < 0.1 else overlay


@pytest.fixture(scope="module")
def overlay_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "overlay.json"


@settings(max_examples=100)
@given(st.randoms(use_true_random=True))  # seeded from the drawn data, so derandomized too
def test_error_contract(overlay_path, rng):
    argv, overlay = random_request(rng)
    if overlay is not None:
        overlay_path.write_text(json.dumps(overlay))
        argv = [*argv, "--registry", str(overlay_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert out == "" and err
    if err:
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(("error: ", "usage error: "))
        assert out == "" and code
