"""The byte-identity manifest: what each listed command prints and exits with.

    python tools/outputs.py > tests/data/outputs.json

The commands are the README's CLI examples, read from its "## CLI examples"
block by readme_examples(), followed by COMMANDS below.  Each runs through
wallcross.cli.main in this process, from tests/data (where its overlay
files live), with stdout and stderr captured.
The manifest maps each command line to its exit code and the length and
sha256 of its stdout, with the sha256 of its stderr; a usage error (exit 1)
keeps no stderr digest, since argparse words its own messages and they
differ between Python versions.  tests/test_outputs.py compares every entry
with the committed file; a change that alters an entry says which, and why.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

COMMANDS = """
walls --family dp4 --space t --format json
walls --family p1
walls --family p1 --format json
product --families dp3,dp4 --format json
product --families dp3,dp4 --space t
product --families dp3,dp4 --space t --format json
product --families dp3,dp4 --space t --format svg
product --families dp3,dp4 --space t --format ascii
product --families dp3,dp3 --fold
product --families dp3,dp3 --fold --format svg
product --families dp3,dp3 --fold --format ascii
product --families dp3,dp3 --fold --space t --format json
product --families dp3,dp3 --fold --space t --format svg
product --families dp3,dp4 --fold
product --families dp4,dp3,dp4 --fold
product --families dp3,dp3,dp3 --fold
product --families dp3,dp3,dp3,dp3 --fold --format json
product --families dp3,dp4,p1 --format json
product --families dp3 --format ascii
product --families dp3 --format svg
product --families p1,p1 --fold
product --families toy,p1 --registry my_families.json
chamber --families dp3,dp4 --point 1/2,1/5 --format json
chamber --families dp3,dp4 --point 2/5,1/4
chamber --families dp3,dp4 --point 1/5,1/3 --space t
chamber --families dp3,dp4 --point 1/5,1/3 --space t --format json
chamber --families dp3,dp4,p1 --point 1/2,1/5,1/2
stack --factors dp3,dp4 --format json
stack --factors dp3,dp3,dp4,p1
stack --factors dp3,dp3,dp4 --iso dp3=dp4 --format json
stack --factors dp3,dp4,dp2 --iso dp3=dp4,dp4=dp2
stack --factors p1
stack --factors toy,dp3 --iso toy=dp4 --registry my_families.json
git-walls
check --registry my_families.json

git-walls --registry overlay_dp3_one_wall.json
git-walls --format json --registry overlay_dp3_one_wall.json
check --registry overlay_dp3_one_wall.json

walls --family nope
product --families dp3,nope
stack --factors dp3,nope
stack --factors dp3 --iso dp3=nope
walls --family dp1
walls --family toy --space t --registry my_families.json
product --families dp1,dp3
chamber --families dp3,dp4 --point 1/2,1
chamber --families dp3,dp4 --point 0,1/2
chamber --families dp3,dp4 --point 1/2
product --families dp3,dp3,dp3 --format svg
git-walls --degree 4
walls --family dp3 --registry overlay_malformed.json
walls --family dp3 --registry overlay_refused.json
walls --family dp3 --registry overlay_repeated_record.json
walls --family dp3 --registry overlay_repeated_field.json
walls --family dp3 --registry overlay_repeated_nested.json
walls --family toy --registry overlay_deep.json
walls --family dp3 --registry overlay_degenerate.json
walls --family dp3 --registry no_such_overlay.json

frobnicate
walls
walls --family dp3 --space x
walls --family dp3 --bogus
product --families ,
chamber --families dp3,dp4 --point 1/2,x
stack --factors dp3 --iso dp3
git-walls --degree three
"""


def readme_examples() -> list[tuple[str, str]]:
    """The README's CLI examples as (command line, inline comment) pairs: each
    `wallcross ...` line of its "## CLI examples" block, its argv joined by
    single spaces without the leading `wallcross`, `# comment` or `> file`."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI examples\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.partition("#") for line in block.splitlines() if line.startswith("wallcross ")]
    return [(" ".join(command.split(">")[0].split()[1:]), comment.strip())
            for command, _, comment in lines]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(argv: list[str]) -> dict:
    """Exit code and stdout/stderr digests of one in-process command."""
    from wallcross.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    doc = {"exit": code, "stdout_bytes": len(out.getvalue().encode()),
           "stdout_sha256": _sha256(out.getvalue())}
    if code != 1:
        doc["stderr_sha256"] = _sha256(err.getvalue())
    return doc


def manifest() -> dict:
    """Every command's outcome, keyed by its command line; run from tests/data."""
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        lines = [line for line, _ in readme_examples()] + COMMANDS.splitlines()
        return {line: outcome(shlex.split(line)) for line in lines if line}
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's package, installed or not
    print(json.dumps(manifest(), indent=2, sort_keys=True))
