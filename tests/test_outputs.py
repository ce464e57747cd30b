"""Byte identity: every command that tools/outputs.py lists exits and prints
as the committed manifest tests/data/outputs.json records."""

import json


def test_outputs_match_manifest(data_dir, tool):
    want = json.loads((data_dir / "outputs.json").read_text())
    got = tool("outputs").manifest()
    assert got.keys() == want.keys()
    assert {line: got[line] for line in got if got[line] != want[line]} == {}
