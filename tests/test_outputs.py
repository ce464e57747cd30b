"""Byte identity: every command that tools/outputs.py lists exits and prints
as the committed manifest tests/data/outputs.json records."""

import importlib.util
import json


def test_outputs_match_manifest(data_dir):
    path = data_dir.parents[1] / "tools" / "outputs.py"
    spec = importlib.util.spec_from_file_location("outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    want = json.loads((data_dir / "outputs.json").read_text())
    got = tool.manifest()
    assert got.keys() == want.keys()
    assert {line: got[line] for line in got if got[line] != want[line]} == {}
