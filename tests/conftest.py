from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import settings

from wallcross.wallsets import load_registry

# The oracles in tests/_models.py check with plain asserts; rewritten by
# pytest like a test module's, they still fail under python -O.
pytest.register_assert_rewrite("_models")

DATA_DIR = Path(__file__).parent / "data"

# One profile for every property test: the same examples on every run, and
# no per-example deadline on a shared machine.  Tests set only max_examples.
settings.register_profile("wallcross", derandomize=True, deadline=None)
settings.load_profile("wallcross")


@pytest.fixture(scope="session")
def registry():
    return load_registry()


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def tool():
    """tool("outputs") loads tools/outputs.py as a module; pytest does not collect the tools."""
    def load(name: str):
        spec = importlib.util.spec_from_file_location(name, DATA_DIR.parents[1] / "tools" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load
