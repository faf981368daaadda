"""Every script in ``examples/`` imports cleanly (``main()`` not run)."""

from __future__ import annotations

import glob
import importlib.util
import os

import pytest

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "*.py",
)))


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_imports(path):
    name = "example_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
