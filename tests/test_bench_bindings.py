"""The benchmark's traced names stay bound in the package.

``perfbench/child.py`` wraps each ``module:name`` of its ``TRACED`` tuple
where that module looks the name up, so an import dropped from, say,
``pmtl.cli`` breaks ``perfbench --trace 1`` with an AttributeError. This
test reads the tuple from the benchmark script without editing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.TRACED


@pytest.mark.parametrize("entry", _traced())
def test_traced_name_is_bound(entry):
    module, name = entry.split(":")
    assert callable(getattr(importlib.import_module(f"pmtl.{module}"), name, None)), entry
