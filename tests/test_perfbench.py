"""The benchmark harness in ``perfbench/`` wraps module attributes by name;
every name it wraps must exist, or each traced benchmark run fails."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name, attr", [entry[:2] for entry in _traced()])
def test_traced_attribute_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
