"""The benchmark's tracer finds every function it wraps."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_resolve(monkeypatch):
    """perfbench/spans.py wraps program functions by name; a rename in src/
    must fail here rather than break a traced benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for owner, attr, name in spans.WRAPPED:
        assert callable(getattr(owner, attr, None)), name
