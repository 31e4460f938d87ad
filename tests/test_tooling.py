"""Tooling guards: names the benchmark's span tracer patches must exist."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites():
    spans = _spans()
    sites = [site for pairs in spans.ENTRY_POINTS.values() for site in pairs]
    return sites + list(spans.COUNTED_ONLY.values())


@pytest.mark.parametrize("module,attribute", _sites())
def test_bench_span_targets_exist(module, attribute):
    # a rename in isotess must fail here, not only in a traced benchmark run
    target = importlib.import_module(f"isotess.{module}")
    assert callable(getattr(target, attribute, None)), f"isotess.{module}.{attribute}"
