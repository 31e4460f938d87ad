"""Tooling guards: the span tracer's targets exist; ``python -m isotess`` runs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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


def test_python_m_isotess_help():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "isotess", "--help"],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
