"""The benchmark's span tracer still finds every pshdef function it wraps.

perfbench/tracer.py names the functions it wraps; a renamed or removed one
makes `install()` raise, so this test fails before a traced benchmark run
would.
"""

import importlib
from pathlib import Path

import numpy as np

from pshdef import construct, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    originals = (verify.psd_stats, construct.psd_stats, verify.least_eigenvalues)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert construct.psd_stats is verify.psd_stats is not originals[0]
        verify.least_eigenvalues(np.eye(2)[None])
        assert [s[0] for s in tracer.spans] == ["verify.least_eigenvalues"]
    finally:
        tracer.uninstall()
    assert (verify.psd_stats, construct.psd_stats, verify.least_eigenvalues) == originals
