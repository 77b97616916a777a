"""The benchmark's traced mode wraps public functions of `treelike` by name.

`bench/rep.py` binds its spans to module attributes such as
`treelike.verify.tlt_survey`; a rename in the package would break
`bench/run.py --trace 1` without failing any other test. This test installs
every binding on a fresh tracer and removes them again.
"""

import importlib
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
BINDINGS = 45


def test_span_bindings_install(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ clean
    rep = importlib.import_module("rep")
    tracing = importlib.import_module("tracing")
    core = sys.modules["treelike.core"]
    assert inspect.isgeneratorfunction(core.tlt_fillings)
    assert inspect.isgeneratorfunction(core.pt_fillings)
    tracer = tracing.Tracer("test")
    try:
        rep.install_spans(tracer)
        assert len(tracer._patched) == BINDINGS
    finally:
        tracer.unpatch()
    assert inspect.isgeneratorfunction(core.tlt_fillings)
    assert not hasattr(core.tlt_fillings, "__wrapped__")
