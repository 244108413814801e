"""The traced benchmark wraps layer functions by module attribute name, so
renaming or dropping one of them breaks `perfbench/run.py --trace 1`."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_spans_find_every_wrapped_attribute(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from spans import Tracer

    tracer = Tracer()
    try:
        workloads.install_layer_spans(tracer)
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(module, attr) is not original for module, attr, original in patched)
    finally:
        tracer.close()
    assert all(getattr(module, attr) is original for module, attr, original in patched)
