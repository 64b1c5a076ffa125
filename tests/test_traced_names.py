"""The benchmark's tracer (perfbench/spans.py) looks up each method it
traces by name on its class, so moving a traced method out of relfan
makes every traced benchmark run raise KeyError.  Constructing the
tracer here turns that into a test failure."""

import importlib
from pathlib import Path


def test_the_tracer_finds_every_traced_method(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    patched = {(owner.__name__, attr) for owner, attr, _, _ in tracer._patches if isinstance(owner, type)}
    traced = {(cls, meth) for classes in spans.METHODS.values() for cls, meths in classes.items() for meth in meths}
    assert traced <= patched
