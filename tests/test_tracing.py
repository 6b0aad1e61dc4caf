"""The traced benchmark pass (``perfbench/run.py --trace 1``) wraps
q1dscatter functions and the solver entry points its modules import, by
name; a hook whose target was renamed or removed makes
``Tracer.install`` raise ``AttributeError`` and the traced run crash."""

from pathlib import Path

import q1dscatter as q
from q1dscatter import ring

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    original = ring.brentq
    tracer = Tracer()
    try:
        tracer.install()
        assert ring.brentq is not original
        q.build_kernel(q.solve_transverse(q.TwoSite(v=1.0)))
    finally:
        tracer.uninstall()
    assert ring.brentq is original
    metrics = tracer.metrics()
    assert metrics["two_body.build_kernel.calls"] == 1
    assert metrics["two_body.channels.max"] == 2
