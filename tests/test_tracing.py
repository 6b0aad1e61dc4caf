"""The traced benchmark pass (``perfbench/run.py --trace 1``) wraps
q1dscatter functions and the solver entry points its modules import, by
name; a hook whose target was renamed or removed makes
``Tracer.install`` raise ``AttributeError`` and the traced run crash."""

from pathlib import Path

import q1dscatter as q
from q1dscatter import continuum, ring

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


def test_tracer_counts_the_deferred_solvers(monkeypatch):
    # ring.brentq and continuum.quad import scipy on first call; they
    # must stay module-level names the tracer can wrap and count
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    original = continuum.quad
    tracer = Tracer()
    try:
        tracer.install()
        assert continuum.quad is not original
        q.continuum_sum(q.DeltaWell(v0=1.0))
    finally:
        tracer.uninstall()
    assert continuum.quad is original
    metrics = tracer.metrics()
    assert metrics["linalg.quad.calls"] == 1
    assert metrics["continuum.continuum_sum.calls"] == 1
