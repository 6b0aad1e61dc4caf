"""The traced benchmark pass (``perfbench/run.py --trace 1``) wraps
q1dscatter functions and the solver entry points its modules import, by
name; a hook whose target was renamed or removed makes
``Tracer.install`` raise ``AttributeError`` and the traced run crash."""

from pathlib import Path

import q1dscatter as q
from q1dscatter import cli, continuum, ring

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


def test_tracer_counts_the_deferred_solvers(monkeypatch, tmp_path):
    # ring.brentq imports scipy on first call, and continuum.quad is the
    # batched Gauss-Kronrod routine; both must stay module-level names
    # the tracer can wrap and count
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

    # a 200-point continuum sweep is one quadrature of 200 wells
    tracer = Tracer()
    try:
        tracer.install()
        assert cli.main(["continuum", "--v0-from", "0.1", "--v0-to", "10",
                         "--points", "200",
                         "--output", str(tmp_path / "c.csv")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["linalg.quad.calls"] == 1
    assert metrics["traps.alpha_closed.calls"] == 0
