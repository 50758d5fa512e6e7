"""The traced benchmark keeps working: one traced cycle of each library workload.

``perfbench/run.py --trace 1`` refuses to report when a per-layer metric is
not finite, as happens when no op calls a function that a metric times. This
runs one cycle of ``sequences``, ``dense-pairs`` and ``oracle-check``
(setups included, fixed seed) under the benchmark's tracer and checks that
every op passes and every per-layer metric is finite.
"""

import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("sequences", "dense-pairs", "oracle-check")
SEED = 101


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # run.py sets QF_THREADS when imported; quasifree is loaded already, so
    # only the variable changes, and monkeypatch puts it back afterwards
    monkeypatch.setenv("QF_THREADS", "1")
    import run
    import tracing
    import workloads

    return run, tracing, workloads


def test_one_traced_cycle_has_finite_layer_metrics(perfbench):
    run, tracing, workloads = perfbench
    rec, tally, gauge = tracing.SpanRecorder(), run.Tally(), run.SpeedGauge()
    patches = tracing.install(rec)
    try:
        for name in WORKLOADS:
            wl = workloads.SETUPS[name](SEED)
            try:
                run.run_loop(wl, 0.0, len(wl.cycle), tally, gauge, rec)
            finally:
                wl.cleanup()
    finally:
        tracing.restore(patches)
    assert tally.attempted > 0 and tally.failed == 0, tally.failures
    metrics = tracing.layer_metrics(rec)
    assert not [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
