"""Span arithmetic and correctness checks of the twin-experiment benchmark.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import statistics

import pytest

import twinbench as tb
from spans import Span, Tracer, nesting_violations, self_times

# forecast + analysis must cover all but this share of a cycle's wall time
# (median over the cycles of a pass); the rest is the harness's bookkeeping.
BOOKKEEPING_GAP = 0.10


def test_self_times_subtract_direct_children():
    spans = [Span("a", 0.0, 10.0, None), Span("b", 1.0, 4.0, 0),
             Span("c", 2.0, 3.0, 1), Span("d", 5.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert nesting_violations(spans) == []


def test_nesting_violation_reported():
    spans = [Span("a", 0.0, 1.0, None), Span("b", 0.5, 2.0, 0)]
    assert nesting_violations(spans) == ["b#1 outside a#0"]


def test_wrapped_calls_nest_and_reraise():
    tracer = Tracer()

    def inner(x):
        return x + 1

    def failing():
        raise KeyError("boom")

    traced_inner = tracer.wrap(inner, "inner", lambda result, x: {"out": result})
    traced_failing = tracer.wrap(failing, "failing")
    with tracer.span("outer"):
        assert traced_inner(1) == 2
        with pytest.raises(KeyError):
            traced_failing()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("failing", 0)]
    assert tracer.spans[1].attrs == {"out": 2}
    assert tracer.spans[2].attrs == {"error": "KeyError"}
    assert nesting_violations(tracer.spans) == []


@pytest.fixture(scope="module")
def l96_passes():
    """One untraced and one traced comparison pass on a small Lorenz-96."""
    pkg = tb.load_package()
    harness = pkg.harness
    base = harness.ExperimentConfig(model="l96-8", filter="enkf", nens=10, p=0.75,
                                    sigma_b=0.05, n_cycles=4, rng_seed=11,
                                    synthetic_ratio=2.0, steps_per_cycle=5)
    cfgs = harness.configs_for_filters(base, tb.FILTERS)
    setup = tb.set_up(pkg, cfgs, tb.layer_points)
    untraced = tb.run_pass(pkg, cfgs, tb.boundary_points, traced=False)
    traced = tb.run_pass(pkg, cfgs, tb.layer_points, traced=True)
    return setup, untraced, traced, base


def test_spans_nest_and_self_times_are_nonnegative(l96_passes):
    setup, untraced, traced, _ = l96_passes
    for tracer in (setup, untraced.tracer, traced.tracer):
        assert nesting_violations(tracer.spans) == []
        assert min(self_times(tracer.spans)) >= 0.0
    names = {s.name for s in traced.tracer.spans}
    assert {"solvers.ismf", "sampling.synthetic", "filters.optimizer",
            "ensemble.validate", "shrinkage.svd"} <= names
    assert {s.name for s in setup.spans} >= {"harness.truth", "harness.warmup"}


def test_layer_times_add_up_to_cycle_time(l96_passes):
    _, untraced, traced, base = l96_passes
    for run in (untraced, traced):
        assert len(run.cycles) == len(tb.FILTERS) * base.n_cycles
        shares = []
        for cycle in run.cycles:
            assert cycle.bookkeeping >= 0.0
            assert cycle.forecast + cycle.analysis + cycle.bookkeeping == pytest.approx(cycle.wall)
            # self times of every span in the cycle plus the time no span
            # covers give back the cycle's wall time
            spans = run.tracer.spans
            uncovered = cycle.wall - sum(spans[i].duration for i in cycle.spans
                                         if spans[i].parent == 0)
            assert uncovered >= 0.0
            assert sum(cycle.layers.values()) + uncovered == pytest.approx(cycle.wall)
            shares.append(cycle.bookkeeping / cycle.wall)
        assert statistics.median(shares) <= BOOKKEEPING_GAP


def test_tracing_leaves_results_bit_identical(l96_passes):
    _, untraced, traced, base = l96_passes
    checked = tb.check([untraced, traced], base.n_cycles)
    assert checked == tb.Checked(attempted=2 * len(tb.FILTERS))


def test_check_counts_mismatch_and_non_finite(l96_passes):
    _, untraced, traced, base = l96_passes
    bad = tb.Pass(traced.seed, True, traced.tracer,
                  [(key, float("nan") if key == "enkf" else value + (key == "ensrf"), s)
                   for key, value, s in traced.rows], None, traced.cycles)
    checked = tb.check([untraced, bad], base.n_cycles)
    assert (checked.attempted, checked.failed, checked.wrong) == (2 * len(tb.FILTERS), 2, 2)
    assert len(checked.problems) == 2


def test_check_counts_a_raised_run_as_failed_not_wrong(l96_passes):
    _, untraced, traced, base = l96_passes
    last = tb.FILTERS[-1]
    cut = [c for c in traced.cycles if c.filter != last] + \
        [c for c in traced.cycles if c.filter == last][:1]
    aborted = tb.Pass(traced.seed, False, traced.tracer, None, "RuntimeError: cycle 2", cut)
    checked = tb.check([untraced, aborted], base.n_cycles)
    assert (checked.attempted, checked.failed, checked.wrong) == (2 * len(tb.FILTERS), 1, 0)
    assert checked.problems == ["pass 1: RuntimeError: cycle 2"]


def test_per_layer_metrics_complete(l96_passes):
    setup, untraced, traced, base = l96_passes
    metrics, detail = tb.per_layer([setup], [untraced, traced], base)
    assert detail["nesting_violations"] == []
    assert metrics["solvers.ismf_rank1"] == 2 * base.nens + base.nens * (1 + base.synthetic_ratio)
    assert all(value is not None for value in metrics.values())
    assert metrics["models.poisson_s"] == 0.0  # Lorenz-96 has no Poisson solve
