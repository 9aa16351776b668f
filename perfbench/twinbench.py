"""Twin-experiment benchmark: per-filter cycle time of the paired
seven-filter comparison, with per-layer spans timed from outside.

Run from the root of a source checkout:

    python3 perfbench/twinbench.py --workload qg33-compare --seed 1 \
        --seconds 50 --trace 0

The load is a closed loop with one caller: ``compare_filters`` (the path
``dacli compare`` takes) runs all seven filters against one shared truth,
and each cycle waits for the previous analysis. The workload seed goes in
as ``rng_seed``. One run in one process:

1. sets up ``SETUP_REPEATS`` times (model build, truth run and
   observations, then a warm-up comparison of one one-step cycle per
   filter) and reports the median as ``setup_s``;
2. runs comparison passes of ``Workload.cycles`` cycles per filter for
   ``--seconds``, recording a span around every
   ``harness.propagate_matrix`` and ``harness.run_filter`` call to find
   cycle boundaries. Pass k uses ``rng_seed = seed + k * PASS_SEED_STRIDE``,
   so each filter's cycles are spread over the whole run and over many
   distinct cycles;
3. counts the filter runs that raised or never ran as failed, and checks
   that every RMSE returned is finite.

With ``--trace 1`` every untraced pass is followed by a traced pass of the
same seed that also wraps the per-layer functions at their import sites;
the traced pass must reproduce the untraced RMSEs bit for bit, and the
last line reports the per-layer metrics instead of the end-to-end ones.

Output: one ``name value unit`` line per metric, one JSON line holding
the environment, configuration, RMSEs and sample counts, and last the
result object ``{"correct", "attempted", "failed", "metrics"}``. Exits
non-zero without a result when the checkout has no ``src/shrinkda``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

from spans import ANALYSIS, FORECAST, Tracer, nesting_violations, patched, split_cycles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# compare_filters stops at the first filter run that raises. enkf-n is the
# one seen to raise (its optimizer misses the absolute gradient tolerance in
# about one l96-1000 cycle in 300), so it runs last and a failure there
# costs only its own samples.
FILTERS = ("enkf", "ensrf", "entkf", "enkf-du", "enkf-fs", "enkf-rs", "enkf-n")
SETUP_REPEATS = 5
PASS_SEED_STRIDE = 1_000_000

# Shared by every workload: 40 real members, C = 10 (400 synthetic members
# for enkf-fs/enkf-rs), 70% of the state observed, 10 model steps per cycle.
BASE = dict(nens=40, synthetic_ratio=10.0, p=0.7, sigma_b=0.05, obs_std=0.01,
            steps_per_cycle=10)


@dataclass(frozen=True)
class Workload:
    model: str
    # Cycles per filter in one comparison pass. compare_filters runs one
    # filter's cycles back to back, so short passes keep each filter's
    # samples from bunching into one stretch of the run.
    cycles: int


WORKLOADS = {
    # The acceptance comparison configuration (nstate 961, nobs 673), and the
    # headline end-to-end figure. Forecast-bound: RK4 over the QG tendency is
    # 60-90% of every filter's cycle except enkf-fs (about 35%), so a change
    # to `models` shows here first.
    "qg33-compare": Workload("qg-33", cycles=2),
    # Lorenz-96, n = 1000 (nobs 700): solver shapes close to qg-33, but the
    # forecast costs about 11 ms a cycle (3% of an enkf-fs cycle) and runs no
    # QG code. A solvers/sampling/filters change should save about the same
    # absolute time here as on qg-33; a QG forecast change should show no
    # change. Not listed in BENCHMARK.json: enkf-n's optimizer fails here in
    # about one cycle in 300 (see BASELINE.md), and the benchmark's
    # workloads must run without a failed operation. It stays runnable so
    # that failure can be seen and, once fixed, the workload restored.
    "l96-1000-analysis": Workload("l96-1000", cycles=4),
    # qg-65 (nstate 3969, nobs 2778): the same layers at a size where one
    # 40-member field (1.3 MB) no longer sits in a 2 MiB L2 cache and ISMF is
    # a tall system (nobs >> m = 440). A change tuned on qg-33 that costs at
    # larger sizes (padding, DST batching, threads, blocked solves) shows here.
    "qg65-compare": Workload("qg-65", cycles=1),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
                    "completed_frac": "ratio"}
END_TO_END_UNITS.update({f"cycle_s.{key}": "s" for key in FILTERS})


def load_package():
    """Import shrinkda from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "shrinkda" / "__init__.py").is_file():
        raise SystemExit(f"twinbench: no package source at {SRC / 'shrinkda'}")
    sys.path.insert(0, str(SRC))
    import shrinkda
    from shrinkda import ensemble, filters, harness, models, sampling

    if SRC not in Path(shrinkda.__file__).resolve().parents:
        raise SystemExit(f"twinbench: imported shrinkda from {shrinkda.__file__}, not {SRC}")
    return SimpleNamespace(ensemble=ensemble, filters=filters, harness=harness,
                           models=models, sampling=sampling)


def blas_of(module) -> str:
    """The BLAS a module was built against, as ``name version``."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "python": platform.python_version(), "machine": platform.machine(),
           "numpy": np.__version__, "scipy": scipy.__version__,
           "numpy_blas": blas_of(np), "scipy_blas": blas_of(scipy)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DACLI_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def configs(harness, workload: Workload, seed: int) -> list:
    base = harness.ExperimentConfig(model=workload.model, filter=FILTERS[0],
                                    n_cycles=workload.cycles, rng_seed=seed, **BASE)
    return harness.configs_for_filters(base, FILTERS)


# ---------------------------------------------------------------------------
# Wrap points


def _ismf_shape(_result, system, *_args, **_kwargs):
    nobs, m = system.pi.shape
    return {"nobs": nobs, "m": m, "r": system.rhs.shape[1]}


def _analysis_attrs(result, key, *_args, **_kwargs):
    return {"filter": key, "iterations": result.diagnostics.get("solver_iterations")}


def _forecast_attrs(_result, _model, matrix, *_args, **_kwargs):
    # The truth run propagates one state vector; the ensemble is a matrix.
    return {"ensemble": getattr(matrix, "ndim", 1) == 2}


def boundary_points(tracer: Tracer, pkg) -> list:
    """The untraced run: only the harness calls that bound a cycle."""
    harness = pkg.harness
    return [
        (harness, "propagate_matrix",
         tracer.wrap(harness.propagate_matrix, FORECAST, _forecast_attrs)),
        (harness, "run_filter", tracer.wrap(harness.run_filter, ANALYSIS, _analysis_attrs)),
    ]


def layer_points(tracer: Tracer, pkg) -> list:
    """The traced run: the cycle boundaries plus every per-layer function,
    replaced where the calling module looks it up."""
    filters, models, sampling = pkg.filters, pkg.models, pkg.sampling
    points = boundary_points(tracer, pkg)
    for owner, attr, name, describe in [
        (models, "poisson_solve", "models.poisson", None),
        (models, "arakawa_jacobian", "models.jacobian", None),
        (models, "laplacian", "models.laplacian", None),
        (models, "x_derivative", "models.x_derivative", None),
        (filters, "deviation_singular_values", "shrinkage.svd", None),
        (filters, "rblw_parameters", "shrinkage.rblw", None),
        (filters, "draw_synthetic_members", "sampling.synthetic", None),
        (filters, "perturb_observations", "sampling.perturb", None),
        (filters, "extend_ensemble", "sampling.extend", None),
        (filters, "ismf_solve", "solvers.ismf", _ismf_shape),
        (filters, "ensrf_transform", "solvers.ensrf_transform", None),
        (filters, "entkf_factors", "solvers.entkf_factors", None),
        (filters, "enkf_rs_system", "filters.rs_system", None),
        (filters, "minimize", "filters.optimizer", None),
        (filters, "minimize_scalar", "filters.optimizer", None),
    ]:
        points.append((owner, attr, tracer.wrap(getattr(owner, attr), name, describe)))
    # The copy-and-check of each container runs in its __post_init__.
    for cls, stored in [(pkg.ensemble.Ensemble, "matrix"),
                        (pkg.ensemble.DeviationMatrix, "columns"),
                        (sampling.ExtendedEnsemble, "synthetic")]:
        def describe(_result, obj, _stored=stored):
            return {"bytes": getattr(obj, _stored).nbytes}
        points.append((cls, "__post_init__",
                       tracer.wrap(cls.__post_init__, "ensemble.validate", describe)))
    points.append((sampling, "standard_normal",
                   tracer.counter(sampling.standard_normal, "sampling.normals",
                                  lambda _gen, size: math.prod(size) if isinstance(size, tuple) else size)))
    return points


def no_points(_tracer, _pkg) -> list:
    return []


# ---------------------------------------------------------------------------
# Set-up and comparison passes


def set_up(pkg, cfgs, points) -> Tracer:
    """Model build, truth run and observations, then the warm-up: one
    untimed one-step cycle per filter, which pays the first-call costs
    (the first LAPACK SVD in a process is ~0.4 s) before any timed cycle."""
    harness = pkg.harness
    first = cfgs[0]
    tracer = Tracer()
    with patched(points(tracer, pkg)), tracer.span("harness.setup"):
        with tracer.span("harness.model"):
            model = harness.get_model(first.model, first.model_overrides)
            obs = harness.ObservationSpec.from_fraction(model.nstate, first.p, first.obs_std)
        with tracer.span("harness.truth"):
            harness.build_truth_and_observations(first, model, obs)
        with tracer.span("harness.warmup"):
            harness.compare_filters([replace(c, n_cycles=1, steps_per_cycle=1) for c in cfgs])
    return tracer


@dataclass
class Pass:
    seed: int
    traced: bool
    tracer: Tracer
    rows: list | None
    error: str | None
    cycles: list

    @property
    def wall(self) -> float | None:
        """Assimilation wall time: first ensemble forecast to the pass end
        (to the failure, when a filter run raised)."""
        spans = self.tracer.spans
        first = next((s for s in spans if s.name == FORECAST and s.attrs.get("ensemble")), None)
        return None if first is None else spans[0].end - first.start


def run_pass(pkg, cfgs, points, traced: bool) -> Pass:
    harness = pkg.harness
    tracer = Tracer()
    rows, error = None, None
    with patched(points(tracer, pkg)):
        root = tracer.open("harness.compare")
        try:
            rows = harness.compare_filters(cfgs)
        except Exception as exc:  # a failed filter run is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            tracer.close(root)
    return Pass(cfgs[0].rng_seed, traced, tracer, rows, error,
                split_cycles(tracer.spans, root))


def run_passes(pkg, cfgs, seconds: float, trace: bool) -> list:
    """Passes until the next one would overrun ``seconds``; at least one.

    With ``trace`` every untraced pass is followed by a traced one of the
    same seed."""
    kinds = [(boundary_points, False)] + ([(layer_points, True)] if trace else [])
    passes = []
    started = time.perf_counter()
    for k in itertools.count():
        seeded = [replace(c, rng_seed=c.rng_seed + k * PASS_SEED_STRIDE) for c in cfgs]
        begun = time.perf_counter()
        for points, traced in kinds:
            passes.append(run_pass(pkg, seeded, points, traced))
        now = time.perf_counter()
        if now - started + (now - begun) > seconds:
            return passes


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0  # filter runs that raised, never ran, or gave a wrong RMSE
    wrong: int = 0  # filter runs whose RMSE is not finite or not reproduced
    problems: list = field(default_factory=list)


def check(passes, n_cycles: int) -> Checked:
    """Count the filter runs of every pass and check their outputs.

    A run fails when it raised or never ran (``compare_filters`` stops at
    the first run that raises, and then returns no RMSEs at all), or when
    its RMSE is not finite or differs in any bit from the first pass of the
    same seed that returned RMSEs. Only the last two make an output wrong.
    """
    out = Checked()
    references = {}
    for n, p in enumerate(passes):
        out.attempted += len(FILTERS)
        if p.rows is None:
            done = Counter(c.filter for c in p.cycles)
            out.failed += sum(1 for key in FILTERS if done[key] < n_cycles)
            out.problems.append(f"pass {n}: {p.error}")
            continue
        rmse = {key: value for key, value, _ in p.rows}
        reference = references.setdefault(p.seed, rmse)
        for key in FILTERS:
            if not math.isfinite(rmse[key]):
                problem = f"{key} RMSE {rmse[key]!r} is not finite"
            elif rmse[key] != reference[key]:
                problem = f"{key} RMSE {rmse[key]!r} differs from {reference[key]!r}"
            else:
                continue
            out.failed += 1
            out.wrong += 1
            out.problems.append(f"pass {n}{' (traced)' if p.traced else ''}: {problem}")
    return out


# ---------------------------------------------------------------------------
# Metrics


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def mean(values):
    return statistics.fmean(values) if values else None


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else None


def cycle_walls(passes) -> dict:
    walls = {key: [] for key in FILTERS}
    for p in passes:
        for c in p.cycles:
            walls[c.filter].append(c.wall)
    return walls


def end_to_end(setups, passes, checked: Checked) -> tuple[dict, dict]:
    """Cycle and pass times are means over the run: total time over count.

    This machine's speed jumps between fast and slow stretches lasting
    seconds, so a run's median cycle lands in one mode or the other, while
    the mean moves with the share of the run spent in each and is the
    steadier figure from run to run. Medians and p90s go in the report.
    """
    untraced = [p for p in passes if not p.traced]
    walls = cycle_walls(untraced)
    pass_walls = [p.wall for p in untraced if p.rows is not None]
    failed_frac = checked.failed / checked.attempted
    metrics = {
        "setup_s": median([t.spans[0].duration for t in setups]),
        "wall_s": mean(pass_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_frac": 1.0 - failed_frac,
    }
    for key in FILTERS:
        metrics[f"cycle_s.{key}"] = mean(walls[key])
    detail = {f"cycle_s.{key}": {"median": median(walls[key]), "p90": p90(walls[key]),
                                 "samples": len(walls[key])}
              for key in FILTERS}
    detail["setup_s"] = {"each": [t.spans[0].duration for t in setups]}
    detail["wall_s"] = {"median": median(pass_walls), "each": pass_walls}
    detail["failed_frac"] = failed_frac
    return metrics, detail


def _span_durations(tracers, name):
    return [s.duration for t in tracers for s in t.spans
            if s.name == name and s.parent == 0]


def per_layer(setups, passes, cfg) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes; times are medians per
    filter-cycle, counts are per round of one cycle of every filter."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    cycles = [c for p in traced for c in p.cycles]
    rounds = max(1, len(traced) * cfg.n_cycles)

    def of(keys):
        return [c for c in cycles if c.filter in keys]

    def layer(name, keys=FILTERS):
        return median([c.layers[name] for c in of(keys)])

    def attrs(name):
        return [p.tracer.spans[i].attrs for p in traced for c in p.cycles for i in c.spans
                if p.tracer.spans[i].name == name]

    m = {}
    forecast = median([c.forecast for c in cycles])
    m["models.forecast_s"] = forecast
    m["models.member_steps_per_s"] = cfg.nens * cfg.steps_per_cycle / forecast
    for name in ("poisson", "jacobian", "laplacian", "x_derivative"):
        m[f"models.{name}_s"] = layer(f"models.{name}")
    m["harness.truth_s"] = median(_span_durations(setups, "harness.truth"))
    m["harness.warmup_s"] = median(_span_durations(setups, "harness.warmup"))
    m["harness.bookkeeping_s"] = median([c.bookkeeping for c in cycles])
    m["shrinkage.estimate_s"] = median([c.layers["shrinkage.svd"] + c.layers["shrinkage.rblw"]
                                        for c in of(("enkf-fs", "enkf-rs"))])
    m["sampling.synthetic_s"] = layer("sampling.synthetic", ("enkf-fs", "enkf-rs"))
    m["sampling.perturb_s"] = layer("sampling.perturb", ("enkf", "enkf-fs", "enkf-rs"))
    m["sampling.extend_s"] = layer("sampling.extend", ("enkf-fs", "enkf-rs"))
    m["sampling.normals"] = sum(p.tracer.counts["sampling.normals"] for p in traced) / rounds
    for key in ("enkf", "ensrf", "enkf-fs"):
        m[f"solvers.ismf_s.{key}"] = layer("solvers.ismf", (key,))
    shapes = attrs("solvers.ismf")
    flop = sum(4 * a["nobs"] * a["r"] * a["m"] + 2 * a["nobs"] * a["m"] ** 2 for a in shapes)
    # z is read twice and written once per rank-one step, and so is the
    # trailing block of U.
    moved = sum(24 * a["nobs"] * (a["r"] * a["m"] + a["m"] * (a["m"] - 1) // 2) for a in shapes)
    ismf_seconds = sum(c.layers["solvers.ismf"] for c in cycles)
    m["solvers.ismf_rank1"] = sum(a["m"] for a in shapes) / rounds
    m["solvers.ismf_gflop"] = flop / 1e9 / rounds
    m["solvers.ismf_gbytes"] = moved / 1e9 / rounds
    m["solvers.ismf_gflops"] = flop / 1e9 / ismf_seconds if ismf_seconds > 0 else None
    m["solvers.ensrf_transform_s"] = layer("solvers.ensrf_transform", ("ensrf",))
    m["solvers.entkf_factors_s"] = layer("solvers.entkf_factors", ("entkf",))
    for key in FILTERS:
        m[f"filters.analysis_s.{key}"] = median([c.analysis for c in of((key,))])
        m[f"filters.self_s.{key}"] = layer(ANALYSIS, (key,))
    m["filters.rs_system_s"] = layer("filters.rs_system", ("enkf-rs",))
    iterations = {key: [] for key in ("enkf-n", "enkf-du")}
    for a in attrs(ANALYSIS):
        if a.get("filter") in iterations:
            iterations[a["filter"]].append(a["iterations"])
    for key in ("enkf-n", "enkf-du"):
        m[f"filters.optimizer_s.{key}"] = layer("filters.optimizer", (key,))
        m[f"filters.optimizer_iters.{key}"] = median(iterations[key])
    m["ensemble.validate_s"] = layer("ensemble.validate")
    m["ensemble.bytes_copied"] = sum(a["bytes"] for a in attrs("ensemble.validate")) / rounds
    m["trace.overhead_s"] = (mean([p.wall for p in traced if p.rows is not None])
                             - mean([p.wall for p in untraced if p.rows is not None]))
    # What forecast + analysis + bookkeeping of the traced run leave of the
    # untraced cycle time (a mean, as cycle_s is), per filter-cycle,
    # averaged over the filters.
    untraced_walls = cycle_walls(untraced)
    gaps = {}
    for key in FILTERS:
        mine = of((key,))
        gaps[key] = (mean(untraced_walls[key]) - mean([c.forecast for c in mine])
                     - mean([c.analysis for c in mine]) - mean([c.bookkeeping for c in mine]))
    m["trace.cycle_gap_s"] = statistics.fmean(gaps.values())
    violations = [v for p in traced for v in nesting_violations(p.tracer.spans)]
    violations += [v for t in setups for v in nesting_violations(t.spans)]
    detail = {"cycle_gap_s": gaps, "traced_cycles": len(cycles),
              "nesting_violations": violations[:10]}
    return m, detail


UNITS = {**END_TO_END_UNITS, "failed_frac": "ratio", "models.member_steps_per_s": "1/s",
         "solvers.ismf_gflop": "GFLOP", "solvers.ismf_gbytes": "GB",
         "solvers.ismf_gflops": "GFLOP/s", "ensemble.bytes_copied": "B"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") or "_s." in name else "count"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("DACLI_THREADS", "1").strip() != "1":
        raise SystemExit("twinbench: spans assume one calling thread; unset DACLI_THREADS")
    pkg = load_package()
    workload = WORKLOADS[args.workload]
    cfgs = configs(pkg.harness, workload, args.seed)
    setup_points = layer_points if args.trace else no_points
    setups = [set_up(pkg, cfgs, setup_points) for _ in range(SETUP_REPEATS)]
    passes = run_passes(pkg, cfgs, args.seconds, trace=bool(args.trace))
    checked = check(passes, workload.cycles)

    metrics, detail = end_to_end(setups, passes, checked)
    if args.trace:
        layers, layer_detail = per_layer(setups, passes, cfgs[0])
        detail.update(layer_detail)
        checked.problems += layer_detail["nesting_violations"]
    reported = layers if args.trace else metrics
    printed = {**metrics, "failed_frac": detail["failed_frac"], **(layers if args.trace else {})}
    for name, value in printed.items():
        print(f"{name} {'-' if value is None else f'{value:.6g}'} {unit_of(name)}")
    rows = next((p.rows for p in passes if p.rows is not None), [])
    rmse = {key: value for key, value, _ in rows}
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "config": {"model": workload.model, "cycles_per_pass": workload.cycles,
                   "filters": list(FILTERS), **BASE},
        "passes": len(passes), "rmse": rmse,
        "rmse_ratio_fs_over_enkf": (rmse["enkf-fs"] / rmse["enkf"]) if rmse else None,
        "problems": checked.problems, **detail}}))
    correct = checked.wrong == 0 and not detail.get("nesting_violations")
    print(json.dumps({"correct": correct, "attempted": checked.attempted,
                      "failed": checked.failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
