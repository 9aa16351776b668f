"""Twin-experiment driver: truth run, synthetic observations, assimilation
cycles, RMSE accounting, and the CSV/CLI surfaces."""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .ensemble import Ensemble, ensemble_mean
from .filters import FILTER_KEYS, run_filter
from .models import ModelDefinition, get_model
from .observations import ObservationSpec
from .sampling import RngStream, member_normals

log = logging.getLogger(__name__)

_SHRINKAGE_FILTERS = ("enkf-fs", "enkf-rs")

# Substream purposes per cycle index
_INIT_STREAM = 0
_OBS_NOISE = 0
_FILTER_STREAM = 1

RUN_CSV_HEADER = "cycle,rmse,analysis_seconds,gamma,phi,delta,dual_zeta,cost_primal,cost_dual"
_RUN_DIAG_KEYS = ("gamma", "phi", "delta", "dual_zeta", "cost_primal", "cost_dual")
COMPARE_CSV_HEADER = "filter,rmse,analysis_seconds"

_OVERRIDE_PREFIXES = ("qg_", "l96_", "model_dt")

# State bytes per forecast member block (see propagate_matrix). A sweep of
# 10-step, 40-member forecasts on 2 vCPU, from 64 KiB to one whole block,
# was fastest at 128-256 KiB on qg-65 and flat on qg-33. At 256 KiB a qg-65
# block (8 members) peaks at about 2 MiB of tendency temporaries, one
# core's L2, against 10 MiB for all 40 members. Smaller temporaries also
# leave glibc's heap fewer fresh pages to fault in: in a 7-filter qg-65
# compare a forecast after the first took at most 534, where the whole
# batch took 7400-54000 until a shrinkage filter had run.
BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one twin experiment."""

    model: str
    filter: str
    nens: int
    p: float
    sigma_b: float
    n_cycles: int
    rng_seed: int
    obs_std: float = 0.01
    synthetic_ratio: float = 10.0
    steps_per_cycle: int = 10
    output: str | None = None
    model_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.filter not in FILTER_KEYS:
            raise ValueError(f"unknown filter key {self.filter!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("observed fraction p must lie in (0, 1]")
        if self.nens < 2:
            raise ValueError("nens must be at least 2")
        if self.filter in _SHRINKAGE_FILTERS and self.nens < 3:
            raise ValueError("shrinkage filters need nens >= 3")
        if self.n_cycles < 1 or self.steps_per_cycle < 1:
            raise ValueError("n_cycles and steps_per_cycle must be positive")
        # a nan passes a plain <= 0 test, and nan or inf would surface only
        # after the truth run, as non-finite members or a failed int()
        for key in ("sigma_b", "obs_std"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{key} must be finite and positive, not {value!r}")
        # R = obs_std**2 I; a subnormal variance's reciprocal overflows in the solvers
        if not np.finfo(float).tiny <= self.obs_std * self.obs_std < math.inf:
            raise ValueError(f"obs_std must be finite and positive with a normal float as "
                             f"its square, not {self.obs_std!r}")
        if not (math.isfinite(self.synthetic_ratio) and self.synthetic_ratio >= 0.0):
            raise ValueError(f"synthetic_ratio must be finite and nonnegative, "
                             f"not {self.synthetic_ratio!r}")

    @property
    def synthetic_members(self) -> int:
        if self.filter in _SHRINKAGE_FILTERS:
            return int(round(self.synthetic_ratio * self.nens))
        return 0

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known, overrides = _split_mapping(mapping)
        known.pop("filters", None)
        missing = [f.name for f in fields(cls) if f.name not in known
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"config is missing required key(s): {', '.join(missing)}")
        return cls(model_overrides=overrides, **_coerce(known))


def _split_mapping(mapping: dict):
    config_keys = {f.name for f in fields(ExperimentConfig)} - {"model_overrides"} | {"filters"}
    known, overrides = {}, {}
    for key, value in mapping.items():
        if key in config_keys:
            known[key] = value
        elif any(key.startswith(pre) or key == pre.rstrip("_") for pre in _OVERRIDE_PREFIXES):
            overrides[key] = value
        else:
            raise ValueError(f"unknown config key {key!r}")
    return known, overrides


def _coerce(values: dict) -> dict:
    out = dict(values)
    for kind, noun, keys in (
            (int, "an integer", ("nens", "n_cycles", "steps_per_cycle", "rng_seed")),
            (float, "a number", ("p", "sigma_b", "obs_std", "synthetic_ratio"))):
        for key in keys:
            if out.get(key) is not None:
                try:
                    out[key] = kind(out[key])
                except (TypeError, ValueError):
                    raise ValueError(f"{key} must be {noun}, not {out[key]!r}") from None
    return out


def parse_config_file(path) -> dict:
    """Read a flat ``key = value`` config file; ``#`` starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value
    return values


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    rmse: float
    analysis_seconds: float
    diagnostics: dict


@dataclass(frozen=True)
class ExperimentResult:
    """Per-cycle RMSE/diagnostics series plus the aggregate statistics."""

    config: ExperimentConfig
    cycles: list
    total_rmse: float
    total_analysis_seconds: float


def rmse(analyses, truth) -> float:
    """Root mean square error sqrt(mean_i ||x_i^a - x_i^true||^2).

    The norm runs over the full state vector and is not divided by the
    state dimension.
    """
    analyses = list(analyses)
    truth = list(truth)
    if len(analyses) != len(truth):
        raise ValueError("series lengths differ")
    if not analyses:
        raise ValueError("empty series")
    total = 0.0
    for a, t in zip(analyses, truth):
        diff = np.asarray(a, dtype=float) - np.asarray(t, dtype=float)
        total += float(diff @ diff)
    return float(np.sqrt(total / len(analyses)))


def make_initial_ensemble(truth0: np.ndarray, sigma_b: float, nens: int,
                          rng: RngStream) -> Ensemble:
    """Background ensemble whose mean and spread both carry the initial error.

    The background state deviates from the truth by one draw at the
    sigma_b scale (the prior-error model), and the members spread around
    that background by independent draws at the same scale, so the
    ensemble spread is statistically consistent with the mean error. The
    per-component sigma is sigma_b * |truth0|: spread as a fraction of the
    true field.
    """
    if sigma_b <= 0.0:
        raise ValueError("sigma_b must be positive")
    truth0 = np.asarray(truth0, dtype=float)
    scale = sigma_b * np.abs(truth0)
    eps = member_normals(rng, nens + 1, truth0.shape[0])
    background = truth0 + scale * eps[:, 0]
    return Ensemble(background[:, None] + scale[:, None] * eps[:, 1:])


def _worker_count() -> int:
    raw = os.environ.get("DACLI_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"DACLI_THREADS must be a positive integer, not {raw!r}")
    return workers


def propagate_matrix(model: ModelDefinition, matrix: np.ndarray, steps: int,
                     workers: int | None = None) -> np.ndarray:
    """Advance every column of a state matrix by the given number of steps.

    The members advance in blocks: contiguous runs of columns holding
    about ``BLOCK_BYTES`` of state each, at least one block per worker and
    a multiple of the worker count, so DACLI_THREADS > 1 threads get even
    shares, but never more blocks than members. A block's tendency
    temporaries then fit in L2 and mostly reuse heap pages instead of
    faulting in fresh ones (figures at ``BLOCK_BYTES``). Members are
    independent and every stage is elementwise or one GEMM per member, so
    the result does not depend on the blocking or on the worker count.
    A single state vector advances whole. The result is C-ordered.
    """
    workers = _worker_count() if workers is None else workers
    matrix = np.asarray(matrix, dtype=float)

    def advance(block):
        for _ in range(steps):
            block = model.step(block)
        return block

    if matrix.ndim == 1:
        return advance(matrix)
    per_worker = max(1, math.ceil(matrix.nbytes / (BLOCK_BYTES * workers)))
    blocks = np.array_split(matrix, min(workers * per_worker, matrix.shape[1]), axis=1)
    if workers == 1:
        done = list(map(advance, blocks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(advance, blocks))
    return np.concatenate(done, axis=1)


def build_truth_and_observations(cfg: ExperimentConfig, model: ModelDefinition,
                                 obs: ObservationSpec):
    """Truth trajectory at cycle ends and the noisy observations of it."""
    rng = RngStream(cfg.rng_seed)
    state = model.initial_state()
    truth0 = state.copy()
    truths, observations = [], []
    for cycle in range(1, cfg.n_cycles + 1):
        state = propagate_matrix(model, state, cfg.steps_per_cycle, workers=1)
        truths.append(state.copy())
        noise = member_normals(rng.child(cycle, _OBS_NOISE), 1, obs.nobs)[:, 0]
        observations.append(obs.project(state) + cfg.obs_std * noise)
    return truth0, truths, observations


def _run_against_truth(cfg: ExperimentConfig, model: ModelDefinition, obs: ObservationSpec,
                       truth0, truths, observations, workers: int) -> ExperimentResult:
    rng = RngStream(cfg.rng_seed)
    ens = make_initial_ensemble(truth0, cfg.sigma_b, cfg.nens, rng.child(0, _INIT_STREAM))
    records = []
    warned = False
    matrix = ens.matrix
    for cycle in range(1, cfg.n_cycles + 1):
        try:
            matrix = propagate_matrix(model, matrix, cfg.steps_per_cycle, workers=workers)
        except Exception as exc:
            raise RuntimeError(f"cycle {cycle}: {cfg.filter} forecast failed: {exc}") from exc
        background = Ensemble(matrix)
        started = time.perf_counter()
        try:
            result = run_filter(cfg.filter, background, observations[cycle - 1], obs,
                                rng.child(cycle, _FILTER_STREAM),
                                synthetic_members=cfg.synthetic_members)
        except Exception as exc:
            raise RuntimeError(f"cycle {cycle}: {cfg.filter} analysis failed: {exc}") from exc
        elapsed = time.perf_counter() - started
        diag = result.diagnostics
        if not warned and diag.get("gamma") == 1.0:
            log.warning("cycle %d: shrinkage saturated at gamma = 1 (isotropic prior)", cycle)
            warned = True
        step_rmse = rmse([ensemble_mean(result.analysis)], [truths[cycle - 1]])
        records.append(CycleRecord(cycle=cycle, rmse=step_rmse,
                                   analysis_seconds=elapsed, diagnostics=dict(diag)))
        matrix = result.analysis.matrix
    total = float(np.sqrt(np.mean([r.rmse**2 for r in records])))
    return ExperimentResult(config=cfg, cycles=records, total_rmse=total,
                            total_analysis_seconds=float(sum(r.analysis_seconds for r in records)))


def run_twin_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one full twin experiment: truth, observations, assimilation cycles.

    Only the real members are propagated between cycles; the per-cycle
    RMSE compares the analysis mean against the truth at the cycle end.
    """
    workers = _worker_count()
    model = get_model(cfg.model, cfg.model_overrides)
    obs = ObservationSpec.from_fraction(model.nstate, cfg.p, cfg.obs_std)
    truth0, truths, observations = build_truth_and_observations(cfg, model, obs)
    result = _run_against_truth(cfg, model, obs, truth0, truths, observations, workers)
    if cfg.output:
        write_run_csv(result, cfg.output)
        write_metadata(cfg, cfg.output + ".meta", model)
    return result


def compare_filters(cfgs) -> list:
    """Run several filters against one shared truth and observation set.

    All configs must agree on everything that shapes the truth run and the
    observations, so the comparison is paired. Returns one
    ``(filter, rmse, analysis_seconds)`` row per config.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("no configurations to compare")
    first = cfgs[0]
    if any(c.model != first.model for c in cfgs):
        raise ValueError("heterogeneous model keys")
    shared = ("model_overrides", "n_cycles", "steps_per_cycle", "rng_seed", "p", "obs_std",
              "sigma_b")
    for name in shared:
        if any(getattr(c, name) != getattr(first, name) for c in cfgs):
            raise ValueError(f"configurations disagree on {name}")
    workers = _worker_count()
    model = get_model(first.model, first.model_overrides)
    obs = ObservationSpec.from_fraction(model.nstate, first.p, first.obs_std)
    truth0, truths, observations = build_truth_and_observations(first, model, obs)
    rows = []
    for cfg in cfgs:
        result = _run_against_truth(cfg, model, obs, truth0, truths, observations, workers)
        rows.append((cfg.filter, result.total_rmse, result.total_analysis_seconds))
    return rows


def _fmt(value) -> str:
    return "" if value is None else "%.17g" % float(value)


def write_run_csv(result: ExperimentResult, path) -> None:
    """Per-cycle series in the stable run schema (17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RUN_CSV_HEADER + "\n")
        for rec in result.cycles:
            cells = [str(rec.cycle), _fmt(rec.rmse), _fmt(rec.analysis_seconds)]
            cells += [_fmt(rec.diagnostics.get(key)) for key in _RUN_DIAG_KEYS]
            fh.write(",".join(cells) + "\n")


def write_comparison_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(COMPARE_CSV_HEADER + "\n")
        for name, value, seconds in rows:
            fh.write(f"{name},{_fmt(value)},{_fmt(seconds)}\n")


def write_metadata(cfg: ExperimentConfig, path, model: ModelDefinition, filters=None) -> None:
    """Sidecar recording the fully resolved configuration of a run, or of a
    comparison of the keys ``filters``: it names them all, with the K of the
    shrinkage filters among them."""
    runs = configs_for_filters(cfg, filters) if filters else [cfg]
    items = {
        "model": cfg.model, **({"filters": ",".join(filters)} if filters else {"filter": cfg.filter}),
        "nens": cfg.nens, "synthetic_ratio": cfg.synthetic_ratio,
        "synthetic_members": max(run.synthetic_members for run in runs), "p": cfg.p,
        "sigma_b": cfg.sigma_b, "obs_std": cfg.obs_std, "n_cycles": cfg.n_cycles,
        "steps_per_cycle": cfg.steps_per_cycle, "rng_seed": cfg.rng_seed,
    }
    for key, value in sorted(cfg.model_overrides.items()):
        items[key] = value
    if model.params is not None:
        for f in fields(model.params):
            items[f"resolved_qg_{f.name}"] = getattr(model.params, f.name)
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in items.items():
            fh.write(f"{key} = {value}\n")


def configs_for_filters(base: ExperimentConfig, keys) -> list:
    """Clone a config for each filter key, for paired comparisons."""
    return [replace(base, filter=key) for key in keys]
