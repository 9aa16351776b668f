import logging
from dataclasses import fields

import numpy as np
import pytest

from shrinkda import cli, filters, harness
from shrinkda.ensemble import Ensemble
from shrinkda.filters import AnalysisResult, ensrf_analysis, entkf_analysis
from shrinkda.harness import (ExperimentConfig, RUN_CSV_HEADER, compare_filters,
                              configs_for_filters, make_initial_ensemble, parse_config_file,
                              propagate_matrix, rmse, run_twin_experiment,
                              write_comparison_csv, write_metadata)
from shrinkda.models import QgParams, get_model
from shrinkda.observations import ObservationSpec
from shrinkda.sampling import RngStream, standard_normal


def tiny_config(**kw):
    base = dict(model="l96-8", filter="ensrf", nens=4, p=0.75, sigma_b=0.1,
                n_cycles=3, rng_seed=11, synthetic_ratio=2.0)
    base.update(kw)
    return ExperimentConfig(**base)


def ensrf_rounding_scale(bg, obs):
    """eps cond(M)^2 for the weight matrix M = (nens - 1) I + Q.T R^{-1} Q,
    Q = H U: ensrf's one-analysis rounding against entkf, relative to the
    spread (test_ensrf_entkf_first_cycle_members_agree)."""
    q = obs.project(bg.matrix - bg.matrix.mean(axis=1, keepdims=True))
    weight = (bg.nens - 1) * np.eye(bg.nens) + q.T @ (q / obs.variances[:, None])
    return np.finfo(float).eps * np.linalg.cond(weight)**2


def entkf_rounding_growth(cfg, monkeypatch):
    """The largest per-cycle RMSE change of cfg's entkf run when every
    analysis is moved, in a fixed random direction, by
    ``ensrf_rounding_scale`` times its spread: how far the run carries a
    rounding-size change of each analysis."""
    cfg = configs_for_filters(cfg, ["entkf"])[0]
    plain = run_twin_experiment(cfg)
    gen = np.random.default_rng(0)
    run_filter = harness.run_filter

    def moved(key, bg, y, obs, rng, **kw):
        members = run_filter(key, bg, y, obs, rng, **kw).analysis.matrix
        spread = np.abs(members - members.mean(axis=1, keepdims=True)).max()
        step = ensrf_rounding_scale(bg, obs) * spread
        return AnalysisResult(Ensemble(members + step * gen.standard_normal(members.shape)))

    with monkeypatch.context() as patch:
        patch.setattr(harness, "run_filter", moved)
        perturbed = run_twin_experiment(cfg)
    return max(abs(a.rmse - b.rmse) for a, b in zip(plain.cycles, perturbed.cycles))


class TestRmse:
    def test_exact_match_zero(self):
        xs = [np.ones(4), np.zeros(4)]
        assert rmse(xs, [x.copy() for x in xs]) == 0.0

    def test_single_snapshot_hand_value(self):
        assert rmse([np.array([3.0, 4.0])], [np.zeros(2)]) == 5.0

    def test_matches_summation_oracle(self):
        gen = np.random.default_rng(110)
        a = [gen.standard_normal(6) for _ in range(9)]
        t = [gen.standard_normal(6) for _ in range(9)]
        total = 0.0
        for x, y in zip(a, t):
            for xi, yi in zip(x, y):
                total += (xi - yi) ** 2
        expected = (total / 9) ** 0.5
        assert abs(rmse(a, t) - expected) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            rmse([np.zeros(2)], [np.zeros(2), np.zeros(2)])


class TestMakeInitialEnsemble:
    def test_tiny_sigma_recovers_truth(self):
        gen = np.random.default_rng(111)
        truth = gen.standard_normal(12)
        ens = make_initial_ensemble(truth, 1e-14, 5, RngStream(1))
        assert np.abs(ens.matrix - truth[:, None]).max() < 1e-12

    def test_spread_statistics(self):
        gen = np.random.default_rng(112)
        truth = gen.standard_normal(4) + 2.0
        ens = make_initial_ensemble(truth, 0.1, 100_000, RngStream(2))
        stds = ens.matrix.std(axis=1, ddof=1)
        np.testing.assert_allclose(stds, 0.1 * np.abs(truth), rtol=0.02)

    def test_mean_carries_background_error(self):
        # the ensemble mean deviates from the truth at the sigma scale,
        # not at sigma / sqrt(nens)
        gen = np.random.default_rng(113)
        truth = gen.standard_normal(200) + 3.0
        ens = make_initial_ensemble(truth, 0.1, 400, RngStream(3))
        mean_err = np.linalg.norm(ens.matrix.mean(axis=1) - truth)
        assert mean_err > 0.5 * 0.1 * np.linalg.norm(truth) / np.sqrt(3)

    def test_deterministic(self):
        truth = np.arange(6.0)
        a = make_initial_ensemble(truth, 0.1, 4, RngStream(5))
        b = make_initial_ensemble(truth, 0.1, 4, RngStream(5))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_background_uses_generator_0_and_member_i_generator_i_plus_1(self):
        truth = np.arange(1.0, 7.0)
        rng = RngStream(6, 3)
        ens = make_initial_ensemble(truth, 0.1, 4, rng)
        scale = 0.1 * np.abs(truth)
        gens = rng.member_generators(5)
        background = truth + scale * standard_normal(next(gens), 6)
        for i, gen in enumerate(gens):
            np.testing.assert_array_equal(ens.member(i),
                                          background + scale * standard_normal(gen, 6))


class TestConfigParsing:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# twin experiment\n"
            "model = l96-8\n"
            "filter = enkf-fs   # shrinkage filter\n"
            "nens = 5\n"
            "p = 0.75\n"
            "sigma_b = 0.1\n"
            "n_cycles = 2\n"
            "rng_seed = 7\n"
            "synthetic_ratio = 3\n")
        cfg = ExperimentConfig.from_mapping(parse_config_file(path))
        assert cfg.filter == "enkf-fs"
        assert cfg.nens == 5
        assert cfg.synthetic_members == 15

    def test_unknown_key_rejected(self):
        # a key the harness does not read fails instead of being ignored, so
        # a config cannot ask for a prior or noise model the run does not use
        for key, value in (("bogus", "1"), ("spread_mode", "uniform"), ("obs_noise_std", "0")):
            with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
                ExperimentConfig.from_mapping({"model": "l96-8", "filter": "enkf",
                                               "nens": 4, "p": 0.5, "sigma_b": 0.1,
                                               "n_cycles": 1, "rng_seed": 1, key: value})

    def test_validation(self):
        with pytest.raises(ValueError, match="shrinkage filters"):
            tiny_config(filter="enkf-fs", nens=2)
        with pytest.raises(ValueError, match="unknown filter"):
            tiny_config(filter="kalman")

    def test_model_overrides_forwarded(self):
        cfg = ExperimentConfig.from_mapping({
            "model": "qg-33", "filter": "enkf", "nens": 4, "p": 0.5,
            "sigma_b": 0.1, "n_cycles": 1, "rng_seed": 1, "qg_drag": "0.5"})
        assert cfg.model_overrides == {"qg_drag": "0.5"}

    def test_every_qg_param_settable_and_resolved_in_meta(self, tmp_path):
        keys = {"qg_r": "r", "qg_beta": "beta", "qg_viscosity": "viscosity",
                "qg_drag": "drag", "qg_wind": "wind", "model_dt": "dt"}
        assert sorted(keys.values()) == sorted(f.name for f in fields(QgParams))
        overrides = {key: str(0.25 * (i + 1)) for i, key in enumerate(keys)}
        cfg = tiny_config(model="qg-33", model_overrides=overrides)
        model = get_model(cfg.model, cfg.model_overrides)
        path = tmp_path / "run.meta"
        write_metadata(cfg, path, model)
        meta = dict(line.split(" = ", 1) for line in path.read_text().splitlines())
        for key, name in keys.items():
            assert getattr(model.params, name) == float(overrides[key])
            assert meta[f"resolved_qg_{name}"] == str(float(overrides[key]))
        assert "spread_mode" not in meta and "obs_noise_std" not in meta

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("model = l96-8\nnens = 4\n# comment\nnens = 40\n")
        with pytest.raises(ValueError, match=r"dup\.cfg:4: duplicate key 'nens'"):
            parse_config_file(path)

    def test_missing_required_key_named(self):
        with pytest.raises(ValueError, match=r"missing required key\(s\): nens, rng_seed$"):
            ExperimentConfig.from_mapping({"model": "l96-8", "filter": "enkf", "p": "0.5",
                                           "sigma_b": "0.1", "n_cycles": "1"})

    def test_bad_number_named(self):
        base = {"model": "l96-8", "filter": "enkf", "nens": "4", "p": "0.5",
                "sigma_b": "0.1", "n_cycles": "1", "rng_seed": "1"}
        for key, text in [("nens", "4.5"), ("sigma_b", "tenth")]:
            with pytest.raises(ValueError, match=f"{key} must be .*'{text}'"):
                ExperimentConfig.from_mapping({**base, key: text})


class TestRunTwinExperiment:
    def test_rmse_decreases_with_exact_dense_observations(self):
        # fully observed tiny model, near-exact data, large ensemble:
        # the analysis error must shrink as cycles accumulate
        cfg = ExperimentConfig(model="l96-5", filter="ensrf", nens=8, p=1.0,
                               sigma_b=0.2, n_cycles=10, rng_seed=3, obs_std=1e-3)
        res = run_twin_experiment(cfg)
        series = [r.rmse for r in res.cycles]
        first = np.mean(series[:5])
        last = np.mean(series[5:])
        assert last < first

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "run.csv"
        cfg = tiny_config(filter="enkf-fs", output=str(out))
        res = run_twin_experiment(cfg)
        lines = out.read_text().splitlines()
        assert (tmp_path / "run.csv.meta").exists()
        assert lines[0] == RUN_CSV_HEADER
        assert len(lines) == 1 + cfg.n_cycles
        cells = lines[1].split(",")
        assert len(cells) == 9
        # shrinkage filters fill gamma/phi/delta, never the dual fields
        assert cells[3] != "" and cells[6] == ""
        # deterministic filter leaves diagnostics empty
        out2 = tmp_path / "run2.csv"
        run_twin_experiment(tiny_config(filter="ensrf", output=str(out2)))
        assert out2.read_text().splitlines()[1].split(",")[3] == ""

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "run.csv"
        run_twin_experiment(tiny_config(output=str(out)))
        value = out.read_text().splitlines()[1].split(",")[1]
        assert float(value) > 0
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 15

    def test_propagates_only_real_members(self):
        cfg = tiny_config(filter="enkf-fs", nens=4, synthetic_ratio=5.0)
        res = run_twin_experiment(cfg)
        assert all(np.isfinite(r.rmse) for r in res.cycles)

    def test_model_blow_up_names_cycle_filter_and_layer(self):
        cfg = ExperimentConfig(model="l96-8", filter="enkf", nens=4, p=1.0, sigma_b=1e3,
                               n_cycles=3, rng_seed=1)
        with pytest.raises(RuntimeError,
                           match=r"^cycle 1: enkf forecast failed: model blow-up$"):
            run_twin_experiment(cfg)

    def test_saturated_shrinkage_warns_once_per_run(self, caplog, monkeypatch):
        # RBLW's gamma is kept in cycle 1 and set to 1 from cycle 2 on, so
        # shrinkage saturates in cycles 2 and 3 of each run
        cfg = ExperimentConfig(model="l96-4", filter="enkf-fs", nens=40, p=1.0, sigma_b=0.5,
                               steps_per_cycle=1, n_cycles=3, rng_seed=11,
                               synthetic_ratio=1.0)
        rblw_parameters = filters.rblw_parameters
        calls = []

        def saturated_after_first_call(*args):
            mu, gamma = rblw_parameters(*args)
            calls.append(gamma)
            return mu, gamma if len(calls) == 1 else 1.0

        monkeypatch.setattr(filters, "rblw_parameters", saturated_after_first_call)
        for _ in range(2):
            calls.clear()
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="shrinkda.harness"):
                res = run_twin_experiment(cfg)
            assert [r.diagnostics["gamma"] for r in res.cycles] == [calls[0], 1.0, 1.0]
            assert calls[0] < 1.0
            assert [r.getMessage() for r in caplog.records] == [
                "cycle 2: shrinkage saturated at gamma = 1 (isotropic prior)"]

    def test_bad_thread_count_fails_before_any_work(self, monkeypatch):
        # DACLI_THREADS is read once, before the truth run, and the error
        # carries no cycle or filter prefix
        def truth_run(*_args):
            raise AssertionError("the truth run started")

        monkeypatch.setattr(harness, "build_truth_and_observations", truth_run)
        monkeypatch.setenv("DACLI_THREADS", "two")
        for run in (run_twin_experiment, lambda cfg: compare_filters([cfg])):
            with pytest.raises(ValueError,
                               match=r"^DACLI_THREADS must be a positive integer, not 'two'$"):
                run(tiny_config())

    @pytest.mark.parametrize("seed", [74, 3000001])
    def test_enkf_n_converges_at_small_obs_std(self, seed):
        # with obs_std 0.01 the primal gradient at w = 0 is about 1e6, and
        # rounding leaves the final gradient near machine precision times
        # that, so the abort threshold is relative to it; under an absolute
        # threshold these seeds aborted the first cycle
        cfg = ExperimentConfig(model="l96-1000", filter="enkf-n", nens=40, p=0.7,
                               sigma_b=0.05, n_cycles=1, rng_seed=seed, obs_std=0.01,
                               steps_per_cycle=10)
        res = run_twin_experiment(cfg)
        assert np.isfinite(res.cycles[0].rmse)


class TestCompareFilters:
    def test_single_filter_matches_run(self):
        cfg = tiny_config()
        rows = compare_filters([cfg])
        res = run_twin_experiment(cfg)
        assert rows[0][0] == "ensrf"
        np.testing.assert_allclose(rows[0][1], res.total_rmse, rtol=1e-12)

    def test_ensrf_entkf_agree(self, monkeypatch):
        # the two filters differ only in rounding, which the chaotic 5-cycle
        # run amplifies (gaps of 1.7e-8 to 1.3e-5 at these seeds), so the
        # bound is the run's own growth of rounding-size changes; the
        # total RMSE gap is at most the largest per-cycle gap
        for seed in (11, 1, 2, 3, 4, 5):
            cfg = tiny_config(n_cycles=5, rng_seed=seed)
            (_, ensrf, _), (_, entkf, _) = compare_filters(configs_for_filters(cfg, ["ensrf",
                                                                                    "entkf"]))
            assert abs(ensrf - entkf) < 10.0 * entkf_rounding_growth(cfg, monkeypatch)

    def test_ensrf_entkf_agreement_bound_catches_a_zeta_mismatch(self, monkeypatch):
        # an entkf that takes zeta = nens - 2 for nens - 1 is a real
        # mismatch, and its gap to ensrf is far above the rounding bound
        def entkf_zeta_off_by_one(bg, y, obs):
            mean, u, _, _, lam, vec, proj = filters._ensemble_space_prologue(bg, y, obs)
            eigval = lam + (bg.nens - 2.0)
            return AnalysisResult(filters._transform_analysis(mean, u, vec @ (proj / eigval),
                                                              eigval, vec))

        monkeypatch.setattr(filters, "entkf_analysis", entkf_zeta_off_by_one)
        cfg = tiny_config(n_cycles=5)
        (_, ensrf, _), (_, entkf, _) = compare_filters(configs_for_filters(cfg, ["ensrf",
                                                                                "entkf"]))
        assert abs(ensrf - entkf) > 10.0 * entkf_rounding_growth(cfg, monkeypatch)

    @pytest.mark.parametrize("seed", [11, 1, 2, 3, 4, 5])
    def test_ensrf_entkf_first_cycle_members_agree(self, seed):
        # one analysis of the tiny_config set-up, so no chaotic growth: the
        # members differ by ensrf's rounding, which the weight matrix
        # M = (nens - 1) I + Q.T R^{-1} Q amplifies like eps cond(M)^2
        # (measured 2e-8 to 1.1e-6 of the spread here, at most 0.2 of the bound)
        cfg = tiny_config(n_cycles=1, rng_seed=seed)
        model = get_model(cfg.model)
        obs = ObservationSpec.from_fraction(model.nstate, cfg.p, cfg.obs_std)
        truth0, _, observations = harness.build_truth_and_observations(cfg, model, obs)
        ens = make_initial_ensemble(truth0, cfg.sigma_b, cfg.nens, RngStream(seed))
        bg = Ensemble(propagate_matrix(model, ens.matrix, cfg.steps_per_cycle, workers=1))
        a = ensrf_analysis(bg, observations[0], obs).analysis.matrix
        b = entkf_analysis(bg, observations[0], obs).analysis.matrix
        spread = np.abs(a - a.mean(axis=1, keepdims=True)).max()
        assert np.abs(a - b).max() < ensrf_rounding_scale(bg, obs) * spread

    @pytest.mark.parametrize("obs_std", [1e-4, 1e-5])
    def test_ensrf_runs_with_tiny_observation_error(self, obs_std):
        # V.T Z_V overshoots one by about eps * s^2 / r here (8e-8 and 1e-5
        # in the first cycle), which a fixed 1e-8 margin refused as
        # non-contractive; the Woodbury rounding also keeps ensrf within
        # one obs_std of entkf rather than at its bits
        cfg = ExperimentConfig(model="l96-5", filter="ensrf", nens=8, p=1.0, sigma_b=0.2,
                               n_cycles=10, rng_seed=3, obs_std=obs_std)
        (_, ensrf, _), (_, entkf, _) = compare_filters(configs_for_filters(cfg,
                                                                           ["ensrf", "entkf"]))
        assert entkf < 2.0 * obs_std
        assert abs(ensrf - entkf) < obs_std

    def test_heterogeneous_models_rejected(self):
        cfgs = [tiny_config(), tiny_config(model="l96-9")]
        with pytest.raises(ValueError, match="heterogeneous model keys"):
            compare_filters(cfgs)

    @pytest.mark.parametrize("field,value", [("rng_seed", 99),
                                             ("model_overrides", {"l96_forcing": 9.0})],
                             ids=["rng_seed", "model_overrides"])
    def test_shared_seed_required(self, field, value):
        cfgs = [tiny_config(), tiny_config(**{field: value})]
        with pytest.raises(ValueError, match=f"disagree on {field}"):
            compare_filters(cfgs)

    def test_comparison_csv(self, tmp_path):
        rows = compare_filters(configs_for_filters(tiny_config(), ["ensrf", "enkf"]))
        out = tmp_path / "cmp.csv"
        write_comparison_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "filter,rmse,analysis_seconds"
        assert lines[1].startswith("ensrf,")


class TestPropagation:
    def test_thread_split_matches_serial(self, monkeypatch):
        model = get_model("l96-8")
        gen = np.random.default_rng(115)
        matrix = 8.0 + gen.standard_normal((8, 6))
        serial = propagate_matrix(model, matrix, 5, workers=1)
        for workers in (3, 8):
            # 8 workers for 6 members: one block per member, none empty
            threaded = propagate_matrix(model, matrix, 5, workers=workers)
            np.testing.assert_array_equal(serial, threaded)
        # qg-33: 40 members (300 KiB) run as two 20-member blocks serially
        # and with 2 workers, and as 14/13/13 with 3 workers, so only the
        # 3-worker run changes the batch width; the blocking itself is
        # checked against single columns below
        model = get_model("qg-33")
        truth = model.initial_state()
        matrix = truth[:, None] * (1.0 + 0.05 * gen.standard_normal((model.nstate, 40)))
        serial = propagate_matrix(model, matrix, 2, workers=1)
        for workers in (2, 3):
            threaded = propagate_matrix(model, matrix, 2, workers=workers)
            np.testing.assert_array_equal(serial, threaded)

    def test_blocks_match_single_columns(self):
        # qg-65: 40 members (1.2 MiB) run as 5 blocks of 8 at 1 worker and
        # as 6 blocks of 7 or 6 at 2 and 3 workers; a column advanced on
        # its own is never blocked
        model = get_model("qg-65")
        gen = np.random.default_rng(117)
        truth = model.initial_state()
        matrix = truth[:, None] * (1.0 + 0.05 * gen.standard_normal((model.nstate, 40)))
        oracle = np.column_stack([propagate_matrix(model, column, 2) for column in matrix.T])
        for workers in (1, 2, 3):
            np.testing.assert_array_equal(propagate_matrix(model, matrix, 2, workers=workers),
                                          oracle)

    def test_blow_up_leaves_its_block(self, monkeypatch):
        # only the last member of the last qg-65 block blows up
        model = get_model("qg-65")
        matrix = np.repeat(model.initial_state()[:, None], 40, axis=1)
        matrix[:, -1] *= 1e200
        for workers in (1, 2):
            with pytest.raises(RuntimeError, match="^model blow-up$"):
                propagate_matrix(model, matrix, 1, workers=workers)
        real = harness.make_initial_ensemble

        def blown_up(*args, **kwargs):
            members = real(*args, **kwargs).matrix.copy()
            members[:, -1] *= 1e200
            return Ensemble(members)

        monkeypatch.setattr(harness, "make_initial_ensemble", blown_up)
        cfg = ExperimentConfig(model="qg-65", filter="enkf", nens=40, p=0.5, sigma_b=0.05,
                               steps_per_cycle=1, n_cycles=1, rng_seed=3)
        for threads in ("1", "2"):
            monkeypatch.setenv("DACLI_THREADS", threads)
            with pytest.raises(RuntimeError,
                               match=r"^cycle 1: enkf forecast failed: model blow-up$"):
                run_twin_experiment(cfg)

    def test_env_var_worker_cap(self, monkeypatch):
        monkeypatch.setenv("DACLI_THREADS", "2")
        model = get_model("l96-8")
        gen = np.random.default_rng(116)
        matrix = 8.0 + gen.standard_normal((8, 4))
        out = propagate_matrix(model, matrix, 2)
        np.testing.assert_array_equal(out, propagate_matrix(model, matrix, 2, workers=1))

    def test_env_var_rejects_bad_count(self, monkeypatch):
        # a silent fallback to 1 thread would hide a mistyped value
        model = get_model("l96-8")
        for raw in ("two", "0", "-3"):
            monkeypatch.setenv("DACLI_THREADS", raw)
            with pytest.raises(ValueError, match=f"DACLI_THREADS .*'{raw}'"):
                propagate_matrix(model, np.ones((8, 4)), 1)


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out.csv"
        cfg.write_text(
            "model = l96-8\nfilter = ensrf\nnens = 4\np = 0.75\nsigma_b = 0.1\n"
            f"n_cycles = 2\nrng_seed = 5\noutput = {out}\n")
        code = cli.main(["run", "--config", str(cfg)])
        assert code == 0
        assert out.exists()
        assert "total RMSE" in capsys.readouterr().out

    def test_run_filter_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = l96-8\nfilter = ensrf\nnens = 4\np = 0.75\nsigma_b = 0.1\n"
            "n_cycles = 1\nrng_seed = 5\n")
        assert cli.main(["run", "--config", str(cfg), "--filter", "entkf"]) == 0
        assert "entkf" in capsys.readouterr().out

    def test_compare_command(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.cfg"
        out = tmp_path / "cmp.csv"
        cfg.write_text(
            "model = l96-8\nfilter = ensrf\nfilters = ensrf,entkf\nnens = 4\n"
            f"p = 0.75\nsigma_b = 0.1\nn_cycles = 2\nrng_seed = 5\noutput = {out}\n")
        assert cli.main(["compare", "--config", str(cfg)]) == 0
        assert out.exists()
        assert "entkf" in capsys.readouterr().out

    def test_compare_without_filter_line(self, tmp_path, capsys):
        # compare sets the filter per row, so the config may omit it
        cfg = tmp_path / "cmp.cfg"
        out = tmp_path / "cmp.csv"
        cfg.write_text(
            "model = l96-8\nfilters = ensrf,entkf,enkf\nnens = 4\n"
            f"p = 0.75\nsigma_b = 0.1\nn_cycles = 2\nrng_seed = 5\noutput = {out}\n")
        assert cli.main(["compare", "--config", str(cfg)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["ensrf", "entkf", "enkf"]

    def test_missing_key_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = l96-8\nfilter = ensrf\np = 0.75\nsigma_b = 0.1\n"
                       "n_cycles = 1\nrng_seed = 5\n")
        assert cli.main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config is missing required key(s): nens" in err
        assert "TypeError" not in err and "__init__" not in err

    def test_missing_config_is_runtime_error(self, capsys):
        assert cli.main(["run", "--config", "/nonexistent.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_validate_exit_codes(self, monkeypatch, capsys):
        from shrinkda import validation
        ok = validation.CheckResult(name="stub.pass", passed=True, detail="")
        bad = validation.CheckResult(name="stub.fail", passed=False, detail="boom")
        monkeypatch.setattr(validation, "run_all", lambda: [ok])
        assert cli.main(["validate"]) == 0
        monkeypatch.setattr(validation, "run_all", lambda: [ok, bad])
        assert cli.main(["validate"]) == 2
        assert "FAIL stub.fail" in capsys.readouterr().out
