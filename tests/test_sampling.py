import numpy as np
import pytest

from shrinkda.ensemble import DeviationMatrix, deviations
from shrinkda.observations import ObservationSpec
from shrinkda.sampling import (ExtendedEnsemble, RngStream, draw_synthetic_members,
                               extend_ensemble, group_basis, haar_frame, member_normals,
                               normal_block, perturb_observations, standard_normal,
                               wishart_root)
from shrinkda.shrinkage import ShrinkageCovariance

from helpers import random_ensemble


def make_cov(gen, nstate, nens, mu=1.0, gamma=0.3):
    """Shrinkage with phi = mu * gamma and delta = 1 - gamma."""
    devs = deviations(random_ensemble(gen, nstate, nens))
    return ShrinkageCovariance(mu=mu, gamma=gamma, deviations=devs)


def first_generator(stream):
    (gen,) = stream.member_generators(1)
    return gen


class TestRngStream:
    def test_same_ids_reproduce(self):
        a = first_generator(RngStream(123, 4)).integers(0, 1 << 31, 16)
        b = first_generator(RngStream(123, 4)).integers(0, 1 << 31, 16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = first_generator(RngStream(123, 4)).integers(0, 1 << 31, 16)
        b = first_generator(RngStream(123, 5)).integers(0, 1 << 31, 16)
        assert not np.array_equal(a, b)

    def test_child_paths_distinct_and_stable(self):
        s = RngStream(7)
        assert s.child(1, 2) == s.child(1, 2)
        assert s.child(1, 2) != s.child(2, 1)
        assert s.child(1) != s.child(1, 0)

    def test_member_generators_independent(self):
        s = RngStream(7, 3)
        a, b = (g.integers(0, 1 << 31, 8) for g in s.member_generators(2))
        assert not np.array_equal(a, b)
        (first,) = s.member_generators(1)
        np.testing.assert_array_equal(a, first.integers(0, 1 << 31, 8))

    def test_standard_normal_moments(self):
        z = standard_normal(first_generator(RngStream(11)), 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_member_normals_column_i_is_member_generator_i(self):
        rng = RngStream(5, 2)
        block = member_normals(rng, 6, 9)
        assert block.shape == (9, 6) and block.flags.f_contiguous
        for i, gen in enumerate(rng.member_generators(6)):
            np.testing.assert_array_equal(block[:, i], standard_normal(gen, 9))
        # the first columns do not depend on how many members are drawn
        np.testing.assert_array_equal(member_normals(rng, 2, 9), block[:, :2])

    @pytest.mark.parametrize("count", [1, 40, 400])
    def test_member_normals_match_jumped_generators(self, count):
        # one rewound and advanced Philox against independent jumped copies
        rng = RngStream(31, 8)
        block = member_normals(rng, count, 1001)
        expected = np.column_stack([standard_normal(gen, 1001)
                                    for gen in rng.member_generators(count)])
        np.testing.assert_array_equal(block, expected)

    def test_member_normals_offset_selects_columns_of_the_whole_block(self):
        # the chunked synthetic draw asks for members first..first+count-1
        rng = RngStream(5, 3)
        block = member_normals(rng, 10, 9)
        for first, count in [(0, 10), (3, 4), (9, 1), (10, 0)]:
            np.testing.assert_array_equal(member_normals(rng, count, 9, first=first),
                                          block[:, first:first + count])

    def test_standard_normal_is_the_generators_ziggurat(self):
        # member 3 of stream (19, 4) is a Philox seeded from that seed
        # sequence and jumped 3 times; the draw is the Generator's own
        # standard_normal, also after part of its output buffer is consumed
        jumped = np.random.Philox(seed=np.random.SeedSequence(entropy=19, spawn_key=(4,)))
        ref = np.random.Generator(jumped.jumped(3))
        gen = list(RngStream(19, 4).member_generators(4))[3]
        for g in (gen, ref):
            g.integers(0, 10, dtype=np.int32)
            g.standard_normal(3)
        np.testing.assert_array_equal(standard_normal(gen, 1001), ref.standard_normal(1001))

    @pytest.mark.parametrize("n1, n2", [(961, 40), (3, 1998)])
    def test_standard_normal_calls_concatenate(self, n1, n2):
        # the synthetic draw takes a member's eps1 and eps2 in one call of
        # nstate + nens, the validation suite in two
        one, two = (first_generator(RngStream(23, 6)) for _ in range(2))
        np.testing.assert_array_equal(
            np.concatenate([standard_normal(two, n1), standard_normal(two, n2)]),
            standard_normal(one, n1 + n2))

    def test_member_normals_golden_values(self):
        # fixed values of the stream layout; any change to seeding, member
        # addressing or numpy's normal sampler (NEP 19 allows one between
        # numpy versions) moves them
        block = member_normals(RngStream(7, 2), 3, 5)
        np.testing.assert_array_equal(block[[0, 1, 4], 0],
                                      [-0.7969519139059715, 0.02463804932539474,
                                       -0.5171573830510016])
        np.testing.assert_array_equal(block[[0, 3], 1],
                                      [-0.19361427959317568, 1.325675730559669])
        np.testing.assert_array_equal(block[[2, 4], 2],
                                      [1.6025925539054202, -0.783210261207971])


class TestDrawSyntheticMembers:
    def test_zero_parameters_draw_zeros(self):
        # phi = delta = 0: every deviation is zero
        gen = np.random.default_rng(40)
        cov = make_cov(gen, 8, 4, mu=0.0, gamma=1.0)
        draws = draw_synthetic_members(cov, 5, RngStream(1))
        np.testing.assert_array_equal(draws, np.zeros((8, 5)))

    def test_k_zero_empty(self):
        gen = np.random.default_rng(41)
        cov = make_cov(gen, 8, 4)
        draws = draw_synthetic_members(cov, 0, RngStream(1))
        assert draws.shape == (8, 0)

    @pytest.mark.parametrize("nstate,nens,k", [(40, 20, k) for k in (0, 1, 7, 64, 65, 401)]
                             + [(961, 40, 400)])
    def test_chunked_draw_equals_whole_block_formula(self, nstate, nens, k):
        # members are drawn SYNTHETIC_CHUNK at a time; the chunks' S @ eps2
        # columns carry the bits of one whole-block product at the l96-40
        # and qg-33 shapes of the compares (k = 1 stays a one-column product
        # either way). On OpenBLAS, whole-block products of some other
        # widths (k = 300, 401 at nstate 961) round their last columns
        # differently, so the shapes here are the ones the runs use.
        gen = np.random.default_rng(42)
        cov = make_cov(gen, nstate, nens, mu=1.3, gamma=0.4)
        rng = RngStream(9, 2)
        eps = member_normals(rng, k, nstate + nens)
        whole = ((cov.deviations.columns @ eps[nstate:]) * np.sqrt(cov.delta)
                 + eps[:nstate] * np.sqrt(cov.phi))
        np.testing.assert_array_equal(draw_synthetic_members(cov, k, rng), whole)

    def test_draws_into_a_given_array(self):
        # the shrinkage filters draw into the synthetic columns of their
        # one extended-anomaly buffer
        gen = np.random.default_rng(43)
        cov = make_cov(gen, 8, 4)
        buffer = np.zeros((8, 4 + 70))
        out = draw_synthetic_members(cov, 70, RngStream(2), out=buffer[:, 4:])
        assert out.base is buffer and not np.any(buffer[:, :4])
        np.testing.assert_array_equal(buffer[:, 4:], draw_synthetic_members(cov, 70, RngStream(2)))
        with pytest.raises(ValueError, match="out must be"):
            draw_synthetic_members(cov, 70, RngStream(2), out=buffer)


    def test_non_finite_chunk_refused(self):
        # deviations near the float range overflow S @ eps2 in the first
        # chunk; the draw stops there, whether it writes a new array or a
        # column-major buffer
        gen = np.random.default_rng(45)
        cov = make_cov(gen, 8, 4)
        with np.errstate(over="ignore", invalid="ignore"):
            huge = ShrinkageCovariance(mu=1.0, gamma=0.5, deviations=DeviationMatrix(
                np.tile([1.5e308, -1.5e308, 1.5e308, -1.5e308], (8, 1))))
            for out in (None, np.empty((8, 100), order="F")):
                with pytest.raises(ValueError, match="synthetic members contain non-finite entries"):
                    draw_synthetic_members(huge, 100, RngStream(3), out=out)
        assert np.all(np.isfinite(draw_synthetic_members(cov, 100, RngStream(3))))

    def test_row_and_column_major_draws_agree_to_rounding(self):
        # BLAS rounds S @ eps2 differently into the two layouts
        gen = np.random.default_rng(48)
        cov = make_cov(gen, 961, 40, mu=1.3, gamma=0.4)
        row_major = draw_synthetic_members(cov, 130, RngStream(6))
        column_major = draw_synthetic_members(cov, 130, RngStream(6),
                                              out=np.empty((961, 130), order="F"))
        np.testing.assert_allclose(column_major, row_major, rtol=0,
                                   atol=1e-14 * np.abs(row_major).max())

    def test_chosen_rows_draw_their_own_normals(self):
        # a draw on some rows takes nrows + nens normals a member, eps1 on
        # those rows then eps2, and hands the eps2 block back
        gen = np.random.default_rng(44)
        cov = make_cov(gen, 30, 5, mu=1.3, gamma=0.4)
        rows = np.array([0, 3, 4, 17, 29])
        rng = RngStream(9, 3)
        eps = member_normals(rng, 70, rows.size + 5)
        eps2 = np.empty((5, 70))
        draws = draw_synthetic_members(cov, 70, rng, rows=rows, eps2=eps2)
        expected = ((cov.deviations.columns[rows] @ eps[rows.size:]) * np.sqrt(cov.delta)
                    + eps[:rows.size] * np.sqrt(cov.phi))
        np.testing.assert_allclose(draws, expected, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(eps2, eps[rows.size:])
        with pytest.raises(ValueError, match="eps2 must be"):
            draw_synthetic_members(cov, 70, rng, rows=rows, eps2=eps2[:, 1:])


class TestCompressedDraws:
    """The helpers behind the reduced-space step's draws."""

    @staticmethod
    def columns(gen, case):
        s = deviations(random_ensemble(gen, 60, 6)).columns
        d = gen.standard_normal((60, 6))
        if case == "zero-data":
            d[:] = 0.0
        elif case == "repeated-column":
            d[:, 3] = d[:, 1]
            s = np.hstack([s, s[:, :1]])
        elif case == "scales-1e8-apart":
            s = 1e8 * s
        return np.hstack([s, d])

    @pytest.mark.parametrize("case, rank", [("zero-data", 5), ("repeated-column", 10),
                                            ("scales-1e8-apart", 11)])
    def test_group_basis_orthonormal_and_spanning(self, case, rank):
        # the deviations sum to zero across members, so they have rank 5
        m = self.columns(np.random.default_rng(61), case)
        basis = group_basis(m)
        assert basis.shape == (60, rank)
        assert np.abs(basis.T @ basis - np.eye(rank)).max() < 1e-12
        # every column lies in the span, relative to its own scale
        residual = m - basis @ (basis.T @ m)
        scale = np.maximum(np.abs(m).max(axis=0), 1e-300)
        assert (np.abs(residual).max(axis=0) / scale).max() < 1e-12

    def test_group_basis_of_zero_columns_is_empty(self):
        assert group_basis(np.zeros((7, 3))).shape == (7, 0)

    @pytest.mark.parametrize("nu, k", [(12, 4), (3, 5)], ids=["bartlett", "explicit"])
    def test_wishart_root_gram_has_mean_nu_identity(self, nu, k):
        # E[R.T R] = nu I, with Var = 2 nu on the diagonal and nu off it; the
        # sample mean of 4000 Grams stays within 5 standard errors
        draws = 4000
        grams = np.array([(lambda r: r.T @ r)(wishart_root(RngStream(seed), nu, k))
                          for seed in range(draws)])
        root = wishart_root(RngStream(0), nu, k)
        assert root.shape == (min(nu, k), k)
        if nu >= k:
            np.testing.assert_array_equal(root, np.triu(root))
            assert np.all(np.diag(root) > 0.0)
        err = (grams.mean(0) - nu * np.eye(k)) / np.sqrt(nu * (1.0 + np.eye(k)) / draws)
        assert np.abs(err).max() < 5.0

    def test_haar_frame_orthonormal_off_the_basis(self):
        gen = np.random.default_rng(62)
        basis = group_basis(gen.standard_normal((30, 8)))
        frame = haar_frame(RngStream(3), basis, 22)
        assert np.abs(frame.T @ frame - np.eye(22)).max() < 1e-12
        assert np.abs(basis.T @ frame).max() < 1e-12

    def test_normal_block_is_consecutive_members_normals(self):
        # 20000 normals take three members of NORMAL_BLOCK_CHUNK (8192)
        block = normal_block(RngStream(4), 100, 200)
        assert block.shape == (100, 200) and block.flags.f_contiguous
        np.testing.assert_array_equal(block.ravel(order="F"),
                                      member_normals(RngStream(4), 3, 8192).ravel(order="F")[:20000])
        assert normal_block(RngStream(4), 0, 7).shape == (0, 7)


class TestExtendEnsemble:
    def test_empty_synthetic(self):
        gen = np.random.default_rng(46)
        ens = random_ensemble(gen, 6, 3)
        ext = extend_ensemble(ens, [])
        assert ext.nk == 3

    def test_ordering(self):
        gen = np.random.default_rng(47)
        ens = random_ensemble(gen, 5, 3)
        syn = gen.standard_normal((5, 2))
        ext = extend_ensemble(ens, syn)
        assert ext.nk == 5
        mean = ens.matrix.mean(axis=1)
        np.testing.assert_array_equal(ext.anomalies()[:, 1], ens.member(1) - mean)
        np.testing.assert_array_equal(ext.anomalies()[:, 3], syn[:, 0] - mean)

    def test_dimension_mismatch(self):
        # a block and a single 1-D draw, which becomes one column, meet the
        # one row check ExtendedEnsemble makes
        gen = np.random.default_rng(48)
        ens = random_ensemble(gen, 5, 3)
        for syn in (gen.standard_normal((6, 2)), gen.standard_normal(4)):
            with pytest.raises(ValueError, match=r"synthetic members must be \(nstate, k\)"):
                extend_ensemble(ens, syn)
        assert extend_ensemble(ens, gen.standard_normal(5)).nk == 4

    def test_anomalies_about_real_mean(self):
        gen = np.random.default_rng(49)
        ens = random_ensemble(gen, 7, 4)
        syn = gen.standard_normal((7, 3))
        ext = extend_ensemble(ens, syn)
        mean = ens.matrix.mean(axis=1)
        # brute-force build, member by member
        expected = np.column_stack(
            [ens.member(i) - mean for i in range(4)]
            + [syn[:, j] - mean for j in range(3)])
        np.testing.assert_allclose(ext.anomalies(), expected, atol=1e-14)
        np.testing.assert_allclose(ext.scaled_deviations(),
                                   expected / np.sqrt(ext.nk - 1), atol=1e-14)


class TestPerturbObservations:
    def _obs(self, n, std):
        return ObservationSpec(nstate=n, indices=np.arange(n),
                               variances=np.full(n, std**2))

    def test_zero_variance_limit(self):
        # variances must stay positive; exercise the noise-free limit via tiny std
        obs = self._obs(4, 1e-150)
        y = np.arange(4.0)
        out = perturb_observations(y, obs, 3, RngStream(1))
        np.testing.assert_allclose(out, np.tile(y[:, None], 3), atol=1e-140)

    def test_sample_std(self):
        obs = self._obs(3, 0.01)
        out = perturb_observations(np.zeros(3), obs, 100_000, RngStream(2))
        stds = out.std(axis=1, ddof=1)
        assert np.all(np.abs(stds - 0.01) < 0.0002)

    def test_member_i_uses_member_generator_i(self):
        obs = self._obs(5, 0.3)
        y = np.arange(5.0)
        rng = RngStream(9, 1)
        std = np.sqrt(obs.variances)
        expected = np.column_stack([y + std * standard_normal(gen, 5)
                                    for gen in rng.member_generators(4)])
        np.testing.assert_array_equal(perturb_observations(y, obs, 4, rng), expected)

    def test_deterministic(self):
        obs = self._obs(5, 0.3)
        y = np.ones(5)
        a = perturb_observations(y, obs, 6, RngStream(9, 1))
        b = perturb_observations(y, obs, 6, RngStream(9, 1))
        np.testing.assert_array_equal(a, b)


class TestExtendedEnsembleType:
    def test_counts(self):
        gen = np.random.default_rng(50)
        ens = random_ensemble(gen, 4, 3)
        ext = ExtendedEnsemble(real=ens, synthetic=gen.standard_normal((4, 2)))
        assert ext.nk == 5

    def test_synthetic_block_frozen_in_place(self):
        gen = np.random.default_rng(52)
        ens = random_ensemble(gen, 4, 3)
        syn = gen.standard_normal((4, 2))
        stored = extend_ensemble(ens, syn).synthetic
        assert np.shares_memory(stored, syn)
        assert not stored.flags.writeable

    def test_rejects_bad_shapes(self):
        gen = np.random.default_rng(51)
        ens = random_ensemble(gen, 4, 3)
        with pytest.raises(ValueError):
            ExtendedEnsemble(real=ens, synthetic=gen.standard_normal((3, 2)))
