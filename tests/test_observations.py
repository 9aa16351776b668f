import numpy as np
import pytest

from shrinkda.observations import ObservationSpec


class TestObservationSpec:
    def test_from_fraction_counts(self):
        obs = ObservationSpec.from_fraction(961, 0.7, 0.01)
        assert obs.nobs == round(0.7 * 961)
        assert np.all(np.diff(obs.indices) > 0)
        assert obs.indices[0] >= 0 and obs.indices[-1] < 961
        np.testing.assert_array_equal(obs.variances, np.full(obs.nobs, 0.01**2))

    def test_full_coverage(self):
        obs = ObservationSpec.from_fraction(10, 1.0, 0.1)
        np.testing.assert_array_equal(obs.indices, np.arange(10))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            ObservationSpec.from_fraction(10, 0.0, 0.1)
        with pytest.raises(ValueError, match="fraction"):
            ObservationSpec.from_fraction(10, 1.2, 0.1)

    def test_invariants(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ObservationSpec(nstate=5, indices=np.array([0, 0, 1]),
                            variances=np.ones(3))
        with pytest.raises(ValueError, match="lie in"):
            ObservationSpec(nstate=5, indices=np.array([0, 5]),
                            variances=np.ones(2))
        with pytest.raises(ValueError, match="positive"):
            ObservationSpec(nstate=5, indices=np.array([0, 1]),
                            variances=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_variance_rejected(self, bad):
        # a nan variance passes a plain <= 0 test
        with pytest.raises(ValueError, match="observation variances must be finite and positive"):
            ObservationSpec(nstate=5, indices=np.array([0, 1]),
                            variances=np.array([1.0, bad]))
        with pytest.raises(ValueError, match="observation variances must be finite and positive"):
            ObservationSpec.from_fraction(5, 0.4, bad)

    def test_overflowing_square_is_a_value_error(self):
        # a Python float's ** raises OverflowError where * would give inf
        with pytest.raises(ValueError, match="obs_std 1e[+]200 squares past the float range"):
            ObservationSpec.from_fraction(5, 0.4, 1e200)

    def test_project_matrix(self):
        obs = ObservationSpec(nstate=4, indices=np.array([1, 3]),
                              variances=np.ones(2))
        m = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(obs.project(m), m[[1, 3]])

    def test_selection_rows_orthonormal(self):
        obs = ObservationSpec.from_fraction(9, 0.6, 0.1)
        h = np.zeros((obs.nobs, 9))
        h[np.arange(obs.nobs), obs.indices] = 1.0
        np.testing.assert_array_equal(h @ h.T, np.eye(obs.nobs))
