"""Ensemble Kalman filtering with shrinkage-estimated background covariances.

The package provides the ensemble statistics, the matrix-free
Rao-Blackwell Ledoit-Wolf (RBLW) shrinkage estimate, synthetic-member
sampling, observation-space solvers, seven analysis filters, two forward
models (Lorenz-96 and quasi-geostrophic), and a twin-experiment harness
with a ``dacli`` command-line front end. ``estimate_shrinkage`` builds the
shrunk covariance that the two shrinkage filters share.
"""

from .ensemble import DeviationMatrix, Ensemble, dense_sample_covariance, deviations, ensemble_mean
from .filters import (FILTER_KEYS, AnalysisResult, enkf_analysis, enkf_du_analysis,
                      enkf_fs_analysis, enkf_n_analysis, enkf_rs_analysis,
                      ensrf_analysis, entkf_analysis, estimate_shrinkage, run_filter)
from .harness import (ExperimentConfig, ExperimentResult, compare_filters,
                      make_initial_ensemble, rmse, run_twin_experiment)
from .models import (ModelDefinition, QgGrid, QgParams, arakawa_jacobian, get_model,
                     lorenz96_tendency, pad, poisson_solve, qg_initial_vorticity,
                     qg_tendency, rk4_step)
from .observations import ObservationSpec
from .sampling import RngStream, draw_synthetic_members, perturb_observations
from .shrinkage import ShrinkageCovariance, deviation_singular_values, rblw_parameters
from .solvers import ObservationSpaceSystem, ensrf_transform, entkf_factors, ismf_solve

__version__ = "0.1.0"
