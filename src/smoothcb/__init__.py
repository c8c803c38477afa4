"""Continuous-action contextual bandits with smoothing-kernel benchmarks."""

from .spaces import ActionSpace
from .losses import (LossFunction, PiecewiseConstantLoss, PiecewiseLinearLoss,
                     SeparableProductLoss, SeparableSumLoss, ShiftedLoss)
from .kernels import BandwidthGrid, RectKernel
from .policies import (PolicyClass, VersionSpace, packing_number,
                       projected_actions, union_ball_volume)
from .environments import (FiniteContexts, SamplerContexts, StochasticEnv,
                           make_named_instance)
from .estimators import (IWSample, iw_estimate, median_of_means,
                         mom_batch_count, mom_error_bound)
from .exp4 import Exp4State, StableExp4
from .elimination import (ElimConfig, SmoothPolicyElimination, SolverFailure,
                          solve_variance_program)
from .corral import CorralMaster, build
from .harness import (RunConfig, RegretTrace, DiagnosticsReport,
                      default_policy_class, diagnose, run_experiment, run_one)

__version__ = "0.1.0"
