"""Set-valued stochastic approximation: recursion engines over set-valued
maps, weighted occupation measures with their diagnostics, explicit
integration of the underlying velocity inclusion, and finite-action game
dynamics."""

from .engine import (NoiseModel, StepSchedule, Trajectory, run_fictitious_play,
                     run_sa, run_sgd, run_shb, shb_flow_map,
                     shb_single_variable_coefficients)
from .flow import (Curve, euler_di, limit_set_estimate, lyapunov_check,
                   recurrence_proxy, stable_zero_check)
from .games import (Game, best_response, builtin_games, game_from_json,
                    game_map, game_to_json, generalized_rps, matching_pennies,
                    potential_2x2, strategy_draw)
from .geometry import (Polytope, contains, distance_to_hull, min_norm_point,
                       project_to_hull, support_value, wolfe_certificate)
from .maps import (MaxOfSmoothFunction, SetValuedMap, SmoothPiece, abs_value,
                   clarke_map, clarke_subdifferential, enlargement_sample,
                   enlargement_slack, half_square_norm, max_of_squares, negate,
                   singleton_map)
from .occupation import (Ball, Box, OccupationMeasure, TestFunctionBank,
                         UndefinedEstimateError, WeightFunction, accumulate,
                         centroid_field_estimate, centroid_membership_gap,
                         circulation, closed_residual,
                         essential_accumulation_estimate, interpolated_residual,
                         interpolation_bound, load_checkpoint,
                         oscillation_statistic, plugin_bandwidth, residence_time,
                         save_checkpoint, velocity_moment)

__version__ = "0.1.0"
