"""Two-phase approximation of rank-one tensor products from point
evaluations: search for a nonzero point, reconstruct from axis lines,
plus dispersion machinery, budget planners and lower-bound harnesses."""

from .adversary import (FoolingFamily, RandomizedFoolReport, fool_deterministic,
                        fool_randomized)
from .dispersion import (DispersionResult, PointSet, disp_probability_bound,
                         dispersion_lower_estimate, exact_dispersion, halton,
                         n_disp_upper, uniform_pointset)
from .errors import (BudgetExhaustedError, BudgetTooSmallError, ConfigError,
                     DomainError, InstanceTooLargeError, NonzeroCenterError,
                     ParameterError)
from .pipeline import (ExperimentConfig, convergence_sweep, fit_order,
                       run_pipeline, wilson_interval)
from .recovery import (RankOneApproximant, RecoveryConfig, min_budget, recover,
                       required_n2)
from .search import (BudgetPlan, SearchOutcome, SubsetSearchParams, plan,
                     run_search, search_subset, search_uniform_multi,
                     search_uniform_single, subset_success_bound)
from .specs import approximant_to_dict, factor_from_spec, tensor_from_spec
from .tensor import (Box, QueryOracle, RankOneTensor, check_membership,
                     error_upper, sup_distance_bound, sup_norm)
from .univariate import (PiecewisePolynomial, UnivariateFactor,
                         block_chebyshev_nodes, interpolate_line, make_bump,
                         polynomial_factor, table_factor, trig_factor)

__version__ = "0.1.0"
