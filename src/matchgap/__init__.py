"""matchgap: empirical certification of correlation-gap lower bounds for
matchings in independent random graphs.

The library builds random-graph instances whose edges appear
independently, computes exact and Monte Carlo estimates of
E[max matching weight] / (fractional value), runs the local
mass-distribution schemes over optimal fractional vertex covers, and
certifies the analytic floors (0.476 / 0.467 unweighted bipartite,
1 - 3/(2e) weighted bipartite, (e^2 - 1)/(2e^2) weighted general) on
grids and instance sweeps.
"""

from .model import (Instance, PotentialEdge, PolytopeReport, OddSetCheckInfeasible,
                    fractional_value, validate_polytope, vertex_loads,
                    instance_to_dict, instance_from_dict, dump_instance)
from .sampling import (SampledGraph, SupportTooLarge, sample, support_probabilities,
                       realization_block, realization_blocks)
from .matching import (Matching, FractionalVertexCover, MatchingCutoffExceeded,
                       max_weight_matching_bipartite, max_weight_matching_general,
                       matching_value, matching_values_over_subsets)
from .schemes import (DEFAULT_TRANSFER, MassVector, AuditReport, AuditViolation,
                      weighted_scheme, unweighted_scheme, audit_masses)
from .kernels import (KernelConfig, CheckReport, WeightedKernelConstant,
                      poisson_binomial_pmf, poisson_binomial_pmfs, inv_max_expectation,
                      gain_margins, check_gain_ratios,
                      verify_kernel_minimizer, verify_uniform_minimizer,
                      verify_equal_split, poisson_truncated_series,
                      envelope_ratio, check_unweighted_envelope,
                      weighted_kernel_constant, binomial_max1_kernel,
                      check_local_derivative_bound,
                      phi_curve, check_phi_differential,
                      UNWEIGHTED_BIPARTITE_TARGET, UNWEIGHTED_BIPARTITE_CERTIFIED,
                      WEIGHTED_BIPARTITE_FLOOR, GENERAL_GRAPH_FLOOR)
from .estimate import (RatioEstimate, ZeroDenominator, exact_ratio, mc_ratio,
                       expected_matching_value, per_edge_certificate,
                       per_edge_certificates, per_edge_masses_exact, ratio_floor)
from .gallery import (gen_karp_sipser, gen_pendant_star, gen_equal_split_star,
                      gen_random_point)
from .cli import run_verify_suite

__version__ = "0.1.0"
