"""beliefdyn: evolution of beliefs over network and concept structures.

A society is a row-stochastic triple (P, M, H): who listens to whom, what
each person believes over a set of concepts, and how concepts blur into
each other over time.  Beliefs evolve as products Q_n = P_n ... P_1 M
H_1 ... H_n.  The package covers static structures (closed-form limits and
rate certificates), randomly sampled structures (almost-sure consensus
criteria, seeded simulation, expectation dynamics), and homophily-driven
structures that rebuild themselves from the current beliefs, together with
the KL-cluster lower bound on how many belief groups can survive.
"""

__version__ = "0.1.0"

from .chains import ChainAnalysis, analyze, graph_of, one_leaf_connected, union_graph
from .clusters import (ClusterPartition, epsilon_kl_clusters,
                       min_kl_hull_to_hull, min_kl_hull_to_point)
from .ergodic import (RateCertificate, all_products_sia, ergodic_coefficient,
                      contraction_coefficient, exists_scrambling_product,
                      homogeneous_rate_certificate,
                      inhomogeneous_rate_certificate, is_scrambling, is_sia,
                      nu_star, subdominant_modulus)
from .homogeneous import (EvolutionTrace, LimitReport, absorption_probabilities,
                          evolve, limit_q, stationary_distribution)
from .homophily import (HomophilyConfig, HomophilyTrace, StepLimitReached,
                        build_concepts, build_network, kl_divergence,
                        run_homophily, softmax_weights)
from .sampling import (ConvergenceDiagnosis, SampledRun, diagnose_convergence,
                       expectation_matrix, expected_limit, sample_trajectories,
                       sample_trajectory)
from .stochastic import (MatrixFamily, col_normalize, delta_coefficient,
                         ingest_rounded, matrix_power, max_abs_diff, multiply,
                         row_normalize, validate_stochastic)
from .ternary import render_ternary

__all__ = [
    "__version__",
    "ChainAnalysis", "analyze", "graph_of", "one_leaf_connected", "union_graph",
    "ClusterPartition", "epsilon_kl_clusters", "min_kl_hull_to_hull",
    "min_kl_hull_to_point",
    "RateCertificate", "all_products_sia", "ergodic_coefficient",
    "contraction_coefficient", "exists_scrambling_product",
    "homogeneous_rate_certificate", "inhomogeneous_rate_certificate",
    "is_scrambling", "is_sia", "nu_star", "subdominant_modulus",
    "EvolutionTrace", "LimitReport", "absorption_probabilities", "evolve",
    "limit_q", "stationary_distribution",
    "HomophilyConfig", "HomophilyTrace", "StepLimitReached", "build_concepts",
    "build_network", "kl_divergence", "run_homophily", "softmax_weights",
    "ConvergenceDiagnosis", "SampledRun", "diagnose_convergence",
    "expectation_matrix", "expected_limit", "sample_trajectories",
    "sample_trajectory",
    "MatrixFamily", "col_normalize", "delta_coefficient", "ingest_rounded",
    "matrix_power", "max_abs_diff", "multiply", "row_normalize",
    "validate_stochastic",
    "render_ternary",
]
