"""beliefdyn: evolution of beliefs over network and concept structures.

A society is a row-stochastic triple (P, M, H): who listens to whom, what
each person believes over a set of concepts, and how concepts blur into
each other over time.  Beliefs evolve as products Q_n = P_n ... P_1 M
H_1 ... H_n.  The package covers static structures (closed-form limits and
rate certificates), randomly sampled structures (almost-sure consensus
criteria, seeded simulation, expectation dynamics), and homophily-driven
structures that rebuild themselves from the current beliefs, together with
the KL-cluster lower bound on how many belief groups can survive when the
concept structure is frozen.
"""

__version__ = "0.1.0"

import types

from .chains import ChainAnalysis, analyze, graph_of
from .clusters import (ClusterPartition, epsilon_kl_clusters,
                       min_kl_hull_to_hull, min_kl_hull_to_point)
from .ergodic import (RateCertificate, contraction_coefficient,
                      ergodic_coefficient, exists_scrambling_product,
                      homogeneous_rate_certificate,
                      inhomogeneous_rate_certificate, is_scrambling, is_sia,
                      nu_star, subdominant_modulus)
from .homogeneous import (EvolutionTrace, LimitReport, absorption_probabilities,
                          evolve, limit_q, stationary_distribution)
from .homophily import (HomophilyConfig, build_concepts, build_network,
                        kl_divergence, run_homophily, softmax_weights)
from .sampling import (ConvergenceDiagnosis, SampledRun, diagnose_convergence,
                       expectation_matrix, expected_limit, sample_trajectories,
                       sample_trajectory)
from .stochastic import (MatrixFamily, col_normalize, delta_coefficient,
                         ingest_rounded, matrix_power, max_abs_diff, multiply,
                         validate_stochastic)
from .ternary import render_ternary

# every public name imported above; submodules are not exported
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType))
