"""Belief-dependent dynamic structures driven by KL-divergence homophily.

Each step rebuilds both structures from the current beliefs M:

* network: person i links to person j when KL(row_i, row_j) < eps_p; the
  weights over the linked set are a softmax of the divergences (self link
  always present, divergence 0);
* concepts: concept k links to concept l when the KL divergence between
  the corresponding columns of the column-normalized beliefs is below
  eps_h, weighted the same way;

then beliefs update as Q_t = P_t Q_{t-1} H_t and become the M of the next
step.  The loop stops when successive beliefs differ by less than ``tol``
in max-norm, and reports the final network components as groups.

Tie policy: a pair of points is decided by ``_pairwise_kl < eps`` alone.
That array formula rounds differently from a per-pair
:func:`kl_divergence`, so a divergence within about 1e-15 of eps may
resolve differently between the two.  The diagonal is set to exactly 0,
so self links always hold.
"""

import numpy as np

from .chains import _levels
from .homogeneous import _run
from .stochastic import DimensionMismatchError, col_normalize, validate_stochastic

FLOOR = 1e-12               # smallest probability a divergence reads


class InfiniteDivergenceError(ValueError):
    """KL is infinite: q has a zero where p has mass and no floor is set."""


class EmptySubsetError(ValueError):
    """Softmax weighting needs a nonempty linked subset."""


class StepLimitReached(RuntimeError):
    """No stabilization within max_steps; carries the partial trace."""

    def __init__(self, trace):
        self.trace = trace
        super().__init__(f"no stabilization within {len(trace.beliefs) - 1} steps")


class HomophilyConfig:
    """Thresholds and knobs of the homophily iteration, validated and immutable.

    ``beta`` is the softmax inverse temperature (0 gives uniform weights
    over the linked set; it must be finite).  ``freeze_network`` /
    ``freeze_concepts`` pin the corresponding structure to the identity,
    which is how the one-sided group bounds are exercised.
    """

    def __init__(self, eps_p, eps_h, beta=1.0, tol=1e-9, max_steps=100,
                 freeze_network=False, freeze_concepts=False):
        # written as "not ..." so that NaN fails them too
        if not (eps_p > 0 and eps_h > 0):
            raise ValueError("similarity thresholds eps_p and eps_h must be positive")
        if not 0 <= beta < np.inf:
            raise ValueError("beta must be nonnegative and finite")
        if not tol > 0:
            raise ValueError("tol must be positive")
        if max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        vars(self).update(eps_p=eps_p, eps_h=eps_h, beta=beta, tol=tol, max_steps=max_steps,
                          freeze_network=freeze_network, freeze_concepts=freeze_concepts)

    def __setattr__(self, name, value):
        raise AttributeError(f"HomophilyConfig is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"HomophilyConfig is immutable: cannot delete {name}")


def _floored(x, floor=FLOOR):
    """``x`` clipped below at ``floor``, renormalized along the last axis.

    Every floored KL in this module, clusters and ternary reads its inputs
    through here, which keeps KL finite where products underflow to zero.
    """
    x = np.maximum(np.asarray(x, dtype=float), floor)
    return x / x.sum(axis=-1, keepdims=True)


def kl_divergence(p, q, floor=0.0):
    """Kullback-Leibler divergence sum p_k log(p_k / q_k), natural log.

    With ``floor`` > 0 both arguments are clipped below at the floor and
    renormalized first.  Terms with p_k = 0 contribute nothing.  With
    floor = 0, a zero in q against positive p raises
    :class:`InfiniteDivergenceError`.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise DimensionMismatchError(f"shapes {p.shape} and {q.shape}")
    if floor > 0:
        p, q = _floored(p, floor), _floored(q, floor)
    mask = p > 0
    if np.any(q[mask] == 0):
        raise InfiniteDivergenceError("q vanishes where p has mass (floor = 0)")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def softmax_weights(divs, beta):
    """Softmax of negated divergences over a linked subset.

    Computed with a shift for numerical stability; beta = 0 degenerates to
    uniform weights.
    """
    divs = np.asarray(divs, dtype=float)
    if divs.size == 0:
        raise EmptySubsetError("softmax over an empty subset")
    z = np.exp(-beta * (divs - divs.min()))
    return z / z.sum()


def _pairwise_kl(x):
    """Matrix of KL(x_i, x_j) over the rows of x; the diagonal is exactly 0.

    Rows are floored as :func:`kl_divergence` with ``floor=FLOOR`` floors
    each pair, then ``D = rowsum(X log X) - X (log X)^T`` gives every
    divergence from one product.
    """
    x = _floored(x)
    log_x = np.log(x)
    divs = np.sum(x * log_x, axis=1)[:, None] - x @ log_x.T
    np.fill_diagonal(divs, 0.0)
    return divs


def _homophily_structure(points, eps, cfg):
    """Threshold-and-softmax structure over the rows of ``points``."""
    divs = _pairwise_kl(points)
    linked = divs < eps           # strict; self always qualifies at 0
    shift = np.where(linked, divs, np.inf).min(axis=1, keepdims=True)
    out = np.where(linked, np.exp(-cfg.beta * (divs - shift)), 0.0)
    # each row is softmax_weights over its linked set; the second division
    # absorbs rounding drift
    out = out / out.sum(axis=1, keepdims=True)
    return out / out.sum(axis=1, keepdims=True)


def build_network(m, cfg):
    """Network structure over people from the rows of the beliefs."""
    m = validate_stochastic(m, tol=1e-7)
    return _homophily_structure(m, cfg.eps_p, cfg)


def build_concepts(m, cfg):
    """Concept structure from the columns of the column-normalized beliefs.

    Each column, rescaled to sum to 1, is read as a distribution over
    people; concepts whose columns diverge by less than eps_h get linked.
    """
    m = validate_stochastic(m, tol=1e-7)
    mhat = col_normalize(m)
    return _homophily_structure(mhat.T, cfg.eps_h, cfg)


def network_groups(p):
    """Weakly connected components of a network's positivity graph.

    Returns sorted person tuples ordered by their smallest member.  A
    person with no link to anyone else is a singleton without a search.
    """
    a = np.asarray(p) > 0
    a = a | a.T
    np.fill_diagonal(a, False)
    linked = a.any(axis=1)
    seen = np.zeros(a.shape[0], dtype=bool)
    groups = []
    for root in range(a.shape[0]):
        if not linked[root]:
            groups.append((root,))
        elif not seen[root]:
            members = np.flatnonzero(_levels(a, root) >= 0)
            seen[members] = True
            groups.append(tuple(members.tolist()))
    return tuple(groups)


def belief_groups(m):
    """Partition people whose belief rows agree entrywise within 1e-6.

    First fit: a row joins the first group whose first member it matches,
    compared with every group's first member at once.
    """
    m = np.asarray(m, dtype=float)
    groups, reps = [], []
    for i, row in enumerate(m):
        close = np.flatnonzero(np.abs(m[reps] - row).max(axis=1) < 1e-6)
        if close.size:
            groups[close[0]].append(i)
        else:
            groups.append([i])
            reps.append(i)
    return tuple(tuple(g) for g in groups)


def run_homophily(m0, cfg):
    """Iterate the homophily model until beliefs stabilize; the trace has groups.

    Raises :class:`StepLimitReached` (carrying the partial trace) when the
    max-norm step difference never falls below ``cfg.tol`` within
    ``cfg.max_steps`` steps.
    """
    m0 = validate_stochastic(m0, tol=1e-7)
    r, s = m0.shape

    def structures(q):
        return (np.eye(r) if cfg.freeze_network else build_network(q, cfg),
                np.eye(s) if cfg.freeze_concepts else build_concepts(q, cfg))

    trace = _run(m0, structures, cfg.max_steps, cfg.tol, stop=True)
    trace.final_groups = network_groups(trace.networks[-1])
    trace.belief_groups = belief_groups(trace.beliefs[-1])
    if trace.stabilized_at is None:
        raise StepLimitReached(trace)
    return trace
