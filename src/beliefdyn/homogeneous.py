"""Static-structure belief evolution Q_n = P^n M H^n.

People's beliefs M (rows = people, columns = concepts) are pushed through a
fixed network structure P and a fixed concept structure H.  The limit has
three regimes, depending on which structure keeps a single closed class:

* concept structure indecomposable: every row of the limit is its unique
  stationary distribution, regardless of P and M;
* only the network indecomposable: rows still agree but depend on M and H;
* both decomposable: rows differ across the network's closed classes.

Limits are computed in closed form from stationary distributions and
absorption probabilities.  Periodic recurrent classes get the time-average
(Cesaro) limit, reported as case ``periodic_cesaro``.
"""

import numpy as np

from . import chains
from .stochastic import (DimensionMismatchError, as_matrix, delta_coefficient,
                         max_abs_diff, require_square, validate_stochastic)


class SingularSystemError(ValueError):
    """A linear solve met a (numerically) singular system."""


class EvolutionTrace:
    """Beliefs Q_0..Q_n of one run and the structures of each step.

    ``beliefs[0]`` is the initial matrix; ``networks[t-1]``,
    ``concepts[t-1]`` and ``beliefs[t]`` belong to step t.  Only a homophily
    run sets ``final_groups`` (the weakly connected components of the final
    network) and ``belief_groups`` (people with near-equal final belief
    rows, which can be coarser).
    """

    def __init__(self, m):
        self.beliefs = [m.copy()]
        self.networks = []
        self.concepts = []
        self.stabilized_at = None
        self.final_groups = ()
        self.belief_groups = ()

    @property
    def final(self):
        return self.beliefs[-1]


class LimitReport:
    def __init__(self, limit, case, homogeneous):
        self.limit = limit
        # H_indecomposable | P_indecomposable | both_decomposable | periodic_cesaro
        self.case = case
        self.homogeneous = homogeneous  # all rows equal within 1e-9


def _run(m, structures, steps, tol, stop):
    """Q_t = P_t Q_{t-1} H_t for t = 1..steps, (P_t, H_t) = structures(Q_{t-1}).

    The first step whose max-norm difference is below ``tol`` > 0 sets
    ``stabilized_at``; with ``stop`` the run ends there.
    """
    trace = EvolutionTrace(m)
    q = m
    for t in range(1, steps + 1):
        p_t, h_t = structures(q)
        nxt = p_t @ q @ h_t
        trace.networks.append(p_t)
        trace.concepts.append(h_t)
        trace.beliefs.append(nxt)
        if trace.stabilized_at is None and tol > 0 and max_abs_diff(nxt, q) < tol:
            trace.stabilized_at = t
            if stop:
                break
        q = nxt
    return trace


def evolve(p, m, h, steps, tol=1e-9):
    """Iterate Q_{k+1} = P Q_k H for ``steps`` steps, recording every Q_k.

    ``stabilized_at`` is the first k whose max-norm step difference falls
    below ``tol`` (pass tol=0 to disable stabilization marking); a negative
    or NaN ``tol`` raises ValueError.
    """
    if not tol >= 0:              # also rejects NaN
        raise ValueError("tol must be nonnegative")
    p = require_square(p)
    h = require_square(h)
    m = as_matrix(m)
    if m.shape != (p.shape[0], h.shape[0]):
        raise DimensionMismatchError(
            f"beliefs {m.shape} incompatible with network {p.shape} / concepts {h.shape}")
    return _run(m, lambda q: (p, h), steps, tol, stop=False)


def stationary_distribution(p):
    """Unique row vector pi with pi P = pi, for an SIA chain.

    Solved directly from (P^T - I) with one equation replaced by the
    normalization sum(pi) = 1; the residual is checked against 1e-10.
    """
    a = require_square(p)
    analysis = chains.analyze(a)
    if not analysis.is_indecomposable:
        raise chains.NotSIAError("stationary distribution is not unique")
    if not analysis.recurrent_aperiodic:
        raise chains.NotSIAError("recurrent class is periodic")
    return _stationary(a, 1e-10)


def _stationary(a, tol=None):
    """Solve pi a = pi from (a^T - I) with its last equation set to sum(pi) = 1.

    With ``tol``, a solution that is negative or leaves a residual above
    ``tol`` is rejected.
    """
    n = a.shape[0]
    system = a.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    if tol is not None and (np.any(pi < -1e-12)
                            or max_abs_diff((pi @ a)[None, :], pi[None, :]) > tol):
        raise SingularSystemError("solve did not produce a valid stationary vector")
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def absorption_probabilities(p, analysis=None):
    """Probability h[i, c] of ending in leaf class c when started at state i.

    Rows of the result sum to 1; a recurrent state loads all mass on its
    own class.  Transient rows solve (I - T) x = b with T the
    transient-to-transient block.
    """
    a = require_square(p)
    if analysis is None:
        analysis = chains.analyze(a)
    classes, leaves = analysis.classes, analysis.leaf_classes
    n = a.shape[0]
    out = np.zeros((n, len(leaves)))
    transient = [s for s in range(n) if not analysis.recurrent[s]]
    for k, c in enumerate(leaves):
        out[list(classes[c]), k] = 1.0
    if transient:
        lhs = np.eye(len(transient)) - a[np.ix_(transient, transient)]
        for k, c in enumerate(leaves):
            b = a[np.ix_(transient, list(classes[c]))].sum(axis=1)
            try:
                out[transient, k] = np.linalg.solve(lhs, b)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(str(exc)) from exc
    return out


def limit_structure(p):
    """Closed-form limit of P^n (Cesaro limit when a class is periodic).

    Row i of the result is the absorption-weighted mixture of the closed
    classes' stationary rows.  Returns (matrix, periodic_flag).
    """
    a = require_square(p)
    return _limit(a, chains.analyze(a))


def _limit(a, analysis):
    """:func:`limit_structure` of ``a`` from its analysis."""
    absorb = absorption_probabilities(a, analysis)
    n = a.shape[0]
    out = np.zeros((n, n))
    for k, c in enumerate(analysis.leaf_classes):
        members = list(analysis.classes[c])
        pi = _stationary(a[np.ix_(members, members)])
        out[:, members] += absorb[:, [k]] * pi[None, :]
    return out, not analysis.recurrent_aperiodic


def limit_q(p, m, h):
    """Closed-form limit of P^n M H^n with its structural case label."""
    p = require_square(p)
    h = require_square(h)
    m = validate_stochastic(m, tol=1e-7)
    if m.shape != (p.shape[0], h.shape[0]):
        raise DimensionMismatchError(
            f"beliefs {m.shape} incompatible with network {p.shape} / concepts {h.shape}")
    p_analysis = chains.analyze(p)
    h_analysis = chains.analyze(h)
    p_inf, p_periodic = _limit(p, p_analysis)
    h_inf, h_periodic = _limit(h, h_analysis)
    limit = p_inf @ m @ h_inf
    if p_periodic or h_periodic:
        case = "periodic_cesaro"
    elif h_analysis.is_indecomposable:
        case = "H_indecomposable"
    elif p_analysis.is_indecomposable:
        case = "P_indecomposable"
    else:
        case = "both_decomposable"
    return LimitReport(
        limit=limit,
        case=case,
        homogeneous=delta_coefficient(limit) < 1e-9,
    )
