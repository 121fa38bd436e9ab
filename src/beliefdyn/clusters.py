"""Cluster lower bounds on the probability simplex.

An eps-KL cluster of a point set is a group whose members stay within eps
(in KL divergence) of the convex hull of the rest, while outsiders stay at
least eps away.  Counting these clusters bounds from below how many
distinct belief groups a homophily dynamic can end with.

The construction mirrors how groups can ever merge: first link points
whose pairwise divergence is below eps, then repeatedly merge components
whose convex hulls come within eps of each other.  A merge round decides
only the pairs with a component that changed in the round before (in the
first round, one with more than one point); the other pairs were already
decided "not below".

Hull distances are one convex program.  KL(q, p) is jointly convex in
(q, p), so min KL(q, p) over q in Conv(A), p in Conv(B) is convex in the
vertex weights of the two hulls, which range over the product of the two
weight simplices (|A| + |B| weights); hull-to-point is the case with one
vertex in B.  Frank-Wolfe solves it one hull at a time: each iteration
moves weight in A from its worst active vertex to its best, then does the
same in B, each at the exact step size (pairwise steps, Lacoste-Julien &
Jaggi, NeurIPS 2015).  Every iterate is feasible and, by convexity, its
duality gap, the sum of the two hulls' gaps, bounds the minimum from
below: it lies in [value - gap, value].

Tie policy: a pair of single points is decided by ``_pairwise_kl < eps``
alone, as in :mod:`beliefdyn.homophily`.  A pair of hulls is decided by
the certified test "min KL < eps": it is "below" as soon as value < eps
and "not below" as soon as value - gap >= eps; otherwise the solver runs
until gap <= tol and decides by value < eps, so a minimum within tol of
eps may resolve either way.  Tests check the solver against
a brute-force barycentric grid and an alternating-minimization heuristic.
"""

import numpy as np

from .homophily import _floored, _pairwise_kl, network_groups
from .homophily import kl_divergence  # noqa: F401 (bench/test_bench.py rebinds it here)

_MAX_ITER = 10_000           # Frank-Wolfe iterations per solve


class NonConvergenceError(RuntimeError):
    """Frank-Wolfe did not reach the duality-gap target within its cap."""

    def __init__(self, iterations, gap):
        self.iterations = iterations
        self.gap = gap
        super().__init__(f"duality gap {gap:.3e} after {iterations} iterations")


class ClusterPartition:
    def __init__(self, clusters, internal_condition_holds=None, iterations=0, max_gap=0.0):
        self.clusters = clusters        # tuple of sorted index tuples
        self.internal_condition_holds = internal_condition_holds
        self.iterations = iterations    # Frank-Wolfe iterations over all decisions
        self.max_gap = max_gap          # largest final duality gap among them

    def __len__(self):
        return len(self.clusters)


def _points(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or not np.isfinite(pts).all():
        raise ValueError("expected a 2-D array of finite simplex points")
    return pts


def _safe_log(x):
    # 0 log 0 = 0 convention: clamp keeps gradients finite at the boundary
    return np.log(np.maximum(x, 1e-300))


def _exact_step(q, p, dq, dp, t_max):
    """The t in [0, t_max] that minimizes KL(q + t dq, p + t dp).

    Newton on the derivative, which increases in t by joint convexity, with
    the second derivative sum((dq - q dp / p)^2 / q); a Newton step that
    leaves the bracket of the sign change is replaced by bisection.
    """
    def slope(t):
        qt = np.maximum(q + t * dq, 1e-300)
        pt = np.maximum(p + t * dp, 1e-300)
        r = dp / pt
        return (float((dq * (np.log(qt) - np.log(pt) + 1.0) - qt * r).sum()),
                float(((dq - qt * r) ** 2 / qt).sum()))

    if slope(t_max)[0] <= 0:
        return t_max                 # drop step: the away vertex leaves
    lo, hi, t = 0.0, t_max, 0.0
    for _ in range(60):
        d, h = slope(t)
        if d < 0:
            lo = t
        elif d > 0:
            hi = t
        else:
            return t
        newton = t - d / h
        if not lo < newton < hi:
            t = 0.5 * (lo + hi)
        elif abs(newton - t) <= 1e-9 * newton:
            return newton            # converges quadratically from here
        else:
            t = newton
    return t


def _pairwise(w, scores):
    """The best vertex and the worst active one, by their gradient scores."""
    active = np.flatnonzero(w > 0)
    return int(np.argmin(scores)), int(active[np.argmax(scores[active])])


def _min_kl(va, vb, tol, epsilon=None):
    """min KL(q, p) over q in Conv(va), p in Conv(vb) as (value, gap, iterations).

    Frank-Wolfe over the two hulls' weights (module docstring), started at
    the best vertex pair; B's step uses the gradient after A's step.  Stops
    as the tie policy says, ``epsilon`` making it the certified test
    "minimum < epsilon"; raises NonConvergenceError after _MAX_ITER
    iterations.  Two single points return at iteration 0 with gap 0.
    """
    if va.shape[1] != vb.shape[1]:
        raise ValueError("the two point sets have different dimensions")
    log_a, log_b = _safe_log(va), _safe_log(vb)
    pair_kl = np.sum(va[:, None] * (log_a[:, None] - log_b[None]), axis=-1)
    i, j = np.unravel_index(int(np.argmin(pair_kl)), pair_kl.shape)
    wa, wb = np.eye(va.shape[0])[i], np.eye(vb.shape[0])[j]
    gap = np.inf
    for it in range(_MAX_ITER):
        q, p = wa @ va, wb @ vb
        log_ratio = _safe_log(q) - _safe_log(p)
        val = float(q @ log_ratio)
        p_safe = np.maximum(p, 1e-300)
        score_a, score_b = va @ (log_ratio + 1.0), vb @ (-q / p_safe)
        gap = float(wa @ score_a - score_a.min() + wb @ score_b - score_b.min())
        if gap <= tol or (epsilon is not None
                          and (val < epsilon or val - gap >= epsilon)):
            return val, gap, it
        s, a = _pairwise(wa, score_a)
        if s != a:
            t = _exact_step(q, p, va[s] - va[a], 0.0, wa[a])
            wa[s] += t
            wa[a] -= t
            q = wa @ va
        s, a = _pairwise(wb, vb @ (-q / p_safe))
        if s != a:
            t = _exact_step(q, p, 0.0, vb[s] - vb[a], wb[a])
            wb[s] += t
            wb[a] -= t
    raise NonConvergenceError(_MAX_ITER, gap)


def min_kl_hull_to_point(hull, target, tol=1e-6):
    """min over q in Conv(hull) of KL(q, target), to additive accuracy tol."""
    val, _, _ = _min_kl(_floored(_points(hull)), _floored(_points([target])), tol)
    return max(val, 0.0)


def min_kl_hull_to_hull(a, b, tol=1e-6):
    """min over q in Conv(a), p in Conv(b) of KL(q, p), to additive accuracy tol."""
    val, _, _ = _min_kl(_floored(_points(a)), _floored(_points(b)), tol)
    return max(val, 0.0)


def epsilon_kl_clusters(points, epsilon, tol=1e-6):
    """Constructive eps-KL clustering of simplex points.

    Pairwise links below epsilon seed the components; components then merge
    whenever one hull's eps-KL neighbourhood reaches the other hull (in
    either direction), until the partition stabilizes.  The resulting
    cluster count lower-bounds the number of groups any homophily run on
    these points can stabilize to.

    ``internal_condition_holds`` additionally reports whether every point
    sits within epsilon of the hull of its cluster's other members, which
    the constructive partition does not enforce.  ``iterations`` and
    ``max_gap`` report the Frank-Wolfe work behind all these decisions.
    """
    if not epsilon > 0:           # also rejects NaN
        raise ValueError("epsilon must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    points = _points(points)
    pts = _floored(points)
    iterations, max_gap = 0, 0.0

    def below(va, vb):
        nonlocal iterations, max_gap
        val, gap, its = _min_kl(va, vb, tol, epsilon=epsilon)
        iterations += its
        max_gap = max(max_gap, gap)
        return val < epsilon

    links = _pairwise_kl(points) < epsilon    # floored inside exactly as pts
    components = network_groups(links)
    # two single points were decided "not below", both ways, by the links
    changed = [len(c) > 1 for c in components]

    while True:
        merges = []
        for ci in range(len(components)):
            for cj in range(ci + 1, len(components)):
                if not (changed[ci] or changed[cj]):
                    continue    # both unchanged: decided "not below" last round
                va = pts[list(components[ci])]
                vb = pts[list(components[cj])]
                if below(va, vb) or below(vb, va):
                    merges.append((ci, cj))
        if not merges:
            break
        for ci, cj in merges:
            links[components[ci][0], components[cj][0]] = True
        previous = set(components)
        components = network_groups(links)
        changed = [c not in previous for c in components]

    internal = all(below(pts[[j for j in comp if j != i]], pts[[i]])
                   for comp in components if len(comp) > 1 for i in comp)
    return ClusterPartition(components, internal, iterations, max_gap)
