"""Cluster lower bounds on the probability simplex.

An eps-KL cluster of a point set is a group whose members stay within eps
(in KL divergence) of the convex hull of the rest, while outsiders stay at
least eps away.  Counting these clusters bounds from below how many
distinct belief groups a homophily dynamic can end with.

The construction mirrors how groups can ever merge: first link points
whose pairwise divergence is below eps, then repeatedly merge components
whose convex hulls come within eps of each other.  A merge round decides
only the pairs with a component that changed in the round before; the
other pairs were already decided "not below".

Hull distances are one convex program.  KL(q, p) is jointly convex in
(q, p), and Conv(A) x Conv(B) is the convex hull of the stacked vertex
pairs (a_i, b_j), so min KL(q, p) over q in Conv(A), p in Conv(B) is one
Frank-Wolfe run over the weights of those pairs; hull-to-point is the case
with one vertex in B.  Every iterate is feasible and, by convexity, its
duality gap bounds the minimum from below: it lies in [value - gap, value].

Tie policy of the decision "min KL < eps": it is "below" as soon as
value < eps and "not below" as soon as value - gap >= eps; otherwise the
solver runs until gap <= tol and decides by value < eps, so a minimum
within tol of eps may resolve either way.  Tests check the solver against
a brute-force barycentric grid and an alternating-minimization heuristic.
"""

from dataclasses import dataclass

import numpy as np

from .homophily import _pairwise_kl, kl_divergence, network_groups

DEFAULT_FLOOR = 1e-12


class NonConvergenceError(RuntimeError):
    """Frank-Wolfe did not reach the duality-gap target within its cap."""

    def __init__(self, iterations, gap):
        self.iterations = iterations
        self.gap = gap
        super().__init__(f"duality gap {gap:.3e} after {iterations} iterations")


@dataclass(frozen=True)
class ClusterPartition:
    clusters: tuple          # tuple of sorted index tuples
    epsilon: float
    internal_condition_holds: bool = None
    iterations: int = 0      # Frank-Wolfe iterations over all decisions
    max_gap: float = 0.0     # largest final duality gap among them

    def __len__(self):
        return len(self.clusters)


def _floored(points, floor):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-D array of simplex points")
    if floor > 0:
        pts = np.maximum(pts, floor)
        pts = pts / pts.sum(axis=1, keepdims=True)
    return pts


def _safe_log(x):
    # 0 log 0 = 0 convention: clamp keeps gradients finite at the boundary
    return np.log(np.maximum(x, 1e-300))


def _line_search(deriv, steps=60):
    """Minimize a convex 1-D restriction on [0, 1] by bisecting its derivative."""
    lo, hi = 0.0, 1.0
    if deriv(hi) <= 0:
        return 1.0
    if deriv(lo) >= 0:
        return 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _frank_wolfe(vertices, grad, value, tol, max_iter, epsilon=None):
    """Minimize a convex function of x = w @ vertices over the weight simplex.

    Frank-Wolfe with away steps, started at the best vertex: the plain
    variant zigzags sublinearly once the optimum lies on a face, while away
    steps drain weight from bad vertices directly and converge linearly on
    these objectives.  The minimum lies in [value(x) - gap, value(x)].  Stops
    when gap <= tol or, given ``epsilon``, as soon as that interval lies on
    one side of epsilon, so ``value < epsilon`` answers "is the minimum
    below epsilon?".  ``value`` must also evaluate the rows of a 2-D x.
    Returns (value, gap, iterations); raises NonConvergenceError if it does
    not stop within max_iter iterations.
    """
    v = np.asarray(vertices, dtype=float)
    w = np.zeros(v.shape[0])
    w[int(np.argmin(value(v)))] = 1.0
    x = w @ v
    gap = np.inf
    for it in range(max_iter):
        val = float(value(x))
        scores = v @ grad(x)
        s = int(np.argmin(scores))
        mean_score = float(w @ scores)
        gap = mean_score - float(scores[s])
        if gap <= tol or (epsilon is not None
                          and (val < epsilon or val - gap >= epsilon)):
            return val, gap, it
        active = np.flatnonzero(w > 0)
        a = int(active[np.argmax(scores[active])])
        away_gap = float(scores[a]) - mean_score

        if gap >= away_gap:
            direction = v[s] - x
            gamma_max = 1.0
        else:
            direction = x - v[a]
            gamma_max = w[a] / (1.0 - w[a]) if w[a] < 1.0 else 1.0

        def deriv(t, x=x, direction=direction, gamma_max=gamma_max):
            return float(direction @ grad(x + t * gamma_max * direction))

        step = _line_search(deriv) * gamma_max
        if step <= 0.0:
            return val, gap, it
        if gap >= away_gap:
            w = (1.0 - step) * w
            w[s] += step
        else:
            w = (1.0 + step) * w
            w[a] -= step
            w = np.maximum(w, 0.0)
        w = w / w.sum()
        x = w @ v
    raise NonConvergenceError(max_iter, gap)


def _min_kl(va, vb, tol, max_iter=10_000, epsilon=None):
    """min KL(q, p) over q in Conv(va), p in Conv(vb) as (value, gap, iterations).

    One Frank-Wolfe run over x = (q, p) on the stacked vertex pairs
    (a_i, b_j); ``epsilon`` makes it the certified test "minimum < epsilon".
    """
    if va.shape[1] != vb.shape[1]:
        raise ValueError("the two point sets have different dimensions")
    if va.shape[0] == 1 and vb.shape[0] == 1:
        return kl_divergence(va[0], vb[0], floor=0.0), 0.0, 0
    d = va.shape[1]
    pairs = np.hstack([np.repeat(va, vb.shape[0], axis=0),
                       np.tile(vb, (va.shape[0], 1))])

    def value(x):
        q, p = x[..., :d], x[..., d:]
        return np.sum(q * (_safe_log(q) - _safe_log(p)), axis=-1)

    def grad(x):
        q, p = x[:d], x[d:]
        return np.concatenate([_safe_log(q) - _safe_log(p) + 1.0,
                               -q / np.maximum(p, 1e-300)])

    return _frank_wolfe(pairs, grad, value, tol, max_iter, epsilon)


def min_kl_hull_to_point(hull, target, tol=1e-6, floor=DEFAULT_FLOOR,
                         max_iter=10_000):
    """min over q in Conv(hull) of KL(q, target), to additive accuracy tol."""
    t = np.asarray(target, dtype=float)[None, :]
    val, _, _ = _min_kl(_floored(hull, floor), _floored(t, floor), tol, max_iter)
    return max(val, 0.0)


def min_kl_hull_to_hull(a, b, tol=1e-6, floor=DEFAULT_FLOOR, max_iter=10_000):
    """min over q in Conv(a), p in Conv(b) of KL(q, p), to additive accuracy tol."""
    val, _, _ = _min_kl(_floored(a, floor), _floored(b, floor), tol, max_iter)
    return max(val, 0.0)


def epsilon_kl_clusters(points, epsilon, tol=1e-6, floor=DEFAULT_FLOOR):
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
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    pts = _floored(points, floor)
    iterations, max_gap = 0, 0.0

    def below(va, vb):
        nonlocal iterations, max_gap
        val, gap, its = _min_kl(va, vb, tol, epsilon=epsilon)
        iterations += its
        max_gap = max(max_gap, gap)
        return val < epsilon

    links = _pairwise_kl(pts, 0.0) < epsilon      # pts are floored already
    components = network_groups(links)
    changed = [True] * len(components)

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
    return ClusterPartition(components, float(epsilon), internal, iterations,
                            max_gap)
