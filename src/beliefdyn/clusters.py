"""Cluster lower bounds on the probability simplex.

An eps-KL cluster of a point set is a group whose members stay within eps
(in KL divergence) of the convex hull of the rest, while outsiders stay at
least eps away.  Counting these clusters bounds from below how many
distinct belief groups a homophily dynamic can end with.

The construction mirrors how groups can ever merge: first link points
whose pairwise divergence is below eps, then repeatedly merge components
whose convex hulls come within eps of each other.  Hull-to-point distances
are convex programs solved with Frank-Wolfe over the hull weights;
hull-to-hull uses alternating minimization with multiple starts, certified
in tests against a brute-force barycentric grid.
"""

from dataclasses import dataclass

import numpy as np

from .homophily import _pairwise_kl, kl_divergence

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


def _frank_wolfe(vertices, grad_q, value_q, tol, max_iter, w0=None):
    """Minimize a convex function of q = w @ vertices over the weight simplex.

    Frank-Wolfe with away steps: the plain variant zigzags sublinearly once
    the optimum lies on a face, while away steps drain weight from bad
    vertices directly and converge linearly on these objectives.
    ``grad_q(q)`` and ``value_q(q)`` evaluate the objective in q-space.
    Returns (value, weights); raises NonConvergenceError if the duality gap
    stays above tol at the iteration cap.
    """
    v = np.asarray(vertices, dtype=float)
    k = v.shape[0]
    w = np.full(k, 1.0 / k) if w0 is None else np.asarray(w0, dtype=float).copy()
    q = w @ v
    gap = np.inf
    for _ in range(max_iter):
        scores = v @ grad_q(q)
        s = int(np.argmin(scores))
        mean_score = float(w @ scores)
        gap = mean_score - float(scores[s])
        if gap <= tol:
            return value_q(q), w
        active = np.flatnonzero(w > 0)
        a = int(active[np.argmax(scores[active])])
        away_gap = float(scores[a]) - mean_score

        if gap >= away_gap:
            direction = v[s] - q
            gamma_max = 1.0
        else:
            direction = q - v[a]
            gamma_max = w[a] / (1.0 - w[a]) if w[a] < 1.0 else 1.0

        def deriv(t, q=q, direction=direction, gamma_max=gamma_max):
            return float(direction @ grad_q(q + t * gamma_max * direction))

        step = _line_search(deriv) * gamma_max
        if step <= 0.0:
            return value_q(q), w
        if gap >= away_gap:
            w = (1.0 - step) * w
            w[s] += step
        else:
            w = (1.0 + step) * w
            w[a] -= step
            w = np.maximum(w, 0.0)
        w = w / w.sum()
        q = w @ v
    raise NonConvergenceError(max_iter, gap)


def min_kl_hull_to_point(hull, target, tol=1e-6, floor=DEFAULT_FLOOR,
                         max_iter=10_000):
    """min over q in Conv(hull) of KL(q, target), to additive accuracy tol."""
    v = _floored(hull, floor)
    t = _floored(np.asarray(target, dtype=float)[None, :], floor)[0]
    if v.shape[1] != t.shape[0]:
        raise ValueError("hull points and target have different dimensions")
    if v.shape[0] == 1:
        return kl_divergence(v[0], t, floor=0.0)
    log_t = _safe_log(t)

    def value(q):
        return float(np.sum(q * (_safe_log(q) - log_t)))

    def grad(q):
        return _safe_log(q) - log_t + 1.0

    val, _ = _frank_wolfe(v, grad, value, tol, max_iter)
    return max(val, 0.0)


def _min_kl_point_to_hull(source, hull, tol, max_iter, w0=None):
    """min over p in Conv(hull) of KL(source, p); convex in the weights."""
    v = np.asarray(hull, dtype=float)
    src = np.asarray(source, dtype=float)

    def value(p):
        mask = src > 0
        return float(np.sum(src[mask] * (np.log(src[mask]) - _safe_log(p[mask]))))

    def grad(p):
        return -src / np.maximum(p, 1e-300)

    val, w = _frank_wolfe(v, grad, value, tol, max_iter, w0=w0)
    return max(val, 0.0), w


def min_kl_hull_to_hull(a, b, tol=1e-6, floor=DEFAULT_FLOOR, max_iter=10_000,
                        rounds=60):
    """min over q in Conv(a), p in Conv(b) of KL(q, p).

    Alternates the two convex subproblems from several deterministic
    starting pairs (barycenters plus the closest vertex pairs) and keeps
    the best value.
    """
    va = _floored(a, floor)
    vb = _floored(b, floor)
    ka, kb = va.shape[0], vb.shape[0]
    if ka == 1 and kb == 1:
        return kl_divergence(va[0], vb[0], floor=0.0)

    pair_kl = np.array([[kl_divergence(va[i], vb[j]) for j in range(kb)]
                        for i in range(ka)])
    order = np.dstack(np.unravel_index(np.argsort(pair_kl, axis=None),
                                       pair_kl.shape))[0]
    starts = [(np.full(ka, 1.0 / ka), np.full(kb, 1.0 / kb))]
    for i, j in order[:4]:
        wa = np.zeros(ka)
        wa[i] = 1.0
        wb = np.zeros(kb)
        wb[j] = 1.0
        starts.append((wa, wb))

    best = np.inf
    for wa, wb in starts:
        q = wa @ va
        p = wb @ vb
        prev = np.inf
        for _ in range(rounds):
            # q-step: KL(q, p) convex in q
            log_p = _safe_log(p)
            val, wa = _frank_wolfe(
                va,
                lambda q_: _safe_log(q_) - log_p + 1.0,
                lambda q_: float(np.sum(q_ * (_safe_log(q_) - log_p))),
                tol, max_iter, w0=wa)
            q = wa @ va
            # p-step: KL(q, p) convex in p
            val, wb = _min_kl_point_to_hull(q, vb, tol, max_iter, w0=wb)
            p = wb @ vb
            if prev - val < 0.1 * tol:
                break
            prev = val
        best = min(best, val)
    return max(best, 0.0)


def _merge_components(components, merges):
    parent = list(range(len(components)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in merges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    merged = {}
    for ci, comp in enumerate(components):
        merged.setdefault(find(ci), []).extend(comp)
    return [sorted(v) for _, v in sorted(merged.items())]


def epsilon_kl_clusters(points, epsilon, tol=1e-6, floor=DEFAULT_FLOOR):
    """Constructive eps-KL clustering of simplex points.

    Pairwise links below epsilon seed the components; components then merge
    whenever one hull's eps-KL neighbourhood reaches the other hull (in
    either direction), until the partition stabilizes.  The resulting
    cluster count lower-bounds the number of groups any homophily run on
    these points can stabilize to.

    ``internal_condition_holds`` additionally reports whether every point
    sits within epsilon of the hull of its cluster's other members, which
    the constructive partition does not enforce.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    pts = _floored(points, floor)
    n = pts.shape[0]

    direct = _pairwise_kl(pts, 0.0) < epsilon     # pts are floored already
    np.fill_diagonal(direct, False)
    components = _merge_components([[i] for i in range(n)],
                                   np.argwhere(direct).tolist())

    while True:
        merges = []
        for ci in range(len(components)):
            for cj in range(ci + 1, len(components)):
                va = pts[components[ci]]
                vb = pts[components[cj]]
                if (min_kl_hull_to_hull(va, vb, tol, floor) < epsilon
                        or min_kl_hull_to_hull(vb, va, tol, floor) < epsilon):
                    merges.append((ci, cj))
        if not merges:
            break
        components = _merge_components(components, merges)

    internal = True
    for comp in components:
        if len(comp) < 2:
            continue
        for i in comp:
            rest = [j for j in comp if j != i]
            if min_kl_hull_to_point(pts[rest], pts[i], tol, floor) >= epsilon:
                internal = False
    return ClusterPartition(tuple(tuple(c) for c in components),
                            float(epsilon), internal)
