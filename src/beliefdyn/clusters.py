"""Eps-KL clusters on the probability simplex.

An eps-KL cluster of a point set is a group whose members stay within eps
(in KL divergence) of the convex hull of the rest, while outsiders stay at
least eps away.  With the concept structure frozen, the cluster count
bounds from below how many belief groups a homophily run can end with; with
concepts updating it can fail (``H_t`` may blur every belief toward one).

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
vertex in B.  Each iteration moves both hulls' weights along one
direction by one exact line search, stopped where a weight reaches 0: the
Newton direction on the face of the current supports plus each hull's
Frank-Wolfe vertex (projected Newton, Bertsekas, SIAM J. Control Optim.
1982), or the Frank-Wolfe direction toward those two vertices where Newton
makes no progress.  Every iterate is feasible and, by convexity, its
duality gap, the sum of the two hulls' Frank-Wolfe gaps, bounds the
minimum from below: it lies in [value - gap, value].

Tie policy: a pair of single points is decided by ``_pairwise_kl < eps``
alone, as in :mod:`beliefdyn.homophily`.  A pair of hulls is "not below"
if a Pinsker screen on their coordinate ranges (``_apart``) proves min KL
>= eps (1 + 1e-9), which the solver would decide alike or fail to decide;
otherwise by the certified test "min KL < eps": "below" as soon as value
< eps and "not below" as soon as value - gap >= eps; otherwise the solver
runs until gap <= tol and decides by value < eps, so a minimum within tol
of eps may resolve either way.  Tests check the solver against a
brute-force barycentric grid, an alternating-minimization heuristic and
a pairwise Frank-Wolfe loop.
"""

import numpy as np

from .homophily import _floored, _pairwise_kl, network_groups
from .homophily import kl_divergence  # noqa: F401 (bench/test_bench.py rebinds it here)
from .stochastic import INPUT_TOL, validate_stochastic

_MAX_ITER = 10_000           # iterations per solve
_SCREEN_MARGIN = 1e-9        # relative margin of the Pinsker range screen


class NonConvergenceError(RuntimeError):
    """A hull solve did not reach its duality-gap target within _MAX_ITER iterations."""

    def __init__(self, iterations, gap):
        self.iterations = iterations
        self.gap = gap
        super().__init__(f"duality gap {gap:.3e} after {iterations} iterations")


class ClusterPartition:
    def __init__(self, clusters, internal_condition_holds=None, iterations=0, max_gap=0.0,
                 screened=0):
        self.clusters = clusters        # tuple of sorted index tuples
        self.internal_condition_holds = internal_condition_holds
        self.iterations = iterations    # hull-solver iterations over all solves that ran
        self.max_gap = max_gap          # largest final duality gap among them
        self.screened = screened        # merge pairs the range screen decided, unsolved

    def __len__(self):
        return len(self.clusters)


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
        return t_max                 # drop step: the capping vertex leaves
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


def _apart(lo, hi, i, epsilon):
    """Whether the range screen decides hull i "not below" each later hull.

    ``lo[j]`` and ``hi[j]`` are hull j's per-coordinate min and max.  Where
    two hulls' ranges are ``sep`` apart in l1, every q, p in them have
    ``KL(q, p) >= ||q - p||_1^2 / 2 >= sep^2 / 2`` both ways (Pinsker).
    """
    sep = np.maximum(np.maximum(lo[i] - hi[i + 1:], lo[i + 1:] - hi[i]), 0.0).sum(axis=1)
    return sep ** 2 / 2 >= epsilon * (1.0 + _SCREEN_MARGIN)


def _newton(va, vb, w, face, q, p, scores):
    """The Newton direction on the weights of ``face``, or None if it does not descend.

    The weights' Hessian is ``G G^T``, G's rows being the face's vertices
    scaled by ``1/sqrt(q)`` in A and by ``-sqrt(q)/p`` in B; its diagonal
    times ``1 + 1e-12`` makes the KKT system with the two sum constraints
    regular.  A weight-0 vertex the direction would push below 0 leaves the
    face, and the system is solved again.
    """
    na, sqrt_q = len(va), np.sqrt(q)
    while True:
        n, k = len(face), int(np.searchsorted(face, na))    # face[:k] lie in A
        g = np.concatenate([va[face[:k]] / sqrt_q, vb[face[k:] - na] * (-sqrt_q / p)])
        kkt = np.zeros((n + 2, n + 2))
        kkt[:n, :n] = g @ g.T
        kkt.reshape(-1)[:n * (n + 3):n + 3] *= 1.0 + 1e-12
        kkt[:k, n] = kkt[n, :k] = kkt[k:n, n + 1] = kkt[n + 1, k:n] = 1.0
        rhs = np.concatenate([-scores[face], [0.0, 0.0]])
        x = np.linalg.solve(kkt, rhs)[:n]
        x[:k] -= x[:k].sum() / k     # near the faces, residual sums would mask descent
        x[k:] -= x[k:].sum() / (n - k)
        leaves = (w[face] == 0) & (x < 0)
        if not leaves.any():
            break
        face = face[~leaves]
    d = np.zeros(len(w))
    d[face] = x
    return d if rhs[:n] @ x > 0 and x.min() < 0 else None


def _min_kl(va, vb, tol, epsilon=None):
    """min KL(q, p) over q in Conv(va), p in Conv(vb) as (value, gap, iterations).

    One weight vector over both hulls' vertices, from the best vertex pair,
    steps as the module docstring says: along ``_newton``'s direction, or
    the Frank-Wolfe one where that does not descend or its exact step is 0.
    Stops as the tie policy says, ``epsilon`` making it the certified test
    "minimum < epsilon"; raises NonConvergenceError after _MAX_ITER
    iterations.  Two single points return at iteration 0 with gap 0.
    """
    if va.shape[1] != vb.shape[1]:
        raise ValueError("the two point sets have different dimensions")
    na = va.shape[0]
    log_a, log_b = _safe_log(va), _safe_log(vb)
    pair_kl = np.sum(va[:, None] * (log_a[:, None] - log_b[None]), axis=-1)
    i, j = np.unravel_index(int(np.argmin(pair_kl)), pair_kl.shape)
    w = np.zeros(na + len(vb))
    w[i] = w[na + j] = 1.0
    gap = np.inf
    for it in range(_MAX_ITER):
        q, p = w[:na] @ va, w[na:] @ vb
        log_ratio = _safe_log(q) - _safe_log(p)
        val = float(q @ log_ratio)
        p_safe = np.maximum(p, 1e-300)
        scores = np.concatenate([va @ (log_ratio + 1.0), vb @ (-q / p_safe)])
        sa, sb = int(np.argmin(scores[:na])), na + int(np.argmin(scores[na:]))
        gap = float(w @ scores - scores[sa] - scores[sb])
        if gap <= tol or (epsilon is not None
                          and (val < epsilon or val - gap >= epsilon)):
            return val, gap, it
        on_face = w > 0
        on_face[sa] = on_face[sb] = True
        fw = -w
        fw[[sa, sb]] += 1.0
        for d in (_newton(va, vb, w, np.flatnonzero(on_face), q, p_safe, scores), fw):
            if d is None:
                continue
            neg = np.flatnonzero(d < 0)
            caps = -w[neg] / d[neg]
            k = int(np.argmin(caps))
            t = _exact_step(q, p, d[:na] @ va, d[na:] @ vb, caps[k])
            if t > 0:
                break
        w = np.maximum(w + t * d, 0.0)
        if t == caps[k]:
            w[neg[k]] = 0.0
    raise NonConvergenceError(_MAX_ITER, gap)


def _hull_min_kl(a, b, tol):
    """The floored min KL of two nonempty hulls, checked as beliefs are, clipped at 0."""
    if not tol > 0:               # also rejects NaN
        raise ValueError("tol must be positive")
    if not (np.size(a) and np.size(b)):
        raise ValueError("a hull has no points")
    va, vb = (validate_stochastic(h, tol=INPUT_TOL) for h in (a, b))
    val, _, _ = _min_kl(_floored(va), _floored(vb), tol)
    return max(val, 0.0)


def min_kl_hull_to_point(hull, target, tol=1e-6):
    """min over q in Conv(hull) of KL(q, target), to additive accuracy tol."""
    return _hull_min_kl(hull, [target], tol)


def min_kl_hull_to_hull(a, b, tol=1e-6):
    """min over q in Conv(a), p in Conv(b) of KL(q, p), to additive accuracy tol."""
    return _hull_min_kl(a, b, tol)


def epsilon_kl_clusters(points, epsilon, tol=1e-6):
    """Constructive eps-KL clustering of simplex points.

    Pairwise links below epsilon seed the components; components then merge
    whenever one hull's eps-KL neighbourhood reaches the other hull (in
    either direction), until the partition stabilizes.  With the concept
    structure frozen, the cluster count lower-bounds the number of groups
    a homophily run on these points stabilizes to; with concepts updating
    it need not (module docstring).

    ``internal_condition_holds`` additionally reports whether every point
    sits within epsilon of the hull of its cluster's other members, which
    the constructive partition does not enforce.  ``screened`` counts the
    merge pairs the range screen decided; ``iterations`` and ``max_gap``
    report the hull-solver work behind the solves that ran.  ``points`` are
    distribution rows, checked as beliefs are (row-stochastic at ``INPUT_TOL``).
    """
    if not epsilon > 0:           # also rejects NaN
        raise ValueError("epsilon must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    points = validate_stochastic(points, tol=INPUT_TOL)
    pts = _floored(points)
    iterations, max_gap, screened = 0, 0.0, 0

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
        hulls = [pts[list(c)] for c in components]
        lo = np.array([h.min(axis=0) for h in hulls])
        hi = np.array([h.max(axis=0) for h in hulls])
        merges = []
        for ci in range(len(components)):
            far = _apart(lo, hi, ci, epsilon)
            for cj in range(ci + 1, len(components)):
                if not (changed[ci] or changed[cj]):
                    continue    # both unchanged: decided "not below" last round
                if far[cj - ci - 1]:
                    screened += 1
                elif below(hulls[ci], hulls[cj]) or below(hulls[cj], hulls[ci]):
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
    return ClusterPartition(components, internal, iterations, max_gap, screened)
