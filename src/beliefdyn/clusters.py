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
vertex in B.  Frank-Wolfe solves it one hull at a time: each iteration
moves weight in A from its worst active vertex to its best, then does the
same in B, each at the exact step size (pairwise steps, Lacoste-Julien &
Jaggi, NeurIPS 2015); every 20th iteration is one Newton step on the face
of the current supports instead (projected Newton, Bertsekas, SIAM J.
Control Optim. 1982).  Every iterate is feasible and, by convexity, its
duality gap, the sum of the two hulls' gaps, bounds the minimum from
below: it lies in [value - gap, value].

Tie policy: a pair of single points is decided by ``_pairwise_kl < eps``
alone, as in :mod:`beliefdyn.homophily`.  A pair of hulls is "not below"
if a Pinsker screen on their coordinate ranges (``_apart``) proves min KL
>= eps (1 + 1e-9), which the solver would decide alike or fail to decide;
otherwise by the certified test "min KL < eps": "below" as soon as value
< eps and "not below" as soon as value - gap >= eps; otherwise the solver
runs until gap <= tol and decides by value < eps, so a minimum within tol
of eps may resolve either way.  Tests check the solver against a
brute-force barycentric grid, an alternating-minimization heuristic and
the Frank-Wolfe loop without the Newton step.
"""

import numpy as np

from .homophily import _floored, _pairwise_kl, network_groups
from .homophily import kl_divergence  # noqa: F401 (bench/test_bench.py rebinds it here)

_MAX_ITER = 10_000           # Frank-Wolfe iterations per solve
_NEWTON_EVERY = 20           # every such iteration takes a Newton step instead
_SCREEN_MARGIN = 1e-9        # relative margin of the Pinsker range screen


class NonConvergenceError(RuntimeError):
    """Frank-Wolfe did not reach the duality-gap target within its cap."""

    def __init__(self, iterations, gap):
        self.iterations = iterations
        self.gap = gap
        super().__init__(f"duality gap {gap:.3e} after {iterations} iterations")


class ClusterPartition:
    def __init__(self, clusters, internal_condition_holds=None, iterations=0, max_gap=0.0,
                 screened=0):
        self.clusters = clusters        # tuple of sorted index tuples
        self.internal_condition_holds = internal_condition_holds
        self.iterations = iterations    # Frank-Wolfe iterations over all solves that ran
        self.max_gap = max_gap          # largest final duality gap among them
        self.screened = screened        # merge pairs the range screen decided, unsolved

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


def _apart(lo, hi, i, epsilon):
    """Whether the range screen decides hull i "not below" each later hull.

    ``lo[j]`` and ``hi[j]`` are hull j's per-coordinate min and max.  Where
    two hulls' ranges are ``sep`` apart in l1, every q, p in them have
    ``KL(q, p) >= ||q - p||_1^2 / 2 >= sep^2 / 2`` both ways (Pinsker).
    """
    sep = np.maximum(np.maximum(lo[i] - hi[i + 1:], lo[i + 1:] - hi[i]), 0.0).sum(axis=1)
    return sep ** 2 / 2 >= epsilon * (1.0 + _SCREEN_MARGIN)


def _newton_step(va, vb, wa, wb, q, p, score_a, score_b, val):
    """One Newton step on the face of the supports of ``wa`` and ``wb``, in place.

    The weights' Hessian has blocks ``A diag(1/q) A^T``, ``-A diag(1/p) B^T``
    and ``B diag(q/p^2) B^T``, singular when a hull has more vertices than
    dimensions, so the KKT system with the two sum constraints is solved by
    least squares.  Backtracks from the full step, capped where a weight
    reaches 0 (that vertex leaves); False, weights unchanged, if no descent.
    """
    sa, sb = np.flatnonzero(wa > 0), np.flatnonzero(wb > 0)
    a, b = va[sa], vb[sb]
    na, n = len(sa), len(sa) + len(sb)
    kkt = np.zeros((n + 2, n + 2))
    kkt[:na, :na] = (a / q) @ a.T
    kkt[:na, na:n] = -(a / p) @ b.T
    kkt[na:n, :na] = kkt[:na, na:n].T
    kkt[na:n, na:n] = (b * (q / p ** 2)) @ b.T
    kkt[n, :na] = kkt[:na, n] = 1.0
    kkt[n + 1, na:n] = kkt[na:n, n + 1] = 1.0
    grad = np.concatenate([score_a[sa], score_b[sb]])
    x = np.linalg.lstsq(kkt, np.concatenate([-grad, [0.0, 0.0]]), rcond=None)[0][:n]
    x[:na] -= x[:na].mean()      # an inconsistent system leaves some residual
    x[na:] -= x[na:].mean()
    slope = float(grad @ x)
    if not slope < 0:
        return False
    w = np.concatenate([wa[sa], wb[sb]])
    caps = np.full(n, np.inf)
    caps[x < 0] = -w[x < 0] / x[x < 0]
    leaves = int(np.argmin(caps))
    t = min(1.0, caps[leaves])
    for _ in range(30):
        wt = np.maximum(w + t * x, 0.0)
        if t == caps[leaves]:
            wt[leaves] = 0.0
        qt, pt = wt[:na] @ a, wt[na:] @ b
        if float(qt @ (_safe_log(qt) - _safe_log(pt))) <= val + 1e-4 * t * slope:
            wa[sa] = wt[:na] / wt[:na].sum()
            wb[sb] = wt[na:] / wt[na:].sum()
            return True
        t *= 0.5
    return False


def _min_kl(va, vb, tol, epsilon=None):
    """min KL(q, p) over q in Conv(va), p in Conv(vb) as (value, gap, iterations).

    Frank-Wolfe over the two hulls' weights (module docstring), started at
    the best vertex pair; B's step uses the gradient after A's step, and
    on every _NEWTON_EVERY-th iteration a Newton step that descends
    replaces both.  Stops as the tie policy says, ``epsilon`` making it the
    certified test "minimum < epsilon"; raises NonConvergenceError after
    _MAX_ITER iterations.  Two single points return at iteration 0 with gap 0.
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
        if (it + 1) % _NEWTON_EVERY == 0 and _newton_step(
                va, vb, wa, wb, q, p, score_a, score_b, val):
            continue
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
    either direction), until the partition stabilizes.  With the concept
    structure frozen, the cluster count lower-bounds the number of groups
    a homophily run on these points stabilizes to; with concepts updating
    it need not (module docstring).

    ``internal_condition_holds`` additionally reports whether every point
    sits within epsilon of the hull of its cluster's other members, which
    the constructive partition does not enforce.  ``screened`` counts the
    merge pairs the range screen decided; ``iterations`` and ``max_gap``
    report the Frank-Wolfe work behind the solves that ran.
    """
    if not epsilon > 0:           # also rejects NaN
        raise ValueError("epsilon must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    points = _points(points)
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
