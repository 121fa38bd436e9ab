"""Shared brute-force oracles for the test suite.

Everything here recomputes quantities by enumeration or iteration, kept
deliberately independent of the library's own algorithms.
"""

from itertools import combinations, product as iter_product
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from beliefdyn.chains import analyze_pattern
from beliefdyn.clusters import NonConvergenceError, _exact_step, _safe_log
from beliefdyn.ergodic import (BudgetExceededError, NotConvergentFamilyError,
                               _pattern_scrambling, nu_star)
from beliefdyn.homophily import (FLOOR, _floored, belief_groups, build_concepts,
                                 build_network, kl_divergence, network_groups,
                                 softmax_weights)
from beliefdyn.matrixio import _HEADER, ParseError
from beliefdyn.rng import CONCEPT_STREAM, MASK64, NETWORK_STREAM
from beliefdyn.sampling import SampledRun
from beliefdyn.stochastic import MatrixFamily, ZeroSumError, max_abs_diff, validate_stochastic


def row_normalize(m):
    """Scale each row to sum to 1, zeros staying zero; a negative entry or
    an all-zero row raises as ``col_normalize`` does for columns."""
    a = validate_stochastic(m, tol=np.inf)      # entries only: finite, nonnegative
    sums = a.sum(axis=1, keepdims=True)
    if not sums.all():
        raise ZeroSumError(0, int(np.flatnonzero(sums == 0)[0]))
    return a / sums


def loop_ingest_rounded(m):
    """``ingest_rounded`` as a check at the rounding tolerance followed by a
    separate normalization, each with its own copy and scan."""
    a = np.array(m, dtype=float)
    return row_normalize(validate_stochastic(a, tol=max(1e-3, 5e-4 * a.shape[1]) + 1e-12))


def random_stochastic(rng, rows, cols=None, zeros=0.0):
    """Random row-stochastic matrix; ``zeros`` is the sparsity probability."""
    cols = rows if cols is None else cols
    while True:
        a = rng.dirichlet(np.ones(cols), size=rows)
        if zeros > 0:
            mask = rng.random((rows, cols)) < zeros
            # never zero out a full row
            for i in range(rows):
                if mask[i].all():
                    mask[i, rng.integers(cols)] = False
            a = np.where(mask, 0.0, a)
        sums = a.sum(axis=1)
        if np.all(sums > 0):
            return a / sums[:, None]


def loop_write_matrix(path, m):
    """CSV writer that formats one element at a time."""
    m = np.asarray(m, dtype=float)
    lines = ["# rows=%d cols=%d" % m.shape]
    for row in m:
        lines.append(",".join("%.12g" % float(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def loop_read_matrix(path):
    """CSV reader that parses one token at a time with ``float``."""
    path = Path(path)
    rows = []
    expected = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER.match(line)
            if m:
                expected = (int(m.group(1)), int(m.group(2)))
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ParseError(path, lineno, f"bad number: {exc}") from None
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise ParseError(path, lineno, "ragged row")
    if not rows:
        raise ParseError(path, 0, "no data rows")
    a = np.array(rows, dtype=float)
    if expected is not None and a.shape != expected:
        raise ParseError(path, 0, f"header says {expected}, found {a.shape}")
    return a


def loop_homophily_structure(points, eps, cfg):
    """Threshold-and-softmax structure from one scalar KL call per pair.

    Returns the structure and the divergence matrix it thresholded.
    """
    n = len(points)
    divs = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                divs[i, j] = kl_divergence(points[i], points[j], FLOOR)
    out = np.zeros((n, n))
    for i in range(n):
        linked = divs[i] < eps        # strict; self always qualifies at 0
        out[i, linked] = softmax_weights(divs[i, linked], cfg.beta)
    return row_normalize(out), divs


def loop_evolve(p, m, h, steps, tol=1e-9):
    """The static model's loop written on its own, the oracle of the shared
    step loop: (snapshots Q_0..Q_steps, stabilized_at)."""
    snaps = [m.copy()]
    stabilized = None
    q = m
    for k in range(1, steps + 1):
        q = p @ q @ h
        snaps.append(q)
        if stabilized is None and tol > 0 and max_abs_diff(snaps[-1], snaps[-2]) < tol:
            stabilized = k
    return snaps, stabilized


def loop_homophily(m0, cfg):
    """The homophily model's loop written on its own, the oracle of the
    shared step loop; its plain record has the trace's fields."""
    m0 = validate_stochastic(m0, tol=1e-7)
    r, s = m0.shape
    trace = SimpleNamespace(networks=[], concepts=[], beliefs=[m0.copy()],
                            stabilized_at=None)
    q = m0
    for t in range(1, cfg.max_steps + 1):
        p_t = np.eye(r) if cfg.freeze_network else build_network(q, cfg)
        h_t = np.eye(s) if cfg.freeze_concepts else build_concepts(q, cfg)
        nxt = p_t @ q @ h_t
        trace.networks.append(p_t)
        trace.concepts.append(h_t)
        trace.beliefs.append(nxt.copy())
        if max_abs_diff(nxt, q) < cfg.tol:
            trace.stabilized_at = t
            q = nxt
            break
        q = nxt
    trace.final_groups = network_groups(trace.networks[-1])
    trace.belief_groups = belief_groups(trace.beliefs[-1])
    return trace


def _scalar_splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    z = z ^ (z >> 31)
    return state, z


def _scalar_rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK64


class ScalarXoshiro256StarStar:
    """xoshiro256** on Python integers, one seed at a time."""

    def __init__(self, seed, stream=0):
        state = (int(seed) ^ ((stream * 0x9E3779B97F4A7C15) & MASK64)) & MASK64
        s = []
        for _ in range(4):
            state, out = _scalar_splitmix64(state)
            s.append(out)
        if not any(s):
            s[0] = 1
        self._s = s

    def next_uint64(self):
        s = self._s
        result = (_scalar_rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _scalar_rotl(s[3], 45)
        return result

    def next_float(self):
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def next_index(self, weights):
        total = float(sum(weights))
        u = self.next_float() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += float(w)
            if u < acc:
                return i
        return len(weights) - 1


def loop_sample_trajectory(sp, sh, m, seed, steps, tol=1e-9):
    """One seed's sampled run, one scalar draw and one product per step."""
    rng_p = ScalarXoshiro256StarStar(seed, stream=NETWORK_STREAM)
    rng_h = ScalarXoshiro256StarStar(seed, stream=CONCEPT_STREAM)
    word_p, word_h = [], []
    q = np.array(m, dtype=float)
    stabilized = None
    for t in range(1, steps + 1):
        i = rng_p.next_index(sp.weights)
        j = rng_h.next_index(sh.weights)
        word_p.append(i)
        word_h.append(j)
        nxt = sp.members[i] @ q @ sh.members[j]
        if stabilized is None and tol > 0 and max_abs_diff(nxt, q) < tol:
            stabilized = t
        q = nxt
    return SampledRun(int(seed), tuple(word_p), tuple(word_h), q, stabilized)


def pair_loop_ergodic_coefficient(p):
    """min over row pairs of sum_j min(p_ij, p_kj), one pair at a time."""
    a = np.asarray(p, dtype=float)
    g = 1.0
    for i, j in combinations(range(a.shape[0]), 2):
        g = min(g, float(np.minimum(a[i], a[j]).sum()))
    return g


def closed_subsets(p, tol=1e-9):
    """All closed nonempty subsets of states, by bitmask enumeration."""
    a = np.asarray(p)
    n = a.shape[0]
    out = []
    for mask in range(1, 1 << n):
        states = [i for i in range(n) if mask >> i & 1]
        inside = a[np.ix_(states, states)].sum(axis=1)
        if np.all(np.abs(inside - 1.0) <= tol):
            out.append(frozenset(states))
    return out


def minimal_closed_subsets(p, tol=1e-9):
    closed = closed_subsets(p, tol)
    return [s for s in closed if not any(t < s for t in closed)]


def brute_force_indecomposable(p, tol=1e-9):
    return len(minimal_closed_subsets(p, tol)) <= 1


def class_edges(adj, classes):
    """Edges (ci, cj), ci != cj, between the classes that contain the two
    ends of some edge of the pattern ``adj``."""
    class_of = {s: ci for ci, comp in enumerate(classes) for s in comp}
    edges = {(class_of[i], class_of[j]) for i, j in zip(*np.nonzero(adj))}
    return {(ci, cj) for ci, cj in edges if ci != cj}


def loop_strongly_connected_components(adj):
    """Tarjan's algorithm with a (state, successor position) resume index
    per stack frame.  Returns components as sorted tuples, in the order
    they complete."""
    n = adj.shape[0]
    succ = [np.flatnonzero(adj[i]).tolist() for i in range(n)]
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = [0]

    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(succ[v]):
                w = succ[v][pi]
                pi += 1
                if index[w] is None:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comps


def bfs_one_leaf_connected(family):
    """The paper's union-graph criterion, necessary for almost-sure consensus
    of sampled products but not sufficient (a swap meets it): the OR of the
    members' positivity patterns has one leaf class, and a breadth-first
    search over the edges between its classes, taken both ways, reaches
    every class."""
    union = np.logical_or.reduce([np.asarray(m) > 0 for m in family.members])
    result = analyze_pattern(union)
    if len(result.leaf_classes) != 1:
        return False
    k = len(result.classes)
    neighbours = {ci: set() for ci in range(k)}
    for ci, cj in class_edges(union, result.classes):
        neighbours[ci].add(cj)
        neighbours[cj].add(ci)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in neighbours[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == k


def bfs_network_groups(p):
    """Weakly connected components by a per-node search over the rows of
    the symmetrized positivity pattern."""
    a = np.asarray(p) > 0
    a = a | a.T
    n = a.shape[0]
    seen = [False] * n
    groups = []
    for i in range(n):
        if seen[i]:
            continue
        comp = [i]
        seen[i] = True
        stack = [i]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(a[u]):
                v = int(v)
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        groups.append(tuple(sorted(comp)))
    return tuple(sorted(groups))


def loop_belief_groups(m, tol=1e-6):
    """First-fit belief groups, one row-against-representative test at a time."""
    m = np.asarray(m, dtype=float)
    groups = []
    for i in range(m.shape[0]):
        for g in groups:
            if np.max(np.abs(m[g[0]] - m[i])) < tol:
                g.append(i)
                break
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def brute_force_period(p, state, horizon=None):
    """gcd of return times of a state, from boolean pattern powers."""
    a = np.asarray(p) > 0
    n = a.shape[0]
    horizon = horizon or 3 * n * n + 3
    from math import gcd, inf
    power = np.eye(n, dtype=bool)
    d = 0
    for k in range(1, horizon + 1):
        power = (power.astype(np.uint8) @ a.astype(np.uint8)) > 0
        if power[state, state]:
            d = gcd(d, k)
    return d if d else inf


def enumerate_word_products(members, max_len):
    """All (word, real product) pairs over the members up to a length."""
    out = []
    for length in range(1, max_len + 1):
        for word in iter_product(range(len(members)), repeat=length):
            prod = members[word[0]]
            for idx in word[1:]:
                prod = prod @ members[idx]
            out.append((word, prod))
    return out


def _explore_patterns(family, max_patterns):
    """Breadth-first closure of the family's patterns under boolean product.

    Yields (word, pattern) in (length, lexicographic) order, each pattern
    once, so any witness extracted from the stream is canonical.
    """
    gens = [m > 0 for m in family.members]
    seen = set()
    frontier = []
    for idx, g in enumerate(gens):
        key = g.tobytes()
        if key not in seen:
            seen.add(key)
            frontier.append(((idx,), g))
    for word, pat in frontier:
        yield word, pat
    while frontier:
        nxt = []
        for word, pat in frontier:
            for idx, g in enumerate(gens):
                new = pat @ g
                key = new.tobytes()
                if key in seen:
                    continue
                if len(seen) >= max_patterns:
                    raise BudgetExceededError(f"{len(seen)} patterns")
                seen.add(key)
                nxt.append((word + (idx,), new))
        nxt.sort(key=lambda item: item[0])
        for word, pat in nxt:
            yield word, pat
        frontier = nxt


def word_product(family, word):
    """Real product of the members a word names, left to right."""
    prod = family.members[word[0]]
    for idx in word[1:]:
        prod = prod @ family.members[idx]
    return prod


def shift_swap_merge(n):
    """A cyclic shift, a swap, and the identity with row 0 spread over {0, 1}.

    Some word scrambles, but from 6 states on the shortest one lies past a
    100,000-pattern breadth-first search of the pattern semigroup.
    """
    merge = np.eye(n)
    merge[0, :2] = 0.5
    return MatrixFamily([np.roll(np.eye(n), 1, axis=1),
                         np.eye(n)[[1, 0, *range(2, n)]], merge])


def search_scrambling_product(family, max_patterns=100_000):
    """Shortest scrambling word, ties broken lexicographically, or None.

    Searches the pattern semigroup breadth first with no precheck, so a
    family with no scrambling word costs the whole semigroup.
    """
    for word, pat in _explore_patterns(family, max_patterns):
        if _pattern_scrambling(pat):
            return word
    return None


def level_scan_block_length(family, max_patterns=100_000):
    """Smallest length at which every word over the family scrambles.

    Extends every distinct pattern of one length, scrambling or not, to the
    next, for lengths up to nu_star; raises NotConvergentFamilyError past it
    and BudgetExceededError when one length holds over max_patterns patterns.
    """
    gens = [m > 0 for m in family.members]
    level = {g.tobytes(): g for g in gens}
    for length in range(1, nu_star(family.shape[0]) + 1):
        if all(_pattern_scrambling(pat) for pat in level.values()):
            return length
        nxt = {}
        for pat in level.values():
            for g in gens:
                new = pat @ g
                nxt[new.tobytes()] = new
                if len(nxt) > max_patterns:
                    raise BudgetExceededError(f"{len(nxt)} patterns")
        level = nxt
    raise NotConvergentFamilyError("no block length up to nu* works")


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def grid_min_kl_to_point(hull, target, resolution=50, floor=1e-12):
    """Brute-force min KL(q, target) over a barycentric weight grid."""
    return grid_min_kl_hull_to_hull(hull, [target], resolution, floor)


def grid_min_kl_hull_to_hull(a, b, resolution=25, floor=1e-12):
    """Brute-force min KL(q, p) over barycentric weight grids on both hulls."""
    def grid(v):
        w = np.array(list(_compositions(resolution, len(v))), dtype=float)
        x = np.maximum(w / resolution @ np.asarray(v, dtype=float), floor)
        return x / x.sum(axis=1, keepdims=True)

    q, p = grid(a), grid(b)
    # every pair at once: KL(q_i, p_j) = sum q_i log q_i - q_i . log p_j
    return float(np.min(np.sum(q * np.log(q), axis=1)[:, None] - q @ np.log(p).T))


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


def _away_step_frank_wolfe(vertices, grad_q, value_q, tol, max_iter, w0):
    """Away-step Frank-Wolfe over hull weights, warm-started at ``w0``.

    At the iteration cap it returns its last iterate: a feasible point, so
    its value still bounds the minimum from above.
    """
    v = np.asarray(vertices, dtype=float)
    w = np.asarray(w0, dtype=float).copy()
    q = w @ v
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
    return value_q(q), w


def alternating_min_kl_hull_to_hull(a, b, tol=1e-6, max_iter=10_000, rounds=60):
    """min over q in Conv(a), p in Conv(b) of KL(q, p) by alternation.

    Minimizes over q with p fixed, then over p with q fixed (each a convex
    Frank-Wolfe solve), from five deterministic starts: the barycenters and
    the four closest vertex pairs.  Keeps the best value.  A heuristic: it
    reaches the joint minimum here only because KL is jointly convex.
    """
    va, vb = _floored(a), _floored(b)
    ka, kb = va.shape[0], vb.shape[0]
    if ka == 1 and kb == 1:
        return kl_divergence(va[0], vb[0])
    pair_kl = np.array([[kl_divergence(x, y) for y in vb] for x in va])
    starts = [(np.full(ka, 1.0 / ka), np.full(kb, 1.0 / kb))]
    for i, j in zip(*np.unravel_index(np.argsort(pair_kl, axis=None)[:4],
                                      pair_kl.shape)):
        starts.append((np.eye(ka)[i], np.eye(kb)[j]))

    best = np.inf
    for wa, wb in starts:
        p = wb @ vb
        prev = np.inf
        for _ in range(rounds):
            log_p = _safe_log(p)
            val, wa = _away_step_frank_wolfe(
                va, lambda q_: _safe_log(q_) - log_p + 1.0,
                lambda q_: float(np.sum(q_ * (_safe_log(q_) - log_p))),
                tol, max_iter, wa)
            q = wa @ va
            val, wb = _away_step_frank_wolfe(
                vb, lambda p_: -q / np.maximum(p_, 1e-300),
                lambda p_: float(np.sum(q * (_safe_log(q) - _safe_log(p_)))),
                tol, max_iter, wb)
            p = wb @ vb
            if prev - val < 0.1 * tol:
                break
            prev = val
        best = min(best, val)
    return max(best, 0.0)


def _pairwise(w, scores):
    """The best vertex and the worst active one, by their gradient scores."""
    active = np.flatnonzero(w > 0)
    return int(np.argmin(scores)), int(active[np.argmax(scores[active])])


def fw_min_kl(va, vb, tol, epsilon=None, max_iter=10_000):
    """``clusters._min_kl`` by pairwise Frank-Wolfe: (value, gap, iterations).

    One pairwise step per hull per iteration (Lacoste-Julien & Jaggi,
    NeurIPS 2015), each at the exact step size, from the best vertex pair,
    with the same duality gap and stopping rules as ``_min_kl``.  On some
    inputs its gap closes too slowly and it raises NonConvergenceError at
    ``max_iter``.
    """
    log_a, log_b = _safe_log(va), _safe_log(vb)
    pair_kl = np.sum(va[:, None] * (log_a[:, None] - log_b[None]), axis=-1)
    i, j = np.unravel_index(int(np.argmin(pair_kl)), pair_kl.shape)
    wa, wb = np.eye(va.shape[0])[i], np.eye(vb.shape[0])[j]
    gap = np.inf
    for it in range(max_iter):
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
    raise NonConvergenceError(max_iter, gap)


def pair_stack_min_kl(a, b, tol=1e-6, max_iter=10_000):
    """min over q in Conv(a), p in Conv(b) of KL(q, p) on the stacked pairs.

    KL(q, p) is jointly convex and Conv(A) x Conv(B) is the hull of the
    |A|*|B| stacked vertex pairs (a_i, b_j), so this is one away-step
    Frank-Wolfe run over x = (q, p) on the weights of those pairs, started
    at the best pair.  At the iteration cap it returns its last value,
    which still bounds the minimum from above.
    """
    va, vb = _floored(a), _floored(b)
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

    w0 = np.eye(len(pairs))[int(np.argmin(value(pairs)))]
    val, _ = _away_step_frank_wolfe(pairs, grad, lambda x: float(value(x)),
                                    tol, max_iter, w0)
    return max(val, 0.0)


def loop_epsilon_kl_clusters(points, epsilon):
    """eps-KL clusters by merging any two components whose hulls come within
    epsilon (either direction, by ``pair_stack_min_kl`` value), until no
    pair does.

    Merging only enlarges hulls, so every merge order ends at the same
    partition; this one re-decides every pair after each merge.
    """
    points = np.asarray(points, dtype=float)
    comps = [[i] for i in range(len(points))]
    merged = True
    while merged:
        merged = False
        for x, y in combinations(range(len(comps)), 2):
            a, b = points[comps[x]], points[comps[y]]
            if (pair_stack_min_kl(a, b) < epsilon
                    or pair_stack_min_kl(b, a) < epsilon):
                comps[x] = sorted(comps[x] + comps.pop(y))
                merged = True
                break
    return tuple(sorted(map(tuple, comps)))


def power_iteration_subdominant(p, iters=4000, settle=200, seed=1):
    """Modulus of the second eigenvalue by deflated power iteration.

    Deflates the unit eigenvalue with the stationary projector, then reads
    the geometric growth rate of a random vector under the residual map.
    """
    a = np.asarray(p, dtype=float)
    n = a.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(20000):
        nxt = pi @ a
        if np.max(np.abs(nxt - pi)) < 1e-15:
            pi = nxt
            break
        pi = nxt
    residual = a - np.outer(np.ones(n), pi)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    for _ in range(settle):
        x = residual @ x
        nrm = np.linalg.norm(x)
        if nrm == 0:
            return 0.0
        x /= nrm
    growth = []
    for _ in range(iters):
        x = residual @ x
        nrm = np.linalg.norm(x)
        if nrm == 0:
            return 0.0
        growth.append(nrm)
        x /= nrm
    return float(np.exp(np.mean(np.log(growth[len(growth) // 2:]))))
