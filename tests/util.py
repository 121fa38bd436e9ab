"""Shared brute-force oracles for the test suite.

Everything here recomputes quantities by enumeration or iteration, kept
deliberately independent of the library's own algorithms.
"""

from itertools import combinations, product as iter_product

import numpy as np

from beliefdyn.homophily import kl_divergence, softmax_weights
from beliefdyn.rng import CONCEPT_STREAM, MASK64, NETWORK_STREAM
from beliefdyn.sampling import SampledRun
from beliefdyn.stochastic import max_abs_diff, row_normalize


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


def loop_homophily_structure(points, eps, cfg):
    """Threshold-and-softmax structure from one scalar KL call per pair.

    Returns the structure and the divergence matrix it thresholded.
    """
    n = len(points)
    divs = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                divs[i, j] = kl_divergence(points[i], points[j], cfg.floor)
    out = np.zeros((n, n))
    for i in range(n):
        linked = divs[i] < eps        # strict; self always qualifies at 0
        out[i, linked] = softmax_weights(divs[i, linked], cfg.beta)
    return row_normalize(out), divs


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
    return SampledRun(int(seed), steps, tuple(word_p), tuple(word_h), q, stabilized)


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


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def grid_min_kl_to_point(hull, target, resolution=50, floor=1e-12):
    """Brute-force min KL(q, target) over a barycentric weight grid."""
    hull = np.asarray(hull, dtype=float)
    best = np.inf
    for comp in _compositions(resolution, hull.shape[0]):
        w = np.asarray(comp, dtype=float) / resolution
        best = min(best, kl_divergence(w @ hull, target, floor))
    return best


def grid_min_kl_hull_to_hull(a, b, resolution=25, floor=1e-12):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    best = np.inf
    for ca in _compositions(resolution, a.shape[0]):
        q = np.asarray(ca, dtype=float) / resolution @ a
        for cb in _compositions(resolution, b.shape[0]):
            p = np.asarray(cb, dtype=float) / resolution @ b
            best = min(best, kl_divergence(q, p, floor))
    return best


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
