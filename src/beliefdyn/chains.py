"""Graph-theoretic anatomy of a chain: communicating classes, condensation,
recurrent/transient states, and periods.

A transition matrix induces a directed graph with an edge (i, j) whenever
entry (i, j) is positive.  Communicating classes are the strongly connected
components of that graph; collapsing them gives an acyclic condensation
whose leaf classes (no outgoing edges) are exactly the closed sets.  States
in leaf classes are recurrent, all others transient.  One
:class:`ChainAnalysis` record holds the classes, the leaf classes and each
state's label and period; the condensation's edges are not kept.
"""

from math import inf

import numpy as np

from .stochastic import DimensionMismatchError, require_square


class NotSIAError(ValueError):
    """The matrix is not stochastic-indecomposable-aperiodic."""


class ChainAnalysis:
    """Communicating classes, the leaf (closed) classes among them, and each
    state's recurrent label and period (inf = no return)."""

    def __init__(self, classes, leaf_classes, recurrent, periods):
        self.classes = classes              # tuple of sorted state tuples, in Tarjan's order
        self.leaf_classes = leaf_classes    # indices of classes with no edge leaving them
        self.recurrent = recurrent
        self.periods = periods

    @property
    def is_irreducible(self):
        return len(self.classes) == 1

    @property
    def is_indecomposable(self):
        return len(self.leaf_classes) <= 1

    @property
    def is_aperiodic(self):
        return all(d == 1 for d in self.periods)

    @property
    def recurrent_aperiodic(self):
        """True when every recurrent state has period 1.

        This is the aperiodicity that controls convergence of powers;
        transient states with no return path (period inf) do not obstruct
        the limit.
        """
        return all(d == 1 for d, rec in zip(self.periods, self.recurrent) if rec)


def _pattern(p, zero_threshold):
    """Boolean pattern ``p > zero_threshold`` of a square matrix."""
    a = require_square(p)
    if not zero_threshold >= 0:   # also rejects NaN
        raise ValueError("zero_threshold must be nonnegative")
    return a > zero_threshold


def graph_of(p, zero_threshold=0.0):
    """Edges (i, j) with p[i, j] > zero_threshold, as a sorted list of pairs."""
    return list(map(tuple, np.argwhere(_pattern(p, zero_threshold)).tolist()))


def _strongly_connected_components(adj):
    """Tarjan's algorithm, iterative.  Returns components as sorted tuples."""
    n = adj.shape[0]
    succ = [np.flatnonzero(adj[i]).tolist() for i in range(n)]
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0

    def enter(v):
        """Number ``v``, push it, and pair it with its unvisited successors."""
        nonlocal counter
        index[v] = low[v] = counter
        counter += 1
        stack.append(v)
        on_stack[v] = True
        return v, iter(succ[v])

    for root in range(n):
        if index[root] is not None:
            continue
        work = [enter(root)]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] is None:
                    work.append(enter(w))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
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
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
    return comps


def _condense(adj, comps):
    """Indices of the leaf classes (no edge leaves them), and each state's
    class index."""
    class_of = np.empty(adj.shape[0], dtype=int)
    for ci, comp in enumerate(comps):
        class_of[list(comp)] = ci
    rows, cols = np.nonzero(adj)
    ci, cj = class_of[rows], class_of[cols]
    closed = np.ones(len(comps), dtype=bool)
    closed[ci[ci != cj]] = False
    return tuple(np.flatnonzero(closed).tolist()), class_of


def _levels(adj, root):
    """Breadth-first depth of every state from ``root``; -1 where unreached."""
    level = np.full(adj.shape[0], -1)
    level[root] = 0
    frontier = [root]
    depth = 0
    while len(frontier):
        depth += 1
        frontier = np.flatnonzero(adj[frontier].any(axis=0) & (level < 0))
        level[frontier] = depth
    return level


def _class_periods(adj, comp):
    """Common period of a strongly connected class via BFS level sets.

    The gcd of (level(u) + 1 - level(v)) over intra-class edges (u, v)
    equals the gcd of all cycle lengths through the class.  A class with no
    internal edge (an isolated transient state without a self-loop) has no
    return path at all.
    """
    sub = adj[np.ix_(comp, comp)]
    u, v = np.nonzero(sub)
    if not u.size:
        return inf
    level = _levels(sub, 0)
    return int(np.gcd.reduce(level[u] + 1 - level[v]))


def analyze(p, zero_threshold=0.0):
    """Full structural analysis of a square stochastic matrix.

    Returns a :class:`ChainAnalysis` of the classes, the leaf classes and
    the per-state labels.  Predicates ``is_irreducible``,
    ``is_indecomposable`` (at most one leaf class) and ``is_aperiodic``
    (every period equal to 1) hang off the result.
    """
    return analyze_pattern(_pattern(p, zero_threshold))


def analyze_pattern(adj):
    """Analyze a boolean adjacency pattern directly (no matrix values)."""
    adj = np.asarray(adj, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise DimensionMismatchError(f"expected a square pattern, got {adj.shape}")
    comps = tuple(_strongly_connected_components(adj))
    leaves, class_of = _condense(adj, comps)
    recurrent = tuple(np.isin(class_of, leaves).tolist())
    class_period = [_class_periods(adj, comp) for comp in comps]
    periods = tuple(class_period[c] for c in class_of.tolist())
    return ChainAnalysis(comps, leaves, recurrent, periods)

