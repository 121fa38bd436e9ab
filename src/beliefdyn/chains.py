"""Graph-theoretic anatomy of a chain: communicating classes, leaf classes,
recurrent/transient states, and periods.

A transition matrix induces a directed graph with an edge (i, j) whenever
entry (i, j) is positive.  Communicating classes are the strongly connected
components of that graph; collapsing them gives an acyclic condensation
whose leaf classes (no outgoing edges) are exactly the closed sets.  States
in leaf classes are recurrent, all others transient.  One
:class:`ChainAnalysis` record holds the classes, the leaf classes and each
state's label and period; the condensation's edges are not kept.

One depth-first search, Tarjan's, answers all of it.  It finds the classes
and each state's depth in its search tree, in which every class is a
subtree hanging from its first state r.  A class's period g is the gcd G of
depth(u) + 1 - depth(v) over its internal edges (u, v), and inf when it has
none.  Around a cycle these terms telescope to its length, so G divides g.
The closed walks r -> u -> v -> r and r -> v -> r, down the tree and back
along one path v -> r, differ in length by depth(u) + 1 - depth(v), so g
divides G.
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


def graph_of(p):
    """Edges (i, j) with p[i, j] > 0, as a sorted list of pairs."""
    return list(map(tuple, np.argwhere(require_square(p) > 0).tolist()))


def _search(rows, cols, n):
    """Tarjan's depth-first search over the edges ``(rows[k], cols[k])``,
    sorted by row, iterative.  Returns the classes as sorted tuples in the
    order they complete, each state's class index and its search depth.
    A numbered state is on Tarjan's stack until it gets its class index."""
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    heads = cols.tolist()
    index = [None] * n
    low = [0] * n
    depth = [0] * n
    class_of = [-1] * n
    stack = []
    comps = []
    counter = 0

    def enter(v, d):
        """Number ``v`` at depth ``d``, push it, and pair it with its successors."""
        nonlocal counter
        index[v] = low[v] = counter
        depth[v] = d
        counter += 1
        stack.append(v)
        return v, iter(heads[starts[v]:starts[v + 1]])

    for root in range(n):
        if index[root] is not None:
            continue
        work = [enter(root, 0)]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] is None:
                    work.append(enter(w, len(work)))
                    break
                if class_of[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        class_of[w] = len(comps)
                    comps.append(tuple(sorted(comp)))
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
    return comps, np.array(class_of, dtype=int), np.array(depth, dtype=int)


def analyze(p):
    """Full structural analysis of a square stochastic matrix's pattern
    ``p > 0``, the one every layer reads: any positive entry is an edge.

    Returns a :class:`ChainAnalysis` of the classes, the leaf classes and
    the per-state labels.  Predicates ``is_irreducible``,
    ``is_indecomposable`` (at most one leaf class) and ``is_aperiodic``
    (every period equal to 1) hang off the result.
    """
    return analyze_pattern(require_square(p) > 0)


def analyze_pattern(adj):
    """Analyze a boolean adjacency pattern directly (no matrix values)."""
    adj = np.asarray(adj, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise DimensionMismatchError(f"expected a square pattern, got {adj.shape}")
    rows, cols = np.nonzero(adj)
    comps, class_of, depth = _search(rows, cols, adj.shape[0])
    ci, cj = class_of[rows], class_of[cols]
    inner = ci == cj
    closed = np.ones(len(comps), dtype=bool)        # no edge leaves the class
    closed[ci[~inner]] = False
    gcd = np.zeros(len(comps), dtype=int)           # gcd(0, x) = |x|
    np.gcd.at(gcd, ci[inner], (depth[rows] + 1 - depth[cols])[inner])
    class_period = [g or inf for g in gcd.tolist()]  # 0: no internal edge
    return ChainAnalysis(tuple(comps), tuple(np.flatnonzero(closed).tolist()),
                         tuple(closed[class_of].tolist()),
                         tuple(class_period[c] for c in class_of.tolist()))
