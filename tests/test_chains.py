from math import inf

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beliefdyn import datasets
from beliefdyn.chains import analyze, analyze_pattern, graph_of
from beliefdyn.stochastic import DimensionMismatchError, MatrixFamily
from util import (bfs_one_leaf_connected, brute_force_indecomposable,
                  brute_force_period, class_edges, loop_strongly_connected_components,
                  minimal_closed_subsets, random_stochastic)

DRAIN = np.array([[0.0, 0.7, 0.3], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_graph_of_identity_self_loops():
    assert graph_of(np.eye(3)) == [(0, 0), (1, 1), (2, 2)]


def test_graph_of_drain_matrix():
    # row-major order, so the list is already sorted
    assert graph_of(DRAIN) == [(0, 1), (0, 2), (1, 1), (2, 2)]


def test_graph_requires_square():
    with pytest.raises(DimensionMismatchError, match="expected a square matrix"):
        graph_of(np.ones((2, 3)) / 3)


# state 0's only link into the closed class {1, 2} is an entry of 1e-300
TINY_DRAIN = np.array([[1.0, 1e-300, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])


def test_every_positive_entry_is_an_edge():
    # analyze reads the pattern p > 0, as limit_q and the certificates do,
    # however small the entry: state 0 is transient, not a closed class
    result = analyze(TINY_DRAIN)
    pattern = analyze_pattern(TINY_DRAIN > 0)
    assert (result.classes, result.leaf_classes) == (pattern.classes, pattern.leaf_classes)
    assert [result.classes[c] for c in result.leaf_classes] == [(1, 2)]
    assert result.recurrent == (False, True, True)
    assert (0, 1) in graph_of(TINY_DRAIN)


def test_two_cycle_is_irreducible_period_two():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    result = analyze(swap)
    assert result.is_irreducible
    assert result.periods == (2, 2)
    assert not result.is_aperiodic


def test_two_camp_network_classes():
    p, _, _ = datasets.two_camp_society()
    result = analyze(p)
    leaves = {result.classes[c] for c in result.leaf_classes}
    assert leaves == {(0, 1, 2), (3, 4)}
    assert not result.is_indecomposable
    assert result.is_aperiodic


def test_drain_matrix_classification():
    result = analyze(DRAIN)
    assert result.classes == ((1,), (2,), (0,))
    assert result.recurrent == (False, True, True)
    # state 0 never returns
    assert result.periods[0] == inf
    assert result.periods[1] == 1


def test_camps_and_loner_components():
    p, _, _ = datasets.camps_and_loner()
    result = analyze(p)
    leaves = {result.classes[c] for c in result.leaf_classes}
    assert leaves == {(0, 1), (2,)}


def test_union_graph_single_leaf_family():
    # the members' summed matrix is positive exactly on their union graph
    union = sum(datasets.single_leaf_family().members)
    assert graph_of(union) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]
    result = analyze(union)
    assert set(result.classes) == {(0,), (1, 2)}
    assert len(result.leaf_classes) == 1


def test_one_leaf_connected_cases():
    assert bfs_one_leaf_connected(datasets.single_leaf_family())
    assert not bfs_one_leaf_connected(MatrixFamily([np.eye(2)]))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert bfs_one_leaf_connected(MatrixFamily([swap]))


def test_condensation_acyclic_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = random_stochastic(rng, 6, zeros=0.6)
        result = analyze(p)
        edges = class_edges(p > 0, result.classes)
        # the leaf classes are exactly those that no edge leaves
        sources = {src for src, _ in edges}
        assert result.leaf_classes == tuple(c for c in range(len(result.classes))
                                            if c not in sources)
        # a cycle among classes would contradict SCC maximality; check by
        # topological elimination
        remaining = set(range(len(result.classes)))
        while remaining:
            sinks = [c for c in remaining
                     if not any(src == c and dst in remaining for src, dst in edges)]
            assert sinks, "condensation contains a cycle"
            remaining -= set(sinks)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), density=st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_classes_in_tarjan_order(n, density, seed):
    # analysis.jsonl prints the classes in this order, so the order itself
    # must match the resume-index loop, not only the set of classes
    adj = np.random.default_rng(seed).random((n, n)) < density
    assert analyze_pattern(adj).classes == tuple(loop_strongly_connected_components(adj))


def test_leaf_classes_are_closed_sets():
    rng = np.random.default_rng(6)
    for _ in range(30):
        p = random_stochastic(rng, 6, zeros=0.5)
        result = analyze(p)
        for c in result.leaf_classes:
            members = list(result.classes[c])
            inside = p[np.ix_(members, members)].sum(axis=1)
            assert np.all(np.abs(inside - 1.0) <= 1e-9)


def test_indecomposable_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        p = random_stochastic(rng, n, zeros=0.55)
        assert analyze(p).is_indecomposable == brute_force_indecomposable(p)


def test_leaf_count_matches_minimal_closed_sets():
    rng = np.random.default_rng(8)
    for _ in range(25):
        p = random_stochastic(rng, 6, zeros=0.55)
        result = analyze(p)
        assert len(result.leaf_classes) == len(minimal_closed_subsets(p))


def test_self_loop_means_period_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_stochastic(rng, 5, zeros=0.4)
        np.fill_diagonal(p, np.maximum(p.diagonal(), 0.05))
        p = p / p.sum(axis=1, keepdims=True)
        result = analyze(p)
        assert result.periods == (1,) * 5


def _block_cyclic(rng, period, most=3):
    """Random chain whose links only go from block k to block k + 1 (mod
    period), blocks of 1 to ``most`` states, with its states shuffled."""
    block = np.repeat(np.arange(period), rng.integers(1, most + 1, size=period))
    n = block.size
    nxt = block[None, :] == (block[:, None] + 1) % period
    pattern = nxt & (rng.random((n, n)) < 0.6)
    for i in np.flatnonzero(~pattern.any(axis=1)):
        pattern[i, rng.choice(np.flatnonzero(nxt[i]))] = True
    perm = rng.permutation(n)
    w = np.where(pattern, rng.random((n, n)) + 0.1, 0.0)[np.ix_(perm, perm)]
    return w / w.sum(axis=1, keepdims=True)


def test_periods_match_bruteforce():
    rng = np.random.default_rng(10)
    matrices = [random_stochastic(rng, int(rng.integers(2, 8)), zeros=0.6)
                for _ in range(30)]
    matrices += [_block_cyclic(rng, d) for d in (2, 3, 4) for _ in range(5)]
    seen = set()
    for p in matrices:
        result = analyze(p)
        seen.update(result.periods)
        for state in range(p.shape[0]):
            assert result.periods[state] == brute_force_period(p, state)
    assert {2, 3, 4} <= seen


def _composite(rng, periods):
    """Block-cyclic chains of the given periods side by side, fed by one or
    two transient states that link anywhere and into at least one of them,
    with all states shuffled, so search depths are not breadth-first levels."""
    parts = [_block_cyclic(rng, d, most=2) for d in periods]
    k = sum(len(q) for q in parts)
    t = int(rng.integers(1, 3))
    w = np.zeros((k + t, k + t))
    at = 0
    for q in parts:
        w[at:at + len(q), at:at + len(q)] = q
        at += len(q)
    w[k:] = rng.random((t, k + t)) * (rng.random((t, k + t)) < 0.4)
    w[np.arange(k, k + t), rng.integers(0, k, size=t)] += 1.0
    perm = rng.permutation(k + t)
    w = w[np.ix_(perm, perm)]
    return w / w.sum(axis=1, keepdims=True)


def test_periods_and_leaves_match_bruteforce_on_several_classes():
    rng = np.random.default_rng(11)
    seen = set()
    for periods in [(2, 3), (2, 4), (1, 3)] * 4:
        p = _composite(rng, periods)
        result = analyze(p)
        seen.update(result.periods)
        for state in range(p.shape[0]):
            assert result.periods[state] == brute_force_period(p, state)
        leaves = {frozenset(result.classes[c]) for c in result.leaf_classes}
        assert leaves == set(minimal_closed_subsets(p))
    assert {1, 2, 3, 4, inf} <= seen


def test_empty_pattern_has_empty_anatomy():
    result = analyze_pattern(np.zeros((0, 0), dtype=bool))
    assert (result.classes, result.leaf_classes, result.recurrent, result.periods) == (
        (), (), (), ())


def test_irreducible_implies_indecomposable():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    result = analyze(swap)
    assert result.is_irreducible and result.is_indecomposable
