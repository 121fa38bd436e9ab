from math import log

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from beliefdyn import datasets
from beliefdyn.clusters import epsilon_kl_clusters
from beliefdyn.homophily import (HomophilyConfig, InfiniteDivergenceError,
                                 StepLimitReached,
                                 build_concepts, build_network, belief_groups,
                                 kl_divergence, network_groups, run_homophily,
                                 softmax_weights)
from beliefdyn.stochastic import DimensionMismatchError, col_normalize
from util import (bfs_network_groups, loop_belief_groups, loop_homophily,
                  loop_homophily_structure)

SIM_CFG = HomophilyConfig(eps_p=0.3, eps_h=0.25)


class TestKlDivergence:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_single_surviving_term(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5], floor=0.0) == pytest.approx(log(2))

    def test_known_row_pair(self):
        m = datasets.five_person_beliefs()
        assert kl_divergence(m[1], m[3]) == pytest.approx(0.128, abs=2e-3)

    def test_asymmetry(self):
        m = datasets.five_person_beliefs()
        assert kl_divergence(m[1], m[3]) != pytest.approx(kl_divergence(m[3], m[1]))

    def test_infinite_divergence_without_floor(self):
        with pytest.raises(InfiniteDivergenceError):
            kl_divergence([0.5, 0.5], [1.0, 0.0], floor=0.0)

    def test_floor_renormalizes(self):
        val = kl_divergence([0.5, 0.5], [1.0, 0.0], floor=1e-12)
        assert np.isfinite(val) and val > 1.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError, match=r"shapes \(1,\) and \(2,\)"):
            kl_divergence([1.0], [0.5, 0.5])

    def test_nonnegative(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert kl_divergence(p, q) >= 0.0


class TestSoftmaxWeights:
    def test_constant_vector_uniform(self):
        w = softmax_weights([0.2, 0.2, 0.2], beta=1.0)
        assert np.allclose(w, 1 / 3)

    def test_published_link_weights(self):
        w = softmax_weights([0.0, 0.128], beta=1.0)
        assert np.allclose(w, [0.532, 0.468], atol=1.5e-3)

    def test_beta_zero_uniform(self):
        w = softmax_weights([0.0, 5.0, 100.0], beta=0.0)
        assert np.allclose(w, 1 / 3)

    def test_weights_positive_and_normalized(self):
        w = softmax_weights([0.0, 0.4, 1.2], beta=2.0)
        assert np.all(w > 0) and w.sum() == pytest.approx(1.0)

    def test_empty_subset(self):
        from beliefdyn.homophily import EmptySubsetError
        with pytest.raises(EmptySubsetError):
            softmax_weights([], beta=1.0)


class TestBuildNetwork:
    def test_identical_rows_give_uniform_all_pairs(self):
        m = np.tile([0.25, 0.25, 0.25, 0.25], (4, 1))
        p = build_network(m, SIM_CFG)
        assert np.allclose(p, 0.25)

    def test_published_first_step(self):
        m = datasets.five_person_beliefs()
        p1 = build_network(m, SIM_CFG)
        printed = np.array([
            [0.5, 0, 0, 0, 0.5],
            [0, 0.532, 0, 0.468, 0],
            [0, 0, 1, 0, 0],
            [0, 0.464, 0, 0.536, 0],
            [0.5, 0, 0, 0, 0.5],
        ])
        assert (p1 > 0).tolist() == (printed > 0).tolist()
        assert np.abs(p1 - printed).max() < 1.5e-3

    def test_tiny_threshold_gives_identity(self):
        m = datasets.five_person_beliefs()
        cfg = HomophilyConfig(eps_p=1e-9, eps_h=0.25)
        assert np.array_equal(build_network(m, cfg), np.eye(5))

    def test_positive_diagonal_always(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            m = rng.dirichlet(np.ones(4), size=5)
            p = build_network(m, SIM_CFG)
            assert np.all(p.diagonal() > 0)


BAND = 1e-12


@st.composite
def belief_matrices(draw):
    """Row-stochastic matrices with up to 30 rows, zeros included."""
    r = draw(st.integers(1, 30))
    s = draw(st.integers(2, 6))
    entry = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    raw = draw(hnp.arrays(float, (r, s), elements=entry))
    assume(np.all(raw.sum(axis=1) > 0) and np.all(raw.sum(axis=0) > 0))
    return raw / raw.sum(axis=1, keepdims=True)


def assert_matches_loop(structure, points, eps, cfg):
    expected, divs = loop_homophily_structure(points, eps, cfg)
    got = structure()
    clear = np.abs(divs - eps) > BAND
    assert np.array_equal((got > 0)[clear], (expected > 0)[clear])
    rows = clear.all(axis=1)
    assert np.abs(got[rows] - expected[rows]).max(initial=0.0) < 1e-12
    assert np.abs(got.sum(axis=1) - 1.0).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(m=belief_matrices(), beta=st.sampled_from([0.0, 1.0, 8.0]),
       eps=st.sampled_from([0.01, 0.1, 0.5, 3.0]))
def test_array_structures_match_scalar_loop(m, beta, eps):
    cfg = HomophilyConfig(eps_p=eps, eps_h=eps, beta=beta)
    assert_matches_loop(lambda: build_network(m, cfg), list(m), eps, cfg)
    assert_matches_loop(lambda: build_concepts(m, cfg),
                        list(col_normalize(m).T), eps, cfg)


class TestBuildConcepts:
    def test_first_step_has_no_links(self):
        m = datasets.five_person_beliefs()
        h1 = build_concepts(m, SIM_CFG)
        assert np.array_equal(h1, np.eye(4))

    def test_identical_columns_give_uniform(self):
        m = np.tile([0.25, 0.25, 0.25, 0.25], (4, 1))
        h = build_concepts(m, SIM_CFG)
        assert np.allclose(h, 0.25)

    def test_rows_stochastic(self):
        m = datasets.four_person_triangle()
        h = build_concepts(m, HomophilyConfig(eps_p=0.3, eps_h=0.5))
        assert np.allclose(h.sum(axis=1), 1.0, atol=1e-12)


class TestRunHomophily:
    def test_five_person_groups_and_stabilization(self):
        trace = run_homophily(datasets.five_person_beliefs(), SIM_CFG)
        assert trace.final_groups == ((0, 4), (1, 3), (2,))
        assert trace.stabilized_at is not None
        assert trace.stabilized_at <= 100

    def test_five_person_concept_block_stabilizes(self):
        trace = run_homophily(datasets.five_person_beliefs(), SIM_CFG)
        block = np.array([
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0.5, 0.5],
            [0, 0, 0.5, 0.5],
        ])
        for t in range(5, len(trace.concepts) + 1):
            assert np.abs(trace.concepts[t - 1] - block).max() < 1.5e-3

    def test_wide_concept_threshold_reaches_consensus(self):
        cfg = HomophilyConfig(eps_p=0.3, eps_h=0.4)
        trace = run_homophily(datasets.five_person_beliefs(), cfg)
        final = trace.beliefs[-1]
        # concept mixing drives every row together; once rows agree the
        # network relinks everyone as well
        assert len(belief_groups(final)) == 1
        assert trace.final_groups == ((0, 1, 2, 3, 4),)

    def test_triangle_fixture_isolates_two(self):
        cfg = HomophilyConfig(eps_p=0.3, eps_h=0.2)
        trace = run_homophily(datasets.five_person_triangle(), cfg)
        assert trace.final_groups == ((0,), (1,), (2, 3, 4))
        # topology settled well before stabilization
        for t in range(5, len(trace.networks) + 1):
            assert network_groups(trace.networks[t - 1]) == trace.final_groups

    def test_four_person_split_and_merge(self):
        m = datasets.four_person_triangle()
        split = run_homophily(m, HomophilyConfig(eps_p=0.3, eps_h=0.05))
        assert split.final_groups == ((0, 2, 3), (1,))
        merged = run_homophily(m, HomophilyConfig(eps_p=0.3, eps_h=0.5))
        assert merged.final_groups == ((0, 1, 2, 3),)

    def test_step_limit_carries_partial_trace(self):
        cfg = HomophilyConfig(eps_p=0.3, eps_h=0.25, max_steps=2, tol=1e-15)
        with pytest.raises(StepLimitReached) as err:
            run_homophily(datasets.five_person_beliefs(), cfg)
        trace = err.value.trace
        assert len(trace.beliefs) == 3  # initial + 2 steps
        assert trace.final_groups       # groups still reported

    def test_beliefs_remain_stochastic(self):
        trace = run_homophily(datasets.five_person_beliefs(), SIM_CFG)
        for q in trace.beliefs:
            assert np.allclose(q.sum(axis=1), 1.0, atol=1e-9)
            assert q.min() >= 0

    def test_links_never_cross_cluster_boundaries(self):
        # individual links may come and go, but people from different
        # eps-KL clusters of the starting beliefs can never communicate at
        # any step (the mechanism behind the cluster lower bound)
        for m in (datasets.five_person_beliefs(),
                  datasets.five_person_triangle(),
                  datasets.four_person_triangle()):
            cfg = HomophilyConfig(eps_p=0.3, eps_h=0.25, freeze_concepts=True)
            trace = run_homophily(m, cfg)
            clusters = epsilon_kl_clusters(m, cfg.eps_p).clusters
            cluster_of = {i: ci for ci, c in enumerate(clusters) for i in c}
            for p_t in trace.networks:
                for i, j in zip(*np.nonzero(p_t)):
                    assert cluster_of[int(i)] == cluster_of[int(j)]

    def test_freeze_concepts_pins_identity(self):
        cfg = HomophilyConfig(eps_p=0.3, eps_h=0.25, freeze_concepts=True)
        trace = run_homophily(datasets.five_person_beliefs(), cfg)
        for h in trace.concepts:
            assert np.array_equal(h, np.eye(4))

    def test_cluster_count_lower_bounds_groups(self):
        # concept side frozen: link groups can never number fewer than the
        # eps-KL clusters of the starting beliefs
        for m in (datasets.five_person_beliefs(),
                  datasets.five_person_triangle(),
                  datasets.four_person_triangle()):
            cfg = HomophilyConfig(eps_p=0.3, eps_h=0.25, freeze_concepts=True)
            trace = run_homophily(m, cfg)
            part = epsilon_kl_clusters(m, 0.3)
            assert len(part) <= len(trace.final_groups)


class TestConfigValidation:
    def test_thresholds_positive(self):
        with pytest.raises(ValueError):
            HomophilyConfig(eps_p=0.0, eps_h=0.1)

    def test_max_steps_at_least_one(self):
        with pytest.raises(ValueError):
            HomophilyConfig(eps_p=0.1, eps_h=0.1, max_steps=0)

    @pytest.mark.parametrize("beta", [-1.0, float("inf"), float("nan")])
    def test_beta_nonnegative_and_finite(self, beta):
        # an infinite beta would weigh a link by exp(-inf * 0) = nan
        with pytest.raises(ValueError, match="beta"):
            HomophilyConfig(eps_p=0.1, eps_h=0.1, beta=beta)

    def test_immutable(self):
        cfg = HomophilyConfig(eps_p=0.1, eps_h=0.1)
        with pytest.raises(AttributeError):
            cfg.eps_p = 0.0
        with pytest.raises(AttributeError):
            del cfg.beta
        with pytest.raises(AttributeError):
            cfg.extra = 1
        assert (cfg.eps_p, cfg.beta, cfg.max_steps) == (0.1, 1.0, 100)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0.0, 0.6),
       isolated=st.floats(0.0, 0.5), one_way=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_network_groups_match_bfs_oracle(n, density, isolated, one_way, seed):
    rng = np.random.default_rng(seed)
    p = np.where(rng.random((n, n)) < density, rng.random((n, n)), 0.0)
    if one_way:
        p = np.triu(p)      # every off-diagonal link points one way only
    alone = rng.random(n) < isolated
    p[alone, :] = 0.0
    p[:, alone] = 0.0
    assert network_groups(p) == bfs_network_groups(p)


@settings(max_examples=200, deadline=None)
@given(r=st.integers(1, 30), base=st.integers(1, 6),
       offset=st.sampled_from([0.0, 1e-6 - 1e-12, 1e-6, 1e-6 + 1e-12]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_belief_groups_match_loop_oracle(r, base, offset, seed):
    # duplicated rows, some nudged to just inside, at or just outside
    # tol = 1e-6; a nudged zero entry differs by exactly the offset
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(4), size=base)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    m = rows[rng.integers(base, size=r)]
    nudged = rng.random(r) < 0.5
    m[nudged, rng.integers(4)] += offset * rng.choice([-1.0, 1.0], size=nudged.sum())
    assert belief_groups(m) == loop_belief_groups(m)


def _run_or_partial(run, m, cfg):
    """``run``'s trace and the StepLimitReached message, or None."""
    try:
        return run(m, cfg), None
    except StepLimitReached as exc:
        return exc.trace, str(exc)


@settings(max_examples=100, deadline=None)
@given(m=belief_matrices(), eps_p=st.sampled_from([0.05, 0.3, 3.0]),
       eps_h=st.sampled_from([0.05, 0.25, 3.0]), beta=st.sampled_from([0.0, 1.0, 8.0]),
       tol=st.sampled_from([1e-9, 1e-3, 0.1]), max_steps=st.integers(1, 15),
       freeze_network=st.booleans(), freeze_concepts=st.booleans())
def test_run_homophily_matches_its_own_loop(m, eps_p, eps_h, beta, tol, max_steps,
                                            freeze_network, freeze_concepts):
    cfg = HomophilyConfig(eps_p, eps_h, beta=beta, tol=tol, max_steps=max_steps,
                          freeze_network=freeze_network, freeze_concepts=freeze_concepts)
    got, got_limit = _run_or_partial(run_homophily, m, cfg)
    expected, expected_limit = _run_or_partial(loop_homophily, m, cfg)
    assert got_limit == expected_limit
    for name in ("beliefs", "networks", "concepts"):
        a, b = getattr(got, name), getattr(expected, name)
        assert len(a) == len(b)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert got.stabilized_at == expected.stabilized_at
    assert got.final_groups == expected.final_groups
    assert got.belief_groups == expected.belief_groups
