from math import log

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beliefdyn import datasets
from beliefdyn.clusters import (NonConvergenceError, _apart, _min_kl, epsilon_kl_clusters,
                                min_kl_hull_to_hull, min_kl_hull_to_point)
from beliefdyn.homophily import HomophilyConfig, _floored, run_homophily
from beliefdyn.stochastic import NegativeEntryError, RowSumError
from util import (alternating_min_kl_hull_to_hull, fw_min_kl, grid_min_kl_hull_to_hull,
                  grid_min_kl_to_point, loop_epsilon_kl_clusters)

TOL = 1e-6
GRID = 10     # weight-grid resolution of the property test's brute-force oracle


class TestHullToPoint:
    def test_target_inside_hull(self):
        hull = np.array([[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]])
        target = hull.mean(axis=0)
        assert min_kl_hull_to_point(hull, target, TOL) < 1e-6

    def test_singleton_hull_reduces_to_point_kl(self):
        val = min_kl_hull_to_point(np.array([[1.0, 0.0]]), [0.5, 0.5], TOL)
        assert val == pytest.approx(log(2), abs=1e-9)

    def test_far_group_stays_far(self):
        m = datasets.five_person_beliefs()
        # people 0 and 4 form a pair whose hull never reaches person 2
        val = min_kl_hull_to_point(m[[0, 4]], m[2], TOL)
        assert val >= 0.3

    def test_matches_grid_oracle_small_hulls(self):
        rng = np.random.default_rng(51)
        for _ in range(12):
            k = int(rng.integers(2, 5))
            hull = rng.dirichlet(np.ones(3), size=k)
            target = rng.dirichlet(np.ones(3))
            fw = min_kl_hull_to_point(hull, target, TOL)
            grid = grid_min_kl_to_point(hull, target, resolution=50)
            # grid is an upper bound on the true minimum
            assert fw <= grid + 1e-9
            assert grid - fw <= 2e-3   # grid resolution error bound

    def test_accuracy_against_fine_grid(self):
        rng = np.random.default_rng(52)
        for _ in range(4):
            hull = rng.dirichlet(np.ones(3), size=2)
            target = rng.dirichlet(np.ones(3))
            fw = min_kl_hull_to_point(hull, target, TOL)
            grid = grid_min_kl_to_point(hull, target, resolution=400)
            assert abs(fw - grid) <= 2 * TOL + 1e-4


class TestHullToHull:
    def test_overlapping_hulls(self):
        a = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]])
        b = np.array([[0.45, 0.45, 0.1], [0.1, 0.45, 0.45]])
        assert min_kl_hull_to_hull(a, b, TOL) < 1e-6

    def test_singletons_reduce_to_point_kl(self):
        val = min_kl_hull_to_hull(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]), TOL)
        assert val == pytest.approx(log(2), abs=1e-9)

    def test_separated_two_point_hulls_match_grid(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            a = rng.dirichlet((8, 1, 1), size=2)   # near one corner
            b = rng.dirichlet((1, 1, 8), size=2)   # near another
            val = min_kl_hull_to_hull(a, b, TOL)
            grid = grid_min_kl_hull_to_hull(a, b, resolution=40)
            assert val <= grid + 1e-9
            assert grid - val <= 4e-3

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(3, 5), ka=st.integers(1, 5), kb=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1),
           offset=st.sampled_from([-0.1, -1e-3, -1e-5, 1e-5, 1e-3, 0.1]))
    # pairwise steps alone stall on these: gap above tol after 10,000 iterations
    @example(d=5, ka=4, kb=5, seed=184354, offset=1e-5)
    @example(d=5, ka=2, kb=5, seed=1389783565, offset=-1e-3)
    @example(d=5, ka=4, kb=5, seed=2006296601, offset=0.1)
    def test_joint_solve_matches_oracles_and_certifies(self, d, ka, kb, seed,
                                                       offset):
        rng = np.random.default_rng(seed)
        a = rng.dirichlet(np.ones(d), size=ka)
        b = rng.dirichlet(np.ones(d), size=kb)
        val = min_kl_hull_to_hull(a, b, TOL)
        # both values lie within their gap, at most tol, above the minimum
        raw, _, _ = _min_kl(_floored(a), _floored(b), TOL)
        try:
            fw, _, _ = fw_min_kl(_floored(a), _floored(b), TOL, max_iter=1000)
        except NonConvergenceError:
            pass
        else:
            assert abs(raw - fw) <= TOL
        # the heuristic's value is feasible, so it bounds the minimum above
        alternating = alternating_min_kl_hull_to_hull(a, b, TOL, max_iter=1000)
        assert val <= alternating + TOL
        # a grid point is feasible; the optimum is near some grid point
        grid = grid_min_kl_hull_to_hull(a, b, GRID)
        assert grid - 1.0 / GRID <= val <= grid + TOL
        eps = val + offset
        decided, _, _ = _min_kl(_floored(a), _floored(b), TOL, epsilon=eps)
        if abs(val - eps) > TOL:
            assert (decided < eps) == (val < eps)

    def test_seeded_sweep_certifies_every_solve(self):
        # 3,000 draws from the property test's distribution; pairwise steps
        # alone raise NonConvergenceError on 2 of them
        rng = np.random.default_rng(1)
        for _ in range(3000):
            d, ka, kb = rng.integers(3, 6), rng.integers(1, 6), rng.integers(1, 6)
            r = np.random.default_rng(int(rng.integers(0, 2 ** 32)))
            a, b = r.dirichlet(np.ones(d), size=ka), r.dirichlet(np.ones(d), size=kb)
            _, gap, _ = _min_kl(_floored(a), _floored(b), TOL)
            assert gap <= TOL

    def test_mixed_sweep_near_the_faces_certifies_every_solve(self):
        # 3,000 draws down to Dirichlet(0.05), so many coordinates sit near
        # the floor; one draw in ten shares a vertex, half decide an eps.
        # The pairwise loop with a Newton step every 20th iteration raised
        # NonConvergenceError on 4 of them
        rng = np.random.default_rng(2027)
        for _ in range(3000):
            alpha = rng.choice([0.05, 0.2, 1.0])
            d, ka, kb = rng.integers(2, 9), rng.integers(1, 9), rng.integers(1, 9)
            a = _floored(rng.dirichlet(np.full(d, alpha), size=ka))
            b = _floored(rng.dirichlet(np.full(d, alpha), size=kb))
            if rng.random() < 0.1:
                b[0] = a[-1]
            eps = 10 ** rng.uniform(-3, 0) if rng.random() < 0.5 else None
            val, gap, _ = _min_kl(a, b, TOL, epsilon=eps)
            assert gap <= TOL or val < eps or val - gap >= eps

    def test_frank_wolfe_steps_alone_certify(self, monkeypatch):
        # an iterate whose Newton direction does not descend takes the
        # Frank-Wolfe step (seen once in 6,000 sweep draws); with Newton off
        # every step is one, and these solves must still certify and agree
        pairs = [([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]], [[0.3, 0.4, 0.3]]),
                 ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]], [[0.45, 0.45, 0.1], [0.1, 0.45, 0.45]]),
                 ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
                  [[0.2, 0.2, 0.6], [0.4, 0.5, 0.1]]),
                 ([[0.9, 0.05, 0.05], [0.6, 0.3, 0.1]], [[0.1, 0.3, 0.6], [0.2, 0.7, 0.1]])]
        pairs = [(_floored(np.array(a)), _floored(np.array(b))) for a, b in pairs]
        full = [_min_kl(a, b, TOL)[0] for a, b in pairs]
        monkeypatch.setattr("beliefdyn.clusters._newton", lambda *args: None)
        for (a, b), val in zip(pairs, full):
            fw, gap, _ = _min_kl(a, b, TOL)
            assert gap <= TOL and abs(fw - val) <= TOL

    @pytest.mark.parametrize("seed", [65922, 10129])
    def test_pairs_that_stalled_the_pair_stack_solver(self, seed):
        # away-step Frank-Wolfe over the |A|*|B| stacked vertex pairs raised
        # NonConvergenceError on both: its gap stalled near 6e-5 (65922)
        r = np.random.default_rng(seed)
        if seed == 65922:
            a, b = r.dirichlet(np.ones(5), size=4), r.dirichlet(np.ones(5), size=3)
        else:
            d, ka, kb = r.integers(3, 6), r.integers(1, 6), r.integers(1, 6)
            a, b = r.dirichlet(np.ones(d), size=ka), r.dirichlet(np.ones(d), size=kb)
        val = min_kl_hull_to_hull(a, b, TOL)
        alternating = alternating_min_kl_hull_to_hull(a, b, TOL, max_iter=1000, rounds=10)
        assert val <= alternating + TOL

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_tol_must_be_positive(self, tol):
        a = np.array([[0.8, 0.2], [0.3, 0.7]])
        with pytest.raises(ValueError, match="tol"):
            min_kl_hull_to_hull(a, a[:1], tol)
        with pytest.raises(ValueError, match="tol"):
            min_kl_hull_to_point(a, a[0], tol)

    def test_empty_hull_rejected(self):
        a, empty = np.array([[0.8, 0.2], [0.3, 0.7]]), np.empty((0, 2))
        for args in ((empty, a), (a, empty)):
            with pytest.raises(ValueError, match="no points"):
                min_kl_hull_to_hull(*args)
        with pytest.raises(ValueError, match="no points"):
            min_kl_hull_to_point(empty, a[0])

    def test_points_checked_as_distribution_rows(self):
        # a negative entry is refused, not floored away
        with pytest.raises(NegativeEntryError, match=r"^negative entry -0\.5 at \(1, 2\)$"):
            min_kl_hull_to_point([[1.5, -0.5]], [0.5, 0.5])
        with pytest.raises(RowSumError, match=r"^row 1 sums to 1\.2 "):
            min_kl_hull_to_hull([[0.5, 0.5]], [[0.6, 0.6]])
        with pytest.raises(NegativeEntryError, match=r"at \(3, 1\)$"):
            epsilon_kl_clusters([[3, 1], [0.75, 0.25], [-1, 2]], 0.05)
        with pytest.raises(RowSumError, match=r"^row 1 sums to 4\.0 "):
            epsilon_kl_clusters([[3, 1], [0.75, 0.25]], 0.05)

    def test_asymmetry_directions_differ(self):
        a = np.array([[0.9, 0.05, 0.05]])
        b = np.array([[0.4, 0.3, 0.3]])
        ab = min_kl_hull_to_hull(a, b, TOL)
        ba = min_kl_hull_to_hull(b, a, TOL)
        assert ab != pytest.approx(ba, abs=1e-3)


class TestRangeScreen:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(3, 8), ka=st.integers(1, 6), kb=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1), lean=st.sampled_from([2.0, 8.0, 30.0]),
           near=st.sampled_from(["sep", "min"]),
           scale=st.sampled_from([0.1, 0.999, 1 - 1e-9, 1.0, 1 + 1e-9, 1.001, 10.0]))
    def test_apart_only_when_both_directions_reach_eps(self, d, ka, kb, seed, lean,
                                                       near, scale):
        # hulls leaning toward two different corners, so their ranges can part
        rng = np.random.default_rng(seed)
        a = _floored(rng.dirichlet(np.ones(d) + lean * np.eye(d)[0], size=ka))
        b = _floored(rng.dirichlet(np.ones(d) + lean * np.eye(d)[1], size=kb))
        lo = np.array([a.min(axis=0), b.min(axis=0)])
        hi = np.array([a.max(axis=0), b.max(axis=0)])
        sep = np.maximum(np.maximum(lo[0] - hi[1], lo[1] - hi[0]), 0.0).sum()
        both = min(min_kl_hull_to_hull(a, b, TOL), min_kl_hull_to_hull(b, a, TOL))
        # eps near the screen's own threshold, or near the true minimum
        eps = scale * (sep ** 2 / 2 if near == "sep" else both) or 0.05
        apart = bool(_apart(lo, hi, 0, eps)[0])
        if near == "sep" and sep > 0 and scale <= 0.999:
            assert apart
        if apart:
            assert both >= eps - TOL


class TestEpsilonKlClusters:
    def test_single_point(self):
        part = epsilon_kl_clusters(np.array([[0.5, 0.5]]), 0.3)
        assert part.clusters == ((0,),)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.array([[bad, 0.5], [0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(ValueError, match="finite"):
            epsilon_kl_clusters(pts, 0.3)
        with pytest.raises(ValueError, match="finite"):
            min_kl_hull_to_point(pts[1:], pts[0])

    def test_two_far_points_stay_apart(self):
        pts = np.array([[0.95, 0.025, 0.025], [0.025, 0.025, 0.95]])
        part = epsilon_kl_clusters(pts, 0.3)
        assert len(part) == 2

    def test_two_near_points_merge(self):
        pts = np.array([[0.5, 0.3, 0.2], [0.45, 0.35, 0.2]])
        part = epsilon_kl_clusters(pts, 0.3)
        assert len(part) == 1

    def test_four_person_fixture_bound(self):
        # the observed homophily split is {0,2,3} vs {1}; the cluster count
        # can only be a lower bound of that
        part = epsilon_kl_clusters(datasets.four_person_triangle(), 0.3)
        assert len(part) <= 2

    def test_epsilon_monotonicity(self):
        for pts in (datasets.five_person_beliefs(),
                    datasets.five_person_triangle(),
                    datasets.four_person_triangle()):
            counts = [len(epsilon_kl_clusters(pts, eps))
                      for eps in (0.05, 0.1, 0.3, 0.5, 1.0)]
            assert counts == sorted(counts, reverse=True)

    def test_internal_condition_reported_for_tight_cluster(self):
        pts = np.array([
            [0.4, 0.35, 0.25],
            [0.35, 0.4, 0.25],
            [0.375, 0.375, 0.25],
        ])
        part = epsilon_kl_clusters(pts, 0.3)
        assert len(part) == 1
        assert part.internal_condition_holds

    def test_merge_only_when_grid_oracle_agrees(self):
        # decision boundary sanity on a handful of random pairs
        rng = np.random.default_rng(54)
        eps = 0.3
        for _ in range(6):
            a = rng.dirichlet(np.ones(3), size=2)
            b = rng.dirichlet(np.ones(3), size=2)
            ours = (min_kl_hull_to_hull(a, b, TOL) < eps
                    or min_kl_hull_to_hull(b, a, TOL) < eps)
            grid = (grid_min_kl_hull_to_hull(a, b, 40) < eps
                    or grid_min_kl_hull_to_hull(b, a, 40) < eps)
            if ours != grid:
                # disagreement only possible within grid resolution of the
                # threshold
                vals = [min_kl_hull_to_hull(a, b, TOL), min_kl_hull_to_hull(b, a, TOL)]
                assert min(abs(v - eps) for v in vals) < 5e-3

    def test_cluster_count_bounds_fresh_dirichlet_runs(self):
        rng = np.random.default_rng(55)
        for _ in range(6):
            m = rng.dirichlet(np.ones(3), size=4)
            part = epsilon_kl_clusters(m, 0.3)
            cfg = HomophilyConfig(eps_p=0.3, eps_h=0.1, freeze_concepts=True,
                                  max_steps=200)
            trace = run_homophily(m, cfg)
            assert len(part) <= len(trace.final_groups)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 8), d=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
           eps=st.sampled_from([0.1, 0.3, 0.5]))
    def test_cluster_count_bounds_groups_with_concepts_frozen(self, n, d, seed, eps):
        m = np.random.default_rng(seed).dirichlet(np.ones(d), size=n)
        cfg = HomophilyConfig(eps_p=eps, eps_h=0.1, freeze_concepts=True, max_steps=300)
        trace = run_homophily(m, cfg)
        assert len(epsilon_kl_clusters(m, eps)) <= len(trace.final_groups)

    def test_bound_can_fail_with_concepts_updating(self):
        # H_t blurs every row toward 1/3, so all three people end in one group
        m = np.random.default_rng(39).dirichlet(np.ones(3), size=3)
        assert epsilon_kl_clusters(m, 0.1).clusters == ((0,), (1, 2))
        updating = run_homophily(m, HomophilyConfig(eps_p=0.1, eps_h=0.1))
        assert updating.final_groups == ((0, 1, 2),)
        frozen = run_homophily(m, HomophilyConfig(eps_p=0.1, eps_h=0.1,
                                                  freeze_concepts=True))
        assert frozen.final_groups == ((0,), (1, 2))

    @pytest.mark.parametrize("d, n, seed, eps", [
        (3, 24, 9, 0.1), (3, 20, 11, 0.1), (3, 24, 28, 0.1),
        (4, 24, 0, 0.05), (4, 20, 1, 0.05), (5, 24, 2, 0.05)],
        ids=["24-9", "20-11", "24-28", "4d-24-0", "4d-20-1", "5d-24-2"])
    def test_partition_matches_merge_loop_oracle(self, d, n, seed, eps):
        # several merge rounds: later rounds decide only pairs with a
        # component that changed, and the range screen decides some pairs
        # with no solve, yet must end at the loop's partition
        m = np.random.default_rng(seed).dirichlet(np.ones(d), size=n)
        part = epsilon_kl_clusters(m, eps)
        assert len(part) > 1
        assert part.clusters == loop_epsilon_kl_clusters(m, eps)

    def test_bound_holds_at_three_hundred_people(self):
        # the homophily-scale input (8 concepts, eps_p 0.05, eps_h 0.02):
        # 31 clusters against 178 final groups with concepts frozen
        m = np.random.default_rng(0).dirichlet(np.full(8, 2.0), size=300)
        part = epsilon_kl_clusters(m, 0.05)
        cfg = HomophilyConfig(eps_p=0.05, eps_h=0.02, freeze_concepts=True)
        assert len(part) <= len(run_homophily(m, cfg).final_groups)

    @pytest.mark.parametrize("seed", [4, 10])
    def test_sixty_points_finish_within_homophily_bound(self, seed):
        # once raised NonConvergenceError: an internal-condition solve stalled
        # at gap 7.5e-6 > tol while its value sat far below eps
        m = np.random.default_rng(seed).dirichlet(np.ones(4), size=60)
        part = epsilon_kl_clusters(m, 0.05)
        cfg = HomophilyConfig(eps_p=0.05, eps_h=0.1, freeze_concepts=True,
                              max_steps=200)
        assert len(part) <= len(run_homophily(m, cfg).final_groups)
        assert part.iterations > 0 and 0.0 <= part.max_gap < np.inf
        assert part.screened > 0
