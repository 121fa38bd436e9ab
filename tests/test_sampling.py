import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beliefdyn import datasets
from beliefdyn.homogeneous import evolve, limit_q
from beliefdyn.rng import MASK64, Xoshiro256StarStar, _nonzero_state, _splitmix64
from beliefdyn.sampling import (diagnose_convergence, expectation_matrix,
                                expected_limit, sample_trajectories,
                                sample_trajectory)
from beliefdyn.stochastic import MatrixFamily, delta_coefficient, max_abs_diff
from util import ScalarXoshiro256StarStar, loop_sample_trajectory, random_stochastic


@pytest.fixture(scope="module")
def scrambling_pair():
    h1, _, h3 = datasets.three_concept_structures()
    return MatrixFamily([h1, h3])


class TestRngGolden:
    """Frozen outputs pin the generator; a change here breaks every seed."""

    def test_splitmix_sequence(self):
        state = 0x12345678
        outs = []
        for _ in range(4):
            state, z = _splitmix64(state)
            outs.append(z)
        assert outs == [0x38F1DC39D1906B6F, 0xDFE4142236DD9517,
                        0x30C0356884C4F31F, 0x3E293305663E57F9]

    def test_xoshiro_streams_differ(self):
        g1 = Xoshiro256StarStar(42, stream=1)
        g2 = Xoshiro256StarStar(42, stream=2)
        assert [g1.next_uint64() for _ in range(4)] == [
            13696896915399030466, 12641092763546669283,
            14580102322132234639, 5279892052835703538]
        assert [g2.next_uint64() for _ in range(4)] == [
            11753091247201629797, 5040943017060998621,
            15204551017500852300, 14511083835628034667]

    def test_floats_in_unit_interval(self):
        g = Xoshiro256StarStar(9, stream=0)
        xs = [g.next_float() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert 0.4 < float(np.mean(xs)) < 0.6

    def test_index_draws_roughly_weighted(self):
        g = Xoshiro256StarStar(10, stream=0)
        draws = [g.next_index([0.2, 0.8]) for _ in range(4000)]
        assert 0.75 < float(np.mean(draws)) < 0.85


class TestRngLanes:
    """Each lane of a many-seed generator draws what a one-seed generator does."""

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=6),
           stream=st.integers(0, 3),
           weights=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=6))
    def test_lanes_match_scalar_oracle(self, seeds, stream, weights):
        lanes = Xoshiro256StarStar(seeds, stream)
        single = Xoshiro256StarStar(seeds[0], stream)
        oracles = [ScalarXoshiro256StarStar(seed, stream) for seed in seeds]
        first = ScalarXoshiro256StarStar(seeds[0], stream)
        for _ in range(64):
            assert lanes.next_uint64().tolist() == [g.next_uint64() for g in oracles]
            assert single.next_uint64() == first.next_uint64()
        assert lanes.next_float().tolist() == [g.next_float() for g in oracles]
        assert single.next_float() == first.next_float()
        w = np.array(weights)
        for _ in range(64):
            assert lanes.next_index(w).tolist() == [g.next_index(w) for g in oracles]
            assert single.next_index(w) == first.next_index(w)

    def test_scalar_seed_draws_python_scalars(self):
        g = Xoshiro256StarStar(3, stream=1)
        assert type(g.next_uint64()) is int
        assert type(g.next_float()) is float
        assert type(g.next_index([1.0, 2.0])) is int

    def test_all_zero_lane_is_bumped(self):
        # no seed is known to reach the all-zero state, so build one directly
        zero = np.zeros(2, dtype=np.uint64)
        state = _nonzero_state([np.array([0, 7], dtype=np.uint64), zero.copy(),
                                zero.copy(), np.array([0, 9], dtype=np.uint64)])
        assert [w.tolist() for w in state] == [[1, 7], [0, 0], [0, 0], [0, 9]]
        lanes = Xoshiro256StarStar([0, 0])
        lanes._s = state
        oracles = [ScalarXoshiro256StarStar(0), ScalarXoshiro256StarStar(0)]
        oracles[0]._s = [1, 0, 0, 0]
        oracles[1]._s = [7, 0, 0, 9]
        for _ in range(64):
            assert lanes.next_uint64().tolist() == [g.next_uint64() for g in oracles]


    def test_uniform_at_a_running_sum_draws_the_next_index(self):
        # invert the ** scrambler so the first output is 2^63, i.e. the
        # uniform is exactly 0.5: u = 0.5 * 2 equals the first running sum,
        # and (as in the running-sum loop) u < acc picks index 1
        y = (1 << 63) * pow(9, -1, 1 << 64) & MASK64
        s1 = ((y >> 7) | (y << 57)) & MASK64
        s1 = s1 * pow(5, -1, 1 << 64) & MASK64
        lanes = Xoshiro256StarStar([0])
        lanes._s = [np.array([w], dtype=np.uint64) for w in (3, s1, 5, 7)]
        oracle = ScalarXoshiro256StarStar(0)
        oracle._s = [3, s1, 5, 7]
        assert oracle.next_index([1.0, 1.0]) == 1
        assert lanes.next_index(np.array([1.0, 1.0])).tolist() == [1]


def _random_family(rng, n, members, zeros):
    return MatrixFamily([random_stochastic(rng, n, zeros=zeros) for _ in range(members)],
                        weights=0.1 + rng.random(members))


class TestSampleTrajectories:
    """The all-seeds run is bit for bit the per-seed scalar loop."""

    @staticmethod
    def assert_matches_loop(sp, sh, m, seeds, steps, tol=1e-9):
        runs = list(sample_trajectories(sp, sh, m, seeds, steps, tol))
        assert [run.seed for run in runs] == seeds
        for run in runs:
            ref = loop_sample_trajectory(sp, sh, m, run.seed, steps, tol)
            assert run.word_p == ref.word_p and run.word_h == ref.word_h
            assert np.array_equal(run.final_q, ref.final_q)
            assert run.stabilized_at == ref.stabilized_at
            assert run.horizon == steps
        return runs

    @pytest.mark.parametrize("case", range(6))
    def test_random_families_match_loop(self, case):
        rng = np.random.default_rng(100 + case)
        r, c = (int(x) for x in rng.integers(2, 8, size=2))
        sp = _random_family(rng, r, int(rng.integers(1, 5)), zeros=0.5)
        sh = _random_family(rng, c, int(rng.integers(1, 5)), zeros=0.5)
        m = random_stochastic(rng, r, c, zeros=0.3)
        seeds = [int(x) for x in rng.integers(-2 ** 62, 2 ** 62, size=40)]
        self.assert_matches_loop(sp, sh, m, seeds, 60)

    def test_some_lanes_stabilize_and_some_do_not(self):
        # with a static concept identity, a network identity draw leaves Q
        # unchanged: a lane stabilizes at its first such draw, and a lane
        # without one never does within the short horizon
        rng = np.random.default_rng(7)
        sp = MatrixFamily([np.eye(5), random_stochastic(rng, 5, zeros=0.4)],
                          weights=[0.25, 0.75])
        sh = MatrixFamily([np.eye(3)])
        m = random_stochastic(rng, 5, 3)
        runs = self.assert_matches_loop(sp, sh, m, list(range(-20, 60)), 6)
        marks = {run.stabilized_at for run in runs}
        assert None in marks and len(marks) > 2
        runs = self.assert_matches_loop(sp, sh, m, list(range(20)), 6, tol=0.0)
        assert all(run.stabilized_at is None for run in runs)

    def test_edge_inputs(self):
        sp = datasets.single_leaf_family()
        sh = MatrixFamily([np.eye(2)])
        m = np.full((3, 2), 0.5)
        assert list(sample_trajectories(sp, sh, m, [], 10)) == []
        (run,) = sample_trajectories(sp, sh, m, [4], 0)
        assert run.word_p == () and run.stabilized_at is None
        assert np.array_equal(run.final_q, m)
        self.assert_matches_loop(sp, sh, m, [2 ** 64 + 5, 5, -1, 5], 30)

    def test_step_difference_equal_to_tol_does_not_stabilize(self):
        rng = np.random.default_rng(3)
        p = random_stochastic(rng, 4)
        m = random_stochastic(rng, 4, 3)
        tol = max_abs_diff(p @ m, m)
        runs = self.assert_matches_loop(MatrixFamily([p]), MatrixFamily([np.eye(3)]),
                                        m, [1, 2], 40, tol=tol)
        assert all(run.stabilized_at == 2 for run in runs)


class TestSampleTrajectory:
    def test_seed_determinism(self, scrambling_pair):
        m = np.full((3, 3), 1 / 3)
        a = sample_trajectory(scrambling_pair, scrambling_pair, m, seed=5, steps=40)
        b = sample_trajectory(scrambling_pair, scrambling_pair, m, seed=5, steps=40)
        assert a.word_p == b.word_p and a.word_h == b.word_h
        assert np.array_equal(a.final_q, b.final_q)

    def test_different_seeds_differ(self, scrambling_pair):
        m = np.full((3, 3), 1 / 3)
        a = sample_trajectory(scrambling_pair, scrambling_pair, m, seed=5, steps=40)
        b = sample_trajectory(scrambling_pair, scrambling_pair, m, seed=6, steps=40)
        assert a.word_p != b.word_p

    def test_network_word_independent_of_concept_family(self, scrambling_pair):
        # swapping the concept family must not perturb the network draws
        m = np.full((3, 3), 1 / 3)
        a = sample_trajectory(scrambling_pair, MatrixFamily([np.eye(3)]), m, 7, 30)
        b = sample_trajectory(scrambling_pair, scrambling_pair, m, 7, 30)
        assert a.word_p == b.word_p

    def test_singleton_families_reproduce_homogeneous(self):
        p, m, h = datasets.two_camp_society()
        run = sample_trajectory(MatrixFamily([p]), MatrixFamily([h]), m, 0, 60)
        trace = evolve(p, m, h, 60, tol=0.0)
        assert np.max(np.abs(run.final_q - trace.final)) < 1e-12

    def test_all_scrambling_members_contract(self, scrambling_pair):
        m = np.eye(3)
        for run in sample_trajectories(scrambling_pair, scrambling_pair, m,
                                       range(100), 300):
            assert delta_coefficient(run.final_q) < 1e-6

    def test_snapshot_stochasticity(self, scrambling_pair):
        m = np.eye(3)
        run = sample_trajectory(scrambling_pair, scrambling_pair, m, 3, 200)
        assert np.allclose(run.final_q.sum(axis=1), 1.0, atol=1e-9)

    def test_word_frequencies_follow_weights(self):
        h1, _, h3 = datasets.three_concept_structures()
        fam = MatrixFamily([h1, h3], weights=[0.9, 0.1])
        run = sample_trajectory(fam, MatrixFamily([np.eye(3)]), np.eye(3), 11, 2000)
        share = run.word_p.count(1) / len(run.word_p)
        assert 0.07 < share < 0.13


class TestDiagnosis:
    def test_scrambling_pair_converges(self, scrambling_pair):
        diag = diagnose_convergence(scrambling_pair)
        assert diag.almost_surely_rank_one
        assert diag.witness is not None and len(diag.witness) == 1

    def test_identity_family_does_not(self):
        diag = diagnose_convergence(MatrixFamily([np.eye(2)]))
        assert not diag.almost_surely_rank_one
        assert diag.witness is None

    def test_single_leaf_family_converges(self):
        diag = diagnose_convergence(datasets.single_leaf_family())
        assert diag.almost_surely_rank_one


class TestExpectation:
    def test_singleton(self):
        p, _, _ = datasets.two_camp_society()
        assert np.array_equal(expectation_matrix(MatrixFamily([p])), p)

    def test_uniform_pair_average(self, scrambling_pair):
        h1, _, h3 = datasets.three_concept_structures()
        assert np.allclose(expectation_matrix(scrambling_pair), (h1 + h3) / 2)

    def test_weighted_mean_is_stochastic(self):
        fam = datasets.single_leaf_family()
        e = expectation_matrix(fam)
        assert np.allclose(e.sum(axis=1), 1.0, atol=1e-12)

    def test_expected_limit_singleton_matches_limit_q(self):
        p, m, h = datasets.two_camp_society()
        direct = limit_q(p, m, h).limit
        sampled = expected_limit(MatrixFamily([p]), MatrixFamily([h]), m)
        assert np.max(np.abs(direct - sampled)) < 1e-12

    def test_monte_carlo_mean_matches_expected_limit(self, scrambling_pair):
        # i.i.d. draws factorize the expectation, so the cross-seed mean of
        # the final beliefs approaches lim (E P)^n M (E H)^n
        m = np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7], [0.3, 0.4, 0.3]])
        sp = MatrixFamily([np.eye(3)])
        runs = 2000
        finals = np.empty((runs, 3, 3))
        for run in sample_trajectories(sp, scrambling_pair, m, range(runs), 100):
            finals[run.seed] = run.final_q
        mean = finals.mean(axis=0)
        se = finals.std(axis=0, ddof=1) / np.sqrt(runs)
        expected = expected_limit(sp, scrambling_pair, m)
        assert np.all(np.abs(mean - expected) <= 3 * se + 1e-9)

    def test_two_leaf_family_runs_disagree_across_seeds(self):
        # two absorbing states, one transient: each run picks its own mixture
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.2, 0.2]])
        b = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.1, 0.7, 0.2]])
        sp = MatrixFamily([a, b])
        m = np.eye(3)
        sh = MatrixFamily([np.eye(3)])
        finals = np.array([run.final_q[2, 0]
                           for run in sample_trajectories(sp, sh, m, range(60), 200)])
        assert not diagnose_convergence(sp).almost_surely_rank_one
        assert finals.std() > 0.05
        # the expected limit is still well-defined
        e = expected_limit(sp, sh, m)
        assert np.allclose(e.sum(axis=1), 1.0)

    def test_transient_concepts_lose_all_mass(self):
        # concept state 0 drains into {1, 2} under every member
        fam = datasets.single_leaf_family()
        m = np.full((2, 3), 1 / 3)
        sp = MatrixFamily([np.eye(2)])
        for run in sample_trajectories(sp, fam, m, range(25), 400):
            assert np.all(run.final_q[:, 0] < 1e-6)
