import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beliefdyn import datasets, homogeneous
from beliefdyn.chains import NotSIAError
from beliefdyn.homogeneous import (absorption_probabilities, evolve, limit_q,
                                   limit_structure, stationary_distribution)
from beliefdyn.stochastic import delta_coefficient, matrix_power, max_abs_diff
from util import loop_evolve, random_stochastic

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])

TWO_CAMP_LIMIT_ROW = np.array([0.285, 0.203, 0.200, 0.155, 0.156])

CAMPS_LONER_LIMIT = np.array([
    [0.239, 0.102, 0.169, 0.131, 0.115, 0.241],
    [0.239, 0.102, 0.169, 0.131, 0.115, 0.241],
    [0.028, 0.012, 0.245, 0.191, 0.167, 0.351],
])

TWO_ANCHOR_LIMIT = np.array([
    [0.318, 0.372, 0.31],
    [0.052, 0.061, 0.887],
    [0.082, 0.096, 0.823],
    [0.074, 0.087, 0.839],
    [0.081, 0.094, 0.825],
    [0.027, 0.032, 0.941],
])


class TestEvolve:
    def test_identity_structures_fix_beliefs(self):
        m = datasets.five_person_beliefs()
        trace = evolve(np.eye(5), m, np.eye(4), 10)
        for snap in trace.beliefs:
            assert np.array_equal(snap, m)
        assert trace.stabilized_at == 1

    def test_dimension_mismatch_rejected(self):
        from beliefdyn.stochastic import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            evolve(np.eye(3), np.full((4, 2), 0.5), np.eye(2), 5)

    def test_snapshots_match_powers(self):
        p, m, h = datasets.two_camp_society()
        trace = evolve(p, m, h, 12, tol=0.0)
        for k in (0, 3, 7, 12):
            direct = matrix_power(p, k) @ m @ matrix_power(h, k)
            assert np.max(np.abs(trace.beliefs[k] - direct)) < 1e-12

    def test_two_camp_long_run(self):
        p, m, h = datasets.two_camp_society()
        trace = evolve(p, m, h, 200, tol=1e-9)
        assert trace.stabilized_at is not None
        assert np.abs(trace.final - TWO_CAMP_LIMIT_ROW).max() < 1.5e-3

    def test_snapshots_stay_stochastic(self):
        p, m, h = datasets.two_anchor_society()
        trace = evolve(p, m, h, 50, tol=0.0)
        for snap in trace.beliefs:
            assert np.allclose(snap.sum(axis=1), 1.0, atol=1e-9)
            assert snap.min() >= -1e-15

    def test_stabilization_difference_eventually_below_any_tol(self):
        p, m, h = datasets.two_camp_society()
        trace = evolve(p, m, h, 300, tol=0.0)
        diffs = [np.abs(a - b).max()
                 for a, b in zip(trace.beliefs[1:], trace.beliefs[:-1])]
        assert diffs[-1] < 1e-12
        # eventually monotone: after the first few steps it never grows
        tail = diffs[5:]
        assert all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(tail, tail[1:]))

    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_step_differences_end_at_the_mark(self, monkeypatch, tol):
        # a difference is measured only up to the first marked step, and
        # never with tol=0, which marks none
        calls = []

        def counted(a, b):
            calls.append(1)
            return max_abs_diff(a, b)

        monkeypatch.setattr(homogeneous, "max_abs_diff", counted)
        p, m, h = datasets.two_camp_society()
        trace = evolve(p, m, h, 200, tol)
        assert len(calls) == (trace.stabilized_at or 0)
        assert (trace.stabilized_at is None) == (tol == 0)


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        pi = stationary_distribution([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(pi, [0.5, 0.5])

    def test_hand_solved(self):
        pi = stationary_distribution([[0.9, 0.1], [0.2, 0.8]])
        assert np.allclose(pi, [2 / 3, 1 / 3], atol=1e-12)

    def test_two_camp_concepts(self):
        _, _, h = datasets.two_camp_society()
        pi = stationary_distribution(h)
        assert np.abs(pi - TWO_CAMP_LIMIT_ROW).max() < 1.5e-3

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_stochastic(rng, 6)
            pi = stationary_distribution(p)
            powered = matrix_power(p, 4096)[0]
            assert np.max(np.abs(pi - powered)) < 1e-10

    def test_transient_states_get_zero_mass(self):
        pi = stationary_distribution([[0.5, 0.5], [0.0, 1.0]])
        assert np.allclose(pi, [0.0, 1.0])

    def test_decomposable_rejected(self):
        with pytest.raises(NotSIAError, match="not unique"):
            stationary_distribution(np.eye(2))

    def test_periodic_rejected(self):
        with pytest.raises(NotSIAError, match="periodic"):
            stationary_distribution(SWAP)


class TestAbsorption:
    def test_recurrent_states_are_one_hot(self):
        p, _, _ = datasets.two_camp_society()
        h = absorption_probabilities(p)
        # all states recurrent here: each row loads 1 on its own class
        assert np.allclose(h[:3, 0], 1.0) and np.allclose(h[3:, 1], 1.0)

    def test_geometric_series_case(self):
        p = np.array([[0.5, 0.25, 0.25], [0, 1, 0], [0, 0, 1]])
        h = absorption_probabilities(p)
        assert np.allclose(h[0], [0.5, 0.5], atol=1e-12)
        assert np.allclose(h.sum(axis=1), 1.0)

    def test_matches_long_powers(self):
        p, _, _ = datasets.two_anchor_society()
        h = absorption_probabilities(p)
        pinf = matrix_power(p, 4096)
        assert np.allclose(h[:, 0], pinf[:, 0], atol=1e-10)
        assert np.allclose(h[:, 1], pinf[:, 5], atol=1e-10)


class TestLimitQ:
    def test_two_camp_concept_dominated(self):
        p, m, h = datasets.two_camp_society()
        report = limit_q(p, m, h)
        assert report.case == "H_indecomposable"
        assert report.homogeneous
        assert np.abs(report.limit - TWO_CAMP_LIMIT_ROW).max() < 1.5e-3

    def test_camps_and_loner_rows(self):
        p, m, h = datasets.camps_and_loner()
        report = limit_q(p, m, h)
        assert report.case == "both_decomposable"
        assert not report.homogeneous
        # camp members agree, loner differs
        assert np.max(np.abs(report.limit[0] - report.limit[1])) < 1e-10
        assert np.max(np.abs(report.limit[0] - report.limit[2])) > 1e-2
        # published matrix itself leaks mass (row sums 0.997/0.994), so a
        # stochastic limit can only match it to ~2.2e-3
        assert np.abs(report.limit - CAMPS_LONER_LIMIT).max() < 2.5e-3

    def test_two_anchor_rows(self):
        p, m, h = datasets.two_anchor_society()
        report = limit_q(p, m, h)
        assert np.abs(report.limit - TWO_ANCHOR_LIMIT).max() < 1.5e-3

    def test_case_two_structure(self):
        # network mixing, concepts split: same row everywhere, depends on M
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        h = np.eye(3)
        m = np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]])
        report = limit_q(p, m, h)
        assert report.case == "P_indecomposable"
        assert report.homogeneous
        expected = np.array([2 / 3, 1 / 3]) @ m
        assert np.allclose(report.limit[0], expected, atol=1e-10)

    def test_case_one_independent_of_network_and_beliefs(self):
        p, m, h = datasets.two_camp_society()
        base = limit_q(p, m, h).limit
        rng = np.random.default_rng(32)
        for _ in range(5):
            p2 = random_stochastic(rng, 5)          # any replacement network
            m2 = random_stochastic(rng, 5, 5)
            alt = limit_q(p2, m2, h).limit
            assert np.max(np.abs(base - alt)) < 1e-10

    def test_limit_matches_long_evolution(self):
        for p, m, h in (datasets.two_camp_society(),
                        datasets.camps_and_loner(),
                        datasets.two_anchor_society()):
            report = limit_q(p, m, h)
            trace = evolve(p, m, h, 500, tol=0.0)
            assert np.max(np.abs(report.limit - trace.final)) < 1e-6

    def test_same_closed_class_rows_identical(self):
        p, m, h = datasets.camps_and_loner()
        limit = limit_q(p, m, h).limit
        assert np.max(np.abs(limit[0] - limit[1])) < 1e-10

    def test_periodic_network_gets_cesaro_flag(self):
        m = np.array([[0.2, 0.8], [0.7, 0.3]])
        h = np.array([[0.75, 0.25], [0.25, 0.75]])
        report = limit_q(SWAP, m, h)
        assert report.case == "periodic_cesaro"
        # Cesaro average of the swap alternation is the uniform mix
        expected = np.full((2, 2), 0.5) @ m @ np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(report.limit, expected, atol=1e-12)


class TestLimitStructure:
    def test_transient_cycle_drains_without_cesaro_flag(self):
        # states 0 and 1 swap while leaking into the absorbing state; the
        # only closed class is aperiodic, so the plain limit exists
        p = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
        inf_form, periodic = limit_structure(p)
        assert not periodic
        assert np.allclose(inf_form, matrix_power(p, 200), atol=1e-12)
        assert np.allclose(inf_form[:, 2], 1.0)

    def test_matches_long_powers_random_aperiodic(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            p = random_stochastic(rng, 6, zeros=0.5)
            np.fill_diagonal(p, np.maximum(p.diagonal(), 0.02))
            p = p / p.sum(axis=1, keepdims=True)
            inf_form, periodic = limit_structure(p)
            assert not periodic
            assert np.max(np.abs(inf_form - matrix_power(p, 8192))) < 1e-8

    def test_rows_are_stochastic(self):
        p, _, _ = datasets.two_anchor_society()
        inf_form, _ = limit_structure(p)
        assert np.allclose(inf_form.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(r=st.integers(1, 6), s=st.integers(1, 5), zeros=st.floats(0.0, 0.8),
       steps=st.integers(0, 40), tol=st.sampled_from([0.0, 1e-9, 1e-3, 0.1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_evolve_matches_its_own_loop(r, s, zeros, steps, tol, seed):
    rng = np.random.default_rng(seed)
    p = random_stochastic(rng, r, zeros=zeros)
    m = random_stochastic(rng, r, s)
    h = random_stochastic(rng, s, zeros=zeros)
    snapshots, stabilized_at = loop_evolve(p, m, h, steps, tol)
    trace = evolve(p, m, h, steps, tol)
    assert len(trace.beliefs) == len(snapshots) == steps + 1
    assert all(np.array_equal(a, b) for a, b in zip(trace.beliefs, snapshots))
    assert len(trace.networks) == len(trace.concepts) == steps
    assert all(np.array_equal(a, p) for a in trace.networks)
    assert all(np.array_equal(a, h) for a in trace.concepts)
    assert trace.stabilized_at == stabilized_at
    assert trace.final_groups == trace.belief_groups == ()
