import numpy as np
import pytest

from beliefdyn import datasets
from beliefdyn.ergodic import (NotConvergentFamilyError, NotSIAError,
                               all_products_sia, contraction_coefficient,
                               ergodic_coefficient, exists_scrambling_product,
                               homogeneous_rate_certificate,
                               inhomogeneous_rate_certificate, is_scrambling,
                               is_sia, nu_star, power_contraction_holds,
                               subdominant_modulus)
from beliefdyn.chains import one_leaf_connected
from beliefdyn.homogeneous import evolve, limit_q
from beliefdyn.stochastic import MatrixFamily, delta_coefficient, matrix_power
from util import (enumerate_word_products, pair_loop_ergodic_coefficient,
                  power_iteration_subdominant, random_stochastic)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture(scope="module")
def concept_structures():
    return datasets.three_concept_structures()


class TestErgodicCoefficient:
    def test_worked_contractions(self, concept_structures):
        h1, h2, h3 = concept_structures
        assert ergodic_coefficient(h1) == pytest.approx(0.4)
        assert contraction_coefficient(h1) == pytest.approx(0.6)
        assert contraction_coefficient(h2) == pytest.approx(1.0)
        assert contraction_coefficient(h3) == pytest.approx(0.7)

    def test_scrambling_flags(self, concept_structures):
        h1, h2, h3 = concept_structures
        assert is_scrambling(h1)
        assert not is_scrambling(h2)
        assert is_scrambling(h3)

    @pytest.mark.parametrize("zeros", [0.0, 0.5, 0.9])
    def test_matches_pair_loop_exactly(self, zeros):
        rng = np.random.default_rng(int(zeros * 10))
        for n in [2, 3, 4, 5, 8, 13, 31, 64, 100]:
            p = random_stochastic(rng, n, zeros=zeros)
            assert ergodic_coefficient(p) == pair_loop_ergodic_coefficient(p)

    def test_word_products_match_pair_loop_exactly(self):
        members = [random_stochastic(np.random.default_rng(k), 12, zeros=0.7)
                   for k in range(3)]
        for _, prod in enumerate_word_products(members, 4):
            assert ergodic_coefficient(prod) == pair_loop_ergodic_coefficient(prod)

    def test_too_small(self):
        from beliefdyn.ergodic import TooSmallError
        with pytest.raises(TooSmallError):
            ergodic_coefficient(np.array([[1.0]]))


class TestSia:
    def test_identity_is_decomposable(self):
        assert not is_sia(np.eye(2))

    def test_single_closed_class_with_self_loops(self, concept_structures):
        _, h2, _ = concept_structures
        assert is_sia(h2)

    def test_periodic_not_sia(self):
        assert not is_sia(SWAP)

    def test_scrambling_implies_sia_random(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(60):
            p = random_stochastic(rng, 4, zeros=0.5)
            if is_scrambling(p):
                checked += 1
                assert is_sia(p)
        assert checked > 10


class TestProductFamilies:
    def test_all_scrambling_family_all_sia(self, concept_structures):
        h1, _, h3 = concept_structures
        verdict = all_products_sia(MatrixFamily([h1, h3]))
        assert bool(verdict) and verdict.counterexample is None

    def test_periodic_member_fails_immediately(self):
        verdict = all_products_sia(MatrixFamily([SWAP]))
        assert not verdict
        assert verdict.counterexample == (0,)

    def test_identity_family_fails(self):
        verdict = all_products_sia(MatrixFamily([np.eye(2)]))
        assert not verdict

    def test_agrees_with_word_enumeration(self):
        rng = np.random.default_rng(22)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            members = [random_stochastic(rng, n, zeros=0.5) for _ in range(2)]
            verdict = all_products_sia(MatrixFamily(members))
            words = enumerate_word_products(members, 6)
            enumerated = all(is_sia(prod) for _, prod in words)
            if bool(verdict) != enumerated:
                # semigroup may need longer words than 6 to reveal a failure;
                # only a false verdict must be confirmed by enumeration depth
                assert not verdict and len(verdict.counterexample) > 6
            else:
                assert bool(verdict) == enumerated

    def test_scrambling_propagates_through_products(self, concept_structures):
        h1, h2, h3 = concept_structures
        rng = np.random.default_rng(23)
        members = [h1, h2, h3]
        for _ in range(40):
            length = int(rng.integers(1, 7))
            word = rng.integers(0, 3, size=length)
            if not any(w in (0, 2) for w in word):
                continue  # needs at least one scrambling factor
            prod = members[word[0]]
            for idx in word[1:]:
                prod = prod @ members[idx]
            assert is_scrambling(prod)


class TestScramblingWitness:
    def test_single_leaf_family_has_witness(self):
        fam = datasets.single_leaf_family()
        word = exists_scrambling_product(fam)
        assert word is not None
        prod = fam.members[word[0]]
        for idx in word[1:]:
            prod = prod @ fam.members[idx]
        assert is_scrambling(prod)

    def test_identity_has_no_witness(self):
        assert exists_scrambling_product(MatrixFamily([np.eye(2)])) is None

    def test_non_scrambling_sia_member_powers_up(self, concept_structures):
        _, h2, _ = concept_structures
        word = exists_scrambling_product(MatrixFamily([h2]))
        assert word == (0, 0)
        assert is_scrambling(h2 @ h2)

    def test_witness_iff_one_leaf_connected(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            members = [random_stochastic(rng, n, zeros=0.55) for _ in range(2)]
            fam = MatrixFamily(members)
            witness = exists_scrambling_product(fam)
            assert (witness is not None) == one_leaf_connected(fam)


class TestSubdominantModulus:
    def test_two_by_two(self):
        assert subdominant_modulus([[0.9, 0.1], [0.2, 0.8]]) == pytest.approx(0.7)

    def test_rank_one_is_zero(self):
        assert subdominant_modulus([[0.3, 0.7], [0.3, 0.7]]) == pytest.approx(0.0, abs=1e-12)

    def test_requires_sia(self):
        with pytest.raises(NotSIAError):
            subdominant_modulus(np.eye(2))

    def test_matches_power_iteration(self):
        _, _, h = datasets.two_camp_society()
        direct = subdominant_modulus(h)
        iterated = power_iteration_subdominant(h)
        assert direct == pytest.approx(iterated, abs=2e-3)

    def test_matches_power_iteration_random(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            p = random_stochastic(rng, 5)
            assert subdominant_modulus(p) == pytest.approx(
                power_iteration_subdominant(p), abs=2e-3)


class TestPowerContraction:
    def test_sia_power_contraction(self, concept_structures):
        h1, h2, _ = concept_structures
        _, _, h_big = datasets.two_camp_society()
        for p, k in ((h1, 1), (h2, 2), (h_big, 1)):
            for n in (1, 3, 5, 9, 15):
                assert power_contraction_holds(p, n, k)


class TestHomogeneousCertificate:
    def test_rank_one_pair_base_zero(self):
        r1 = np.array([[0.3, 0.7], [0.3, 0.7]])
        cert = homogeneous_rate_certificate(r1, r1)
        assert cert.base == pytest.approx(0.0, abs=1e-12)

    def test_product_of_moduli(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8]])     # modulus 0.7
        h = np.array([[0.75, 0.25], [0.25, 0.75]])  # modulus 0.5
        cert = homogeneous_rate_certificate(p, h)
        assert cert.base == pytest.approx(0.35)
        assert cert.per_structure["network"] == pytest.approx(0.7)
        assert cert.per_structure["concept"] == pytest.approx(0.5)

    def test_two_camp_certificate_covers_probe_window(self):
        # the fitted constant makes the bound hold on the window it was
        # fitted over, by construction
        p, m, h = datasets.two_camp_society()
        cert = homogeneous_rate_certificate(p, h, m=m, probe_horizon=40)
        limit = limit_q(p, m, h).limit
        trace = evolve(p, m, h, 40, tol=0.0)
        for n in range(1, 41):
            err = float(np.abs(trace.snapshots[n] - limit).max())
            assert err <= cert.predicted_bound(n) * (1 + 1e-6)

    def test_decomposable_side_uses_slowest_class(self):
        p, _, h = datasets.two_camp_society()
        cert = homogeneous_rate_certificate(p, h)
        # classes {0,1,2} and {3,4} have moduli ~0.3402 and 0.248
        assert cert.per_structure["network"] == pytest.approx(0.34020, abs=1e-4)


class TestInhomogeneousCertificate:
    def test_nu_star_formula(self):
        assert nu_star(3) == 6
        assert nu_star(2) == 1
        assert nu_star(4) == 25

    def test_singleton_scrambling_family(self, concept_structures):
        h1, _, _ = concept_structures
        cert = inhomogeneous_rate_certificate(MatrixFamily([h1]))
        assert cert.block == 1
        assert cert.base == pytest.approx(0.6)

    def test_pair_takes_worst_word(self, concept_structures):
        h1, _, h3 = concept_structures
        cert = inhomogeneous_rate_certificate(MatrixFamily([h1, h3]))
        assert cert.block == 1
        assert cert.base == pytest.approx(0.7)
        assert cert.nu_star == 6

    def test_non_convergent_family_rejected(self):
        with pytest.raises(NotConvergentFamilyError):
            inhomogeneous_rate_certificate(MatrixFamily([np.eye(2)]))

    def test_almost_sure_consensus_is_not_enough_for_a_block_bound(self):
        # the single-leaf family converges with probability one, but one of
        # its members repeated forever never scrambles, so no block length
        # works for the worst word and the certificate must refuse
        fam = datasets.single_leaf_family()
        with pytest.raises(NotConvergentFamilyError):
            inhomogeneous_rate_certificate(fam)

    def test_pattern_budget_respected(self):
        from beliefdyn.ergodic import BudgetExceededError
        rng = np.random.default_rng(27)
        members = [random_stochastic(rng, 5, zeros=0.5) for _ in range(3)]
        with pytest.raises(BudgetExceededError):
            all_products_sia(MatrixFamily(members), max_patterns=4)

    def test_bound_dominates_observed_contraction(self, concept_structures):
        h1, _, h3 = concept_structures
        fam = MatrixFamily([h1, h3])
        cert = inhomogeneous_rate_certificate(fam)
        rng = np.random.default_rng(26)
        for _ in range(20):
            word = rng.integers(0, 2, size=12)
            prod = fam.members[word[0]]
            for idx in word[1:]:
                prod = fam.members[idx] @ prod
            assert delta_coefficient(prod) <= cert.predicted_bound(len(word)) + 1e-12
