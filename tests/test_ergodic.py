import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from beliefdyn import chains, datasets, ergodic, stochastic
from beliefdyn.ergodic import (BudgetExceededError, NotConvergentFamilyError,
                               NotSIAError, _pattern_scrambling,
                               contraction_coefficient, ergodic_coefficient,
                               exists_scrambling_product,
                               homogeneous_rate_certificate,
                               inhomogeneous_rate_certificate, is_scrambling,
                               is_sia, nu_star, power_contraction_holds,
                               subdominant_modulus)
from beliefdyn.homogeneous import evolve, limit_q
from beliefdyn.matrixio import format_value
from beliefdyn.stochastic import MatrixFamily, delta_coefficient, matrix_power
from util import (bfs_one_leaf_connected, enumerate_word_products,
                  level_scan_block_length, pair_loop_ergodic_coefficient,
                  power_iteration_subdominant, random_stochastic,
                  search_scrambling_product, word_product)

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
        # up to n = 40 every offset fits one gather block and n = 41 needs
        # two; past n = 128 a block holds one offset, and past n = 181 that
        # one offset outgrows the block cap
        for n in [2, 3, 4, 5, 8, 13, 31, 40, 41, 64, 100, 181, 182, 200]:
            p = random_stochastic(rng, n, zeros=zeros)
            assert ergodic_coefficient(p) == pair_loop_ergodic_coefficient(p)
            assert ergodic_coefficient(np.asfortranarray(p)) == ergodic_coefficient(p)

    def test_word_products_match_pair_loop_exactly(self):
        members = [random_stochastic(np.random.default_rng(k), 12, zeros=0.7)
                   for k in range(3)]
        for _, prod in enumerate_word_products(members, 4):
            assert ergodic_coefficient(prod) == pair_loop_ergodic_coefficient(prod)

    @pytest.mark.parametrize("zeros", [0.5, 0.8, 0.95])
    def test_pattern_scrambling_matches_pair_loop(self, zeros):
        rng = np.random.default_rng(int(zeros * 100))
        for n in [1, 2, 3, 5, 8, 13, 31]:
            for _ in range(20):
                p = random_stochastic(rng, n, zeros=zeros)
                assert _pattern_scrambling(p > 0) == (pair_loop_ergodic_coefficient(p) > 0)

    def test_one_state_has_no_pair_to_separate(self):
        assert ergodic_coefficient(np.array([[1.0]])) == 1.0
        assert pair_loop_ergodic_coefficient(np.array([[1.0]])) == 1.0


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
    def test_products_do_not_wrap_at_256_states(self):
        # each entry of g @ g.T sums 256 positive terms, which wraps to 0 in
        # uint8 arithmetic
        fam = MatrixFamily([np.full((256, 256), 1 / 256)])
        assert exists_scrambling_product(fam) == (0,)

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
        assert is_scrambling(word_product(fam, word))

    def test_identity_has_no_witness(self):
        assert exists_scrambling_product(MatrixFamily([np.eye(2)])) is None

    def test_non_scrambling_sia_member_powers_up(self, concept_structures):
        _, h2, _ = concept_structures
        fam = MatrixFamily([h2])
        word = exists_scrambling_product(fam)
        assert not is_scrambling(h2)
        assert word is not None and search_scrambling_product(fam) is not None
        assert is_scrambling(word_product(fam, word))

    def test_witness_implies_one_leaf_connected(self):
        rng = np.random.default_rng(24)
        families = [MatrixFamily([random_stochastic(rng, int(n), zeros=0.55)
                                  for _ in range(2)])
                    for n in rng.integers(2, 5, size=25)]
        # one leaf without a witness: every product is a permutation
        families += [MatrixFamily([SWAP]), cycle_and_transposition(3),
                     cycle_and_transposition(5)]
        for fam in families:
            witness = exists_scrambling_product(fam)
            if witness is not None:
                assert bfs_one_leaf_connected(fam)
                assert is_scrambling(word_product(fam, witness))
        assert all(bfs_one_leaf_connected(fam) for fam in families[-3:])
        assert all(exists_scrambling_product(fam) is None for fam in families[-3:])


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)),
       density=st.sampled_from([0.0, 0.05, 0.3, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_pattern_product_matches_boolean_matmul(shape, density, seed):
    rng = np.random.default_rng(seed)
    n, k, m = shape
    a = rng.random((n, k)) < density
    b = rng.random((k, m)) < density
    a[rng.random(n) < 0.3] = False       # all-zero rows on both sides
    b[rng.random(k) < 0.3] = False
    product = ergodic._pattern_product(a, b)
    assert product.dtype == bool
    assert np.array_equal(product, a @ b)


def cycle_and_transposition(n):
    """A cyclic shift and a swap of two states: they generate every permutation."""
    return MatrixFamily([np.roll(np.eye(n), 1, axis=1),
                         np.eye(n)[[1, 0, *range(2, n)]]])


@st.composite
def pattern_families(draw):
    """1-3 members on 2-8 states: each maps every state to one state (often
    a permutation) and adds random extra entries."""
    n = draw(st.integers(2, 8))
    density = draw(st.sampled_from([0.0, 0.15, 0.4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    maps = st.one_of(st.permutations(range(n)),
                     st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    members = [np.eye(n)[draw(maps)] + (rng.random((n, n)) < density)
               for _ in range(draw(st.integers(1, 3)))]
    return MatrixFamily([m / m.sum(axis=1, keepdims=True) for m in members])


@settings(max_examples=200, deadline=None)
@given(fam=pattern_families())
def test_scrambling_gate_matches_semigroup_search(fam):
    word = exists_scrambling_product(fam)
    if word is not None:
        assert is_scrambling(word_product(fam, word))
    try:
        expected = search_scrambling_product(fam, max_patterns=20_000)
    except BudgetExceededError:
        assume(False)
    assert (word is not None) == (expected is not None)


def test_permutation_family_is_refused_without_a_search():
    # its 9! permutation patterns would outgrow the search's pattern cap
    with pytest.raises(NotConvergentFamilyError, match=f"nu\\* = {nu_star(9)}"):
        inhomogeneous_rate_certificate(cycle_and_transposition(9))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 5), k=st.integers(1, 3), zeros=st.floats(0.0, 0.8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_length_matches_level_scan(n, k, zeros, seed):
    rng = np.random.default_rng(seed)
    fam = MatrixFamily([random_stochastic(rng, n, zeros=zeros) for _ in range(k)])
    try:
        # a small budget keeps the oracle's full scan up to nu* quick
        expected = level_scan_block_length(fam, max_patterns=300)
    except BudgetExceededError:
        assume(False)
    except NotConvergentFamilyError:
        with pytest.raises(NotConvergentFamilyError):
            inhomogeneous_rate_certificate(fam)
        return
    assert inhomogeneous_rate_certificate(fam).block == expected


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


# certificate.txt values (formatted as ``format_value`` prints them) for the
# decomposable societies, with the dataset's beliefs and with the default
# probe matrix, recorded while each structure was still analysed twice and
# its limit taken from ``limit_q``
DECOMPOSABLE_CERTIFICATES = {
    ("two_anchor_society", True): ("0", "0.666387693898", "0.3", "0"),
    ("two_anchor_society", False): ("0", "0.123699465892", "0.3", "0"),
    ("camps_and_loner", True): ("0.1017", "1.43378435896e+34", "0.339", "0.3"),
    ("camps_and_loner", False): ("0.1017", "3.82342495722e+34", "0.339", "0.3"),
}


class TestHomogeneousCertificate:
    def test_rank_one_pair_base_zero(self):
        r1 = np.array([[0.3, 0.7], [0.3, 0.7]])
        cert = homogeneous_rate_certificate(r1, r1)
        assert cert.base == pytest.approx(0.0, abs=1e-12)

    def test_near_rank_one_pair_skips_underflowed_powers(self):
        # base is about 1e-14: base ** n is subnormal from step 22, 0 from step 24
        p = np.array([[0.5000001, 0.4999999], [0.5, 0.5]])
        h = np.array([[0.3000001, 0.6999999], [0.3, 0.7]])
        m = np.array([[0.2, 0.8], [0.6, 0.4]])
        cert = homogeneous_rate_certificate(p, h, m=m)
        assert cert.base == pytest.approx(1e-14)
        assert np.isfinite(cert.constant_hint)
        limit = limit_q(p, m, h).limit
        trace = evolve(p, m, h, 50, tol=0.0)
        for n in range(1, 22):
            err = float(np.abs(trace.beliefs[n] - limit).max())
            assert err <= cert.predicted_bound(n) * (1 + 1e-6)

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
            err = float(np.abs(trace.beliefs[n] - limit).max())
            assert err <= cert.predicted_bound(n) * (1 + 1e-6)

    def test_decomposable_side_uses_slowest_class(self):
        p, _, h = datasets.two_camp_society()
        cert = homogeneous_rate_certificate(p, h)
        # classes {0,1,2} and {3,4} have moduli ~0.3402 and 0.248
        assert cert.per_structure["network"] == pytest.approx(0.34020, abs=1e-4)

    @pytest.mark.parametrize("name, with_m", sorted(DECOMPOSABLE_CERTIFICATES))
    def test_decomposable_certificate_pinned(self, name, with_m):
        p, m, h = getattr(datasets, name)()
        cert = homogeneous_rate_certificate(p, h, m=m if with_m else None)
        printed = tuple(format_value(x) for x in (
            cert.base, cert.constant_hint,
            cert.per_structure["concept"], cert.per_structure["network"]))
        assert printed == DECOMPOSABLE_CERTIFICATES[name, with_m]

    def test_certificate_analyses_each_structure_once(self, monkeypatch):
        calls = {"analyze_pattern": 0, "matrix_power": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(chains, "analyze_pattern",
                            counted("analyze_pattern", chains.analyze_pattern))
        for module in (ergodic, stochastic):
            monkeypatch.setattr(module, "matrix_power",
                                counted("matrix_power", stochastic.matrix_power))
        p, m, h = datasets.camps_and_loner()
        homogeneous_rate_certificate(p, h, m=m)
        assert calls == {"analyze_pattern": 2, "matrix_power": 0}


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

    def test_heap_family_matches_word_loop(self):
        # each member links a person to itself and to their heap parent, so
        # the shortest all-scrambling block is the heap's depth (4 at n = 20)
        rng = np.random.default_rng(31)
        members = []
        for _ in range(3):
            a = np.zeros((20, 20))
            a[0, 0] = 1.0
            for i in range(1, 20):
                a[i, i] = 0.2 + 0.6 * rng.random()
                a[i, (i - 1) // 2] = 1.0 - a[i, i]
            members.append(a)
        cert = inhomogeneous_rate_certificate(MatrixFamily(members, weights=[1, 2, 3]))
        gammas = [(len(word), pair_loop_ergodic_coefficient(prod), word)
                  for word, prod in enumerate_word_products(members, 4)]
        nu = min(k for k in range(1, 5)
                 if all(g > 0 for length, g, _ in gammas if length == k))
        gamma, witness = 1.0, None
        for length, g, word in gammas:
            if length == nu and g < gamma:
                gamma, witness = g, word
        assert (cert.block, cert.base, cert.witness) == (nu, 1.0 - gamma, witness)
        assert nu == 4

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

    def test_word_cap_counts_words(self, concept_structures):
        # past 2 ** 64 words the count is printed as a power, never formed
        h = concept_structures[0]
        for nu, count in [(20, 2 ** 20), (10 ** 5, "2^100000"),
                          (10 ** 8, "2^100000000")]:
            with pytest.raises(BudgetExceededError) as raised:
                inhomogeneous_rate_certificate(MatrixFamily([h, h]), nu=nu)
            message = str(raised.value)
            assert f"{count} words of length {nu}" in message
            assert "pattern" not in message

    def test_given_nu_refused_before_any_product(self, monkeypatch):
        # 2 ** 17 words pass the word cap, but the identity repeated never
        # scrambles, which the patterns alone decide
        def no_product(p):
            raise AssertionError("a real product was formed")

        monkeypatch.setattr(ergodic, "ergodic_coefficient", no_product)
        fam = MatrixFamily([np.eye(3), np.full((3, 3), 1 / 3)])
        with pytest.raises(NotConvergentFamilyError) as raised:
            inhomogeneous_rate_certificate(fam, nu=17)
        assert str(raised.value) == "a length-nu word is not scrambling"

    def test_one_budget_for_words_and_patterns(self, monkeypatch):
        # a 15-state heap of depth 3: each member links a person to itself
        # and to a parent one level up, the two members to different
        # parents, so the length-3 words all scramble and shorter ones do not
        heap = [(i - 1) // 2 if i else 0 for i in range(15)]
        other = [0, 0, 0, 2, 2, 1, 1, 4, 4, 3, 3, 6, 6, 5, 5]
        members = []
        for parent in (heap, other):
            a = 0.5 * np.eye(15)
            a[np.arange(15), parent] += 0.5
            members.append(a)
        fam = MatrixFamily(members)
        assert inhomogeneous_rate_certificate(fam).block == 3
        monkeypatch.setattr(ergodic, "_MAX_WORDS", 0)
        # the automatic search holds patterns against the word budget; a
        # given nu is held to it by its word count, before any pattern
        with pytest.raises(BudgetExceededError, match="pattern semigroup"):
            inhomogeneous_rate_certificate(fam)
        with pytest.raises(BudgetExceededError, match="8 words of length 3"):
            inhomogeneous_rate_certificate(fam, nu=3)

    @pytest.mark.parametrize("nu", [None, 2])
    def test_one_state_family_certifies_base_zero(self, nu):
        # nu_star(1) is 0, but one state is consensus already: block 1 when
        # the block is not given, and no word separates anything
        cert = inhomogeneous_rate_certificate(MatrixFamily([np.array([[1.0]])]), nu=nu)
        assert (cert.base, cert.block, cert.nu_star, cert.witness) == (
            0.0, 1 if nu is None else nu, 0, None)

    @pytest.mark.parametrize("nu", [0, -1])
    def test_block_length_below_one_rejected(self, concept_structures, nu):
        with pytest.raises(ValueError, match="nu must be at least 1"):
            inhomogeneous_rate_certificate(MatrixFamily([concept_structures[0]]), nu=nu)

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


def _enumerated_certificate(family, nu):
    """(block, base, witness) of the given-``nu`` certificate, from the real
    product of every length-``nu`` word, or the refusal's type and text."""
    gamma, witness = 1.0, None
    for word, prod in enumerate_word_products(family.members, nu):
        if len(word) < nu:
            continue
        g = ergodic_coefficient(prod)
        if g < gamma:
            gamma, witness = g, word
    if gamma <= 0.0:
        return NotConvergentFamilyError, "a length-nu word is not scrambling"
    return nu, 1.0 - gamma, witness


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 5), k=st.integers(2, 3), zeros=st.floats(0.0, 0.9),
       nu=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_given_nu_matches_word_enumeration(n, k, zeros, nu, seed):
    rng = np.random.default_rng(seed)
    fam = MatrixFamily([random_stochastic(rng, n, zeros=zeros) for _ in range(k)])
    try:
        cert = inhomogeneous_rate_certificate(fam, nu=nu)
        got = cert.block, cert.base, cert.witness
    except NotConvergentFamilyError as exc:
        got = type(exc), str(exc)
    assert got == _enumerated_certificate(fam, nu)
