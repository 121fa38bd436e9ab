import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from beliefdyn import datasets
from beliefdyn.stochastic import (DimensionMismatchError, MatrixFamily,
                                  NegativeEntryError, RowSumError,
                                  ZeroSumError, col_normalize, delta_coefficient,
                                  ingest_rounded, matrix_power, multiply,
                                  row_normalize, validate_stochastic)
from util import random_stochastic


class TestValidation:
    def test_uniform_rows_accepted(self):
        a = validate_stochastic([[0.5, 0.5], [0.5, 0.5]], tol=1e-9)
        assert a.shape == (2, 2)

    def test_row_sum_violation(self):
        # the message counts rows from 1, the field from 0
        with pytest.raises(RowSumError, match="row 1 sums to") as err:
            validate_stochastic([[0.6, 0.5], [0.5, 0.5]])
        assert err.value.row == 0
        assert err.value.total == pytest.approx(1.1)

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError, match=r"at \(1, 2\)") as err:
            validate_stochastic([[1.2, -0.2], [0.5, 0.5]])
        assert (err.value.row, err.value.col) == (0, 1)

    def test_rounded_table_accepted_at_loose_tol(self):
        p, _, _ = datasets.two_camp_society()
        # ingest path renormalizes; rows are exact afterwards
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-15)

    def test_raw_published_table_validates_at_1e3(self):
        raw = [
            [0.194, 0.387, 0.419, 0, 0],
            [0.29, 0.323, 0.387, 0, 0],
            [0.261, 0.696, 0.043, 0, 0],
            [0, 0, 0, 0.448, 0.552],
            [0, 0, 0, 0.2, 0.8],
        ]
        out = validate_stochastic(raw, tol=1e-3)
        assert out.shape == (5, 5)

    def test_ingest_tolerance_scales_with_columns(self):
        # five 3-decimal entries can leave a row sum at 0.999; still accepted
        row = [[0.342, 0.421, 0.026, 0.105, 0.105]]
        out = ingest_rounded(row)
        assert out.sum() == pytest.approx(1.0, abs=1e-15)

    def test_entries_unchanged(self):
        src = [[0.3, 0.7], [0.25, 0.75]]
        out = validate_stochastic(src)
        assert np.array_equal(out, np.array(src))

    def test_ingest_requires_near_stochastic(self):
        with pytest.raises(RowSumError):
            ingest_rounded([[0.9, 0.2], [0.5, 0.5]])


class TestMultiply:
    def test_identity_left(self):
        m = random_stochastic(np.random.default_rng(0), 3, 4)
        assert np.allclose(multiply(np.eye(3), m), m)

    def test_permutation_involution(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(multiply(swap, swap), np.eye(2))

    def test_hand_product(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        expected = np.array([[0.83, 0.17], [0.34, 0.66]])
        assert np.allclose(multiply(p, p), expected, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(np.eye(3), np.eye(2))

    def test_product_closure_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = random_stochastic(rng, 5)
            b = random_stochastic(rng, 5)
            out = multiply(a, b, tol=1e-9)   # revalidates at 10x tol inside
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-8)


class TestPower:
    def test_zeroth_power_is_identity(self):
        p = random_stochastic(np.random.default_rng(1), 4)
        assert np.array_equal(matrix_power(p, 0), np.eye(4))

    def test_swap_squared(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(matrix_power(swap, 2), np.eye(2))

    def test_power_converges_to_stationary(self):
        # pi P = pi solved by hand: pi = (2/3, 1/3)
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        out = matrix_power(p, 200)
        assert np.allclose(out, [[2 / 3, 1 / 3]] * 2, atol=1e-12)

    def test_power_addition(self):
        rng = np.random.default_rng(3)
        for n in (2, 7, 16):
            p = random_stochastic(rng, n)
            lhs = matrix_power(p, 9)
            rhs = multiply(matrix_power(p, 4), matrix_power(p, 5))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_not_square(self):
        with pytest.raises(DimensionMismatchError, match="expected a square matrix"):
            matrix_power(np.ones((2, 3)) / 3, 2)


class TestNormalization:
    def test_row_normalize(self):
        out = row_normalize([[2.0, 2.0], [1.0, 3.0]])
        assert np.allclose(out, [[0.5, 0.5], [0.25, 0.75]])

    def test_identity_fixed_point(self):
        assert np.allclose(row_normalize(np.eye(3)), np.eye(3))

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroSumError, match="^row 1 is identically zero$") as err:
            row_normalize([[0.0, 0.0], [1.0, 1.0]])
        assert (err.value.axis, err.value.index) == (0, 0)

    def test_col_normalize_sums(self):
        m = datasets.five_person_beliefs()
        out = col_normalize(m)
        assert np.allclose(out.sum(axis=0), 1.0, atol=1e-12)

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroSumError, match="^column 2 is identically zero$") as err:
            col_normalize([[1.0, 0.0], [1.0, 0.0]])
        assert (err.value.axis, err.value.index) == (1, 1)

    def test_zeros_stay_zero(self):
        out = row_normalize([[0.0, 2.0, 2.0], [1.0, 0.0, 1.0]])
        assert out[0, 0] == 0.0 and out[1, 1] == 0.0

    @given(x=hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 150)),
                        elements=st.floats(1e-300, 1e100)))
    def test_normalize_bits_match_the_explicit_division(self, x):
        # one shared helper for both axes gives the bits of the per-axis formulas
        assert row_normalize(x).tobytes() == (x / x.sum(axis=1)[:, None]).tobytes()
        assert col_normalize(x).tobytes() == (x / x.sum(axis=0)[None, :]).tobytes()


class TestDeltaCoefficient:
    def test_rank_one_is_zero(self):
        assert delta_coefficient([[0.3, 0.7], [0.3, 0.7]]) == 0.0

    def test_identity_is_one(self):
        assert delta_coefficient(np.eye(2)) == 1.0

    def test_direct_evaluation(self):
        assert delta_coefficient([[0.9, 0.1], [0.2, 0.8]]) == pytest.approx(0.7)

    def test_contraction_under_left_multiplication(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = random_stochastic(rng, 5)
            b = random_stochastic(rng, 5)
            assert delta_coefficient(a @ b) <= delta_coefficient(b) + 1e-12


class TestMatrixFamily:
    def test_uniform_weights_default(self):
        fam = MatrixFamily([np.eye(2), np.eye(2)])
        assert np.allclose(fam.weights, [0.5, 0.5])

    def test_weights_normalized(self):
        fam = MatrixFamily([np.eye(2), np.eye(2)], weights=[1.0, 3.0])
        assert np.allclose(fam.weights, [0.25, 0.75])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            MatrixFamily([np.eye(2), np.eye(2)], weights=[1.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MatrixFamily([np.eye(2), np.eye(2)], weights=[1.0, bad])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="member shapes differ"):
            MatrixFamily([np.eye(2), np.eye(3)])
