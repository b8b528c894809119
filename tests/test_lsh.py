import math
from fractions import Fraction
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exhaustive_position_disagreement, exhaustive_rv_distance_mean
from rvsketch import (BitString, DimensionError, IndexVector, ParameterError,
                      SeededRng, empirical_rv_distance, exceedance_frequencies,
                      expected_rv_distance, gen_index_vector,
                      rv_distance_samples, sample_bits, similarity)


class TestIndexVector:
    def test_bounds_enforced(self):
        with pytest.raises(ParameterError):
            IndexVector(np.array([0, 1]), 4)
        with pytest.raises(ParameterError):
            IndexVector(np.array([1, 5]), 4)

    def test_text_round_trip(self):
        iv = IndexVector(np.array([1, 1, 3, 4, 2]), 4)
        assert iv.to_text() == "1,1,3,4,2"
        assert np.array_equal(IndexVector.from_text(iv.to_text(), 4).indices,
                              iv.indices)

    @pytest.mark.parametrize("indices", [np.array([2 ** 32 + 1]), [-1, 2],
                                         [1.5, 2]])
    def test_range_checked_before_the_uint32_cast(self, indices):
        with pytest.raises(ParameterError):
            IndexVector(indices, 3)

    @pytest.mark.parametrize("text", ["-1,2", "1,x", "", "4294967297"])
    def test_bad_text_raises_parameter_error(self, text):
        with pytest.raises(ParameterError):
            IndexVector.from_text(text, 3)

    def test_value_equality_and_hash(self):
        a = IndexVector(np.array([1, 2, 3]), 3)
        b = IndexVector(np.array([1, 2, 3]), 3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != IndexVector(np.array([1, 2, 2]), 3)
        assert a != IndexVector(np.array([1, 2, 3]), 4)
        assert a != IndexVector(np.array([1, 2, 3, 1]), 3)
        assert a != "1,2,3"


class TestGenIndexVector:
    def test_single_source_index(self):
        iv = gen_index_vector(1, 5, SeededRng(3))
        assert iv.indices.tolist() == [1, 1, 1, 1, 1]

    def test_uniformity_band(self):
        # binomial band: 512/16 +- 4*sqrt(512 * (1/16)(15/16))
        iv = gen_index_vector(16, 512, SeededRng(7))
        counts = np.bincount(iv.indices, minlength=17)[1:]
        band = 4 * math.sqrt(512 * (1 / 16) * (15 / 16))
        assert np.all(np.abs(counts - 32) <= band)

    def test_law_of_large_numbers(self):
        iv = gen_index_vector(4, 100_000, SeededRng(1))
        freqs = np.bincount(iv.indices, minlength=5)[1:] / 100_000
        assert np.all((freqs >= 0.24) & (freqs <= 0.26))

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            gen_index_vector(0, 4, SeededRng(0))
        with pytest.raises(ParameterError):
            gen_index_vector(4, 0, SeededRng(0))

    def test_deterministic(self):
        a = gen_index_vector(9, 40, SeededRng(2))
        b = gen_index_vector(9, 40, SeededRng(2))
        assert np.array_equal(a.indices, b.indices)


class TestSampleBits:
    def test_worked_example(self):
        out = sample_bits(BitString("1010"), IndexVector(np.array([1, 1, 3, 4, 2]), 4))
        assert out == BitString("11100")

    def test_all_zero_input(self):
        N = gen_index_vector(6, 8, SeededRng(4))
        assert sample_bits(BitString.zeros(6), N) == BitString.zeros(8)

    def test_all_one_input(self):
        N = gen_index_vector(5, 6, SeededRng(4))
        assert sample_bits(BitString.ones(5), N) == BitString.ones(6)

    def test_length_mismatch(self):
        N = gen_index_vector(5, 6, SeededRng(4))
        with pytest.raises(DimensionError):
            sample_bits(BitString.zeros(6), N)

    @given(st.integers(2, 10), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_gf2_linear(self, k_star, n, seed):
        rng = SeededRng(seed)
        a, b = rng.random_bits(k_star), rng.random_bits(k_star)
        N = gen_index_vector(k_star, n, rng)
        assert sample_bits(a ^ b, N) == sample_bits(a, N) ^ sample_bits(b, N)


class TestSimilarity:
    def test_equal_inputs(self):
        w = SeededRng(0).random_bits(12)
        assert similarity(w, w) == 1

    def test_complement(self):
        assert similarity(BitString("1010"), BitString("0101")) == 0

    def test_quarter_distance(self):
        w = BitString.zeros(16)
        wp = BitString("1111" + "0" * 12)
        assert similarity(w, wp) == Fraction(3, 4) == 0.75


class TestExpectedRvDistance:
    def test_identical(self):
        w = SeededRng(1).random_bits(10)
        assert expected_rv_distance(w, w, 512) == 0

    def test_closed_form(self):
        w = BitString.zeros(16)
        wp = BitString("1111" + "0" * 12)
        assert expected_rv_distance(w, wp, 64) == 16

    def test_monte_carlo_agreement(self):
        # oracle: the exact expectation; binomial sigma^2 = n p (1-p)
        w = BitString.zeros(16)
        wp = BitString("1111" + "0" * 12)
        n, trials = 512, 10_000
        mean, _ = empirical_rv_distance(w, wp, n, trials, SeededRng(42))
        expected = float(expected_rv_distance(w, wp, n))
        sigma = math.sqrt(n * 0.25 * 0.75)
        assert abs(mean - expected) <= 3 * sigma / math.sqrt(trials)


class TestEmpiricalRvDistance:
    def test_identical_inputs(self):
        w = SeededRng(9).random_bits(8)
        mean, std = empirical_rv_distance(w, w, 32, 50, SeededRng(1))
        assert mean == 0.0 and std == 0.0

    def test_exhaustive_tiny_case(self):
        # all 4 index vectors over [2]^2, frozen from the enumeration oracle
        assert exhaustive_rv_distance_mean("10", "11", 2) == Fraction(1)
        mean, _ = empirical_rv_distance(BitString("10"), BitString("11"),
                                        2, 20_000, SeededRng(5))
        assert abs(mean - 1.0) < 0.02

    def test_exhaustive_mean_matches_expectation(self):
        # brute force over all k*^n index vectors for small shapes
        for w, wp, n in [("1010", "1001", 3), ("110", "011", 4)]:
            exact = exhaustive_rv_distance_mean(w, wp, n)
            assert exact == expected_rv_distance(BitString(w), BitString(wp), n)

    def test_per_position_law_exhaustive(self):
        # P(position differs) == d/k* exactly, every position
        w, wp, n = "1100", "1010", 3
        d = 2
        for pos in range(1, n + 1):
            assert exhaustive_position_disagreement(w, wp, n, pos) == Fraction(d, 4)


class TestExceedance:
    def test_bounds_hold_at_small_scale(self):
        r = exceedance_frequencies(16, 128, Fraction(1, 4), Fraction(1, 8),
                                   5_000, SeededRng(3))
        se = math.sqrt(r.bound * (1 - r.bound) / r.trials)
        assert r.similar_given_far <= r.bound + 2 * se
        assert r.distant_given_near <= r.bound + 2 * se

    def test_rejects_non_integer_distances(self):
        with pytest.raises(ParameterError):
            exceedance_frequencies(10, 64, Fraction(1, 4), Fraction(1, 8),
                                   10, SeededRng(0))

    def test_samples_are_reproducible(self):
        w = BitString.zeros(12)
        wp = BitString("111" + "0" * 9)
        a = rv_distance_samples(w, wp, 64, 100, SeededRng(8))
        b = rv_distance_samples(w, wp, 64, 100, SeededRng(8))
        assert np.array_equal(a, b)
