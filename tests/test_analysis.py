import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import binomtest

from oracles import min_n_direct_search
from rvsketch import (ParameterError, binary_entropy, binom_lower_tail,
                      efficiency_bound_check, error_floor_check,
                      false_accept_rate, fixed_weight, h2, hoeffding_bound,
                      min_length_for_error_floor, min_sketch_len_for_budget,
                      rate_bounds, residual_entropy_bound, support_size,
                      thresholds)


def _h2_highprec(x: Fraction) -> float:
    # independent evaluation at 50 digits
    with mpmath.workdps(50):
        xm = mpmath.mpf(x.numerator) / x.denominator
        if xm == 0 or xm == 1:
            return 0.0
        val = -xm * mpmath.log(xm, 2) - (1 - xm) * mpmath.log(1 - xm, 2)
        return float(val)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(Fraction(1, 2)) == 1.0

    def test_continuity_limits(self):
        assert binary_entropy(0) == 0.0
        assert binary_entropy(1) == 0.0

    def test_quarter(self):
        assert math.isclose(binary_entropy(0.25), 0.8112781244591328, rel_tol=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)
        with pytest.raises(ValueError):
            binary_entropy(-0.1)

    def test_alias(self):
        assert h2 is binary_entropy

    @given(st.fractions(min_value=0, max_value=1, max_denominator=1000))
    def test_symmetry(self, x):
        assert math.isclose(binary_entropy(x), binary_entropy(1 - x),
                            rel_tol=0, abs_tol=1e-12)

    @given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000),
                        max_denominator=1000))
    def test_against_high_precision(self, x):
        assert math.isclose(binary_entropy(x), _h2_highprec(x), rel_tol=1e-12)


class TestHoeffdingBound:
    def test_canonical_point(self):
        # n = 2 k*^2 with eps = 1/(2k*) gives exactly exp(-1)
        for k_star in (4, 7, 16):
            got = hoeffding_bound(2 * k_star * k_star, Fraction(1, 2 * k_star))
            assert math.isclose(got, math.exp(-1), rel_tol=1e-12)
            assert got < 0.5

    def test_vacuous_at_zero_eps(self):
        assert hoeffding_bound(123, 0) == 1.0

    def test_direct_evaluation(self):
        assert math.isclose(hoeffding_bound(512, Fraction(1, 8)),
                            math.exp(-16), rel_tol=1e-12)


class TestSupportSize:
    def test_sixteen_quarter(self):
        exact, bound = support_size(16, Fraction(1, 4))
        assert exact == 1820
        assert math.isclose(bound, 2 ** (16 * binary_entropy(Fraction(1, 4))),
                            rel_tol=1e-12)
        assert exact <= bound

    def test_zero_eps(self):
        assert support_size(12, 0)[0] == 1

    def test_half(self):
        exact, bound = support_size(8, Fraction(1, 2))
        assert exact == 70
        assert exact <= bound == 2.0 ** 8

    def test_envelope_beyond_float_range(self):
        exact, bound = support_size(2000, Fraction(1, 2))
        assert exact == math.comb(2000, 1000)
        assert bound == math.inf

    def test_entropy_chain_on_grid(self):
        # C(k*, floor(2 k* eps)) <= 2^(k* h2(2 eps)) for eps in (0, 1/4]
        for k_star in (8, 12, 16, 24):
            for denom in (32, 16, 8, 5, 4):
                eps = Fraction(1, denom)
                if eps > Fraction(1, 4):
                    continue
                exact = math.comb(k_star, int(2 * k_star * eps))
                assert exact <= 2 ** (k_star * binary_entropy(2 * eps)) * (1 + 1e-12)


class TestThresholds:
    def test_minimum_solution_regime(self):
        th = thresholds(16, 64, Fraction(1, 8), Fraction(1, 8))
        assert th.t_max == 0
        assert th.t_minus_prime == 0 and th.t_minus == 0

    def test_worked_example(self):
        th = thresholds(16, 64, Fraction(1, 4), Fraction(1, 8))
        assert th.t_max == 8
        assert th.t_min == 24
        assert th.t_plus_prime == 6 and th.t_plus == 6
        assert th.t_minus_prime == 2 and th.t_minus == 2

    def test_worst_case_cap(self):
        # at eps = xi = 1/4: t_plus = floor(2 k* eps) = floor(k*/2)
        for k_star in (7, 8, 15, 16, 33):
            th = thresholds(k_star, 4 * k_star, Fraction(1, 4), Fraction(1, 4))
            assert th.t_plus == k_star // 2

    def test_ordering_violation(self):
        with pytest.raises(ValueError):
            thresholds(16, 64, Fraction(1, 8), Fraction(1, 4))

    @given(st.integers(2, 64), st.integers(1, 256),
           st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=64),
           st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=64))
    def test_bracketing_property(self, k_star, n, xi, eps):
        if eps > xi:
            xi, eps = eps, xi
        th = thresholds(k_star, n, xi, eps)
        assert th.t_max <= n * xi <= th.t_min
        assert th.t_minus <= th.t_minus_prime <= th.t_plus_prime
        assert th.t_minus >= 0


class TestEfficiencyBound:
    def test_small_config_fails(self):
        chk = efficiency_bound_check(7, Fraction(1, 7), 16, 15)
        assert not chk.holds
        assert math.isclose(chk.lhs, 7 * binary_entropy(Fraction(1, 7)), rel_tol=1e-12)
        assert chk.rhs == 1.0

    def test_zero_eps_holds(self):
        assert efficiency_bound_check(16, 0, 16, 15).holds

    def test_boundary_equality(self):
        chk = efficiency_bound_check(16, Fraction(1, 2), 31, 15)
        assert chk.lhs == 16.0 and chk.rhs == 16.0 and chk.holds


class TestRateBounds:
    def test_full_leakage(self):
        rb = rate_bounds(16, 31, 15, Fraction(1, 16), Fraction(1, 8))
        assert rb.rate == 0  # k - n* = 16 = k*

    def test_regime_violation_reported(self):
        rb = rate_bounds(16, 19, 15, Fraction(1, 16), Fraction(1, 8))
        assert rb.rate == Fraction(3, 4)
        assert math.isclose(rb.shannon_ub, 1 - binary_entropy(Fraction(1, 8)),
                            rel_tol=1e-12)
        assert not rb.meets_shannon
        assert rb.regime == "exceeds-shannon"

    def test_shannon_cap_below_one(self):
        for k_star in (2, 4, 8, 16, 64, 256):
            rb = rate_bounds(k_star, k_star + 1, k_star, Fraction(1, 2 * k_star),
                             Fraction(1, 2 * k_star))
            assert rb.shannon_ub < 1.0

    def test_delta_range(self):
        with pytest.raises(ValueError):
            rate_bounds(8, 15, 15, Fraction(1, 16), Fraction(1, 8))
        with pytest.raises(ValueError):
            rate_bounds(0, 16, 15, Fraction(1, 16), Fraction(1, 8))
        # k - n* = 9 > k* = 8: a valid sketch whose rate is negative
        rb = rate_bounds(8, 24, 15, Fraction(1, 16), Fraction(1, 8))
        assert rb.rate == Fraction(-1, 8)
        assert rb.regime == "below-gv"


class TestFixedWeight:
    @pytest.mark.parametrize("k_star, eps, weight", [
        (7, Fraction(1, 7), 1), (7, Fraction(2, 7), 2), (16, Fraction(1, 8), 2),
        (15, Fraction(1, 4), 3), (8, 0, 0), (8, Fraction(1, 2), 4),
        (7, "1/3", 2), (9, 0.25, 2)])
    def test_floor(self, k_star, eps, weight):
        assert fixed_weight(k_star, eps) == weight

    @pytest.mark.parametrize("eps", [Fraction(-1, 8), Fraction(3, 4), 1])
    def test_range(self, eps):
        with pytest.raises(ParameterError, match=r"outside \[0, 1/2\]"):
            fixed_weight(8, eps)


class TestResidualEntropy:
    @pytest.mark.parametrize("n, holds", [(6000, False), (6200, True)])
    def test_floor_below_float_range(self, n, holds):
        # k - n* = 1100: 2^-1100 and exp(-2n/16) both underflow to 0, so the
        # floor is decided on 2n eps^2 log2(e) >= k - n* (1082 and 1118 bits)
        chk = error_floor_check(n, Fraction(1, 4), 1102, 2)
        assert (chk.lhs, chk.rhs, chk.holds) == (0.0, 0.0, holds)
        assert (residual_entropy_bound(n, Fraction(1, 4)) >= 1100) == holds

    def test_canonical_config(self):
        bits = residual_entropy_bound(2 * 7 * 7, Fraction(1, 14))
        assert bits == math.floor(math.log2(math.e)) == 1
        assert error_floor_check(2 * 7 * 7, Fraction(1, 14), 16, 15).holds

    def test_zero_eps(self):
        assert residual_entropy_bound(512, 0) == 0
        assert not error_floor_check(512, 0, 16, 15).holds

    def test_direct_arithmetic(self):
        bits = residual_entropy_bound(512, Fraction(1, 8))
        assert bits == math.floor(16 * math.log2(math.e)) == 23
        assert error_floor_check(512, Fraction(1, 8), 19, 15).holds


class TestFalseAcceptRate:
    def test_values(self):
        assert false_accept_rate(16, 15) == Fraction(1, 2)
        assert false_accept_rate(18, 15) == Fraction(1, 8)
        assert false_accept_rate(25, 15) == Fraction(1, 1024)

    def test_requires_positive_pad(self):
        with pytest.raises(ValueError):
            false_accept_rate(15, 15)


class TestBinomLowerTail:
    PS = (0.01, 0.3, 0.5, 0.875, 0.9375, 1 - 2.0 ** -20, 1 - 2.0 ** -36)

    @staticmethod
    def _ks(n, p):
        """The edges, the mean and its neighbours, and three sd below it."""
        mean = int(n * p)
        low = mean - int(3 * math.sqrt(n * p * (1 - p)))
        return sorted({k for k in (0, 1, low, mean - 1, mean, mean + 1, n - 1, n)
                       if 0 <= k <= n})

    @pytest.mark.parametrize("n", [1, 2, 5, 40, 100, 1000, 20_000])
    def test_matches_scipy(self, n):
        for p in self.PS:
            for k in self._ks(n, p):
                got = binom_lower_tail(k, n, p)
                want = binomtest(k, n, p, alternative="less").pvalue
                if want < 1e-300:
                    # scipy underflows to 0 where the log-space sum is subnormal
                    assert got < 1e-300, (k, n, p)
                else:
                    assert f"{got:.6g}" == f"{want:.6g}", (k, n, p)

    def test_edges(self):
        assert binom_lower_tail(-1, 10, 0.5) == 0.0
        assert binom_lower_tail(10, 10, 0.5) == 1.0
        assert binom_lower_tail(12, 10, 0.5) == 1.0
        assert binom_lower_tail(0, 0, 0.5) == 1.0
        assert binom_lower_tail(3, 10, 0.0) == 1.0
        assert binom_lower_tail(3, 10, 1.0) == 0.0
        assert binom_lower_tail(9, 10, 1.0) == 0.0
        assert math.isclose(binom_lower_tail(0, 10, 0.5), 2.0 ** -10,
                            rel_tol=1e-12)

    @pytest.mark.parametrize("n, p", [(-1, 0.5), (10, -0.1), (10, 1.5)])
    def test_domain(self, n, p):
        with pytest.raises(ValueError):
            binom_lower_tail(0, n, p)


class TestMinLengthForErrorFloor:
    def test_matches_direct_search(self):
        for delta in (1, 3, 6):
            for denom in (4, 8, 14, 16):
                eps = Fraction(1, denom)
                got = min_length_for_error_floor(15 + delta, 15, eps)
                assert got == min_n_direct_search(delta, float(eps))

    def test_floor_holds_at_result(self):
        n = min_length_for_error_floor(16, 15, Fraction(1, 14))
        assert n == 68
        assert error_floor_check(n, Fraction(1, 14), 16, 15).holds
        assert not error_floor_check(n - 1, Fraction(1, 14), 16, 15).holds


class TestIterationBudget:
    """The budget is efficiency_bound_check at eps_rec = 2 eps_ss."""

    def test_bch_exact_regime(self):
        # delta = 5 with a full-length n = 31 outer: 2^5 == 32 == n+1
        chk = efficiency_bound_check(8, 2 * Fraction(1, 16), 16, 11)
        assert chk.holds and 2 ** int(chk.rhs) == 31 + 1

    def test_non_bch_regime_flagged(self):
        chk = efficiency_bound_check(8, 2 * Fraction(1, 16), 16, 11)
        assert chk.holds and 2 ** int(chk.rhs) != 40 + 1

    @pytest.mark.parametrize("delta, holds", [(1099, False), (1100, True)])
    def test_bound_beyond_float_range(self, delta, holds):
        # 2^(k* h2(1/2)) = 2^1100 overflows; the exponents 1100 and k - n*
        # decide the check exactly
        chk = efficiency_bound_check(1100, 2 * Fraction(1, 4), 1100 + delta, 1100)
        assert (chk.lhs, chk.rhs) == (1100.0, float(delta))
        assert chk.holds == holds

    def test_min_sketch_len(self):
        m, n = min_sketch_len_for_budget(8, Fraction(1, 16))
        assert (m, n) == (5, 31)
        for k_star, expect_n in ((8, 127), (10, 511), (12, 1023)):
            m, n = min_sketch_len_for_budget(k_star, Fraction(1, 8))
            assert n == expect_n
            assert n + 1 >= 2 ** (k_star * binary_entropy(Fraction(1, 4)))
