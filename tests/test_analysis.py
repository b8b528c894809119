import inspect
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import binomtest

import numpy as np
from oracles import min_n_direct_search
from rvsketch import (CapacityError, ParameterError, analysis,
                      binary_entropy, binom_lower_tail, efficiency_bound_check,
                      error_floor_check, false_accept_rate, fixed_weight,
                      hoeffding_bound, min_length_for_error_floor,
                      min_sketch_len_for_budget, rate_bounds,
                      param_violations, residual_entropy_bound,
                      support_size, thresholds)


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

    def test_n_past_float_range(self):
        # 2 n eps^2 is taken exactly once n no longer fits a float
        big = 10 ** 200
        assert math.isclose(hoeffding_bound(big * big, Fraction(1, 2 * big)),
                            math.exp(-0.5), rel_tol=1e-15)
        assert math.isclose(hoeffding_bound(big * big, Fraction(1, 10 ** 199)),
                            math.exp(-200), rel_tol=1e-13)
        assert hoeffding_bound(big * big, Fraction(1, 10 ** 198)) == 0.0
        assert hoeffding_bound(big * big, 0) == 1.0
        assert math.isclose(hoeffding_bound(big * big, 1e-200), math.exp(-2),
                            rel_tol=1e-13)

    @pytest.mark.parametrize("n, eps, message", [
        (0, Fraction(1, 8), "n must be positive"),
        (-(10 ** 400), Fraction(1, 8), "n must be positive"),
        (512, Fraction(-1, 8), "eps must be non-negative"),
        (10 ** 400, Fraction(-1, 8), "eps must be non-negative"),
    ])
    def test_rejects_with_parameter_error(self, n, eps, message):
        with pytest.raises(ParameterError, match=message):
            hoeffding_bound(n, eps)


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

    def test_weight_past_the_comb_limit(self):
        # floor(k* eps) = 5e29 passes 2^63, where math.comb cannot count
        k_star = 10 ** 30
        with pytest.raises(CapacityError, match=(
                rf"k\* = {k_star} and weight m = {k_star // 2} is past")):
            support_size(k_star, Fraction(1, 2))

    def test_past_the_bit_budget_raises_before_counting(self):
        # C(10^6, 5 * 10^5) has 999,990 bits; math.comb takes seconds on it
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=(
                r"weight m = 500000 has about 999989\.7 bits, "
                r"past the budget of 524288 bits")):
            support_size(10 ** 6, Fraction(1, 2))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("k_star", [-1, -5, -(10 ** 400)])
    def test_negative_k_star_is_a_parameter_error(self, k_star):
        with pytest.raises(ParameterError, match="must be non-negative"):
            support_size(k_star, Fraction(1, 4))

    @pytest.mark.parametrize("budget", [10, 100, 1000])
    def test_budget_edge(self, monkeypatch, budget):
        # the largest k* at eps = 1/2 within a budget is counted, the next
        # one raises
        monkeypatch.setattr(analysis, "_COMB_BITS_BUDGET", budget)
        k_star = next(k for k in range(1, 4 * budget + 20)
                      if math.comb(k + 1, (k + 1) // 2) > 2 ** budget)
        assert support_size(k_star, Fraction(1, 2))[0] == \
            math.comb(k_star, k_star // 2)
        with pytest.raises(CapacityError, match="past the budget"):
            support_size(k_star + 1, Fraction(1, 2))

    @pytest.mark.parametrize("n, m", [
        (1, 0), (10, 3), (63, 31), (2000, 1000), (10 ** 5, 5 * 10 ** 4),
        (2 ** 40 - 1, 1000), (2 ** 40, 1000), (2 ** 40, 2 ** 12),
        (10 ** 15, 5000), (10 ** 20, 20000), (10 ** 400, 3)])
    def test_size_estimate_against_the_exact_count(self, n, m):
        exact = math.log2(math.comb(n, m))
        assert analysis._log2_comb(n, m) == pytest.approx(exact, abs=0.05)

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

    @pytest.mark.parametrize("eps", ["nan", float("nan"), float("inf"), "abc",
                                     None], ids=repr)
    def test_not_a_finite_rational(self, eps):
        with pytest.raises(ParameterError, match="is not a finite rational"):
            fixed_weight(8, eps)

    @given(st.integers(0, 10 ** 6), st.fractions(0, Fraction(1, 2)))
    def test_exact_floor(self, k_star, eps):
        assert fixed_weight(k_star, eps) == math.floor(k_star * eps)


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


class TestBeyondFloatRange:
    """n and k-n* past float range: the checks decide exactly, and report
    values as floats, inf where a value passes float range."""

    def test_small_exponent(self):
        big = 10 ** 200
        chk = error_floor_check(big * big, Fraction(1, 2 * big), big * big, big)
        assert not chk.holds and chk.rhs == 0.0
        assert math.isclose(chk.lhs, math.exp(-0.5), rel_tol=1e-15)
        assert residual_entropy_bound(big * big, Fraction(1, 2 * big)) == 0

    @pytest.mark.parametrize("delta, holds", [(10 ** 100, True),
                                              (3 * 10 ** 100, False)])
    def test_large_exponent(self, delta, holds):
        # 2 n eps^2 = 2e100, so 2 n eps^2 log2 e is about 2.885e100 bits
        n, eps = 10 ** 400, Fraction(1, 10 ** 150)
        chk = error_floor_check(n, eps, delta + 7, 7)
        assert (chk.lhs, chk.rhs, chk.holds) == (0.0, 0.0, holds)
        with mpmath.workdps(150):
            want = int(mpmath.floor(2 * mpmath.mpf(10) ** 100 / mpmath.log(2)))
        assert residual_entropy_bound(n, eps) == want

    def test_efficiency_rhs(self):
        chk = efficiency_bound_check(7, Fraction(1, 7), 10 ** 400, 15)
        assert chk.holds and chk.rhs == math.inf

    @pytest.mark.parametrize("call", [
        lambda big: support_size(big, Fraction(1, big)),
        lambda big: efficiency_bound_check(big, Fraction(1, big), big + 1, big),
        lambda big: min_sketch_len_for_budget(big, Fraction(1, 2 * big)),
    ], ids=["support_size", "efficiency_bound_check", "min_sketch_len_for_budget"])
    def test_k_star_past_float_range(self, call):
        # k* h2(eps) takes k* as a float
        with pytest.raises(CapacityError, match=r"k\* h2\(eps\) is past float range"):
            call(10 ** 400)


class TestFalseAcceptRate:
    def test_values(self):
        assert false_accept_rate(16, 15) == Fraction(1, 2)
        assert false_accept_rate(18, 15) == Fraction(1, 8)
        assert false_accept_rate(25, 15) == Fraction(1, 1024)

    def test_requires_positive_pad(self):
        with pytest.raises(ParameterError, match=r"k = 15, n\* = 15"):
            false_accept_rate(15, 15)


    def test_exponent_past_the_limit(self):
        cap = analysis._POW2_DIGITS_MAX_EXPONENT
        assert false_accept_rate(cap + 5, 5) == Fraction(1, 1 << cap)
        for k, n_star in ((cap + 6, 5), (10 ** 201 + 1, 10 ** 200)):
            with pytest.raises(CapacityError, match="exponent limit"):
                false_accept_rate(k, n_star)


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


@st.composite
def _floor_inputs(draw):
    """(eps, k-n*) whose minimal n is at most 10^15."""
    q = draw(st.integers(2, 10 ** 7))
    p = draw(st.integers(1, min(64, q // 2)))
    return Fraction(p, q), draw(st.integers(1, 28))


class TestErrorFloorBoundary:
    """The floor decided exactly where a float exponent lost its last bit."""

    def test_pinned_boundary(self):
        # 2 n eps^2 log2 e is 281.99999999999997 bits at n = ...690 and just
        # above 282 at ...691; a float exponent rounds the first up to 282
        eps, k, n_star = Fraction(1, 410390), 205477, 205195
        assert min_length_for_error_floor(k, n_star, eps) == 16460313907691
        assert not error_floor_check(16460313907690, eps, k, n_star).holds
        assert error_floor_check(16460313907691, eps, k, n_star).holds
        assert residual_entropy_bound(16460313907690, eps) == 281
        assert residual_entropy_bound(16460313907691, eps) == 282

    @given(_floor_inputs())
    def test_against_mpmath(self, inputs):
        eps, delta = inputs
        with mpmath.workdps(50):
            ln2 = mpmath.log(2)
            eps2 = mpmath.mpf(eps.numerator) ** 2 / eps.denominator ** 2
            want = int(mpmath.ceil(delta * ln2 / (2 * eps2)))
            bits = [int(mpmath.floor(2 * n * eps2 / ln2))
                    for n in (want - 1, want)]
        assert want <= 10 ** 15
        assert min_length_for_error_floor(15 + delta, 15, eps) == want
        assert error_floor_check(want, eps, 15 + delta, 15).holds
        assert bits[1] >= delta
        assert residual_entropy_bound(want, eps) == bits[1]
        if want > 1:
            assert not error_floor_check(want - 1, eps, 15 + delta, 15).holds
            assert residual_entropy_bound(want - 1, eps) == bits[0] < delta


class TestMinLengthForErrorFloor:
    def test_matches_direct_search(self):
        for delta in (1, 3, 6):
            for denom in (4, 8, 14, 16):
                eps = Fraction(1, denom)
                got = min_length_for_error_floor(15 + delta, 15, eps)
                assert got == min_n_direct_search(delta, float(eps))

    @pytest.mark.parametrize("delta, eps", [
        (1, Fraction(1, 2 * 10 ** 200)),   # eps^2 underflows a float
        (3, Fraction(1, 10 ** 170)),
        (10 ** 50, Fraction(1, 10 ** 160)),
        (10 ** 310, Fraction(1, 4)),       # k - n* itself passes float range
    ], ids=["underflow", "underflow-delta-3", "subnormal", "huge-delta"])
    def test_beyond_float_range(self, delta, eps):
        # n is the least integer >= delta ln 2 / (2 eps^2); ln 2 to 1,000 digits
        # brackets that bound closely enough to settle its ceiling
        with mpmath.workdps(1000):
            ln2 = Fraction(mpmath.nstr(mpmath.log(2), 1000))
        slack = Fraction(1, 10 ** 990)
        need = delta / (2 * eps ** 2)
        n = min_length_for_error_floor(15 + delta, 15, eps)
        assert n - 1 < need * (ln2 - slack) and n >= need * (ln2 + slack)

    def test_floor_holds_at_result(self):
        n = min_length_for_error_floor(16, 15, Fraction(1, 14))
        assert n == 68
        assert error_floor_check(n, Fraction(1, 14), 16, 15).holds
        assert not error_floor_check(n - 1, Fraction(1, 14), 16, 15).holds


    @pytest.mark.parametrize("k", [15, 14])
    def test_needs_k_above_n_star(self, k):
        with pytest.raises(ParameterError, match=r"need k > n\*"):
            error_floor_check(31, Fraction(1, 14), k, 15)
        with pytest.raises(ParameterError, match=r"need k > n\*"):
            min_length_for_error_floor(k, 15, Fraction(1, 14))


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


# Every analysis export that takes an eps or xi, keyed by (function,
# parameter): a call that varies that one argument, and values outside its
# domain. 1/8 is inside every domain.
_EPS_CALLS = {
    ("binary_entropy", "x"): (
        binary_entropy, [Fraction(-1, 8), Fraction(9, 8)]),
    ("hoeffding_bound", "eps"): (
        lambda e: hoeffding_bound(512, e), [Fraction(-1, 8)]),
    ("fixed_weight", "eps"): (
        lambda e: fixed_weight(16, e), [Fraction(-1, 8), Fraction(5, 8)]),
    ("support_size", "eps"): (
        lambda e: support_size(16, e), [Fraction(-1, 8), Fraction(5, 8)]),
    ("thresholds", "xi"): (
        lambda xi: thresholds(16, 64, xi, Fraction(1, 16)),
        [Fraction(1, 32), Fraction(5, 8)]),
    ("thresholds", "eps_ss"): (
        lambda e: thresholds(16, 64, Fraction(1, 4), e),
        [Fraction(-1, 8), Fraction(3, 8)]),
    ("efficiency_bound_check", "eps_rec"): (
        lambda e: efficiency_bound_check(16, e, 19, 15),
        [Fraction(-1, 8), Fraction(9, 8)]),
    ("error_floor_check", "eps_ss"): (
        lambda e: error_floor_check(512, e, 19, 15), [Fraction(-1, 8)]),
    ("min_length_for_error_floor", "eps_ss"): (
        lambda e: min_length_for_error_floor(19, 15, e), [0, Fraction(-1, 8)]),
    ("rate_bounds", "eps_ss"): (
        lambda e: rate_bounds(16, 19, 15, e, Fraction(1, 4)),
        [Fraction(-1, 8), Fraction(5, 8)]),
    ("rate_bounds", "eps_rec"): (
        lambda e: rate_bounds(16, 19, 15, Fraction(1, 16), e),
        [Fraction(-1, 8), Fraction(9, 8)]),
    ("residual_entropy_bound", "eps_ss"): (
        lambda e: residual_entropy_bound(512, e), []),
    ("min_sketch_len_for_budget", "eps_ss"): (
        lambda e: min_sketch_len_for_budget(16, e),
        [Fraction(-1, 8), Fraction(5, 8)]),
}
_NOT_RATIONAL = [float("nan"), float("inf"), float("-inf"), 1j, None, "abc",
                 "nan", "1/0"]


class TestEpsInputContract:
    """Valid eps and xi return, one value the same in every form; anything
    else raises ParameterError and no other type."""

    def test_table_covers_every_eps_parameter(self):
        found = {(fn.__name__, param)
                 for name, fn in vars(analysis).items()
                 if inspect.isfunction(fn) and not name.startswith("_")
                 and fn.__module__ == analysis.__name__
                 for param in inspect.signature(fn).parameters
                 if param in ("x", "xi") or param.startswith("eps")}
        assert found == set(_EPS_CALLS)

    @pytest.mark.parametrize("key", list(_EPS_CALLS), ids=".".join)
    def test_valid_forms_agree(self, key):
        call, _ = _EPS_CALLS[key]
        assert call("1/8") == call(0.125) == call(Fraction(1, 8))

    @pytest.mark.parametrize("bad", _NOT_RATIONAL, ids=repr)
    @pytest.mark.parametrize("key", list(_EPS_CALLS), ids=".".join)
    def test_not_a_rational(self, key, bad):
        call, _ = _EPS_CALLS[key]
        with pytest.raises(ParameterError, match="is not a finite rational"):
            call(bad)

    @pytest.mark.parametrize("key, bad", [
        pytest.param(key, bad, id=f"{'.'.join(key)}-{bad}")
        for key, (_, outside) in _EPS_CALLS.items() for bad in outside])
    def test_outside_the_domain(self, key, bad):
        call, _ = _EPS_CALLS[key]
        with pytest.raises(ParameterError):
            call(bad)


# Every analysis export that takes an integer, keyed by (function,
# parameter): a call that varies that one argument, and its valid value.
_INT_CALLS = {
    ("hoeffding_bound", "n"): (lambda n: hoeffding_bound(n, Fraction(1, 8)), 512),
    ("fixed_weight", "k_star"): (lambda k: fixed_weight(k, Fraction(1, 4)), 16),
    ("support_size", "k_star"): (lambda k: support_size(k, Fraction(1, 4)), 16),
    ("thresholds", "k_star"): (
        lambda k: thresholds(k, 64, Fraction(1, 4), Fraction(1, 16)), 16),
    ("thresholds", "n"): (
        lambda n: thresholds(16, n, Fraction(1, 4), Fraction(1, 16)), 64),
    ("efficiency_bound_check", "k_star"): (
        lambda k: efficiency_bound_check(k, Fraction(1, 8), 19, 15), 16),
    ("efficiency_bound_check", "k"): (
        lambda k: efficiency_bound_check(16, Fraction(1, 8), k, 15), 19),
    ("efficiency_bound_check", "n_star"): (
        lambda n: efficiency_bound_check(16, Fraction(1, 8), 19, n), 15),
    ("error_floor_check", "n"): (
        lambda n: error_floor_check(n, Fraction(1, 8), 19, 15), 512),
    ("error_floor_check", "k"): (
        lambda k: error_floor_check(512, Fraction(1, 8), k, 15), 19),
    ("error_floor_check", "n_star"): (
        lambda n: error_floor_check(512, Fraction(1, 8), 19, n), 15),
    ("min_length_for_error_floor", "k"): (
        lambda k: min_length_for_error_floor(k, 15, Fraction(1, 8)), 19),
    ("min_length_for_error_floor", "n_star"): (
        lambda n: min_length_for_error_floor(19, n, Fraction(1, 8)), 15),
    ("rate_bounds", "k_star"): (
        lambda k: rate_bounds(k, 19, 15, Fraction(1, 16), Fraction(1, 4)), 16),
    ("rate_bounds", "k"): (
        lambda k: rate_bounds(16, k, 15, Fraction(1, 16), Fraction(1, 4)), 19),
    ("rate_bounds", "n_star"): (
        lambda n: rate_bounds(16, 19, n, Fraction(1, 16), Fraction(1, 4)), 15),
    ("residual_entropy_bound", "n"): (
        lambda n: residual_entropy_bound(n, Fraction(1, 8)), 512),
    ("false_accept_rate", "k"): (lambda k: false_accept_rate(k, 15), 19),
    ("false_accept_rate", "n_star"): (lambda n: false_accept_rate(19, n), 15),
    ("binom_lower_tail", "k"): (lambda k: binom_lower_tail(k, 16, 0.5), 4),
    ("binom_lower_tail", "n"): (lambda n: binom_lower_tail(4, n, 0.5), 16),
    ("min_sketch_len_for_budget", "k_star"): (
        lambda k: min_sketch_len_for_budget(k, Fraction(1, 8)), 16),
}
_NOT_INTEGER = [7.5, 16.0, Fraction(33, 2), Fraction(16), "16", None]


class TestIntegerInputContract:
    """Every integer argument is taken through _integer: an int in any
    integer type gives the same value, anything else raises ParameterError."""

    def test_table_covers_every_integer_parameter(self):
        found = {(fn.__name__, param)
                 for name, fn in vars(analysis).items()
                 if inspect.isfunction(fn) and not name.startswith("_")
                 and fn.__module__ == analysis.__name__
                 for param in inspect.signature(fn).parameters
                 if param not in ("x", "xi", "p") and not param.startswith("eps")}
        assert found == set(_INT_CALLS)

    @pytest.mark.parametrize("key", list(_INT_CALLS), ids=".".join)
    def test_integer_types_agree(self, key):
        call, value = _INT_CALLS[key]
        assert call(value) == call(np.int64(value))

    @pytest.mark.parametrize("bad", _NOT_INTEGER, ids=repr)
    @pytest.mark.parametrize("key", list(_INT_CALLS), ids=".".join)
    def test_not_an_integer(self, key, bad):
        call, _ = _INT_CALLS[key]
        with pytest.raises(ParameterError, match="is not an integer"):
            call(bad)

    def test_fixed_weight_of_a_half_integer(self):
        # floor(7.5 / 4) came back as the float 1.0
        with pytest.raises(ParameterError, match="^k_star 7.5 is not an integer"):
            fixed_weight(7.5, Fraction(1, 4))

    @pytest.mark.parametrize("dims, listed", [
        ((7.5, 15, 51, 63), ["k_star 7.5 is not an integer"]),
        ((7, 15.0, 51, 63), ["n_star 15.0 is not an integer"]),
        ((7, 15, "51", None), ["k '51' is not an integer",
                               "n None is not an integer"]),
        ((7, 15, 51, 63), []),
        ((np.int64(7), 15, 51, np.uint16(63)), []),
    ])
    def test_param_violations_list_a_non_integer_dimension(self, dims, listed):
        assert param_violations(*dims, Fraction(1, 14)) == listed

    def test_param_violations_still_list_a_bad_eps(self):
        assert param_violations(7.5, 15, 51, 63, "abc") == [
            "k_star 7.5 is not an integer", "eps_ss = 'abc' is not a finite rational"]


# The least value of each integer of _INT_CALLS that has one; every value
# below it raises ParameterError. binom_lower_tail's k has none: P(X <= k)
# is 0 for every k < 0.
_INT_LEAST = {
    ("hoeffding_bound", "n"): 1,
    ("fixed_weight", "k_star"): 0,
    ("support_size", "k_star"): 0,
    ("thresholds", "k_star"): 0,
    ("thresholds", "n"): 0,
    ("efficiency_bound_check", "k_star"): 0,
    ("efficiency_bound_check", "k"): 0,
    ("efficiency_bound_check", "n_star"): 0,
    ("error_floor_check", "n"): 1,
    ("error_floor_check", "k"): 0,
    ("error_floor_check", "n_star"): 0,
    ("min_length_for_error_floor", "k"): 0,
    ("min_length_for_error_floor", "n_star"): 0,
    ("rate_bounds", "k_star"): 1,
    ("rate_bounds", "k"): 0,
    ("rate_bounds", "n_star"): 0,
    ("residual_entropy_bound", "n"): 1,
    ("false_accept_rate", "k"): 0,
    ("false_accept_rate", "n_star"): 0,
    ("binom_lower_tail", "n"): 0,
    ("min_sketch_len_for_budget", "k_star"): 0,
}


class TestSignContract:
    """A count below its least value raises ParameterError; several were
    computed with the wrong sign instead: fixed_weight(-3, 1/4) was -1."""

    def test_table_covers_every_bounded_integer(self):
        assert set(_INT_LEAST) == set(_INT_CALLS) - {("binom_lower_tail", "k")}

    @pytest.mark.parametrize("key", list(_INT_LEAST), ids=".".join)
    def test_below_the_least_value(self, key):
        call, _ = _INT_CALLS[key]
        for bad in (_INT_LEAST[key] - 1, -5, -(10 ** 400)):
            with pytest.raises(ParameterError):
                call(bad)

    def test_residual_entropy_bound_checks_as_hoeffding_bound(self):
        for n, eps, message in [(0, Fraction(1, 8), "n must be positive"),
                                (-10, Fraction(1, 8), "n must be positive"),
                                (10, Fraction(-1, 8), "eps_ss must be non-negative")]:
            with pytest.raises(ParameterError, match=f"^{message}$"):
                residual_entropy_bound(n, eps)
        assert residual_entropy_bound(1, 0) == 0

    @pytest.mark.parametrize("p", ["0.5", None, 1j, b"1"], ids=repr)
    def test_binom_lower_tail_rejects_a_non_number_p(self, p):
        with pytest.raises(ParameterError, match="p in \\[0, 1\\]"):
            binom_lower_tail(2, 5, p)

    def test_binom_lower_tail_takes_any_real_p(self):
        assert binom_lower_tail(2, 4, Fraction(1, 2)) == binom_lower_tail(2, 4, 0.5)
        assert binom_lower_tail(2, 4, np.float64(0.5)) == binom_lower_tail(2, 4, 0.5)
