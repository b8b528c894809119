"""Closed-form bound calculators: binary entropy, concentration bounds,
enumeration support sizes, tolerance thresholds, residual min-entropy and
the rate bounds they bracket.

Rationals stay exact (fractions.Fraction); only exp/log evaluations use
floats. Bound comparisons are carried out at full float precision with no
hidden slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

RationalLike = Union[Fraction, int, str, float]


def binary_entropy(x: RationalLike) -> float:
    """-x log2 x - (1-x) log2 (1-x), with the 0 log 0 = 0 convention."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs x in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


h2 = binary_entropy


def hoeffding_bound(n: int, eps: RationalLike) -> float:
    """Tail mass exp(-2 n eps^2) for a mean deviation of eps over n draws."""
    if n < 1:
        raise ValueError("n must be positive")
    eps = float(eps)
    if eps < 0:
        raise ValueError("eps must be non-negative")
    return math.exp(-2.0 * n * eps * eps)


def support_size(k_star: int, eps: RationalLike) -> Tuple[int, float]:
    """(exact, bound): C(k*, floor(k* eps)) and its 2^(k* h2(eps)) envelope."""
    eps = Fraction(eps)
    if not 0 <= eps <= Fraction(1, 2):
        raise ValueError(f"eps = {eps} outside [0, 1/2]")
    weight = int(k_star * eps)
    exact = math.comb(k_star, weight)
    bound = 2.0 ** (k_star * binary_entropy(eps))
    if (k_star * eps).denominator == 1:
        assert exact <= bound, "entropy envelope violated at an exact weight"
    return exact, bound


@dataclass(frozen=True)
class Thresholds:
    """Tolerance distances on both metric spaces for a given error rate xi.

    xi carries two readings that the source material never reconciles: the
    outer-code tolerance rate t/n, and the observed input error rate
    ||w_e xor w'|| / k*. Quantities here are computed from whichever xi the
    caller supplies. t_max/t_min live on the length-n space, the primed
    pair on the length-k* space, and t_plus/t_minus are their floors.
    """

    xi: Fraction
    t_max: Fraction
    t_min: Fraction
    t_plus_prime: Fraction
    t_minus_prime: Fraction
    t_plus: int
    t_minus: int


def thresholds(k_star: int, n: int, xi: RationalLike,
               eps_ss: RationalLike) -> Thresholds:
    """t_max = n(xi-eps), t_min = n(xi+eps) and the k*-space analogues."""
    xi, eps_ss = Fraction(xi), Fraction(eps_ss)
    if not 0 <= eps_ss <= xi <= Fraction(1, 2):
        raise ValueError(
            f"need 0 <= eps_ss <= xi <= 1/2, got eps_ss={eps_ss}, xi={xi}")
    t_plus_prime = (xi + eps_ss) * k_star
    t_minus_prime = (xi - eps_ss) * k_star
    return Thresholds(
        xi=xi,
        t_max=n * (xi - eps_ss),
        t_min=n * (xi + eps_ss),
        t_plus_prime=t_plus_prime,
        t_minus_prime=t_minus_prime,
        t_plus=int(t_plus_prime),
        t_minus=int(t_minus_prime),
    )


@dataclass(frozen=True)
class BoundCheck:
    holds: bool
    lhs: float
    rhs: float


def efficiency_bound_check(k_star: int, eps_rec: RationalLike,
                           k: int, n_star: int) -> BoundCheck:
    """Does the enumeration entropy k* h2(eps_rec) fit within k - n*?"""
    lhs = k_star * binary_entropy(eps_rec)
    rhs = k - n_star
    return BoundCheck(lhs <= rhs, lhs, float(rhs))


def error_floor_check(n: int, eps_ss: RationalLike, k: int,
                      n_star: int) -> BoundCheck:
    """Is exp(-2 n eps_ss^2) at most the zero-prefix rate 2^-(k-n*)?"""
    if k <= n_star:
        raise ValueError("need k > n*")
    lhs = hoeffding_bound(n, eps_ss)
    rhs = 2.0 ** (-(k - n_star))
    return BoundCheck(lhs <= rhs, lhs, rhs)


def min_length_for_error_floor(k: int, n_star: int, eps_ss: RationalLike) -> int:
    """Smallest n with exp(-2 n eps_ss^2) <= 2^-(k-n*).

    Closed form ceil((k-n*) ln 2 / (2 eps^2)); the direct-search equality
    is exercised by the test suite.
    """
    if k <= n_star:
        raise ValueError("need k > n*")
    eps = float(eps_ss)
    if eps <= 0:
        raise ValueError("eps_ss must be positive")
    return math.ceil((k - n_star) * math.log(2.0) / (2.0 * eps * eps))


@dataclass(frozen=True)
class RateBounds:
    """Achieved rate R = 1 - (k-n*)/k* against its converse and achievability."""

    rate: Fraction
    shannon_ub: float
    gv_lb: float

    @property
    def meets_shannon(self) -> bool:
        return float(self.rate) <= self.shannon_ub

    @property
    def meets_gv(self) -> bool:
        return float(self.rate) >= self.gv_lb

    @property
    def regime(self) -> str:
        if self.meets_shannon and self.meets_gv:
            return "within-bounds"
        if not self.meets_shannon:
            return "exceeds-shannon"
        return "below-gv"


def rate_bounds(k_star: int, k: int, n_star: int, eps_ss: RationalLike,
                eps_rec: RationalLike) -> RateBounds:
    """R = 1 - (k-n*)/k*, converse 1 - h2(eps_rec), achievability 1 - h2(2 eps_ss)."""
    delta = k - n_star
    if not 1 <= delta <= k_star:
        raise ValueError(f"need 1 <= k-n* <= k*, got {delta}")
    two_eps = 2 * Fraction(eps_ss)
    if two_eps > 1:
        raise ValueError("2*eps_ss exceeds 1")
    return RateBounds(
        rate=1 - Fraction(delta, k_star),
        shannon_ub=1.0 - binary_entropy(eps_rec),
        gv_lb=1.0 - binary_entropy(two_eps),
    )


@dataclass(frozen=True)
class EntropyFloor:
    """Conditioned min-entropy floor of the masked RV family, in bits."""

    bits: int
    floor_applies: bool  # the error-floor predicate held, so bits >= k-n*


def residual_entropy_bound(n: int, eps_ss: RationalLike, k: int,
                           n_star: int) -> EntropyFloor:
    """floor(2 n eps^2 log2 e); guaranteed >= k-n* when the error floor holds."""
    eps = float(eps_ss)
    bits = math.floor(2.0 * n * eps * eps * math.log2(math.e))
    check = error_floor_check(n, eps_ss, k, n_star)
    if check.holds:
        assert bits >= k - n_star, "entropy floor fell below the zero-pad width"
    return EntropyFloor(bits=bits, floor_applies=check.holds)


def false_accept_rate(k: int, n_star: int) -> Fraction:
    """Zero-prefix acceptance rate 2^-(k-n*) for a decoy iteration."""
    if k <= n_star:
        raise ValueError("need k > n*")
    return Fraction(1, 2 ** (k - n_star))


def binom_lower_tail(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Bin(n, p): the one-sided binomial test's p-value.

    The terms C(n, i) p^i q^(n-i), i = 0..k, are summed in log space (lgamma
    for the binomial coefficient, log1p(-p) for log q) and scaled back from
    their largest term, so neither a tiny p^i nor a huge C(n, i) overflows.
    """
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError(f"need n >= 0 and p in [0, 1], got n={n}, p={p}")
    if k < 0:
        return 0.0
    if k >= n or p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n_fact = math.lgamma(n + 1)
    terms = [log_n_fact - math.lgamma(i + 1) - math.lgamma(n - i + 1)
             + i * log_p + (n - i) * log_q for i in range(k + 1)]
    top = max(terms)
    total = math.exp(top) * math.fsum(math.exp(t - top) for t in terms)
    return min(total, 1.0)


@dataclass(frozen=True)
class IterationBudget:
    """Enumeration size versus zero-prefix states versus sketch size."""

    holds: bool              # 2^(k* h2(2 eps_ss)) <= 2^(k-n*)
    support_bound: float     # 2^(k* h2(2 eps_ss))
    prefix_states: int       # 2^(k-n*)
    sketch_plus_one: int     # n + 1
    bch_exact: bool          # 2^(k-n*) == n+1, the full-length BCH outer regime


def iteration_budget_check(k_star: int, eps_ss: RationalLike, k: int,
                           n_star: int, n: int) -> IterationBudget:
    """Check the enumeration budget against the zero-prefix state count.

    The identification of 2^(k-n*) with n+1 is exact only when the outer
    code is a full-length BCH code with k-n* check-symbol groups; for any
    other outer code it is a configuration choice, reported via bch_exact.
    """
    delta = k - n_star
    if delta < 1:
        raise ValueError("need k > n*")
    support_bound = 2.0 ** (k_star * binary_entropy(2 * Fraction(eps_ss)))
    prefix_states = 2 ** delta
    return IterationBudget(
        holds=support_bound <= prefix_states,
        support_bound=support_bound,
        prefix_states=prefix_states,
        sketch_plus_one=n + 1,
        bch_exact=(prefix_states == n + 1),
    )


def min_sketch_len_for_budget(k_star: int, eps_ss: RationalLike) -> Tuple[int, int]:
    """(zero-pad width, sketch length) of the smallest budget-satisfying
    full-length-BCH configuration: m' = ceil(k* h2(2 eps_ss)), n = 2^m' - 1.

    The returned n grows exponentially in k* for any fixed eps_ss > 0,
    which is what makes the poly-in-n efficiency framing vacuous in k*.
    """
    m_prime = math.ceil(k_star * binary_entropy(2 * Fraction(eps_ss)))
    m_prime = max(m_prime, 1)
    return m_prime, 2 ** m_prime - 1
