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

from .bitcore import ParameterError

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


def _pow2(exponent: float) -> float:
    """2^exponent, or inf where that overflows a float."""
    return 2.0 ** exponent if exponent < 1024 else math.inf


def fixed_weight(k_star: int, eps: RationalLike) -> int:
    """floor(k* eps), the error weight at rate eps in [0, 1/2]."""
    eps = Fraction(eps)
    if not 0 <= eps <= Fraction(1, 2):
        raise ParameterError(f"eps = {eps} outside [0, 1/2]")
    return int(k_star * eps)  # Fraction floor via int()


def support_size(k_star: int, eps: RationalLike) -> Tuple[int, float]:
    """(exact, bound): C(k*, floor(k* eps)) and its 2^(k* h2(eps)) envelope,
    inf beyond float range."""
    eps = Fraction(eps)
    weight = fixed_weight(k_star, eps)
    exact = math.comb(k_star, weight)
    bound = _pow2(k_star * binary_entropy(eps))
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
    """Does the enumeration entropy k* h2(eps_rec) fit within k - n*?

    At eps_rec = 2 eps_ss this is the iteration budget: 2^lhs candidates
    against 2^(k-n*) zero-prefix states, which equals n+1 exactly when the
    outer code is a full-length BCH code with k-n* check-symbol groups.
    """
    lhs = k_star * binary_entropy(eps_rec)
    rhs = k - n_star
    return BoundCheck(lhs <= rhs, lhs, float(rhs))


def error_floor_check(n: int, eps_ss: RationalLike, k: int,
                      n_star: int) -> BoundCheck:
    """Is exp(-2 n eps_ss^2) at most the zero-prefix rate 2^-(k-n*)?

    The sides are compared by their base-2 exponents, 2 n eps^2 log2 e
    against k-n*, which stays exact where 2^-(k-n*) underflows; lhs and
    rhs are reported as values.
    """
    delta = k - n_star
    if delta < 1:
        raise ValueError("need k > n*")
    return BoundCheck(_hoeffding_bits(n, eps_ss) >= delta,
                      hoeffding_bound(n, eps_ss), 2.0 ** -delta)


def _hoeffding_bits(n: int, eps_ss: RationalLike) -> float:
    """2 n eps^2 log2 e, the base-2 exponent of exp(-2 n eps^2)."""
    eps = float(eps_ss)
    return 2.0 * n * eps * eps * math.log2(math.e)


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
    """R = 1 - (k-n*)/k*, converse 1 - h2(eps_rec), achievability 1 - h2(2 eps_ss).

    R is negative when k-n* > k*: such a sketch is in the below-gv regime.
    """
    delta = k - n_star
    if k_star < 1 or delta < 1:
        raise ValueError(f"need k* >= 1 and k-n* >= 1, got {k_star}, {delta}")
    two_eps = 2 * Fraction(eps_ss)
    if two_eps > 1:
        raise ValueError("2*eps_ss exceeds 1")
    return RateBounds(
        rate=1 - Fraction(delta, k_star),
        shannon_ub=1.0 - binary_entropy(eps_rec),
        gv_lb=1.0 - binary_entropy(two_eps),
    )


def residual_entropy_bound(n: int, eps_ss: RationalLike) -> int:
    """floor(2 n eps^2 log2 e), the paper's claimed min-entropy floor of the
    masked RV family, in bits; it is >= k-n* whenever error_floor_check holds.

    A claim, not a guarantee: the exact H-infinity(W | ss, N) of a uniform
    secret, brute-forced for [15,7]/[31,16] at eps_ss = 1/7, is 0 bits
    where this floor claims 1, because every stage of make_sketch is
    GF(2)-linear.
    """
    return math.floor(_hoeffding_bits(n, eps_ss))


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


def min_sketch_len_for_budget(k_star: int, eps_ss: RationalLike) -> Tuple[int, int]:
    """(zero-pad width, sketch length) of the smallest budget-satisfying
    full-length-BCH configuration: m' = ceil(k* h2(2 eps_ss)), n = 2^m' - 1.

    The returned n grows exponentially in k* for any fixed eps_ss > 0,
    which is what makes the poly-in-n efficiency framing vacuous in k*.
    """
    m_prime = math.ceil(k_star * binary_entropy(2 * Fraction(eps_ss)))
    m_prime = max(m_prime, 1)
    return m_prime, 2 ** m_prime - 1
