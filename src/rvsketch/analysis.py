"""Closed-form bound calculators: binary entropy, concentration bounds,
enumeration support sizes, tolerance thresholds, residual min-entropy and
the rate bounds they bracket.

Every eps and xi argument is taken as an exact Fraction by _rational and
every integer argument as an int by _integer, so anything that is not a
finite rational or an integer raises ParameterError, as does every other
domain error here. Reported exp/log values are floats; the error-floor
decisions are taken in decimal from the exact eps^2 and ln 2, with no float
path and no hidden slack.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from decimal import MAX_EMAX, ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from typing import Tuple, Union

from .bitcore import CapacityError, ParameterError, _integer

RationalLike = Union[Fraction, int, str, float]


def _rational(name: str, value: RationalLike) -> Fraction:
    """value as an exact Fraction, or ParameterError if not a finite rational."""
    try:
        return value if isinstance(value, Fraction) else Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ParameterError(
            f"{name} = {value!r} is not a finite rational") from None


def binary_entropy(x: RationalLike) -> float:
    """-x log2 x - (1-x) log2 (1-x), with the 0 log 0 = 0 convention."""
    x = _rational("x", x)
    if not 0 <= x <= 1:
        raise ParameterError(f"binary entropy needs x in [0, 1], got {x}")
    x = float(x)
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _entropy_bits(k_star: int, eps: Fraction) -> float:
    """k* h2(eps) in floats, or CapacityError once k* passes float range."""
    try:
        return k_star * binary_entropy(eps)
    except OverflowError:
        raise CapacityError("k* h2(eps) is past float range") from None


# exp(-x) is 0.0 in floats for every x above this
_EXP_UNDERFLOW = 746


def hoeffding_bound(n: int, eps: RationalLike) -> float:
    """Tail mass exp(-2 n eps^2) for a mean deviation of eps over n draws.

    A reported value, not a decision: it is taken in floats wherever n and
    eps fit a float, and otherwise from the exact exponent 2 n eps^2, 0.0
    where exp underflows. error_floor_check decides by exponents instead.
    """
    n, eps = _hoeffding_args(n, eps, "eps")
    try:
        e = float(eps)
        return math.exp(-2.0 * n * e * e)
    except OverflowError:   # n or eps is past float range
        exponent = 2 * n * eps ** 2
        return 0.0 if exponent > _EXP_UNDERFLOW else math.exp(-float(exponent))


def _hoeffding_args(n: int, eps: RationalLike, name: str) -> Tuple[int, Fraction]:
    """(n, eps) checked as hoeffding_bound takes them, eps named name."""
    n = _integer("n", n)
    if n < 1:
        raise ParameterError("n must be positive")
    eps = _rational(name, eps)
    if eps < 0:
        raise ParameterError(f"{name} must be non-negative")
    return n, eps


def _float_or_inf(value: int) -> float:
    """value as a float, or inf where it passes float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _pow2(exponent: float) -> float:
    """2^exponent, or inf where that overflows a float."""
    return 2.0 ** exponent if exponent < 1024 else math.inf


def fixed_weight(k_star: int, eps: RationalLike) -> int:
    """floor(k* eps), the error weight at rate eps in [0, 1/2].

    eps is taken as an exact rational (ParameterError if it is not a
    finite one); the range check and the floor are integer arithmetic on
    its numerator and denominator.
    """
    eps = _rational("eps", eps)
    num, den = eps.numerator, eps.denominator
    if not 0 <= 2 * num <= den:
        raise ParameterError(f"eps = {eps} outside [0, 1/2]")
    return _integer("k_star", k_star, 0) * num // den


# math.comb refuses a weight past this, the 2^63 - 1 of its C long long
_COMB_WEIGHT_MAX = (1 << 63) - 1
# C(k*, m) is built only while log2 of it is estimated at most this many
# bits. math.comb's time grows about as the square of the result's size
# at m = k*/2, its slowest case: on a 2-core x86_64 host it took 0.96 s
# at 250,000 bits and 3.8 s at this budget.
_COMB_BITS_BUDGET = 1 << 19


def _log2_comb(n: int, m: int) -> float:
    """log2 C(n, m) for 0 <= m <= n/2, in floats from math.lgamma.

    lgamma(n + 1) - lgamma(n - m + 1) loses about n ln n / 2^52 nats to
    cancellation, so from n = 2^40 on the falling factorial is taken as
    (n - (m - 1) // 2)^m instead. By the concavity of log that overstates
    it, by about m^3 / (24 n^2) nats: 1.4% of log2 C at m = n/2, far less
    for small m.
    """
    if n < 1 << 40:
        nats = math.lgamma(n + 1) - math.lgamma(n - m + 1)
    else:
        nats = m * math.log(n - (m - 1) // 2)
    return (nats - math.lgamma(m + 1)) / math.log(2)


def support_size(k_star: int, eps: RationalLike) -> Tuple[int, float]:
    """(exact, bound): C(k*, floor(k* eps)) and its 2^(k* h2(eps)) envelope,
    inf beyond float range. CapacityError where the weight passes 2^63,
    the limit of math.comb, where C(k*, m) is estimated past
    _COMB_BITS_BUDGET bits (2^19), or where k* passes float range;
    ParameterError for a negative k*."""
    eps, k_star = _rational("eps", eps), _integer("k_star", k_star)
    if k_star < 0:
        raise ParameterError(f"k* = {k_star} must be non-negative")
    weight = fixed_weight(k_star, eps)
    if weight > _COMB_WEIGHT_MAX:
        raise CapacityError(f"C(k*, m) for k* = {k_star} and weight "
                            f"m = {weight} is past the 2^63 weight limit")
    bits = _log2_comb(k_star, weight)
    if bits > _COMB_BITS_BUDGET:
        raise CapacityError(
            f"C(k*, m) at weight m = {weight} has about {bits:.1f} bits, "
            f"past the budget of {_COMB_BITS_BUDGET} bits")
    exact = math.comb(k_star, weight)
    bound = _pow2(_entropy_bits(k_star, eps))
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
    xi, eps_ss = _rational("xi", xi), _rational("eps_ss", eps_ss)
    k_star, n = _integer("k_star", k_star, 0), _integer("n", n, 0)
    if not 0 <= eps_ss <= xi <= Fraction(1, 2):
        raise ParameterError(
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
    lhs = _entropy_bits(_integer("k_star", k_star, 0), _rational("eps_rec", eps_rec))
    rhs = _integer("k", k, 0) - _integer("n_star", n_star, 0)
    return BoundCheck(lhs <= rhs, lhs, _float_or_inf(rhs))


def error_floor_check(n: int, eps_ss: RationalLike, k: int,
                      n_star: int) -> BoundCheck:
    """Is exp(-2 n eps_ss^2) at most the zero-prefix rate 2^-(k-n*)?

    The sides are compared by their base-2 exponents, 2 n eps^2 log2 e
    (_hoeffding_bits) against k-n*, which is exact at every size; lhs and
    rhs are reported as float values.
    """
    n, delta = _integer("n", n), _integer("k", k, 0) - _integer("n_star", n_star, 0)
    if delta < 1:
        raise ParameterError("need k > n*")
    eps = _rational("eps_ss", eps_ss)
    return BoundCheck(_hoeffding_bits(n, eps) >= delta,
                      hoeffding_bound(n, eps), math.ldexp(1.0, -delta))


def _hoeffding_bits(n: int, eps: Fraction) -> Decimal:
    """2 n eps^2 log2 e, the base-2 exponent of exp(-2 n eps^2), as a
    Decimal from the exact eps^2 = p^2/q^2 to 20 digits beyond its integer
    part, so it compares exactly with k-n* and floors to an int."""
    return _ln2_scaled(2 * n * eps.numerator ** 2, eps.denominator ** 2, -1)


def _ln2_scaled(num: int, den: int, power: int) -> Decimal:
    """num/den * (ln 2)^power, power 1 or -1, in decimal from the exact
    num/den, to 20 digits beyond the integer part of num/den."""
    with localcontext() as ctx:
        ctx.prec = (num // den).bit_length() // 3 + 20
        ctx.Emax = MAX_EMAX
        ln2 = Decimal(2).ln()
        return Decimal(num) * ln2 / den if power > 0 else Decimal(num) / (den * ln2)


def min_length_for_error_floor(k: int, n_star: int, eps_ss: RationalLike) -> int:
    """Smallest n with exp(-2 n eps_ss^2) <= 2^-(k-n*).

    Closed form ceil((k-n*) ln 2 / (2 eps^2)), taken in decimal from the
    exact eps^2 = p^2/q^2 and ln 2 to 20 digits beyond the result's; the
    direct-search equality is exercised by the test suite.
    """
    k, n_star = _integer("k", k, 0), _integer("n_star", n_star, 0)
    if k <= n_star:
        raise ParameterError("need k > n*")
    eps = _rational("eps_ss", eps_ss)
    if eps <= 0:
        raise ParameterError("eps_ss must be positive")
    p, q = eps.numerator, eps.denominator
    n = _ln2_scaled((k - n_star) * q * q, 2 * p * p, 1)
    return int(n.to_integral_value(rounding=ROUND_CEILING))


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
    k_star = _integer("k_star", k_star)
    delta = _integer("k", k, 0) - _integer("n_star", n_star, 0)
    if k_star < 1 or delta < 1:
        raise ParameterError(f"need k* >= 1 and k-n* >= 1, got {k_star}, {delta}")
    two_eps = 2 * _rational("eps_ss", eps_ss)
    if two_eps > 1:
        raise ParameterError("2*eps_ss exceeds 1")
    return RateBounds(
        rate=1 - Fraction(delta, k_star),
        shannon_ub=1.0 - binary_entropy(_rational("eps_rec", eps_rec)),
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
    return math.floor(_hoeffding_bits(*_hoeffding_args(n, eps_ss, "eps_ss")))


_POW2_DIGITS_MAX_EXPONENT = 10 ** 8   # 2^(10^8): 30,103,000 digits, about 3 s


def false_accept_rate(k: int, n_star: int) -> Fraction:
    """Zero-prefix acceptance rate 2^-(k-n*) for a decoy iteration, up to
    k-n* = _POW2_DIGITS_MAX_EXPONENT; CapacityError beyond it, where
    `rvsketch bounds` prints a power of two as 2^e."""
    k, n_star = _integer("k", k, 0), _integer("n_star", n_star, 0)
    if k <= n_star:
        raise ParameterError(f"need k > n*, got k = {k}, n* = {n_star}")
    if k - n_star > _POW2_DIGITS_MAX_EXPONENT:
        raise CapacityError("2^(k-n*) is past the 2^(10^8) exponent limit")
    return Fraction(1, 2 ** (k - n_star))


def binom_lower_tail(k: int, n: int, p: float) -> float:
    """P(X <= k), X ~ Bin(n, p): the correctness experiment's one-sided p-value.

    The terms C(n, i) p^i q^(n-i), i = 0..k, are summed in log space (lgamma
    for the binomial coefficient, log1p(-p) for log q) and scaled back from
    their largest term, so neither a tiny p^i nor a huge C(n, i) overflows.
    """
    k, n = _integer("k", k), _integer("n", n)
    if n < 0 or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
        raise ParameterError(f"need n >= 0 and p in [0, 1], got n={n}, p={p!r}")
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
    eps_ss = _rational("eps_ss", eps_ss)
    m_prime = math.ceil(_entropy_bits(_integer("k_star", k_star, 0), 2 * eps_ss))
    m_prime = max(m_prime, 1)
    return m_prime, 2 ** m_prime - 1
