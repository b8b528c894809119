"""Index-driven bit sampling and the distance laws it obeys.

A resilient vector is built by reading the input word at n public random
positions (sampling with replacement). Each output position collides for
two inputs with probability equal to their similarity, so the normalized
hamming distance survives the stretch in expectation. Integer arguments
are taken by _integer, and xi and eps by analysis's _rational: anything
else raises ParameterError, as do empty words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .analysis import RationalLike, _rational
from .bitcore import (BitString, DimensionError, ParameterError, SeededRng,
                      BitsLike, _bitstring, _integer, hamming_distance)

_CHUNK_TRIALS = 4096


@dataclass(frozen=True, eq=False)
class IndexVector:
    """Public random positions N, 1-based values in [1, source_len]; equal by value."""

    indices: np.ndarray
    source_len: int

    def __post_init__(self):
        raw = np.asarray(self.indices)
        if raw.ndim != 1 or raw.size == 0:
            raise ParameterError("index vector must be a non-empty 1-d sequence")
        if _integer("source_len", self.source_len) < 1:
            raise ParameterError("source_len must be positive")
        # checked before the uint32 cast, which would wrap or truncate
        if (raw.dtype.kind not in "biuf" or raw.min() < 1
                or raw.max() > self.source_len
                or (raw.dtype.kind == "f" and (raw % 1).any())):
            raise ParameterError(
                f"indices must be integers in [1, {self.source_len}]")
        arr = np.array(raw, dtype=np.uint32)   # a copy: raw may be the caller's
        arr.flags.writeable = False
        object.__setattr__(self, "indices", arr)

    @classmethod
    def _wrap(cls, indices: np.ndarray, source_len: int) -> "IndexVector":
        # Internal fast path: indices must already be a fresh 1-d uint32
        # array of values in [1, source_len], with source_len >= 1.
        obj = cls.__new__(cls)
        indices.flags.writeable = False
        object.__setattr__(obj, "indices", indices)
        object.__setattr__(obj, "source_len", source_len)
        return obj

    @property
    def length(self) -> int:
        return self.indices.size

    def __len__(self) -> int:
        return self.indices.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexVector):
            return NotImplemented
        return (self.source_len == other.source_len
                and np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:
        return hash((self.source_len, self.indices.tobytes()))


def gen_index_vector(k_star: int, n: int, rng: SeededRng) -> IndexVector:
    """n i.i.d. uniform draws from [1, k_star]; ParameterError unless k_star
    and n are positive integers, DimensionError if k_star passes the
    uint32 draw's 2^32 - 1."""
    k_star = _integer("k_star", k_star, 1, 2 ** 32 - 1)
    n = _integer("n", n, 1)
    # fresh in-range uint32 draws: nothing for the constructor to check
    draws = rng.integers(1, k_star + 1, size=n, dtype=np.uint32)
    return IndexVector._wrap(draws, k_star)


def sample_bits(w: BitsLike, N: IndexVector) -> BitString:
    """Resilient vector: output position i holds bit N(i) of w.

    Deterministic and GF(2)-linear in w for fixed N. w may be anything
    BitString takes.
    """
    w = _bitstring(w)
    if len(w) != N.source_len:
        raise DimensionError(
            f"word length {len(w)} != index source length {N.source_len}")
    return BitString._wrap(w.bits[N.indices - 1])


def similarity(w: BitString, w_prime: BitString) -> Fraction:
    """Collision probability of one sampled position: 1 - d/k*."""
    if not len(w):
        raise ParameterError("k_star must be positive")
    return 1 - Fraction(hamming_distance(w, w_prime), len(w))


def expected_rv_distance(w: BitString, w_prime: BitString, n: int) -> Fraction:
    """Exact expectation of the RV distance under uniform index draws: n*d/k*."""
    if _integer("n", n) < 1:
        raise ParameterError("n must be positive")
    return n * (1 - similarity(w, w_prime))


def rv_distance_samples(w: BitsLike, w_prime: BitsLike, n: int,
                        trials: int, rng: SeededRng) -> np.ndarray:
    """RV distances for `trials` fresh index vectors, as an int64 array.

    Each sampled position differs between the two resilient vectors iff the
    drawn index lands in the support of w xor w', so only that support is
    consulted. The words may be anything BitString takes.
    """
    w = _bitstring(w)
    diff = (w ^ _bitstring(w_prime)).bits   # DimensionError unless the lengths agree
    k_star = len(w)
    if k_star < 1:
        raise ParameterError("k_star must be positive")
    n, trials = _integer("n", n), _integer("trials", trials)
    if n < 1 or trials < 1:
        raise ParameterError("n and trials must be positive")
    out = np.empty(trials, dtype=np.int64)
    done = 0
    while done < trials:
        m = min(_CHUNK_TRIALS, trials - done)
        draws = rng.integers(0, k_star, size=(m, n), dtype=np.uint32)
        out[done:done + m] = diff[draws].sum(axis=1, dtype=np.int64)
        done += m
    return out


def empirical_rv_distance(w: BitsLike, w_prime: BitsLike, n: int,
                          trials: int, rng: SeededRng) -> Tuple[float, float]:
    """Sample mean and stddev of the RV distance over fresh index vectors."""
    samples = rv_distance_samples(w, w_prime, n, trials, rng)
    mean = float(samples.mean())
    std = float(samples.std(ddof=1)) if trials > 1 else 0.0
    return mean, std


@dataclass(frozen=True)
class ExceedanceResult:
    """Monte-Carlo tail frequencies against the analytic exp(-2n eps^2) bound."""

    similar_given_far: float    # P(||delta|| <= n(xi-eps)) at input rate xi+eps
    distant_given_near: float   # P(||delta|| >= n(xi+eps)) at input rate xi-eps
    bound: float
    trials: int


def exceedance_frequencies(k_star: int, n: int, xi: RationalLike,
                           eps: RationalLike, trials: int,
                           rng: SeededRng) -> ExceedanceResult:
    """Estimate both concentration tails at the boundary input rates.

    The far pair sits at normalized distance xi+eps and we count RV
    distances at or below n(xi-eps); the near pair sits at xi-eps and we
    count RV distances at or above n(xi+eps). Both rates are bounded by
    exp(-2 n eps^2). Requires (xi +- eps) * k_star to be integers, and
    k_star, n and trials to be integers.
    """
    k_star, n = _integer("k_star", k_star), _integer("n", n)
    trials = _integer("trials", trials)
    xi, eps = _rational("xi", xi), _rational("eps", eps)
    if not 0 <= eps <= xi:
        raise ParameterError("need 0 <= eps <= xi")
    d_far = (xi + eps) * k_star
    d_near = (xi - eps) * k_star
    if d_far.denominator != 1 or d_near.denominator != 1:
        raise ParameterError("(xi +- eps) * k_star must be integers")
    d_far, d_near = int(d_far), int(d_near)
    if d_far > k_star:
        raise ParameterError("far distance exceeds k_star")

    w, position = BitString.zeros(k_star), np.arange(k_star)
    lo = float(n * (xi - eps))
    hi = float(n * (xi + eps))
    far_samples = rv_distance_samples(w, BitString(position < d_far), n, trials, rng)
    near_samples = rv_distance_samples(w, BitString(position < d_near), n, trials, rng)
    return ExceedanceResult(
        similar_given_far=float(np.mean(far_samples <= lo)),
        distant_given_near=float(np.mean(near_samples >= hi)),
        bound=math.exp(-2.0 * n * float(eps) ** 2),
        trials=trials,
    )
