"""Index-driven bit sampling and the distance laws it obeys.

A resilient vector is built by reading the input word at n public random
positions (sampling with replacement). Each output position collides for
two inputs with probability equal to their similarity, so the normalized
hamming distance survives the stretch in expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .bitcore import BitString, DimensionError, ParameterError, SeededRng

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
        if self.source_len < 1:
            raise ParameterError("source_len must be positive")
        # checked before the uint32 cast, which would wrap or truncate
        if (raw.dtype.kind not in "biuf" or raw.min() < 1
                or raw.max() > self.source_len
                or (raw.dtype.kind == "f" and (raw % 1).any())):
            raise ParameterError(
                f"indices must be integers in [1, {self.source_len}]")
        arr = np.ascontiguousarray(raw, dtype=np.uint32)
        arr.flags.writeable = False
        object.__setattr__(self, "indices", arr)

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

    def to_text(self) -> str:
        """Comma-separated 1-based integers."""
        return ",".join(str(int(i)) for i in self.indices)

    @classmethod
    def from_text(cls, text: str, source_len: int) -> "IndexVector":
        try:
            parts = [int(p) for p in text.strip().split(",")]
        except ValueError as exc:
            raise ParameterError(f"bad index vector text: {exc}") from exc
        return cls(np.array(parts), source_len)


def gen_index_vector(k_star: int, n: int, rng: SeededRng) -> IndexVector:
    """n i.i.d. uniform draws from [1, k_star]."""
    if k_star < 1 or n < 1:
        raise ParameterError("k_star and n must be positive")
    draws = rng.integers(1, k_star + 1, size=n, dtype=np.uint32)
    return IndexVector(draws, k_star)


def sample_bits(w: BitString, N: IndexVector) -> BitString:
    """Resilient vector: output position i holds bit N(i) of w.

    Deterministic and GF(2)-linear in w for fixed N.
    """
    if len(w) != N.source_len:
        raise DimensionError(
            f"word length {len(w)} != index source length {N.source_len}")
    out = w.bits[N.indices - 1]
    return BitString._wrap(np.ascontiguousarray(out, dtype=np.uint8))


def similarity(w: BitString, w_prime: BitString) -> Fraction:
    """Collision probability of one sampled position: 1 - d/k*."""
    if len(w) != len(w_prime):
        raise DimensionError(f"length mismatch: {len(w)} vs {len(w_prime)}")
    d = int(np.count_nonzero(w.bits ^ w_prime.bits))
    return 1 - Fraction(d, len(w))


def expected_rv_distance(w: BitString, w_prime: BitString, n: int) -> Fraction:
    """Exact expectation of the RV distance under uniform index draws: n*d/k*."""
    if n < 1:
        raise ParameterError("n must be positive")
    if len(w) != len(w_prime):
        raise DimensionError(f"length mismatch: {len(w)} vs {len(w_prime)}")
    d = int(np.count_nonzero(w.bits ^ w_prime.bits))
    return Fraction(n * d, len(w))


def rv_distance_samples(w: BitString, w_prime: BitString, n: int,
                        trials: int, rng: SeededRng) -> np.ndarray:
    """RV distances for `trials` fresh index vectors, as an int64 array.

    Each sampled position differs between the two resilient vectors iff the
    drawn index lands in the support of w xor w', so only that support is
    consulted.
    """
    if len(w) != len(w_prime):
        raise DimensionError(f"length mismatch: {len(w)} vs {len(w_prime)}")
    if n < 1 or trials < 1:
        raise ParameterError("n and trials must be positive")
    diff = (w.bits ^ w_prime.bits)
    k_star = len(w)
    out = np.empty(trials, dtype=np.int64)
    done = 0
    while done < trials:
        m = min(_CHUNK_TRIALS, trials - done)
        draws = rng.integers(0, k_star, size=(m, n), dtype=np.uint32)
        out[done:done + m] = diff[draws].sum(axis=1, dtype=np.int64)
        done += m
    return out


def empirical_rv_distance(w: BitString, w_prime: BitString, n: int,
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


def exceedance_frequencies(k_star: int, n: int, xi: Fraction, eps: Fraction,
                           trials: int, rng: SeededRng) -> ExceedanceResult:
    """Estimate both concentration tails at the boundary input rates.

    The far pair sits at normalized distance xi+eps and we count RV
    distances at or below n(xi-eps); the near pair sits at xi-eps and we
    count RV distances at or above n(xi+eps). Both rates are bounded by
    exp(-2 n eps^2). Requires (xi +- eps) * k_star to be integers.
    """
    xi, eps = Fraction(xi), Fraction(eps)
    if not 0 <= eps <= xi:
        raise ParameterError("need 0 <= eps <= xi")
    d_far = (xi + eps) * k_star
    d_near = (xi - eps) * k_star
    if d_far.denominator != 1 or d_near.denominator != 1:
        raise ParameterError("(xi +- eps) * k_star must be integers")
    d_far, d_near = int(d_far), int(d_near)
    if d_far > k_star:
        raise ParameterError("far distance exceeds k_star")

    w = BitString.zeros(k_star)
    far = np.zeros(k_star, dtype=np.uint8)
    far[:d_far] = 1
    near = np.zeros(k_star, dtype=np.uint8)
    near[:d_near] = 1

    lo = float(n * (xi - eps))
    hi = float(n * (xi + eps))
    far_samples = rv_distance_samples(w, BitString(far), n, trials, rng)
    near_samples = rv_distance_samples(w, BitString(near), n, trials, rng)
    return ExceedanceResult(
        similar_given_far=float(np.mean(far_samples <= lo)),
        distant_given_near=float(np.mean(near_samples >= hi)),
        bound=math.exp(-2.0 * n * float(eps) ** 2),
        trials=trials,
    )
