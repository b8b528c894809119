"""Enumeration-based recovery: trial error vectors, outer decode with the
zero-prefix acceptance test, then inner decode.

One scan serves both entry points: recover_fixed tries the single weight
floor(k* eps_rec), recover_sweep tries weights 0, 1, ..., max_weight in
turn. Within a weight, candidates are enumerated in lexicographic order of
their support sets, and the first acceptance ends the whole scan, so
identical inputs always yield identical reports. A zero-prefix pass whose
inner decode fails is counted as an observed false accept; a completed
recovery of a wrong secret cannot be detected here and is only measurable
by an experiment holding the ground truth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import RationalLike, as_fraction
from .bitcore import BitString, DimensionError, ParameterError
from .codes import LinearCode
from .sketch import Sketch


@dataclass
class RecoveryReport:
    """Outcome of one recovery run.

    wall_time_ms is informational and excluded from equality; everything
    else is a deterministic function of (sketch, w', weight schedule).
    """

    outcome: Optional[BitString]
    iterations_used: int
    accepted_weight: Optional[int]
    first_decode_failures: int
    false_accepts_observed: int
    wall_time_ms: float = field(default=0.0, compare=False)

    @property
    def succeeded(self) -> bool:
        return self.outcome is not None

    CSV_HEADER = "outcome,iterations_used,accepted_weight,false_accepts_observed,wall_time_ms"

    def csv_row(self) -> str:
        out = str(self.outcome) if self.outcome is not None else "FAIL"
        aw = "" if self.accepted_weight is None else str(self.accepted_weight)
        return (f"{out},{self.iterations_used},{aw},"
                f"{self.false_accepts_observed},{self.wall_time_ms:.3f}")


# ---------------------------------------------------------------------------
# Fixed-weight enumeration, lexicographic on support sets

def enumerate_errors(k_star: int, weight: int) -> Iterator[BitString]:
    """All length-k* vectors of exactly the given weight, each once.

    Order is lexicographic on the (1-based) support tuples, so for
    weight 1 the vector with its one set at position 1 comes first.
    """
    if not 0 <= weight <= k_star:
        raise ParameterError(f"weight {weight} outside [0, {k_star}]")
    for supp in combinations(range(k_star), weight):
        out = np.zeros(k_star, dtype=np.uint8)
        out[list(supp)] = 1
        yield BitString._wrap(out)


def _support_at_rank(k_star: int, weight: int, rank: int) -> List[int]:
    """Support (0-based, sorted) of the rank-th vector in enumeration order."""
    supp = []
    start = 0
    rest = rank
    for i in range(weight):
        for pos in range(start, k_star):
            block = math.comb(k_star - pos - 1, weight - i - 1)
            if rest < block:
                supp.append(pos)
                start = pos + 1
                break
            rest -= block
        else:
            raise ParameterError("rank out of range")
    return supp


def error_vector_at_rank(k_star: int, weight: int, rank: int) -> BitString:
    """The rank-th vector of enumerate_errors(k_star, weight), rank 0-based."""
    if not 0 <= weight <= k_star:
        raise ParameterError(f"weight {weight} outside [0, {k_star}]")
    if not 0 <= rank < math.comb(k_star, weight):
        raise ParameterError("rank out of range")
    out = np.zeros(k_star, dtype=np.uint8)
    if weight:
        out[_support_at_rank(k_star, weight, rank)] = 1
    return BitString._wrap(out)


# ---------------------------------------------------------------------------
# Core loop

_OUTER_FAIL, _REJECT, _INNER_FAIL, _ACCEPT = range(4)


class _Pipeline:
    """Precomputed read-only state shared by every candidate attempt."""

    def __init__(self, sk: Sketch, inner: LinearCode, outer: LinearCode):
        p = sk.params
        if inner != p.inner or outer != p.outer:
            raise ParameterError("code handles inconsistent with the sketch params")
        self.k_star = p.k_star
        self.prefix_len = p.k - p.n_star
        self.idx0 = np.ascontiguousarray(sk.N.indices.astype(np.intp) - 1)
        self.ss_bits = sk.ss.bits
        self.inner_pad = np.zeros(p.n_star - p.k_star, dtype=np.uint8)
        self.inner = inner
        self.outer = outer

    def attempt(self, we_bits: np.ndarray) -> Tuple[int, Optional[np.ndarray]]:
        phi = we_bits[self.idx0]
        c_prime = self.ss_bits ^ phi
        c = self.outer._decode_bits(c_prime)
        if c is None:
            return _OUTER_FAIL, None
        v_star = self.outer._invert_bits(c)
        if v_star[:self.prefix_len].any():
            return _REJECT, None
        corrupted = v_star[self.prefix_len:] ^ np.concatenate(
            (self.inner_pad, we_bits))
        c_star = self.inner._decode_bits(corrupted)
        if c_star is None:
            return _INNER_FAIL, None
        return _ACCEPT, self.inner._invert_bits(c_star)


def _scan_weight(pipe: _Pipeline, wp_bits: np.ndarray, weight: int):
    """Scan one weight class in rank order, stopping at the first acceptance.

    Returns (w_bits or None, scanned, outer_fails, inner_fails).
    """
    outer_fails = inner_fails = scanned = 0
    for scanned, supp in enumerate(combinations(range(pipe.k_star), weight), 1):
        we = wp_bits.copy()
        we[list(supp)] ^= 1
        status, w_bits = pipe.attempt(we)
        if status == _ACCEPT:
            return w_bits, scanned, outer_fails, inner_fails
        if status == _OUTER_FAIL:
            outer_fails += 1
        elif status == _INNER_FAIL:
            inner_fails += 1
    return None, scanned, outer_fails, inner_fails


def _recover(sk: Sketch, w_prime: BitString, inner: LinearCode,
             outer: LinearCode, weights: Sequence[int]) -> RecoveryReport:
    """Scan the weight classes in the given order; the first accept wins."""
    t0 = time.perf_counter()
    k_star = sk.params.k_star
    if len(w_prime) != k_star:
        raise DimensionError(f"w' length {len(w_prime)} != k* = {k_star}")
    pipe = _Pipeline(sk, inner, outer)
    iterations = ofail_total = ifail_total = 0
    outcome = accepted_weight = None
    for weight in weights:
        w_bits, scanned, ofail, ifail = _scan_weight(pipe, w_prime.bits, weight)
        iterations += scanned
        ofail_total += ofail
        ifail_total += ifail
        if w_bits is not None:
            outcome = BitString._wrap(np.ascontiguousarray(w_bits, dtype=np.uint8))
            accepted_weight = weight
            break
    assert iterations <= sum(math.comb(k_star, w) for w in weights), \
        "enumeration overran its counting bound"
    return RecoveryReport(
        outcome=outcome,
        iterations_used=iterations,
        accepted_weight=accepted_weight,
        first_decode_failures=ofail_total,
        false_accepts_observed=ifail_total,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )


def recover_fixed(sk: Sketch, w_prime: BitString, eps_rec: RationalLike,
                  inner: LinearCode, outer: LinearCode) -> RecoveryReport:
    """Try every error vector of weight floor(k* eps_rec), first accept wins.

    Succeeds whenever some candidate e' brings w' xor e' within the inner
    decoding radius of the sketched noisy secret AND the RV offset for that
    candidate is within the outer radius, unless an earlier iteration
    false-accepts (per-iteration rate about 2^-(k-n*)).
    """
    k_star = sk.params.k_star
    eps = as_fraction(eps_rec)
    lo, hi = Fraction(1, 2 * k_star), Fraction(1, 2)
    if not lo <= eps <= hi:
        raise ParameterError(f"eps_rec = {eps} outside [{lo}, {hi}]")
    return _recover(sk, w_prime, inner, outer, [int(k_star * eps)])


def recover_sweep(sk: Sketch, w_prime: BitString, inner: LinearCode,
                  outer: LinearCode, max_weight: Optional[int] = None) -> RecoveryReport:
    """Run the fixed-weight scan for weights 0, 1, ..., max_weight in order.

    max_weight defaults to floor(k*/2), the worst-case tolerance cap, and
    may not exceed it. Iterations accumulate across weights.
    """
    cap = sk.params.k_star // 2
    if max_weight is None:
        max_weight = cap
    if not 0 <= max_weight <= cap:
        raise ParameterError(f"max_weight {max_weight} outside [0, {cap}]")
    return _recover(sk, w_prime, inner, outer, range(max_weight + 1))
