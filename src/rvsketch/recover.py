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

Everything up to each coset-table lookup is GF(2)-linear in the candidate,
so the scan is vectorized over the outer code's packed [H; L] columns: one
stacked gather per batch of candidates yields their syndromes and messages
side by side. The probe's constant word [s0 | v0] rides in a copy of the
per-call table that only a candidate's first support column reads (weight
0 reaches it through the padding sentinel). The outer lookup, zero-prefix
mask and inner lookup then run on whole batches, and the inner lookup of
the first candidate that passes all three yields the recovered secret. A
schedule that fits in one batch has its gather index cached, read-only, by
(k*, weights), bounded in entries and bytes; larger ones stream.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .analysis import RationalLike
from .bitcore import (BitString, DimensionError, ParameterError,
                      support_batches, xor_gather)
from .codes import LinearCode, _unpack, _xor_rows
from .sketch import Sketch, _eps_violation


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
# Core scan

_BATCH_ROWS = 1 << 15   # candidates per vectorized batch
_SCHEDULE_CACHE_SIZE = 32   # cached single-batch schedules
_SCHEDULE_BYTES = 4 << 20   # largest cached schedule, so 128 MB in all


def _layout(supports: np.ndarray, k_star: int) -> np.ndarray:
    """The (width, B) gather index of padded supports (B, width): row 0 reads
    table rows 0..k* (the constant word's copy), the rest rows k*+1..2k*+1."""
    width = supports.shape[1]
    index = np.full((max(width, 1), len(supports)), k_star, dtype=np.intp)
    index[:width] = supports.T
    index[1:] += k_star + 1
    return index


def _bits(index: np.ndarray, k_star: int) -> np.ndarray:
    """The candidates of a gather index as dense e' bits (B, k*)."""
    e = np.zeros((index.shape[1], 2 * k_star + 2), dtype=np.uint8)
    e[np.arange(index.shape[1]), index] = 1
    return e[:, :k_star] | e[:, k_star + 1:-1]


@functools.lru_cache(maxsize=_SCHEDULE_CACHE_SIZE)
def _cached_layout(k_star: int, weights: tuple) -> np.ndarray:
    """The gather index of a schedule that fits in one batch, read-only."""
    total = sum(math.comb(k_star, w) for w in weights)
    index = _layout(next(support_batches(k_star, weights, total)), k_star)
    index.flags.writeable = False
    return index


def _schedule(k_star: int, weights: Sequence[int]):
    """The gather index of each batch of the weight schedule, in order."""
    total = sum(math.comb(k_star, w) for w in weights)
    if total <= _BATCH_ROWS and total * 8 * max(*weights, 1) <= _SCHEDULE_BYTES:
        yield _cached_layout(k_star, tuple(weights))
        return
    for supports in support_batches(k_star, weights, _BATCH_ROWS):
        yield _layout(supports, k_star)


def _recover(sk: Sketch, w_prime: BitString, inner: LinearCode,
             outer: LinearCode, weights: Sequence[int]) -> RecoveryReport:
    """Scan the weight classes in the given order; the first accept wins.

    With c'0 = ss xor sample_bits(w') and S the 0/1 sampling matrix of N,
    a candidate e' has outer syndrome and message [s0 | v0] xor [H S | L S] e'
    side by side, and its message gets L leader XORed in once the leader is
    known. The first survivor's inner decode yields the secret the same way.
    """
    t0 = time.perf_counter()
    p = sk.params
    k_star, prefix_len = p.k_star, p.k - p.n_star
    if len(w_prime) != k_star:
        raise DimensionError(f"w' length {len(w_prime)} != k* = {k_star}")
    if inner != p.inner or outer != p.outer:
        raise ParameterError("code handles inconsistent with the sketch params")
    idx0 = sk.N.indices.astype(np.intp) - 1
    c0 = np.flatnonzero(sk.ss.bits ^ w_prime.bits[idx0])
    # row k*+1+j is the XOR of the columns at every position sampling source
    # bit j, so row 2k*+1 stays zero for the sentinel; row j is row k*+1+j
    # with [s0 | v0] XORed in
    table = np.zeros((2 * k_star + 2, outer._cols.shape[1]), dtype=np.uint64)
    np.bitwise_xor.at(table[k_star + 1:], idx0, outer._cols[:-1])
    np.bitwise_xor(table[k_star + 1:], xor_gather(outer._cols, c0[:, None]),
                   out=table[:k_star + 1])
    split = outer._h_cols.shape[1]
    prefix_mask = np.frombuffer(((1 << prefix_len) - 1).to_bytes(
        8 * outer._l_cols.shape[1], "little"), dtype="<u8")

    scanned = outer_fails = inner_fails = 0
    outcome = accepted_weight = None
    for index in _schedule(k_star, weights):
        word = xor_gather(table, index)
        hit, row = outer._lookup(word[:, :split])
        v = word[:, split:] ^ outer._leader_msgs[row]
        survivors = np.flatnonzero(hit & ~(v & prefix_mask).any(axis=1))
        first = len(survivors)   # becomes the first survivor the inner code decodes
        if first:
            e = _bits(index[:, survivors], k_star)
            # inner word: the message suffix xor (zero pad || w' xor e')
            corrupted = _unpack(v[survivors], outer.k)[:, prefix_len:]
            corrupted[:, p.n_star - k_star:] ^= w_prime.bits ^ e
            decoded, inner_row = inner._lookup(inner._syndromes(corrupted))
            if decoded.any():
                first = int(np.argmax(decoded))
        # every candidate before `stop` and every survivor before `first` failed
        stop = int(survivors[first]) + 1 if first < len(survivors) else len(word)
        scanned += stop
        outer_fails += stop - int(np.count_nonzero(hit[:stop]))
        inner_fails += first
        if first < len(survivors):
            accepted_weight = int(np.count_nonzero(e[first]))
            outcome = BitString._wrap(_unpack(
                _xor_rows(inner._l_cols, corrupted[first])
                ^ inner._leader_msgs[inner_row[first]], k_star))
            break
    assert scanned <= sum(math.comb(k_star, w) for w in weights), \
        "enumeration overran its counting bound"
    return RecoveryReport(outcome, scanned, accepted_weight, outer_fails,
                          inner_fails, (time.perf_counter() - t0) * 1e3)


def recover_fixed(sk: Sketch, w_prime: BitString, eps_rec: RationalLike,
                  inner: LinearCode, outer: LinearCode) -> RecoveryReport:
    """Try every error vector of weight floor(k* eps_rec), first accept wins.

    Succeeds whenever some candidate e' brings w' xor e' within the inner
    decoding radius of the sketched noisy secret AND the RV offset for that
    candidate is within the outer radius, unless an earlier iteration
    false-accepts (per-iteration rate about 2^-(k-n*)).
    """
    k_star = sk.params.k_star
    eps = Fraction(eps_rec)
    problem = _eps_violation("eps_rec", eps, k_star, 2)
    if problem:
        raise ParameterError(problem)
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
    try:
        max_weight = operator.index(max_weight)
    except TypeError:
        raise ParameterError(
            f"max_weight {max_weight!r} is not an integer") from None
    if not 0 <= max_weight <= cap:
        raise ParameterError(f"max_weight {max_weight} outside [0, {cap}]")
    return _recover(sk, w_prime, inner, outer, range(max_weight + 1))
