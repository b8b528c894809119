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
so the scan is vectorized: the supports of the whole weight schedule, in
scan order, run in batches, and a candidate's outer syndrome and message
are XORs of packed per-source-position columns built once per call. The
outer lookup, the zero-prefix mask and the inner lookup then run on whole
batches. The scalar per-candidate attempt is kept only to confirm the
first candidate that passes all three, and it yields the recovered secret.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .analysis import RationalLike, as_fraction
from .bitcore import (BitString, DimensionError, ParameterError,
                      lex_supports, support_batches, xor_gather)
from .codes import LinearCode, _unpack
from .sketch import Sketch, eps_rec_violation


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
    for block in lex_supports(k_star, weight):
        for supp in block:
            out = np.zeros(k_star, dtype=np.uint8)
            out[supp] = 1
            yield BitString._wrap(out)


def error_vector_at_rank(k_star: int, weight: int, rank: int) -> BitString:
    """The rank-th vector of enumerate_errors(k_star, weight), rank 0-based."""
    if not 0 <= weight <= k_star:
        raise ParameterError(f"weight {weight} outside [0, {k_star}]")
    if not 0 <= rank < math.comb(k_star, weight):
        raise ParameterError("rank out of range")
    out = np.zeros(k_star, dtype=np.uint8)
    out[next(lex_supports(k_star, weight, rank))[0]] = 1
    return BitString._wrap(out)


# ---------------------------------------------------------------------------
# Core scan

_OUTER_FAIL, _REJECT, _INNER_FAIL, _ACCEPT = range(4)

_BATCH_ROWS = 1 << 15   # candidates per vectorized batch


class _Pipeline:
    """Per-call state: the packed linear maps of the scan, and the scalar
    attempt that confirms its accept.

    With c'0 = ss xor sample_bits(w'), a candidate e' has outer word
    c'0 xor S e', where S is the 0/1 sampling matrix of N. So its outer
    syndrome is s0 xor (H S) e' and, once the syndrome's leader is known,
    its message is v0 xor (L S) e' xor L leader: an XOR of `weight`
    packed columns plus two table lookups.
    """

    def __init__(self, sk: Sketch, wp_bits: np.ndarray, inner: LinearCode,
                 outer: LinearCode):
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
        self.wp_bits = wp_bits
        c0 = np.flatnonzero(self.ss_bits ^ wp_bits[self.idx0])[None]
        self.s0 = xor_gather(outer._h_cols, c0)[0]
        self.v0 = xor_gather(outer._l_cols, c0)[0]
        # row j: the XOR of the code's columns at every position sampling
        # source bit j; row k* stays zero for the padding sentinel
        self.hs = np.zeros((self.k_star + 1, outer._h_cols.shape[1]), np.uint64)
        np.bitwise_xor.at(self.hs, self.idx0, outer._h_cols[:-1])
        self.ls = np.zeros((self.k_star + 1, outer._l_cols.shape[1]), np.uint64)
        np.bitwise_xor.at(self.ls, self.idx0, outer._l_cols[:-1])
        self.prefix_mask = np.frombuffer(
            ((1 << self.prefix_len) - 1).to_bytes(8 * self.ls.shape[1], "little"),
            dtype="<u8")

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

    def candidates(self, supports: np.ndarray) -> np.ndarray:
        """w' xor e' for each padded support row."""
        e = np.zeros((len(supports), self.k_star + 1), dtype=np.uint8)
        e[np.arange(len(supports))[:, None], supports] = 1
        return self.wp_bits ^ e[:, :self.k_star]

    def inner_decodes(self, v: np.ndarray, we: np.ndarray) -> np.ndarray:
        """Whether the inner code decodes each zero-prefix message row of v."""
        corrupted = _unpack(v, self.outer.k)[:, self.prefix_len:]
        corrupted[:, self.inner_pad.size:] ^= we
        return self.inner._lookup(self.inner._syndromes(corrupted))[0]


def _scan(pipe: _Pipeline, weights: Sequence[int]):
    """The whole weight schedule in scan order, batch by batch, up to the
    first accept.

    Returns (w_bits or None, scanned, outer_fails, inner_fails, weight).
    """
    outer, k_star = pipe.outer, pipe.k_star
    scanned = outer_fails = inner_fails = 0
    for supports in support_batches(k_star, weights, _BATCH_ROWS):
        hit, row = outer._lookup(pipe.s0 ^ xor_gather(pipe.hs, supports))
        v = pipe.v0 ^ xor_gather(pipe.ls, supports) ^ outer._leader_msgs[row]
        survivors = np.flatnonzero(hit & ~(v & pipe.prefix_mask).any(axis=1))
        we = pipe.candidates(supports[survivors])
        decoded = pipe.inner_decodes(v[survivors], we)
        if not decoded.any():
            scanned += len(supports)
            outer_fails += len(supports) - int(np.count_nonzero(hit))
            inner_fails += len(survivors)
            continue
        first = int(np.argmax(decoded))   # every earlier survivor failed inner
        at = int(survivors[first])
        status, w_bits = pipe.attempt(we[first])
        assert status == _ACCEPT, "scan and scalar attempt disagree"
        return (w_bits, scanned + at + 1,
                outer_fails + at - int(np.count_nonzero(hit[:at])),
                inner_fails + first, int(np.count_nonzero(supports[at] < k_star)))
    return None, scanned, outer_fails, inner_fails, None


def _recover(sk: Sketch, w_prime: BitString, inner: LinearCode,
             outer: LinearCode, weights: Sequence[int]) -> RecoveryReport:
    """Scan the weight classes in the given order; the first accept wins."""
    t0 = time.perf_counter()
    k_star = sk.params.k_star
    if len(w_prime) != k_star:
        raise DimensionError(f"w' length {len(w_prime)} != k* = {k_star}")
    pipe = _Pipeline(sk, w_prime.bits, inner, outer)
    w_bits, iterations, ofail_total, ifail_total, accepted_weight = \
        _scan(pipe, weights)
    outcome = None
    if w_bits is not None:
        outcome = BitString._wrap(np.ascontiguousarray(w_bits, dtype=np.uint8))
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
    problem = eps_rec_violation(k_star, eps)
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
    if not 0 <= max_weight <= cap:
        raise ParameterError(f"max_weight {max_weight} outside [0, {cap}]")
    return _recover(sk, w_prime, inner, outer, range(max_weight + 1))
