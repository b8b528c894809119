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
batches, and the inner lookup of the first candidate that passes all three
yields the recovered secret.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .analysis import RationalLike
from .bitcore import (BitString, DimensionError, ParameterError,
                      lex_supports, support_batches, xor_gather)
from .codes import LinearCode, _unpack, _xor_rows
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

_BATCH_ROWS = 1 << 15   # candidates per vectorized batch


def _recover(sk: Sketch, w_prime: BitString, inner: LinearCode,
             outer: LinearCode, weights: Sequence[int]) -> RecoveryReport:
    """Scan the weight classes in the given order; the first accept wins.

    With c'0 = ss xor sample_bits(w'), a candidate e' has outer word
    c'0 xor S e', where S is the 0/1 sampling matrix of N. So its outer
    syndrome is s0 xor (H S) e' and, once the syndrome's leader is known,
    its message is v0 xor (L S) e' xor L leader: an XOR of `weight`
    packed columns plus two table lookups. The inner decode of the first
    survivor that passes yields the secret the same way, as
    L_in corrupted xor L_in leader.
    """
    t0 = time.perf_counter()
    p = sk.params
    k_star, prefix_len = p.k_star, p.k - p.n_star
    if len(w_prime) != k_star:
        raise DimensionError(f"w' length {len(w_prime)} != k* = {k_star}")
    if inner != p.inner or outer != p.outer:
        raise ParameterError("code handles inconsistent with the sketch params")
    idx0 = sk.N.indices.astype(np.intp) - 1
    c0 = np.flatnonzero(sk.ss.bits ^ w_prime.bits[idx0])[None]
    s0 = xor_gather(outer._h_cols, c0)[0]
    v0 = xor_gather(outer._l_cols, c0)[0]
    # row j: the XOR of the code's columns at every position sampling
    # source bit j; row k* stays zero for the padding sentinel
    hs = np.zeros((k_star + 1, outer._h_cols.shape[1]), np.uint64)
    np.bitwise_xor.at(hs, idx0, outer._h_cols[:-1])
    ls = np.zeros((k_star + 1, outer._l_cols.shape[1]), np.uint64)
    np.bitwise_xor.at(ls, idx0, outer._l_cols[:-1])
    prefix_mask = np.frombuffer(
        ((1 << prefix_len) - 1).to_bytes(8 * ls.shape[1], "little"), dtype="<u8")

    scanned = outer_fails = inner_fails = 0
    outcome = accepted_weight = None
    for supports in support_batches(k_star, weights, _BATCH_ROWS):
        hit, row = outer._lookup(s0 ^ xor_gather(hs, supports))
        v = v0 ^ xor_gather(ls, supports) ^ outer._leader_msgs[row]
        survivors = np.flatnonzero(hit & ~(v & prefix_mask).any(axis=1))
        # inner word: the message suffix xor (zero pad || w' xor e')
        e = np.zeros((len(survivors), k_star + 1), dtype=np.uint8)
        e[np.arange(len(survivors))[:, None], supports[survivors]] = 1
        corrupted = _unpack(v[survivors], outer.k)[:, prefix_len:]
        corrupted[:, p.n_star - k_star:] ^= w_prime.bits ^ e[:, :k_star]
        decoded, inner_row = inner._lookup(inner._syndromes(corrupted))
        if not decoded.any():
            scanned += len(supports)
            outer_fails += len(supports) - int(np.count_nonzero(hit))
            inner_fails += len(survivors)
            continue
        first = int(np.argmax(decoded))   # every earlier survivor failed inner
        at = int(survivors[first])
        scanned += at + 1
        outer_fails += at - int(np.count_nonzero(hit[:at]))
        inner_fails += first
        accepted_weight = int(np.count_nonzero(supports[at] < k_star))
        outcome = BitString._wrap(_unpack(
            _xor_rows(inner._l_cols, corrupted[first])
            ^ inner._leader_msgs[inner_row[first]], k_star))
        break
    assert scanned <= sum(math.comb(k_star, w) for w in weights), \
        "enumeration overran its counting bound"
    return RecoveryReport(
        outcome=outcome,
        iterations_used=scanned,
        accepted_weight=accepted_weight,
        first_decode_failures=outer_fails,
        false_accepts_observed=inner_fails,
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
    eps = Fraction(eps_rec)
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
