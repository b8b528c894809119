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
so the scan is vectorized over the outer code's packed [H; L] columns.
The per-call table has one row per source bit j, the XOR of the columns
at the positions that sample it plus bit n-k*+j, which e'_j flips in the
inner word, and a zero row for the padding sentinel. The table is built
first, and the probe's constant word ([s0 | v0], w' at bits n-k*..n-1)
is the columns at ss's set bits XORed with the table rows at w''s: those
rows add the columns sampling w', and w' itself. One gather per batch
of candidates, with the constant word XORed in, yields each candidate's
syndrome and message in one packed word (one flat uint64 per candidate
when the outer n is at most 64), w' xor e' in the message's last k*
bits, above every bit the outer lookup reads.

A gather of m table rows per candidate becomes a two-level gather when
that reads fewer words. The source bits are split into chunks of 8. Per
call, one gather builds the 16 subset XORs of each 4 bits, and one
broadcast XOR pairs them into each chunk's 256 subset words, the
constant word folded into chunk 0. Each candidate then gathers one
subset word per chunk, keyed by its support's bits in that chunk.

The outer lookup XORs in the leader's packed word (a t = 0 code has none
to XOR), so one masked compare of the result per candidate tests the
outer decode and the zero prefix together: its syndrome and prefix bits
must all be zero. A failed candidate whose syndrome bits stay set missed
the outer decode. The bits above them are the survivor's inner word
itself, so survivors decode from one unpack. The inner lookup of the
first survivor that decodes yields the recovered secret; its position in
the schedule gives the accepted weight. One cached, read-only plan holds
what the scan reads that neither the sketch nor the probe changes: the
weight classes' ends, the table's unit words, the checked mask and, for a
schedule that fits in one batch (larger ones stream), its gather index,
or its chunk keys and nibble subset index. Index or keys are at most 2^15
columns of at most 8 rows, the weights being at most k*/2, so 2 MiB. The
probe w' may be anything BitString takes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analysis import RationalLike, _rational, fixed_weight
from .bitcore import (BitString, ParameterError, _bitstring, _integer,
                      support_batches, xor_gather)
from .codes import LinearCode, _field, _fold, _words
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

_BLOCK_ROWS = 1 << 15        # candidates per batch of the scan
_PLAN_CACHE_SIZE = 32        # cached scan plans, so 64 MiB of index or keys at most


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(k_star: int, weights: tuple, rows: int, word_shape: tuple, n: int,
          n_star: int):
    """A scan's inputs that neither sketch nor probe changes, read-only:
    (ends, batch, nibbles, units, checked).

    ends holds each weight class's end in the schedule, the last being the
    candidate count. Past rows candidates the schedule streams, and batch
    and nibbles are None. Otherwise batch is its one batch's gather index,
    and nibbles None, unless the chunked gather reads fewer words, with
    chunks = ceil(k*/8): chunks (256 + count) < width count. Then batch
    holds (chunks, count) keys, key c of a candidate being 256 c plus its
    support's bits among source bits 8c..8c+7. nibbles is the (4, 32 chunks)
    index of every subset of every 4 source bits: column 16 h + s picks
    bit 4h + i for each set bit i of s, else the sentinel k*. Either batch
    is at most 8 rows of 2^15 intp columns, so 2 MiB. units are k* + 1
    packed words, word j with bit n-k*+j alone set, the last zero; checked
    is the syndrome-and-prefix mask.
    """
    ends = tuple(itertools.accumulate(math.comb(k_star, w) for w in weights))
    batch = nibbles = None
    if ends[-1] <= rows:
        batch = next(support_batches(k_star, weights, rows))
        chunks = -(-k_star // 8)
        if chunks * (256 + ends[-1]) < len(batch) * ends[-1]:
            member = np.zeros((ends[-1], k_star + 1), dtype=np.uint8)
            member[np.arange(ends[-1]), batch] = 1   # the sentinel column is cut
            keys = np.packbits(member[:, :k_star], axis=1, bitorder="little")
            batch = keys.T.astype(np.intp, order="C")
            batch += np.arange(0, 256 * chunks, 256)[:, None]
            column = np.arange(32 * chunks)
            pos = 4 * (column // 16) + np.arange(4)[:, None]
            picked = (column % 16 >> np.arange(4)[:, None] & 1).astype(bool)
            nibbles = np.where(picked & (pos < k_star), pos, k_star)
            nibbles.flags.writeable = False
        batch.flags.writeable = False
    units = [1 << n - k_star + j for j in range(k_star)] + [0]
    return (ends, batch, nibbles, _words(units, word_shape),
            _words([(1 << n - n_star) - 1], word_shape)[0])


def _subset_words(table: np.ndarray, nibbles: np.ndarray, const) -> np.ndarray:
    """The chunked gather's table: row 256 c + b is the XOR of table rows
    8c + i over the set bits i of b, and const in chunk 0. One gather makes
    the 16 subsets of each 4 source bits, and chunk c's row b is the XOR of
    its high nibble's subset b >> 4 and its low nibble's subset b & 15."""
    nib = xor_gather(table, nibbles).reshape((-1, 2, 16) + table.shape[1:])
    nib[0, 0] ^= const
    return (nib[:, 1, :, None] ^ nib[:, 0, None, :]).reshape((-1,) + table.shape[1:])


def _recover(sk: Sketch, w_prime: BitString, inner: LinearCode,
             outer: LinearCode, weights: Sequence[int]) -> RecoveryReport:
    """Scan the weight classes in the given order; the first accept wins.

    With c'0 = ss xor sample_bits(w') and S the 0/1 sampling matrix of N,
    a candidate e' has the outer packed word [s0 | v0] xor [H S | L S] e'
    (syndrome, then message) with w' xor e' XORed into bits n-k*..n-1 by
    the constant word and the table, and the outer lookup XORs in its
    leader's word. Row j of the table T is bit n-k*+j plus [H S | L S]'s
    column j, so the constant word is [H; L] ss xor T w', which is
    [H; L] c'0 with w' at bits n-k*..n-1. Bits 0..n-n*-1 of the result
    are the syndrome and the zero prefix, which must all vanish; bits
    n-n*..n-1 are the message suffix xor (zero pad || w' xor e'): the
    inner word, unpacked once.
    """
    t0 = time.perf_counter()
    p = sk.params
    k_star, n_star, n = p.k_star, p.n_star, outer.n
    weights = tuple(weights)
    w_prime = _bitstring(w_prime, k_star, "w'", "k*")
    if inner != p.inner or outer != p.outer:
        raise ParameterError("code handles inconsistent with the sketch params")
    ends, cached, nibbles, units, checked = _plan(
        k_star, weights, _BLOCK_ROWS, outer._cols.shape[1:], n, n_star)
    # row j: bit n-k*+j, which e'_j flips, and the XOR of the columns at
    # every position sampling source bit j; row k* stays zero for the sentinel
    table = units.copy()
    np.bitwise_xor.at(table, sk.N.indices - 1, outer._cols[:-1])
    # [s0 | v0], and w' at bits n-k*..n-1, where the inner word takes it
    const = xor_gather(outer._cols, sk.ss.bits.nonzero()[0])
    const ^= xor_gather(table, w_prime.bits.nonzero()[0])
    if nibbles is not None:   # the cached batch holds keys into subset words
        table = _subset_words(table, nibbles, const)

    scanned = outer_fails = inner_fails = 0
    outcome = accepted_weight = None
    for index in [cached] if cached is not None else support_batches(
            k_star, weights, _BLOCK_ROWS):
        words = xor_gather(table, index)
        if nibbles is None:
            words ^= const
        fixed = outer._fix(words)
        masked = fixed & checked
        survivors = (_fold(masked) == 0).nonzero()[0]
        first = len(survivors)   # becomes the first survivor the inner code decodes
        if first:
            decoded, secret = inner._lookup(
                inner._syndromes(_field(fixed[survivors], n - n_star, n)))
            if decoded.any():
                first = int(np.argmax(decoded))
        # every candidate before `stop` and every survivor before `first`
        # failed; the outer misses among them keep syndrome bits set
        stop = int(survivors[first]) + 1 if first < len(survivors) else len(fixed)
        scanned += stop
        outer_fails += int(np.count_nonzero(_fold(masked[:stop] & outer._syn_mask)))
        inner_fails += first
        if first < len(survivors):
            # candidate `scanned` of the schedule, counted from 1, accepts
            accepted_weight = weights[bisect.bisect_left(ends, scanned)]
            outcome = BitString._wrap(
                _field(secret[first:first + 1], inner.n - k_star, inner.n)[0])
            break
    assert scanned <= ends[-1], "enumeration overran its counting bound"
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
    eps = _rational("eps_rec", eps_rec)
    problem = _eps_violation("eps_rec", eps, k_star, 2)
    if problem:
        raise ParameterError(problem)
    return _recover(sk, w_prime, inner, outer, [fixed_weight(k_star, eps)])


def recover_sweep(sk: Sketch, w_prime: BitString, inner: LinearCode,
                  outer: LinearCode, max_weight: Optional[int] = None) -> RecoveryReport:
    """Run the fixed-weight scan for weights 0, 1, ..., max_weight in order.

    max_weight defaults to floor(k*/2), the worst-case tolerance cap, and
    may not exceed it. Iterations accumulate across weights.
    """
    cap = sk.params.k_star // 2
    if max_weight is None:
        max_weight = cap
    max_weight = _integer("max_weight", max_weight)
    if not 0 <= max_weight <= cap:
        raise ParameterError(f"max_weight {max_weight} outside [0, {cap}]")
    return _recover(sk, w_prime, inner, outer, range(max_weight + 1))
