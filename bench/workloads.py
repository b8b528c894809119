"""The benchmark's three closed-loop workloads and the oracle that checks them.

Every op's secret, probe and library seeds come from the benchmark's own
numpy generator keyed by (seed, workload stream, op index). So op i is the
same for a given seed however many ops ran before it, and a change to
rvsketch's SeededRng key schedule cannot change which secrets and probes
run. rvsketch must already be importable when this module is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

import rvsketch as rv

_SEED_HIGH = 2 ** 63


@dataclass(frozen=True)
class OpInput:
    index: int
    secret: rv.BitString
    probe: rv.BitString
    seeds: Tuple[int, ...]   # SeededRng seeds, drawn by the benchmark
    delta: int = 0           # k - n* of the fresh outer code (decoy_fresh_codes)


@dataclass(frozen=True)
class OpResult:
    report: rv.RecoveryReport
    sketch: rv.Sketch          # the sketch recovery ran against
    recover_call_s: float      # time inside recover_fixed / recover_sweep only
    sketch_bytes: int = 0

    def outcome_key(self) -> tuple:
        r = self.report
        return (r.outcome, r.iterations_used, r.accepted_weight,
                r.first_decode_failures, r.false_accepts_observed)


def stage_counts(report: rv.RecoveryReport) -> dict:
    """Where one recovery's candidates went, from the report's public fields.

    Candidates that decode under the outer code but are neither an inner
    failure nor the accept are the zero-prefix rejects.
    """
    accepts = 1 if report.succeeded else 0
    outer_fail = report.first_decode_failures
    inner_fail = report.false_accepts_observed
    return {
        "candidates": report.iterations_used,
        "outer_fail": outer_fail,
        "prefix_reject": report.iterations_used - outer_fail - inner_fail - accepts,
        "inner_fail": inner_fail,
        "accepts": accepts,
    }


def replay(sk: rv.Sketch, probe: rv.BitString, weights) -> tuple:
    """Recovery rebuilt from public functions: the report fields it must give.

    Candidates run in lexicographic order of their supports, weight by
    weight; each is gathered with sample_bits, outer-decoded, inverted,
    tested for the zero prefix, inner-decoded and inverted again.
    """
    p = sk.params
    prefix_len = p.k - p.n_star
    pad = p.n_star - p.k_star
    iterations = outer_fail = inner_fail = 0
    for weight in weights:
        for supp in combinations(range(p.k_star), weight):
            e = np.zeros(p.k_star, dtype=np.uint8)
            e[list(supp)] = 1
            we = probe ^ rv.BitString(e)
            iterations += 1
            c = rv.decode(p.outer, sk.ss ^ rv.sample_bits(we, sk.N))
            if c is None:
                outer_fail += 1
                continue
            v_star = rv.invert_message(p.outer, c)
            if v_star.prefix(prefix_len).weight:
                continue
            c_star = rv.decode(p.inner, v_star.suffix(p.n_star)
                               ^ rv.zero_pad_prefix(we, pad))
            if c_star is None:
                inner_fail += 1
                continue
            return (rv.invert_message(p.inner, c_star), iterations, weight,
                    outer_fail, inner_fail)
    return (None, iterations, None, outer_fail, inner_fail)


class Workload:
    """One closed-loop workload: setup once, then ops 0, 1, 2, ... in turn.

    window_ops is the number of ops in one traced pass; replay_ops leading
    ops are replayed through the oracle after timing; quick_ops is the op
    count of the quick mode. An untraced run always runs ops 0..min_ops-1,
    however long they take, so which ops are checked does not depend on
    speed below that; min_ops is at most two thirds of what a 25 s run
    reached at the seed commit with the host busy. Op times are taken as
    means over batches of batch_ops consecutive ops, about 0.1 s of work.
    """

    name = ""
    stream = 0
    window_ops = 0
    replay_ops = 0
    quick_ops = 0
    min_ops = 0
    batch_ops = 1

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream, i])

    def setup(self, tr) -> None:
        raise NotImplementedError

    def inputs(self, i: int) -> OpInput:
        raise NotImplementedError

    def enroll(self, op: OpInput, tr):
        raise NotImplementedError

    def recover(self, op: OpInput, enrolled, tr) -> OpResult:
        raise NotImplementedError

    def weights(self, k_star: int) -> List[int]:
        """Weight classes one recovery may scan, in scan order."""
        raise NotImplementedError

    def wrong_secret(self, op: OpInput, res: OpResult) -> bool:
        """Whether the op completed to a secret other than the enrolled one.

        recover_* accepts the first candidate that passes its three tests
        and cannot tell a false accept from the true one, so a wrong secret
        alone does not break the library's contract; check() and the replay
        decide whether the op failed.
        """
        return False

    def check(self, op: OpInput, res: OpResult) -> Tuple[Optional[str], bool]:
        """Invariants of one op: (error or None, whether to replay it).

        Every op must account for each candidate exactly once, stay within
        its budget, and scan the whole budget when it fails.
        """
        c = stage_counts(res.report)
        budget = sum(math.comb(res.sketch.params.k_star, m)
                     for m in self.weights(res.sketch.params.k_star))
        if c["prefix_reject"] < 0:
            return "stage counts exceed iterations_used", False
        if c["candidates"] > budget:
            return f"scanned {c['candidates']} candidates, budget {budget}", False
        if not c["accepts"] and c["candidates"] != budget:
            return f"FAIL after {c['candidates']} of {budget} candidates", False
        return None, False


class _FixedScan(Workload):
    """Sketch the secret, then recover_fixed from its complement."""

    eps_ss = Fraction(0)
    eps_rec = Fraction(0)

    def params(self, op: OpInput, tr) -> rv.SketchParams:
        raise NotImplementedError

    def inputs(self, i: int) -> OpInput:
        g = self.rng(i)
        w = g.integers(0, 2, self.k_star, dtype=np.uint8)
        seeds = tuple(int(s) for s in g.integers(0, _SEED_HIGH, size=4))
        return OpInput(i, rv.BitString(w), rv.BitString(1 - w), seeds,
                       self.deltas[i % len(self.deltas)])

    def enroll(self, op: OpInput, tr) -> rv.Sketch:
        p = self.params(op, tr)
        N = tr.call("lsh.index", rv.gen_index_vector, p.k_star, p.n,
                    tr.call("bitcore.rng", rv.SeededRng, op.seeds[0]))
        return tr.call("sketch.make", rv.make_sketch, op.secret, N,
                       self.eps_ss, p,
                       tr.call("bitcore.rng", rv.SeededRng, op.seeds[1]))

    def recover(self, op: OpInput, sk: rv.Sketch, tr) -> OpResult:
        t = perf_counter()
        report = tr.call("recover.scan", rv.recover_fixed, sk, op.probe,
                         self.eps_rec, sk.params.inner, sk.params.outer)
        return OpResult(report, sk, perf_counter() - t)

    def weights(self, k_star: int) -> List[int]:
        return [int(k_star * self.eps_rec)]


class ExhaustScan(_FixedScan):
    """The recovery loop alone: BCH codes built once, every op exhausts.

    Inner [31,16] t=3, outer [63,51] t=2, so k - n* = 20. The complement
    probe is at distance 16, so every op scans all C(16,5) = 4368
    candidates; an accept is unexpected and is replayed.
    """

    name = "exhaust_scan"
    stream = 1
    window_ops = 20
    replay_ops = 3
    quick_ops = 2
    min_ops = 200
    k_star = 16
    deltas = (0,)
    eps_ss = Fraction(1, 8)
    eps_rec = Fraction(5, 16)

    def setup(self, tr) -> None:
        inner = tr.call("codes.build", rv.bch_code, 5, 3)
        outer = tr.call("codes.build", rv.bch_code, 6, 2)
        self._params = tr.call("sketch.make", rv.SketchParams.from_codes,
                               inner, outer, self.eps_ss)

    def params(self, op: OpInput, tr) -> rv.SketchParams:
        return self._params

    def check(self, op: OpInput, res: OpResult):
        error, _ = super().check(op, res)
        return error, res.report.succeeded


class DecoyFreshCodes(_FixedScan):
    """One false_accept trial per op: fresh random codes, decoy recovery.

    Inner is a random [10,8] code, outer a square random [10+d,10+d] code
    with d cycling through 1, 3, 6; the probe is the secret's complement
    and recovery scans at most C(8,3) = 56 candidates, each of which
    reaches the zero-prefix test.
    """

    name = "decoy_fresh_codes"
    stream = 2
    window_ops = 600
    replay_ops = 30
    quick_ops = 12
    min_ops = 4000
    batch_ops = 30
    k_star = 8
    n_star = 10
    deltas = (1, 3, 6)
    eps_ss = Fraction(1, 16)
    eps_rec = Fraction(3, 8)

    def setup(self, tr) -> None:
        pass

    def params(self, op: OpInput, tr) -> rv.SketchParams:
        n = self.n_star + op.delta
        inner = tr.call("codes.build", rv.random_linear_code, self.n_star,
                        self.k_star,
                        tr.call("bitcore.rng", rv.SeededRng, op.seeds[2]))
        outer = tr.call("codes.build", rv.random_linear_code, n, n,
                        tr.call("bitcore.rng", rv.SeededRng, op.seeds[3]))
        return tr.call("sketch.make", rv.SketchParams.from_codes, inner,
                       outer, self.eps_ss)


class EnrollRecover(Workload):
    """The CLI's write-then-read path: enroll to bytes, recover from bytes.

    Inner BCH [15,7] t=2, outer BCH [63,51] t=2, so k - n* = 36. The probe
    is one bit away from the secret and recovery sweeps weights 0..3 (at
    most 64 candidates). The candidate that equals the enrolled noisy
    secret w_e always accepts with w, so an op must accept there or at an
    earlier candidate. An earlier accept can return another secret: a false
    accept that recover_sweep cannot detect. Such an op is replayed and
    reported, and fails only if the replay disagrees.
    """

    name = "enroll_recover"
    stream = 3
    window_ops = 150
    replay_ops = 30
    quick_ops = 12
    min_ops = 1000
    batch_ops = 5
    k_star = 7
    eps_ss = Fraction(1, 7)

    def setup(self, tr) -> None:
        inner = tr.call("codes.build", rv.bch_code, 4, 2)
        outer = tr.call("codes.build", rv.bch_code, 6, 2)
        self._params = tr.call("sketch.make", rv.SketchParams.from_codes,
                               inner, outer, self.eps_ss)

    def inputs(self, i: int) -> OpInput:
        g = self.rng(i)
        w = g.integers(0, 2, self.k_star, dtype=np.uint8)
        probe = w.copy()
        probe[g.integers(0, self.k_star)] ^= 1
        seeds = tuple(int(s) for s in g.integers(0, _SEED_HIGH, size=2))
        return OpInput(i, rv.BitString(w), rv.BitString(probe), seeds)

    def enroll(self, op: OpInput, tr) -> bytes:
        p = self._params
        N = tr.call("lsh.index", rv.gen_index_vector, p.k_star, p.n,
                    tr.call("bitcore.rng", rv.SeededRng, op.seeds[0]))
        sk = tr.call("sketch.make", rv.make_sketch, op.secret, N,
                     self.eps_ss, p,
                     tr.call("bitcore.rng", rv.SeededRng, op.seeds[1]))
        return tr.call("sketch.dump", rv.dump_sketch, sk)

    def recover(self, op: OpInput, blob: bytes, tr) -> OpResult:
        sk = tr.call("sketch.load", rv.load_sketch, blob)
        t = perf_counter()
        report = tr.call("recover.scan", rv.recover_sweep, sk, op.probe,
                         sk.params.inner, sk.params.outer)
        return OpResult(report, sk, perf_counter() - t, len(blob))

    def weights(self, k_star: int) -> List[int]:
        return list(range(k_star // 2 + 1))

    def wrong_secret(self, op: OpInput, res: OpResult) -> bool:
        return res.report.outcome != op.secret

    def enrolled_position(self, op: OpInput) -> int:
        """1-based scan position of the candidate probe ^ e' = w_e.

        w_e comes from re-running make_sketch with the op's seeds and
        debug output, outside the timed window.
        """
        p = self._params
        N = rv.gen_index_vector(p.k_star, p.n, rv.SeededRng(op.seeds[0]))
        _, dbg = rv.make_sketch(op.secret, N, self.eps_ss, p,
                                rv.SeededRng(op.seeds[1]), debug=True)
        support = tuple(np.flatnonzero((op.probe ^ dbg.w_e).bits))
        weight = len(support)
        before = sum(math.comb(p.k_star, m) for m in range(weight))
        ranks = list(combinations(range(p.k_star), weight))
        return before + ranks.index(support) + 1

    def check(self, op: OpInput, res: OpResult):
        error, _ = super().check(op, res)
        if error is None:
            used = res.report.iterations_used
            at = self.enrolled_position(op)
            if used > at:
                error = f"scanned {used} candidates, past w_e at {at}"
            elif used == at and self.wrong_secret(op, res):
                error = (f"candidate w_e at {at} returned "
                         f"{res.report.outcome}, enrolled {op.secret}")
        return error, self.wrong_secret(op, res)


WORKLOADS = {w.name: w for w in (ExhaustScan, DecoyFreshCodes, EnrollRecover)}
