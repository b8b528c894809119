"""Seeded Monte-Carlo experiments with CSV output.

run_experiment is the one entry point: it validates an ExperimentConfig
once and runs the config's kind, one of four:

  lsh          lsh.rv_distance_samples against the exact expectation n*d/k*
  correctness  sketch/recover round-trips against the 1 - 2^-(k-n*) floor
  false_accept decoy recovery iterations against the 2^-(k-n*) prefix rate
  complexity   exhausted-enumeration iteration counts against
               analysis.support_size: C(k*, m) and its 2^(k* h2) envelope

Per-trial seeds are derived as seed xor trial_index (trial indices are
global within one experiment; the base seed is whitened through a fixed
64-bit mix first), so execution order cannot change any row and rerunning
a config reproduces its CSV byte-for-byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from .analysis import (_rational, binom_lower_tail, false_accept_rate,
                       fixed_weight, support_size)
from .bitcore import BitString, ParameterError, SeededRng, _integer
from .codes import code_from_spec, random_linear_code
from .lsh import gen_index_vector, rv_distance_samples
from .recover import RecoveryReport, recover_fixed, recover_sweep
from .sketch import SketchParams, make_sketch

CSV_SCHEMA = "rvsketch-experiment-csv v1"

_DECOY_WEIGHT = 3   # false_accept probes weight 3 of k* = 8, eps_rec = 3/8

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    # splitmix64 finalizer: bijective, so distinct derived seeds stay
    # distinct while nearby base seeds decorrelate
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _trial_rng(seed: int, trial: int) -> SeededRng:
    """Generator for one trial: whitened base seed xor trial_index.

    Whitening first keeps nearby user seeds from sharing trial-seed sets
    (small seeds xor small trial indices otherwise permute one another).
    """
    return SeededRng(_mix64(seed & _MASK64) ^ trial)


@dataclass
class ExperimentConfig:
    kind: str
    trials: int = 0          # 0 selects the kind's default
    seed: int = 1
    out: Optional[Union[str, Path]] = None
    # lsh
    k_star: int = 16
    distance: int = 4
    n: int = 512
    # correctness
    inner_spec: str = "bch:4:2"
    outer_spec: str = "bch:5:3"
    eps_ss: Union[str, Fraction] = Fraction(1, 14)
    w_prime_distance: int = 1
    # false_accept
    deltas: Sequence[int] = (1, 3, 6)
    min_iterations: int = 10_000
    # complexity
    grid_k: Sequence[int] = (8, 12, 16)
    grid_eps: Sequence[Union[str, Fraction]] = ("1/8", "1/4", "1/2")

    def resolved_trials(self) -> int:
        return self.trials or _kind(self.kind)[1]

    def validate(self):
        """Raise ParameterError on a bad field; store the integer fields as
        ints and the sequence fields as tuples."""
        _kind(self.kind)
        for name in ("trials", "seed", "k_star", "distance", "n", "w_prime_distance",
                     "min_iterations"):
            setattr(self, name, _integer(name, getattr(self, name)))
        for name, of in (("deltas", "integers"), ("grid_k", "integers"),
                         ("grid_eps", "rationals")):
            value = getattr(self, name)
            if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
                raise ParameterError(f"{name} {value!r} is not a sequence of {of}")
            setattr(self, name, tuple(_integer(name, v) if of == "integers" else v
                                      for v in value))
        if self.trials < 0:
            raise ParameterError("trials must be >= 1 (or 0 for the default)")
        if self.kind == "false_accept" and self.trials:
            raise ParameterError(
                "false_accept takes no trials: min_iterations sets its length")
        if self.kind == "false_accept" and self.min_iterations < 1:
            raise ParameterError("min_iterations must be >= 1")


def _write_csv(cfg, extra: str, header: List[str], rows: List[list]):
    """When cfg.out is set, write there the schema line, a comment naming the
    config and extra, the header, and rows padded with empty cells to its width."""
    if not cfg.out:
        return
    with Path(cfg.out).open("w", newline="") as f:
        f.write(f"# {CSV_SCHEMA}\n")
        f.write(f"# kind={cfg.kind} seed={cfg.seed} "
                f"trials={cfg.resolved_trials()} {extra}\n")
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(row + [""] * (len(header) - len(row)) for row in rows)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LshResult:
    trials: int
    mean: float
    expected: float
    tolerance: float   # 3 sigma / sqrt(trials), sigma^2 = n p (1-p)
    passed: bool


def _run_lsh(cfg: ExperimentConfig) -> LshResult:
    trials = cfg.resolved_trials()
    k_star, d, n = cfg.k_star, cfg.distance, cfg.n
    if not 0 <= d <= k_star:
        raise ParameterError("distance must lie in [0, k_star]")
    zeros = BitString.zeros(k_star)
    far = BitString(np.arange(k_star) < d)
    samples = np.concatenate([
        rv_distance_samples(zeros, far, n, 1, _trial_rng(cfg.seed, t))
        for t in range(trials)])
    p = d / k_star
    expected = n * p
    sigma = math.sqrt(n * p * (1.0 - p))
    tolerance = 3.0 * sigma / math.sqrt(trials)
    mean = float(samples.mean())
    result = LshResult(trials=trials, mean=mean, expected=expected,
                       tolerance=tolerance, passed=abs(mean - expected) <= tolerance)
    rows = [[t, int(s)] for t, s in enumerate(samples)]
    rows.append(["summary", "", f"{mean:.6f}", f"{expected:.6f}",
                 f"{tolerance:.6f}", int(result.passed)])
    _write_csv(cfg, f"k_star={k_star} distance={d} n={n}",
               ["trial", "rv_distance", "mean", "expected", "tolerance", "passed"],
               rows)
    return result


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrectnessResult:
    trials: int
    successes: int
    rate: float
    floor: float             # 1 - 2^-(k-n*)
    pvalue_below: float      # one-sided binomial: evidence the rate < floor
    passed: bool


def _run_correctness(cfg: ExperimentConfig) -> CorrectnessResult:
    trials = cfg.resolved_trials()
    eps_ss = _rational("eps_ss", cfg.eps_ss)
    base = SeededRng(cfg.seed)
    inner = code_from_spec(cfg.inner_spec, base.spawn(101))
    outer = code_from_spec(cfg.outer_spec, base.spawn(102))
    params = SketchParams.from_codes(inner, outer, eps_ss)
    if not 0 <= cfg.w_prime_distance <= params.k_star:
        raise ParameterError(f"w_prime_distance {cfg.w_prime_distance} "
                             f"outside [0, {params.k_star}]")
    delta = params.k - params.n_star
    floor = 1.0 - float(false_accept_rate(params.k, params.n_star))

    rows = []
    successes = 0
    for t in range(trials):
        rng = _trial_rng(cfg.seed, t)
        w = rng.spawn(1).random_bits(params.k_star)
        N = gen_index_vector(params.k_star, params.n, rng.spawn(2))
        sk = make_sketch(w, N, eps_ss, params, rng.spawn(3))
        flip = rng.spawn(4).subset(params.k_star, cfg.w_prime_distance)
        wp_bits = w.bits.copy()
        wp_bits[flip] ^= 1
        report = recover_sweep(sk, BitString(wp_bits), inner, outer)
        ok = report.outcome == w
        successes += ok
        rows.append([t, int(ok), report.iterations_used,
                     "" if report.accepted_weight is None else report.accepted_weight,
                     report.false_accepts_observed])

    rate = successes / trials
    pvalue_below = binom_lower_tail(successes, trials, floor)
    passed = rate >= floor or pvalue_below > 0.01
    result = CorrectnessResult(trials=trials, successes=successes, rate=rate,
                               floor=floor, pvalue_below=pvalue_below, passed=passed)
    rows.append(["summary", successes, "", "", "", f"{rate:.6f}",
                 f"{floor:.6f}", f"{pvalue_below:.6g}", int(passed)])
    _write_csv(cfg, f"inner={cfg.inner_spec} outer={cfg.outer_spec} "
                    f"eps_ss={eps_ss} w_prime_distance={cfg.w_prime_distance} "
                    f"k_minus_n_star={delta}",
               ["trial", "success", "iterations", "accepted_weight",
                "false_accepts", "rate", "floor", "pvalue_below", "passed"],
               rows)
    return result


# ---------------------------------------------------------------------------

def _decoy_recovery(rng: SeededRng, k_star: int, inner_n: int, outer_n: int,
                    outer_k: int, eps_rec: Fraction) -> RecoveryReport:
    """One decoy trial: fresh random [inner_n, k*] inner and [outer_n, outer_k]
    outer codes (streams 1-2), a sketch at eps_ss = 1/(2k*) (streams 3-5),
    then recover_fixed at eps_rec from the complement of the secret."""
    inner = random_linear_code(inner_n, k_star, rng.spawn(1))
    outer = random_linear_code(outer_n, outer_k, rng.spawn(2))
    eps_ss = Fraction(1, 2 * k_star)
    params = SketchParams.from_codes(inner, outer, eps_ss)
    w = rng.spawn(3).random_bits(k_star)
    N = gen_index_vector(k_star, outer_n, rng.spawn(4))
    sk = make_sketch(w, N, eps_ss, params, rng.spawn(5))
    return recover_fixed(sk, BitString(1 - w.bits), eps_rec, inner, outer)


@dataclass(frozen=True)
class FalseAcceptResult:
    delta: int
    iterations: int
    prefix_accepts: int
    rate: float
    expected: float          # 2^-delta
    passed: bool             # within a factor of two of expected


def _run_false_accept(cfg: ExperimentConfig) -> List[FalseAcceptResult]:
    """Decoy recoveries against fresh random codes, one section per delta.

    The outer code is square (k = n), so the first decode always returns and
    every iteration exercises the zero-prefix test. The probe string sits at
    maximum distance from the sketched secret, so acceptances are decoys.
    """
    k_star, n_star = 8, 10
    results = []
    rows = []
    trial = 0  # global row index across deltas, used for seed derivation
    for delta in cfg.deltas:
        n = n_star + delta
        total_iters = accepts = batch = 0
        while total_iters < cfg.min_iterations:
            report = _decoy_recovery(_trial_rng(cfg.seed, trial), k_star, n_star, n,
                                     n, Fraction(_DECOY_WEIGHT, k_star))
            events = report.false_accepts_observed + (1 if report.succeeded else 0)
            total_iters += report.iterations_used
            accepts += events
            rows.append([delta, batch, report.iterations_used, events])
            trial += 1
            batch += 1
        rate = accepts / total_iters
        expected = float(false_accept_rate(n, n_star))
        passed = expected / 2 <= rate <= expected * 2
        results.append(FalseAcceptResult(delta=delta, iterations=total_iters,
                                         prefix_accepts=accepts, rate=rate,
                                         expected=expected, passed=passed))
        rows.append([delta, "summary", total_iters, accepts,
                     f"{rate:.6f}", f"{expected:.6f}", int(passed)])
    _write_csv(cfg, f"k_star={k_star} n_star={n_star} deltas={list(cfg.deltas)} "
                    f"decoy_weight={_DECOY_WEIGHT} min_iterations={cfg.min_iterations}",
               ["delta", "batch", "iterations", "prefix_accepts",
                "rate", "expected", "passed"],
               rows)
    return results


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityCell:
    k_star: int
    eps_rec: Fraction
    weight: int
    iterations_max: int
    expected: int            # C(k*, weight), exact
    entropy_bound: float     # 2^(k* h2(eps_rec))
    passed: bool


def _run_complexity(cfg: ExperimentConfig) -> List[ComplexityCell]:
    """Exhaust the enumeration on unrecoverable probes and count iterations.

    Codes are sized so that stray completions are out of reach (outer
    membership rate 2^-16), making the full C(k*, m) sweep observable.
    """
    repeats = cfg.resolved_trials()
    cells = []
    rows = []
    trial = 0
    for k_star in cfg.grid_k:
        for eps in cfg.grid_eps:
            eps = _rational("grid_eps", eps)
            weight = fixed_weight(k_star, eps)
            expected, bound = support_size(k_star, eps)
            worst = 0
            for r in range(repeats):
                report = _decoy_recovery(_trial_rng(cfg.seed, trial), k_star,
                                         k_star + 8, k_star + 28, k_star + 12,
                                         eps)
                worst = max(worst, report.iterations_used)
                rows.append([k_star, str(eps), weight, r,
                             report.iterations_used, expected, f"{bound:.3f}"])
                trial += 1
            passed = (worst == expected) and (expected <= bound)
            cells.append(ComplexityCell(k_star=k_star, eps_rec=eps, weight=weight,
                                        iterations_max=worst, expected=expected,
                                        entropy_bound=bound, passed=passed))
            rows.append([k_star, str(eps), weight, "summary", worst,
                         expected, f"{bound:.3f}", int(passed)])
    _write_csv(cfg, f"grid_k={list(cfg.grid_k)} "
                    f"grid_eps={[str(e) for e in cfg.grid_eps]}",
               ["k_star", "eps_rec", "weight", "trial", "iterations",
                "expected", "entropy_bound", "passed"],
               rows)
    return cells


# ---------------------------------------------------------------------------

_KINDS = {   # kind: (runner, default trials)
    "lsh": (_run_lsh, 10_000),
    "correctness": (_run_correctness, 1_000),
    "false_accept": (_run_false_accept, 0),
    "complexity": (_run_complexity, 3),
}


def _kind(kind: str):
    """kind's (runner, default trials); ParameterError for an unknown kind."""
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParameterError(f"unknown experiment kind {kind!r}")
    return _KINDS[kind]


def run_experiment(cfg: ExperimentConfig):
    """Validate cfg once, then run its kind: the one entry to every kind."""
    cfg.validate()
    return _KINDS[cfg.kind][0](cfg)
