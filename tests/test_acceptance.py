"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time
from fractions import Fraction

from scipy.stats import binomtest

from oracles import all_codewords_matrix, nearest_codeword, pack_rows
from rvsketch import (BitString, ExperimentConfig, SeededRng, SketchParams,
                      bch_code, binary_entropy, decode,
                      efficiency_bound_check, exceedance_frequencies,
                      gen_index_vector, hoeffding_bound, make_sketch,
                      min_sketch_len_for_budget, random_linear_code,
                      recover_fixed, run_correctness_experiment,
                      run_false_accept_experiment, run_lsh_experiment,
                      run_complexity_experiment, thresholds)


def _criterion(num: int, name: str, passed: bool, detail: str = ""):
    line = f"[ACCEPTANCE {num}] {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_rv_distance_expectation():
    # k* = 16, distance 4, n = 512, 1e4 fresh index vectors:
    # mean within 3 sigma/sqrt(trials) of 128, under 5 seconds
    t0 = time.perf_counter()
    r = run_lsh_experiment(ExperimentConfig(kind="lsh", trials=10_000, seed=5,
                                            k_star=16, distance=4, n=512))
    elapsed = time.perf_counter() - t0
    ok = r.passed and abs(r.mean - 128.0) <= r.tolerance and elapsed < 5.0
    _criterion(1, "RV distance expectation", ok,
               f"mean={r.mean:.4f} tol={r.tolerance:.4f} {elapsed:.2f}s")


def test_criterion_2_concentration_bounds():
    # exceedance frequencies at both tails never beat exp(-2 n eps^2) by
    # more than two standard errors over 1e5 trials, under 60 seconds
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (128, 512):
        r = exceedance_frequencies(16, n, Fraction(1, 4), Fraction(1, 8),
                                   100_000, SeededRng(21))
        se = math.sqrt(r.bound * (1 - r.bound) / r.trials)
        limit = r.bound + 2 * se
        ok &= r.similar_given_far <= limit and r.distant_given_near <= limit
        details.append(f"n={n}: {r.similar_given_far:.2e}/"
                       f"{r.distant_given_near:.2e} vs {r.bound:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _criterion(2, "concentration exceedance", ok,
               "; ".join(details) + f" {elapsed:.1f}s")


def test_criterion_3_recovery_success_floors():
    # 1e3 seeded round-trips against the 1 - 2^-(k-n*) floors, one-sided
    # binomial gate at 99%, under 2 minutes
    t0 = time.perf_counter()
    a = run_correctness_experiment(ExperimentConfig(
        kind="correctness", trials=1_000, seed=7,
        inner_spec="bch:4:2", outer_spec="bch:5:3",
        eps_ss=Fraction(1, 14), w_prime_distance=1))
    b = run_correctness_experiment(ExperimentConfig(
        kind="correctness", trials=1_000, seed=7,
        inner_spec="bch:4:2", outer_spec="random:26:18",
        eps_ss=Fraction(1, 14), w_prime_distance=1))
    elapsed = time.perf_counter() - t0

    def gate(result, floor):
        if result.rate >= floor:
            return True
        return binomtest(result.successes, result.trials, floor,
                         alternative="less").pvalue > 0.01

    ok = (a.floor == 0.5 and gate(a, 0.5)
          and b.floor == 0.875 and gate(b, 0.875)
          and elapsed < 120.0)
    _criterion(3, "recovery success floors", ok,
               f"k-n*=1: {a.rate:.3f}>=0.5; k-n*=3: {b.rate:.3f}>=0.875; "
               f"{elapsed:.1f}s")


def test_criterion_4_false_accept_rate():
    # decoy iterations with fresh random codes: observed zero-prefix
    # acceptance within a factor of two of 2^-(k-n*) for each delta
    results = run_false_accept_experiment(ExperimentConfig(
        kind="false_accept", seed=9, deltas=(1, 3, 6), min_iterations=10_000))
    ok = all(r.passed and r.iterations >= 10_000 for r in results)
    detail = "; ".join(f"d={r.delta}: {r.rate:.4f} vs {r.expected:.4f}"
                       for r in results)
    _criterion(4, "false-accept rate", ok, detail)


def test_criterion_5_enumeration_accounting():
    # exhausted enumerations hit C(k*, floor(k* eps)) exactly and stay
    # inside the 2^(k* h2(eps)) envelope across the grid
    cells = run_complexity_experiment(ExperimentConfig(
        kind="complexity", trials=3, seed=5,
        grid_k=(8, 12, 16), grid_eps=(Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))))
    ok = all(c.passed and c.iterations_max == c.expected
             and c.expected <= c.entropy_bound for c in cells)
    _criterion(5, "enumeration accounting", ok,
               f"{len(cells)} cells, max C(16,8)={cells[-1].expected}")


def test_criterion_6_decoder_oracle_equivalence():
    # coset-leader decode against brute-force nearest codeword:
    # all 128 words for [7,4]; 1e4 random words for [15,7] and [31,16]
    mismatches = 0

    def check(code, words):
        nonlocal mismatches
        packed = pack_rows(all_codewords_matrix(code.G))
        for word in words:
            got = decode(code, word)
            expect = nearest_codeword(
                packed, int(pack_rows(word.bits[None, :])[0]), code.t)
            if expect is None:
                mismatches += got is not None
            else:
                mismatches += got is None or int(
                    pack_rows(got.bits[None, :])[0]) != expect[0]

    hamming = bch_code(3, 1)
    check(hamming, (BitString([(x >> i) & 1 for i in range(7)])
                    for x in range(1 << 7)))
    rng = SeededRng(33)
    check(bch_code(4, 2), (rng.random_bits(15) for _ in range(10_000)))
    check(bch_code(5, 3), (rng.random_bits(31) for _ in range(10_000)))
    _criterion(6, "decoder oracle equivalence", mismatches == 0,
               f"{mismatches} mismatches over 20128 inputs")


def test_criterion_7_bound_boundary_identities():
    rel = 1e-12
    ok = True
    # converse cap stays strictly below one at eps = 1/(2 k*)
    for k_star in (2, 4, 8, 16, 64):
        val = 1.0 - binary_entropy(Fraction(1, 2 * k_star))
        ok &= val < 1.0
    # worst-case tolerance: t_plus = floor(k*/2) at eps_ss = xi = 1/4
    for k_star in (7, 8, 15, 16, 31):
        th = thresholds(k_star, 4 * k_star, Fraction(1, 4), Fraction(1, 4))
        ok &= th.t_plus == k_star // 2
    # exp(-1) identity at n = 2 k*^2, eps = 1/(2 k*), and it beats 1/2
    for k_star in (4, 7, 16):
        got = hoeffding_bound(2 * k_star * k_star, Fraction(1, 2 * k_star))
        ok &= math.isclose(got, math.exp(-1.0), rel_tol=rel) and got < 0.5
    _criterion(7, "bound boundary identities", ok, "rel tol 1e-12")


def test_criterion_8_iteration_budget_substitution():
    # (a) whenever the enumeration budget fits the zero-prefix state count
    # and the outer code is a full-length BCH (2^(k-n*) == n+1), measured
    # iterations never exceed n+1
    eps_ss = Fraction(1, 16)
    eps_rec = 2 * eps_ss
    configs = []
    rng = SeededRng(61)
    inner1 = random_linear_code(11, 8, rng.spawn(1))
    configs.append((inner1, bch_code(5, 3)))       # [31,16], k-n* = 5
    inner2 = random_linear_code(45, 8, rng.spawn(2))
    configs.append((inner2, bch_code(6, 2)))       # [63,51], k-n* = 6

    ok = True
    details = []
    for idx, (inner, outer) in enumerate(configs):
        params = SketchParams.from_codes(inner, outer, eps_ss)
        chk = efficiency_bound_check(params.k_star, eps_rec, params.k,
                                     params.n_star)
        ok &= chk.holds and 2 ** (params.k - params.n_star) == params.n + 1
        crng = SeededRng(71 + idx)
        w = crng.spawn(1).random_bits(8)
        N = gen_index_vector(8, params.n, crng.spawn(2))
        sk = make_sketch(w, N, eps_ss, params, crng.spawn(3))
        near = recover_fixed(sk, w, eps_rec, inner, outer)
        far = recover_fixed(sk, BitString(1 - w.bits), eps_rec, inner, outer)
        ok &= near.iterations_used <= params.n + 1
        ok &= far.iterations_used <= params.n + 1
        details.append(f"n={params.n}: {near.iterations_used}/"
                       f"{far.iterations_used} <= {params.n + 1}")

    # (b) the budget-satisfying sketch length is exponential in k*
    table = []
    prev_n = None
    for k_star in (8, 10, 12):
        m_prime, n = min_sketch_len_for_budget(k_star, Fraction(1, 8))
        floor_needed = 2 ** (k_star * binary_entropy(Fraction(1, 4))) - 1
        ok &= n + 1 >= floor_needed + 1
        if prev_n is not None:
            ok &= n >= 2 * prev_n
        prev_n = n
        table.append(f"k*={k_star}: n={n}")
    print("    sketch-size coupling: " + "; ".join(table))
    _criterion(8, "iteration budget substitution", ok, "; ".join(details))
