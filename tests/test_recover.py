import math
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (enumerate_errors, error_vector_at_rank,
                     first_accepting_candidate, scan_report, scan_supports)
from rvsketch import (BitString, DimensionError, IndexVector, LinearCode,
                      ParameterError, SeededRng, SketchParams, bch_code,
                      decode, encode, gen_index_vector, make_sketch,
                      random_linear_code, recover_fixed, recover_sweep)
from rvsketch import recover
from rvsketch.bitcore import support_batches
from rvsketch.recover import _BLOCK_ROWS


@pytest.fixture(scope="module")
def codes():
    return bch_code(4, 2), bch_code(5, 3)


def _sketch(codes, seed, eps=Fraction(1, 14)):
    inner, outer = codes
    params = SketchParams.from_codes(inner, outer, eps)
    rng = SeededRng(seed)
    w = rng.spawn(1).random_bits(7)
    N = gen_index_vector(7, 31, rng.spawn(2))
    return w, make_sketch(w, N, eps, params, rng.spawn(3))


class TestEnumerateErrors:
    def test_weight_zero(self):
        assert list(enumerate_errors(4, 0)) == [BitString("0000")]

    def test_singletons_in_order(self):
        got = [str(e) for e in enumerate_errors(4, 1)]
        assert got == ["1000", "0100", "0010", "0001"]

    def test_count_and_dedup(self):
        got = list(enumerate_errors(16, 4))
        assert len(got) == 1820
        assert len({str(e) for e in got}) == 1820
        assert all(e.weight == 4 for e in got)

    def test_lexicographic_support_order(self):
        supports = [tuple(np.nonzero(e.bits)[0]) for e in enumerate_errors(6, 3)]
        assert supports == sorted(supports)
        assert supports == list(combinations(range(6), 3))

    def test_weight_out_of_range(self):
        with pytest.raises(ParameterError):
            list(enumerate_errors(4, 5))
        with pytest.raises(ParameterError):
            list(enumerate_errors(4, -1))


class TestErrorVectorAtRank:
    @pytest.mark.parametrize("k_star,weight", [(6, 3), (8, 2), (5, 5), (7, 0)])
    def test_matches_enumeration(self, k_star, weight):
        listed = list(enumerate_errors(k_star, weight))
        for rank, expect in enumerate(listed):
            assert error_vector_at_rank(k_star, weight, rank) == expect

    def test_rank_out_of_range(self):
        with pytest.raises(ParameterError):
            error_vector_at_rank(5, 2, 10)


def _padded_supports(n, weights):
    """Every support of each weight class in turn, as one (width, total)
    gather index from itertools.combinations, padded with the sentinel n."""
    width = max(weights)
    columns = [list(c) + [n] * (width - w)
               for w in weights for c in combinations(range(n), w)]
    return np.array(columns, dtype=np.intp).reshape(len(columns), width).T


class TestUnranking:
    """Each batch is unranked from its ranks and matches
    itertools.combinations, within a class and across classes."""

    @pytest.mark.parametrize("n,w", [(18, 9), (20, 7), (22, 6)])
    def test_class_across_batches_against_combinations(self, n, w):
        assert math.comb(n, w) > _BLOCK_ROWS
        expect = np.array(list(combinations(range(n), w)))
        batches = list(support_batches(n, [w - 1, w], _BLOCK_ROWS))
        assert all(b.shape[1] == _BLOCK_ROWS for b in batches[:-1])
        padded = np.full((math.comb(n, w - 1), w), n)
        padded[:, :w - 1] = list(combinations(range(n), w - 1))
        assert np.array_equal(np.concatenate(batches, axis=1).T,
                              np.concatenate([padded, expect]))

    @pytest.mark.parametrize("n,weights,rows", [
        (10, [2, 0, 3], 7),     # boundaries inside and across classes
        (7, [0, 1, 2, 3], 5),
        (6, [3, 1], 1),         # one support per batch
        (12, [4], 1),
        (5, [0], 1),            # width 0, one batch
        (5, [0, 0, 0], 2),      # width 0, a short last batch
    ])
    def test_batch_boundaries(self, n, weights, rows):
        batches = list(support_batches(n, weights, rows))
        assert [b.shape[1] for b in batches[:-1]] == [rows] * (len(batches) - 1)
        assert 1 <= batches[-1].shape[1] <= rows
        assert np.array_equal(np.concatenate(batches, axis=1),
                              _padded_supports(n, weights))

    def test_class_past_int64_ranks(self):
        # C(80, 40) > 2^63: the ranks are Python ints, the index is intp
        n, w, rows = 80, 40, 50
        assert math.comb(n, w) >= 1 << 63
        batches = support_batches(n, [w], rows)
        first = next(batches)
        later = next(islice(batches, 3, None))   # ranks 200..249
        expect = islice(combinations(range(n), w), 0, 250)
        expect = np.array(list(expect), dtype=np.intp).T
        for index, lo in ((first, 0), (later, 200)):
            _assert_gather_index(index, w)
            assert np.array_equal(index, expect[:, lo:lo + rows])
        assert np.array_equal(later[:, -1], np.nonzero(
            error_vector_at_rank(n, w, 249).bits)[0])

    @pytest.mark.parametrize("n,w", [(66, 33), (67, 33)])
    def test_first_batch_either_side_of_int64_ranks(self, n, w):
        # C(66, 33) < 2^63 <= C(67, 33) < 2^64: int64 ranks, then Python ints
        assert (math.comb(n, w) < 1 << 63) == (n == 66)
        assert math.comb(n, w) < 1 << 64
        index = next(support_batches(n, [w], 64))
        _assert_gather_index(index, w)
        expect = list(islice(combinations(range(n), w), 64))
        assert np.array_equal(index, np.array(expect).T)

    def test_schedule_past_int64_ranks_across_classes(self):
        # the weight-1 class fills 80 columns, then the weight-40 class starts
        index = next(support_batches(80, [1, 40], 100))
        _assert_gather_index(index, 40)
        assert np.array_equal(index[0, :80], np.arange(80))
        assert (index[1:, :80] == 80).all()
        expect = list(islice(combinations(range(80), 40), 20))
        assert np.array_equal(index[:, 80:], np.array(expect).T)


def _spy_batches(monkeypatch):
    """A list that collects each 2-D gather index the scan passes xor_gather
    from now on; the 1-D ones build the constant word."""
    batches, real = [], recover.xor_gather
    monkeypatch.setattr(recover, "xor_gather", lambda table, index: index.ndim == 2
                        and batches.append(index) or real(table, index))
    return batches


def _assert_gather_index(index, width):
    assert index.dtype == np.intp
    assert index.flags.c_contiguous
    assert index.ndim == 2 and index.shape[0] == width


class TestGatherIndexLayout:
    """Every batch is the C-ordered intp (width, B) index xor_gather takes."""

    @pytest.mark.parametrize("n,weights,rows", [
        (7, [0, 1, 2, 3], 10),          # runs across weight classes
        (20, [6, 7], _BLOCK_ROWS),      # the weight-7 class spans batches
        (5, [0], 4),                    # width 0
        (5, [0], 1),                    # width 0, one column per batch
        (10, [2, 0, 3], 7),             # boundaries inside and across classes
    ])
    def test_support_batches(self, n, weights, rows):
        batches = list(support_batches(n, weights, rows))
        for index in batches:
            _assert_gather_index(index, max(weights))
        assert all(index.shape[1] == rows for index in batches[:-1])
        assert sum(index.shape[1] for index in batches) == \
            sum(math.comb(n, w) for w in weights)

    def test_cached_and_streamed_schedules(self, codes, monkeypatch):
        # seed 0's far probe exhausts all 64 candidates of weights 0..3
        w, sk = _sketch(codes, seed=0)
        far = BitString(1 - w.bits)
        recover._plan.cache_clear()
        batches = _spy_batches(monkeypatch)
        assert recover_sweep(sk, far, *codes, max_weight=3).iterations_used == 64
        cached, = batches
        _assert_gather_index(cached, 3)
        assert cached.shape == (3, 64)
        # class ends, the index, and no nibbles: 64 candidates gather directly
        assert recover._plan(7, (0, 1, 2, 3), _BLOCK_ROWS, (), 31, 15)[:3] == \
            ((1, 8, 29, 64), cached, None)
        assert recover._plan(7, (0, 1, 2, 3), 64, (), 31, 15)[1].shape == (3, 64)
        # past rows candidates the plan holds no index, and the scan streams
        monkeypatch.setattr(recover, "_BLOCK_ROWS", 5)
        batches.clear()
        assert recover_sweep(sk, far, *codes, max_weight=3).iterations_used == 64
        assert recover._plan(7, (0, 1, 2, 3), 5, (), 31, 15)[:3] == \
            ((1, 8, 29, 64), None, None)
        for index in batches:
            _assert_gather_index(index, 3)
        assert [index.shape[1] for index in batches] == [5] * 12 + [4]
        assert np.array_equal(np.concatenate(batches, axis=1), cached)


class TestRecoverFixed:
    def test_noiseless_identity_single_iteration(self, codes):
        w, sk = _sketch(codes, seed=5)
        report = recover_fixed(sk, w, Fraction(1, 14), *codes)
        assert report.outcome == w
        assert report.iterations_used == 1
        assert report.accepted_weight == 0

    def test_wall_time_is_the_call_time(self, codes):
        w, sk = _sketch(codes, seed=5)
        start = time.perf_counter()
        report = recover_fixed(sk, BitString(1 - w.bits), Fraction(2, 7), *codes)
        assert 0 < report.wall_time_ms <= (time.perf_counter() - start) * 1e3

    def test_distance_one_within_seven_iterations(self, codes):
        # weight-1 enumeration over k* = 7 candidates; oracle re-derives the
        # first accepting candidate through the public pipeline ops
        inner, outer = codes
        for seed in (0, 1, 2, 3):
            w, sk = _sketch(codes, seed=seed)
            wp_bits = w.bits.copy()
            wp_bits[seed % 7] ^= 1
            wp = BitString(wp_bits)
            report = recover_fixed(sk, wp, Fraction(1, 7), inner, outer)
            assert report.outcome == w
            assert report.iterations_used <= 7
            oracle = first_accepting_candidate(sk, wp, 1, inner, outer)
            assert oracle is not None
            assert oracle[0] + 1 == report.iterations_used
            assert oracle[1] == report.outcome

    def test_eps_range_enforced(self, codes):
        w, sk = _sketch(codes, seed=5)
        with pytest.raises(ParameterError,
                           match=r"^eps_rec = 1/100 outside \[1/14, 1/2\]$"):
            recover_fixed(sk, w, Fraction(1, 100), *codes)
        with pytest.raises(ParameterError,
                           match=r"^eps_rec = 2/3 outside \[1/14, 1/2\]$"):
            recover_fixed(sk, w, "2/3", *codes)

    def test_dimension_error(self, codes):
        _, sk = _sketch(codes, seed=5)
        with pytest.raises(DimensionError):
            recover_fixed(sk, BitString.zeros(8), Fraction(1, 7), *codes)

    def test_inconsistent_codes_rejected(self, codes):
        w, sk = _sketch(codes, seed=5)
        other = random_linear_code(31, 16, SeededRng(1))
        with pytest.raises(ParameterError):
            recover_fixed(sk, w, Fraction(1, 7), codes[0], other)

    def test_deterministic_reports(self, codes):
        w, sk = _sketch(codes, seed=6)
        wp = BitString(1 - w.bits)
        a = recover_fixed(sk, wp, Fraction(3, 7), *codes)
        b = recover_fixed(sk, wp, Fraction(3, 7), *codes)
        assert a == b  # wall time excluded from equality

    def test_exhaustion_counts_full_enumeration(self, codes):
        # far probe with a decode-failure-heavy outer: exhausts C(7,1) = 7
        inner = codes[0]
        outer = random_linear_code(40, 24, SeededRng(40))
        params = SketchParams.from_codes(inner, outer, Fraction(1, 14))
        rng = SeededRng(41)
        w = rng.spawn(1).random_bits(7)
        N = gen_index_vector(7, 40, rng.spawn(2))
        sk = make_sketch(w, N, Fraction(1, 14), params, rng.spawn(3))
        report = recover_fixed(sk, BitString(1 - w.bits), Fraction(1, 7),
                               inner, outer)
        assert report.outcome is None
        assert report.iterations_used == 7
        assert report.first_decode_failures == 7


class TestRecoverSweep:
    def test_noiseless_accepts_at_weight_zero(self, codes):
        w, sk = _sketch(codes, seed=7)
        report = recover_sweep(sk, w, *codes)
        assert report.outcome == w and report.accepted_weight == 0
        assert report.iterations_used == 1

    def test_inner_absorbs_distance_two(self, codes):
        # seed picked so the RV offset of the unmodified probe stays within
        # the outer radius; the inner stage then absorbs both disagreements
        w, sk = _sketch(codes, seed=1095)
        wp_bits = w.bits.copy()
        wp_bits[[0, 3]] ^= 1
        report = recover_sweep(sk, BitString(wp_bits), *codes, max_weight=3)
        assert report.outcome == w
        assert report.accepted_weight == 0

    def test_inner_absorbs_with_crafted_index_vector(self, codes):
        # index vector that never samples the disagreement positions makes
        # the weight-0 absorption deterministic
        inner, outer = codes
        params = SketchParams.from_codes(inner, outer, Fraction(1, 14))
        w = SeededRng(50).random_bits(7)
        allowed = np.array([i + 1 for i in range(7) if i not in (0, 3)],
                           dtype=np.uint32)
        rng = SeededRng(51)
        N = IndexVector(allowed[rng.integers(0, len(allowed), size=31)], 7)
        sk = make_sketch(w, N, Fraction(1, 14), params, SeededRng(52))
        wp_bits = w.bits.copy()
        wp_bits[[0, 3]] ^= 1
        report = recover_sweep(sk, BitString(wp_bits), inner, outer)
        assert report.outcome == w
        assert report.accepted_weight == 0
        assert report.iterations_used == 1

    def test_distance_four_needs_weight_two_or_more(self, codes):
        # the error vector must cancel at least two disagreements before the
        # residual fits the inner radius; verified against the oracle sweep
        inner, outer = codes
        for seed in (2003, 2008, 2017):
            w, sk = _sketch(codes, seed=seed)
            wp_bits = w.bits.copy()
            wp_bits[[0, 2, 4, 6]] ^= 1
            wp = BitString(wp_bits)
            report = recover_sweep(sk, wp, inner, outer, max_weight=3)
            assert report.outcome == w
            assert report.accepted_weight >= 2
            for weight in range(report.accepted_weight):
                assert first_accepting_candidate(sk, wp, weight, inner, outer) is None
            oracle = first_accepting_candidate(sk, wp, report.accepted_weight,
                                               inner, outer)
            assert oracle is not None and oracle[1] == report.outcome

    def test_iteration_accumulation(self, codes):
        inner = codes[0]
        outer = random_linear_code(40, 24, SeededRng(42))
        params = SketchParams.from_codes(inner, outer, Fraction(1, 14))
        rng = SeededRng(43)
        w = rng.spawn(1).random_bits(7)
        N = gen_index_vector(7, 40, rng.spawn(2))
        sk = make_sketch(w, N, Fraction(1, 14), params, rng.spawn(3))
        report = recover_sweep(sk, BitString(1 - w.bits), inner, outer,
                               max_weight=3)
        assert report.outcome is None
        assert report.iterations_used == sum(math.comb(7, w) for w in range(4))

    def test_max_weight_cap(self, codes):
        w, sk = _sketch(codes, seed=8)
        with pytest.raises(ParameterError):
            recover_sweep(sk, w, *codes, max_weight=4)   # floor(7/2) = 3

    @pytest.mark.parametrize("max_weight", [2.5, 2.0, "2", Fraction(2)])
    def test_max_weight_must_be_an_integer(self, codes, max_weight):
        w, sk = _sketch(codes, seed=8)
        with pytest.raises(ParameterError, match="is not an integer"):
            recover_sweep(sk, w, *codes, max_weight=max_weight)


class TestProbeInput:
    """A probe may be anything BitString takes; it is converted once."""

    @pytest.mark.parametrize("like", [str, lambda w: w.bits.tolist(),
                                      lambda w: w.bits.copy(),
                                      lambda w: w.bits.astype(bool)])
    def test_bitstring_like_probes(self, codes, like):
        w, sk = _sketch(codes, seed=21)
        probe = BitString(w.bits ^ np.eye(1, 7, 3, dtype=np.uint8)[0])
        assert recover_sweep(sk, like(probe), *codes) == recover_sweep(sk, probe, *codes)
        eps = Fraction(2, 7)
        assert (recover_fixed(sk, like(probe), eps, *codes)
                == recover_fixed(sk, probe, eps, *codes))

    @pytest.mark.parametrize("probe,error", [("01x0101", ParameterError),
                                             ([0, 1, 2, 0, 1, 0, 1], ParameterError),
                                             ("010101", DimensionError),
                                             (np.zeros(8, dtype=np.uint8), DimensionError)])
    def test_bad_probes(self, codes, probe, error):
        _, sk = _sketch(codes, seed=21)
        with pytest.raises(error):
            recover_sweep(sk, probe, *codes)
        with pytest.raises(error):
            recover_fixed(sk, probe, Fraction(2, 7), *codes)


class TestAcceptanceSoundness:
    def test_accepted_candidate_reproduces_the_decode_chain(self, codes):
        # for a successful run, rebuild the accepting candidate from the
        # report and check the arithmetic that justified the acceptance
        from rvsketch import (decode, encode, invert_message, sample_bits,
                              zero_pad_prefix)
        inner, outer = codes
        for seed in (0, 1, 2, 3, 12, 13):
            w, sk = _sketch(codes, seed=seed)
            wp_bits = w.bits.copy()
            wp_bits[(seed * 3) % 7] ^= 1
            wp = BitString(wp_bits)
            report = recover_fixed(sk, wp, Fraction(1, 7), inner, outer)
            if report.outcome is None:
                continue
            e_prime = error_vector_at_rank(7, report.accepted_weight,
                                           report.iterations_used - 1)
            we = wp ^ e_prime
            phi = sample_bits(we, sk.N)
            c = decode(outer, sk.ss ^ phi)
            assert c is not None
            assert (c.bits != (sk.ss ^ phi).bits).sum() <= outer.t
            v_star = invert_message(outer, c)
            assert v_star.prefix(1).weight == 0
            corrupted = v_star.suffix(15) ^ zero_pad_prefix(we, 8)
            c_star = decode(inner, corrupted)
            assert c_star is not None
            assert (c_star.bits != corrupted.bits).sum() <= inner.t
            assert encode(inner, report.outcome) == c_star
            if c_star == corrupted:
                # zero inner residual: the sketching tail reproduces c exactly
                v_syn = c_star ^ zero_pad_prefix(we, 8)
                assert encode(outer, zero_pad_prefix(v_syn, 1)) == c


def _counts(report):
    return (report.iterations_used, report.first_decode_failures,
            report.false_accepts_observed, report.accepted_weight,
            report.outcome)


def _merged_chunks(sk, w_prime, weight, inner, outer, parts):
    """Scan one weight class as `parts` contiguous rank ranges, each rebuilt
    independently from error_vector_at_rank, and merge them in rank order:
    counts add up to and including the first range that accepts."""
    k_star = sk.params.k_star
    total = math.comb(k_star, weight)
    cuts = [total * i // parts for i in range(parts + 1)]
    iterations = outer_fails = inner_fails = 0
    for lo, hi in zip(cuts, cuts[1:]):
        supports = ((weight, np.flatnonzero(
            error_vector_at_rank(k_star, weight, r).bits)) for r in range(lo, hi))
        it, of, inf, aw, out = scan_supports(sk, w_prime, supports, inner, outer)
        iterations += it
        outer_fails += of
        inner_fails += inf
        if out is not None:
            return iterations, outer_fails, inner_fails, aw, out
    return iterations, outer_fails, inner_fails, None, None


class TestPartitionedEquivalence:
    """recover_fixed's report equals the scan_report oracle and the
    rank-ordered merge of the same weight class split into `parts` ranges."""

    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    def test_accepting_case(self, codes, parts):
        w, sk = _sketch(codes, seed=3)
        wp_bits = w.bits.copy()
        wp_bits[4] ^= 1
        wp = BitString(wp_bits)
        report = recover_fixed(sk, wp, Fraction(1, 7), *codes)
        assert report.outcome == w
        assert _counts(report) == scan_report(sk, wp, [1], *codes)
        assert _counts(report) == _merged_chunks(sk, wp, 1, *codes, parts)

    @pytest.mark.parametrize("parts", [2, 5])
    def test_event_heavy_case(self, codes, parts):
        # far probe at weight 3: plenty of decode failures and prefix events
        w, sk = _sketch(codes, seed=9)
        wp = BitString(1 - w.bits)
        report = recover_fixed(sk, wp, Fraction(3, 7), *codes)
        assert _counts(report) == scan_report(sk, wp, [3], *codes)
        assert _counts(report) == _merged_chunks(sk, wp, 3, *codes, parts)

    def test_exhausting_case(self, codes):
        inner = codes[0]
        outer = random_linear_code(40, 24, SeededRng(44))
        params = SketchParams.from_codes(inner, outer, Fraction(1, 14))
        rng = SeededRng(45)
        w = rng.spawn(1).random_bits(7)
        N = gen_index_vector(7, 40, rng.spawn(2))
        sk = make_sketch(w, N, Fraction(1, 14), params, rng.spawn(3))
        wp = BitString(1 - w.bits)
        report = recover_fixed(sk, wp, Fraction(2, 7), inner, outer)
        assert report.outcome is None
        assert _counts(report) == scan_report(sk, wp, [2], inner, outer)
        assert _counts(report) == _merged_chunks(sk, wp, 2, inner, outer, 4)

    def test_sweep_crosses_weight_classes(self, codes):
        w, sk = _sketch(codes, seed=2003)
        wp_bits = w.bits.copy()
        wp_bits[[0, 2, 4, 6]] ^= 1
        wp = BitString(wp_bits)
        report = recover_sweep(sk, wp, *codes, max_weight=3)
        assert report.accepted_weight >= 2
        assert _counts(report) == scan_report(sk, wp, range(4), *codes)


def _decoy_case(s):
    """decoy_fresh_codes-shaped: random [10,8] inner, square random [13,13]
    outer (so every candidate reaches the prefix test), complement probe
    scanned at weight 3 (C(8,3) = 56 candidates)."""
    inner = random_linear_code(10, 8, SeededRng(1))
    outer = random_linear_code(13, 13, SeededRng(100 + s))
    params = SketchParams.from_codes(inner, outer, Fraction(1, 16))
    w = SeededRng(200 + s).random_bits(8)
    N = gen_index_vector(8, 13, SeededRng(300 + s))
    sk = make_sketch(w, N, Fraction(1, 16), params, SeededRng(400 + s))
    return sk, BitString(1 - w.bits), inner, outer


@st.composite
def _scan_cases(draw, shapes=("square", "random", "bch", "wide", "boundary",
                              "straddle", "chunked")):
    """A sketch, a probe and a weight schedule over one of seven code shapes."""
    shape = draw(st.sampled_from(shapes))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = SeededRng(seed)
    if shape == "bch":
        inner = bch_code(4, 2)
        outer = bch_code(*draw(st.sampled_from([(5, 3), (6, 2), (6, 1)])))
    else:
        k_star = draw(st.integers(10, 12) if shape == "chunked" else st.integers(3, 8))
        inner = random_linear_code(k_star + draw(st.integers(0, 2)), k_star,
                                   rng.spawn(1))
        if shape == "chunked":   # k* = 12 at weight 4 gathers by chunk keys
            k = inner.n + draw(st.integers(1, 4))
            n, k = draw(st.sampled_from([(k + draw(st.integers(1, 12)), k),
                                         (100, 40)]))
        elif shape == "wide":   # a packed word spans three uint64s
            n, k = 140, 70
        elif shape == "boundary":   # n at either side of a word boundary
            n = draw(st.sampled_from([64, 65, 128, 129]))
            k = draw(st.integers(inner.n + 1, n))
        elif shape == "straddle":   # syndrome and prefix bits cross bit 64
            n, k = 100, 60
        else:
            k = inner.n + draw(st.integers(1, 4))
            n = k if shape == "square" else k + draw(st.integers(1, 12))
        outer = random_linear_code(n, k, rng.spawn(2))
    k_star = inner.k
    params = SketchParams.from_codes(inner, outer, Fraction(1, 2 * k_star))
    w = rng.spawn(3).random_bits(k_star)
    N = gen_index_vector(k_star, outer.n, rng.spawn(4))
    sk = make_sketch(w, N, Fraction(1, 2 * k_star), params, rng.spawn(5))
    if draw(st.booleans()):
        probe = BitString(1 - w.bits)   # far: mostly exhausting scans
    else:
        bits = w.bits.copy()
        bits[list(draw(st.sets(st.integers(0, k_star - 1), max_size=3)))] ^= 1
        probe = BitString(bits)
    top = min(4 if shape == "chunked" else 3, k_star // 2)
    if draw(st.booleans()):
        weights = [draw(st.integers(1, top))]
    else:
        weights = list(range(top + 1))
    return sk, probe, weights, inner, outer


class TestScanAgainstOracle:
    """The vectorized scan's reports equal the scalar scan_report oracle."""

    @settings(max_examples=150, deadline=None)
    @given(_scan_cases(), st.sampled_from([1, 2, 3, 7, 1 << 15]))
    def test_reports_match_the_oracle(self, case, rows):
        sk, probe, weights, inner, outer = case
        with mock.patch.object(recover, "_BLOCK_ROWS", rows):
            if weights[0]:   # a sweep starts at weight 0
                eps = Fraction(weights[0], sk.params.k_star)
                report = recover_fixed(sk, probe, eps, inner, outer)
            else:
                report = recover_sweep(sk, probe, inner, outer,
                                       max_weight=weights[-1])
        assert _counts(report) == scan_report(sk, probe, weights, inner, outer)

    @settings(max_examples=40, deadline=None)
    @given(_scan_cases(["chunked"]))
    def test_chunked_reports_match_the_oracle(self, case):
        # in one batch, k* = 12 at weight 4 or swept to 4 gathers by keys,
        # and k* = 10 at weight 3 gathers directly
        sk, probe, weights, inner, outer = case
        if weights[0]:
            report = recover_fixed(sk, probe, Fraction(weights[0], sk.params.k_star),
                                   inner, outer)
        else:
            report = recover_sweep(sk, probe, inner, outer, max_weight=weights[-1])
        assert _counts(report) == scan_report(sk, probe, weights, inner, outer)

    @pytest.mark.parametrize("rows", [1, 2, 5, 31, 32, 33])
    def test_accepts_on_and_across_batch_boundaries(self, codes, rows, monkeypatch):
        # sweep accepting at candidate 32 of 64 (weight 3, after 29 earlier)
        w, sk = _sketch(codes, seed=2003)
        wp_bits = w.bits.copy()
        wp_bits[[0, 2, 4, 6]] ^= 1
        wp = BitString(wp_bits)
        monkeypatch.setattr(recover, "_BLOCK_ROWS", rows)
        report = recover_sweep(sk, wp, *codes, max_weight=3)
        assert report.accepted_weight == 3
        assert _counts(report) == scan_report(sk, wp, range(4), *codes)

    @pytest.mark.parametrize("s", [0, 5])
    def test_decoy_shaped_scans(self, s):
        sk, probe, inner, outer = _decoy_case(s)
        report = recover_fixed(sk, probe, Fraction(3, 8), inner, outer)
        assert _counts(report) == scan_report(sk, probe, [3], inner, outer)


def _two_word_code():
    """A [70, 60], t = 1 code G = [I_60; P], P's columns the first 60 10-bit
    words of weight >= 2: H = [P | I_10] has 70 distinct nonzero columns."""
    cols = [v for v in range(1 << 10) if v & (v - 1)][:60]
    P = np.array([[(v >> i) & 1 for v in cols] for i in range(10)])
    return LinearCode(np.vstack([np.eye(60, dtype=np.uint8), P]), 1, "x")


class TestTwoWordDecodingOuter:
    """A t > 0 code whose packed words span two uint64s (n > 64)."""

    def test_decodes_every_single_error(self):
        code = _two_word_code()
        cw = encode(code, SeededRng(1).random_bits(60))
        assert decode(code, cw) == cw
        for i in range(70):
            bits = cw.bits.copy()
            bits[i] ^= 1
            assert decode(code, BitString(bits)) == cw

    def test_sweeps_match_the_oracle(self):
        outer = _two_word_code()
        inner = random_linear_code(10, 8, SeededRng(1))
        params = SketchParams.from_codes(inner, outer, Fraction(1, 8))
        recovered = 0
        for s in range(20):
            rng = SeededRng(s)
            w = rng.spawn(1).random_bits(8)
            N = gen_index_vector(8, 70, rng.spawn(2))
            sk = make_sketch(w, N, Fraction(1, 8), params, rng.spawn(3))
            bits = w.bits.copy()
            bits[rng.spawn(4).subset(8, s % 4)] ^= 1
            probe = BitString(bits)
            report = recover_sweep(sk, probe, inner, outer, max_weight=3)
            assert _counts(report) == scan_report(sk, probe, range(4), inner, outer)
            recovered += report.outcome == w
        assert 0 < recovered < 20


@st.composite
def _secret_swaps(draw):
    """Codes, N, the sketch error e (one seed), a noise d and two secrets."""
    rng = SeededRng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        inner = bch_code(4, 2)
        outer = bch_code(*draw(st.sampled_from([(5, 3), (6, 2)])))
    else:
        k_star = draw(st.integers(3, 8))
        inner = random_linear_code(k_star + draw(st.integers(0, 2)), k_star,
                                   rng.spawn(1))
        k = inner.n + draw(st.integers(1, 4))
        n, k = draw(st.sampled_from([(k, k), (k + draw(st.integers(1, 12)), k),
                                     (70, 60), (140, 70)]))
        outer = random_linear_code(n, k, rng.spawn(2))
    k_star = inner.k
    eps = draw(st.sampled_from([Fraction(1, 2 * k_star), Fraction(1, 4)]))
    params = SketchParams.from_codes(inner, outer, eps)
    N = gen_index_vector(k_star, outer.n, rng.spawn(3))
    d = np.zeros(k_star, dtype=np.uint8)
    d[list(draw(st.sets(st.integers(0, k_star - 1), max_size=4)))] = 1
    secrets = rng.spawn(4).random_bits(k_star), rng.spawn(5).random_bits(k_star)
    return params, N, eps, rng.spawn(6).seed, BitString(d), secrets


class TestSecretSwap:
    """Every stage is GF(2)-linear and a bounded-distance decoder commutes
    with adding a codeword, so a report depends on the codes, N and the
    noise d = w' xor w_e alone: two secrets sketched with the same N and e
    and probed at the same d agree on every count and on outcome xor w."""

    @settings(max_examples=100, deadline=None)
    @given(_secret_swaps())
    def test_reports_agree_up_to_the_secret(self, case):
        params, N, eps, seed, d, secrets = case
        top = min(3, params.k_star // 2)
        seen = []
        for w in secrets:
            sk, dbg = make_sketch(w, N, eps, params, SeededRng(seed), debug=True)
            r = recover_sweep(sk, dbg.w_e ^ d, params.inner, params.outer,
                              max_weight=top)
            seen.append((dbg.e, r.iterations_used, r.accepted_weight,
                         r.first_decode_failures, r.false_accepts_observed,
                         None if r.outcome is None else r.outcome ^ w))
        assert seen[0] == seen[1]


class TestScalarAttemptCalls:
    """Accepting and exhausting scans match the scalar scan_report oracle,
    the secret included, on cases the hypothesis strategy does not draw
    (a BCH [31,16] t=3 inner) and on decoy-shaped scans. The scan is the
    only recovery path: no scalar pipeline confirms its accept."""

    def test_exhaustive_bch_scan(self):
        inner, outer = bch_code(5, 3), bch_code(6, 2)
        params = SketchParams.from_codes(inner, outer, Fraction(1, 8))
        rng = SeededRng(16)
        w = rng.spawn(1).random_bits(16)
        N = gen_index_vector(16, 63, rng.spawn(2))
        sk, dbg = make_sketch(w, N, Fraction(1, 8), params, rng.spawn(3),
                              debug=True)
        probe = BitString(1 - w.bits)
        far = recover_fixed(sk, probe, Fraction(5, 16), inner, outer)
        assert far.outcome is None and far.iterations_used == 4368
        assert _counts(far) == scan_report(sk, probe, [5], inner, outer)
        near = dbg.w_e ^ error_vector_at_rank(16, 5, 3000)
        report = recover_fixed(sk, near, Fraction(5, 16), inner, outer)
        assert report.outcome == w and report.iterations_used <= 3001
        assert _counts(report) == scan_report(sk, near, [5], inner, outer)

    @pytest.mark.parametrize("s,accepts", [(0, True), (5, False)])
    def test_decoy_shaped_scan(self, s, accepts):
        sk, probe, inner, outer = _decoy_case(s)
        report = recover_fixed(sk, probe, Fraction(3, 8), inner, outer)
        assert report.succeeded == accepts
        assert _counts(report) == scan_report(sk, probe, [3], inner, outer)

    @pytest.mark.parametrize("n,outer_fails", [(100, 1), (129, 8)])
    def test_checked_bits_past_the_first_word(self, n, outer_fails):
        # outer G = [I_60; 0]: a word's syndrome is its last n-60 bits and
        # its message its first 60, so packed bit b reads position b+60
        # (b < n-60) or b-(n-60). Every position whose packed bit is a
        # checked one (syndrome or prefix) at or past bit 64 samples source
        # bit 7, all others bit 0. The probe flips bit 7, so every candidate
        # that leaves bit 7 flipped is clean in the first word and must be
        # rejected on the second: at n = 100 by the prefix, at n = 129
        # (n-k = 69) by the syndrome. Flipping bit 7 back accepts.
        k, k_star, n_star = 60, 8, 10
        r = n - k
        inner = random_linear_code(n_star, k_star, SeededRng(10))
        outer = LinearCode(np.eye(n, k, dtype=np.uint8), 0, "random")
        packed_bit = [i + r if i < k else i - k for i in range(n)]
        N = IndexVector(np.array([8 if 64 <= b < n - n_star else 1
                                  for b in packed_bit]), k_star)
        eps = Fraction(1, 16)   # sketch error weight 0
        params = SketchParams.from_codes(inner, outer, eps)
        w = SeededRng(11).random_bits(k_star)
        sk = make_sketch(w, N, eps, params, SeededRng(12))
        bits = w.bits.copy()
        bits[7] ^= 1
        probe = BitString(bits)
        report = recover_sweep(sk, probe, inner, outer, max_weight=1)
        assert _counts(report) == (9, outer_fails, 0, 1, w)
        assert _counts(report) == scan_report(sk, probe, [0, 1], inner, outer)

    @pytest.mark.parametrize("flips", [(1, 6), (0, 1, 2, 3, 4, 5, 6, 7)])
    def test_folded_bits_straddle_a_word_boundary(self, flips):
        # outer [70, 60] and k* = 8: w' xor e' is folded into bits 62..69
        inner = random_linear_code(10, 8, SeededRng(40))
        outer = random_linear_code(70, 60, SeededRng(41))
        eps = Fraction(1, 8)
        params = SketchParams.from_codes(inner, outer, eps)
        w = SeededRng(42).random_bits(8)
        N = gen_index_vector(8, 70, SeededRng(43))
        sk, dbg = make_sketch(w, N, eps, params, SeededRng(44), debug=True)
        bits = dbg.w_e.bits.copy()
        bits[list(flips)] ^= 1
        probe = BitString(bits)
        report = recover_sweep(sk, probe, inner, outer, max_weight=3)
        assert (report.outcome == w) is (len(flips) <= 3)
        assert _counts(report) == scan_report(sk, probe, range(4), inner, outer)

    def test_no_scalar_pipeline(self):
        assert not hasattr(recover, "_Pipeline")


class TestTwoLevelGather:
    """A large enough cached schedule gathers one subset word per 8 source
    bits, from subset words built per call, not one table row per bit."""

    @pytest.mark.parametrize("k_star,weights,n,n_star,shape", [
        (16, (5,), 63, 31, (2, 4368)),       # exhaust_scan: 2 (256 + 4368) < 5 4368
        (8, (3,), 11, 10, (3, 56)),          # decoy_fresh_codes: 256 + 56 > 3 56
        (7, (0, 1, 2, 3), 63, 15, (3, 64)),  # enroll_recover: 256 + 64 > 3 64
        (9, tuple(range(5)), 40, 12, (4, 256)),   # a tie, 2 (256 + 256) = 4 256
    ])
    def test_the_plan_gathers_fewer_words(self, k_star, weights, n, n_star, shape):
        _, batch, nibbles = recover._plan(k_star, weights, _BLOCK_ROWS, (), n,
                                          n_star)[:3]
        assert batch.shape == shape
        assert (nibbles is None) is (shape[0] == max(weights))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(8, range(5)), (12, (4,)), (12, range(5)),
                            (16, (5,)), (17, (5,)), (18, (7,)), (24, (4,))]),
           st.sampled_from([(), (2,), (3,)]), st.integers(0, 2 ** 32 - 1))
    def test_subset_words_equal_the_direct_gather(self, schedule, word_shape, seed):
        k_star, weights = schedule
        weights = tuple(weights)
        _, keys, nibbles = recover._plan(k_star, weights, _BLOCK_ROWS, word_shape,
                                         64 * (word_shape or (1,))[0], 1)[:3]
        assert nibbles is not None
        rng = SeededRng(seed)
        table = rng.integers(0, 1 << 64, (k_star + 1,) + word_shape, np.uint64)
        table[k_star] = 0
        const = rng.integers(0, 1 << 64, word_shape, np.uint64)
        index = next(support_batches(k_star, weights, _BLOCK_ROWS))
        assert keys.shape == (-(-k_star // 8), index.shape[1])
        words = recover.xor_gather(recover._subset_words(table, nibbles, const), keys)
        assert np.array_equal(words, recover.xor_gather(table, index) ^ const)


class TestScheduleCache:
    """A scan's plan is cached by (k*, weights, rows, word shape, n, n*); it
    holds the gather index of a schedule that fits in one batch, and larger
    ones stream batch by batch."""

    @pytest.mark.parametrize("s", [0, 5])   # accepts, exhausts
    def test_smaller_batches_stream_past_a_warm_cache(self, s, monkeypatch):
        sk, probe, inner, outer = _decoy_case(s)
        recover._plan.cache_clear()
        warm = recover_fixed(sk, probe, Fraction(3, 8), inner, outer)
        assert recover_fixed(sk, probe, Fraction(3, 8), inner, outer) == warm
        info = recover._plan.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        plan = recover._plan(8, (3,), _BLOCK_ROWS, (), 13, 10)   # the warm plan
        batches = _spy_batches(monkeypatch)
        for rows in (1, 2, 7):
            monkeypatch.setattr(recover, "_BLOCK_ROWS", rows)
            batches.clear()
            report = recover_fixed(sk, probe, Fraction(3, 8), inner, outer)
            assert report == warm
            assert _counts(report) == scan_report(sk, probe, [3], inner, outer)
            widths = [index.shape[1] for index in batches]
            assert len(widths) == -(-report.iterations_used // rows)
            assert set(widths[:-1]) <= {rows} and widths[-1] <= rows
            assert all(index is not plan[1] for index in batches)
        # one plan, with no index, per smaller rows; the warm one stays cached
        info = recover._plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 4, 4)
        assert recover._plan(8, (3,), _BLOCK_ROWS, (), 13, 10) is plan

    @pytest.mark.parametrize("near", [True, False])
    def test_weight_zero_schedules(self, codes, near):
        w, sk = _sketch(codes, seed=11)
        probe = w if near else BitString(1 - w.bits)
        expect = scan_report(sk, probe, [0], *codes)
        assert _counts(recover_sweep(sk, probe, *codes, max_weight=0)) == expect
        # floor(k* / (2 k*)) = 0: a fixed scan of weight 0 alone
        assert _counts(recover_fixed(sk, probe, Fraction(1, 14), *codes)) == expect
        assert (expect[4] == w) is near

    def test_cached_index_is_read_only(self, codes):
        w, sk = _sketch(codes, seed=12)
        recover_sweep(sk, w, *codes)
        ends, index, nibbles, units, checked = recover._plan(
            7, (0, 1, 2, 3), _BLOCK_ROWS, (), 31, 15)
        assert (ends[-1], index.shape, nibbles, units.shape, checked) == \
            (64, (3, 64), None, (8,), 0xffff)
        # a two-word outer code's plan: its mask is an array too
        *_, wide_units, wide_checked = recover._plan(8, (1,), _BLOCK_ROWS, (2,), 70, 10)
        # exhaust_scan's plan holds keys and the nibble index instead
        _, keys, nibbles = recover._plan(16, (5,), _BLOCK_ROWS, (), 63, 31)[:3]
        assert (keys.shape, nibbles.shape) == ((2, 4368), (4, 64))
        for array in (index, units, wide_units, wide_checked, keys, nibbles):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1

    def test_cached_index_is_gathered_without_a_copy(self):
        # exhaust_scan's schedule: a copy of its read-only keys would add
        # their 70 KB to the peak of every scan
        index = recover._plan(16, (5,), _BLOCK_ROWS, (), 63, 31)[1]
        assert index.shape == (2, math.comb(16, 5))
        table = np.arange(512, dtype=np.uint64)
        tracemalloc.start()
        try:
            words = recover.xor_gather(table, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert words.shape == (math.comb(16, 5),)
        assert peak < index.nbytes + 2 * words.nbytes

    @pytest.mark.parametrize("s", [0, 5])   # accepts, exhausts
    def test_warm_calls_count_no_binomials(self, s, codes, monkeypatch):
        # the candidate count is cached with the schedule, so a warm call
        # neither sizes its schedule nor checks its bound with math.comb
        sk, probe, inner, outer = _decoy_case(s)
        w, sketch = _sketch(codes, seed=s)
        calls = [
            lambda: recover_fixed(sk, probe, Fraction(3, 8), inner, outer),
            lambda: recover_sweep(sketch, w, *codes),
            lambda: recover_sweep(sketch, BitString(1 - w.bits), *codes)]
        cold = [call() for call in calls]
        comb = math.comb
        counted = []
        monkeypatch.setattr(math, "comb",
                            lambda *args: counted.append(args) or comb(*args))
        assert [call() for call in calls] == cold
        assert counted == []

    def test_cache_is_bounded(self):
        recover._plan.cache_clear()
        for k_star in range(4, 4 + recover._PLAN_CACHE_SIZE + 5):
            recover._plan(k_star, (1, 2), _BLOCK_ROWS, (), k_star + 1, k_star)
        info = recover._plan.cache_info()
        assert info.currsize == info.maxsize == recover._PLAN_CACHE_SIZE

    def test_every_admissible_cached_index_fits_in_two_mib(self):
        # a fixed weight floor(k* eps_rec) and a sweep's top weight both lie
        # in [0, k*/2]; a schedule of at most _BLOCK_ROWS candidates has its
        # index or its keys in its plan (here over a five-word outer code)
        largest = 0
        for k_star in range(1, 301):
            for top in range(k_star // 2 + 1):
                for weights in ((top,), tuple(range(top + 1))):
                    if sum(math.comb(k_star, w) for w in weights) > _BLOCK_ROWS:
                        continue
                    _, index, nibbles = recover._plan(k_star, weights, _BLOCK_ROWS,
                                                      (5,), 320, k_star)[:3]
                    held = (index,) if nibbles is None else (index, nibbles)
                    for array in held:
                        assert not array.flags.writeable   # the cached copy
                        assert array.shape[0] <= 8
                    nbytes = sum(array.nbytes for array in held)
                    assert nbytes <= 2 << 20
                    largest = max(largest, nbytes)
        # k* = 30 swept to weight 4 gathers directly; k* = 18 at weight 7,
        # the largest index before keys, holds 3 rows of keys instead of 7
        assert largest == sum(math.comb(30, w) for w in range(5)) * 4 * 8
        _, keys, nibbles = recover._plan(18, (7,), _BLOCK_ROWS, (5,), 320, 18)[:3]
        assert keys.nbytes + nibbles.nbytes == math.comb(18, 7) * 3 * 8 + 4 * 96 * 8
        assert largest * recover._PLAN_CACHE_SIZE < 64 << 20
