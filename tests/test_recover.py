import hashlib
import math
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (enumerate_errors, error_vector_at_rank,
                     first_accepting_candidate, scan_report, scan_supports)
from rvsketch import (BitString, DimensionError, IndexVector, ParameterError,
                      SeededRng, SketchParams, bch_code, gen_index_vector,
                      make_sketch, random_linear_code, recover_fixed,
                      recover_sweep)
from rvsketch import recover
from rvsketch.bitcore import _CLASS_ROWS, lex_supports, support_batches


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


class TestSplitEnumeration:
    """Classes above _CLASS_ROWS rows are split by their first position."""

    @pytest.mark.parametrize("n,w", [(18, 9), (20, 7), (22, 6)])
    def test_split_class_against_combinations(self, n, w):
        assert math.comb(n, w) > _CLASS_ROWS
        blocks = list(lex_supports(n, w))
        assert max(len(b) for b in blocks) <= _CLASS_ROWS
        expect = np.array(list(combinations(range(n), w)))
        assert np.array_equal(np.concatenate(blocks), expect)
        head = math.comb(n - 1, w - 1)   # rows with first position 0
        for rank in (0, head - 1, head, math.comb(n, w) - 1):
            want = np.zeros(n, dtype=np.uint8)
            want[expect[rank]] = 1
            assert error_vector_at_rank(n, w, rank) == BitString(want)
        batches = list(support_batches(n, [w - 1, w], _CLASS_ROWS))
        assert all(len(b) == _CLASS_ROWS for b in batches[:-1])
        padded = np.full((math.comb(n, w - 1), w), n)
        padded[:, :w - 1] = list(combinations(range(n), w - 1))
        assert np.array_equal(np.concatenate(batches),
                              np.concatenate([padded, expect]))


class TestRecoverFixed:
    def test_noiseless_identity_single_iteration(self, codes):
        w, sk = _sketch(codes, seed=5)
        report = recover_fixed(sk, w, Fraction(1, 14), *codes)
        assert report.outcome == w
        assert report.iterations_used == 1
        assert report.accepted_weight == 0

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
def _scan_cases(draw):
    """A sketch, a probe and a weight schedule over one of four code shapes."""
    shape = draw(st.sampled_from(["square", "random", "bch", "wide"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = SeededRng(seed)
    if shape == "bch":
        inner = bch_code(4, 2)
        outer = bch_code(*draw(st.sampled_from([(5, 3), (6, 2), (6, 1)])))
    else:
        k_star = draw(st.integers(3, 8))
        inner = random_linear_code(k_star + draw(st.integers(0, 2)), k_star,
                                   rng.spawn(1))
        if shape == "wide":   # message and check words both span two uint64s
            n, k = 140, 70
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
    top = min(3, k_star // 2)
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
        with mock.patch.object(recover, "_BATCH_ROWS", rows):
            if weights[0]:   # a sweep starts at weight 0
                eps = Fraction(weights[0], sk.params.k_star)
                report = recover_fixed(sk, probe, eps, inner, outer)
            else:
                report = recover_sweep(sk, probe, inner, outer,
                                       max_weight=weights[-1])
        assert _counts(report) == scan_report(sk, probe, weights, inner, outer)

    @pytest.mark.parametrize("rows", [1, 2, 5, 31, 32, 33])
    def test_accepts_on_and_across_batch_boundaries(self, codes, rows, monkeypatch):
        # sweep accepting at candidate 32 of 64 (weight 3, after 29 earlier)
        w, sk = _sketch(codes, seed=2003)
        wp_bits = w.bits.copy()
        wp_bits[[0, 2, 4, 6]] ^= 1
        wp = BitString(wp_bits)
        monkeypatch.setattr(recover, "_BATCH_ROWS", rows)
        report = recover_sweep(sk, wp, *codes, max_weight=3)
        assert report.accepted_weight == 3
        assert _counts(report) == scan_report(sk, wp, range(4), *codes)

    @pytest.mark.parametrize("s", [0, 5])
    def test_decoy_shaped_scans(self, s):
        sk, probe, inner, outer = _decoy_case(s)
        report = recover_fixed(sk, probe, Fraction(3, 8), inner, outer)
        assert _counts(report) == scan_report(sk, probe, [3], inner, outer)


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

    def test_no_scalar_pipeline(self):
        assert not hasattr(recover, "_Pipeline")


class TestScheduleCache:
    """A schedule that fits in one batch has its gather index cached by
    (k*, weights); larger ones stream batch by batch."""

    @pytest.mark.parametrize("s", [0, 5])   # accepts, exhausts
    def test_smaller_batches_stream_past_a_warm_cache(self, s, monkeypatch):
        sk, probe, inner, outer = _decoy_case(s)
        recover._cached_layout.cache_clear()
        warm = recover_fixed(sk, probe, Fraction(3, 8), inner, outer)
        assert recover_fixed(sk, probe, Fraction(3, 8), inner, outer) == warm
        info = recover._cached_layout.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        batches = []
        real = recover.xor_gather
        monkeypatch.setattr(recover, "xor_gather",
                            lambda table, index: batches.append(index.shape[1])
                            or real(table, index))
        for rows in (1, 2, 7):
            monkeypatch.setattr(recover, "_BATCH_ROWS", rows)
            batches.clear()
            report = recover_fixed(sk, probe, Fraction(3, 8), inner, outer)
            assert report == warm
            assert _counts(report) == scan_report(sk, probe, [3], inner, outer)
            scanned = batches[1:]   # the first gather is the constant word's
            assert len(scanned) == -(-report.iterations_used // rows)
            assert set(scanned[:-1]) <= {rows} and scanned[-1] <= rows
        assert recover._cached_layout.cache_info() == info

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
        index, = recover._schedule(7, range(4))
        assert index.shape == (3, 64)
        with pytest.raises(ValueError, match="read-only"):
            index[0, 0] = 1

    def test_cache_is_bounded(self, monkeypatch):
        recover._cached_layout.cache_clear()
        for k_star in range(4, 4 + recover._SCHEDULE_CACHE_SIZE + 5):
            index, = recover._schedule(k_star, [1, 2])
            assert index.nbytes <= recover._SCHEDULE_BYTES
        info = recover._cached_layout.cache_info()
        assert info.currsize == info.maxsize == recover._SCHEDULE_CACHE_SIZE
        # the byte cap counts an entry exactly: C(8, 3) * 8 * 3 bytes
        sk, probe, inner, outer = _decoy_case(5)
        expect = scan_report(sk, probe, [3], inner, outer)
        for cap, cached in ((1344, True), (1343, False)):
            recover._cached_layout.cache_clear()
            monkeypatch.setattr(recover, "_SCHEDULE_BYTES", cap)
            report = recover_fixed(sk, probe, Fraction(3, 8), inner, outer)
            assert _counts(report) == expect
            assert recover._cached_layout.cache_info().currsize == cached
            index, = recover._schedule(8, [3])
            assert index.flags.writeable is not cached
            if cached:
                assert index.nbytes == cap


# (reports, accepts of the secret, wrong secrets, failures) and the digest
DIGEST_SHAPE = (205, 71, 27, 107)
DIGEST = "22bb8c8ab51505bf362cb0e22880f6f9bc892d22476a6f26fb9b708722446bd7"


def _pinned_reports():
    """(secret, report) for 205 seeded scans: sweeps from near probes and
    fixed scans from far ones over BCH [15,7] and [31,16] inners with the
    [63,51] outer (the last five exhaust C(16,5) = 4368 candidates), and
    decoy-shaped scans over square random t = 0 outers."""
    out = []
    for s in range(40):
        for inner in (bch_code(4, 2), bch_code(5, 3)):
            outer = bch_code(6, 2)
            k_star = inner.k
            eps = Fraction(1, 2 * k_star)
            params = SketchParams.from_codes(inner, outer, eps)
            rng = SeededRng(1000 + s)
            w = rng.spawn(1).random_bits(k_star)
            N = gen_index_vector(k_star, outer.n, rng.spawn(2))
            sk = make_sketch(w, N, eps, params, rng.spawn(3))
            near = w.bits.copy()
            near[rng.spawn(4).integers(0, k_star, size=s % 4)] ^= 1
            far = BitString(1 - w.bits)
            out.append((w, recover_sweep(sk, BitString(near), inner, outer,
                                         max_weight=2)))
            out.append((w, recover_fixed(sk, far, Fraction(2, k_star),
                                         inner, outer)))
            if k_star == 16 and s % 8 == 0:
                out.append((w, recover_fixed(sk, far, Fraction(5, 16),
                                             inner, outer)))
        inner = random_linear_code(10, 8, SeededRng(s))
        outer = random_linear_code(11 + s % 6, 11 + s % 6, SeededRng(100 + s))
        params = SketchParams.from_codes(inner, outer, Fraction(1, 16))
        w = SeededRng(200 + s).random_bits(8)
        N = gen_index_vector(8, outer.n, SeededRng(300 + s))
        sk = make_sketch(w, N, Fraction(1, 16), params, SeededRng(400 + s))
        out.append((w, recover_fixed(sk, BitString(1 - w.bits),
                                     Fraction(3, 8), inner, outer)))
    return out


def test_pinned_report_digest():
    """One SHA-256 over the counts and outcomes of _pinned_reports: a change
    to the table lookups or the scan that moves any report shows here."""
    reports = _pinned_reports()
    digest = hashlib.sha256()
    for _, r in reports:
        digest.update(repr((None if r.outcome is None else str(r.outcome),
                            r.iterations_used, r.accepted_weight,
                            r.first_decode_failures,
                            r.false_accepts_observed)).encode())
    outcomes = [None if r.outcome is None else r.outcome == w
                for w, r in reports]
    assert (len(reports), outcomes.count(True), outcomes.count(False),
            outcomes.count(None)) == DIGEST_SHAPE
    assert digest.hexdigest() == DIGEST
