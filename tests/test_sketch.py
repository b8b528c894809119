import dataclasses
import functools
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from oracles import (load_sketch_reference, make_sketch_reference,
                     sketch_matrix_reference)
from rvsketch import (BitString, DimensionError, LinearCode, ParameterError,
                      SeededRng, Sketch, SketchFormatError, SketchParams, bch_code,
                      dump_sketch, encode, error_floor_check, fixed_weight,
                      gen_index_vector, invert_message, load_sketch,
                      param_violations, random_linear_code, recover_fixed,
                      sample_bits, make_sketch, support_size,
                      zero_pad_prefix, code_to_text)


@pytest.fixture(scope="module")
def standard_params():
    inner = bch_code(4, 2)   # [15,7] t*=2
    outer = bch_code(5, 3)   # [31,16] t=3, k-n* = 1
    return SketchParams.from_codes(inner, outer, Fraction(1, 14))


@functools.lru_cache(maxsize=None)
def _smallest_sketch(k_star):
    """(params, N) for a [k*, k*] inner and a [k*+1, k*+1] outer random code,
    the smallest dimensions that keep k* <= n* < k <= n."""
    rng = SeededRng(k_star)
    params = SketchParams.from_codes(
        random_linear_code(k_star, k_star, rng.spawn(1)),
        random_linear_code(k_star + 1, k_star + 1, rng.spawn(2)), Fraction(1, 4))
    return params, gen_index_vector(k_star, k_star + 1, rng.spawn(3))


def _masking_error(k_star, eps_ss, rng):
    """The error e make_sketch draws from rng, read from its debug bundle."""
    params, N = _smallest_sketch(k_star)
    return make_sketch(BitString.zeros(k_star), N, eps_ss, params, rng,
                       debug=True)[1].e


class TestSampleError:
    """make_sketch's masking error over its eps_ss range [1/(2k*), 1/4]."""

    def test_floor_zero_weight(self):
        # weight floor(16/32) = 0: e = 0 and nothing is drawn
        rng = SeededRng(1)
        assert _masking_error(16, Fraction(1, 32), rng) == BitString.zeros(16)
        assert rng.random_bits(16) == SeededRng(1).random_bits(16)

    def test_exact_weight_and_uniformity(self):
        rng = SeededRng(2)
        trials = 10_000
        counts = np.zeros(16)
        for _ in range(trials):
            e = _masking_error(16, Fraction(1, 4), rng)
            assert e.weight == 4
            counts += e.bits
        freqs = counts / trials
        sigma = math.sqrt(0.25 * 0.75 / trials)
        assert np.all(np.abs(freqs - 0.25) <= 3 * sigma + 1e-12)

    def test_coupon_collector_singletons(self):
        rng = SeededRng(3)
        seen = set()
        for _ in range(1000):
            e = _masking_error(8, Fraction(1, 8), rng)
            assert e.weight == 1
            seen.add(str(e))
        assert len(seen) == 8

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 2**32), st.data())
    def test_weight_is_the_support_class(self, k_star, seed, data):
        # one weight rule: the drawn error lies in the class support_size counts
        eps = data.draw(st.fractions(Fraction(1, 2 * k_star), Fraction(1, 4),
                                     max_denominator=200))
        weight = _masking_error(k_star, eps, SeededRng(seed)).weight
        assert weight == fixed_weight(k_star, eps)
        assert math.comb(k_star, weight) == support_size(k_star, eps)[0]


def _violations(p, eps_rec=None):
    return param_violations(p.k_star, p.n_star, p.k, p.n, p.eps_ss, eps_rec)


class TestValidateParams:
    """param_violations and the error-floor check `rvsketch sketch` reports."""

    def test_standard_config_passes(self, standard_params):
        p = standard_params
        assert _violations(p) == []
        # at n = 31 the error floor predicate is evaluated but fails
        assert not error_floor_check(p.n, p.eps_ss, p.k, p.n_star).holds

    def test_ordering_breach(self):
        # inner blocklength equal to the outer dimension: n* < k fails
        inner = random_linear_code(16, 16, SeededRng(5))
        outer = bch_code(5, 3)
        params = SketchParams.from_codes(inner, outer, Fraction(1, 32))
        assert _violations(params) == ["n* = 16 must be < k = 16"]

    def test_eps_range_violation(self):
        inner = bch_code(4, 2)
        outer = bch_code(5, 3)
        params = SketchParams.from_codes(inner, outer, Fraction(3, 10))
        assert any("eps_ss" in v for v in _violations(params))

    @pytest.mark.parametrize("eps", [Fraction(2, 3), Fraction(-1, 7)])
    def test_eps_outside_bound_domain_is_listed(self, standard_params, eps):
        # the default eps_rec = 2 eps_ss leaves binary entropy's [0, 1]
        params = dataclasses.replace(standard_params, eps_ss=eps)
        assert _violations(params) == [f"eps_ss = {eps} outside [1/14, 1/4]"]

    @pytest.mark.parametrize("eps_rec", [Fraction(3, 2), Fraction(-1, 7)])
    def test_eps_rec_outside_bound_domain_is_listed(self, standard_params, eps_rec):
        assert _violations(standard_params, eps_rec) == [
            f"eps_rec = {eps_rec} outside [1/14, 1/2]"]

    @pytest.mark.parametrize("eps_ss, eps_rec", [
        (0.25, 0.5), ("1/7", "2/7"), (1, None), (0.1, "3/5")])
    def test_rule_list_takes_every_rational_form(self, eps_ss, eps_rec):
        violations = param_violations(7, 15, 16, 31, eps_ss, eps_rec)
        expected = param_violations(
            7, 15, 16, 31, Fraction(eps_ss),
            None if eps_rec is None else Fraction(eps_rec))
        assert violations == expected
        assert bool(violations) == (eps_ss == 1 or eps_rec == "3/5")

    def test_error_floor_at_2k2(self):
        # n = 2 k*^2 with eps = 1/(2k*): exp(-1) < 1/2, so the floor holds
        inner = bch_code(4, 2)                              # k* = 7, n* = 15
        outer = random_linear_code(98, 16, SeededRng(6))    # n = 2*7^2 = 98
        params = SketchParams.from_codes(inner, outer, Fraction(1, 14))
        assert _violations(params) == []
        floor = error_floor_check(98, Fraction(1, 14), 16, 15)
        assert floor.holds
        assert math.isclose(floor.lhs, math.exp(-1), rel_tol=1e-12)

    def test_code_dimension_mismatch_rejected(self, standard_params):
        # the dimensions are the codes', so only a sketch file's header can
        # disagree with them: n* = 14, then k = 17, on a [15,7]/[31,16] sketch
        sk = Sketch(BitString.zeros(31), standard_params,
                    gen_index_vector(7, 31, SeededRng(6)), SeededRng.algo_id)
        for field, value, message in (
                (1, 14, "inner code is [15,7], params say [14,7]"),
                (2, 17, "outer code is [31,16], params say [31,17]")):
            blob = bytearray(dump_sketch(sk))
            struct.pack_into("<I", blob, struct.calcsize("<4sH") + 4 * field, value)
            for load in (load_sketch, load_sketch_reference):
                with pytest.raises(SketchFormatError) as exc:
                    load(bytes(blob))
                assert str(exc.value) == f"malformed sketch: {message}"


@functools.cache
def _bch_codes():
    return [bch_code(m, t) for m, t in golden.BCH]


def _code(data, min_k):
    """A BCH code or a seeded random code, of dimension at least min_k."""
    bch = [code for code in _bch_codes() if code.k >= min_k]
    if bch and data.draw(st.booleans()):
        return data.draw(st.sampled_from(bch))
    k = data.draw(st.integers(min_k, min_k + 8))
    n = data.draw(st.integers(k, k + 12))
    return random_linear_code(n, k, SeededRng(data.draw(st.integers(0, 2 ** 32))))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_params_are_the_codes_and_eps(data):
    inner = _code(data, 2)
    outer = _code(data, inner.n + 1)
    eps = Fraction(1, data.draw(st.integers(4, 2 * inner.k)))
    params = SketchParams.from_codes(inner, outer, eps)
    assert [f.name for f in dataclasses.fields(params)] == ["inner", "outer", "eps_ss"]
    assert (params.k_star, params.n_star, params.k, params.n) == (
        inner.k, inner.n, outer.k, outer.n)
    other = _code(data, 1)
    moved = dataclasses.replace(params, outer=other)
    assert (moved.k_star, moved.n_star, moved.k, moved.n) == (
        inner.k, inner.n, other.k, other.n)
    sk = Sketch(BitString.zeros(outer.n), params,
                gen_index_vector(inner.k, outer.n, SeededRng(0)), SeededRng.algo_id)
    assert load_sketch(dump_sketch(sk)).params == params
    for bad in ("x", inner.G, None):
        with pytest.raises(ParameterError, match="^inner code is a .*, not a LinearCode$"):
            SketchParams.from_codes(bad, outer, eps)
        with pytest.raises(ParameterError, match="^outer code is a .*, not a LinearCode$"):
            SketchParams(inner, bad, eps)


class TestEpsConversion:
    """One conversion serves every entry point: an eps that is not a finite
    rational is a ParameterError, or a listed violation."""

    @staticmethod
    def _raises(text, call, *args):
        with pytest.raises(ParameterError) as exc:
            call(*args)
        assert str(exc.value) == text

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"),
                                     1 + 1j, "abc", "1/0", None], ids=repr)
    def test_every_entry_point(self, standard_params, eps):
        p = standard_params
        text = f"eps_ss = {eps!r} is not a finite rational"
        assert param_violations(7, 15, 16, 31, eps) == [text]
        self._raises(text, SketchParams.from_codes, p.inner, p.outer, eps)
        rng = SeededRng(4)
        w = rng.random_bits(7)
        N = gen_index_vector(7, 31, rng)
        self._raises(text, make_sketch, w, N, eps, p, rng)
        sk = make_sketch(w, N, p.eps_ss, p, rng)
        text = text.replace("eps_ss", "eps_rec")
        self._raises(text, recover_fixed, sk, w, eps, p.inner, p.outer)
        if eps is not None:   # eps_rec is optional in the rule list
            assert param_violations(7, 15, 16, 31, p.eps_ss, eps) == [text]


class TestMakeSketch:
    def test_all_zero_fixed_point(self, standard_params):
        # weight floor 0 forces e = 0; zero secret encodes to zero everywhere
        rng = SeededRng(7)
        N = gen_index_vector(7, 31, rng)
        sk = make_sketch(BitString.zeros(7), N, Fraction(1, 14),
                         standard_params, rng)
        assert sk.ss == BitString.zeros(31)

    def test_pipeline_algebra(self, standard_params):
        # ss xor RV(w_e) is an outer codeword whose message has a zero prefix,
        # and v_syn xor padded w_e equals the inner encoding of w
        p = standard_params
        for seed in range(10):
            rng = SeededRng(seed)
            w = rng.spawn(1).random_bits(7)
            N = gen_index_vector(7, 31, rng.spawn(2))
            sk, dbg = make_sketch(w, N, Fraction(1, 7), p, rng.spawn(3), debug=True)
            c = sk.ss ^ sample_bits(dbg.w_e, N)
            assert c == dbg.c
            v_star = invert_message(p.outer, c)
            assert v_star.prefix(p.k - p.n_star).weight == 0
            assert v_star == dbg.v_star
            assert dbg.v_syn ^ zero_pad_prefix(dbg.w_e, p.n_star - p.k_star) \
                == encode(p.inner, w)

    def test_noiseless_is_deterministic(self, standard_params):
        w = SeededRng(8).random_bits(7)
        N = gen_index_vector(7, 31, SeededRng(9))
        a = make_sketch(w, N, Fraction(1, 14), standard_params, SeededRng(100))
        b = make_sketch(w, N, Fraction(1, 14), standard_params, SeededRng(200))
        assert a.ss == b.ss

    def test_distinct_sketches_across_seeds(self, standard_params):
        # weight-1 masking: sketches differ exactly when the sampled e differs
        w = SeededRng(10).random_bits(7)
        N = gen_index_vector(7, 31, SeededRng(11))
        sketches = {}
        for seed in range(100):
            sk, dbg = make_sketch(w, N, Fraction(1, 7), standard_params,
                                  SeededRng(seed), debug=True)
            sketches.setdefault(str(dbg.e), set()).add(str(sk.ss))
        assert len(sketches) > 1
        for ss_values in sketches.values():
            assert len(ss_values) == 1

    def test_eps_recorded_in_params(self, standard_params):
        rng = SeededRng(12)
        N = gen_index_vector(7, 31, rng)
        sk = make_sketch(BitString.zeros(7), N, Fraction(1, 7),
                         standard_params, rng)
        assert sk.params.eps_ss == Fraction(1, 7)

    @pytest.mark.parametrize("eps", [Fraction(1, 8), "1/8", 0.125, "0.125"],
                             ids=repr)
    def test_equal_eps_keeps_params(self, eps):
        p = SketchParams.from_codes(bch_code(4, 2), bch_code(5, 3),
                                    Fraction(1, 8))
        rng = SeededRng(17)
        N = gen_index_vector(7, 31, rng)
        sk = make_sketch(rng.random_bits(7), N, eps, p, rng)
        assert sk.params is p

    @pytest.mark.parametrize("eps", [Fraction(1, 7), "1/7", 0.25],
                             ids=repr)
    def test_other_eps_is_recorded(self, standard_params, eps):
        rng = SeededRng(18)
        N = gen_index_vector(7, 31, rng)
        sk = make_sketch(rng.random_bits(7), N, eps, standard_params, rng)
        assert sk.params.eps_ss == Fraction(eps)
        assert type(sk.params.eps_ss) is Fraction
        assert sk.params == dataclasses.replace(standard_params,
                                                eps_ss=Fraction(eps))

    def test_dimension_errors(self, standard_params):
        rng = SeededRng(13)
        N = gen_index_vector(7, 31, rng)
        with pytest.raises(DimensionError):
            make_sketch(BitString.zeros(8), N, Fraction(1, 14),
                        standard_params, rng)
        N_bad = gen_index_vector(7, 30, rng)
        with pytest.raises(DimensionError):
            make_sketch(BitString.zeros(7), N_bad, Fraction(1, 14),
                        standard_params, rng)

    @pytest.mark.parametrize("like", [str, lambda w: w.bits.tolist(),
                                      lambda w: w.bits.copy()])
    def test_bitstring_like_secrets(self, standard_params, like):
        w = SeededRng(30).random_bits(7)
        N = gen_index_vector(7, 31, SeededRng(31))
        expect = make_sketch(w, N, Fraction(1, 14), standard_params, SeededRng(32))
        assert make_sketch(like(w), N, Fraction(1, 14), standard_params,
                           SeededRng(32)) == expect

    @pytest.mark.parametrize("w,error", [("01x0101", ParameterError),
                                         ([0, 1, 2, 0, 1, 0, 1], ParameterError),
                                         ("010101", DimensionError)])
    def test_bad_secrets(self, standard_params, w, error):
        N = gen_index_vector(7, 31, SeededRng(31))
        with pytest.raises(error):
            make_sketch(w, N, Fraction(1, 14), standard_params, SeededRng(32))

    def test_out_of_range_eps_rejected(self, standard_params):
        rng = SeededRng(14)
        N = gen_index_vector(7, 31, rng)
        with pytest.raises(ParameterError):
            make_sketch(BitString.zeros(7), N, Fraction(3, 10),
                        standard_params, rng)

    @pytest.mark.parametrize("eps", [Fraction(2, 3), Fraction(-1, 7)])
    def test_eps_outside_bound_domain_rejected(self, standard_params, eps):
        rng = SeededRng(15)
        N = gen_index_vector(7, 31, rng)
        with pytest.raises(ParameterError, match="outside"):
            make_sketch(BitString.zeros(7), N, eps, standard_params, rng)


class TestRulesOncePerParams:
    """make_sketch lists a SketchParams' rules once per params object."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from rvsketch import sketch
        real, calls = sketch.param_violations, []
        monkeypatch.setattr(sketch, "param_violations",
                            lambda *args: calls.append(args) or real(*args))
        return calls

    def test_once_per_params_and_once_per_copy(self, calls):
        p = SketchParams.from_codes(bch_code(4, 2), bch_code(5, 3), Fraction(1, 7))
        rng = SeededRng(40)
        w, N = rng.random_bits(7), gen_index_vector(7, 31, rng)
        first = make_sketch(w, N, p.eps_ss, p, SeededRng(41))
        for eps in (p.eps_ss, Fraction(1, 7), "1/7", p.eps_ss):
            assert make_sketch(w, N, eps, p, SeededRng(41)) == first
        assert len(calls) == 1
        q = dataclasses.replace(p, eps_ss=Fraction(1, 14))
        make_sketch(w, N, q.eps_ss, q, rng)
        make_sketch(w, N, q.eps_ss, q, rng)
        assert len(calls) == 2

    def test_a_broken_rule_raises_the_same_error_each_call(self, calls):
        # n* = 31 is not below k = 16, and eps_ss = 3/10 is past 1/4
        p = SketchParams.from_codes(bch_code(5, 3), bch_code(5, 3), Fraction(3, 10))
        w, N = BitString.zeros(16), gen_index_vector(16, 31, SeededRng(42))
        errors = []
        for _ in range(2):
            with pytest.raises(ParameterError) as info:
                make_sketch(w, N, p.eps_ss, p, SeededRng(43))
            errors.append(str(info.value))
        assert errors[0] == errors[1] == "; ".join(
            param_violations(16, 31, 16, 31, Fraction(3, 10)))
        assert len(calls) == 1


def test_parity_past_one_byte():
    # k* = 300: the inner generator's last row is all ones, so for a dense
    # secret its uint8 sum passes 255 and wraps, and so does every outer
    # sum over v; the single & 1 must still give the reference's bits
    rng = SeededRng(44)
    dense = random_linear_code(309, 300, rng.spawn(1)).G
    inner = LinearCode(np.vstack([dense, np.ones((1, 300))]), 0, "random")
    params = SketchParams.from_codes(inner, random_linear_code(340, 320, rng.spawn(2)),
                                     Fraction(1, 4))
    N = gen_index_vector(300, 340, rng.spawn(3))
    for eps, seed in ((Fraction(1, 600), 1), (Fraction(1, 8), 2), (Fraction(1, 4), 3)):
        # a secret with about 15/16 of its bits set
        sparse = functools.reduce(np.bitwise_and, (
            rng.spawn(10 * seed + i).random_bits(300).bits for i in range(4)))
        w = BitString(1 - sparse)
        v = inner.G.astype(np.int64) @ w.bits
        assert v.max() > 255
        assert (params.outer.G[:, 10:].astype(np.int64) @ v).min() > 255
        sk, dbg = make_sketch(w, N, eps, params, rng.spawn(100 + seed), debug=True)
        ss, want = make_sketch_reference(w, N, eps, params, rng.spawn(100 + seed))
        assert sk.ss == ss
        assert dbg == want


# (inner, outer) code pairs with n* < k, BCH and random, one outer past
# one 64-bit word
_REFERENCE_PAIRS = [
    (lambda rng: bch_code(3, 1), lambda rng: bch_code(4, 1)),
    (lambda rng: bch_code(4, 2), lambda rng: bch_code(5, 3)),
    (lambda rng: bch_code(4, 2), lambda rng: bch_code(6, 2)),
    (lambda rng: bch_code(4, 2), lambda rng: random_linear_code(70, 66, rng)),
    (lambda rng: random_linear_code(10, 8, rng),
     lambda rng: random_linear_code(13, 13, rng)),
    (lambda rng: random_linear_code(12, 5, rng),
     lambda rng: random_linear_code(100, 40, rng)),
]


class TestMakeSketchAgainstReference:
    """make_sketch's one pass equals the stage-by-stage pipeline of public
    functions, in ss and in every field of the debug bundle."""

    @settings(max_examples=80, deadline=None)
    @given(pair=st.integers(0, len(_REFERENCE_PAIRS) - 1),
           seed=st.integers(0, 2 ** 32 - 1), num=st.integers(0, 2 ** 16))
    @example(pair=3, seed=1, num=0)    # n = 70, weight 0
    @example(pair=3, seed=1, num=5)    # n = 70, weight 1
    @example(pair=5, seed=2, num=10)   # n = 100, weight 3
    def test_ss_and_debug_bundle(self, pair, seed, num):
        rng = SeededRng(seed)
        make_inner, make_outer = _REFERENCE_PAIRS[pair]
        params = SketchParams.from_codes(make_inner(rng.spawn(1)),
                                         make_outer(rng.spawn(2)),
                                         Fraction(1, 4))
        k_star = params.k_star
        # eps = (2 + num mod (k*-1)) / 4k* spans [1/(2k*), 1/4]: weight
        # floor(k* eps) is 0 for the two smallest, above 0 from 4/4k* on
        eps = Fraction(2 + num % (k_star - 1), 4 * k_star)
        w = rng.spawn(3).random_bits(k_star)
        N = gen_index_vector(k_star, params.n, rng.spawn(4))
        sk, dbg = make_sketch(w, N, eps, params, rng.spawn(5), debug=True)
        ss, want = make_sketch_reference(w, N, eps, params, rng.spawn(5))
        assert sk.ss == ss
        assert dbg == want
        assert make_sketch(w, N, eps, params, rng.spawn(5)).ss == ss
        assert dbg.e.weight == fixed_weight(k_star, eps)


# BCH (inner, outer) pairs with n* < k, the outer n 15, 31 and 63
_BCH_PAIRS = [((3, 1), (4, 1)), ((4, 2), (5, 3)), ((4, 2), (6, 2)), ((5, 3), (6, 2))]


class TestSketchMatrix:
    """ss = M [w; w_e] mod 2 for oracles.sketch_matrix_reference's dense M:
    every stage of make_sketch is GF(2)-linear in the secret and the noisy
    secret together."""

    @pytest.mark.parametrize("outer_n", ["bch", "one word", 70, 140])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_ss_is_m_times_both_secrets(self, outer_n, data, seed):
        rng = SeededRng(seed)
        if outer_n == "bch":
            pair = data.draw(st.sampled_from(_BCH_PAIRS))
            inner, outer = (bch_code(m, t) for m, t in pair)
        else:
            k_star = data.draw(st.integers(2, 12))
            n_star = data.draw(st.integers(k_star, k_star + 6))
            inner = random_linear_code(n_star, k_star, rng.spawn(1))
            n = data.draw(st.integers(n_star + 1, 64)) if outer_n == "one word" else outer_n
            outer = random_linear_code(n, data.draw(st.integers(n_star + 1, n)), rng.spawn(2))
        params = SketchParams.from_codes(inner, outer, Fraction(1, 4))
        k_star = params.k_star
        # eps spans [1/(2k*), 1/4]; the error weight floor(k* eps) is 0 for eps < 1/k*
        eps = Fraction(data.draw(st.integers(2, k_star)), 4 * k_star)
        w = rng.spawn(3).random_bits(k_star)
        N = gen_index_vector(k_star, params.n, rng.spawn(4))
        sk, dbg = make_sketch(w, N, eps, params, rng.spawn(5), debug=True)
        M = sketch_matrix_reference(params, N)
        assert M.shape == (params.n, 2 * k_star)
        both = np.concatenate([w.bits, dbg.w_e.bits]).astype(np.int64)
        assert np.array_equal(M @ both & 1, sk.ss.bits)


class TestSketchFile:
    def _make(self, seed=21):
        inner = bch_code(4, 2)
        outer = bch_code(5, 3)
        params = SketchParams.from_codes(inner, outer, Fraction(1, 7))
        rng = SeededRng(seed)
        w = rng.spawn(1).random_bits(7)
        N = gen_index_vector(7, 31, rng.spawn(2))
        return make_sketch(w, N, Fraction(1, 7), params, rng.spawn(3))

    def test_round_trip(self):
        sk = self._make()
        again = load_sketch(dump_sketch(sk))
        assert again.ss == sk.ss
        assert np.array_equal(again.N.indices, sk.N.indices)
        assert again.params.eps_ss == sk.params.eps_ss
        assert again.params.inner == sk.params.inner
        assert again.params.outer == sk.params.outer
        assert again.rng_algo_id == sk.rng_algo_id

    def test_fields_must_match_params(self):
        sk = self._make()
        with pytest.raises(DimensionError, match="sketch length differs"):
            Sketch(BitString.zeros(30), sk.params, sk.N, sk.rng_algo_id)
        for k_star, n in ((7, 30), (8, 31)):
            with pytest.raises(DimensionError, match="index vector inconsistent"):
                Sketch(sk.ss, sk.params, gen_index_vector(k_star, n, SeededRng(1)),
                       sk.rng_algo_id)

    def test_dump_rejects_an_eps_numerator_past_u32(self):
        sk = self._make()
        params = dataclasses.replace(sk.params, eps_ss=Fraction(2 ** 32 + 1, 2 ** 35))
        with pytest.raises(ParameterError, match="does not fit the u32/u32"):
            dump_sketch(dataclasses.replace(sk, params=params))

    def test_zero_eps_denominator(self):
        blob = bytearray(dump_sketch(self._make()))
        struct.pack_into("<I", blob, struct.calcsize("<4sH4II"), 0)
        with pytest.raises(SketchFormatError, match="eps_ss denominator is zero"):
            load_sketch(bytes(blob))

    def test_round_trip_compares_equal(self):
        sk = self._make()
        assert load_sketch(dump_sketch(sk)) == sk
        assert load_sketch(dump_sketch(sk)) != self._make(seed=22)

    def test_round_trip_hashes_equal(self):
        sk = self._make()
        again = load_sketch(dump_sketch(sk))
        assert hash(again) == hash(sk)
        assert len({sk, again, self._make()}) == 1
        assert len({sk, self._make(seed=22)}) == 2

    def test_repeated_load_shares_the_codes(self, monkeypatch):
        from rvsketch import codes
        blob = dump_sketch(self._make())
        first = load_sketch(blob)
        real = codes._parity_and_left_inverse
        calls = []
        monkeypatch.setattr(codes, "_parity_and_left_inverse",
                            lambda G: calls.append(G) or real(G))
        again = load_sketch(blob)
        assert again.params.inner is first.params.inner
        assert again.params.outer is first.params.outer
        assert calls == []

    def test_dump_is_deterministic(self):
        assert dump_sketch(self._make()) == dump_sketch(self._make())

    def test_bad_magic(self):
        blob = bytearray(dump_sketch(self._make()))
        blob[:4] = b"XXXX"
        with pytest.raises(SketchFormatError):
            load_sketch(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(dump_sketch(self._make()))
        blob[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(SketchFormatError):
            load_sketch(bytes(blob))

    def test_truncation(self):
        blob = dump_sketch(self._make())
        with pytest.raises(SketchFormatError):
            load_sketch(blob[:-3])

    def test_trailing_bytes(self):
        blob = dump_sketch(self._make())
        with pytest.raises(SketchFormatError):
            load_sketch(blob + b"\x00")

    def test_bad_utf8_in_rng_id(self):
        blob = bytearray(dump_sketch(self._make()))
        blob[32] = 0xFF          # first byte of the rng id after its u16 length
        with pytest.raises(SketchFormatError) as exc:
            load_sketch(bytes(blob))
        assert isinstance(exc.value.__cause__, UnicodeDecodeError)

    def test_bad_code_blob(self):
        blob = dump_sketch(self._make())
        bad = blob.replace(b"linear-code v1", b"linear-code v9", 1)
        with pytest.raises(SketchFormatError) as exc:
            load_sketch(bad)
        assert isinstance(exc.value.__cause__, ParameterError)

    def test_out_of_range_index(self):
        blob = bytearray(dump_sketch(self._make()))
        first = len(blob) - 4 - 2 * 31   # N sits before the 4 packed ss bytes
        blob[first:first + 2] = (8).to_bytes(2, "little")   # k* = 7
        with pytest.raises(SketchFormatError) as exc:
            load_sketch(bytes(blob))
        assert isinstance(exc.value.__cause__, ParameterError)

    @pytest.mark.parametrize("inner_n, eps_ss, message", [
        # a [20,7] inner with the [31,16] outer: n* = 20 is not below k = 16
        (20, Fraction(1, 7), r"n\* = 20 must be < k = 16"),
        (15, Fraction(0), r"eps_ss = 0 outside \[1/14, 1/4\]"),
    ])
    def test_rule_breaking_header(self, inner_n, eps_ss, message):
        # dump_sketch writes any Sketch; load_sketch applies the rules
        inner = random_linear_code(inner_n, 7, SeededRng(5))
        params = SketchParams.from_codes(inner, bch_code(5, 3), eps_ss)
        sk = Sketch(BitString.zeros(31), params,
                    gen_index_vector(7, 31, SeededRng(6)), SeededRng.algo_id)
        with pytest.raises(SketchFormatError,
                           match=f"^malformed sketch: {message}$"):
            load_sketch(dump_sketch(sk))

    def test_single_bit_flips_load_or_raise_format_error(self):
        blob = dump_sketch(self._make())
        rng = np.random.default_rng(0)
        for pos in rng.choice(8 * len(blob), size=300, replace=False):
            flipped = bytearray(blob)
            flipped[pos // 8] ^= 1 << (pos % 8)
            _assert_loads_as_reference(bytes(flipped))

    def test_every_prefix_raises_as_the_reference(self):
        # each cut, through the header and into every later field, fails
        # the same check with the same message as the plain parser
        blob = dump_sketch(self._make())
        for size in range(len(blob)):
            error, _ = _assert_loads_as_reference(blob[:size])
            assert error is SketchFormatError
        assert _assert_loads_as_reference(blob) == self._make()

    @pytest.mark.parametrize("head", [b"", b"FS", b"FSKX", b"FSKT\x01",
                                      b"FSKT\x02\x00", b"XSKT\x02\x00",
                                      b"FSKT\x01\x00" + b"\x00" * 23])
    def test_short_headers(self, head):
        error, _ = _assert_loads_as_reference(head)
        assert error is SketchFormatError

    def test_memoryview_input(self):
        blob = dump_sketch(self._make())
        assert load_sketch(memoryview(blob)) == load_sketch(blob)

    def test_loaded_sketch_still_recovers(self):
        from rvsketch import recover_fixed
        inner = bch_code(4, 2)
        outer = bch_code(5, 3)
        params = SketchParams.from_codes(inner, outer, Fraction(1, 14))
        rng = SeededRng(31)
        w = rng.spawn(1).random_bits(7)
        N = gen_index_vector(7, 31, rng.spawn(2))
        sk = load_sketch(dump_sketch(
            make_sketch(w, N, Fraction(1, 14), params, rng.spawn(3))))
        report = recover_fixed(sk, w, Fraction(1, 14),
                               sk.params.inner, sk.params.outer)
        assert report.outcome == w


def _small_sketch_bytes():
    inner = bch_code(3, 1)   # [7,4] t*=1
    outer = bch_code(4, 1)   # [15,11] t=1: cheap to rebuild on every load
    params = SketchParams.from_codes(inner, outer, Fraction(1, 8))
    rng = SeededRng(41)
    w = rng.spawn(1).random_bits(4)
    N = gen_index_vector(4, 15, rng.spawn(2))
    return dump_sketch(make_sketch(w, N, Fraction(1, 8), params, rng.spawn(3)))


_FUZZ_BASE = _small_sketch_bytes()
_INNER_G = _FUZZ_BASE.index(b"G: ") + 3
# same length, G = 0: the inner code blob parses but is rank deficient
_RANK_DEFICIENT = _FUZZ_BASE[:_INNER_G] + b"0" * 8 + _FUZZ_BASE[_INNER_G + 8:]


def _with_inner_text(edit):
    """_FUZZ_BASE with its inner code text replaced by edit(text)."""
    start = _FUZZ_BASE.index(b"linear-code v1")
    (size,) = struct.unpack("<I", _FUZZ_BASE[start - 4:start])
    text = edit(_FUZZ_BASE[start:start + size])
    return (_FUZZ_BASE[:start - 4] + struct.pack("<I", len(text)) + text
            + _FUZZ_BASE[start + size:])


@st.composite
def _mutated_sketches(draw):
    data = bytearray(draw(st.sampled_from([_FUZZ_BASE, _RANK_DEFICIENT])))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["set", "insert", "delete"]))
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.integers(0, 255))
        if op == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if op == "set":
                data[pos] = byte
            else:
                del data[pos]
    return bytes(data)


class TestSketchFuzz:
    def test_rank_deficient_code_blob(self):
        for _ in range(2):   # the error is raised afresh, never cached
            with pytest.raises(SketchFormatError, match="rank deficient"):
                load_sketch(_RANK_DEFICIENT)

    def test_negative_code_dimensions(self):
        # same length: a 28-bit G hex dump fits n*k = (-7)(-4) too
        blob = _FUZZ_BASE.replace(b"n: 7\nk: 4\n", b"n:-7\nk:-4\n", 1)
        assert len(blob) == len(_FUZZ_BASE)
        with pytest.raises(SketchFormatError, match="1 <= k <= n"):
            load_sketch(blob)

    def test_zero_code_dimension(self):
        # the inner code text becomes a [3,0] code with an empty G
        blob = _with_inner_text(lambda text: (
            b"linear-code v1\nkind: random\nn: 3\nk: 0\nt: 0\nparam: -\nG: \n"))
        with pytest.raises(SketchFormatError, match="1 <= k <= n"):
            load_sketch(blob)

    @pytest.mark.parametrize("t", [8, 10**7, 10**30])
    def test_huge_radius_is_a_collision(self, monkeypatch, t):
        # more patterns of weight <= t than syndromes: rejected before any
        # pattern is enumerated, however large t is
        from rvsketch import codes

        def unreachable(*args):
            raise AssertionError("patterns enumerated")
        monkeypatch.setattr(codes, "support_batches", unreachable)
        blob = _with_inner_text(
            lambda text: text.replace(b"t: 1\n", b"t: %d\n" % t))
        with pytest.raises(SketchFormatError,
                           match=f"radius {t} exceeds the code's packing"):
            load_sketch(blob)

    @settings(max_examples=300, deadline=None)
    @given(_mutated_sketches())
    @example(_FUZZ_BASE)
    def test_byte_mutations_load_or_raise_format_error(self, blob):
        _assert_loads_as_reference(blob)


def _load_outcome(load, blob):
    """The Sketch load(blob) returns, or the type and message of the
    SketchFormatError it raises; any other exception propagates."""
    try:
        return load(blob)
    except SketchFormatError as exc:
        return type(exc), str(exc)


def _assert_loads_as_reference(blob):
    """load_sketch agrees with the reference parser on blob: the same error
    type and message, or equal Sketches whose codes have the same text.
    Returns the outcome."""
    got = _load_outcome(load_sketch, blob)
    want = _load_outcome(load_sketch_reference, blob)
    if isinstance(want, tuple):
        assert got == want
        return want
    assert isinstance(got, Sketch) and got == want
    for name in ("inner", "outer"):
        assert code_to_text(getattr(got.params, name)) == \
            code_to_text(getattr(want.params, name))
    return got


class TestSketchBytesArePinned:
    """The seeded sketches whose files golden.json freezes: each dump is
    stable and loads back to the sketch that the reference parser reads."""

    def test_pinned_dumps_load_as_the_reference(self):
        for sk in golden.seeded_sketches():
            blob = dump_sketch(sk)
            assert dump_sketch(sk) == blob   # a kept code text is reused
            _assert_loads_as_reference(blob)
            assert load_sketch(blob) == sk
