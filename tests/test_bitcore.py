import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rvsketch
from rvsketch import (BitString, DimensionError, ParameterError, SeededRng,
                      bitcore, empirical_rv_distance, expected_rv_distance,
                      hamming_distance, rv_distance_samples, xor,
                      zero_pad_prefix)

bitstrings = st.text(alphabet="01", min_size=1, max_size=64).map(BitString)


def paired(draw_len=st.integers(1, 64)):
    return draw_len.flatmap(
        lambda n: st.tuples(
            st.text(alphabet="01", min_size=n, max_size=n).map(BitString),
            st.text(alphabet="01", min_size=n, max_size=n).map(BitString)))


class TestHammingDistance:
    def test_identity(self):
        assert hamming_distance(BitString("0000"), BitString("0000")) == 0

    def test_full_complement(self):
        assert hamming_distance(BitString("1010"), BitString("0101")) == 4

    def test_single_position(self):
        assert hamming_distance(BitString("1100"), BitString("1000")) == 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hamming_distance(BitString("10"), BitString("100"))

    @given(paired())
    def test_equals_weight_of_xor(self, pair):
        a, b = pair
        assert hamming_distance(a, b) == xor(a, b).weight

    @given(paired(st.integers(1, 32)))
    def test_symmetry(self, pair):
        a, b = pair
        assert hamming_distance(a, b) == hamming_distance(b, a)

    def test_triangle_inequality_randomized(self):
        rng = SeededRng(404)
        for _ in range(200):
            a, b, c = (rng.random_bits(24) for _ in range(3))
            assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestXor:
    def test_zero_identity(self):
        assert xor(BitString("1010"), BitString("0000")) == BitString("1010")

    def test_self_inverse(self):
        assert xor(BitString("1010"), BitString("1010")) == BitString("0000")

    def test_bitwise(self):
        assert xor(BitString("1100"), BitString("0110")) == BitString("1010")

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            xor(BitString("1"), BitString("11"))

    @pytest.mark.parametrize("other", ["10", [1, 0], np.array([1, 0], dtype=np.uint8)],
                             ids=["text", "list", "array"])
    def test_operator_refuses_a_non_bitstring(self, other):
        # the ^ operator returns NotImplemented, so Python raises TypeError;
        # xor() is the function that takes any word
        with pytest.raises(TypeError, match="unsupported operand"):
            BitString("01") ^ other
        assert xor(BitString("01"), other) == BitString("11")

    @given(paired())
    def test_commutative(self, pair):
        a, b = pair
        assert a ^ b == b ^ a

    @given(st.integers(1, 32).flatmap(lambda n: st.tuples(*(
        st.text(alphabet="01", min_size=n, max_size=n).map(BitString)
        for _ in range(3)))))
    def test_associative(self, triple):
        a, b, c = triple
        assert (a ^ b) ^ c == a ^ (b ^ c)


class TestZeroPadPrefix:
    def test_basic(self):
        assert zero_pad_prefix(BitString("101"), 2) == BitString("00101")

    def test_empty_pad(self):
        assert zero_pad_prefix(BitString("101"), 0) == BitString("101")

    def test_empty_input(self):
        assert zero_pad_prefix(BitString(""), 3) == BitString("000")

    def test_negative_pad(self):
        with pytest.raises(ParameterError):
            zero_pad_prefix(BitString("1"), -1)

    @given(bitstrings, st.integers(0, 16))
    def test_structure(self, s, p):
        padded = zero_pad_prefix(s, p)
        assert padded.length == p + s.length
        assert padded.prefix(p).weight == 0
        assert padded.suffix(s.length) == s


class TestBitString:
    def test_text_round_trip(self):
        assert str(BitString("011010")) == "011010"

    def test_rejects_non_binary_text(self):
        with pytest.raises(ParameterError):
            BitString("01x0")

    @pytest.mark.parametrize("text", ["01\n", "0\n1"])
    def test_rejects_embedded_newline(self, text):
        with pytest.raises(ParameterError):
            BitString(text)

    def test_rejects_non_binary_values(self):
        with pytest.raises(ParameterError):
            BitString([0, 2, 1])

    @pytest.mark.parametrize("bits", [np.array([257, 0]), np.array([-255, 0]),
                                      [0.5, 1], [256, 1], [-1, 0],
                                      [1 + 0j, 0], ["1", "0"]])
    def test_rejects_values_before_the_uint8_cast(self, bits):
        with pytest.raises(ParameterError, match="bits must be 0 or 1"):
            BitString(bits)

    @pytest.mark.parametrize("bits", [[True, False], [1, 0], [1.0, 0.0],
                                      np.array([1, 0], dtype=np.int64)])
    def test_accepts_bool_int_and_float_bits(self, bits):
        assert BitString(bits) == BitString("10")

    def test_one_based_access(self):
        s = BitString("1010")
        assert [s.bit(i) for i in range(1, 5)] == [1, 0, 1, 0]
        with pytest.raises(DimensionError):
            s.bit(0)
        with pytest.raises(DimensionError):
            s.bit(5)

    def test_immutability(self):
        s = BitString("101")
        assert not s.bits.flags.writeable
        src = np.array([1, 0, 1], dtype=np.uint8)
        t = BitString(src)
        src[0] = 0
        assert t == BitString("101")

    def test_from_a_bitstring(self):
        s = BitString("0110")
        t = BitString(s)
        assert t == s and str(t) == "0110" and not t.bits.flags.writeable

    def test_hash_and_eq(self):
        assert BitString("101") == BitString([1, 0, 1])
        assert BitString("101") != BitString("1010")
        assert len({BitString("11"), BitString("11"), BitString("10")}) == 2

    def test_packing_convention(self):
        # position 8j+i+1 lands in bit i of byte j
        s = BitString("1" + "0" * 7 + "1")
        packed = s.to_packed()
        assert packed == bytes([0b00000001, 0b00000001])
        assert BitString.from_packed(packed, 9) == s

    @given(bitstrings)
    def test_pack_round_trip(self, s):
        assert BitString.from_packed(s.to_packed(), s.length) == s

    def test_from_packed_length_check(self):
        for length in (9, 16):
            with pytest.raises(DimensionError,
                               match="^packed payload is 1 bytes, expected 2$"):
                BitString.from_packed(b"\x00", length)

    @pytest.mark.parametrize("data,length,error", [
        (b"\x00", 7.5, ParameterError), (b"\x00", 8.0, ParameterError),
        (b"\x00", "8", ParameterError), (b"", -1, ParameterError),
        (b"\x00", 0, DimensionError), (b"", 1, DimensionError)])
    def test_from_packed_length_contract(self, data, length, error):
        with pytest.raises(error):
            BitString.from_packed(data, length)

    @pytest.mark.parametrize("length", [np.int64(8), np.uint8(8)])
    def test_from_packed_integer_types(self, length):
        assert BitString.from_packed(b"\x05", length) == BitString("10100000")


_W = BitString("0101")
_RNG = SeededRng(0)   # no case draws from it
# (function, arguments, the error the call must raise)
_LENGTH_CASES = [
    (_RNG.random_bits, (8.5,), ParameterError),
    (_RNG.random_bits, (-1,), ParameterError),
    (_RNG.subset, (8.5, 2), ParameterError),
    (_RNG.subset, (8, 2.5), ParameterError),
    (_RNG.subset, (8, -1), ParameterError),
    (_RNG.subset, (3, 4), DimensionError),
    (BitString.zeros, (3.5,), ParameterError),
    (BitString.zeros, (-1,), ParameterError),
    (BitString.ones, (3.5,), ParameterError),
    (zero_pad_prefix, (_W, 2.5), ParameterError),
    (BitString("01").bit, (1.5,), ParameterError),
    (_W.prefix, (-1,), ParameterError),
    (_W.suffix, (-1,), ParameterError),
    (_W.prefix, (1.5,), ParameterError),
    (_W.suffix, (1.5,), ParameterError),
    (_W.prefix, (9,), DimensionError),
    (_W.suffix, (9,), DimensionError),
    (expected_rv_distance, (_W, _W, 2.5), ParameterError),
    (rv_distance_samples, (_W, _W, 2.5, 4, _RNG), ParameterError),
    (rv_distance_samples, (_W, _W, 4, 2.5, _RNG), ParameterError),
    (empirical_rv_distance, (_W, _W, 4, 1.5, _RNG), ParameterError),
]


class TestLengthContract:
    """A length, count or position that is not an integer, or a negative
    length, raises ParameterError; a position or length past the word
    raises DimensionError; numpy's errors never surface."""

    @pytest.mark.parametrize("fn, args, error", _LENGTH_CASES, ids=[
        f"{fn.__name__}{args}" for fn, args, _ in _LENGTH_CASES])
    def test_raises(self, fn, args, error):
        with pytest.raises(error) as info:
            fn(*args)
        assert type(info.value) is error

    def test_integer_forms_and_bounds_pass(self):
        assert _W.prefix(np.int64(4)) == _W.suffix(4) == _W
        assert _W.prefix(0) == _W.suffix(0) == BitString("")
        assert _W.bit(np.int64(2)) == 1
        assert BitString.zeros(np.int64(3)) == BitString("000")
        assert len(SeededRng(0).subset(np.int64(3), 3)) == 3
        assert SeededRng(0).random_bits(np.int64(5)) == SeededRng(0).random_bits(5)


class TestSeededRng:
    def test_reproducible(self):
        a = SeededRng(99).integers(0, 1000, size=6)
        b = SeededRng(99).integers(0, 1000, size=6)
        assert np.array_equal(a, b)
        assert SeededRng(99).random_bits(32) == SeededRng(99).random_bits(32)

    def test_frozen_stream(self):
        # Pins the counter-based stream this repo is built against.
        got = SeededRng(12345).integers(0, 1000, size=5)
        assert got.tolist() == [57, 646, 544, 774, 961]

    def test_spawn_is_seed_plus_stream_id(self):
        base = SeededRng(7)
        assert base.spawn(3).seed == 10
        assert base.spawn(3).random_bits(16) == SeededRng(10).random_bits(16)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "abc", "1", None])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 used to become seed 1 and "abc" a bare ValueError
        with pytest.raises(ParameterError, match="^seed .* is not an integer"):
            SeededRng(seed)

    def test_numpy_integer_seeds(self):
        assert SeededRng(np.int64(5)).random_bits(16) == SeededRng(5).random_bits(16)
        assert SeededRng(np.uint64(2 ** 64 - 1)).seed == 2 ** 64 - 1
        assert SeededRng(7).spawn(np.int8(3)).seed == 10

    def test_stream_id_must_be_an_integer(self):
        with pytest.raises(ParameterError, match="^stream_id .* is not an integer"):
            SeededRng(7).spawn(1.5)

    def test_subset_distinct(self):
        rng = SeededRng(5)
        for _ in range(50):
            picks = rng.subset(12, 5)
            assert len(set(picks.tolist())) == 5
            assert all(0 <= p < 12 for p in picks)

    def test_algo_id(self):
        assert SeededRng(0).algo_id == "numpy-philox4x64"


def _philox_state(bit_generator):
    state = bit_generator.state
    return ({k: v.tolist() for k, v in state.pop("state").items()},
            state.pop("buffer").tolist(), state)


class TestPhiloxKeying:
    """SeededRng(s) is Philox4x64 with key (s mod 2^64, 0) and counter 0:
    the state and every draw equal numpy's Philox(key=s mod 2^64)."""

    SEEDS = [0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, -1]

    @staticmethod
    def _assert_same_stream(rng, key):
        ref = np.random.Philox(key=key)
        assert _philox_state(rng._gen.bit_generator) == _philox_state(ref)
        gen = np.random.Generator(ref)
        assert (rng.integers(0, 1000, size=8).tolist()
                == gen.integers(0, 1000, size=8).tolist())
        assert np.array_equal(rng.random_bits(40).bits,
                              gen.integers(0, 2, size=40, dtype=np.uint8))
        assert np.array_equal(rng.subset(30, 5),
                              gen.choice(30, size=5, replace=False))
        # a pending half may sit in Python: hand it to Philox's state first
        assert (_philox_state(rng._to_numpy().bit_generator)
                == _philox_state(gen.bit_generator))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_and_draws_match_keyed_philox(self, seed):
        self._assert_same_stream(SeededRng(seed), seed & (2 ** 64 - 1))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spawn_matches_keyed_philox(self, seed):
        key = (seed + 3) & (2 ** 64 - 1)
        self._assert_same_stream(SeededRng(seed).spawn(3), key)

    def test_import_leaves_numpy_random_unloaded(self):
        # the key hand-off is registered with numpy.random on first use
        code = ("import sys, rvsketch; "
                "assert 'numpy.random' not in sys.modules; "
                "rvsketch.SeededRng(3).integers(0, 2, size=1); "
                "assert 'numpy.random' in sys.modules")
        src = str(Path(rvsketch.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_pickle_round_trips_a_used_stream(self):
        rng = SeededRng(2 ** 63 + 5)
        rng.integers(0, 7, size=3)
        rng.random_bits(11)
        clone = pickle.loads(pickle.dumps(rng))
        assert clone.seed == rng.seed
        assert (clone.integers(0, 2 ** 62, size=16).tolist()
                == rng.integers(0, 2 ** 62, size=16).tolist())
        assert np.array_equal(clone.subset(50, 9), rng.subset(50, 9))


def _numpy_rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


class TestRawSamplers:
    """random_bits and subset are computed from Philox's raw words, with the
    values and stream position of numpy's Generator, pending half included."""

    BITS = [0, 1, 7, 8, 9, 31, 32, 33, 80, 121, 169, 256]
    SUBSETS = [(7, 1), (16, 2), (16, 16), (30, 5), (8, 0), (1, 1), (10000, 3),
               (10001, 3), (0, 0), (5, 5), (6, 6), (2 ** 32, 5), (2 ** 32 + 1, 1)]

    @staticmethod
    def _assert_mixed_draws(rng, gen, seed):
        # one uint32 per int64 entry below 2^32: odd sizes leave a half in numpy
        size = seed % 4 + 1
        for i, length in enumerate(TestRawSamplers.BITS):
            assert np.array_equal(rng.random_bits(length).bits,
                                  gen.integers(0, 2, length, np.uint8))
            if i % 3 == seed % 3:
                assert (rng.integers(0, 1000, size=size).tolist()
                        == gen.integers(0, 1000, size=size).tolist())
        for i, (n, m) in enumerate(TestRawSamplers.SUBSETS):
            got, want = rng.subset(n, m), gen.choice(n, size=m, replace=False)
            assert got.dtype == want.dtype == np.int64
            assert got.tolist() == want.tolist()
            if i % 3 == seed % 3:
                assert (rng.integers(0, 5, size=size, dtype=np.uint8).tolist()
                        == gen.integers(0, 5, size=size, dtype=np.uint8).tolist())

    def test_mixed_draws_match_numpy_over_1000_seeds(self):
        for seed in range(1000):
            rng, gen = SeededRng(seed), _numpy_rng(seed)
            self._assert_mixed_draws(rng, gen, seed)
            assert (_philox_state(rng._to_numpy().bit_generator)
                    == _philox_state(gen.bit_generator))

    def test_known_answers(self):
        rng = SeededRng(12345)
        assert str(rng.random_bits(13)) == "0110000100011"   # a half left pending
        assert rng.subset(16, 4).tolist() == [14, 2, 12, 11]
        assert str(rng.random_bits(9)) == "101101100"
        assert rng.subset(30, 5).tolist() == [25, 1, 12, 15, 24]
        assert rng.integers(0, 1000, size=3).tolist() == [964, 18, 700]
        assert str(rng.random_bits(6)) == "110111"   # a half taken back from numpy

    def test_rejection_loop_matches_numpy(self):
        # at r = 2^31 a draw is rejected while its low word is below 2^31 - 1
        for seed in range(20):
            rng, gen = SeededRng(seed), _numpy_rng(seed)
            rng.random_bits(4)   # start on a pending half
            gen.integers(0, 2, 4, np.uint8)
            assert ([rng._bounded(2 ** 31) for _ in range(100)]
                    == gen.integers(0, 2 ** 31 + 1, size=100).tolist())
            assert (_philox_state(rng._to_numpy().bit_generator)
                    == _philox_state(gen.bit_generator))
            # Philox makes 4 raw words per counter step: 100 draws that read
            # about 200 uint32s rejected about half
            state = gen.bit_generator.state
            raw = 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]
            assert 150 < 2 * raw - state["has_uint32"] - 1 < 250

    @pytest.mark.parametrize("r,threshold", [(6, 4), (2 ** 31, 2 ** 31 - 1)])
    def test_rejection_threshold_is_exact(self, r, threshold):
        # the first word's product has low word threshold - 1 and is drawn
        # again; the second's has exactly the threshold and is kept
        assert threshold == 2 ** 32 % (r + 1)
        below, at = (low * pow(r + 1, -1, 2 ** 32) % 2 ** 32
                     for low in (threshold - 1, threshold))
        words = iter([below | at << 32])   # one raw word: its low half first
        rng = SeededRng(0)
        rng._gen = SimpleNamespace(
            bit_generator=SimpleNamespace(random_raw=words.__next__))
        assert ([rng._bounded(bound) for bound in (0, r, 0)]
                == [0, at * (r + 1) >> 32, 0])
        assert next(words, None) is None and rng._half is None

    def test_full_range_bound_reads_numpy_uint32_stream(self):
        # bounded(2^32 - 1) is the uint32 itself, as in numpy
        rng, gen = SeededRng(9), _numpy_rng(9)
        for length in (0, 4, 0, 8, 12, 0, 20, 4, 4):
            assert np.array_equal(rng.random_bits(length).bits,
                                  gen.integers(0, 2, length, np.uint8))
            assert (rng._bounded(2 ** 32 - 1)
                    == gen.integers(0, 2 ** 32, dtype=np.uint32))

    @pytest.mark.parametrize("n,m,python", [
        (30, 5, True), (30, 6, False), (2 ** 32, 5, True), (2 ** 32 + 1, 1, False)])
    def test_python_draws_m_up_to_5_of_n_up_to_2_to_32(self, n, m, python):
        # past m = 5 numpy's one call is faster; past n = 2^32 numpy draws
        # j >= 2^32 from a raw 64-bit word
        rng = SeededRng(4)
        rng.subset(n, m)
        assert (rng._half == bitcore._NUMPY) != python

    @pytest.mark.parametrize("prefix", ["none", "python", "numpy"])
    def test_pickle_round_trips_each_pending_state(self, prefix):
        rng, gen = SeededRng(77), _numpy_rng(77)
        if prefix == "python":   # one uint32 read: Python holds the high half
            rng.random_bits(3)
            gen.integers(0, 2, 3, np.uint8)
        elif prefix == "numpy":   # one uint32 read by numpy itself
            rng.integers(0, 9, size=1)
            gen.integers(0, 9, size=1)
        else:   # two uint32s: no half pending
            rng.random_bits(8)
            gen.integers(0, 2, 8, np.uint8)
        clone = pickle.loads(pickle.dumps(rng))
        self._assert_mixed_draws(clone, gen, 5)
        assert (_philox_state(clone._to_numpy().bit_generator)
                == _philox_state(gen.bit_generator))
