import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rvsketch
from rvsketch import (BitString, DimensionError, ParameterError, SeededRng,
                      empirical_rv_distance, expected_rv_distance,
                      hamming_distance, hamming_weight, rv_distance_samples,
                      sample_error, xor, zero_pad_prefix)

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
        assert hamming_distance(a, b) == hamming_weight(xor(a, b))

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
    (sample_error, (7.5, 0.25, _RNG), ParameterError),
    (sample_error, (-3, 0.25, _RNG), ParameterError),
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
        assert (_philox_state(rng._gen.bit_generator)
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
