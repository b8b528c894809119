import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rvsketch import (BitString, DimensionError, ParameterError, SeededRng,
                      hamming_distance, hamming_weight, xor, zero_pad_prefix)

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
        with pytest.raises(DimensionError):
            BitString.from_packed(b"\x00", 9)


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

    def test_subset_distinct(self):
        rng = SeededRng(5)
        for _ in range(50):
            picks = rng.subset(12, 5)
            assert len(set(picks.tolist())) == 5
            assert all(0 <= p < 12 for p in picks)

    def test_algo_id(self):
        assert SeededRng(0).algo_id == "numpy-philox4x64"
