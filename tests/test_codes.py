import math
import re
import tracemalloc
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from oracles import (all_codewords_matrix, codewords_packed,
                     gauss_jordan_parity_and_left_inverse,
                     min_distance_bruteforce, min_distance_exhaustive,
                     nearest_codeword, non_pivot_rows, pack_rows)
from rvsketch import (BitString, CapacityError, DimensionError,
                      InversionError, LinearCode, ParameterError, SeededRng,
                      SketchParams, bch_code, code_from_spec, code_from_text,
                      code_to_text, decode, encode, gen_index_vector,
                      hamming_distance, hamming_weight, invert_message,
                      make_sketch, random_linear_code, recover_sweep,
                      syndrome, xor, zero_pad_prefix)
from rvsketch import codes, recover


@pytest.fixture(scope="module")
def bch15():
    return bch_code(4, 2)


@pytest.fixture(scope="module")
def hamming7():
    return bch_code(3, 1)


@pytest.fixture(scope="module")
def bch31():
    return bch_code(5, 3)


def _flip(word, positions):
    bits = word.bits.copy()
    bits[list(positions)] ^= 1
    return BitString(bits)


class TestBchConstruction:
    def test_15_7_parameters(self, bch15):
        assert (bch15.n, bch15.k, bch15.t) == (15, 7, 2)
        assert bch15.n - bch15.k <= 4 * 2

    def test_hamming_7_4(self, hamming7):
        assert (hamming7.n, hamming7.k) == (7, 4)
        assert min_distance_bruteforce(hamming7) == 3

    def test_31_16_parameters(self, bch31):
        assert (bch31.n, bch31.k, bch31.t) == (31, 16, 3)

    def test_design_distance(self, bch15, bch31):
        assert min_distance_bruteforce(bch15) >= 5
        assert min_distance_bruteforce(bch31) >= 7

    def test_structural_invariants(self, bch15):
        assert np.all((bch15.H @ bch15.G.astype(np.int64)) % 2 == 0)
        assert encode(bch15, BitString.zeros(7)) == BitString.zeros(15)

    # the n-k of every bch_code(m, t), m = 3..6, refused for its table, as
    # the per-coset lcm construction refused it (golden.json freezes the
    # text of every other one)
    TOO_LONG = {
        (5, 6): 25, (5, 7): 25, **{(5, t): 30 for t in range(8, 16)},
        (6, 5): 27, (6, 6): 33, (6, 7): 39, (6, 8): 45, (6, 9): 45,
        (6, 10): 45, (6, 11): 47, (6, 12): 53, (6, 13): 53, (6, 14): 56,
        (6, 15): 56, **{(6, t): 62 for t in range(16, 32)},
    }

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_generators_are_pinned(self, m):
        refused = {}
        for t in range(1, 2 ** (m - 1)):
            try:
                bch_code(m, t)
            except ParameterError as exc:
                refused[m, t] = (type(exc), str(exc))
        assert refused == {
            key: (CapacityError, f"coset-leader table needs n-k <= 24, got {r}")
            for key, r in self.TOO_LONG.items() if key[0] == m}

    def test_generator_leaves_a_message_bit(self):
        # 1 <= t < 2^(m'-1) gives 2t <= n-1, and n is odd, so alpha^0 lies
        # in no cyclotomic coset of 1..2t: deg g <= n-1 and k >= 1
        degrees = {(m, t): codes._bch_generator(m, t).bit_length() - 1
                   for m in (3, 4, 5, 6) for t in range(1, 2 ** (m - 1))}
        assert len(degrees) == 56
        assert all(d <= 2 ** m - 2 for (m, t), d in degrees.items())
        assert any(d == 2 ** m - 2 for (m, t), d in degrees.items())

    def test_repr(self):
        assert repr(bch_code(4, 2)) == "LinearCode[15,7,t=2](bch)"

    def test_parameter_errors(self):
        message = r"^need 1 <= t < 2\^\(m_prime-1\) = 8, got {}$"
        with pytest.raises(ParameterError, match=message.format(8)):
            bch_code(4, 8)          # t >= 2^(m'-1)
        with pytest.raises(ParameterError):
            bch_code(7, 1)          # unsupported field
        with pytest.raises(ParameterError, match=message.format(0)):
            bch_code(4, 0)

    @pytest.mark.parametrize("m,t", [(4.0, 2), (4, 2.0), ("4", 2), (4, None)])
    def test_arguments_must_be_integers(self, m, t):
        with pytest.raises(ParameterError, match="is not an integer"):
            bch_code(m, t)

    def test_numpy_integer_arguments(self, bch15):
        assert bch_code(np.int64(4), np.int32(2)) == bch15

    def test_weight_le_3_exhaustive_correction(self, bch31):
        # every pattern of weight <= 3 on random codewords decodes back
        rng = SeededRng(77)
        words = [encode(bch31, rng.random_bits(16)) for _ in range(2)]
        count = 0
        for w in range(4):
            for supp in combinations(range(31), w):
                count += 1
                for cw in words:
                    assert decode(bch31, _flip(cw, supp)) == cw
        assert count == 1 + 31 + 465 + 4495


@st.composite
def _generator_matrices(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * k, max_size=n * k))
    return np.array(bits, dtype=np.uint8).reshape(n, k)


def _seeded_generator(n, k, seed, deficient=False):
    G = np.random.default_rng(seed).integers(0, 2, size=(n, k), dtype=np.uint8)
    if deficient:   # column 0 becomes the XOR of the others
        G[:, 0] = G[:, 1:].sum(axis=1) % 2
    return G


def _invertible(n, seed):
    """A full-rank square generator: unit lower times unit upper triangular."""
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.integers(0, 2, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, 2, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
    return (lower @ upper % 2).astype(np.uint8)


def _split_pivots(n, k, seed):
    """An n x k generator whose rows 0-1, the two rows after each pivot
    pair and the last rows are free: the free columns of [G^T | I_k] come
    before, between and after its pivot runs."""
    G = np.random.default_rng(seed).integers(0, 2, size=(n, k), dtype=np.uint8)
    pivots = [2 + 4 * (j // 2) + j % 2 for j in range(k)]
    G[:pivots[-1] + 1] = 0
    G[pivots, range(k)] = 1
    return G


def _last_dependent(n, k, seed):
    """An n x k generator whose last column is the XOR of the others, which
    are independent: the first dependent row of [G^T | I_k] is its last."""
    G = _invertible(n, seed)[:, :k]
    G[:, -1] = G[:, :-1].sum(axis=1) % 2
    return G


@st.composite
def _wide_generators(draw):
    """n x k generators up to n = 200, so H and L each take one to four
    64-bit words and the rows of [G^T | I_k] up to seven; half of them have
    a column in the span of the others."""
    n = draw(st.integers(1, 200))
    k = draw(st.sampled_from([0, n]) | st.integers(0, n))
    return _seeded_generator(n, k, draw(st.integers(0, 2 ** 32 - 1)),
                             k > 0 and draw(st.booleans()))


class TestElimination:
    @settings(max_examples=150, deadline=None)
    @given(_wide_generators())
    @example(_seeded_generator(150, 70, 1))      # k > 64 and n-k > 64
    @example(_seeded_generator(130, 120, 2))     # k > 64, one H word
    @example(_seeded_generator(150, 20, 3))      # n-k > 64, one L word
    @example(_seeded_generator(128, 64, 4))      # both parts fill whole words
    @example(_seeded_generator(200, 0, 5))       # H = I, no L rows
    @example(_seeded_generator(200, 199, 6, deficient=True))
    @example(np.zeros((70, 66), dtype=np.uint8))
    @example(_split_pivots(12, 4, 7))              # free runs 0-1, 4-5, 8-11
    @example(_split_pivots(150, 30, 8))            # runs across H's words
    @example(_invertible(64, 9))                   # square: one full word
    @example(_invertible(65, 10))                  # square: one bit past it
    @example(_invertible(128, 11))                 # square: two full words
    @example(_invertible(8, 12))       # column stride 8 bits, none padded
    @example(_seeded_generator(8, 5, 13))
    @example(_invertible(9, 14))       # stride 16: 7 pad bits per column
    @example(_seeded_generator(9, 4, 15))
    @example(_invertible(16, 16))      # stride 16, none padded
    @example(_seeded_generator(16, 11, 17))
    @example(_invertible(17, 18))      # stride 24: 7 pad bits per column
    @example(_seeded_generator(17, 9, 19))
    # the int64 product reads G in blocks of 63 rows
    @example(_invertible(62, 20))
    @example(_seeded_generator(62, 30, 21))
    @example(_invertible(63, 22))      # one full block
    @example(_seeded_generator(63, 50, 23))
    @example(_seeded_generator(64, 33, 24))   # one row past it
    @example(_invertible(126, 25))     # two full blocks
    @example(_seeded_generator(126, 70, 26))
    @example(_invertible(127, 27))
    @example(_seeded_generator(127, 100, 28))
    @example(_last_dependent(12, 5, 29))
    @example(_last_dependent(63, 63, 30))
    def test_packed_table_against_gauss_jordan(self, G):
        expect = gauss_jordan_parity_and_left_inverse(G)
        if expect is None:
            with pytest.raises(ParameterError, match="rank deficient"):
                codes._parity_and_left_inverse(G)
            return
        H, L = expect
        cols = codes._parity_and_left_inverse(G)
        assert np.array_equal(cols, _packed_cols(np.vstack([H, L])))
        if G.shape[1] == 0:   # H = I, no L rows: a [n, 0] code is refused
            with pytest.raises(ParameterError, match="need 1 <= k <= n"):
                LinearCode(G, 0, "random")
            return
        c = LinearCode(G, 0, "random")
        assert np.array_equal(c.H, H) and np.array_equal(c._L, L)

    @settings(max_examples=300, deadline=None)
    @given(_generator_matrices())
    @example(np.array([[1, 1], [0, 0], [1, 1]], dtype=np.uint8))
    @example(np.eye(5, 3, dtype=np.uint8))
    def test_parity_and_left_inverse_against_span_oracle(self, G):
        n, k = G.shape
        if k == 0:   # H = I, no L rows: a [n, 0] code is refused
            assert np.array_equal(codes._parity_and_left_inverse(G),
                                  _packed_cols(np.eye(n, dtype=np.uint8)))
            with pytest.raises(ParameterError, match="need 1 <= k <= n"):
                LinearCode(G, 0, "random")
            return
        free = non_pivot_rows(G)
        if n - len(free) < k:
            with pytest.raises(ParameterError, match="rank deficient"):
                LinearCode(G, 0, "random")
            return
        c = LinearCode(G, 0, "random")
        G64 = G.astype(np.int64)
        # these four conditions determine H and L uniquely
        assert np.array_equal((c.H @ G64) % 2, np.zeros((n - k, k)))
        assert np.array_equal((c._L @ G64) % 2, np.eye(k))
        assert np.array_equal(c.H[:, free], np.eye(n - k))
        assert not c._L[:, free].any()

    def test_one_elimination_per_code_and_per_draw(self, monkeypatch):
        real = codes._eliminate
        calls = []
        monkeypatch.setattr(codes, "_eliminate",
                            lambda G: calls.append(G) or real(G))
        bch_code(4, 2)
        assert len(calls) == 1
        bch_code(4, 2)   # not cached: a repeated (m', t) is built again
        assert len(calls) == 2
        calls.clear()
        random_linear_code(12, 12, SeededRng(5))
        # replay the draws: every rank-deficient one was eliminated once too
        rng = SeededRng(5)
        draws = 1
        while len(non_pivot_rows(rng.integers(0, 2, size=(12, 12),
                                              dtype=np.uint8))):
            draws += 1
        assert draws > 1 and len(calls) == draws

    def test_a_rank_deficient_draw_builds_no_code(self, monkeypatch):
        eliminate, build = codes._eliminate, LinearCode._build
        eliminations, builds = [], []
        monkeypatch.setattr(codes, "_eliminate",
                            lambda G: eliminations.append(G) or eliminate(G))
        monkeypatch.setattr(LinearCode, "_build",
                            lambda self, *a: builds.append(a) or build(self, *a))
        code = random_linear_code(12, 12, SeededRng(5))
        assert len(eliminations) > 1 and len(builds) == 1
        G, cols = builds[0][:2]
        assert G is eliminations[-1] is code.G and cols is code._cols


class TestGeneratorInput:
    """G is checked before the uint8 cast, which would wrap or truncate."""

    @pytest.mark.parametrize("G", [
        [[2, 1], [1, 1], [0, 1]], [[1.5, 0], [0, 1]], [[-1, 0], [0, 1]],
        np.array([[256, 1], [0, 1]]), [["1", "0"], ["0", "1"]],
        [[1 + 0j, 0], [0, 1]], [[np.nan, 0], [0, 1]]])
    def test_rejects_entries_other_than_0_and_1(self, G):
        with pytest.raises(ParameterError, match="generator matrix must be 0 or 1"):
            LinearCode(G, 0, "random")

    @pytest.mark.parametrize("G", [1, [1, 0, 1], np.ones((2, 2, 1))])
    def test_rejects_other_than_two_axes(self, G):
        with pytest.raises(ParameterError, match="must be 2-dimensional"):
            LinearCode(G, 0, "random")

    def test_accepts_bool_int_and_float_matrices(self):
        G = np.eye(3, 2, dtype=np.uint8)
        for other in (G.astype(bool), G.astype(np.int64), G.astype(float),
                      np.ascontiguousarray(G.T).T, G.tolist()):
            assert LinearCode(other, 0, "random") == LinearCode(G, 0, "random")

    def test_keeps_a_copy(self):
        G = np.eye(3, 2, dtype=np.uint8)
        code = LinearCode(G, 0, "random")
        G[2, 0] = 1   # the caller's array stays writeable
        assert code.G[2, 0] == 0 and code.G.flags.c_contiguous


def _text(G, t=0, kind="random", param=None):
    """The code text of any G, rank deficient or not, without building it."""
    n, k = G.shape
    return codes._render_text(kind, n, k, t, param, G)


class TestMemoization:
    ARRAYS = ("G", "H", "_L", "_cols")   # and _table when t > 0

    def test_texts_differing_in_g_give_distinct_codes(self, bch15):
        # a coordinate permutation keeps the BCH distance, so t = 2 still fits
        perms = [np.arange(15), np.roll(np.arange(15), 1),
                 2 * np.arange(15) % 15]
        built = []
        for perm in perms:
            G = np.ascontiguousarray(bch15.G[perm])
            code = code_from_text(_text(G, t=2, kind="bch", param=4))
            fresh = LinearCode(G, 2, kind="bch", param=4)
            for name in ("H", "_L", "_table"):
                assert np.array_equal(getattr(code, name), getattr(fresh, name))
            built.append(code)
        assert len({id(c) for c in built}) == len(perms)
        assert not np.array_equal(built[0].G, built[1].G)

    def test_errors_are_not_cached(self, monkeypatch):
        real = codes._parity_and_left_inverse
        calls = []
        monkeypatch.setattr(codes, "_parity_and_left_inverse",
                            lambda G: calls.append(G) or real(G))
        rank_deficient = _text(np.zeros((6, 3), dtype=np.uint8))
        over_cap = _text(np.eye(31, 6, dtype=np.uint8), t=1)   # n-k = 25
        for text, error in ((rank_deficient, ParameterError),
                            (over_cap, CapacityError)):
            calls.clear()
            for _ in range(2):
                with pytest.raises(error):
                    code_from_text(text)
            assert len(calls) == 2
        for _ in range(2):
            with pytest.raises(CapacityError):
                bch_code(5, 6)

    def test_caches_stay_bounded(self):
        size = codes._CODE_CACHE_SIZE
        for i in range(size + 4):
            # systematic [8, 4] generators with the bits of i as parity part
            parity = (i >> np.arange(16) & 1).reshape(4, 4).astype(np.uint8)
            code_from_text(_text(np.vstack([np.eye(4, dtype=np.uint8), parity])))
        assert len(codes._text_codes) == size

    @staticmethod
    def _distance_3_text(i):
        """A [21, 4] t = 1 code text: n-k = 17, so a 1 MiB coset table.

        G = [I_4; P] has parity check [P | I_17], whose columns are distinct
        and nonzero when P's columns are distinct with two bits set or more.
        """
        cols = 3 + 4 * (4 * i + np.arange(4))   # bits 0 and 1 always set
        P = (cols[None, :] >> np.arange(17)[:, None] & 1).astype(np.uint8)
        return _text(np.vstack([np.eye(4, dtype=np.uint8), P]), t=1)

    def test_text_cache_is_bounded_in_bytes(self, monkeypatch):
        texts = [self._distance_3_text(i) for i in range(6)]
        first = code_from_text(texts[0])
        assert 1 << 20 <= first._nbytes < 2 << 20
        # room for two of these codes, not three
        monkeypatch.setattr(codes, "_CODE_CACHE_BYTES", 5 * first._nbytes // 2)
        second = code_from_text(texts[1])
        assert code_from_text(texts[0]) is first   # a hit renews texts[0]
        for text in texts[2:]:
            newest = code_from_text(text)
            cached = list(codes._text_codes.values())
            assert cached[-1] is newest
            assert codes._text_codes_bytes == sum(c._nbytes for c in cached)
            assert codes._text_codes_bytes <= (codes._CODE_CACHE_BYTES
                                               + newest._nbytes)
            assert code_from_text(text) is newest
            if text is texts[2]:   # the least recently used code went first
                assert len(cached) == 2 and cached[0] is first
        assert not any(c is first for c in codes._text_codes.values())
        rebuilt = code_from_text(texts[0])
        assert rebuilt is not first and rebuilt == first
        assert code_from_text(texts[1]) is not second
        # small codes loaded in turn stay shared under the same budget
        small = [_text(np.eye(5, 3, k=-j, dtype=np.uint8)) for j in range(2)]
        a, b = (code_from_text(text) for text in small)
        assert code_from_text(small[0]) is a and code_from_text(small[1]) is b

    def _count_parses(self, monkeypatch):
        real = codes._parse_code_text
        calls = []
        monkeypatch.setattr(codes, "_parse_code_text",
                            lambda text: calls.append(text) or real(text))
        return calls

    def test_repeated_text_is_not_parsed_again(self, monkeypatch, bch15):
        calls = self._count_parses(monkeypatch)
        text = code_to_text(bch15)
        first = code_from_text(text)
        parsed = len(calls)
        # an equal text built anew, not the same str object
        again = code_from_text("".join(list(text)))
        assert again is first and first == bch15
        assert len(calls) == parsed <= 1

    def test_whitespace_variant_loads_an_equal_code(self, monkeypatch, bch15):
        calls = self._count_parses(monkeypatch)
        text = code_to_text(bch15)
        variant = "  " + text.replace(": ", ":   ").replace("\n", " \r\n")
        code = code_from_text(variant)
        assert calls[-1] == variant
        assert code == bch15 and code_to_text(code) == text
        assert code_from_text(variant) is code

    def test_padded_text_is_never_a_key(self, monkeypatch, bch15):
        calls = self._count_parses(monkeypatch)
        text = code_to_text(bch15)
        padded = text + "pad: " + "x" * (1 << 20) + "\n" + " " * (1 << 20)
        code = code_from_text(padded)
        assert code == bch15 and code_from_text(text) is code
        assert code_from_text(padded) is code
        assert calls == [padded, padded]   # parsed on each call, never kept
        assert padded not in codes._text_codes
        for key, cached in codes._text_codes.items():
            assert key == code_to_text(cached)

    def test_invalid_text_raises_on_every_call(self, monkeypatch):
        calls = self._count_parses(monkeypatch)
        bad = code_to_text(bch_code(3, 1)).replace("k: 4", "k: 5")
        for i in range(3):
            with pytest.raises(ParameterError, match="wrong length"):
                code_from_text(bad)
            assert calls == [bad] * (i + 1)
        assert bad not in codes._text_codes

    def test_code_keeps_its_text(self):
        code = bch_code(4, 2)
        text = code_to_text(code)
        assert code_to_text(code) is text
        assert code_to_text(code_from_text(text)) == text

    def test_lazy_h_and_l_keep_the_byte_count(self):
        code = random_linear_code(40, 24, SeededRng(3))
        before = code._nbytes
        assert not hasattr(code, "_table")   # t = 0: no coset table
        assert before == sum(getattr(code, name).nbytes for name in self.ARRAYS)
        assert code._nbytes == before

    @pytest.mark.parametrize("name", ARRAYS + ("_table",))
    def test_cached_arrays_are_read_only(self, bch15, name):
        for code in (bch15, code_from_text(code_to_text(bch15))):
            arr = getattr(code, name)
            assert arr.size
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] ^= 1


def _packed_cols(M):
    """The columns of M packed contiguously by pack_rows, 64 rows to a
    word (row i -> bit i % 64 of word i // 64), one word at least, plus the
    zero sentinel row; a flat array when a column fits in one word."""
    words = max(1, -(-len(M) // 64))
    out = np.zeros((M.shape[1] + 1, words), dtype=np.uint64)
    for j in range(words):
        chunk = M[64 * j:64 * (j + 1)]
        if len(chunk):
            out[:-1, j] = pack_rows(chunk.T)
    return out[:, 0] if words == 1 else out


def _as_packed(values, n):
    """Python ints as packed words of a length-n code: flat uint64 for
    n <= 64, else rows of ceil(n/64) words."""
    words = max(1, -(-n // 64))
    out = np.array([[v >> 64 * j & (2 ** 64 - 1) for j in range(words)]
                    for v in values], dtype=np.uint64).reshape(len(values), words)
    return out[:, 0] if words == 1 else out


class TestPackedTable:
    """_cols packs each column of [H; L] contiguously: H's rows from bit 0,
    L's from bit n-k, in ceil(n/64) words, a flat array for one word."""

    @staticmethod
    def _check(c):
        assert np.array_equal(c._cols, _packed_cols(np.vstack([c.H, c._L])))
        words = -(-c.n // 64)
        assert c._cols.shape == ((c.n + 1,) if words == 1 else (c.n + 1, words))
        assert c._cols.dtype == np.uint64 and not c._cols.flags.writeable

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_bch_codes(self, m):
        for t in range(1, 2 ** (m - 1)):
            try:
                self._check(bch_code(m, t))
            except CapacityError:   # n-k > 24: no table
                continue

    def test_random_7_4_codes(self):
        for seed in range(20):
            self._check(random_linear_code(7, 4, SeededRng(seed)))

    def test_two_word_code(self):
        # n-k = 40: L's rows 24..59 lie in the second word
        c = random_linear_code(100, 60, SeededRng(100))
        assert c._cols.shape == (101, 2)
        self._check(c)

    @pytest.mark.parametrize("n,k", [(64, 40), (65, 1), (65, 65), (128, 64),
                                     (129, 100), (140, 70)])
    def test_word_boundary_codes(self, n, k):
        self._check(random_linear_code(n, k, SeededRng(n * k)))

    @pytest.mark.parametrize("shape", [(), (2,), (3,)])
    def test_words_round_trip(self, shape):
        # bit i of each int lands in bit i % 64 of word i // 64, where
        # _field reads it back; row 0 sets the last word's top bit
        bits = 64 * (shape[0] if shape else 1)
        rows = SeededRng(bits).integers(0, 2, size=(5, bits), dtype=np.uint8)
        rows[0] = 1
        words = codes._words([sum(int(b) << i for i, b in enumerate(row))
                              for row in rows], shape)
        assert words.shape == (5,) + shape and words.dtype == np.uint64
        assert not words.flags.writeable
        assert np.array_equal(codes._field(words, 0, bits), rows)
        assert codes._words([], shape).shape == (0,) + shape

    @pytest.mark.parametrize("n", [15, 63, 64, 65, 128, 129, 200])
    @pytest.mark.parametrize("batch", [0, 1, 4, 28])
    def test_syndromes_are_the_matrix_product(self, n, batch):
        # one to four words per column; the result is C-ordered (B,) for
        # one word, (B, words) beyond
        c = bch_code(4, 2) if n == 15 else random_linear_code(n, n // 2, SeededRng(n))
        words = SeededRng(batch).integers(0, 2, size=(batch, n), dtype=np.uint8)
        packed = c._syndromes(words)
        shape = (batch,) if n <= 64 else (batch, -(-n // 64))
        assert packed.shape == shape and packed.dtype == np.uint64
        assert packed.flags.c_contiguous
        expect = words.astype(np.int64) @ np.vstack([c.H, c._L]).T % 2
        if batch:
            assert np.array_equal(codes._field(packed, 0, n), expect)

    def test_square_code_has_one_zero_syndrome_word(self):
        # no syndrome bits: the one word per column is all L, and every
        # packed word hits
        c = random_linear_code(9, 9, SeededRng(9))
        assert c._cols.shape == (10,) and c._syn_mask == 0
        self._check(c)
        every = np.arange(1 << 9, dtype=np.uint64)
        hit, fixed = c._lookup(every)
        assert hit.all() and np.array_equal(fixed, every)
        assert not hasattr(c, "_table")   # t = 0: no coset table


class TestCosetTable:
    """The packed coset-leader table against brute force: every pattern of
    weight <= t, enumerated independently, maps to itself and to L * itself."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_every_bch_table_matches_brute_force(self, m):
        built = 0
        for t in range(1, 2 ** (m - 1)):
            try:
                c = bch_code(m, t)
            except CapacityError:   # n-k > 24: no table
                continue
            built += 1
            h_cols = pack_rows(c.H.T)   # column j of H as one packed word
            l_cols = pack_rows(c._L.T)
            r = np.uint64(c.n - c.k)
            total = 0
            for w in range(t + 1):
                count = math.comb(c.n, w)
                total += count
                pats = np.fromiter(chain.from_iterable(combinations(range(c.n), w)),
                                   dtype=np.intp, count=count * w).reshape(count, w)
                syn = np.bitwise_xor.reduce(h_cols[pats], axis=1)
                msg = np.bitwise_xor.reduce(l_cols[pats], axis=1)
                word = syn | msg << r   # n <= 63: one flat packed word
                hit, fixed = c._lookup(word)
                assert hit.all()
                assert np.array_equal(c._table[syn], word)
                assert not fixed.any()
            # every entry but the zero leader's at syndrome 0 is a nonzero word
            assert np.count_nonzero(c._table) == total - 1
        assert built == {3: 3, 4: 7, 5: 5, 6: 4}[m]

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_every_syndrome_hits_exactly_the_leader_set(self, m):
        # all 2^(n-k) syndromes of every table with n-k <= 20: a syndrome
        # hits iff some pattern of weight <= t has it, at that pattern's row
        built = 0
        for t in range(1, 2 ** (m - 1)):
            try:
                c = bch_code(m, t)
            except CapacityError:
                continue
            if c.n - c.k > 20:
                continue
            built += 1
            h_cols = pack_rows(c.H.T)
            leader_syn = np.concatenate([np.bitwise_xor.reduce(
                h_cols[np.array(list(combinations(range(c.n), w)), np.intp)],
                axis=1) for w in range(t + 1)])
            r = c.n - c.k
            every = np.arange(1 << r, dtype=np.uint64)
            # message bits above the syndrome do not sway the lookup
            msg = SeededRng(m).integers(0, 1 << c.k, size=len(every),
                                        dtype=np.uint64)
            hit, fixed = c._lookup(every | msg << np.uint64(r))
            assert np.array_equal(hit, np.isin(every, leader_syn))
            # entry s of a hit carries syndrome s; a miss's entry is zero
            syn_bits = np.uint64((1 << r) - 1)
            assert np.array_equal(c._table[hit] & syn_bits, every[hit])
            assert not c._table[~hit].any()
            # a hit clears the syndrome and fixes the message; a miss keeps
            # its own syndrome bits set
            assert not (fixed[hit] & syn_bits).any()
            assert (fixed[~hit] & syn_bits).all()
            assert np.array_equal(fixed, (every | msg << np.uint64(r)) ^ c._table)
        assert built == {3: 3, 4: 7, 5: 5, 6: 3}[m]

    @pytest.mark.parametrize("n,k", [(7, 4), (16, 8), (12, 12), (140, 70)])
    def test_zero_radius_hits_only_syndrome_zero(self, n, k):
        c = random_linear_code(n, k, SeededRng(n + k))
        r = n - k
        rng = SeededRng(7)
        msgs = [int(m) for m in rng.integers(0, 2 ** min(k, 63), size=6)]
        # no syndrome bits in a square code: every word is a codeword
        syndromes = [0] * 6 if r == 0 else [
            0, 1, 2 ** r - 1, 1 << (r - 1), 1 << min(r - 1, 63),
            int(rng.integers(1, 2 ** min(r, 63)))]
        words = _as_packed([s | m << r for s, m in zip(syndromes, msgs)], n)
        hit, fixed = c._lookup(words)
        assert hit.tolist() == [s == 0 for s in syndromes]
        # a t = 0 lookup skips its {0} table: fixed is the input, not a copy
        assert fixed is words
        if r <= 16:
            every = np.arange(1 << r, dtype=np.uint64)
            words = _as_packed([int(s) | msgs[0] << r for s in every], n)
            assert c._lookup(words)[0].tolist() == [True] + [False] * (len(every) - 1)

    def test_radius_beyond_packing_is_a_collision(self, bch15):
        with pytest.raises(ParameterError, match="syndrome collision"):
            LinearCode(bch15.G, 3, "bch")

    def test_two_word_table_past_the_byte_cap(self, monkeypatch):
        # a two-word t = 1 code with n-k = 24 would hold 2^24 entries of 16
        # bytes, twice _CODE_CACHE_BYTES: rejected before any pattern is
        # enumerated or any table allocated
        G = np.eye(65, 41, dtype=np.uint8)
        text = code_to_text(LinearCode(G, 0, "random")).replace(
            "\nt: 0\n", "\nt: 1\n")

        def unreachable(*args):
            raise AssertionError("patterns enumerated")
        monkeypatch.setattr(codes, "support_batches", unreachable)
        message = "coset-leader table needs n-k <= 23, got 24"
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=message):
                LinearCode(G, 1, "random")
            with pytest.raises(CapacityError, match=message):
                code_from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_pattern_cap(self, monkeypatch):
        # n-k = 24 fits one word's table, but the 8,303,633 patterns of
        # weight <= 5 in 64 bits pass the cap: rejected before any pattern
        # is enumerated or any table allocated
        G = random_linear_code(64, 40, SeededRng(64)).G

        def unreachable(*args):
            raise AssertionError("patterns enumerated")
        monkeypatch.setattr(codes, "support_batches", unreachable)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError,
                               match="^8303633 correctable patterns exceed the table cap$"):
                LinearCode(G, 5, "random")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_zero_radius_table_is_zero_only(self, hamming7):
        c = LinearCode(hamming7.G, 0, "bch")
        assert not hasattr(c, "_table")   # t = 0: no coset table
        assert decode(c, _flip(encode(c, BitString("1011")), (2,))) is None


class TestUnitWords:
    """The read-only unit words the recovery table starts from, held by the
    scan plan: word j has bit n - k* + j alone set."""

    @pytest.mark.parametrize("shape,lo,count", [((), 5, 8), ((2,), 62, 8),
                                                ((3,), 120, 20)])
    def test_word_j_holds_bit_lo_plus_j(self, shape, lo, count):
        # k* = count over an outer code of length lo + count, so n - k* = lo
        units = recover._plan(count, (1,), recover._BLOCK_ROWS, shape, lo + count,
                              count)[3]
        assert units.shape == (count + 1,) + shape and not units.flags.writeable
        bits = codes._field(units, 0, 64 * (shape[0] if shape else 1))
        expect = np.zeros_like(bits)
        expect[np.arange(count), lo + np.arange(count)] = 1
        assert np.array_equal(bits, expect)

    def test_cache_is_bounded(self):
        recover._plan.cache_clear()
        size = recover._plan.cache_info().maxsize
        for lo in range(size + 5):
            recover._plan(1, (1,), recover._BLOCK_ROWS, (), lo + 1, 1)
        info = recover._plan.cache_info()
        assert info.currsize == info.maxsize == size == 32


class TestRandomCode:
    @pytest.mark.parametrize("n,k", [(1, 1), (10, 8), (13, 13), (70, 30)])
    def test_equals_the_checked_constructor(self, n, k):
        # random_linear_code skips the 0/1 check of its own draws only
        code = random_linear_code(n, k, SeededRng(n * k))
        built = LinearCode(code.G, 0, "random", param=code.param)
        assert code == built and code_to_text(code) == code_to_text(built)
        for name in TestMemoization.ARRAYS:
            got = getattr(code, name)
            assert np.array_equal(got, getattr(built, name))
            assert not got.flags.writeable
        assert not hasattr(code, "_table") and not hasattr(built, "_table")
        assert code.G.dtype == np.uint8 and code.G.flags.c_contiguous

    def test_square_code_is_bijective(self):
        c = random_linear_code(8, 8, SeededRng(1))
        rng = SeededRng(2)
        for _ in range(20):
            word = rng.random_bits(8)
            assert decode(c, word) == word
            assert encode(c, invert_message(c, word)) == word

    def test_membership_is_exact(self):
        c = random_linear_code(16, 8, SeededRng(3))
        members = all_codewords_matrix(c.G)
        assert len({r.tobytes() for r in members}) == 256
        # vectorized syndrome of every 16-bit word: zero exactly 256 times
        words = np.arange(1 << 16, dtype=np.uint32)
        bits = ((words[:, None] >> np.arange(16)) & 1).astype(np.uint8)
        syn = (bits @ c.H.T.astype(np.int64)) % 2
        assert int((syn.sum(axis=1) == 0).sum()) == 256

    def test_two_codeword_code(self):
        c = random_linear_code(4, 1, SeededRng(4))
        cws = codewords_packed(c)
        assert len(cws) == 2 and cws[0] == 0

    @pytest.mark.parametrize("spec", ["3:1", "4:2", "random:20:9"])
    def test_packed_codewords_are_in_message_order(self, spec):
        code = code_from_spec(spec, SeededRng(7))
        cws = codewords_packed(code)
        for i in range(1 << code.k):
            msg = BitString([(i >> j) & 1 for j in range(code.k)])
            assert cws[i] == pack_rows(encode(code, msg).bits[None])[0]

    def test_full_rank_guaranteed(self):
        for seed in range(10):
            c = random_linear_code(12, 9, SeededRng(seed))
            assert len({int(x) for x in codewords_packed(c)}) == 1 << 9

    # square codes are redrawn about 70% of the time: these pin the rejection loop
    @pytest.mark.parametrize("n,k,seed", golden.DRAWS)
    def test_draws_are_pinned(self, n, k, seed):
        golden.assert_pinned(f"code/random:{n}:{k}/{seed}")

    def test_k_greater_than_n(self):
        with pytest.raises(ParameterError):
            random_linear_code(4, 5, SeededRng(0))

    @pytest.mark.parametrize("n,k", [(10.5, 8), (10, 8.0), ("10", 8), (10, None)])
    def test_dimensions_must_be_integers(self, n, k):
        with pytest.raises(ParameterError, match="is not an integer"):
            random_linear_code(n, k, SeededRng(0))

    def test_numpy_integer_dimensions(self):
        code = random_linear_code(np.int64(10), np.uint8(8), SeededRng(3))
        assert code == random_linear_code(10, 8, SeededRng(3))


class TestBuiltArraysArePinned:
    """The text and every array of built codes against golden.json; a random
    code's entry also takes its source's next draw, so the count of redraws."""

    @pytest.mark.parametrize("n,k", sorted(golden.ARRAY_DIMS))
    def test_random_codes(self, n, k):
        golden.assert_pinned(f"arrays/random:{n}:{k}")

    def test_every_buildable_bch_code(self):
        golden.assert_pinned("arrays/bch")


def _sketch_with_inner(inner, w):
    """make_sketch of w with inner as the inner code and a [15, 11] outer."""
    params = SketchParams.from_codes(inner, bch_code(4, 1), Fraction(1, 8))
    rng = SeededRng(1)
    return make_sketch(w, gen_index_vector(inner.k, 15, rng), params.eps_ss,
                       params, rng)


def _recover_with_inner(inner, w_prime):
    """recover_sweep of w_prime against a sketch of zeros, as above."""
    sk = _sketch_with_inner(inner, BitString.zeros(inner.k))
    return recover_sweep(sk, w_prime, inner, sk.params.outer)


class TestInputContracts:
    """The documented errors of the constructor and the word operations."""

    def test_constructor_rejects_k_above_n_and_a_negative_radius(self, hamming7):
        with pytest.raises(ParameterError, match="k=4 exceeds blocklength n=3"):
            LinearCode(np.ones((3, 4), dtype=np.uint8), 0, "random")
        with pytest.raises(ParameterError, match="must be non-negative"):
            LinearCode(hamming7.G, -1, "bch")

    @pytest.mark.parametrize("t", [1.0, None, "1", 0.5])
    def test_non_integer_radius_rejected(self, hamming7, t):
        with pytest.raises(ParameterError, match="^t .* is not an integer"):
            LinearCode(hamming7.G, t, "bch", 3)

    @pytest.mark.parametrize("t", [True, np.int64(1)])
    def test_integer_radius_renders_a_loadable_text(self, hamming7, t):
        c = LinearCode(hamming7.G, t, "bch", 3)
        assert type(c.t) is int and c.t == 1
        assert code_from_text(code_to_text(c)) == c == hamming7

    @pytest.mark.parametrize("op,text", [
        (encode, "1011"),
        (syndrome, "1011000"),
        (decode, "1011000"),
        (invert_message, "1001011"),   # a codeword
        (lambda code, w: xor(w, "0110011"), "1011000"),
        (lambda code, w: hamming_distance("0110011", w), "1011000"),
        (lambda code, w: hamming_weight(w), "1011000"),
        (lambda code, w: zero_pad_prefix(w, 2), "1011000"),
    ], ids=["encode", "syndrome", "decode", "invert_message", "xor",
            "hamming_distance", "hamming_weight", "zero_pad_prefix"])
    def test_word_given_as_text_or_a_list(self, hamming7, op, text):
        expect = op(hamming7, BitString(text))
        assert op(hamming7, text) == expect
        assert op(hamming7, [int(b) for b in text]) == expect
        for bad in (text[:-1] + "2", " " + text, "0b" + text):
            with pytest.raises(ParameterError, match="must match"):
                op(hamming7, bad)

    # every word entry that checks a length, with its exact message
    @pytest.mark.parametrize("op, size, message", [
        (syndrome, 7, "word length {} != n = 7"),
        (decode, 7, "word length {} != n = 7"),
        (invert_message, 7, "word length {} != n = 7"),
        (encode, 4, "message length {} != k = 4"),
        (_recover_with_inner, 4, "w' length {} != k* = 4"),
        (_sketch_with_inner, 4, "secret length {} != k* = 4"),
    ], ids=["syndrome", "decode", "invert_message", "encode", "recover",
            "make_sketch"])
    def test_word_of_the_wrong_length(self, hamming7, op, size, message):
        for length in (size - 1, size + 1):
            with pytest.raises(DimensionError,
                               match=f"^{re.escape(message.format(length))}$"):
                op(hamming7, BitString.zeros(length))


class TestEncode:
    def test_unit_vector_selects_column(self, hamming7):
        msg = BitString("1000")
        assert np.array_equal(encode(hamming7, msg).bits, hamming7.G[:, 0])

    def test_codewords_have_zero_syndrome(self, bch15):
        rng = SeededRng(5)
        for _ in range(25):
            cw = encode(bch15, rng.random_bits(7))
            assert syndrome(bch15, cw).weight == 0

    def test_linearity(self, bch15):
        rng = SeededRng(6)
        for _ in range(25):
            a, b = rng.random_bits(7), rng.random_bits(7)
            assert encode(bch15, a ^ b) == encode(bch15, a) ^ encode(bch15, b)

    def test_dimension_error(self, bch15):
        with pytest.raises(DimensionError):
            encode(bch15, BitString.zeros(8))

    @staticmethod
    def _int64_oracle(code, msg):
        return (code.G.astype(np.int64) @ msg.bits.astype(np.int64)) & 1

    @given(st.integers(1, 200), st.data())
    def test_matches_int64_oracle(self, n, data):
        k = data.draw(st.integers(1, n))
        rng = SeededRng(data.draw(st.integers(0, 2 ** 64 - 1)))
        code = random_linear_code(n, k, rng)
        msg = rng.random_bits(k)
        assert np.array_equal(encode(code, msg).bits,
                              self._int64_oracle(code, msg))

    @pytest.mark.parametrize("lower_triangular", [False, True],
                             ids=["random-600-300", "lower-triangular-300"])
    def test_all_ones_message(self, lower_triangular):
        if lower_triangular:
            # row i has i + 1 ones, so rows past 255 wrap the uint8 sums
            G = np.tril(np.ones((300, 300), dtype=np.uint8))
            code = LinearCode(G, t=0, kind="random")
        else:
            code = random_linear_code(600, 300, SeededRng(16))
        msg = BitString.ones(code.k)
        out = encode(code, msg)
        assert out.bits.dtype == np.uint8
        assert np.array_equal(out.bits, self._int64_oracle(code, msg))


class TestSyndrome:
    def test_depends_only_on_error(self, bch15):
        rng = SeededRng(7)
        e = BitString([1 if i in (2, 9, 11) else 0 for i in range(15)])
        s_e = syndrome(bch15, e)
        for _ in range(10):
            cw = encode(bch15, rng.random_bits(7))
            assert syndrome(bch15, cw ^ e) == s_e

    def test_weight_one_reads_h_column(self, hamming7):
        for i in range(1, 8):
            e = BitString([1 if j == i - 1 else 0 for j in range(7)])
            assert np.array_equal(syndrome(hamming7, e).bits, hamming7.H[:, i - 1])

    def test_additive(self, bch15):
        rng = SeededRng(8)
        for _ in range(20):
            x, y = rng.random_bits(15), rng.random_bits(15)
            assert syndrome(bch15, x ^ y) == syndrome(bch15, x) ^ syndrome(bch15, y)


class TestDecode:
    def test_exact_codeword(self, bch15):
        cw = encode(bch15, SeededRng(9).random_bits(7))
        assert decode(bch15, cw) == cw

    def test_weight_two_errors_exhaustive(self, bch15):
        rng = SeededRng(10)
        msgs = [rng.random_bits(7) for _ in range(20)]
        patterns = [()] + list(combinations(range(15), 1)) + list(combinations(range(15), 2))
        assert len(patterns) == 1 + 15 + 105
        for msg in msgs:
            cw = encode(bch15, msg)
            for supp in patterns:
                assert decode(bch15, _flip(cw, supp)) == cw

    def test_beyond_radius_never_silently_original(self, bch15):
        rng = SeededRng(11)
        for _ in range(50):
            cw = encode(bch15, rng.random_bits(7))
            supp = rng.subset(15, 5)
            corrupted = _flip(cw, supp)
            got = decode(bch15, corrupted)
            assert got != cw
            if got is not None:
                # contract: returned word is a codeword within radius t
                assert syndrome(bch15, got).weight == 0
                assert (got.bits != corrupted.bits).sum() <= bch15.t

    def test_oracle_equivalence_hamming_all_words(self, hamming7):
        cws = pack_rows(all_codewords_matrix(hamming7.G))
        for x in range(1 << 7):
            word = BitString([(x >> i) & 1 for i in range(7)])
            got = decode(hamming7, word)
            expect = nearest_codeword(cws, int(pack_rows(word.bits[None, :])[0]),
                                      hamming7.t)
            if expect is None:
                assert got is None
            else:
                assert got is not None
                assert int(pack_rows(got.bits[None, :])[0]) == expect[0]


class TestInvertMessage:
    def test_zero(self, bch15):
        assert invert_message(bch15, BitString.zeros(15)) == BitString.zeros(7)

    def test_round_trip_100_random(self, bch31):
        rng = SeededRng(12)
        for _ in range(100):
            msg = rng.random_bits(16)
            assert invert_message(bch31, encode(bch31, msg)) == msg

    def test_round_trip_all_messages_small_k(self, hamming7):
        for x in range(1 << 4):
            msg = BitString([(x >> i) & 1 for i in range(4)])
            assert invert_message(hamming7, encode(hamming7, msg)) == msg

    def test_non_codeword_rejected(self, hamming7):
        cw = encode(hamming7, BitString("1011"))
        with pytest.raises(InversionError):
            invert_message(hamming7, _flip(cw, (0,)))


class TestMinDistance:
    def test_hamming(self, hamming7):
        assert min_distance_bruteforce(hamming7) == 3

    def test_matches_exhaustive_oracle(self):
        c = random_linear_code(16, 8, SeededRng(13))
        assert min_distance_bruteforce(c) == min_distance_exhaustive(c.G)

    def test_full_code_distance_one(self):
        c = random_linear_code(6, 6, SeededRng(14))
        assert min_distance_bruteforce(c) == 1

    def test_enumeration_guard(self):
        c = random_linear_code(30, 21, SeededRng(15))
        with pytest.raises(CapacityError):
            min_distance_bruteforce(c)


class TestSerialization:
    def test_not_equal_to_a_non_code(self, bch31):
        assert bch31.__eq__(bch31.G) is NotImplemented
        assert not bch31 == "bch31" and bch31 != bch31.G.tolist()

    def test_equal_codes_hash_equal(self, bch31):
        again = code_from_text(code_to_text(bch31))
        assert again is not bch31 and hash(again) == hash(bch31)
        assert len({bch31, again, LinearCode(bch31.G, 3, "bch", 5)}) == 1
        others = {bch31, LinearCode(bch31.G, 2, "bch", 5),
                  LinearCode(bch31.G, 3, "random"), bch_code(4, 2)}
        assert len(others) == 4

    def test_bch_round_trip(self, bch31):
        again = code_from_text(code_to_text(bch31))
        assert again == bch31
        assert np.array_equal(again.H, bch31.H)
        assert np.array_equal(again._table, bch31._table)

    def test_random_round_trip(self):
        c = random_linear_code(14, 6, SeededRng(16))
        again = code_from_text(code_to_text(c))
        assert again == c and again.param == c.param

    def test_bad_header(self):
        with pytest.raises(ParameterError):
            code_from_text("something else\nkind: bch\n")

    def test_truncated_dump(self, hamming7):
        text = code_to_text(hamming7)
        hexline = [ln for ln in text.splitlines() if ln.startswith("G:")][0]
        broken = text.replace(hexline, "G: 00")
        with pytest.raises(ParameterError):
            code_from_text(broken)

    # G is sized so that the hex length check alone would pass: (-7)(-4) = 28
    @pytest.mark.parametrize("n, k", [(-7, -4), (3, 0), (0, 0), (4, 7)])
    def test_bad_dimensions(self, n, k):
        G = np.zeros((abs(n), abs(k)), dtype=np.uint8)
        text = codes._render_text("random", n, k, 0, None, G)
        with pytest.raises(ParameterError, match="1 <= k <= n"):
            code_from_text(text)


class TestCodeSpec:
    def test_plain_bch(self):
        c = code_from_spec("4:2", SeededRng(0))
        assert (c.n, c.k, c.kind) == (15, 7, "bch")

    def test_prefixed_forms(self):
        assert code_from_spec("bch:3:1", SeededRng(0)).n == 7
        c = code_from_spec("random:10:4", SeededRng(5))
        assert (c.n, c.k, c.kind) == (10, 4, "random")

    def test_rejects_garbage(self):
        for bad in ("", "bch", "random:4", "4:2:9:1", "x:y"):
            with pytest.raises(ParameterError):
                code_from_spec(bad, SeededRng(0))
