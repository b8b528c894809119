import hashlib
import math
from itertools import chain, combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (all_codewords_matrix, min_distance_exhaustive,
                     nearest_codeword, non_pivot_rows, pack_rows)
from rvsketch import (BitString, CapacityError, DimensionError,
                      InversionError, LinearCode, ParameterError, SeededRng,
                      bch_code, code_from_spec, code_from_text, code_to_text,
                      codewords_packed, decode, encode, invert_message,
                      min_distance_bruteforce, random_linear_code, syndrome)
from rvsketch import codes


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

    # code_to_text digests of every bch_code(m, t) with m = 3..6 that builds,
    # as the element-wise G fill produced them
    PINNED = {
        (3, 1): "f05a527528c44ddb", (3, 2): "dd23a38ef527061a",
        (3, 3): "f0e7bdad69b47e64",
        (4, 1): "9eecfbc1164dcad7", (4, 2): "f813bf364080e296",
        (4, 3): "78a803be1a4b4a78", (4, 4): "4e5a9d0b53e16867",
        (4, 5): "1e722342dab22d52", (4, 6): "5056d32de74df18a",
        (4, 7): "3f687c5351481943",
        (5, 1): "a8ec8d0160209b8d", (5, 2): "f50289e278a1ddd6",
        (5, 3): "002ac09844269cf4", (5, 4): "ca95a69c828baf1c",
        (5, 5): "81f7943844cc66d1",
        (6, 1): "2475b45ee655c3fe", (6, 2): "adde7aeb5ce129b3",
        (6, 3): "4264e86edbcdee1a", (6, 4): "14bf273690c836c3",
    }

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_generators_are_pinned(self, m):
        built = {}
        for t in range(1, 2 ** (m - 1)):
            try:
                text = code_to_text(bch_code(m, t))
            except CapacityError:
                continue
            built[m, t] = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert built == {key: digest for key, digest in self.PINNED.items()
                         if key[0] == m}

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            bch_code(4, 8)          # t >= 2^(m'-1)
        with pytest.raises(ParameterError):
            bch_code(7, 1)          # unsupported field
        with pytest.raises(ParameterError):
            bch_code(4, 0)

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


class TestElimination:
    @settings(max_examples=300, deadline=None)
    @given(_generator_matrices())
    @example(np.array([[1, 1], [0, 0], [1, 1]], dtype=np.uint8))
    @example(np.eye(5, 3, dtype=np.uint8))
    def test_parity_and_left_inverse_against_span_oracle(self, G):
        n, k = G.shape
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
        real = codes._parity_and_left_inverse
        calls = []
        monkeypatch.setattr(codes, "_parity_and_left_inverse",
                            lambda G: calls.append(G) or real(G))
        bch_code.cache_clear()
        code = bch_code(4, 2)
        assert len(calls) == 1
        assert bch_code(4, 2) is code   # memoized: no second elimination
        assert len(calls) == 1
        calls.clear()
        random_linear_code(12, 12, SeededRng(5))
        # replay the draws: every rank-deficient one was eliminated once too
        rng = SeededRng(5)
        draws = 1
        while len(non_pivot_rows(rng.integers(0, 2, size=(12, 12),
                                              dtype=np.uint8))):
            draws += 1
        assert draws > 1 and len(calls) == draws


def _text(G, t=0, kind="random", param=None):
    """code_to_text of any G, rank deficient or not, without building it."""
    n, k = G.shape
    return code_to_text(SimpleNamespace(G=G, kind=kind, n=n, k=k, t=t,
                                        param=param))


class TestMemoization:
    ARRAYS = ("G", "H", "_L", "_h_cols", "_l_cols", "_keys", "_leaders",
              "_leader_msgs")

    def test_texts_differing_in_g_give_distinct_codes(self, bch15):
        # a coordinate permutation keeps the BCH distance, so t = 2 still fits
        perms = [np.arange(15), np.roll(np.arange(15), 1),
                 2 * np.arange(15) % 15]
        built = []
        for perm in perms:
            G = np.ascontiguousarray(bch15.G[perm])
            code = code_from_text(_text(G, t=2, kind="bch", param=4))
            fresh = LinearCode(G, 2, kind="bch", param=4)
            for name in ("H", "_L", "_keys", "_leaders"):
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
        assert codes._code_from_fields.cache_info().currsize == size
        for m in range(3, 7):
            for t in range(1, 2 ** (m - 1)):
                try:
                    bch_code(m, t)
                except CapacityError:
                    pass
        assert bch_code.cache_info().currsize == size

    @pytest.mark.parametrize("name", ARRAYS)
    def test_cached_arrays_are_read_only(self, bch15, name):
        for code in (bch15, code_from_text(code_to_text(bch15))):
            arr = getattr(code, name)
            assert arr.size
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] ^= 1


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
            total = 0
            for w in range(t + 1):
                count = math.comb(c.n, w)
                total += count
                pats = np.fromiter(chain.from_iterable(combinations(range(c.n), w)),
                                   dtype=np.intp, count=count * w).reshape(count, w)
                syn = np.bitwise_xor.reduce(h_cols[pats], axis=1)
                msg = np.bitwise_xor.reduce(l_cols[pats], axis=1)
                hit, row = c._lookup(syn[:, None])
                assert hit.all()
                assert np.array_equal(c._leaders[row, :w], pats)
                assert (c._leaders[row, w:] == c.n).all()
                assert np.array_equal(c._leader_msgs[row, 0], msg)
            assert c._keys.size == total
        assert built == {3: 3, 4: 7, 5: 5, 6: 4}[m]

    def test_radius_beyond_packing_is_a_collision(self, bch15):
        with pytest.raises(ParameterError, match="syndrome collision"):
            LinearCode(bch15.G, 3, "bch")

    def test_zero_radius_table_is_zero_only(self, hamming7):
        c = LinearCode(hamming7.G, 0, "bch")
        assert c._keys.tolist() == [0] and c._leaders.shape == (1, 0)
        assert decode(c, _flip(encode(c, BitString("1011")), (2,))) is None


class TestRandomCode:
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

    # code_to_text digests of seeded draws; square codes are redrawn about
    # 70% of the time, so these also pin the rejection loop
    PINNED = {
        (10, 8, 0): "40585e42f0653dc4", (10, 8, 1): "296bb44b7862536e",
        (10, 8, 2): "8adb8e434b43c648",
        (11, 11, 0): "d6d59273cace76d8", (11, 11, 1): "7e0100598828a24c",
        (12, 12, 0): "ac17dcb951dfb6c5", (12, 12, 1): "419162cfc1accc16",
        (13, 13, 0): "b8a82568d7a15add", (13, 13, 1): "83ace4e745725669",
        (14, 14, 0): "7446582a1ef2bf86", (14, 14, 1): "a4504f0703572a83",
        (15, 15, 0): "f69065b31bc5ad02", (15, 15, 1): "b87b7f8a86f6f630",
        (16, 16, 0): "bb78120cd60b36af", (16, 16, 1): "36bba297b5d2870b",
    }

    @pytest.mark.parametrize("n,k,seed", sorted(PINNED))
    def test_draws_are_pinned(self, n, k, seed):
        text = code_to_text(random_linear_code(n, k, SeededRng(seed)))
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == self.PINNED[n, k, seed]

    def test_k_greater_than_n(self):
        with pytest.raises(ParameterError):
            random_linear_code(4, 5, SeededRng(0))


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
    def test_bch_round_trip(self, bch31):
        again = code_from_text(code_to_text(bch31))
        assert again == bch31
        assert np.array_equal(again.H, bch31.H)
        assert np.array_equal(again._keys, bch31._keys)

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
        text = code_to_text(SimpleNamespace(G=G, kind="random", n=n, k=k,
                                            t=0, param=None))
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
