"""Binary linear codes: BCH and random-generator constructions.

Every code carries a generator matrix G (n x k), a parity-check matrix H
((n-k) x n) and a left inverse L of G for message recovery; one GF(2)
elimination of [G^T | I_k] yields both H and L and rejects a
rank-deficient G. The columns of H and L are also kept packed, each as
ceil(rows/64) uint64 words (row i -> bit i % 64 of word i // 64), so a
syndrome or a message is an XOR of packed columns at any width.

Every code gets one coset-leader table at construction, built vectorized
over all patterns of weight <= t: the sorted syndrome keys, each with its
leader's support and the packed L * leader. A t = 0 code's table is {0},
so decoding is exact membership. Lookup is a searchsorted on the keys; it
serves the public decode and, a whole batch of syndromes at a time, the
recovery scan. Codewords are BitStrings of length n; position i of a word
is coefficient x^(i-1) in the polynomial view used by the BCH construction.

A built code is immutable: every array it holds is read-only. So codes are
memoized and shared. bch_code and code_from_text each keep a small LRU
cache, and a repeated (m', t) or code text returns the same object without
a second elimination or table build. Errors are raised afresh on every
call; random_linear_code and the LinearCode constructor are not cached.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .bitcore import (BitString, CapacityError, DimensionError,
                      ParameterError, SeededRng, support_batches, xor_gather)


class InversionError(ValueError):
    """Message inversion was asked for a word that is not a codeword."""


# ---------------------------------------------------------------------------
# GF(2) linear algebra

def _parity_and_left_inverse(G: np.ndarray):
    """(H, L) for an n x k generator G, from one elimination of [G^T | I_k].

    Each row of [G^T | I_k] is packed into a Python int (column c -> bit
    c), and Gauss-Jordan elimination pivots only in the G^T block. The
    reduced G^T block gives H, one row per non-pivot column f with a 1 at f
    (so H G = 0); the identity block records the row operations, so its
    row r is column p_r of L (so L G = I_k). Raises ParameterError when G
    has rank below k.
    """
    n, k = G.shape
    packed = np.packbits(G.T, axis=1, bitorder="little")
    rows = [int.from_bytes(packed[r].tobytes(), "little") | (1 << (n + r))
            for r in range(k)]
    pivots = []
    for c in range(n):
        if len(pivots) == k:
            break
        bit = 1 << c
        r = len(pivots)
        p = next((i for i in range(r, k) if rows[i] & bit), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(k):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivots.append(c)
    if len(pivots) != k:
        raise ParameterError("generator matrix is rank deficient")
    width = (n + k + 7) // 8
    R = np.unpackbits(
        np.frombuffer(b"".join(row.to_bytes(width, "little") for row in rows),
                      dtype=np.uint8).reshape(k, width),
        axis=1, count=n + k, bitorder="little")
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    H = np.zeros((n - k, n), dtype=np.uint8)
    H[np.arange(n - k), free] = 1
    H[:, pivots] = R[:, free].T
    L = np.zeros((k, n), dtype=np.uint8)
    L[:, pivots] = R[:, n:].T
    return H, L


def _pack_cols(M: np.ndarray) -> np.ndarray:
    """Each column of a 0/1 matrix as ceil(rows/64) uint64 words, at least one.

    Row i lands in bit i % 64 of word i // 64. Returns (cols + 1, words):
    the extra last row is zero, so supports padded with the sentinel
    index cols gather from it like any other row.
    """
    rows, cols = M.shape
    words = max(1, -(-rows // 64))
    packed = np.zeros((cols + 1, 8 * words), dtype=np.uint8)
    packed[:cols, :(rows + 7) // 8] = np.packbits(M.T, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _xor_rows(cols: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """XOR of the packed rows cols[i] over the set bits i of a word (m,),
    or of each word of a batch (B, m)."""
    return np.bitwise_xor.reduce(
        np.where(bits[..., None] != 0, cols[:bits.shape[-1]], np.uint64(0)),
        axis=-2)


def _unpack(packed: np.ndarray, length: int) -> np.ndarray:
    """The first `length` bits of packed words (..., words), as uint8 0/1."""
    return np.unpackbits(packed.astype("<u8", copy=False).view(np.uint8),
                         axis=-1, count=length, bitorder="little")


# ---------------------------------------------------------------------------
# Polynomial arithmetic over GF(2), ints as coefficient masks (bit i = x^i)

def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _polymod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


# Primitive polynomials for the supported extension fields.
_PRIMITIVE_POLY = {3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011}


def _gf_tables(m: int):
    size = 1 << m
    poly = _PRIMITIVE_POLY[m]
    exp = [0] * (size - 1)
    log = [0] * size
    x = 1
    for i in range(size - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & size:
            x ^= poly
    return exp, log


def _cyclotomic_coset(i: int, n: int) -> frozenset:
    out = set()
    j = i % n
    while j not in out:
        out.add(j)
        j = (2 * j) % n
    return frozenset(out)


def _minimal_poly(coset, m: int, exp, log) -> int:
    """Product of (x + alpha^j) over the coset; coefficients land in GF(2)."""
    n = (1 << m) - 1

    def mul(a, b):
        if a == 0 or b == 0:
            return 0
        return exp[(log[a] + log[b]) % n]

    coeffs = [1]
    for j in sorted(coset):
        root = exp[j % n]
        nxt = [0] * (len(coeffs) + 1)
        for p, c in enumerate(coeffs):
            if c:
                nxt[p + 1] ^= c
                nxt[p] ^= mul(c, root)
        coeffs = nxt
    mask = 0
    for p, c in enumerate(coeffs):
        if c not in (0, 1):
            raise AssertionError("minimal polynomial left the base field")
        if c:
            mask |= 1 << p
    return mask


# ---------------------------------------------------------------------------

_TABLE_PATTERN_CAP = 2_000_000
_CODE_CACHE_SIZE = 16      # entries in each of the bch_code and code_from_text caches


class LinearCode:
    """[n, k] binary linear code with bounded-distance syndrome decoding.

    t is the decoding radius honored by `decode`; the coset-leader table is
    built up to that radius at construction.
    """

    def __init__(self, G: np.ndarray, t: int, kind: str, param: Optional[int] = None):
        G = np.ascontiguousarray(np.asarray(G, dtype=np.uint8) & 1)
        n, k = G.shape
        if k > n:
            raise ParameterError(f"dimension k={k} exceeds blocklength n={n}")
        if t < 0:
            raise ParameterError("decoding radius must be non-negative")
        self.H, self._L = _parity_and_left_inverse(G)
        self.G = G
        self.n = n
        self.k = k
        self.t = t
        self.kind = kind
        self.param = param
        self._h_cols = _pack_cols(self.H)
        self._l_cols = _pack_cols(self._L)
        self._build_table()
        # memoized codes are shared, so nothing they hold may change
        for a in (self.G, self.H, self._L, self._h_cols, self._l_cols,
                  self._keys, self._leaders, self._leader_msgs):
            a.flags.writeable = False

    # -- construction internals ------------------------------------------

    def _build_table(self):
        """Sorted syndrome keys with their leaders' supports and packed L * leader.

        Keys hold the first syndrome word only: a table with a nonzero key
        has n-k <= 24, and a t = 0 table is {0}, so every syndrome with a
        nonzero higher word misses.
        """
        n, r, t = self.n, self.n - self.k, self.t
        if t == 0:
            # the table {0}, without the batch machinery: fresh random codes
            # are built once per use, so their construction cost counts
            self._keys = np.zeros(1, dtype=np.uint64)
            self._leaders = np.zeros((1, 0), dtype=np.uint8)
            self._leader_msgs = np.zeros((1, self._l_cols.shape[1]), dtype=np.uint64)
            return
        if r > 24:
            raise CapacityError(
                f"coset-leader table needs n-k <= 24, got {r}")
        total = sum(math.comb(n, w) for w in range(t + 1))
        if total > _TABLE_PATTERN_CAP:
            raise CapacityError(
                f"{total} correctable patterns exceed the table cap")
        leaders = next(support_batches(n, range(t + 1), total))
        syn = xor_gather(self._h_cols, leaders)[:, 0]   # one word: n-k <= 24
        order = np.argsort(syn, kind="stable")
        self._keys = syn[order]
        if (self._keys[1:] == self._keys[:-1]).any():
            raise ParameterError(
                f"radius {t} exceeds the code's packing: syndrome collision")
        self._leaders = leaders[order]
        self._leader_msgs = xor_gather(self._l_cols, self._leaders)

    # -- array-level paths (shared with the recovery scan) -----------------

    def _syndromes(self, words: np.ndarray) -> np.ndarray:
        """Packed H * word for a word (n,) or each row of words (B, n)."""
        return _xor_rows(self._h_cols, words)

    def _lookup(self, syn: np.ndarray):
        """(hit, row) per packed syndrome row of syn: whether it is in the
        table, and if so its row of the leader arrays."""
        row = np.searchsorted(self._keys, syn[:, 0])
        np.minimum(row, self._keys.size - 1, out=row)
        hit = self._keys[row] == syn[:, 0]
        if syn.shape[1] > 1:
            hit &= ~syn[:, 1:].any(axis=1)
        return hit, row

    # -- misc --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        if self is other:
            return True
        return (self.t == other.t and self.kind == other.kind
                and np.array_equal(self.G, other.G))

    def __repr__(self) -> str:
        return f"LinearCode[{self.n},{self.k},t={self.t}]({self.kind})"


# ---------------------------------------------------------------------------
# Constructions

@lru_cache(maxsize=_CODE_CACHE_SIZE)
def bch_code(m_prime: int, t: int) -> LinearCode:
    """Narrow-sense binary BCH code of blocklength 2^m' - 1.

    The generator polynomial is the product of the distinct minimal
    polynomials of alpha^1..alpha^2t, so n - k <= m'*t and the design
    distance is at least 2t + 1. Supported m' are 3..6; the coset-leader
    decoder caps the useful range anyway. Memoized: a repeated (m', t)
    returns the same code.
    """
    if m_prime not in _PRIMITIVE_POLY:
        raise ParameterError(
            f"m_prime must be one of {sorted(_PRIMITIVE_POLY)}, got {m_prime}")
    if not 1 <= t < 2 ** (m_prime - 1):
        raise ParameterError(
            f"need 1 <= t < 2^(m_prime-1) = {2 ** (m_prime - 1)}, got {t}")
    n = (1 << m_prime) - 1
    exp, log = _gf_tables(m_prime)
    seen = set()
    g = 1
    for i in range(1, 2 * t + 1):
        coset = _cyclotomic_coset(i, n)
        if coset in seen:
            continue
        seen.add(coset)
        g = _clmul(g, _minimal_poly(coset, m_prime, exp, log))
    k = n - (g.bit_length() - 1)
    if k < 1:
        raise ParameterError("generator polynomial consumed the whole blocklength")

    # Systematic encoding: message occupies the high coefficients,
    # parity = (x^(n-k) m(x)) mod g(x) fills the low ones.
    # Column j is that codeword for m(x) = x^j, bit i of its mask in row i.
    shift = n - k
    width = (n + 7) // 8
    cols = b"".join(((1 << (shift + j)) ^ _polymod(1 << (shift + j), g))
                    .to_bytes(width, "little") for j in range(k))
    G = np.unpackbits(np.frombuffer(cols, dtype=np.uint8).reshape(k, width),
                      axis=1, count=n, bitorder="little").T
    return LinearCode(G, t, kind="bch", param=m_prime)


def random_linear_code(n: int, k: int, rng: SeededRng) -> LinearCode:
    """Uniform full-rank n x k generator matrix, decoding radius 0."""
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    while True:
        G = rng.integers(0, 2, size=(n, k), dtype=np.uint8)
        try:
            return LinearCode(G, t=0, kind="random", param=rng.seed)
        except ParameterError:
            # with t = 0 and k <= n the only rejection is rank deficiency
            continue


def code_from_spec(spec: str, rng: SeededRng) -> LinearCode:
    """Parse "m:t" / "bch:m:t" / "random:n:k" into a code."""
    parts = spec.strip().split(":")
    try:
        if parts[0] == "random" and len(parts) == 3:
            return random_linear_code(int(parts[1]), int(parts[2]), rng)
        if parts[0] == "bch" and len(parts) == 3:
            return bch_code(int(parts[1]), int(parts[2]))
        if len(parts) == 2:
            return bch_code(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ParameterError(f"bad code spec {spec!r}: {exc}") from exc
    raise ParameterError(f"bad code spec {spec!r}")


# ---------------------------------------------------------------------------
# Operations

def encode(code: LinearCode, msg: BitString) -> BitString:
    """G * msg over GF(2)."""
    if len(msg) != code.k:
        raise DimensionError(f"message length {len(msg)} != k = {code.k}")
    out = (code.G @ msg.bits.astype(np.int64)) & 1
    return BitString._wrap(out.astype(np.uint8))


def syndrome(code: LinearCode, word: BitString) -> BitString:
    """H * word over GF(2); all-zeros exactly for codewords."""
    if len(word) != code.n:
        raise DimensionError(f"word length {len(word)} != n = {code.n}")
    out = (code.H @ word.bits.astype(np.int64)) & 1
    return BitString._wrap(out.astype(np.uint8))


def decode(code: LinearCode, word: BitString) -> Optional[BitString]:
    """Unique codeword within distance t, or None if there is none.

    For t = 0 codes this is an exact membership test.
    """
    if len(word) != code.n:
        raise DimensionError(f"word length {len(word)} != n = {code.n}")
    hit, row = code._lookup(code._syndromes(word.bits)[None])
    if not hit[0]:
        return None
    flip = np.zeros(code.n + 1, dtype=np.uint8)
    flip[code._leaders[row[0]]] = 1
    return BitString._wrap(word.bits ^ flip[:code.n])


def invert_message(code: LinearCode, codeword: BitString) -> BitString:
    """The unique msg with encode(code, msg) == codeword."""
    if len(codeword) != code.n:
        raise DimensionError(f"word length {len(codeword)} != n = {code.n}")
    if code._syndromes(codeword.bits).any():
        raise InversionError("input is not a codeword")
    return BitString._wrap(_unpack(_xor_rows(code._l_cols, codeword.bits), code.k))


def codewords_packed(code: LinearCode) -> np.ndarray:
    """All 2^k codewords as packed uint64 words (guard k <= 20).

    Entry i is the codeword of the message whose bit j is bit j of i.
    """
    if code.k > 20:
        raise CapacityError(f"codeword enumeration guarded at k <= 20, got {code.k}")
    if code.n > 64:
        raise CapacityError("packed enumeration limited to n <= 64")
    out = np.zeros(1, dtype=np.uint64)
    for g_col in _pack_cols(code.G)[:code.k, 0]:
        out = np.concatenate((out, out ^ g_col))
    return out


def min_distance_bruteforce(code: LinearCode) -> int:
    """Exact minimum distance by enumerating all nonzero codewords."""
    return int(np.bitwise_count(codewords_packed(code)[1:]).min())


# ---------------------------------------------------------------------------
# Serialization: header plus a row-major hex dump of G. H, the left inverse
# and the coset-leader table are rebuilt on the first load of a given text
# and shared after that.

def code_to_text(code: LinearCode) -> str:
    g_hex = np.packbits(code.G.reshape(-1), bitorder="little").tobytes().hex()
    param = "-" if code.param is None else str(code.param)
    return "\n".join([
        "linear-code v1",
        f"kind: {code.kind}",
        f"n: {code.n}",
        f"k: {code.k}",
        f"t: {code.t}",
        f"param: {param}",
        f"G: {g_hex}",
    ]) + "\n"


def code_from_text(text: str) -> LinearCode:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or lines[0] != "linear-code v1":
        raise ParameterError("unrecognized code serialization header")
    fields = {}
    for ln in lines[1:]:
        key, _, val = ln.partition(":")
        fields[key.strip()] = val.strip()
    try:
        kind = fields["kind"]
        n, k, t = int(fields["n"]), int(fields["k"]), int(fields["t"])
        param = None if fields["param"] == "-" else int(fields["param"])
        raw = bytes.fromhex(fields["G"])
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"bad code serialization: {exc}") from exc
    if not 1 <= k <= n:
        raise ParameterError(f"code dimensions need 1 <= k <= n, got n={n}, k={k}")
    if len(raw) != (n * k + 7) // 8:
        raise ParameterError("G hex dump has the wrong length")
    return _code_from_fields(kind, n, k, t, param, raw)


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code_from_fields(kind: str, n: int, k: int, t: int,
                      param: Optional[int], raw: bytes) -> LinearCode:
    """The code of parsed text fields, memoized so a repeated text is built once."""
    flat = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         count=n * k, bitorder="little")
    return LinearCode(flat.reshape(n, k), t=t, kind=kind, param=param)
