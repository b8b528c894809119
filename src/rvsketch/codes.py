"""Binary linear codes: BCH and random-generator constructions.

Every code carries a generator matrix G (n x k), a parity-check matrix H
((n-k) x n) and a left inverse L of G for message recovery. The columns
of [H; L] are packed in one table, contiguously: bit i of column j is
H[i, j] for i < n-k and L[i-(n-k), j] above (bit i % 64 of word i // 64).
A column takes ceil(n/64) uint64 words, and one word is stored as a flat
uint64, so for n <= 64 the table is a 1-D array. One XOR of packed
columns yields a word's syndrome and message in one packed word. One
GF(2) elimination, _eliminate, of [G^T | I_k] as bit-reversed int rows,
so that bit_length() finds each pivot, serves every code and stops at a
rank-deficient G's first dependent row. Each packed column is one Python
int from a reduced row; _words, the one builder of packed words, makes
them the table. A random code eliminates each draw once and builds the
accepted draw's table alone. H and L are unpacked on first use.

Every code gets one coset-leader table at construction, built vectorized
over all patterns of weight <= t from one gather of the packed table:
entry s is the packed word (syndrome and L * leader) of the leader of
syndrome s, zero where there is none (8 * 2^(n-k) bytes for n <= 64). A
lookup XORs in the entry of a packed word's syndrome: the syndrome bits
of the result are zero exactly when the lookup hit, and its message bits
are then L times the corrected word; a miss XORs in zero and keeps its
own nonzero syndrome. A t = 0 code's table is {0}: its lookup skips the
table, tests the syndrome bits alone and returns the input words
themselves, so decoding is exact membership. The lookup serves decode
and, a whole batch of packed words at a time, the recovery scan.
Codewords are BitStrings of length n; position i of a word is
coefficient x^(i-1) in the polynomial view used by the BCH construction.

A built code is immutable: every array it holds is read-only, and it
renders its text once and keeps it. So codes can be shared.
code_from_text keeps a small LRU cache keyed by canonical text (the text
code_to_text renders), bounded in entries and in array bytes: a repeated
canonical text returns the same object from one dict lookup, without
parsing it again, and without a second elimination or table build. Any
other text is checked in full on every call and then shares the entry of
its canonical text, so errors are raised afresh on every call and padding
never becomes a key; bch_code, random_linear_code and the LinearCode
constructor are not cached.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from typing import Optional

import numpy as np

from .bitcore import (BitsLike, BitString, CapacityError, ParameterError,
                      SeededRng, _bitstring, _integer, bit_array,
                      support_batches, xor_gather)


class InversionError(ValueError):
    """Message inversion was asked for a word that is not a codeword."""


# ---------------------------------------------------------------------------
# GF(2) linear algebra

_POWERS = 1 << np.arange(62, -1, -1, dtype=np.int64)   # 2^62, ..., 2^0
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))   # bits of b reversed


def _eliminate(G: np.ndarray) -> Optional[tuple]:
    """The reduced row echelon form of [G^T | I_k] for an n x k G: (rows by
    ascending pivot bit, mask of their pivot bits), or None at the first
    dependent row when G has rank below k. Rows are Python ints stored
    bit-reversed, G^T column c at bit k + n - 1 - c and I_k column j at
    bit j, so a row's pivot, its lowest column, is n + k - bit_length().
    Column j of G is int j of one exact int64 product [2^62 ... 2^0] @ G
    per 63 rows. A row joins the basis, a list by bit_length, once the rows
    of its bit_length are XORed away; at bit_length <= k its G^T part has
    vanished. Back-substitution from the lowest pivot bit up leaves the
    unique reduced form, its pivots the lowest columns, as in Gauss-Jordan.
    """
    n, k = G.shape
    ints = _POWERS[-min(n, 63):].dot(G[:63]).tolist()
    for lo in range(63, n, 63):   # G[c, j] ends at bit n - 1 - c of int j
        block = G[lo:lo + 63]
        low = _POWERS[-len(block):].dot(block).tolist()
        ints = [a << len(block) | b for a, b in zip(ints, low)]
    basis = [0] * (n + k + 1)   # bit_length -> the basis row with it
    for j, v in enumerate(ints):
        row = v << k | 1 << j
        top = row.bit_length()
        while basis[top]:
            row ^= basis[top]
            top = row.bit_length()
        if top <= k:
            return None
        basis[top] = row
    rows, pivots = [], 0
    for top, row in enumerate(basis):   # rows of lower pivot bits are reduced
        if row:
            while b := (row & pivots).bit_length():
                row ^= basis[b]
            basis[top] = row
            rows.append(row)
            pivots |= 1 << top - 1
    return rows, pivots


def _parity_and_left_inverse(G: np.ndarray, reduced: Optional[tuple] = None) -> np.ndarray:
    """The packed [H; L] column table of an n x k generator G, n + 1 rows
    with a zero last row for the sentinel index n, from _eliminate's
    reduced [G^T | I_k] (made here unless given); ParameterError if G has
    rank below k. Without its pivot bit, the reduced row of pivot column p
    holds column p of H at the non-pivot columns and column p of L in its
    low k bits; the i-th non-pivot column of H is e_i, and of L zero, so
    H G = 0 and L G = I_k. A column is one int: the L bits above the n - k
    H bits, taken run by run of consecutive non-pivot columns (one shift
    and mask per run) from the row read back in column order by one bytes
    translate, which a square G never needs. _words packs the table.
    """
    n, k = G.shape
    if reduced is None and (reduced := _eliminate(G)) is None:
        raise ParameterError("generator matrix is rank deficient")
    rows, pivots = reduced
    r, ones = n - k, (1 << k) - 1
    nb, pad = (n + k + 7) // 8, -(n + k) % 8   # reversed, column c is at bit c + pad
    free = int.from_bytes(pivots.to_bytes(nb, "big").translate(_REVERSED),
                          "little") ^ (1 << n) - 1 << pad
    cols = [0] * (n + 1)
    runs, done = [], 0   # (first column + pad, mask of its length, its first bit)
    while free:
        start = (free & -free).bit_length() - 1
        run = free >> start
        length = (~run & run + 1).bit_length() - 1
        runs.append((start, (1 << length) - 1, done))
        for i in range(length):
            cols[start - pad + i] = 1 << done + i
        done += length
        free = run >> length << start + length
    for row in rows:
        col = (row & ones) << r
        if runs:
            bits = int.from_bytes(row.to_bytes(nb, "big").translate(_REVERSED), "little")
            for start, mask, offset in runs:
                col |= (bits >> start & mask) << offset
        cols[n + k - row.bit_length()] = col
    return _words(cols, () if n <= 64 else (-(-n // 64),))


def _fold(packed: np.ndarray) -> np.ndarray:
    """Each packed word of a batch as one uint64, its words ORed together:
    zero exactly when the whole word is. The columns are ORed one by one:
    a reduce along the short last axis costs several times more."""
    return packed if packed.ndim == 1 else functools.reduce(np.bitwise_or, packed.T)


def _field(packed: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bits lo..hi-1 of each packed word of a batch, as uint8 0/1 (B, hi-lo)."""
    as_bytes = packed.astype("<u8", copy=False).reshape(len(packed), -1).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=hi, bitorder="little")[:, lo:]


def _words(ints: list, word_shape: tuple) -> np.ndarray:
    """Python ints as a read-only (len(ints),) + word_shape batch of packed
    words, bit i of an int in bit i % 64 of word i // 64; a word of shape
    () is one flat uint64."""
    if word_shape == ():
        words = np.array(ints, dtype=np.uint64)
        words.flags.writeable = False
        return words
    width = 8 * math.prod(word_shape)
    raw = b"".join([v.to_bytes(width, "little") for v in ints])
    return np.frombuffer(raw, dtype="<u8").reshape((len(ints),) + word_shape)


# ---------------------------------------------------------------------------
# Polynomial arithmetic over GF(2), ints as coefficient masks (bit i = x^i)

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


def _bch_generator(m: int, t: int) -> int:
    """g(x) = prod (x + alpha^j) over the union of the cyclotomic cosets of
    1..2t, with alpha a root of _PRIMITIVE_POLY[m]. The union is closed
    under squaring, so every coefficient lies in GF(2)."""
    n = (1 << m) - 1
    exp, log = _gf_tables(m)
    exp = exp * 2               # exp[log a + j] = a * alpha^j, no modulo
    roots = set()
    for i in range(1, 2 * t + 1):
        j = i
        while j not in roots:   # a coset already collected stops at once
            roots.add(j)
            j = 2 * j % n
    coeffs = [1]                # GF(2^m) elements, index p -> x^p
    for j in roots:
        # (x + alpha^j) g(x): shift by one, plus alpha^j times each coefficient
        coeffs = [hi ^ (exp[log[lo] + j] if lo else 0)
                  for hi, lo in zip([0] + coeffs, coeffs + [0])]
    if any(c > 1 for c in coeffs):
        raise AssertionError("generator polynomial left the base field")
    return sum(c << p for p, c in enumerate(coeffs))


# ---------------------------------------------------------------------------

_TABLE_PATTERN_CAP = 2_000_000
_CODE_CACHE_SIZE = 16      # entries in the code_from_text cache
_CODE_CACHE_BYTES = 128 << 20   # cached array bytes: an n-k = 24 code sits alone


class LinearCode:
    """[n, k] binary linear code with bounded-distance syndrome decoding.

    t is the decoding radius honored by `decode`; the coset-leader table is
    built up to that radius at construction. G is copied; it must be an
    n x k bool, integer or float array of 0s and 1s with 1 <= k <= n, and
    t an integer >= 0, else ParameterError.
    """

    def __init__(self, G: np.ndarray, t: int, kind: str, param: Optional[int] = None):
        G, t = bit_array(G, 2, "generator matrix"), _integer("t", t)
        n, k = G.shape
        if k > n:
            raise ParameterError(f"dimension k={k} exceeds blocklength n={n}")
        if k < 1:
            raise ParameterError(f"code dimensions need 1 <= k <= n, got n={n}, k={k}")
        if t < 0:
            raise ParameterError("decoding radius must be non-negative")
        self._build(G, _parity_and_left_inverse(G), t, kind, param)

    @classmethod
    def _wrap(cls, G: np.ndarray, cols: np.ndarray, t: int, kind: str,
              param: Optional[int] = None) -> "LinearCode":
        """Internal fast path for a G already eliminated: G must be a fresh
        C-ordered n x k uint8 array of 0s and 1s with 1 <= k <= n, cols its
        _parity_and_left_inverse table and t an int >= 0. Nothing is checked
        or eliminated again."""
        code = cls.__new__(cls)
        code._build(G, cols, t, kind, param)
        return code

    # -- construction internals ------------------------------------------

    def _build(self, G: np.ndarray, cols: np.ndarray, t: int, kind: str,
               param: Optional[int]):
        n, k = G.shape
        self._cols = cols
        self.G = G
        self.n = n
        self.k = k
        self.t = t
        self.kind = kind
        self.param = param
        # bits 0..n-k-1 of a packed word: its syndrome, nonzero iff a miss
        # once the looked-up leader's word is XORed in
        self._syn_mask = _words([(1 << n - k) - 1], self._cols.shape[1:])[0]
        # memoized codes are shared, so nothing they hold may change
        self._arrays = (self.G, self._cols)
        if t:
            self._table = self._build_table()
            self._arrays += (self._table,)
        for a in self._arrays:
            a.flags.writeable = False

    def _build_table(self) -> np.ndarray:
        """_table[s]: the packed word of the leader of syndrome s, or zero.

        _table spans every syndrome, 2^(n-k) packed words, so n-k is capped
        where that would pass _CODE_CACHE_BYTES: at 24 for one word (128 MB
        at n <= 64), 23 for two. The syndrome then lies in the first word,
        which _syn_mask picks, and every key is below 2^24. Patterns of
        one syndrome differ by a nonzero codeword, so their message bits
        differ: a collision leaves some pattern's word unstored. Built for
        t > 0 only: a t = 0 code has no table, and _lookup reads none.
        """
        n, r, t = self.n, self.n - self.k, self.t
        limit = (_CODE_CACHE_BYTES // (8 * math.prod(self._cols.shape[1:]))
                 ).bit_length() - 1
        if r > limit:
            raise CapacityError(
                f"coset-leader table needs n-k <= {limit}, got {r}")
        weights = range(min(t, n) + 1)
        total = sum(math.comb(n, w) for w in weights)
        if total > _TABLE_PATTERN_CAP:
            raise CapacityError(
                f"{total} correctable patterns exceed the table cap")
        collision = ParameterError(
            f"radius {t} exceeds the code's packing: syndrome collision")
        if total > 1 << r:   # more patterns than syndromes: pigeonhole
            raise collision
        packed = xor_gather(self._cols, next(support_batches(n, weights, total)))
        syn = _fold(packed & self._syn_mask)
        table = np.zeros((1 << r,) + packed.shape[1:], dtype=np.uint64)
        table[syn] = packed
        if (table[syn] != packed).any():
            raise collision
        return table

    # -- array-level paths (shared with the recovery scan) -----------------

    def _syndromes(self, words: np.ndarray) -> np.ndarray:
        """Packed [H; L] * word for each row of words, a uint8 0/1 (B, n)
        array: the syndrome in bits 0..n-k-1 and L * word above it, the XOR
        of each packed column times its bit. The product is C-ordered: in
        numpy's default order its fold would run on the columns' strides."""
        cols = self._cols[:-1].T   # (n,), or (words, n) for n > 64
        products = np.multiply(cols[..., None, :], words, order="C")
        return np.ascontiguousarray(np.bitwise_xor.reduce(products, axis=-1).T)

    def _fix(self, packed: np.ndarray) -> np.ndarray:
        """Each packed word of a batch XOR the table entry of its syndrome.
        On a hit the syndrome bits are zero and the message bits are L times
        the corrected word; a miss XORs in zero, so its syndrome stays set.
        A t = 0 code has no table, so the result is then packed itself, not
        a copy: no caller writes to it."""
        if not self.t:
            return packed
        # keys are below 2^24, so their int64 view is exact
        return packed ^ self._table.take(
            _fold(packed & self._syn_mask).view(np.int64), axis=0)

    def _lookup(self, packed: np.ndarray):
        """(hit, fixed) per packed word of a batch: whether its syndrome is
        in the table, and _fix's word."""
        fixed = self._fix(packed)
        return _fold(fixed & self._syn_mask) == 0, fixed

    # -- read on first use ------------------------------------------------

    @functools.cached_property
    def _unpacked(self) -> np.ndarray:
        """[H; L], n x n, unpacked from the packed table once, read-only."""
        rows = _field(self._cols[:-1], 0, self.n).T
        rows.flags.writeable = False
        return rows

    @property
    def H(self) -> np.ndarray:
        """The parity-check matrix, (n-k) x n: a view of [H; L]."""
        return self._unpacked[:self.n - self.k]

    @property
    def _L(self) -> np.ndarray:
        """The left inverse of G, k x n: a view of [H; L]."""
        return self._unpacked[self.n - self.k:]

    @functools.cached_property
    def _text(self) -> str:
        """The code's text, rendered on first use: a code is immutable."""
        return _render_text(self.kind, self.n, self.k, self.t, self.param, self.G)

    # -- misc --------------------------------------------------------------

    @property
    def _nbytes(self) -> int:
        """Bytes held by the code's arrays, H and L counted unpacked
        (n x n bytes together) whether or not they were read yet."""
        return sum(a.nbytes for a in self._arrays) + self.n * self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        if self is other:
            return True
        return (self.t == other.t and self.kind == other.kind
                and np.array_equal(self.G, other.G))

    def __hash__(self) -> int:
        return hash((self.t, self.kind, self.G.shape, self.G.tobytes()))

    def __repr__(self) -> str:
        return f"LinearCode[{self.n},{self.k},t={self.t}]({self.kind})"


# ---------------------------------------------------------------------------
# Constructions

def bch_code(m_prime: int, t: int) -> LinearCode:
    """Narrow-sense binary BCH code of blocklength 2^m' - 1.

    The generator polynomial is the product of (x + alpha^j) over the
    union of the cyclotomic cosets of 1..2t, which equals the lcm of the
    minimal polynomials of alpha^1..alpha^2t; so n - k <= m'*t and the
    design distance is at least 2t + 1. Supported m' are 3..6; the
    coset-leader decoder caps the useful range anyway. m' and t must be
    integers, else ParameterError. Not cached: each call builds a new code.
    """
    m_prime, t = _integer("m_prime", m_prime), _integer("t", t)
    if m_prime not in _PRIMITIVE_POLY:
        raise ParameterError(
            f"m_prime must be one of {sorted(_PRIMITIVE_POLY)}, got {m_prime}")
    if not 1 <= t < 2 ** (m_prime - 1):
        raise ParameterError(
            f"need 1 <= t < 2^(m_prime-1) = {2 ** (m_prime - 1)}, got {t}")
    n = (1 << m_prime) - 1
    g = _bch_generator(m_prime, t)
    k = n - (g.bit_length() - 1)

    # Systematic encoding: message occupies the high coefficients,
    # parity = (x^(n-k) m(x)) mod g(x) fills the low ones.
    # Column j is that codeword for m(x) = x^j, bit i of its mask in row i;
    # n <= 63, so each column is one packed word.
    shift = n - k
    cols = [(1 << (shift + j)) ^ _polymod(1 << (shift + j), g) for j in range(k)]
    G = _field(_words(cols, ()), 0, n).T
    return LinearCode(G, t, kind="bch", param=m_prime)


def random_linear_code(n: int, k: int, rng: SeededRng) -> LinearCode:
    """Uniform full-rank n x k generator matrix, decoding radius 0; n and
    k must be integers, else ParameterError. Each try is rng._bits(n k),
    numpy's integers(0, 2, n k, uint8) from Philox's raw words, fresh 0/1
    entries that are not checked again. Each draw is eliminated once; a
    rank-deficient one is dropped there, and only the accepted draw's
    table and code are built."""
    n, k = _integer("n", n), _integer("k", k)
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    while True:
        G = rng._bits(n * k).reshape(n, k)
        reduced = _eliminate(G)
        if reduced is not None:   # else rank deficient: draw again
            return LinearCode._wrap(G, _parity_and_left_inverse(G, reduced),
                                    t=0, kind="random", param=rng.seed)


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

def encode(code: LinearCode, msg: BitsLike) -> BitString:
    """G * msg over GF(2)."""
    msg = _bitstring(msg, code.k, "message", "k")
    # uint8 sums wrap mod 256, which keeps their parity
    return BitString._wrap((code.G @ msg.bits) & 1)


def _packed_word(code: LinearCode, word: BitsLike) -> np.ndarray:
    """The packed [H; L] word of one word of length n, a batch of one."""
    return code._syndromes(_bitstring(word, code.n).bits[None])


def syndrome(code: LinearCode, word: BitsLike) -> BitString:
    """H * word over GF(2); all-zeros exactly for codewords."""
    return BitString._wrap(_field(_packed_word(code, word), 0, code.n - code.k)[0])


def decode(code: LinearCode, word: BitsLike) -> Optional[BitString]:
    """Unique codeword within distance t, or None if there is none.

    For t = 0 codes this is an exact membership test. On a hit the result
    is the encoding of the corrected word's message bits.
    """
    hit, fixed = code._lookup(_packed_word(code, word))
    if not hit[0]:
        return None
    return encode(code, BitString._wrap(_field(fixed, code.n - code.k, code.n)[0]))


def invert_message(code: LinearCode, codeword: BitsLike) -> BitString:
    """The unique msg with encode(code, msg) == codeword."""
    packed = _packed_word(code, codeword)
    if _fold(packed & code._syn_mask)[0]:
        raise InversionError("input is not a codeword")
    return BitString._wrap(_field(packed, code.n - code.k, code.n)[0])


# ---------------------------------------------------------------------------
# Serialization: header plus a row-major hex dump of G. H, the left inverse
# and the coset-leader table are rebuilt on the first load of a given code
# and shared after that.

def _render_text(kind: str, n: int, k: int, t: int, param: Optional[int],
                 G: np.ndarray) -> str:
    """The canonical text of a code's fields."""
    g_hex = np.packbits(G.reshape(-1), bitorder="little").tobytes().hex()
    return "\n".join([
        "linear-code v1",
        f"kind: {kind}",
        f"n: {n}",
        f"k: {k}",
        f"t: {t}",
        f"param: {'-' if param is None else param}",
        f"G: {g_hex}",
    ]) + "\n"


def code_to_text(code: LinearCode) -> str:
    """The code's text, rendered once per code and kept on it."""
    return code._text


def _parse_code_text(text: str):
    """(canonical text, G, t, kind, param) of a code text, every field
    checked; ParameterError if the text is malformed."""
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
    G = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                      count=n * k, bitorder="little").reshape(n, k)
    return _render_text(kind, n, k, t, param, G), G, t, kind, param


_text_codes: "OrderedDict[str, LinearCode]" = OrderedDict()   # LRU order
_text_codes_bytes = 0
_text_codes_lock = threading.Lock()


def _cached_code(text: str) -> Optional[LinearCode]:
    """The cached code of a text, renewed in the LRU order, or None."""
    with _text_codes_lock:
        code = _text_codes.get(text)
        if code is not None:
            _text_codes.move_to_end(text)
        return code


def code_from_text(text: str) -> LinearCode:
    """The code of a text, memoized on its canonical text.

    The cache is keyed by canonical texts, the text code_to_text renders,
    so a key's size grows with G as the code's arrays do. A canonical text
    seen before returns its cached code with one dict lookup and no
    parsing. Any other text is parsed and checked in full, then looked up
    under its canonical text, and built only on a miss. Only a code that
    builds enters the cache, so a malformed text raises on every call. The
    cache holds at most _CODE_CACHE_SIZE codes and evicts the least
    recently used while their arrays exceed _CODE_CACHE_BYTES, never the
    code it returns. A hit is a move to the end of the LRU order.
    """
    global _text_codes_bytes
    code = _cached_code(text)
    if code is not None:
        return code
    key, G, t, kind, param = _parse_code_text(text)
    code = _cached_code(key)
    if code is not None:
        return code
    code = LinearCode(G, t=t, kind=kind, param=param)
    with _text_codes_lock:
        if key not in _text_codes:   # else another thread built it meanwhile
            _text_codes[key] = code
            _text_codes_bytes += code._nbytes
            while len(_text_codes) > 1 and (
                    len(_text_codes) > _CODE_CACHE_SIZE
                    or _text_codes_bytes > _CODE_CACHE_BYTES):
                _, old = _text_codes.popitem(last=False)
                _text_codes_bytes -= old._nbytes
        _text_codes.move_to_end(key)
        return _text_codes[key]
