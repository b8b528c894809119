"""Fixed-length binary strings, fixed-weight supports and the deterministic
randomness contract.

Bit positions are 1-based in every public interface (``bit(1)`` is the
leftmost bit, matching the text rendering). Internal storage is a numpy
uint8 array indexed from zero.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Iterable, Iterator, Sequence, Union

import numpy as np


class DimensionError(ValueError):
    """Operands have incompatible lengths."""


class ParameterError(ValueError):
    """A parameter is outside its allowed range."""


class CapacityError(ParameterError):
    """An exhaustive computation was requested beyond its enumeration guard."""


_TEXT_RE = re.compile(r"^[01]+$")

BitsLike = Union["BitString", str, Iterable[int], np.ndarray]


class BitString:
    """Immutable word over {0,1}^L.

    Construct from a text string of '0'/'1', an iterable of ints, or a
    numpy array. Equality, hashing and xor are value-based.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: BitsLike):
        if isinstance(bits, BitString):
            arr = bits._bits
        elif isinstance(bits, str):
            if bits and not _TEXT_RE.fullmatch(bits):
                raise ParameterError(f"bitstring text must match ^[01]+$, got {bits!r}")
            arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        else:
            raw = np.asarray(bits)
            if raw.ndim != 1:
                raise ParameterError("bits must be one-dimensional")
            # checked before the uint8 cast, which would wrap or truncate
            if raw.dtype.kind not in "biuf" or not ((raw == 0) | (raw == 1)).all():
                raise ParameterError("bits must be 0 or 1")
            arr = raw.astype(np.uint8)
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        if arr.flags.writeable:
            arr.flags.writeable = False
        self._bits = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BitString":
        # Internal fast path: arr must already be a fresh uint8 0/1 array.
        obj = cls.__new__(cls)
        arr.flags.writeable = False
        obj._bits = arr
        return obj

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls._wrap(np.zeros(length, dtype=np.uint8))

    @classmethod
    def ones(cls, length: int) -> "BitString":
        return cls._wrap(np.ones(length, dtype=np.uint8))

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 array of the bits (index 0 = position 1)."""
        return self._bits

    @property
    def length(self) -> int:
        return self._bits.size

    @property
    def weight(self) -> int:
        """Number of ones."""
        return int(np.count_nonzero(self._bits))

    def bit(self, i: int) -> int:
        """Value of the i-th bit, 1-based."""
        if not 1 <= i <= self._bits.size:
            raise DimensionError(f"bit index {i} out of range 1..{self._bits.size}")
        return int(self._bits[i - 1])

    def prefix(self, m: int) -> "BitString":
        """First m bits."""
        return BitString._wrap(self._bits[:m].copy())

    def suffix(self, m: int) -> "BitString":
        """Last m bits."""
        return BitString._wrap(self._bits[self._bits.size - m:].copy())

    def __xor__(self, other: "BitString") -> "BitString":
        if self._bits.size != other._bits.size:
            raise DimensionError(
                f"length mismatch: {self._bits.size} vs {other._bits.size}")
        return BitString._wrap(self._bits ^ other._bits)

    def __len__(self) -> int:
        return self._bits.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._bits.size == other._bits.size and bool(
            np.array_equal(self._bits, other._bits))

    def __hash__(self) -> int:
        return hash((self._bits.size, self._bits.tobytes()))

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self._bits)

    def __repr__(self) -> str:
        return f"BitString('{self}')"

    def to_packed(self) -> bytes:
        """Pack little-endian: position 8j+i+1 lands in bit i of byte j."""
        return np.packbits(self._bits, bitorder="little").tobytes()

    @classmethod
    def from_packed(cls, data: bytes, length: int) -> "BitString":
        if len(data) != (length + 7) // 8:
            raise DimensionError(
                f"packed payload is {len(data)} bytes, expected {(length + 7) // 8}")
        arr = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                            count=length, bitorder="little")
        return cls._wrap(np.ascontiguousarray(arr, dtype=np.uint8))


def xor(a: BitString, b: BitString) -> BitString:
    """Elementwise addition modulo two."""
    return a ^ b


def hamming_weight(a: BitString) -> int:
    return a.weight


def hamming_distance(a: BitString, b: BitString) -> int:
    """Number of positions where a and b disagree."""
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(b)}")
    return int(np.count_nonzero(a.bits ^ b.bits))


def zero_pad_prefix(s: BitString, pad_len: int) -> BitString:
    """0^pad_len followed by s."""
    if pad_len < 0:
        raise ParameterError("pad_len must be non-negative")
    out = np.zeros(pad_len + len(s), dtype=np.uint8)
    out[pad_len:] = s.bits
    return BitString._wrap(out)


# ---------------------------------------------------------------------------
# Fixed-weight supports in lexicographic order

_CLASS_ROWS = 1 << 15   # weight classes up to this size are built whole and cached


@functools.lru_cache(maxsize=128)
def _lex_class(n: int, weight: int) -> np.ndarray:
    """All C(n, weight) supports over range(n), lexicographic, read-only.

    Built level by level: each row is extended by every larger position
    that still leaves room for the remaining ones, which keeps the order.
    """
    cols = []
    last = np.full(1, -1, dtype=np.intp)
    for level in range(weight):
        counts = n - weight + level - last
        parent = np.repeat(np.arange(last.size), counts)
        first = np.cumsum(counts) - counts
        last = last[parent] + 1 + np.arange(parent.size) - first[parent]
        cols = [c[parent] for c in cols] + [last]
    rows = np.empty((last.size, weight), dtype=np.min_scalar_type(n))
    for j, col in enumerate(cols):
        rows[:, j] = col
    rows.flags.writeable = False
    return rows


def lex_supports(n: int, weight: int, start: int = 0) -> Iterator[np.ndarray]:
    """Supports of the given weight over range(n), from rank `start` on.

    Rows hold sorted 0-based positions in lexicographic order (the order of
    itertools.combinations) and come in blocks of at most 2^15 rows. A
    class too large to build whole is split by its first position, so any
    rank is reached exactly however large C(n, weight) is.
    """
    if math.comb(n, weight) <= _CLASS_ROWS:
        yield _lex_class(n, weight)[start:]
        return
    for a in range(n - weight + 1):
        size = math.comb(n - a - 1, weight - 1)
        if start >= size:
            start -= size
            continue
        for sub in lex_supports(n - a - 1, weight - 1, start):
            block = np.empty((len(sub), weight), dtype=np.min_scalar_type(n))
            block[:, 0] = a
            block[:, 1:] = sub
            block[:, 1:] += a + 1
            yield block
        start = 0


def support_batches(n: int, weights: Sequence[int], rows: int) -> Iterator[np.ndarray]:
    """The supports of each weight class in turn, `rows` at a time.

    Rows are padded to max(weights) columns with the sentinel n, so a table
    with an extra zero row at index n gathers every row alike, and the
    weight of a row is its count of entries below n. Batches run across
    weight classes; only the last one may be short.
    """
    width = max(weights, default=0)
    dtype = np.min_scalar_type(n)
    pending, count = [], 0
    for weight in weights:
        for block in lex_supports(n, weight):
            padded = np.full((len(block), width), n, dtype=dtype)
            padded[:, :weight] = block
            pending.append(padded)
            count += len(padded)
            while count >= rows:
                merged = np.concatenate(pending)
                yield merged[:rows]
                pending, count = [merged[rows:]], count - rows
    if count:
        yield np.concatenate(pending)


def xor_gather(table: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Row b is the XOR of table[j] over the entries j of supports[b].

    table is (rows, words) packed uint64; padded supports need a zero row
    at their sentinel index.
    """
    # gathered as (width, rows, words), so the reduction runs over whole slices
    return np.bitwise_xor.reduce(np.take(table, supports.T, axis=0), axis=0)


RNG_ALGO_ID = "numpy-philox4x64"

_SEED_MASK = (1 << 64) - 1


class SeededRng:
    """Counter-based deterministic random source.

    The same 64-bit seed yields the same stream on every platform.
    Instances are single-owner; independent generators for parallel work
    come from :meth:`spawn` (seed + stream_id).
    """

    algo_id = RNG_ALGO_ID

    def __init__(self, seed: int):
        self.seed = int(seed) & _SEED_MASK
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def spawn(self, stream_id: int) -> "SeededRng":
        """Independent generator with seed + stream_id (mod 2^64)."""
        return SeededRng((self.seed + int(stream_id)) & _SEED_MASK)

    def integers(self, low: int, high: int, size=None, dtype=np.int64):
        """Uniform integers in [low, high), numpy semantics."""
        return self._gen.integers(low, high, size=size, dtype=dtype)

    def random_bits(self, length: int) -> BitString:
        """Uniform BitString of the given length."""
        arr = self._gen.integers(0, 2, size=length, dtype=np.uint8)
        return BitString._wrap(np.ascontiguousarray(arr))

    def subset(self, n: int, m: int) -> np.ndarray:
        """m distinct 0-based positions drawn uniformly from range(n)."""
        return self._gen.choice(n, size=m, replace=False)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed})"
