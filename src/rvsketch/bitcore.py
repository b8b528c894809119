"""Fixed-length binary strings, fixed-weight supports and the deterministic
randomness contract.

Bit positions are 1-based in every public interface (``bit(1)`` is the
leftmost bit, matching the text rendering). Internal storage is a numpy
uint8 array indexed from zero.
"""

from __future__ import annotations

import functools
import math
import operator
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


def _integer(name: str, value, low=-math.inf, high=math.inf) -> int:
    """value as an int; ParameterError if not one or < low, DimensionError if > high."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} {value!r} is not an integer") from None
    if value < low:
        raise ParameterError(f"{name} = {value} must be at least {low}")
    if value > high:
        raise DimensionError(f"{name} = {value} must be at most {high}")
    return value


def bit_array(values, ndim: int, name: str) -> np.ndarray:
    """values as a fresh C-ordered uint8 array with ndim axes.

    Raises ParameterError unless values is a bool, integer or float array
    of 0s and 1s with ndim axes. The entries are checked before the uint8
    cast, which would wrap or truncate them.
    """
    raw = np.asarray(values)
    if raw.ndim != ndim:
        raise ParameterError(f"{name} must be {ndim}-dimensional")
    if raw.dtype.kind not in "biuf" or not ((raw == 0) | (raw == 1)).all():
        raise ParameterError(f"{name} must be 0 or 1")
    return raw.astype(np.uint8, order="C")


BitsLike = Union["BitString", str, Iterable[int], np.ndarray]


class BitString:
    """Immutable word over {0,1}^L.

    Construct from a text string of '0'/'1', an iterable of ints, or a
    numpy array. Equality, hashing and xor are value-based. A non-integer
    length, count or bit position, or a negative length, is a ParameterError;
    one past the word, or a packed payload of the wrong size, a DimensionError.
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
            arr = bit_array(bits, 1, "bits")
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
        return cls._wrap(np.zeros(_integer("length", length, 0), dtype=np.uint8))

    @classmethod
    def ones(cls, length: int) -> "BitString":
        return cls._wrap(np.ones(_integer("length", length, 0), dtype=np.uint8))

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
        if not 1 <= _integer("i", i) <= self._bits.size:
            raise DimensionError(f"bit index {i} out of range 1..{self._bits.size}")
        return int(self._bits[i - 1])

    def prefix(self, m: int) -> "BitString":
        """First m bits."""
        return BitString._wrap(self._bits[:_integer("m", m, 0, len(self))].copy())

    def suffix(self, m: int) -> "BitString":
        """Last m bits."""
        m = _integer("m", m, 0, len(self))
        return BitString._wrap(self._bits[self._bits.size - m:].copy())

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
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
        length = _integer("length", length, 0)
        if len(data) != (length + 7) // 8:
            raise DimensionError(
                f"packed payload is {len(data)} bytes, expected {(length + 7) // 8}")
        arr = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                            count=length, bitorder="little")
        return cls._wrap(arr)


def _bitstring(word: BitsLike, length=None, what="word", dim="n") -> BitString:
    """word itself if a BitString, else BitString(word): the word functions
    take anything BitString takes, with its errors. A word of a length other
    than length raises DimensionError "{what} length {len} != {dim} = {length}"."""
    word = word if isinstance(word, BitString) else BitString(word)
    if length is not None and len(word) != length:
        raise DimensionError(f"{what} length {len(word)} != {dim} = {length}")
    return word


def xor(a: BitsLike, b: BitsLike) -> BitString:
    """Elementwise addition modulo two."""
    return _bitstring(a) ^ _bitstring(b)


def hamming_weight(a: BitsLike) -> int:
    return _bitstring(a).weight


def hamming_distance(a: BitsLike, b: BitsLike) -> int:
    """Number of positions where a and b disagree."""
    return (_bitstring(a) ^ _bitstring(b)).weight


def zero_pad_prefix(s: BitsLike, pad_len: int) -> BitString:
    """0^pad_len followed by s."""
    s, pad_len = _bitstring(s), _integer("pad_len", pad_len, 0)
    out = np.zeros(pad_len + len(s), dtype=np.uint8)
    out[pad_len:] = s.bits
    return BitString._wrap(out)


# ---------------------------------------------------------------------------
# Fixed-weight supports in lexicographic order, unranked batch by batch

def support_batches(n: int, weights: Sequence[int], rows: int) -> Iterator[np.ndarray]:
    """The supports of each weight class in turn, `rows` at a time, each
    batch the C-ordered intp (width, B) gather index xor_gather takes.

    Column b is one support, its sorted positions in lexicographic order
    (that of itertools.combinations), padded to width = max(weights) with
    the sentinel n, so a table with a zero row at n gathers every column
    alike and a column's weight is its count of entries below n. Batches
    run across weight classes; only the last may be short. Each is
    unranked: of the weight-w supports sharing a head of i entries that
    ends at p, cum[v] - cum[p+1] have entry i below v, with cum[v] =
    C(n, w-i) - C(n-v, w-i), so entry i of every column is one
    searchsorted in cum. Ranks are int64 below 2^63 supports, else ints.
    """
    width = max(weights, default=0)
    sizes = [math.comb(n, w) for w in weights]
    total = sum(sizes)
    rank_type = np.int64 if total < 1 << 63 else object
    for start in range(0, total, rows):
        batch = np.full((width, min(rows, total - start)), n, dtype=np.intp)
        base = 0   # rank of the class's first support in the schedule
        for weight, size in zip(weights, sizes):
            lo, hi = max(start, base), min(start + rows, base + size)
            if lo < hi:
                rank = np.arange(lo - base, hi - base, dtype=rank_type)
                pos = np.full(hi - lo, -1, dtype=np.intp)   # entry i-1, or -1
                for i in range(weight):
                    cum = np.array([math.comb(n, weight - i) - math.comb(n - v, weight - i)
                                    for v in range(n + 1)], dtype=rank_type)
                    rank += cum[pos + 1]
                    pos = cum.searchsorted(rank, side="right") - 1
                    batch[i, lo - start:hi - start] = pos
                    rank -= cum[pos]
            base += size
        yield batch


def xor_gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Entry b is the XOR of table[j] over the entries j of column b of index.

    table is packed uint64, (rows,) of one-word values or (rows, words), and
    index is an intp (width, B) batch laid out column by column, as
    support_batches yields it, so the gather is (width, B) or
    (width, B, words) and the reduction runs over whole slices; a C-ordered
    index keeps the gather sequential. A one-word table is indexed with
    index as it is: take would first copy a read-only index, such as a
    cached schedule's. A multi-word table is read with take along axis 0,
    several times faster than a fancy index even with that copy. Padded
    columns need a zero row at their sentinel index; a width of 0 gives B
    zero words. A 1-D index of m rows is one column: the result is one
    word, the XOR of those rows, and zero for m = 0.
    """
    gathered = table[index] if table.ndim == 1 else table.take(index, axis=0)
    return np.bitwise_xor.reduce(gathered, axis=0)


RNG_ALGO_ID = "numpy-philox4x64"

_SEED_MASK = (1 << 64) - 1


class _KeySeq:
    """Hands Philox its key directly: the two uint64 words (seed, 0).

    Philox(key=seed) reaches the same state, but first builds and hashes
    a SeedSequence from OS entropy, only to discard it.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = seed

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for its key as generate_state(2, np.uint64)
        return np.array([self.seed, 0], dtype=np.uint64)


# Philox's counter, shared and read-only: Philox copies it into its state,
# and an array skips the conversion of the int 0 to one
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


@functools.cache
def _register_key_seq() -> None:
    # Philox takes any numpy ISeedSequence. Registering on first use, not
    # subclassing, keeps `import rvsketch` from loading numpy.random.
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_KeySeq)


class SeededRng:
    """Counter-based deterministic random source.

    Philox4x64 with key (seed mod 2^64, 0) and counter 0, the state of
    numpy's Philox(key=seed); no OS entropy is drawn. Philox gets its key
    words from _KeySeq and its counter as one shared read-only zero array,
    so building a generator converts neither. The same seed yields the
    same stream on every platform. A seed or stream_id that is not an
    integer (numpy integers are) raises ParameterError. Instances are
    single-owner; further generators come from :meth:`spawn`.
    """

    algo_id = RNG_ALGO_ID

    def __init__(self, seed: int):
        self.seed = _integer("seed", seed) & _SEED_MASK
        _register_key_seq()
        self._gen = np.random.Generator(
            np.random.Philox(_KeySeq(self.seed), counter=_ZERO_COUNTER))

    def spawn(self, stream_id: int) -> "SeededRng":
        """Generator with seed + stream_id (mod 2^64).

        Not independent of nearby seeds: SeededRng(s).spawn(2) and
        SeededRng(s + 1).spawn(1) are the same stream.
        """
        return SeededRng(self.seed + _integer("stream_id", stream_id))

    def integers(self, low: int, high: int, size=None, dtype=np.int64):
        """Uniform integers in [low, high), numpy semantics."""
        return self._gen.integers(low, high, size=size, dtype=dtype)

    def random_bits(self, length: int) -> BitString:
        """Uniform BitString of the given length."""
        arr = self._gen.integers(0, 2, _integer("length", length, 0), np.uint8)
        return BitString._wrap(arr)

    def subset(self, n: int, m: int) -> np.ndarray:
        """m distinct 0-based positions drawn uniformly from range(n)."""
        n = _integer("n", n, 0)
        return self._gen.choice(n, size=_integer("m", m, 0, n), replace=False)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed})"
