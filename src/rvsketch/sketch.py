"""Two-stage sketching: encode, mask with a fixed-weight error, encode
again, then hide the result under a resilient vector.

The pipeline, for secret w of length k*:

    c*    = inner(w)
    w_e   = w xor e                      e uniform of weight floor(k* eps)
    v_syn = c* xor (0^(n*-k*) || w_e)
    v*    = 0^(k-n*) || v_syn
    c     = outer(v*)
    ss    = c xor sample_bits(w_e, N)

Only ss, N and the parameter block are public; e never leaves the debug
bundle.

make_sketch runs the pipeline in one pass over uint8 arrays. The k-n*
zeros of v* meet only the first k-n* columns of the outer generator, so
c is the product of the remaining columns with v_syn, and v* is built for
the debug bundle alone, which wraps the same arrays.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from .analysis import RationalLike, _rational, fixed_weight
from .bitcore import (BitString, DimensionError, ParameterError, SeededRng,
                      _bitstring, _integer)
from .codes import LinearCode, code_from_text, code_to_text
from .lsh import IndexVector

@dataclass(frozen=True)
class SketchParams:
    """The inner [n*, k*] code, the outer [n, k] code and eps_ss; k*, n*, k
    and n are read off the codes. param_violations lists the rules beyond
    k* <= n* and k <= n, which every code keeps: n* < k and eps_ss range."""

    inner: LinearCode
    outer: LinearCode
    eps_ss: Fraction

    def __post_init__(self):
        for name, code in (("inner", self.inner), ("outer", self.outer)):
            if not isinstance(code, LinearCode):
                raise ParameterError(
                    f"{name} code is a {type(code).__name__}, not a LinearCode")
        object.__setattr__(self, "eps_ss", _rational("eps_ss", self.eps_ss))

    k_star = property(lambda self: self.inner.k)
    n_star = property(lambda self: self.inner.n)
    k = property(lambda self: self.outer.k)
    n = property(lambda self: self.outer.n)

    @classmethod
    def from_codes(cls, inner: LinearCode, outer: LinearCode,
                   eps_ss: RationalLike) -> "SketchParams":
        return cls(inner, outer, eps_ss)


def _eps_violation(name: str, eps: Fraction, k_star: int,
                   hi: int) -> Optional[str]:
    """Why eps is outside [1/(2k*), 1/hi], or None; exact integer compares."""
    num, den = eps.numerator, eps.denominator
    if den <= 2 * k_star * num and hi * num <= den:
        return None
    return f"{name} = {eps} outside [1/{2 * k_star}, 1/{hi}]"


def param_violations(k_star: int, n_star: int, k: int, n: int,
                     eps_ss: RationalLike,
                     eps_rec: Optional[RationalLike] = None) -> List[str]:
    """Every broken rule of 1 <= k* <= n* < k <= n, eps_ss in [1/(2k*), 1/4]
    and (when given) eps_rec in [1/(2k*), 1/2], in that order.

    make_sketch, load_sketch and `rvsketch sketch`/`bounds` apply this one
    list; its range checks are exact integer compares. A dimension that is
    not an integer and an eps (a Fraction, int, str or float) that is not
    a finite rational are listed; the order rules are checked once the
    four dimensions are integers, and the eps ranges once k* >= 1 as well.
    """
    violations = []
    for name, value in (("k_star", k_star), ("n_star", n_star), ("k", k), ("n", n)):
        try:
            _integer(name, value)
        except ParameterError as exc:
            violations.append(str(exc))
    integral = not violations
    if integral:
        if k_star < 1:
            violations.append(f"k_star = {k_star} must be at least 1")
        if not k_star <= n_star:
            violations.append(f"k* = {k_star} must be <= n* = {n_star}")
        if not n_star < k:
            violations.append(f"n* = {n_star} must be < k = {k}")
        if not k <= n:
            violations.append(f"k = {k} must be <= n = {n}")
    for name, eps, hi in (("eps_ss", eps_ss, 4), ("eps_rec", eps_rec, 2)):
        if eps is None and name == "eps_rec":
            continue
        try:
            eps = _rational(name, eps)
            problem = integral and k_star >= 1 and _eps_violation(name, eps, k_star, hi)
        except ParameterError as exc:
            problem = str(exc)
        if problem:
            violations.append(problem)
    return violations


def _error_bits(k_star: int, eps: RationalLike, rng: SeededRng) -> np.ndarray:
    """e as a fresh uint8 array: one subset draw, made only at weight > 0."""
    weight = fixed_weight(k_star, eps)
    out = np.zeros(k_star, dtype=np.uint8)
    if weight:
        out[rng.subset(k_star, weight)] = 1
    return out


def sample_error(k_star: int, eps: RationalLike, rng: SeededRng) -> BitString:
    """Uniform vector of length k* with weight exactly floor(k* eps);
    ParameterError unless k* is a non-negative integer."""
    k_star = _integer("k_star", k_star, 0)
    return BitString._wrap(_error_bits(k_star, eps, rng))


@dataclass(frozen=True)
class SketchDebug:
    """Intermediate pipeline values, exposed for tests only."""

    e: BitString
    w_e: BitString
    c_star: BitString
    v_syn: BitString
    v_star: BitString
    c: BitString
    phi: BitString


@dataclass(frozen=True)
class Sketch:
    """Public output: the masked codeword, its parameters and N."""

    ss: BitString
    params: SketchParams
    N: IndexVector
    rng_algo_id: str

    def __post_init__(self):
        if len(self.ss) != self.params.n:
            raise DimensionError("sketch length differs from params.n")
        if self.N.length != self.params.n or self.N.source_len != self.params.k_star:
            raise DimensionError("index vector inconsistent with params")


def make_sketch(w: BitString, N: IndexVector, eps_ss: RationalLike,
                params: SketchParams, rng: SeededRng, debug: bool = False):
    """Run the sketching pipeline in one pass over uint8 arrays.

    The error e takes one subset draw from rng, made only when its weight
    floor(k* eps_ss) is above zero; nothing else is drawn. c is the outer
    generator's columns past the zero prefix times v_syn, so v* is built
    only for the debug bundle, whose seven fields wrap the arrays the
    sketch was computed from.

    w may be anything BitString takes. Returns the Sketch, or (Sketch,
    SketchDebug) when debug is requested. The eps_ss argument is the one
    actually used and is recorded in the returned sketch's params: params
    itself when it already holds that value, otherwise a copy with eps_ss
    replaced.
    """
    eps_ss = _rational("eps_ss", eps_ss)
    if eps_ss != params.eps_ss:
        params = dataclasses.replace(params, eps_ss=eps_ss)
    w = _bitstring(w)
    if len(w) != params.k_star:
        raise DimensionError(
            f"secret length {len(w)} != k* = {params.k_star}")
    if N.source_len != params.k_star or N.length != params.n:
        raise DimensionError("index vector inconsistent with params")
    violations = param_violations(params.k_star, params.n_star, params.k,
                                  params.n, params.eps_ss)
    if violations:
        raise ParameterError("; ".join(violations))

    k_star, n_star = params.k_star, params.n_star
    e = _error_bits(k_star, params.eps_ss, rng)
    w_e = w.bits ^ e
    c_star = params.inner.G @ w.bits & 1   # uint8 sums wrap, parity kept
    v_syn = c_star.copy()
    v_syn[n_star - k_star:] ^= w_e
    # the outer code's columns past its zero prefix meet v_syn itself
    c = params.outer.G[:, params.k - n_star:] @ v_syn & 1
    phi = w_e[N.indices - 1]
    sk = Sketch(ss=BitString._wrap(c ^ phi), params=params, N=N,
                rng_algo_id=rng.algo_id)
    if debug:
        v_star = np.zeros(params.k, dtype=np.uint8)
        v_star[params.k - n_star:] = v_syn
        return sk, SketchDebug(*map(BitString._wrap, (
            e, w_e, c_star, v_syn, v_star, c, phi)))
    return sk


# ---------------------------------------------------------------------------
# Binary sketch file. Layout, all integers little-endian:
#   magic "FSKT" | version u16 | k* n* k n (u32 each) | eps num/den (u32 pair)
#   | rng_algo_id (u16 length + utf-8) | inner code blob (u32 length + utf-8)
#   | outer code blob (u32 length + utf-8) | N (n x u16, 1-based) | ss packed

SKETCH_MAGIC = b"FSKT"
SKETCH_VERSION = 1
# magic, version, k* n* k n, eps_ss numerator and denominator
_HEADER = struct.Struct("<4sH4I2I")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class SketchFormatError(ParameterError):
    """The sketch file is malformed or has the wrong magic/version."""


def dump_sketch(sk: Sketch) -> bytes:
    p = sk.params
    if p.k_star > 0xFFFF:
        raise ParameterError("k* too large for the u16 index encoding")
    if p.eps_ss.numerator > 0xFFFFFFFF or p.eps_ss.denominator > 0xFFFFFFFF:
        raise ParameterError("eps_ss does not fit the u32/u32 encoding")
    algo = sk.rng_algo_id.encode("utf-8")
    inner_blob = code_to_text(p.inner).encode("utf-8")
    outer_blob = code_to_text(p.outer).encode("utf-8")
    out = bytearray(_HEADER.pack(
        SKETCH_MAGIC, SKETCH_VERSION, p.k_star, p.n_star, p.k, p.n,
        p.eps_ss.numerator, p.eps_ss.denominator))
    out += _U16.pack(len(algo)) + algo
    out += _U32.pack(len(inner_blob)) + inner_blob
    out += _U32.pack(len(outer_blob)) + outer_blob
    out += np.asarray(sk.N.indices, dtype="<u2").tobytes()
    out += sk.ss.to_packed()
    return bytes(out)


def load_sketch(data: bytes) -> Sketch:
    """Parse sketch bytes; malformed input raises SketchFormatError only.

    The fixed header is read in one unpack and every later field by its
    offset. Each code text is looked up in code_from_text's cache before
    it is parsed, so a sketch whose codes were loaded before costs two
    dict lookups for them; any other text is parsed and checked in full.
    N is checked on its u16 payload by the IndexVector constructor, and
    last the header's (n*, k*) and (n, k) against the parsed codes.
    """
    try:
        return _parse_sketch(data)
    except SketchFormatError:
        raise
    except (UnicodeDecodeError, ParameterError, DimensionError) as exc:
        # ParameterError covers CapacityError and the code/index validators
        raise SketchFormatError(f"malformed sketch: {exc}") from exc


def _need(data: bytes, end: int) -> int:
    """end, once data is known to reach it, else SketchFormatError."""
    if end > len(data):
        raise SketchFormatError("truncated sketch file")
    return end


def _prefixed(data: bytes, pos: int, prefix: struct.Struct):
    """(start, end) of the field at pos behind its length, read with prefix."""
    start = _need(data, pos + prefix.size)
    (size,) = prefix.unpack_from(data, pos)
    return start, _need(data, start + size)


def _parse_sketch(data: bytes) -> Sketch:
    # a short file reads zeros past its end, but each field is checked
    # only once the data is known to hold it
    head = bytes(data[:_HEADER.size]).ljust(_HEADER.size, b"\0")
    magic, version, k_star, n_star, k, n, num, den = _HEADER.unpack(head)
    _need(data, 4)
    if magic != SKETCH_MAGIC:
        raise SketchFormatError("bad magic, not a sketch file")
    _need(data, 6)
    if version != SKETCH_VERSION:
        raise SketchFormatError(f"unsupported sketch version {version}")
    _need(data, _HEADER.size)
    if den == 0:
        raise SketchFormatError("eps_ss denominator is zero")
    eps_ss = Fraction(num, den)
    violations = param_violations(k_star, n_star, k, n, eps_ss)
    if violations:
        raise ParameterError("; ".join(violations))
    start, end = _prefixed(data, _HEADER.size, _U16)
    algo = str(data[start:end], "utf-8")
    start, end = _prefixed(data, end, _U32)
    inner = code_from_text(str(data[start:end], "utf-8"))
    start, end = _prefixed(data, end, _U32)
    outer = code_from_text(str(data[start:end], "utf-8"))
    start, end = end, _need(data, end + 2 * n)
    idx = np.frombuffer(data, dtype="<u2", count=n, offset=start)
    start, end = end, _need(data, end + (n + 7) // 8)
    ss = BitString.from_packed(data[start:end], n)
    if end != len(data):
        raise SketchFormatError("trailing bytes after sketch payload")
    for name, code, dims in (("inner", inner, (n_star, k_star)),
                             ("outer", outer, (n, k))):
        if (code.n, code.k) != dims:
            raise ParameterError(f"{name} code is [{code.n},{code.k}], "
                                 f"params say [{dims[0]},{dims[1]}]")
    return Sketch(ss=ss, params=SketchParams(inner, outer, eps_ss),
                  N=IndexVector(idx, k_star), rng_algo_id=algo)


def save_sketch(sk: Sketch, path: Union[str, Path]) -> None:
    Path(path).write_bytes(dump_sketch(sk))


def load_sketch_file(path: Union[str, Path]) -> Sketch:
    return load_sketch(Path(path).read_bytes())
