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

make_sketch computes ss in one short chain of uint8 array steps. The k-n*
zeros of v* meet only the first k-n* columns of the outer generator, so c
is the remaining columns times v_syn. uint8 sums wrap mod 256 and XOR with
a 0/1 array flips bit 0 alone, so bit 0 carries the GF(2) value through
both products and the XORs, and one & 1 at the end reduces ss. The rules
a SketchParams must keep and its error weight are computed once per
params object; the debug bundle is built only when asked for.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .analysis import RationalLike, _rational, fixed_weight
from .bitcore import (BitString, DimensionError, ParameterError, SeededRng,
                      _bitstring, _integer)
from .codes import LinearCode, code_from_text, code_to_text
from .lsh import IndexVector


class _memo:
    """A method read as an attribute: the first read on an object stores
    its value in the object's dict, where every later read finds it as a
    plain attribute. A non-data descriptor like functools.cached_property,
    but it takes no lock (Python 3.11's takes one on each first read)."""

    def __init__(self, func):
        self.func = func

    def __get__(self, obj, cls=None):
        value = obj.__dict__[self.func.__name__] = self.func(obj)
        return value


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

    @_memo
    def _rules(self) -> Tuple[Tuple[str, ...], int]:
        """(param_violations, error weight floor(k* eps_ss)) on first use;
        the fields never change, and dataclasses.replace makes a new object
        with its own memo. The weight is 0 while a rule is broken."""
        violations = tuple(param_violations(self.k_star, self.n_star, self.k,
                                            self.n, self.eps_ss))
        return violations, 0 if violations else fixed_weight(self.k_star,
                                                             self.eps_ss)

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

    @classmethod
    def _wrap(cls, ss: BitString, params: SketchParams, N: IndexVector,
              rng_algo_id: str) -> "Sketch":
        # Internal fast path: ss must already have params.n bits and N
        # params.n entries over params.k_star.
        obj = cls.__new__(cls)
        object.__setattr__(obj, "ss", ss)
        object.__setattr__(obj, "params", params)
        object.__setattr__(obj, "N", N)
        object.__setattr__(obj, "rng_algo_id", rng_algo_id)
        return obj


def make_sketch(w: BitString, N: IndexVector, eps_ss: RationalLike,
                params: SketchParams, rng: SeededRng, debug: bool = False):
    """Run the sketching pipeline as one short chain over uint8 arrays.

    The checks, in order: eps_ss, the secret's length, N against params,
    then params' rules, which each SketchParams computes once along with
    its error weight floor(k* eps_ss). The error is one subset draw from
    rng, made only when that weight is above zero; nothing else is drawn.

    The chain: w_e is a copy of w with the drawn positions flipped;
    v = G_in w, and v's last k* entries ^= w_e; ss = the outer generator's
    columns past the zero prefix times v, ss ^= w_e at N, then one & 1,
    which gives the bits of reducing every stage (see the module
    docstring). The debug bundle is derived only when requested.

    w may be anything BitString takes. Returns the Sketch, or (Sketch,
    SketchDebug) when debug is requested. The eps_ss argument is the one
    actually used and is recorded in the returned sketch's params: params
    itself when it already holds that value, otherwise a copy with eps_ss
    replaced.
    """
    if eps_ss is not params.eps_ss:
        eps_ss = _rational("eps_ss", eps_ss)
        if eps_ss != params.eps_ss:
            params = dataclasses.replace(params, eps_ss=eps_ss)
    k_star, n_star = params.k_star, params.n_star
    w = _bitstring(w, k_star, "secret", "k*")
    if N.source_len != k_star or N.length != params.n:
        raise DimensionError("index vector inconsistent with params")
    violations, weight = params._rules
    if violations:
        raise ParameterError("; ".join(violations))

    w_e = w.bits.copy()
    if weight:
        w_e[rng.subset(k_star, weight)] ^= 1
    v = params.inner.G @ w.bits   # uint8 sums wrap, parity kept in bit 0
    v[n_star - k_star:] ^= w_e
    # the outer code's columns past its zero prefix meet v_syn itself
    ss = params.outer.G[:, params.k - n_star:] @ v
    ss ^= w_e[N.indices - 1]
    ss &= 1
    sk = Sketch._wrap(BitString._wrap(ss), params, N, rng.algo_id)
    if not debug:
        return sk
    c_star = params.inner.G @ w.bits & 1
    v_syn = v & 1
    v_star = np.zeros(params.k, dtype=np.uint8)
    v_star[params.k - n_star:] = v_syn
    phi = w_e[N.indices - 1]
    return sk, SketchDebug(*map(BitString._wrap, (
        w.bits ^ w_e, w_e, c_star, v_syn, v_star, ss ^ phi, phi)))


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
    # ss has n bits and N n entries over k*, the codes' own dimensions
    return Sketch._wrap(ss, SketchParams(inner, outer, eps_ss),
                        IndexVector(idx, k_star), algo)
