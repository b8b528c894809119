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
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from .analysis import RationalLike, fixed_weight
from .bitcore import (BitString, DimensionError, ParameterError, SeededRng,
                      zero_pad_prefix)
from .codes import LinearCode, code_from_text, code_to_text, encode
from .lsh import IndexVector, sample_bits

@dataclass(frozen=True)
class SketchParams:
    """Dimension bookkeeping for one sketch configuration.

    Pure data carrier: nothing is enforced here beyond the codes matching
    the stated dimensions, so k* <= n* and k <= n hold (a code has k <= n).
    param_violations lists the rest of the rules: n* < k and eps_ss range.
    """

    k_star: int
    n_star: int
    k: int
    n: int
    eps_ss: Fraction
    inner: LinearCode
    outer: LinearCode

    def __post_init__(self):
        object.__setattr__(self, "eps_ss", Fraction(self.eps_ss))
        if (self.inner.k, self.inner.n) != (self.k_star, self.n_star):
            raise ParameterError(
                f"inner code is [{self.inner.n},{self.inner.k}], "
                f"params say [{self.n_star},{self.k_star}]")
        if (self.outer.k, self.outer.n) != (self.k, self.n):
            raise ParameterError(
                f"outer code is [{self.outer.n},{self.outer.k}], "
                f"params say [{self.n},{self.k}]")

    @classmethod
    def from_codes(cls, inner: LinearCode, outer: LinearCode,
                   eps_ss: RationalLike) -> "SketchParams":
        return cls(k_star=inner.k, n_star=inner.n, k=outer.k, n=outer.n,
                   eps_ss=eps_ss, inner=inner, outer=outer)


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
    list; the eps ranges are checked once k* >= 1. A non-Fraction eps is
    converted with Fraction(), so floats are taken at their exact binary
    value.
    """
    violations = []
    if k_star < 1:
        violations.append(f"k_star = {k_star} must be at least 1")
    if not k_star <= n_star:
        violations.append(f"k* = {k_star} must be <= n* = {n_star}")
    if not n_star < k:
        violations.append(f"n* = {n_star} must be < k = {k}")
    if not k <= n:
        violations.append(f"k = {k} must be <= n = {n}")
    if k_star >= 1:
        for name, eps, hi in (("eps_ss", eps_ss, 4), ("eps_rec", eps_rec, 2)):
            if eps is None:
                continue
            if not isinstance(eps, Fraction):
                eps = Fraction(eps)
            problem = _eps_violation(name, eps, k_star, hi)
            if problem:
                violations.append(problem)
    return violations


def sample_error(k_star: int, eps: RationalLike, rng: SeededRng) -> BitString:
    """Uniform vector of length k* with weight exactly floor(k* eps)."""
    weight = fixed_weight(k_star, eps)
    out = np.zeros(k_star, dtype=np.uint8)
    if weight:
        out[rng.subset(k_star, weight)] = 1
    return BitString._wrap(out)


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
    """Run the sketching pipeline.

    Returns the Sketch, or (Sketch, SketchDebug) when debug is requested.
    The eps_ss argument is the one actually used and is recorded in the
    returned sketch's params.
    """
    eps_ss = Fraction(eps_ss)
    if len(w) != params.k_star:
        raise DimensionError(
            f"secret length {len(w)} != k* = {params.k_star}")
    if N.source_len != params.k_star or N.length != params.n:
        raise DimensionError("index vector inconsistent with params")
    params = dataclasses.replace(params, eps_ss=eps_ss)
    violations = param_violations(params.k_star, params.n_star, params.k,
                                  params.n, eps_ss)
    if violations:
        raise ParameterError("; ".join(violations))

    e = sample_error(params.k_star, eps_ss, rng)
    c_star = encode(params.inner, w)
    w_e = w ^ e
    v_syn = c_star ^ zero_pad_prefix(w_e, params.n_star - params.k_star)
    v_star = zero_pad_prefix(v_syn, params.k - params.n_star)
    c = encode(params.outer, v_star)
    phi = sample_bits(w_e, N)
    ss = c ^ phi
    sk = Sketch(ss=ss, params=params, N=N, rng_algo_id=rng.algo_id)
    if debug:
        return sk, SketchDebug(e=e, w_e=w_e, c_star=c_star, v_syn=v_syn,
                               v_star=v_star, c=c, phi=phi)
    return sk


# ---------------------------------------------------------------------------
# Binary sketch file. Layout, all integers little-endian:
#   magic "FSKT" | version u16 | k* n* k n (u32 each) | eps num/den (u32 pair)
#   | rng_algo_id (u16 length + utf-8) | inner code blob (u32 length + utf-8)
#   | outer code blob (u32 length + utf-8) | N (n x u16, 1-based) | ss packed

SKETCH_MAGIC = b"FSKT"
SKETCH_VERSION = 1


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
    out = bytearray()
    out += SKETCH_MAGIC
    out += struct.pack("<H", SKETCH_VERSION)
    out += struct.pack("<4I", p.k_star, p.n_star, p.k, p.n)
    out += struct.pack("<2I", p.eps_ss.numerator, p.eps_ss.denominator)
    out += struct.pack("<H", len(algo)) + algo
    out += struct.pack("<I", len(inner_blob)) + inner_blob
    out += struct.pack("<I", len(outer_blob)) + outer_blob
    out += np.asarray(sk.N.indices, dtype="<u2").tobytes()
    out += sk.ss.to_packed()
    return bytes(out)


def load_sketch(data: bytes) -> Sketch:
    """Parse sketch bytes; malformed input raises SketchFormatError only."""
    try:
        return _parse_sketch(data)
    except SketchFormatError:
        raise
    except (UnicodeDecodeError, ParameterError, DimensionError) as exc:
        # ParameterError covers CapacityError and the code/index validators
        raise SketchFormatError(f"malformed sketch: {exc}") from exc


def _parse_sketch(data: bytes) -> Sketch:
    view = memoryview(data)

    def take_raw(size):
        nonlocal view
        if len(view) < size:
            raise SketchFormatError("truncated sketch file")
        raw = bytes(view[:size])
        view = view[size:]
        return raw

    def take(fmt):
        return struct.unpack(fmt, take_raw(struct.calcsize(fmt)))

    if take_raw(4) != SKETCH_MAGIC:
        raise SketchFormatError("bad magic, not a sketch file")
    (version,) = take("<H")
    if version != SKETCH_VERSION:
        raise SketchFormatError(f"unsupported sketch version {version}")
    k_star, n_star, k, n = take("<4I")
    num, den = take("<2I")
    if den == 0:
        raise SketchFormatError("eps_ss denominator is zero")
    eps_ss = Fraction(num, den)
    violations = param_violations(k_star, n_star, k, n, eps_ss)
    if violations:
        raise ParameterError("; ".join(violations))
    (algo_len,) = take("<H")
    algo = take_raw(algo_len).decode("utf-8")
    (blob_len,) = take("<I")
    inner = code_from_text(take_raw(blob_len).decode("utf-8"))
    (blob_len,) = take("<I")
    outer = code_from_text(take_raw(blob_len).decode("utf-8"))
    idx = np.frombuffer(take_raw(2 * n), dtype="<u2").astype(np.uint32)
    ss = BitString.from_packed(take_raw((n + 7) // 8), n)
    if len(view):
        raise SketchFormatError("trailing bytes after sketch payload")
    params = SketchParams(k_star=k_star, n_star=n_star, k=k, n=n,
                          eps_ss=eps_ss, inner=inner, outer=outer)
    return Sketch(ss=ss, params=params, N=IndexVector(idx, k_star),
                  rng_algo_id=algo)


def save_sketch(sk: Sketch, path: Union[str, Path]) -> None:
    Path(path).write_bytes(dump_sketch(sk))


def load_sketch_file(path: Union[str, Path]) -> Sketch:
    return load_sketch(Path(path).read_bytes())
