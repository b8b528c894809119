"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results from first principles (enumeration,
exhaustive search, direct matrix products) and deliberately avoids the
library's decode tables, packed fast paths and sampling helpers. Only
public names of the top-level rvsketch package are imported.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from itertools import combinations, islice, product

import numpy as np


def all_codewords_matrix(G: np.ndarray) -> np.ndarray:
    """All 2^k codewords as an (2^k, n) uint8 matrix, message order."""
    n, k = G.shape
    msgs = np.arange(1 << k, dtype=np.uint32)
    bits = ((msgs[:, None] >> np.arange(k, dtype=np.uint32)) & 1).astype(np.uint8)
    return (bits @ G.T.astype(np.int64) & 1).astype(np.uint8)


def pack_rows(M: np.ndarray) -> np.ndarray:
    """Pack each row of a 0/1 matrix into a uint64 (column i -> bit i)."""
    weights = np.uint64(1) << np.arange(M.shape[1], dtype=np.uint64)
    return (M.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)


def codewords_packed(code) -> np.ndarray:
    """All 2^k codewords as packed uint64 words (guard k <= 20, n <= 64).

    Entry i is the codeword of the message whose bit j is bit j of i.
    """
    from rvsketch import CapacityError

    if code.k > 20:
        raise CapacityError(f"codeword enumeration guarded at k <= 20, got {code.k}")
    if code.n > 64:
        raise CapacityError("packed enumeration limited to n <= 64")
    out = np.zeros(1, dtype=np.uint64)
    for g_col in pack_rows(code.G.T):   # column j of G as one packed word
        out = np.concatenate((out, out ^ g_col))
    return out


def min_distance_bruteforce(code) -> int:
    """Exact minimum distance by enumerating all nonzero codewords."""
    return int(np.bitwise_count(codewords_packed(code)[1:]).min())


def enumerate_errors(k_star: int, weight: int):
    """All length-k* vectors of exactly the given weight, each once, as
    BitStrings in lexicographic order of their (1-based) support tuples."""
    from rvsketch import BitString, ParameterError

    if not 0 <= weight <= k_star:
        raise ParameterError(f"weight {weight} outside [0, {k_star}]")
    for supp in combinations(range(k_star), weight):
        out = np.zeros(k_star, dtype=np.uint8)
        out[list(supp)] = 1
        yield BitString(out)


def error_vector_at_rank(k_star: int, weight: int, rank: int):
    """The rank-th vector of enumerate_errors(k_star, weight), rank 0-based."""
    from rvsketch import ParameterError

    if not 0 <= weight <= k_star:
        raise ParameterError(f"weight {weight} outside [0, {k_star}]")
    if not 0 <= rank < math.comb(k_star, weight):
        raise ParameterError("rank out of range")
    return next(islice(enumerate_errors(k_star, weight), rank, None))


def nearest_codeword(codewords_packed: np.ndarray, word_packed: int, t: int):
    """Bounded-distance decode by scanning every codeword.

    Returns (codeword_packed, distance) for the closest codeword when its
    distance is at most t, else None. Assumes the minimum within radius t
    is unique (true whenever the code's distance exceeds 2t).
    """
    dists = np.bitwise_count(codewords_packed ^ np.uint64(word_packed))
    idx = int(dists.argmin())
    if int(dists[idx]) <= t:
        return int(codewords_packed[idx]), int(dists[idx])
    return None


def gauss_jordan_parity_and_left_inverse(G: np.ndarray):
    """(H, L) of an n x k generator G by column-by-column Gauss-Jordan
    elimination of [G^T | I_k], or None when G has rank below k.

    Each row of [G^T | I_k] is packed into a Python int (column c -> bit
    c), and the elimination pivots only in the G^T block. The reduced G^T
    block gives H, one row per non-pivot column f with a 1 at f (so
    H G = 0); the identity block records the row operations, so its row r
    is column p_r of L (so L G = I_k).
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
        return None
    R = np.array([[row >> j & 1 for j in range(n + k)] for row in rows],
                 dtype=np.uint8).reshape(k, n + k)
    free = [c for c in range(n) if c not in pivots]
    H = np.zeros((n - k, n), dtype=np.uint8)
    H[np.arange(n - k), free] = 1
    H[:, pivots] = R[:, free].T
    L = np.zeros((k, n), dtype=np.uint8)
    L[:, pivots] = R[:, n:].T
    return H, L


def non_pivot_rows(G: np.ndarray) -> list:
    """Indices of the rows of G that lie in the span of the rows above them.

    The span is grown as an explicit set of vectors, one row at a time.
    These rows are the non-pivot columns of the reduced echelon form of
    G^T, and G has rank n minus their count.
    """
    span = {0}
    free = []
    for i, row in enumerate(G):
        v = sum(int(b) << j for j, b in enumerate(row))
        if v in span:
            free.append(i)
        else:
            span |= {s ^ v for s in span}
    return free


def min_distance_exhaustive(G: np.ndarray) -> int:
    """Minimum nonzero codeword weight by scanning every message."""
    cw = all_codewords_matrix(G)
    return int(cw[1:].sum(axis=1).min())


def exhaustive_rv_distance_mean(w: str, w_prime: str, n: int) -> Fraction:
    """Exact mean RV distance over every index vector in [k*]^n.

    Pure-python string indexing; independent of the sampling code.
    """
    k_star = len(w)
    total = 0
    count = 0
    for N in product(range(1, k_star + 1), repeat=n):
        d = sum(1 for i in N if w[i - 1] != w_prime[i - 1])
        total += d
        count += 1
    return Fraction(total, count)


def exhaustive_position_disagreement(w: str, w_prime: str, n: int, pos: int) -> Fraction:
    """Exact P(output position pos differs) over every index vector."""
    k_star = len(w)
    hits = 0
    count = 0
    for N in product(range(1, k_star + 1), repeat=n):
        hits += w[N[pos - 1] - 1] != w_prime[N[pos - 1] - 1]
        count += 1
    return Fraction(hits, count)


def min_n_direct_search(delta: int, eps: float, start: int = 1) -> int:
    """Smallest n with exp(-2 n eps^2) <= 2^-delta, by scanning upward."""
    n = start
    while math.exp(-2.0 * n * eps * eps) > 2.0 ** (-delta):
        n += 1
    return n


def scan_report(sk, w_prime, weights, inner, outer):
    """Re-run the recovery loop over the given weights through the public API.

    Candidates are the weight classes in turn, each in lexicographic order
    of its support sets (itertools.combinations). Returns
    (iterations, outer_fails, inner_fails, accepted_weight, outcome), the
    last two None when no candidate is accepted.
    """
    k_star = sk.params.k_star
    return scan_supports(sk, w_prime,
                         ((weight, supp) for weight in weights
                          for supp in combinations(range(k_star), weight)),
                         inner, outer)


def scan_supports(sk, w_prime, candidates, inner, outer):
    """The recovery loop over explicit (weight, support) candidates, in order.

    Uses sample_bits/decode/invert_message and plain python slicing only,
    independent of the recover module's scanning machinery. Returns the
    same tuple as scan_report.
    """
    from rvsketch import (BitString, decode, invert_message, sample_bits,
                          zero_pad_prefix)

    p = sk.params
    prefix_len = p.k - p.n_star
    iterations = outer_fails = inner_fails = 0
    for weight, supp in candidates:
        iterations += 1
        bits = w_prime.bits.copy()
        for j in supp:
            bits[j] ^= 1
        we = BitString(bits)
        phi = sample_bits(we, sk.N)
        c = decode(outer, sk.ss ^ phi)
        if c is None:
            outer_fails += 1
            continue
        v_star = invert_message(outer, c)
        if v_star.prefix(prefix_len).weight != 0:
            continue
        v_syn = v_star.suffix(p.n_star)
        c_star = decode(inner, v_syn ^ zero_pad_prefix(we, p.n_star - p.k_star))
        if c_star is None:
            inner_fails += 1
            continue
        return (iterations, outer_fails, inner_fails, weight,
                invert_message(inner, c_star))
    return iterations, outer_fails, inner_fails, None, None


def make_sketch_reference(w, N, eps_ss, params, rng):
    """(ss, SketchDebug) of the sketching pipeline run stage by stage:
    one subset draw for e, then encode, zero_pad_prefix, sample_bits and
    XOR, each a public function on BitStrings, with v* built in full.

    It draws from rng exactly as make_sketch does, so the two agree for
    generators in the same state.
    """
    from rvsketch import (BitString, SketchDebug, encode, fixed_weight,
                          sample_bits, zero_pad_prefix)

    p = params
    bits = np.zeros(p.k_star, dtype=np.uint8)
    weight = fixed_weight(p.k_star, eps_ss)
    if weight:   # e: weight floor(k* eps_ss), uniform over its supports
        bits[rng.subset(p.k_star, weight)] = 1
    e = BitString(bits)
    w_e = w ^ e
    c_star = encode(p.inner, w)
    v_syn = c_star ^ zero_pad_prefix(w_e, p.n_star - p.k_star)
    v_star = zero_pad_prefix(v_syn, p.k - p.n_star)
    c = encode(p.outer, v_star)
    phi = sample_bits(w_e, N)
    return c ^ phi, SketchDebug(e=e, w_e=w_e, c_star=c_star, v_syn=v_syn,
                                v_star=v_star, c=c, phi=phi)


def sketch_matrix_reference(params, N) -> np.ndarray:
    """The dense n x 2k* 0/1 matrix M = [G_out[:, k-n*:] G_in | G_out[:, k-k*:]
    + S_N] mod 2, with ss = M [w; w_e] mod 2 for every secret w and noisy
    secret w_e = w xor e. S_N is N's 0/1 sampling matrix: row i has its one
    at column N_i - 1 (N is 1-based)."""
    g_in, g_out = params.inner.G.astype(np.int64), params.outer.G.astype(np.int64)
    sampling = np.zeros((params.n, params.k_star), dtype=np.int64)
    sampling[np.arange(params.n), N.indices - 1] = 1
    left = g_out[:, params.k - params.n_star:] @ g_in
    right = g_out[:, params.k - params.k_star:] + sampling
    return (np.hstack([left, right]) & 1).astype(np.uint8)


def first_accepting_candidate(sk, w_prime, weight, inner, outer):
    """(rank, recovered_bitstring) of the first accept in one weight class,
    or None; the single-weight case of scan_report.
    """
    iterations, _, _, _, outcome = scan_report(sk, w_prime, [weight], inner, outer)
    return None if outcome is None else (iterations - 1, outcome)


def code_from_text_reference(text: str):
    """A new code built from its text, parsed field by field and never
    cached: the plain path that code_from_text's cache must agree with."""
    from rvsketch import LinearCode, ParameterError

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
    flat = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         count=n * k, bitorder="little")
    return LinearCode(flat.reshape(n, k), t=t, kind=kind, param=param)


def load_sketch_reference(data: bytes):
    """Sketch bytes parsed field by field through a shrinking memoryview,
    the codes by code_from_text_reference and N by the IndexVector
    constructor: the plain path that load_sketch must agree with, error
    for error and in the same order."""
    from rvsketch import (BitString, DimensionError, IndexVector,
                          ParameterError, Sketch, SketchFormatError,
                          SketchParams, param_violations)

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

    def parse():
        if take_raw(4) != b"FSKT":
            raise SketchFormatError("bad magic, not a sketch file")
        (version,) = take("<H")
        if version != 1:
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
        inner = code_from_text_reference(take_raw(blob_len).decode("utf-8"))
        (blob_len,) = take("<I")
        outer = code_from_text_reference(take_raw(blob_len).decode("utf-8"))
        idx = np.frombuffer(take_raw(2 * n), dtype="<u2").astype(np.uint32)
        ss = BitString.from_packed(take_raw((n + 7) // 8), n)
        if len(view):
            raise SketchFormatError("trailing bytes after sketch payload")
        if (inner.n, inner.k) != (n_star, k_star):
            raise ParameterError(f"inner code is [{inner.n},{inner.k}], "
                                 f"params say [{n_star},{k_star}]")
        if (outer.n, outer.k) != (n, k):
            raise ParameterError(f"outer code is [{outer.n},{outer.k}], "
                                 f"params say [{n},{k}]")
        params = SketchParams(inner, outer, eps_ss)
        return Sketch(ss=ss, params=params, N=IndexVector(idx, k_star),
                      rng_algo_id=algo)

    try:
        return parse()
    except SketchFormatError:
        raise
    except (UnicodeDecodeError, ParameterError, DimensionError) as exc:
        raise SketchFormatError(f"malformed sketch: {exc}") from exc
