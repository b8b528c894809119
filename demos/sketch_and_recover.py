"""End-to-end walkthrough: sketch a 7-bit secret, then recover it from a
noisy probe.

The inner [15,7] code (radius 2) encodes the secret; the masked result is
zero-padded and encoded by the outer [31,16] code (radius 3); the final
codeword is hidden under a resilient vector. Recovery enumerates error
vectors by weight and accepts on the zero prefix.
"""

from fractions import Fraction

from rvsketch import (BitString, SeededRng, SketchParams, bch_code,
                      dump_sketch, gen_index_vector, load_sketch, make_sketch,
                      param_violations, recover_sweep)

inner = bch_code(4, 2)
outer = bch_code(5, 3)
params = SketchParams.from_codes(inner, outer, Fraction(1, 7))
violations = param_violations(params.k_star, params.n_star, params.k,
                              params.n, params.eps_ss)
print(f"inner [{inner.n},{inner.k}] radius {inner.t}; "
      f"outer [{outer.n},{outer.k}] radius {outer.t}; "
      f"zero-pad width k-n* = {params.k - params.n_star}")
print(f"parameter violations: {violations or 'none'}")

rng = SeededRng(95)
w = rng.spawn(1).random_bits(7)
N = gen_index_vector(7, 31, rng.spawn(2))
sk, dbg = make_sketch(w, N, Fraction(1, 7), params, rng.spawn(3), debug=True)

print(f"\nsecret w        = {w}")
print(f"masking error e = {dbg.e}   (weight {dbg.e.weight}, never published)")
print(f"inner codeword  = {dbg.c_star}")
print(f"sketch ss       = {sk.ss}")

blob = dump_sketch(sk)
print(f"\nserialized sketch: {len(blob)} bytes "
      f"(codes, index vector and masked word travel together)")
sk = load_sketch(blob)

probe_bits = w.bits.copy()
probe_bits[2] ^= 1
probe = BitString(probe_bits)
print(f"\nprobe w' (1 flip) = {probe}")
rec = recover_sweep(sk, probe, sk.params.inner, sk.params.outer)
print(f"recovered         = {rec.outcome}  "
      f"(weight {rec.accepted_weight}, {rec.iterations_used} iterations, "
      f"{rec.wall_time_ms:.1f} ms)")
assert rec.outcome == w

far_bits = 1 - w.bits
far = BitString(far_bits)
rec = recover_sweep(sk, far, sk.params.inner, sk.params.outer)
print(f"\nadversarial probe at distance 7 -> "
      f"{'recovered (false accept)' if rec.succeeded else 'FAIL'} "
      f"after {rec.iterations_used} iterations, "
      f"{rec.false_accepts_observed} rejected zero-prefix hits")
