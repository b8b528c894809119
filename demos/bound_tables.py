"""The closed-form bounds at work: entropy envelopes, tolerance thresholds,
error floors and the rate window.

Sweeps the masking parameter for a fixed [15,7]/[31,16]-shaped layout and
prints every derived quantity, then shows how the required sketch length
for the error floor scales with the zero-pad width.
"""

from fractions import Fraction

from rvsketch import (binary_entropy, error_floor_check, false_accept_rate,
                      hoeffding_bound, min_length_for_error_floor,
                      rate_bounds, residual_entropy_bound, support_size,
                      thresholds)

K_STAR, N_STAR, K, N = 7, 15, 16, 31

print(f"layout: k* = {K_STAR}, n* = {N_STAR}, k = {K}, n = {N}, "
      f"zero-pad width {K - N_STAR}")
print(f"false-accept rate per decodable decoy iteration: "
      f"{false_accept_rate(K, N_STAR)}")

print("\neps_ss sweep:")
print("eps_ss   h2(eps)  exp(-2n eps^2)  floor?  support C / envelope")
for den in (14, 10, 7, 4):
    eps = Fraction(1, den)
    exact, envelope = support_size(K_STAR, 2 * eps)
    chk = error_floor_check(N, eps, K, N_STAR)
    print(f"{str(eps):7s}  {binary_entropy(eps):.4f}   "
          f"{hoeffding_bound(N, eps):.4e}      {str(chk.holds):5s}  "
          f"{exact:4d} / {envelope:8.2f}")

print("\ntolerance thresholds at eps_ss = 1/7:")
for xi in (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)):
    th = thresholds(K_STAR, N, xi, Fraction(1, 7))
    print(f"  xi = {xi}: t_max = {th.t_max}, t_min = {th.t_min}, "
          f"t_plus = {th.t_plus}, t_minus = {th.t_minus}")

print("\nrate window at eps_ss = 1/14, eps_rec = 1/7:")
rb = rate_bounds(K_STAR, K, N_STAR, Fraction(1, 14), Fraction(1, 7))
print(f"  R = {rb.rate} = {float(rb.rate):.4f}")
print(f"  converse (upper)      = {rb.shannon_ub:.4f}")
print(f"  achievability (lower) = {rb.gv_lb:.4f}")
print(f"  regime: {rb.regime}")

print("\nresidual min-entropy floor and the sketch length it needs:")
for delta in (1, 3, 6):
    eps = Fraction(1, 14)
    n_min = min_length_for_error_floor(N_STAR + delta, N_STAR, eps)
    bits = residual_entropy_bound(n_min, eps)
    applies = error_floor_check(n_min, eps, N_STAR + delta, N_STAR).holds
    print(f"  k-n* = {delta}: minimal n = {n_min:4d}, "
          f"floor = {bits} bits (applies: {applies})")
