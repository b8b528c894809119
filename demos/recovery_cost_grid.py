"""What recovery actually costs: exhaustive enumeration counts against the
entropy envelope, and the sketch size the budget bound demands.

The first table runs unrecoverable probes so the enumeration always
exhausts: iteration counts equal C(k*, floor(k* eps)) exactly and sit
inside 2^(k* h2(eps)). The second table shows the catch: making that
enumeration fit inside the zero-prefix state count of a full-length outer
code forces the sketch length to grow exponentially in the input size.
"""

from fractions import Fraction

from rvsketch import ExperimentConfig, min_sketch_len_for_budget, run_experiment

cells = run_experiment(ExperimentConfig(
    kind="complexity", trials=2, seed=5,
    grid_k=(8, 12, 16), grid_eps=(Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))))

print("k*   eps_rec   weight   iterations   C(k*,w)   2^(k* h2(eps))")
for c in cells:
    print(f"{c.k_star:2d}   {str(c.eps_rec):7s}   {c.weight:6d}   "
          f"{c.iterations_max:10d}   {c.expected:7d}   {c.entropy_bound:12.1f}")

print("\nsketch length needed so the enumeration fits the zero-prefix budget")
print("(full-length outer code, eps_ss = 1/8):")
print("k*   pad width m'   sketch length n = 2^m' - 1")
for k_star in (8, 10, 12, 14, 16):
    m_prime, n = min_sketch_len_for_budget(k_star, Fraction(1, 8))
    print(f"{k_star:2d}   {m_prime:12d}   {n:10d}")

print("\niterations stay <= n+1 once the budget holds, but only because n")
print("itself grows like 2^(k* h2(2 eps_ss)): the linear-in-n framing hides")
print("an exponential-in-k* sketch. Measured counts, no complexity claims.")
