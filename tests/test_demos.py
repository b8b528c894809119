"""The walkthrough demos run to completion and print what they always have.

Each demo runs in a fresh interpreter with this checkout's src/ first on
the path. Both outputs are deterministic except the recovery wall time,
which is masked before comparing.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "bound_tables.py": """\
layout: k* = 7, n* = 15, k = 16, n = 31, zero-pad width 1
false-accept rate per decodable decoy iteration: 1/2

eps_ss sweep:
eps_ss   h2(eps)  exp(-2n eps^2)  floor?  support C / envelope
1/14     0.3712   7.2882e-01      False     7 /    17.65
1/10     0.4690   5.3794e-01      False     7 /    33.21
1/7      0.5917   2.8215e-01      True     21 /    65.88
1/4      0.8113   2.0754e-02      True     35 /   128.00

tolerance thresholds at eps_ss = 1/7:
  xi = 1/7: t_max = 0, t_min = 62/7, t_plus = 2, t_minus = 0
  xi = 2/7: t_max = 31/7, t_min = 93/7, t_plus = 3, t_minus = 1
  xi = 3/7: t_max = 62/7, t_min = 124/7, t_plus = 4, t_minus = 2

rate window at eps_ss = 1/14, eps_rec = 1/7:
  R = 6/7 = 0.8571
  converse (upper)      = 0.4083
  achievability (lower) = 0.4083
  regime: exceeds-shannon

residual min-entropy floor and the sketch length it needs:
  k-n* = 1: minimal n =   68, floor = 1 bits (applies: True)
  k-n* = 3: minimal n =  204, floor = 3 bits (applies: True)
  k-n* = 6: minimal n =  408, floor = 6 bits (applies: True)
""",
    "sketch_and_recover.py": """\
inner [15,7] radius 2; outer [31,16] radius 3; zero-pad width k-n* = 1
parameter violations: none

secret w        = 0000111
masking error e = 0100000   (weight 1, never published)
inner codeword  = 011001010000111
sketch ss       = 0000110010100101000100100011110

serialized sketch: 383 bytes (codes, index vector and masked word travel together)

probe w' (1 flip) = 0010111
recovered         = 0000111  (weight 1, 4 iterations, <t> ms)

adversarial probe at distance 7 -> FAIL after 64 iterations, 1 rejected zero-prefix hits
""",
    "recovery_cost_grid.py": """\
k*   eps_rec   weight   iterations   C(k*,w)   2^(k* h2(eps))
 8   1/8            1            8         8           20.4
 8   1/4            2           28        28           89.9
 8   1/2            4           70        70          256.0
12   1/8            1           12        12           91.9
12   1/4            3          220       220          852.4
12   1/2            6          924       924         4096.0
16   1/8            2          120       120          415.0
16   1/4            4         1820      1820         8081.7
16   1/2            8        12870     12870        65536.0

sketch length needed so the enumeration fits the zero-prefix budget
(full-length outer code, eps_ss = 1/8):
k*   pad width m'   sketch length n = 2^m' - 1
 8              7          127
10              9          511
12             10         1023
14             12         4095
16             13         8191

iterations stay <= n+1 once the budget holds, but only because n
itself grows like 2^(k* h2(2 eps_ss)): the linear-in-n framing hides
an exponential-in-k* sketch. Measured counts, no complexity claims.
""",
}


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.sub(r"\d+\.\d+ ms", "<t> ms", done.stdout) == EXPECTED[demo]
