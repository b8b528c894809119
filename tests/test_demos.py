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
