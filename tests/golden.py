"""The frozen outputs of rvsketch, each rendered as bytes under a stable
name. tests/golden.json holds the SHA-256 of each rendering, and
tests/test_golden.py compares them. After an intended change of output:

    python tests/golden.py             # list the entries that differ
    python tests/golden.py NAME ...    # re-record exactly those entries

A re-record writes nothing while an entry it was not given differs. Naming
an entry that no longer renders drops it.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import chain
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":   # run as a script: use this checkout's src/
    sys.path.insert(0, str(ROOT / "src"))

from rvsketch import (BitString, SeededRng, SketchParams, bch_code,  # noqa: E402
                      code_from_spec, code_to_text, dump_sketch,
                      gen_index_vector, make_sketch, random_linear_code,
                      recover_fixed, recover_sweep)
from rvsketch.cli import main as cli_main  # noqa: E402

MANIFEST = Path(__file__).with_name("golden.json")
REGISTRY = {}   # entry name -> a function that renders that output as bytes
GROUPS = {}     # group name -> its entry names, in render order


def _group(names):
    """Register a generator that yields one rendering per name, in order,
    as a group; it runs at most once per process."""
    def register(render):
        rendered = functools.cache(lambda: dict(zip(names, render(), strict=True)))
        GROUPS[render.__name__] = names
        for name in names:
            REGISTRY[name] = functools.partial(lambda n: rendered()[n], name)
        return render
    return register


def digest(rendering: bytes) -> str:
    return hashlib.sha256(rendering).hexdigest()


def differing(names, pinned):
    """The names whose rendering is missing or does not hash to its pin."""
    return [name for name in names if name not in REGISTRY
            or digest(REGISTRY[name]()) != pinned.get(name)]


def pins():
    """The manifest: each entry's name and the SHA-256 of its rendering."""
    return json.loads(MANIFEST.read_text())


def assert_pinned(*names):
    """Fail unless each named entry renders to its pin, naming every entry
    that does not and showing its new rendering."""
    differ = differing(names, pins())
    assert not differ, (
        f"{len(differ)} entries differ from golden.json; if the change is "
        f"intended, re-record them:\n  python tests/golden.py {' '.join(differ)}\n"
        + "".join(f"--- {name} now renders (first 2000 bytes):\n"
                  f"{REGISTRY[name]()[:2000].decode(errors='backslashreplace')}\n"
                  for name in differ if name in REGISTRY))


# every bch_code(m', t) that builds: t up to 3, 7, 5 and 4 for m' = 3..6
BCH = [(m, t) for m, top in {3: 3, 4: 7, 5: 5, 6: 4}.items() for t in range(1, top + 1)]
# square codes are redrawn about 70% of the time: these pin the rejection loop
DRAWS = [(10, 8, 0), (10, 8, 1), (10, 8, 2)] + [
    (n, n, seed) for n in range(11, 17) for seed in (0, 1)]
ARRAY_DIMS = [(n, n) for n in range(11, 17)] + [
    (10, 8), (40, 24), (130, 120), (140, 70), (150, 20)]


@_group([f"code/bch:{m}:{t}" for m, t in BCH]
        + [f"code/random:{n}:{k}/{seed}" for n, k, seed in DRAWS])
def code_texts():
    for code in chain((bch_code(m, t) for m, t in BCH), (
            random_linear_code(n, k, SeededRng(seed)) for n, k, seed in DRAWS)):
        yield code_to_text(code).encode()


def _arrays(code):
    """The text, then each array the code holds with its shape and dtype."""
    parts = [code_to_text(code).encode()]
    for name in ("H", "_L", "_cols", "_table"):
        arr = getattr(code, name, None)
        if arr is not None:
            parts += [f"{name}{arr.shape}{arr.dtype.str}".encode(), arr.tobytes()]
    return b"".join(parts)


@_group([f"arrays/random:{n}:{k}" for n, k in ARRAY_DIMS] + ["arrays/bch"])
def built_arrays():
    """Seeds 0-9 of each random shape, each with its source's next draw (so
    the count of redraws), then every BCH code that builds."""
    for n, k in ARRAY_DIMS:
        parts = []
        for seed in range(10):
            rng = SeededRng(seed)
            parts += [_arrays(random_linear_code(n, k, rng)),
                      rng.integers(0, 2 ** 63, size=1).tobytes()]
        yield b"".join(parts)
    yield b"".join(_arrays(bch_code(m, t)) for m, t in BCH)


SKETCH_SHAPES = {"bch:4:2+bch:6:2": Fraction(1, 7), "bch:3:1+bch:4:1":
                 Fraction(1, 8), "random:10:8+random:13:13": Fraction(1, 16)}


@functools.cache
def seeded_sketches():
    """Seeds 0-3 of each of SKETCH_SHAPES."""
    out = []
    for shape, eps in SKETCH_SHAPES.items():
        inner, outer = shape.split("+")
        for seed in range(4):
            rng = SeededRng(seed)
            params = SketchParams.from_codes(code_from_spec(inner, rng.spawn(1)),
                                             code_from_spec(outer, rng.spawn(2)), eps)
            w = rng.spawn(3).random_bits(params.k_star)
            N = gen_index_vector(params.k_star, params.n, rng.spawn(4))
            out.append(make_sketch(w, N, eps, params, rng.spawn(5)))
    return out


@_group([f"sketch/{shape}/{seed}" for shape in SKETCH_SHAPES for seed in range(4)])
def dumped_sketches():
    for sk in seeded_sketches():
        yield dump_sketch(sk)


def _pinned_reports():
    """(secret, report) for 205 seeded scans: sweeps from near probes and
    fixed scans from far ones over BCH [15,7] and [31,16] inners with the
    [63,51] outer (the last five exhaust C(16,5) = 4368 candidates), and
    decoy-shaped scans over square random t = 0 outers."""
    for s in range(40):
        for inner in (bch_code(4, 2), bch_code(5, 3)):
            outer = bch_code(6, 2)
            k_star = inner.k
            eps = Fraction(1, 2 * k_star)
            params = SketchParams.from_codes(inner, outer, eps)
            rng = SeededRng(1000 + s)
            w = rng.spawn(1).random_bits(k_star)
            N = gen_index_vector(k_star, outer.n, rng.spawn(2))
            sk = make_sketch(w, N, eps, params, rng.spawn(3))
            near = w.bits.copy()
            near[rng.spawn(4).integers(0, k_star, size=s % 4)] ^= 1
            far = BitString(1 - w.bits)
            yield w, recover_sweep(sk, BitString(near), inner, outer,
                                   max_weight=2)
            yield w, recover_fixed(sk, far, Fraction(2, k_star), inner, outer)
            if k_star == 16 and s % 8 == 0:
                yield w, recover_fixed(sk, far, Fraction(5, 16), inner, outer)
        inner = random_linear_code(10, 8, SeededRng(s))
        outer = random_linear_code(11 + s % 6, 11 + s % 6, SeededRng(100 + s))
        params = SketchParams.from_codes(inner, outer, Fraction(1, 16))
        w = SeededRng(200 + s).random_bits(8)
        N = gen_index_vector(8, outer.n, SeededRng(300 + s))
        sk = make_sketch(w, N, Fraction(1, 16), params, SeededRng(400 + s))
        yield w, recover_fixed(sk, BitString(1 - w.bits), Fraction(3, 8),
                               inner, outer)


@_group([f"report/{i:03}" for i in range(205)] + ["report/shape"])
def reports():
    """Each report's outcome and counts; then (reports, accepts of the
    secret, wrong secrets, failures)."""
    outcomes = []
    for w, r in _pinned_reports():
        outcomes.append(None if r.outcome is None else r.outcome == w)
        yield repr((None if r.outcome is None else str(r.outcome),
                    r.iterations_used, r.accepted_weight,
                    r.first_decode_failures, r.false_accepts_observed)).encode()
    yield repr((len(outcomes), outcomes.count(True), outcomes.count(False),
                outcomes.count(None))).encode()


def _cli(argv):
    """(exit code, stdout, stderr) of the CLI run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:   # argparse exits on --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _recover_cli(flags):
    """The exit code, stdout and --out CSV of one recover argv, the CSV's
    closing wall_time_ms masked."""
    code, out, err = _cli(["recover", *flags])
    assert err == "", err
    csv = Path(flags[flags.index("--out") + 1]).read_text()
    return f"exit {code}\n{out}{csv.rsplit(',', 1)[0]},<t>\n".encode()


SKETCH_ARGV = {   # label -> the secret in w.txt, --inner, --outer, --eps-ss
    "bch:4:2+bch:5:3": ("1011001", "bch:4:2", "bch:5:3", "1/7"),
    # the enumeration budget at eps_rec = 2 eps_ss holds
    "random:11:8+bch:5:3": ("10110010", "random:11:8", "bch:5:3", "1/16"),
    # n = 2 k*^2: the error floor holds
    "bch:4:2+random:98:16": ("1011001", "bch:4:2", "random:98:16", "1/14"),
    "readme": ("0011101", "4:2", "5:3", "1/14"),   # README "Command line"
}


def bounds_argv(dims, eps_ss, eps_rec=None, *flags):
    """The bounds argv for (k*, n*, k, n) and any further flags; flag=value
    lets a value start with '-'."""
    argv = ["bounds"] + [f"{flag}={val}" for flag, val in zip(
        ("--k-star", "--n-star", "--k", "--n"), dims)] + [f"--eps-ss={eps_ss}"]
    return argv + ([] if eps_rec is None else [f"--eps-rec={eps_rec}"]) + list(flags)


BOUNDS_ARGV = {
    "7:15:16:31": bounds_argv((7, 15, 16, 31), "1/14"),
    "7:15:16:31/csv-xi": bounds_argv((7, 15, 16, 31), "1/14", None,
                                     "--format=csv", "--xi=1/7"),
    # an explicit eps_rec equal to the default 2 eps_ss prints the same table
    "7:15:16:31/eps-rec": bounds_argv((7, 15, 16, 31), "1/14", "1/7"),
    "11:15:16:63": bounds_argv((11, 15, 16, 63), "1/8"),
    "24:40:50:200/csv": bounds_argv((24, 40, 50, 200), "1/10", "1/6",
                                    "--xi=1/5", "--format=csv"),
    # the budget holds and 2^(k-n*) == n+1: the full-length BCH regime
    "8:11:16:31": bounds_argv((8, 11, 16, 31), "1/16"),
    # the exhaust_scan sketch: 2^20 prefix states against n+1 = 64
    "16:31:51:63": bounds_argv((16, 31, 51, 63), "1/8"),
}


def _bounds_corpus(count=200, seed=19):
    """Seeded bounds argv around the valid domain, about half refused; drawn
    by the standard library, so a change of SeededRng leaves them alone."""
    rng = random.Random(seed)
    for _ in range(count):
        dims = [rng.randint(1, 40)]   # k*, then n*, k and n each from the last
        for low, high in ((-2, 30), (0, 30), (-3, 400)):
            dims.append(dims[-1] + rng.randint(low, high))
        flags = [f"--eps-rec={Fraction(rng.randint(1, 9), rng.randint(2, 40))}",
                 f"--xi={Fraction(rng.randint(1, 9), rng.randint(2, 20))}",
                 "--format=csv"]
        eps_ss = Fraction(rng.randint(1, 6), rng.randint(4, 4 * dims[0] + 8))
        yield bounds_argv(dims, eps_ss) + [
            flag for flag in flags if rng.random() < 0.5]


@_group([f"cli/{part}" for label in SKETCH_ARGV for part in (
    f"sketch/{label}/stdout", f"sketch/{label}/file", f"recover/{label}/sweep",
    f"recover/{label}/fixed")] + ["cli/experiment/help"]
        + [f"cli/bounds/{label}" for label in BOUNDS_ARGV] + ["cli/bounds/corpus"])
def cli_outputs():
    """Each sketch argv's stdout, the scratch directory cut from the --out
    path it prints, and its file, then a recover --sweep and a recover
    --eps-rec 1/k* of that sketch from its secret with bit 0 flipped; the
    experiment help at 80 columns, which
    argparse wraps to; each bounds table; then each corpus argv with its
    exit code and both streams."""
    with tempfile.TemporaryDirectory() as tmp:
        for w, inner, outer, eps in SKETCH_ARGV.values():
            Path(tmp, "w.txt").write_text(w)
            code, out, err = _cli(["sketch", "--w", f"{tmp}/w.txt", "--inner", inner,
                                   "--outer", outer, "--eps-ss", eps, "--seed",
                                   "11", "--out", f"{tmp}/sk.bin"])
            assert (code, err) == (0, ""), err
            yield out.replace(f"{tmp}/", "").encode()
            yield Path(tmp, "sk.bin").read_bytes()
            Path(tmp, "wp.txt").write_text(str(1 - int(w[0])) + w[1:])
            for mode in (["--sweep"], ["--eps-rec", f"1/{len(w)}"]):
                yield _recover_cli([*mode, "--sketch", f"{tmp}/sk.bin", "--w-prime",
                                    f"{tmp}/wp.txt", "--out", f"{tmp}/rec.csv"])
    with mock.patch.dict(os.environ, COLUMNS="80"):
        yield _cli(["experiment", "--help"])[1].encode()
    for argv in BOUNDS_ARGV.values():
        code, out, err = _cli(argv)
        assert (code, err) == (0, ""), err
        yield out.encode()
    yield "".join("$ {}\nexit {}\n{}{}".format(" ".join(argv), *_cli(argv))
                  for argv in _bounds_corpus()).encode()


EXPERIMENTS = {"lsh": dict(trials=40), "correctness": dict(trials=40),
               "complexity": dict(trials=2), "false_accept": dict(min_iterations=500)}


@_group([name for kind in EXPERIMENTS
         for name in (f"experiment/{kind}.csv", f"cli/experiment/{kind}/stdout")])
def experiment_csvs():
    """Each of EXPERIMENTS run through the CLI: the CSV it writes to --out,
    then its stdout, the scratch directory cut from the CSV path it prints."""
    with tempfile.TemporaryDirectory() as tmp:
        for kind, flags in EXPERIMENTS.items():
            argv = ["experiment", "--kind", kind, "--seed", "3", "--out", f"{tmp}/out.csv"]
            for flag, value in flags.items():
                argv += [f"--{flag.replace('_', '-')}", str(value)]
            code, out, err = _cli(argv)
            assert (code, err) == (0, ""), err
            yield Path(tmp, "out.csv").read_bytes()
            yield out.replace(f"{tmp}/", "").encode()


DEMOS = [path.name for path in sorted((ROOT / "demos").glob("*.py"))]


@_group([f"demo/{demo}" for demo in DEMOS])
def demo_transcripts():
    """Each demo's stdout, run in a fresh interpreter on this checkout's
    src/, the recovery wall time masked."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in DEMOS:
        done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        yield re.sub(r"\d+\.\d+ ms", "<t> ms", done.stdout).encode()


def main(names) -> int:
    """List the entries that differ, or re-record the named ones."""
    pinned = pins()
    unknown = set(names) - REGISTRY.keys() - pinned.keys()
    if unknown:
        print("no such entry:", *sorted(unknown), file=sys.stderr)
        return 2
    differ = differing(sorted(REGISTRY.keys() | pinned.keys()), pinned)
    if not names:
        print(*differ, sep="\n", end="\n" if differ else "")
        return 1 if differ else 0
    unnamed = [name for name in differ if name not in names]
    if unnamed:
        print("nothing written; these differ too:", *unnamed, sep="\n",
              file=sys.stderr)
        return 1
    pinned = {name: pin for name, pin in pinned.items() if name not in names} | {
        name: digest(REGISTRY[name]()) for name in names if name in REGISTRY}
    MANIFEST.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
