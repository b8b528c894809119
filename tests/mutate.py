"""Mutation testing for rvsketch: make one small edit to a function, run
the given test files against a scratch copy of the tree, and report every
mutant that no test kills.

    python tests/mutate.py \\
        --target recover:_plan,_subset_words,_recover,codes:LinearCode._fix \\
        tests/test_recover.py
    python tests/mutate.py --target codes:LinearCode._lookup \\
        tests/test_codes.py tests/test_recover.py

Each mutant makes exactly one edit inside a target function's body. It
flips a comparison to its neighbour (< and <=, > and >=, == and !=, is and
is not, in and not in), swaps + and -, * and //, << and >>, & and |, turns
^ into |, or adds 1 to an int constant. The module is parsed with ast and
written back with ast.unparse, so first the unedited round trip must pass
the tests. A mutant is killed when pytest fails, errors or times out.

A mutant that lives is printed with its diff, unless EQUIVALENT lists it
with the reason no test can tell it from the original. An EQUIVALENT entry of a
targeted function that matches none of its mutants is stale, as after an
edit of the line it names, and is printed before the run. The exit status
is 1 when a mutant lives that EQUIVALENT does not list, or when an entry
is stale. Pytest does not collect this file.
"""

import argparse
import ast
import difflib
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2   # scratch copies, each running one pytest at a time
COPIED = ("src", "tests", "demos", "pyproject.toml", "README.md")
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult, ast.LShift: ast.RShift,
         ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
         ast.BitXor: ast.BitOr}

# "module::function: old line -> new line", each line as ast.unparse writes
# it, mapped to the reason the mutant cannot be told from the original.
EQUIVALENT = {
    "recover::_recover: outcome = BitString._wrap(_field(secret[first:first + 1], "
    "inner.n - k_star, inner.n)[0]) -> outcome = BitString._wrap(_field("
    "secret[first:first + 2], inner.n - k_star, inner.n)[0])":
        "[0] reads the slice's first row alone, so a second row changes nothing",
    "recover::_plan: if chunks * (256 + ends[-1]) < len(batch) * ends[-1]: -> "
    "if chunks * (257 + ends[-1]) < len(batch) * ends[-1]:":
        "no schedule of at most 2^15 candidates (k* <= 300) reads 1..chunks "
        "fewer words chunked, so one more subset word per chunk changes no choice",
    "recover::_plan: member = np.zeros((ends[-1], k_star + 1), dtype=np.uint8) -> "
    "member = np.zeros((ends[-1], k_star + 2), dtype=np.uint8)":
        "the columns from the sentinel k* on are cut before packing",
    "recover::_plan: member[np.arange(ends[-1]), batch] = 1 -> "
    "member[np.arange(ends[-1]), batch] = 2":
        "packbits packs every nonzero entry as a 1 bit",
    "recover::_plan: nibbles = np.where(picked & (pos < k_star), pos, k_star) -> "
    "nibbles = np.where(picked & (pos <= k_star), pos, k_star)":
        "a position equal to k* is the sentinel either way",
    "recover::_subset_words: nib = xor_gather(table, nibbles).reshape((-1, 2, 16) + "
    "table.shape[1:]) -> nib = xor_gather(table, nibbles).reshape((-2, 2, 16) + "
    "table.shape[1:])":
        "numpy infers a dimension given as any negative number",
    "recover::_subset_words: return (nib[:, 1, :, None] ^ nib[:, 0, None, :])"
    ".reshape((-1,) + table.shape[1:]) -> return (nib[:, 1, :, None] ^ "
    "nib[:, 0, None, :]).reshape((-2,) + table.shape[1:])":
        "numpy infers a dimension given as any negative number",
    "recover::_subset_words: nib[0, 0] ^= const -> nib[0, 1] ^= const":
        "every subset word of chunk 0 XORs one word of each nibble, so const "
        "reaches all 256 from either nibble",
    "codes::_parity_and_left_inverse: start = (free & -free).bit_length() - 1 -> "
    "start = (free | -free).bit_length() - 1":
        "for x > 0, x | -x is -(x & -x), and a negative int's bit_length is "
        "its magnitude's",
    "codes::_parity_and_left_inverse: length = (~run & run + 1).bit_length() - 1 -> "
    "length = (~run | run + 1).bit_length() - 1":
        "~run is -(run + 1), and y | -y is -(y & -y), so the bit_length is "
        "that of run + 1's lowest bit, as with &",
    "codes::_parity_and_left_inverse: length = (~run & run + 1).bit_length() - 1 -> "
    "length = (~run & run + 2).bit_length() - 1":
        "run's bit 0 is set, so run + 2, like run + 1, sets run's lowest "
        "clear bit and changes no bit above it",
    "codes::_eliminate: ints = _POWERS[-min(n, 63):].dot(G[:63]).tolist() -> "
    "ints = _POWERS[-min(n, 64):].dot(G[:63]).tolist()":
        "_POWERS has 63 entries, so a slice from -64 clamps to all 63, as "
        "one from -63 does",
    "codes::_eliminate: basis = [0] * (n + k + 1) -> basis = [0] * (n + k + 2)":
        "a row's bit_length is at most n + k, so the extra last entry stays "
        "zero, and the back-substitution skips zero entries",
    "sketch::SketchParams._rules: return (violations, 0 if violations else "
    "fixed_weight(self.k_star, self.eps_ss)) -> return (violations, 1 if "
    "violations else fixed_weight(self.k_star, self.eps_ss))":
        "make_sketch raises on a broken rule before it reads the weight",
    "codes::bch_code: cols = [1 << shift + j ^ _polymod(1 << shift + j, g) for j in "
    "range(k)] -> cols = [1 << shift + j | _polymod(1 << shift + j, g) for j in "
    "range(k)]":
        "the remainder mod g has degree below shift, so it shares no bit with "
        "x^(shift + j), and | adds as ^ does",
    "experiments::run_correctness_experiment: passed = rate >= floor or "
    "pvalue_below > 0.01 -> passed = rate > floor or pvalue_below > 0.01":
        "rate == floor makes successes the binomial mean trials * floor, an "
        "integer and so the median: the lower tail there is at least 1/2",
    "experiments::run_correctness_experiment: passed = rate >= floor or "
    "pvalue_below > 0.01 -> passed = rate >= floor or pvalue_below >= 0.01":
        "the tail would have to round to exactly the double nearest 0.01, "
        "which no config is known to give",
    "experiments::run_complexity_experiment: worst = 0 -> worst = 1":
        "every report counts at least one candidate, C(k*, m) >= 1",
    "experiments::run_complexity_experiment: passed = worst == expected and "
    "expected <= bound -> passed = worst == expected and expected < bound":
        "for every eps in [1/(2k*), 1/2] that recovery accepts, C(k*, m) sits "
        "below 2^(k* h2(eps)) by a factor of sqrt(2) or more, which no float "
        "rounding closes",
}


def _function(tree, qualname):
    """The def named qualname ("f" or "Class.f") at the top of tree."""
    body = tree.body
    for part in qualname.split("."):
        node = next((node for node in body if getattr(node, "name", None) == part), None)
        if node is None:
            raise SystemExit(f"no function {qualname}")
        body = node.body
    return node


def _edits(func):
    """Each one-edit site in func's body, in a fixed order, as (node, field,
    list index or None, new value)."""
    for stmt in func.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in SWAPS:
                        yield node, "ops", i, SWAPS[type(op)]()
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                yield node, "op", None, SWAPS[type(node.op)]()
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                yield node, "value", None, node.value + 1


def mutants(module, qualname):
    """(key, diff, mutated module source) for each edit of the function."""
    source = (ROOT / "src" / "rvsketch" / f"{module}.py").read_text()
    before = ast.unparse(_function(ast.parse(source), qualname)).splitlines()
    count = len(list(_edits(_function(ast.parse(source), qualname))))
    for i in range(count):
        tree = ast.parse(source)
        func = _function(tree, qualname)
        node, field, index, value = list(_edits(func))[i]
        if index is None:
            setattr(node, field, value)
        else:
            getattr(node, field)[index] = value
        diff = list(difflib.unified_diff(before, ast.unparse(func).splitlines(),
                                         "original", "mutant", n=1, lineterm=""))
        old, new = (" ".join(line[1:].strip() for line in diff[2:] if line[0] == sign)
                    for sign in "-+")
        yield f"{module}::{qualname}: {old} -> {new}", "\n".join(diff), ast.unparse(tree)


def _run(workdir, tests, timeout):
    """'alive' when every test passes in workdir, else 'killed' or 'timeout'."""
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(workdir / "src")}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=workdir, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "alive" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--target", action="append", required=True,
                        metavar="MODULE:FUNC[,FUNC][,MODULE:FUNC]",
                        help="e.g. recover:_plan,_recover,codes:LinearCode._fix")
    parser.add_argument("tests", nargs="+", help="test files, relative to the repo root")
    args = parser.parse_args(argv)

    found, modules, functions = [], set(), set()
    for target in args.target:
        module = None
        for qualname in target.split(","):   # a MODULE: prefix starts a module
            if ":" in qualname:
                module, _, qualname = qualname.partition(":")
                modules.add(module)
            if module is None:
                parser.error(f"--target {target} starts with no MODULE:")
            functions.add(f"{module}::{qualname}")
            found += mutants(module, qualname)
    keys = {key for key, _, _ in found}
    stale = [key for key in EQUIVALENT
             if key.partition(": ")[0] in functions and key not in keys]
    for key in stale:
        print(f"STALE: {key}\n  no mutant of the targeted function matches it")
    with tempfile.TemporaryDirectory(prefix="rvsketch-mutants-") as scratch:
        workdirs = [Path(scratch, str(i)) for i in range(WORKERS)]
        for workdir in workdirs:
            for name in COPIED:
                path = ROOT / name
                if path.is_dir():
                    shutil.copytree(path, workdir / name, ignore=shutil.ignore_patterns(
                        "__pycache__", "*.egg-info", ".hypothesis"))
                elif path.exists():
                    shutil.copy(path, workdir / name)
            for module in modules:   # the unedited ast round trip
                path = workdir / "src" / "rvsketch" / f"{module}.py"
                path.write_text(ast.unparse(ast.parse(path.read_text())))
        start = time.perf_counter()
        if _run(workdirs[0], args.tests, None) != "alive":
            print("the unedited round trip fails the tests", file=sys.stderr)
            return 2
        timeout = max(60.0, 10 * (time.perf_counter() - start))
        idle = queue.Queue()
        for workdir in workdirs:
            idle.put(workdir)

        def attempt(mutant):
            key, _, source = mutant
            workdir = idle.get()
            path = workdir / "src" / "rvsketch" / f"{key.partition('::')[0]}.py"
            original = path.read_text()
            try:
                path.write_text(source)
                return _run(workdir, args.tests, timeout)
            finally:
                path.write_text(original)
                idle.put(workdir)

        with ThreadPoolExecutor(WORKERS) as pool:
            outcomes = list(pool.map(attempt, found))

    alive = [(key, diff) for (key, diff, _), outcome in zip(found, outcomes)
             if outcome == "alive"]
    new = [(key, diff) for key, diff in alive if key not in EQUIVALENT]
    for key, diff in alive:
        if key in EQUIVALENT:
            print(f"equivalent: {key}\n  {EQUIVALENT[key]}")
    for key, diff in new:
        print(f"ALIVE: {key}\n{diff}\n")
    print(f"{len(found)} mutants: {len(found) - len(alive)} killed "
          f"({outcomes.count('timeout')} by timeout), {len(alive)} alive "
          f"({len(alive) - len(new)} listed as equivalent, {len(new)} not), "
          f"{len(stale)} stale")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
