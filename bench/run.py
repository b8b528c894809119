#!/usr/bin/env python3
"""rvsketch benchmark: one closed-loop workload per run, outputs checked.

    python3 bench/run.py --workload exhaust_scan --seed 1 --seconds 15 --trace 0

A single client in one process and one thread sends ops in a closed loop:
each op starts when the previous one has returned. With --trace 0 the run
measures the end-to-end metrics with tracing off; with --trace 1 it
alternates untraced and traced passes over a fixed window of ops and
reports the per-layer metrics from times summed around the benchmark's calls
into rvsketch. --quick runs a few ops only, for the benchmark's own tests.

Lines before the last give the environment and every metric with its unit
(ratios next to their base counts) and the indices of failed ops and of
ops that recovered a wrong secret; the last line of stdout is the JSON
result. A wrong secret is a false accept the library cannot detect: the op
fails only if it breaks an invariant or the replay disagrees with it.
Results are also written under .bench_out/ in the checkout. Set-up is
timed in fresh probe processes, one before the loop and the rest spread
over it. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5
REF_IMPORT_S = 1.0       # set-up is reported for a host with this reference probe time
MIN_TRACE_PASSES = 4     # two untraced and two traced passes at least
PROBE_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_rvsketch():
    """Import rvsketch from this checkout's src/, never from elsewhere."""
    if not (SRC / "rvsketch" / "__init__.py").is_file():
        raise BenchError(f"no rvsketch sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rvsketch
    if SRC not in Path(rvsketch.__file__).resolve().parents:
        raise BenchError(f"rvsketch was imported from {rvsketch.__file__}, "
                         f"not from {SRC}")
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return rvsketch


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    return env


# ---------------------------------------------------------------------------
# Set-up: measured in fresh processes

def setup_probe(workload: str, seed: int) -> dict:
    """Time from before importing rvsketch (and numpy) to the first timed op."""
    t0 = perf_counter()
    import_rvsketch()
    t1 = perf_counter()
    from tracer import Tracer
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed)
    wl.setup(Tracer(False))
    wl.inputs(0)
    t2 = perf_counter()
    return {"setup_s": t2 - t0, "import_ms": (t1 - t0) * 1e3}


def reference_probe() -> dict:
    """Time to import numpy and scipy.stats: the set-up's reference job.

    These are most of what `import rvsketch` loads, but no change to
    rvsketch can move them; only the host's speed and the installed
    packages do.
    """
    t0 = perf_counter()
    import numpy  # noqa: F401
    import scipy.stats  # noqa: F401
    return {"ref_s": perf_counter() - t0}


def fresh_process(flag: str, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), flag,
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=pinned_env(), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{flag} failed: " + proc.stderr.strip()[-800:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sample(workload: str, seed: int) -> dict:
    """A set-up probe and then a reference probe, each in a fresh process."""
    return {**fresh_process("--setup-probe", workload, seed),
            **fresh_process("--reference-probe", workload, seed)}


class Clock:
    """The run's op clock, with set-up probes spread over it.

    The first probe runs before the loop; probe j of `count` runs once j/count
    of `seconds` has gone by. Probe time is left out of the op clock, so the
    ops get their full `seconds` whatever the probes take. Spread probes see
    different phases of the host's speed, which back-to-back probes do not.
    """

    def __init__(self, workload: str, seed: int, count: int, seconds: float):
        self.workload, self.seed = workload, seed
        self.count, self.seconds = count, seconds
        self.samples = [setup_sample(workload, seed)]
        self.start = perf_counter()
        self.paused = 0.0

    def elapsed(self) -> float:
        return perf_counter() - self.start - self.paused

    def poll(self) -> None:
        """Take the next probe if its share of the run has gone by."""
        due = len(self.samples) < self.count and (
            self.elapsed() >= self.seconds * len(self.samples) / self.count)
        if due:
            t = perf_counter()
            self.samples.append(setup_sample(self.workload, self.seed))
            self.paused += perf_counter() - t

    def finish(self) -> list:
        """All `count` samples, taking any the loop ended before."""
        while len(self.samples) < self.count:
            self.samples.append(setup_sample(self.workload, self.seed))
        return self.samples


# ---------------------------------------------------------------------------
# The closed loop

class Loop:
    """Runs ops one after another, checks each, and keeps what it measured."""

    def __init__(self, wl, tr):
        self.wl = wl
        self.tr = tr
        self.attempted = 0
        # Indices of ops that raised, broke an invariant or disagreed with
        # the replay: the library broke its contract, so the run is not
        # correct.
        self.failed_ops = []
        # Indices of ops that passed their checks but recovered a secret
        # other than the enrolled one: false accepts, reported, not failed.
        self.wrong_ops = []
        self.kept = {}          # op index -> (OpInput, OpResult), for replay

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def run(self, i: int):
        """Run op i; return (op_s, enroll_s, recover_s, OpInput, OpResult).

        Returns None when the op raised or broke an invariant; either
        counts as a failed op.
        """
        wl, tr = self.wl, self.tr
        op = wl.inputs(i)
        self.attempted += 1
        try:
            t0 = perf_counter()
            enrolled = wl.enroll(op, tr)
            t1 = perf_counter()
            res = wl.recover(op, enrolled, tr)
            t2 = perf_counter()
        except Exception:  # an op that raises is a failed op; the loop goes on
            self.failed_ops.append(i)
            print(f"op {i} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        error, replay_it = wl.check(op, res)
        if error is not None:
            self.failed_ops.append(i)
            print(f"op {i}: {error}", file=sys.stderr)
            return None
        if wl.wrong_secret(op, res):
            self.wrong_ops.append(i)
            print(f"op {i}: recovered {res.report.outcome}, enrolled "
                  f"{op.secret}", file=sys.stderr)
        if (i < wl.replay_ops or replay_it) and i not in self.kept:
            self.kept[i] = (op, res)
        return t2 - t0, t1 - t0, t2 - t1, op, res

    def verify(self) -> int:
        """Replay the kept ops through the oracle; count disagreements."""
        from workloads import replay
        bad = 0
        for i, (op, res) in sorted(self.kept.items()):
            k_star = res.sketch.params.k_star
            want = replay(res.sketch, op.probe, self.wl.weights(k_star))
            if want != res.outcome_key():
                bad += 1
                self.failed_ops.append(i)
                print(f"op {i}: report {res.outcome_key()} but replay {want}",
                      file=sys.stderr)
        return bad


def window_counts(wl, results) -> dict:
    """Deterministic per-window counts from the ops' (input, result) pairs."""
    import rvsketch as rv
    from workloads import stage_counts
    totals = dict.fromkeys(("candidates", "outer_fail", "prefix_reject",
                            "inner_fail", "accepts"), 0)
    exhausted = budget = sketch_bytes = wrong = 0
    expected_num = 0.0
    for op, res in results:
        c = stage_counts(res.report)
        for key in totals:
            totals[key] += c[key]
        p = res.sketch.params
        b = sum(math.comb(p.k_star, m) for m in wl.weights(p.k_star))
        budget += b
        exhausted += int(not c["accepts"] and c["candidates"] == b)
        sketch_bytes += res.sketch_bytes
        wrong += int(wl.wrong_secret(op, res))
        reached = c["candidates"] - c["outer_fail"]
        expected_num += reached * float(rv.false_accept_rate(p.k, p.n_star))
    out = {f"recover.{k}": v for k, v in totals.items()}
    out.update({"recover.exhausted": exhausted, "recover.budget": budget,
                "sketch.bytes": sketch_bytes, "recover.wrong_secret": wrong,
                "recover.expected_prefix_passes": expected_num})
    return out


def ratio(num, den) -> float:
    return num / den if den else 0.0


def batch_means(values, size: int) -> list:
    """Means of consecutive, whole batches of `size` values."""
    return [statistics.fmean(values[i:i + size])
            for i in range(0, len(values) - size + 1, size)]


_REF_ROWS = None


def reference_ms() -> float:
    """Milliseconds taken by a fixed piece of Python and numpy work.

    The work does not touch rvsketch, so no change to the library moves
    it; only the host's speed does. It is small-array numpy in an
    interpreted loop, like the workloads, so a busy host slows both alike.
    """
    global _REF_ROWS
    import numpy as np
    if _REF_ROWS is None:
        _REF_ROWS = np.random.default_rng(0).integers(
            0, 2, (24, 24), dtype=np.uint8)
    start = perf_counter()
    acc = 0
    for r in range(600):
        a = _REF_ROWS.copy()
        a[r % 24] ^= a[(r + 1) % 24]
        acc += int(a.sum())
    return (perf_counter() - start) * 1e3


def pctl(values, q: int) -> float:
    """q-th percentile, inclusive method (the median for q = 50)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# The two kinds of run

def untraced_run(wl, clock: Clock, quick: bool):
    from tracer import Tracer
    wl.setup(Tracer(False))
    loop = Loop(wl, Tracer(False))
    op_ms, enroll_ms, recover_ms, ref_ms = [], [], [], []
    size = 1 if quick else wl.batch_ops
    candidates = 0
    recover_call_s = 0.0
    i = 0
    # Ops 0..min_ops-1 always run, so a slower build cannot skip the
    # check of any of them; past that the loop runs until time is up.
    while (i < wl.quick_ops) if quick else (
            i < wl.min_ops or clock.elapsed() < clock.seconds):
        clock.poll()
        got = loop.run(i)
        i += 1
        if got is None:
            continue
        o, e, r, _, res = got
        op_ms.append(o * 1e3)
        enroll_ms.append(e * 1e3)
        recover_ms.append(r * 1e3)
        candidates += res.report.iterations_used
        recover_call_s += res.recover_call_s
        if len(op_ms) % size == 0:
            ref_ms.append(reference_ms())
    loop.verify()
    if not ref_ms:
        raise BenchError("no batch of ops completed")
    # The host's speed drifts by up to 2x over seconds to minutes, and that
    # moves every raw statistic of op time. So each batch of ops (about
    # 0.1 s of work) is followed by the reference job, and the gated value
    # is the median over batches of the batch's mean time over the
    # reference job's time: a busy host slows both.
    metrics = {
        f"{name}_rel_time": (statistics.median(
            m / ref for m, ref in zip(batch_means(values, size), ref_ms)),
            "x_ref")
        for name, values in (("op", op_ms), ("recover", recover_ms),
                             ("enroll", enroll_ms))}
    notes = {"ops": len(op_ms), "replayed": len(loop.kept),
             "error_rate": ratio(loop.failed, loop.attempted),
             "ops_per_s": len(op_ms) * 1e3 / sum(op_ms),
             "candidates_per_s": candidates / recover_call_s,
             "ref_ms_p50": pctl(ref_ms, 50)}
    for name, values in (("op_ms", op_ms), ("recover_ms", recover_ms),
                         ("enroll_ms", enroll_ms)):
        notes[f"{name}_p50"] = pctl(values, 50)
        notes[f"{name}_batch_p95"] = pctl(batch_means(values, size), 95)
    return loop, metrics, notes, None


def traced_run(wl, clock: Clock, quick: bool):
    from tracer import Tracer
    tr = Tracer(True)
    wl.setup(tr)
    setup_secs, setup_calls = tr.busy()
    window = wl.quick_ops if quick else wl.window_ops
    loop = Loop(wl, tr)
    pass_op_s = {False: [], True: []}
    layer_secs, layer_calls = [], []
    counts, mismatches = None, 0
    n_pass = 0
    while n_pass < MIN_TRACE_PASSES or (
            not quick and clock.elapsed() < clock.seconds):
        clock.poll()
        traced = n_pass % 2 == 1
        tr.enabled = traced
        tr.reset()
        total, results = 0.0, []
        for i in range(window):
            got = loop.run(i)
            if got is not None:
                total += got[0]
                results.append(got[3:])
        pass_op_s[traced].append(total)
        c = window_counts(wl, results)
        if counts is None:
            counts = c
        elif c != counts:
            mismatches += 1
            print(f"pass {n_pass}: counts {c} differ from {counts}", file=sys.stderr)
        if traced:
            secs, calls = tr.busy()
            layer_secs.append(secs)
            layer_calls.append(calls)
            if layer_calls[0] != calls:
                mismatches += 1
                print(f"pass {n_pass}: call counts {calls} differ from "
                      f"{layer_calls[0]}", file=sys.stderr)
        n_pass += 1
    replay_mismatches = loop.verify()

    def layer_ms(name):
        window_s = statistics.median(s.get(name, 0.0) for s in layer_secs)
        return (setup_secs.get(name, 0.0) + window_s) * 1e3

    calls = layer_calls[0]
    recover_ms = statistics.median(s.get("recover.scan", 0.0)
                                   for s in layer_secs) * 1e3
    cand = counts["recover.candidates"]
    reached = cand - counts["recover.outer_fail"]
    passed = counts["recover.inner_fail"] + counts["recover.accepts"]
    stored = stored_count_mismatches(wl, window, {**counts, **{
        f"calls.{k}": v for k, v in calls.items()}})
    mismatches += stored
    metrics = {
        "codes.build_calls": (setup_calls.get("codes.build", 0)
                              + calls.get("codes.build", 0), "count"),
        "codes.build_ms": (layer_ms("codes.build"), "ms"),
        "sketch.make_ms": (layer_ms("sketch.make"), "ms"),
        "sketch.dump_ms": (layer_ms("sketch.dump"), "ms"),
        "sketch.load_ms": (layer_ms("sketch.load"), "ms"),
        "lsh.index_ms": (layer_ms("lsh.index"), "ms"),
        "bitcore.rng_ms": (layer_ms("bitcore.rng"), "ms"),
        "recover.calls": (calls.get("recover.scan", 0), "count"),
        "recover.busy_ms": (recover_ms, "ms"),
        "recover.us_per_candidate": (ratio(recover_ms * 1e3, cand), "us"),
    }
    for key in ("recover.candidates", "recover.outer_fail",
                "recover.prefix_reject", "recover.inner_fail",
                "recover.accepts", "recover.wrong_secret",
                "recover.exhausted", "recover.budget", "sketch.bytes"):
        metrics[key] = (counts[key], "count")
    untraced = statistics.median(pass_op_s[False])
    metrics.update({
        "recover.outer_pass_ratio": (ratio(reached, cand), "ratio"),
        "recover.prefix_pass_ratio": (ratio(passed, reached), "ratio"),
        "recover.prefix_pass_expected": (
            ratio(counts["recover.expected_prefix_passes"], reached), "ratio"),
        "recover.budget_fill": (ratio(cand, counts["recover.budget"]), "ratio"),
        "trace.overhead_frac": (
            ratio(statistics.median(pass_op_s[True]) - untraced, untraced),
            "ratio"),
        "trace.window_ops": (window, "count"),
        "trace.count_mismatches": (mismatches, "count"),
        "replay.ops": (len(loop.kept), "count"),
        "replay.mismatches": (replay_mismatches, "count"),
        "error_rate": (ratio(loop.failed, loop.attempted), "ratio"),
    })
    bases = {
        "recover.outer_pass_ratio": (reached, cand),
        "recover.prefix_pass_ratio": (passed, reached),
        "recover.prefix_pass_expected": (counts["recover.expected_prefix_passes"], reached),
        "recover.budget_fill": (cand, counts["recover.budget"]),
        "recover.us_per_candidate": (recover_ms * 1e3, cand),
        "error_rate": (loop.failed, loop.attempted),
    }
    notes = {"passes": n_pass, "bases": bases}
    return loop, metrics, notes, mismatches


# ---------------------------------------------------------------------------
# Bookkeeping: environment, code digest, stored counts

def code_digest() -> str:
    """sha256 over the library and benchmark sources, path by path."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
        "code_sha256": code_digest(),
    }


def stored_count_mismatches(wl, window: int, counts: dict) -> int:
    """Compare counts with an earlier run of the same code, workload and seed.

    The first run stores them; a later run with a different count is a
    mismatch, since identical inputs must give identical reports.
    """
    path = (OUT_DIR / "counts" /
            f"{code_digest()[:16]}-{wl.name}-s{wl.seed}-w{window}.json")
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
        return 0
    before = json.loads(path.read_text())
    differ = sorted(k for k in set(before) | set(counts)
                    if before.get(k) != counts.get(k))
    for key in differ:
        print(f"count {key} = {counts.get(key)}, an earlier run with this "
              f"seed had {before.get(key)}", file=sys.stderr)
    return len(differ)


def write_record(name: str, record: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(record))


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("exhaust_scan", "decoy_fresh_codes", "enroll_recover"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="a few ops and one set-up sample, for tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--reference-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload, args.seed)))
            return 0
        if args.reference_probe:
            print(json.dumps(reference_probe()))
            return 0
        import_rvsketch()
        from workloads import WORKLOADS
        wl = WORKLOADS[args.workload](args.seed)
        clock = Clock(args.workload, args.seed,
                      1 if args.quick else SETUP_SAMPLES, args.seconds)
        run = traced_run if args.trace else untraced_run
        loop, metrics, notes, mismatches = run(wl, clock, args.quick)
        setup = clock.finish()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics["init.import_ms"] = (
            statistics.median(s["import_ms"] for s in setup), "ms")
    else:
        # The host's speed moves a fresh process's import time by up to
        # 1.5x between sets of runs, so set-up is scaled to a host on which
        # the reference probe takes exactly REF_IMPORT_S.
        metrics["setup_s"] = (statistics.median(
            s["setup_s"] / s["ref_s"] for s in setup) * REF_IMPORT_S, "s")
        notes["setup_raw_s_p50"] = statistics.median(
            s["setup_s"] for s in setup)
        notes["setup_ref_s_p50"] = statistics.median(
            s["ref_s"] for s in setup)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    env = environment()
    correct = loop.failed == 0 and not mismatches
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    bases = notes.pop("bases", {})
    failed_ops = sorted(set(loop.failed_ops))
    wrong_ops = sorted(set(loop.wrong_ops))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    write_record(f"result-{tag}.json", {
        "args": vars(args), "env": env, "notes": notes,
        "setup_samples": setup, "failed_ops": failed_ops,
        "wrong_secret_ops": wrong_ops, "result": result})

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"{json.dumps(notes, sort_keys=True)}")
    print(f"# failed ops {json.dumps(failed_ops)}")
    print(f"# wrong-secret ops {json.dumps(wrong_ops)}")
    for name, (value, unit) in sorted(metrics.items()):
        line = f"{name:32s} {value:.6g} {unit}"
        if name in bases:
            num, den = bases[name]
            line += f"  (= {num:.6g} / {den:.6g})"
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
