"""Quick-mode checks of the benchmark itself.

Each run is a few ops of one workload, in this process. The fresh-process
set-up probe is tested once on its own and replaced by a constant sample
elsewhere, since each probe pays the full import. Results and stored
counts go to a temporary directory.
"""

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def load_run():
    spec = importlib.util.spec_from_file_location("rvsketch_bench_run",
                                                  HERE / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def bench(tmp_path, monkeypatch):
    mod = load_run()
    monkeypatch.setattr(mod, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(mod, "setup_sample", lambda workload, seed: {
        "setup_s": 1.0, "import_ms": 1000.0, "ref_s": 0.8})
    return mod


def run_quick(bench, capsys, workload, trace, seed=3):
    code = bench.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace), "--quick"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_metric_and_checks_out(bench, capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_quick(bench, capsys, workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in CONTRACT[key]}
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["error_rate"] == 0
    assert m["replay.ops"] >= 1 and m["replay.mismatches"] == 0
    assert m["trace.count_mismatches"] == 0
    assert m["recover.calls"] == m["trace.window_ops"]


def test_counts_repeat_per_seed_and_a_changed_count_is_flagged(bench, capsys):
    first = run_quick(bench, capsys, "enroll_recover", 1)
    again = run_quick(bench, capsys, "enroll_recover", 1)
    assert again["correct"]
    for name, value in first["metrics"].items():
        if value["unit"] == "count":
            assert again["metrics"][name] == value, name

    (stored,) = (bench.OUT_DIR / "counts").iterdir()
    counts = json.loads(stored.read_text())
    counts["recover.candidates"] += 1
    stored.write_text(json.dumps(counts))
    flagged = run_quick(bench, capsys, "enroll_recover", 1)
    assert not flagged["correct"]
    assert flagged["metrics"]["trace.count_mismatches"]["value"] == 1


def test_replay_catches_a_miscounted_report(bench, capsys, monkeypatch):
    bench.import_rvsketch()
    import workloads
    real = workloads.rv.recover_sweep

    def miscounted(*args):
        # One outer failure reported as a prefix reject: the stage counts
        # still add up, so only the replay can see it.
        report = real(*args)
        if not report.first_decode_failures:
            return report
        return dataclasses.replace(
            report, first_decode_failures=report.first_decode_failures - 1)

    monkeypatch.setattr(workloads.rv, "recover_sweep", miscounted)
    result = run_quick(bench, capsys, "enroll_recover", 1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["replay.mismatches"] >= 1
    assert result["failed"] == m["replay.mismatches"]
    assert not result["correct"]


def test_a_false_accept_is_reported_not_failed(bench):
    # Op 88 of seed 11 accepts a weight-1 candidate before reaching w_e at
    # weight 2 and recovers a wrong secret; the replay agrees.
    bench.import_rvsketch()
    from tracer import Tracer
    from workloads import EnrollRecover
    wl = EnrollRecover(11)
    wl.setup(Tracer(False))
    loop = bench.Loop(wl, Tracer(False))
    for i in (0, 88):
        assert loop.run(i) is not None
    assert wl.enrolled_position(wl.inputs(88)) > 8
    assert loop.wrong_ops == [88] and 88 in loop.kept
    assert loop.verify() == 0 and loop.failed == 0


def test_a_wrong_secret_at_the_enrolled_candidate_fails(bench, monkeypatch):
    bench.import_rvsketch()
    import workloads
    from tracer import Tracer
    real = workloads.rv.recover_sweep

    def flipped(sk, probe, *args):
        report = real(sk, probe, *args)
        return dataclasses.replace(report, outcome=report.outcome ^ probe)

    wl = workloads.EnrollRecover(11)
    wl.setup(Tracer(False))
    op = wl.inputs(0)
    at = wl.enrolled_position(op)
    monkeypatch.setattr(workloads.rv, "recover_sweep", flipped)
    loop = bench.Loop(wl, Tracer(False))
    assert loop.run(0) is None
    assert loop.failed_ops == [0] and loop.wrong_ops == []
    monkeypatch.setattr(workloads.rv, "recover_sweep", real)
    assert loop.run(0) is not None
    assert loop.kept[0][1].report.iterations_used == at


def test_setup_probe_times_a_fresh_process():
    sample = load_run().setup_sample("decoy_fresh_codes", 1)
    assert 0 < sample["import_ms"] / 1e3 < sample["setup_s"]
    assert sample["ref_s"] > 0


def test_exits_nonzero_without_the_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
