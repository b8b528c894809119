import csv
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binomtest

import golden
import rvsketch
from rvsketch import (ExperimentConfig, ParameterError, SeededRng, SketchParams,
                      code_from_spec, gen_index_vector, make_sketch, run_experiment)
from rvsketch import experiments
from rvsketch.experiments import CSV_SCHEMA


class TestConfig:
    def test_unknown_kind(self):
        message = "^unknown experiment kind 'nope'$"
        with pytest.raises(ParameterError, match=message):
            run_experiment(ExperimentConfig(kind="nope"))
        with pytest.raises(ParameterError, match=message):
            ExperimentConfig(kind="nope").resolved_trials()
        with pytest.raises(ParameterError, match=r"^unknown experiment kind \['lsh'\]$"):
            run_experiment(ExperimentConfig(kind=["lsh"]))   # unhashable

    def test_defaults_per_kind(self):
        assert ExperimentConfig(kind="lsh").resolved_trials() == 10_000
        assert ExperimentConfig(kind="correctness").resolved_trials() == 1_000
        assert ExperimentConfig(kind="complexity").resolved_trials() == 3

    def test_negative_trials(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(kind="lsh", trials=-1).validate()

    def test_false_accept_takes_no_trials(self):
        # its length is min_iterations; a trials value would only be
        # written to the CSV header
        with pytest.raises(ParameterError, match="min_iterations"):
            run_experiment(ExperimentConfig(kind="false_accept", trials=40))
        ExperimentConfig(kind="false_accept").validate()

    def test_min_iterations_must_be_positive(self):
        with pytest.raises(ParameterError, match="min_iterations must be >= 1"):
            run_experiment(ExperimentConfig(kind="false_accept", min_iterations=0))

    @pytest.mark.parametrize("kind, field, value", [
        ("lsh", "trials", 2.5), ("lsh", "trials", "3"), ("lsh", "seed", 1.5),
        ("lsh", "distance", 2.5), ("false_accept", "min_iterations", 10.5),
        ("lsh", "k_star", 16.5), ("lsh", "n", 1.5),
        ("correctness", "w_prime_distance", 1.5), ("false_accept", "deltas", (1.5,)),
        ("false_accept", "deltas", (1, 2.5)), ("complexity", "grid_k", ("8",)),
        # a sequence field that is no sequence, also for a kind that never reads it
        ("lsh", "deltas", None), ("lsh", "grid_k", 8), ("complexity", "grid_k", "8"),
        ("false_accept", "deltas", b"\x01"), ("complexity", "grid_eps", "1/8")])
    def test_field_not_an_integer(self, kind, field, value):
        cfg = ExperimentConfig(kind=kind, **{field: value})
        if isinstance(value, tuple):   # a sequence's bad entry
            message = f"{field} {value[-1]!r} is not an integer"
        elif field in ("deltas", "grid_k"):
            message = f"{field} {value!r} is not a sequence of integers"
        elif field == "grid_eps":
            message = f"{field} {value!r} is not a sequence of rationals"
        else:
            message = f"{field} {value!r} is not an integer"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            run_experiment(cfg)

    @pytest.mark.parametrize("cfg, message", [
        (ExperimentConfig(kind="lsh", trials="3"),
         "^trials '3' is not an integer$"),
        (ExperimentConfig(kind="lsh", trials=-2),
         r"^trials must be >= 1 \(or 0 for the default\)$"),
        (ExperimentConfig(kind="false_accept", deltas=(1,), min_iterations=0),
         "^min_iterations must be >= 1$"),
        (ExperimentConfig(kind="correctness", trials=2.0),
         "^trials 2.0 is not an integer$")],
        ids=["text-trials", "negative-trials", "zero-min-iterations",
             "float-trials"])
    def test_runners_check_their_config(self, cfg, message):
        # run_experiment, the one entry to every runner, checks cfg first
        with pytest.raises(ParameterError, match=message):
            run_experiment(cfg)

    def test_integer_fields_are_stored_as_ints(self):
        cfg = ExperimentConfig(kind="false_accept", deltas=[np.int64(1), 3],
                               min_iterations=50, k_star=np.int64(16))
        plain = ExperimentConfig(kind="false_accept", deltas=(1, 3), min_iterations=50)
        assert run_experiment(cfg) == run_experiment(plain)
        assert cfg.deltas == (1, 3) and type(cfg.deltas[0]) is int
        assert type(cfg.k_star) is int
        cfg = ExperimentConfig(kind="complexity", trials=1, grid_k=(np.int64(8),))
        assert run_experiment(cfg) == run_experiment(
            ExperimentConfig(kind="complexity", trials=1, grid_k=(8,)))
        assert type(cfg.grid_k[0]) is int

    def test_numpy_integer_seed_runs_as_its_int(self):
        # validate stores plain ints, which the 64-bit seed mix needs
        cfg = ExperimentConfig(kind="lsh", trials=5, seed=np.int64(3))
        assert run_experiment(cfg) == run_experiment(
            ExperimentConfig(kind="lsh", trials=5, seed=3))
        assert type(cfg.seed) is int

    @pytest.mark.parametrize("distance", [-1, 17])
    def test_lsh_distance_outside_k_star(self, distance):
        with pytest.raises(ParameterError, match=r"distance must lie in \[0, k_star\]"):
            run_experiment(ExperimentConfig(kind="lsh", trials=1, distance=distance))

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(kind="correctness", trials=1, eps_ss="nan"),
        ExperimentConfig(kind="correctness", trials=1, eps_ss=float("inf")),
        ExperimentConfig(kind="complexity", trials=1, grid_eps=("abc",))],
        ids=["eps_ss-nan", "eps_ss-inf", "grid_eps-abc"])
    def test_eps_not_a_finite_rational(self, cfg):
        with pytest.raises(ParameterError, match="is not a finite rational"):
            run_experiment(cfg)


class TestLsh:
    def test_small_run_passes(self):
        r = run_experiment(ExperimentConfig(kind="lsh", trials=800, seed=2))
        assert r.passed
        assert abs(r.mean - r.expected) <= r.tolerance

    @pytest.mark.parametrize("distance", [0, 16])
    def test_zero_variance_run_passes(self, distance):
        # p = 0 or 1: every sample is exactly n p, and the tolerance is zero
        r = run_experiment(ExperimentConfig(kind="lsh", trials=3, distance=distance))
        assert (r.mean, r.tolerance, r.passed) == (r.expected, 0.0, True)

    def test_seed_changes_samples_not_expectation(self):
        a = run_experiment(ExperimentConfig(kind="lsh", trials=300, seed=1))
        b = run_experiment(ExperimentConfig(kind="lsh", trials=300, seed=2))
        assert a.expected == b.expected
        assert a.mean != b.mean

    def test_empty_secret_rejected(self):
        cfg = ExperimentConfig(kind="lsh", k_star=0, distance=0, trials=3)
        with pytest.raises(ParameterError, match="k_star must be positive"):
            run_experiment(cfg)


class TestCorrectness:
    def test_small_run(self):
        r = run_experiment(ExperimentConfig(kind="correctness", trials=60, seed=3))
        assert r.trials == 60
        assert r.rate >= 0.5

    def test_random_outer_variant(self):
        r = run_experiment(ExperimentConfig(
            kind="correctness", trials=40, seed=3, outer_spec="random:26:18"))
        assert r.floor == 0.875
        assert r.rate >= 0.875

    def test_result_fields_are_plain_python(self):
        r = run_experiment(ExperimentConfig(kind="correctness", trials=40, seed=3))
        assert type(r.pvalue_below) is float
        assert type(r.passed) is bool
        assert type(r.rate) is float and type(r.floor) is float

    @pytest.mark.parametrize("distance", [-1, 8, 100])
    def test_w_prime_distance_outside_zero_to_k_star(self, distance):
        cfg = ExperimentConfig(kind="correctness", trials=3,
                               w_prime_distance=distance)
        with pytest.raises(ParameterError, match=(
                rf"^w_prime_distance {distance} outside \[0, 7\]$")):
            run_experiment(cfg)

    @pytest.mark.parametrize("distance", [0, 7])
    def test_w_prime_distance_at_the_range_ends(self, distance):
        r = run_experiment(ExperimentConfig(kind="correctness", trials=3,
                                            w_prime_distance=distance))
        assert r.trials == 3

    def test_trial_streams(self, monkeypatch):
        # the codes come from streams 101 and 102 of the seed; trial t draws
        # w, N, the sketch's error and w' from streams 1-4 of its generator
        # (eps_ss = 1/7 gives the error weight 1 of k* = 7)
        calls, sweep = [], experiments.recover_sweep
        monkeypatch.setattr(experiments, "recover_sweep",
                            lambda *args: calls.append(args) or sweep(*args))
        cfg = ExperimentConfig(kind="correctness", trials=2, seed=3,
                               eps_ss=Fraction(1, 7), inner_spec="random:15:7",
                               outer_spec="random:26:18")
        run_experiment(cfg)
        inner = code_from_spec(cfg.inner_spec, SeededRng(3).spawn(101))
        outer = code_from_spec(cfg.outer_spec, SeededRng(3).spawn(102))
        params = SketchParams.from_codes(inner, outer, cfg.eps_ss)
        assert len(calls) == 2
        for t, (sk, w_prime, got_inner, got_outer) in enumerate(calls):
            rng = experiments._trial_rng(3, t)
            w = rng.spawn(1).random_bits(7)
            N = gen_index_vector(7, 26, rng.spawn(2))
            expect = make_sketch(w, N, cfg.eps_ss, params, rng.spawn(3))
            assert (sk.ss, sk.N) == (expect.ss, expect.N)
            flip = rng.spawn(4).subset(7, 1)
            assert np.flatnonzero(w.bits ^ w_prime.bits).tolist() == flip.tolist()
            assert (got_inner, got_outer) == (inner, outer)

    @pytest.mark.parametrize("outer", ["bch:5:3", "random:26:18"])
    def test_csv_pvalue_matches_scipy(self, tmp_path, outer):
        path = tmp_path / "c.csv"
        r = run_experiment(ExperimentConfig(kind="correctness", trials=40,
                                            seed=3, outer_spec=outer, out=path))
        rows = list(csv.reader(
            ln for ln in path.read_text().splitlines() if not ln.startswith("#")))
        summary = dict(zip(rows[0], rows[-1]))
        want = binomtest(r.successes, r.trials, r.floor, alternative="less").pvalue
        assert summary["pvalue_below"] == f"{want:.6g}"


_NO_SCIPY = textwrap.dedent("""
    import sys
    sys.modules["scipy"] = None   # any scipy import now raises ImportError
    import rvsketch
    from rvsketch.cli import main
    r = rvsketch.run_experiment(
        rvsketch.ExperimentConfig(kind="correctness", trials=3, seed=3))
    assert r.trials == 3
    assert main(["bounds", "--k-star", "7", "--n-star", "15", "--k", "16",
                 "--n", "31", "--eps-ss", "1/14"]) == 0
""")


def test_runtime_never_imports_scipy():
    src = str(Path(rvsketch.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestFalseAccept:
    def test_single_delta_band(self):
        results = run_experiment(ExperimentConfig(
            kind="false_accept", seed=4, deltas=(2,), min_iterations=2000))
        (r,) = results
        assert r.iterations >= 2000
        assert r.expected == 0.25
        assert 0.125 <= r.rate <= 0.5

    # (seed, delta, min_iterations) -> (prefix_accepts, iterations, passed):
    # one batch each, its rate on the band's upper edge, on its lower edge,
    # below it and above it; the first batch reaches min_iterations exactly
    @pytest.mark.parametrize("seed, delta, least, expect", [
        (0, 1, 2, (2, 2, True)), (33, 1, 1, (4, 16, True)),
        (4, 1, 1, (3, 13, False)), (3, 2, 1, (4, 6, False))])
    def test_passed_is_the_factor_two_band(self, seed, delta, least, expect):
        (r,) = run_experiment(ExperimentConfig(
            kind="false_accept", seed=seed, deltas=(delta,), min_iterations=least))
        assert (r.prefix_accepts, r.iterations, r.passed) == expect


class TestComplexity:
    def test_tiny_grid_exact(self):
        cells = run_experiment(ExperimentConfig(
            kind="complexity", trials=2, seed=5, grid_k=(8,),
            grid_eps=(Fraction(1, 8), Fraction(1, 4))))
        for cell in cells:
            assert cell.passed
            assert cell.iterations_max == cell.expected

    def test_trial_generators_and_code_sizes(self, monkeypatch):
        # repeat after repeat, cell after cell, each on the next trial
        # generator, with [k*+8, k*] inner and [k*+28, k*+12] outer codes
        calls, decoy = [], experiments._decoy_recovery
        monkeypatch.setattr(experiments, "_decoy_recovery", lambda rng, *sizes: (
            calls.append((rng.seed,) + sizes[:4]) or decoy(rng, *sizes)))
        run_experiment(ExperimentConfig(kind="complexity", trials=2, seed=5,
                                        grid_k=(8,), grid_eps=("1/8", "1/4")))
        assert calls == [(experiments._trial_rng(5, t).seed, 8, 16, 36, 20)
                         for t in range(4)]

    def test_eps_above_half_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="3/4"):
            run_experiment(ExperimentConfig(kind="complexity", trials=1,
                                            grid_k=(8,), grid_eps=("3/4",)))


class TestCsvOutput:
    def test_byte_reproducibility(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(ExperimentConfig(kind="lsh", trials=150, seed=6, out=p1))
        run_experiment(ExperimentConfig(kind="lsh", trials=150, seed=6, out=p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema_and_summary_row(self, tmp_path):
        path = tmp_path / "c.csv"
        run_experiment(ExperimentConfig(kind="lsh", trials=50, seed=7, out=path))
        lines = path.read_text().splitlines()
        assert lines[0] == f"# {CSV_SCHEMA}"
        assert lines[1].startswith("# kind=lsh seed=7 trials=50")
        assert lines[2].split(",")[0] == "trial"
        assert lines[-1].startswith("summary,")

    def test_complexity_csv_reproducible(self, tmp_path):
        p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
        cfg = dict(kind="complexity", trials=1, seed=8, grid_k=(8,),
                   grid_eps=(Fraction(1, 8),))
        run_experiment(ExperimentConfig(out=p1, **cfg))
        run_experiment(ExperimentConfig(out=p2, **cfg))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kind", sorted(golden.EXPERIMENTS))
    def test_csv_is_pinned(self, kind):
        golden.assert_pinned(f"experiment/{kind}.csv")

    def test_false_accept_csv_sections(self, tmp_path):
        path = tmp_path / "fa.csv"
        run_experiment(ExperimentConfig(kind="false_accept", seed=9,
                                        deltas=(1,), min_iterations=300, out=path))
        text = path.read_text()
        assert "summary" in text
        assert text.startswith(f"# {CSV_SCHEMA}")
