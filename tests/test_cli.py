import contextlib
import hashlib
import io
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvsketch import (BitString, ExperimentConfig, SeededRng, Sketch,
                      SketchParams, bch_code, cli, code_from_spec,
                      gen_index_vector, param_violations, save_sketch)
from rvsketch.cli import main
from rvsketch.experiments import _KINDS


@pytest.fixture()
def workdir(tmp_path):
    w = tmp_path / "w.txt"
    w.write_text(str(SeededRng(123).random_bits(7)))
    return tmp_path


def _sketch_args(workdir, **overrides):
    args = {
        "--w": str(workdir / "w.txt"),
        "--inner": "4:2",
        "--outer": "5:3",
        "--eps-ss": "1/14",
        "--seed": "11",
        "--out": str(workdir / "sk.bin"),
    }
    args.update(overrides)
    flat = ["sketch"]
    for key, val in args.items():
        flat += [key, val]
    return flat


class TestSketchCommand:
    def test_writes_file(self, workdir, capsys):
        assert main(_sketch_args(workdir)) == 0
        assert (workdir / "sk.bin").exists()
        out = capsys.readouterr().out
        assert "n = 31" in out and "k - n* = 1" in out

    def test_wrong_length_w(self, workdir, capsys):
        (workdir / "w.txt").write_text("01010101")  # 8 bits, k* = 7
        assert main(_sketch_args(workdir)) == 2
        assert "dimension error" in capsys.readouterr().err

    def test_eps_out_of_range(self, workdir, capsys):
        assert main(_sketch_args(workdir, **{"--eps-ss": "3/10"})) == 2
        assert "eps_ss" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["2/3", "-1/7"])
    def test_eps_outside_bound_domain(self, workdir, capsys, eps):
        args = _sketch_args(workdir)
        i = args.index("--eps-ss")
        args[i:i + 2] = [f"--eps-ss={eps}"]   # "-1/7" alone reads as a flag
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"parameter violation: eps_ss = {eps} outside [1/14, 1/4]" in err

    def test_bad_code_spec(self, workdir):
        assert main(_sketch_args(workdir, **{"--inner": "nonsense"})) == 2

    def test_missing_w_file(self, workdir):
        assert main(_sketch_args(workdir, **{"--w": str(workdir / "nope.txt")})) == 2

    @pytest.mark.parametrize("inner, outer, eps, w, out_digest, file_digest", [
        ("bch:4:2", "bch:5:3", "1/7", "1011001",
         "2154e0b5aa5ed0599e3ccc6d9184266405ae802db55c41f5c32e3984fb6a6e0b",
         "70750e6f9f4fadbb18c6353e3832c6968e864c3ee9fea2d58fc3e4605976fcdf"),
        # the enumeration budget at eps_rec = 2 eps_ss holds
        ("random:11:8", "bch:5:3", "1/16", "10110010",
         "0e6b573f420b628ef5e2e7cf69d81337331b5f414dd487bda7240677b100f1f0",
         "77f53b5414dd8b8aa771f13f418e0164e4ac747da2815f294509c5e8475e37b5"),
        # n = 2 k*^2: the error floor holds
        ("bch:4:2", "random:98:16", "1/14", "1011001",
         "6fd1c905a8e09b07bb0e63e120616e1badbb48827a0bd490a647c8e05e289d3f",
         "4f1589d59d7324d07ed20c6d655c52de811801ac1d45af79f33a9938d8268cec"),
    ])
    def test_report_is_pinned(self, tmp_path, monkeypatch, capsys, inner, outer,
                              eps, w, out_digest, file_digest):
        # sha256 of stdout and of the sketch file; a relative --out keeps
        # the printed path fixed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.txt").write_text(w)
        assert main(["sketch", "--w", "w.txt", "--inner", inner, "--outer", outer,
                     "--eps-ss", eps, "--seed", "11", "--out", "sk.bin"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == out_digest
        assert hashlib.sha256((tmp_path / "sk.bin").read_bytes()).hexdigest() \
            == file_digest


class TestRecoverCommand:
    def _sketch(self, workdir, **overrides):
        assert main(_sketch_args(workdir, **overrides)) == 0

    def test_round_trip(self, workdir, capsys):
        self._sketch(workdir)
        capsys.readouterr()  # drain the sketch command's report
        code = main(["recover", "--sketch", str(workdir / "sk.bin"),
                     "--w-prime", str(workdir / "w.txt"), "--sweep",
                     "--out", str(workdir / "rep.csv")])
        assert code == 0
        assert capsys.readouterr().out.strip() == (workdir / "w.txt").read_text()
        lines = (workdir / "rep.csv").read_text().splitlines()
        assert lines[0].startswith("outcome,iterations_used")
        assert len(lines) == 2

    def test_far_probe_fails_with_exit_1(self, workdir, capsys):
        # decode-failure-heavy outer makes the honest failure deterministic
        self._sketch(workdir, **{"--outer": "random:40:24"})
        wp = workdir / "wp.txt"
        w = (workdir / "w.txt").read_text()
        wp.write_text("".join("1" if c == "0" else "0" for c in w))
        capsys.readouterr()
        code = main(["recover", "--sketch", str(workdir / "sk.bin"),
                     "--w-prime", str(wp), "--sweep"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "FAIL"

    def test_corrupted_magic(self, workdir, capsys):
        self._sketch(workdir)
        blob = bytearray((workdir / "sk.bin").read_bytes())
        blob[:4] = b"JUNK"
        (workdir / "sk.bin").write_bytes(bytes(blob))
        code = main(["recover", "--sketch", str(workdir / "sk.bin"),
                     "--w-prime", str(workdir / "w.txt"), "--eps-rec", "1/7"])
        assert code == 2
        assert "magic" in capsys.readouterr().err

    def test_eps_and_sweep_are_exclusive(self, workdir):
        self._sketch(workdir)
        with pytest.raises(SystemExit) as exc:
            main(["recover", "--sketch", str(workdir / "sk.bin"),
                  "--w-prime", str(workdir / "w.txt"),
                  "--eps-rec", "1/7", "--sweep"])
        assert exc.value.code == 2

    def test_rule_breaking_sketch_file(self, workdir, capsys):
        # a [20,7] inner with a [31,16] outer breaks n* < k; the file must
        # be refused on load, before any recovery runs
        rng = SeededRng(5)
        inner = code_from_spec("random:20:7", rng.spawn(1))
        params = SketchParams.from_codes(inner, bch_code(5, 3), Fraction(1, 7))
        save_sketch(Sketch(BitString.zeros(31), params,
                           gen_index_vector(7, 31, rng.spawn(2)), rng.algo_id),
                    workdir / "bad.bin")
        code = main(["recover", "--sketch", str(workdir / "bad.bin"),
                     "--w-prime", str(workdir / "w.txt"), "--sweep"])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: malformed sketch: n* = 20 must be < k = 16\n")

    def test_max_weight_needs_sweep(self, workdir, capsys):
        self._sketch(workdir)
        capsys.readouterr()
        args = ["recover", "--sketch", str(workdir / "sk.bin"),
                "--w-prime", str(workdir / "w.txt"), "--max-weight", "99"]
        assert main(args + ["--eps-rec", "1/7"]) == 2
        assert capsys.readouterr() == (
            "", "error: --max-weight applies only with --sweep\n")
        assert main(args + ["--sweep"]) == 2   # above floor(k*/2): rejected
        assert "max_weight 99 outside [0, 3]" in capsys.readouterr().err
        assert main(args[:-1] + ["0", "--sweep"]) == 0


def _bounds_argv(dims, eps_ss, eps_rec=None):
    """The bounds argv for (k*, n*, k, n); flag=value lets a value start with '-'."""
    argv = ["bounds"] + [f"{flag}={val}" for flag, val in zip(
        ("--k-star", "--n-star", "--k", "--n"), dims)] + [f"--eps-ss={eps_ss}"]
    return argv if eps_rec is None else argv + [f"--eps-rec={eps_rec}"]


class TestBoundsCommand:
    ARGS = ["bounds", "--k-star", "7", "--n-star", "15", "--k", "16",
            "--n", "31", "--eps-ss", "1/14"]

    def test_text_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        for needle in ("shannon", "gv", "false accept", "error floor",
                       "iteration budget"):
            assert needle in out

    def test_csv_format(self, capsys):
        assert main(self.ARGS + ["--format", "csv", "--xi", "1/7"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "quantity,value"
        # every row must stay a two-field record
        assert all(len(line.split(",")) == 2 for line in out[1:])

    def test_thresholds_included_with_xi(self, capsys):
        assert main(self.ARGS + ["--xi", "1/7"]) == 0
        assert "t_max" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, digest", [
        (ARGS, "6aa475af904ded445ecdefe7f7ea12f5c3579fd6eb862c9af2c30ec5f5684a4d"),
        (ARGS + ["--format", "csv", "--xi", "1/7"],
         "6159620667e52e2bd8f9d26f4dba8140a27b1a496fe854244cc3c2a7bb918887"),
        # an explicit eps_rec equal to the default 2 eps_ss prints the same table
        (ARGS + ["--eps-rec", "1/7"],
         "6aa475af904ded445ecdefe7f7ea12f5c3579fd6eb862c9af2c30ec5f5684a4d"),
        (["bounds", "--k-star", "11", "--n-star", "15", "--k", "16",
          "--n", "63", "--eps-ss", "1/8"],
         "859798422be9bfe64e7e89cb29ec1dfc3c2e66d4b4e058139bb8deb0f74a81c8"),
        (["bounds", "--k-star", "24", "--n-star", "40", "--k", "50",
          "--n", "200", "--eps-ss", "1/10", "--eps-rec", "1/6", "--xi", "1/5",
          "--format", "csv"],
         "abe40610effbba81de9d2d171ce262e06d1ff4ea2341042875554ce7e17fdd76"),
        # the budget holds and 2^(k-n*) == n+1: the full-length BCH regime
        (["bounds", "--k-star", "8", "--n-star", "11", "--k", "16",
          "--n", "31", "--eps-ss", "1/16"],
         "bc28ceb595679d0787c0810e9d2c3d97f3b08303a5412fbd02dd93a1563b8b82"),
        # the exhaust_scan sketch: 2^20 prefix states against n+1 = 64
        (_bounds_argv((16, 31, 51, 63), "1/8"),
         "6510efee6d1a5afa458a91168b6b3c0c7a411692dbb5ecbc9b720519461810a6"),
    ])
    def test_table_is_pinned(self, capsys, argv, digest):
        # sha256 of the whole stdout: any change to a printed bound shows here
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("eps", ["3/2", "-1/7"])
    def test_eps_rec_outside_bound_domain(self, capsys, eps):
        assert main(self.ARGS + [f"--eps-rec={eps}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"parameter violation: eps_rec = {eps} outside [1/14, 1/2]" in captured.err

    @pytest.mark.parametrize("eps", ["3/2", "1/3", "-1/7"])
    def test_eps_ss_out_of_range(self, capsys, eps):
        args = self.ARGS[:-2] + [f"--eps-ss={eps}"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"parameter violation: eps_ss = {eps} outside [1/14, 1/4]\n")

    @pytest.mark.parametrize("k_star", ["0", "-3"])
    def test_k_star_below_one(self, capsys, k_star):
        args = self.ARGS[:2] + [k_star] + self.ARGS[3:]
        assert main(args) == 2
        assert capsys.readouterr() == (
            "", f"parameter violation: k_star = {k_star} must be at least 1\n")

    @pytest.mark.parametrize("dims, eps_ss", [
        ((16, 31, 51, 63), "1/8"),   # the exhaust_scan sketch, k - n* = 20
        ((7, 15, 51, 63), "1/7"),    # the enroll_recover sketch, k - n* = 36
    ])
    def test_zero_pad_wider_than_k_star(self, capsys, dims, eps_ss):
        assert main(_bounds_argv(dims, eps_ss)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "rate regime" in captured.out and "below-gv" in captured.out

    def test_envelope_beyond_float_range(self, capsys):
        # 2^(k* h2(1/2)) = 2^2000 overflows a float: printed as inf
        assert main(["bounds", "--k-star", "2000", "--n-star", "2000",
                     "--k", "2001", "--n", "4000", "--eps-ss", "1/4"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = dict(line.split("  ", 1) for line in captured.out.splitlines())
        assert rows["support size envelope 2^(k* h2(eps_rec))"].strip() == "inf"
        assert rows["iteration budget 2^(k* h2(2 eps_ss)) <= 2^(k-n*)"].strip() \
            == "False (inf vs 2)"

    def test_integers_beyond_the_str_digit_limit(self, capsys):
        # 2^(k-n*) = 2^15000 has 4,516 digits, past str(int)'s default limit
        assert main(_bounds_argv((15000, 15000, 30000, 30000), "1/30000")) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = dict(line.split("  ", 1) for line in captured.out.splitlines())
        budget = rows["iteration budget 2^(k* h2(2 eps_ss)) <= 2^(k-n*)"].strip()
        assert budget == f"True (40772.9 vs {Decimal(2 ** 15000)})"
        assert rows["bch-exact sketch relation 2^(k-n*) == n+1"].strip() == "False"

    def test_fractions_beyond_the_str_digit_limit(self, capsys):
        # 3,001-digit denominators in eps_ss and xi: t_max's has 6,002
        big = 10 ** 3000
        eps_ss = Fraction(big + 3, 14 * (big + 3) - 1)
        xi = Fraction(big + 7, 7 * (big + 7) - 1)
        argv = _bounds_argv((7, 15, 16, 31), eps_ss) + [f"--xi={xi}"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = dict(line.split("  ", 1) for line in captured.out.splitlines())
        t_max = 31 * (xi - eps_ss)
        assert rows["t_max = n(xi-eps)"].strip() == (
            f"{Decimal(t_max.numerator)}/{Decimal(t_max.denominator)}")


@st.composite
def _eps(draw, k_star):
    """A rational in [-1, 1], often inside or next to an edge of the ranges."""
    lo = Fraction(1, 2 * max(k_star, 1))
    edge = draw(st.sampled_from([Fraction(0), lo, Fraction(1, 4), Fraction(1, 2)]))
    near = edge + draw(st.sampled_from([-1, 0, 1])) * Fraction(1, 10**7)
    return draw(st.one_of(st.just(near),
                          st.fractions(lo, Fraction(1, 2), max_denominator=7000),
                          st.fractions(-1, 1, max_denominator=7000)))


@st.composite
def _bounds_inputs(draw):
    """(k*, n*, k, n), eps_ss, eps_rec or None: dimensions in any order."""
    dims = sorted(draw(st.lists(st.integers(-2, 3000), min_size=4, max_size=4)))
    order = draw(st.one_of(st.just((0, 1, 2, 3)), st.permutations(range(4))))
    dims = tuple(dims[i] for i in order)
    eps_rec = draw(st.one_of(st.none(), _eps(dims[0])))
    return dims, draw(_eps(dims[0])), eps_rec


class TestRuleAgreement:
    @settings(max_examples=400, deadline=None)
    @given(_bounds_inputs())
    def test_bounds_prints_exactly_when_no_rule_breaks(self, inputs):
        dims, eps_ss, eps_rec = inputs
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_bounds_argv(dims, eps_ss, eps_rec))
        violations = param_violations(*dims, eps_ss, eps_rec)
        if violations:
            assert (code, out.getvalue()) == (2, "")
            assert err.getvalue() == "".join(
                f"parameter violation: {v}\n" for v in violations)
        else:
            assert (code, err.getvalue()) == (0, "")


class TestExperimentCommand:
    def test_lsh_smoke(self, workdir, capsys):
        out = workdir / "lsh.csv"
        code = main(["experiment", "--kind", "lsh", "--trials", "120",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "LshResult" in capsys.readouterr().out

    def test_lsh_rejects_empty_samples(self, capsys):
        code = main(["experiment", "--kind", "lsh", "--n", "0", "--trials", "5"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: n and trials must be positive\n")

    def test_lsh_rejects_empty_secret(self, capsys):
        code = main(["experiment", "--kind", "lsh", "--k-star", "0",
                     "--distance", "0", "--trials", "3"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: k_star must be positive\n")

    def test_complexity_smoke(self, capsys):
        code = main(["experiment", "--kind", "complexity", "--trials", "1"])
        assert code == 0

    def test_false_accept_smoke(self, workdir, capsys):
        out = workdir / "fa.csv"
        code = main(["experiment", "--kind", "false_accept", "--deltas", "2",
                     "--min-iterations", "400", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        assert "FalseAcceptResult" in capsys.readouterr().out
        assert out.exists()

    def test_false_accept_rejects_trials(self, workdir, capsys):
        out = workdir / "fa.csv"
        code = main(["experiment", "--kind", "false_accept", "--trials", "40",
                     "--seed", "3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: false_accept takes no "
                                       "trials: min_iterations sets its length\n")
        assert not out.exists()

    def test_bad_deltas(self, capsys):
        code = main(["experiment", "--kind", "false_accept",
                     "--deltas", "1,x"])
        assert code == 2
        assert capsys.readouterr().err == "bad --deltas value: '1,x'\n"


class TestExperimentFlags:
    HELP = """\
usage: rvsketch experiment [-h] --kind
                           {lsh,correctness,false_accept,complexity}
                           [--trials TRIALS] [--seed SEED] [--out OUT]
                           [--k-star K_STAR] [--distance DISTANCE] [--n N]
                           [--inner INNER] [--outer OUTER] [--eps-ss EPS_SS]
                           [--w-prime-distance W_PRIME_DISTANCE]
                           [--deltas DELTAS] [--min-iterations MIN_ITERATIONS]

options:
  -h, --help            show this help message and exit
  --kind {lsh,correctness,false_accept,complexity}
  --trials TRIALS
  --seed SEED
  --out OUT
  --k-star K_STAR
  --distance DISTANCE
  --n N
  --inner INNER
  --outer OUTER
  --eps-ss EPS_SS
  --w-prime-distance W_PRIME_DISTANCE
  --deltas DELTAS       comma-separated k-n* values for false_accept
  --min-iterations MIN_ITERATIONS
"""

    @pytest.fixture()
    def configs(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda cfg: seen.append(cfg) or [])
        return seen

    def test_help_text(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == self.HELP

    @pytest.mark.parametrize("kind", tuple(_KINDS))
    def test_defaults_are_the_config_defaults(self, configs, kind):
        assert main(["experiment", "--kind", kind]) == 0
        assert configs == [ExperimentConfig(kind=kind)]

    def test_every_flag_reaches_the_config(self, configs, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["experiment", "--kind", "correctness", "--trials", "7",
                     "--seed", "9", "--out", out, "--k-star", "8",
                     "--distance", "2", "--n", "64", "--inner", "bch:3:1",
                     "--outer", "random:40:24", "--eps-ss", "1/8",
                     "--w-prime-distance", "3", "--deltas", "2,5",
                     "--min-iterations", "50"]) == 0
        assert configs == [ExperimentConfig(
            kind="correctness", trials=7, seed=9, out=out, k_star=8,
            distance=2, n=64, inner_spec="bch:3:1", outer_spec="random:40:24",
            eps_ss=Fraction(1, 8), w_prime_distance=3, deltas=(2, 5),
            min_iterations=50)]
