from fractions import Fraction

import pytest

from rvsketch import ExperimentConfig, SeededRng, cli
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


class TestExperimentCommand:
    def test_lsh_smoke(self, workdir, capsys):
        out = workdir / "lsh.csv"
        code = main(["experiment", "--kind", "lsh", "--trials", "120",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "LshResult" in capsys.readouterr().out

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
