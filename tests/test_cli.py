import ast
import contextlib
import importlib
import io
import os
import re
import resource
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import BOUNDS_ARGV, SKETCH_ARGV, bounds_argv, digest, pins
import rvsketch
from rvsketch import (BitString, ExperimentConfig, RecoveryReport, SeededRng,
                      Sketch, SketchParams, analysis, bch_code, cli,
                      code_from_spec, dump_sketch, gen_index_vector,
                      load_sketch, param_violations, recover_fixed)
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

    @pytest.mark.parametrize("eps", ["abc", "1/0"])
    def test_non_rational_eps_flag(self, workdir, capsys, eps):
        with pytest.raises(SystemExit) as exc:
            main(_sketch_args(workdir, **{"--eps-ss": eps}))
        assert exc.value.code == 2
        assert f"argument --eps-ss: not a rational: {eps!r}" in capsys.readouterr().err

    def test_bad_code_spec(self, workdir):
        assert main(_sketch_args(workdir, **{"--inner": "nonsense"})) == 2

    def test_missing_w_file(self, workdir):
        assert main(_sketch_args(workdir, **{"--w": str(workdir / "nope.txt")})) == 2

    @pytest.mark.parametrize("inner, outer, eps, w, out_digest, file_digest", [
        (inner, outer, eps, w, pins()[f"cli/sketch/{label}/stdout"],
         pins()[f"cli/sketch/{label}/file"])
        for label, (w, inner, outer, eps) in SKETCH_ARGV.items() if label != "readme"])
    def test_report_is_pinned(self, tmp_path, monkeypatch, capsys, inner, outer,
                              eps, w, out_digest, file_digest):
        # stdout and the sketch file against golden.json; a relative --out
        # keeps the printed path fixed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.txt").write_text(w)
        assert main(["sketch", "--w", "w.txt", "--inner", inner, "--outer", outer,
                     "--eps-ss", eps, "--seed", "11", "--out", "sk.bin"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert digest(captured.out.encode()) == out_digest
        assert digest((tmp_path / "sk.bin").read_bytes()) == file_digest


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
        (workdir / "bad.bin").write_bytes(dump_sketch(Sketch(
            BitString.zeros(31), params, gen_index_vector(7, 31, rng.spawn(2)),
            rng.algo_id)))
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


class TestReadmeNamesEveryExport:
    """Every name rvsketch/__init__.py imports appears in the README's
    inline code, so a shortened module row cannot drop a public name; and
    every name the layout table lists exists, so a removed name cannot stay."""

    def test_every_export_in_inline_code(self):
        root = Path(__file__).resolve().parents[1]
        tree = ast.parse((root / "src" / "rvsketch" / "__init__.py").read_text())
        names = [alias.asname or alias.name for node in tree.body
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
        readme = re.sub(r"```.*?```", "", (root / "README.md").read_text(),
                        flags=re.S)
        spans = re.findall(r"`([^`]+)`", readme)
        assert "LinearCode" in names
        assert [name for name in names if not any(
            re.search(rf"\b{name}\b", span) for span in spans)] == []

    def test_every_layout_name_exists(self):
        # each plain identifier in a row's contents is an attribute of rvsketch
        # or of the row's module; experiment kinds and the command are not names
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("## Library layout\n\n", 1)[1].split("\n\n", 1)[0]
        rows, unknown = table.splitlines()[2:], []
        assert len(rows) >= 8   # one row per module
        for row in rows:
            module, contents = re.fullmatch(r"\| `(\w+)` +\| (.*) \|", row).groups()
            for span in re.findall(r"`([^`]+)`", contents):
                if (re.fullmatch(r"[A-Za-z_]\w*", span) and span not in _KINDS
                        and (module, span) != ("cli", "rvsketch")
                        and not hasattr(rvsketch, span)
                        and not hasattr(importlib.import_module(
                            f"rvsketch.{module}"), span)):
                    unknown.append(f"{module}: {span}")
        assert unknown == []


class TestReadmeExample:
    """The README's sketch and recover commands, run as written there."""

    @staticmethod
    def _commands():
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1]
        lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
        return [shlex.split(line) for line in lines if line.startswith(
            ("printf", "rvsketch sketch", "rvsketch recover"))]

    def test_commands_as_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        outs = []
        for argv in self._commands():
            if argv[0] == "printf":   # printf 'bits' > path
                assert argv[2] == ">"
                Path(argv[3]).write_text(argv[1])
                continue
            assert main(argv[1:]) == 0
            outs.append(capsys.readouterr())
        assert [argv[1] for argv in self._commands() if argv[0] == "rvsketch"] \
            == ["sketch", "recover", "recover"]
        assert [err for _, err in outs] == ["", "", ""]
        # golden.json freezes the sketch's stdout and file
        assert outs[0].out.endswith("sketch written to sk.bin\n")
        # the sweep accepts the secret at weight 1, its 8th candidate
        assert outs[1].out == outs[2].out == "0011101\n"
        header, row = Path("report.csv").read_text().splitlines()
        assert header == RecoveryReport.CSV_HEADER
        assert row.rsplit(",", 1)[0] == "0011101,8,1,0"

    def test_eps_rec_report_matches_the_library(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for argv in self._commands():
            if argv[0] == "printf":
                Path(argv[3]).write_text(argv[1])
            elif "--eps-rec" in argv:
                assert main(argv[1:] + ["--out", "fixed.csv"]) == 0
            elif argv[1] == "sketch":
                assert main(argv[1:]) == 0
        assert capsys.readouterr().out.endswith("sketch written to sk.bin\n0011101\n")
        sk = load_sketch(Path("sk.bin").read_bytes())
        report = recover_fixed(sk, BitString("0011100"), Fraction(1, 7),
                               sk.params.inner, sk.params.outer)
        # weight floor(7/7) = 1: the 7th candidate decodes, after 6 outer misses
        assert report == RecoveryReport(BitString("0011101"), 7, 1, 6, 0)
        row = Path("fixed.csv").read_text().splitlines()[1]
        assert row.rsplit(",", 1)[0] == report.csv_row().rsplit(",", 1)[0]


def _bounds_in_child(argv):
    """Run bounds in a child process under a 1.5 GB address-space limit
    (ulimit -v, set for the child only), so a table that tries to build a
    huge value fails fast instead of filling memory."""
    limit = 1536 << 20
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "rvsketch.cli"] + argv,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)),
        capture_output=True, text=True, timeout=120)


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

    @pytest.mark.parametrize("argv, out_digest", [
        (argv, pins()[f"cli/bounds/{label}"]) for label, argv in BOUNDS_ARGV.items()])
    def test_table_is_pinned(self, capsys, argv, out_digest):
        # the whole stdout against golden.json: any change to a printed bound
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert digest(captured.out.encode()) == out_digest

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
        assert main(bounds_argv(dims, eps_ss)) == 0
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
        assert main(bounds_argv((15000, 15000, 30000, 30000), "1/30000")) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = dict(line.split("  ", 1) for line in captured.out.splitlines())
        budget = rows["iteration budget 2^(k* h2(2 eps_ss)) <= 2^(k-n*)"].strip()
        assert budget == f"True (40772.9 vs {Decimal(2 ** 15000)})"
        assert rows["bch-exact sketch relation 2^(k-n*) == n+1"].strip() == "False"

    @pytest.mark.parametrize("delta", [1, 5, 20, 64, 1074, 1075, 3000])
    def test_power_of_two_rows_by_exponent(self, capsys, delta):
        # k - n* = delta and n = 31: n+1 = 2^delta only at delta = 5
        assert main(bounds_argv((7, 15, 15 + delta, max(31, 15 + delta)),
                                 "1/14")) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = dict(line.split("  ", 1) for line in captured.out.splitlines())
        rate = float(analysis.false_accept_rate(15 + delta, 15))
        assert rows["false accept rate 2^-(k-n*)"].strip() == f"{rate:.12g}"
        budget = rows["iteration budget 2^(k* h2(2 eps_ss)) <= 2^(k-n*)"]
        assert budget.strip().endswith(f" vs {Decimal(2 ** delta)})")
        assert rows["bch-exact sketch relation 2^(k-n*) == n+1"].strip() == \
            str(2 ** delta == max(31, 15 + delta) + 1)

    @pytest.mark.parametrize("exponent", [0, 1, 2, 63, 64, 1075, 15000, 100_000])
    def test_power_of_two_digits(self, exponent):
        assert cli._pow2_text(exponent) == str(Decimal(2 ** exponent))

    def test_power_of_two_past_the_digit_cap(self):
        cap = cli._POW2_DIGITS_MAX_EXPONENT
        assert cli._pow2_text(cap + 1) == f"2^{cap + 1}"
        assert cli._pow2_text(10 ** 5000) == f"2^{Decimal(10 ** 5000)}"

    def test_exponent_past_memory(self):
        # k - n* = 9 * 10^200: 2^(k-n*) itself cannot be built
        big = 10 ** 200
        done = _bounds_in_child(bounds_argv(
            (big, big, 10 * big + 1, 10 * big + 1), f"1/{2 * big}"))
        assert (done.returncode, done.stderr) == (0, "")
        rows = dict(line.split("  ", 1) for line in done.stdout.splitlines())
        assert rows["false accept rate 2^-(k-n*)"].strip() == "0"
        assert rows["iteration budget 2^(k* h2(2 eps_ss)) <= 2^(k-n*)"] \
            .strip() == f"True (1e+200 vs 2^{9 * big + 1})"
        assert rows["bch-exact sketch relation 2^(k-n*) == n+1"].strip() == "False"

    def test_n_past_float_range(self):
        # n = k = 10^400 does not fit a float: exp(-2n eps^2) = exp(-1/2)
        # comes from the exact exponent, and k-n* past float range reads
        # inf.
        big = 10 ** 200
        done = _bounds_in_child(bounds_argv(
            (big, big, big * big, big * big), f"1/{2 * big}"))
        assert (done.returncode, done.stderr) == (0, "")
        rows = dict(line.split("  ", 1) for line in done.stdout.splitlines())
        assert rows["hoeffding exp(-2n eps_ss^2)"].strip() == "0.606530659713"
        assert rows["efficiency k* h2(eps_rec) <= k-n*"].strip() == \
            "True (664.386 vs inf)"
        assert rows["error floor exp(-2n eps^2) <= 2^-(k-n*)"].strip() == \
            "False (0.606531 vs 0)"
        assert rows["residual entropy floor bits"].strip() == "0"
        assert rows["entropy floor applies"].strip() == "False"
        assert rows["false accept rate 2^-(k-n*)"].strip() == "0"

    def test_support_size_past_the_comb_limit(self):
        # floor(k* eps_rec) = 5 * 10^29 passes 2^63, where math.comb cannot
        # count: one error line and exit 2, as for any parameter error
        big = 10 ** 30
        done = _bounds_in_child(bounds_argv(
            (big, big + 1, big + 3001, big + 3002), "1/4"))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: C(k*, m) for k* = {big} and weight m = {big // 2} "
            "is past the 2^63 weight limit\n")

    def test_k_star_past_float_range(self):
        # k* h2(eps_rec) takes k* as a float: one error line and exit 2
        big = 10 ** 400
        done = _bounds_in_child(bounds_argv(
            (big, big, big + 1, big + 1), f"1/{2 * big}"))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: k* h2(eps) is past float range\n"

    def test_error_floor_boundary(self, capsys):
        # the float exponent judged the floor to hold one n too early
        argv = bounds_argv((205195, 205195, 205477, 205477), "1/410390")
        assert main(argv) == 0
        captured = capsys.readouterr()
        rows = dict(line.split("  ", 1) for line in captured.out.splitlines())
        assert rows["min n for error floor"].strip() == "16460313907691"

    def test_min_length_beyond_float_range(self, capsys):
        # eps_ss^2 = 1/(4e400) underflows a float, and n = ceil(2e400 ln 2)
        big = 10 ** 200
        assert main(bounds_argv((big, big, big + 1, big + 1),
                                 f"1/{2 * big}")) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = dict(line.split("  ", 1) for line in captured.out.splitlines())
        n = rows["min n for error floor"].strip()
        assert len(n) == 401 and n.startswith("13862943611198906188344642")

    def test_fractions_beyond_the_str_digit_limit(self, capsys):
        # 3,001-digit denominators in eps_ss and xi: t_max's has 6,002
        big = 10 ** 3000
        eps_ss = Fraction(big + 3, 14 * (big + 3) - 1)
        xi = Fraction(big + 7, 7 * (big + 7) - 1)
        argv = bounds_argv((7, 15, 16, 31), eps_ss) + [f"--xi={xi}"]
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
            code = main(bounds_argv(dims, eps_ss, eps_rec))
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

    @pytest.mark.parametrize("distance", ["-1", "8", "100"])
    def test_w_prime_distance_outside_zero_to_k_star(self, capsys, distance):
        code = main(["experiment", "--kind", "correctness", "--trials", "3",
                     f"--w-prime-distance={distance}"])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: w_prime_distance {distance} outside [0, 7]\n")

    def test_bad_deltas(self, capsys):
        code = main(["experiment", "--kind", "false_accept",
                     "--deltas", "1,x"])
        assert code == 2
        assert capsys.readouterr().err == "bad --deltas value: '1,x'\n"


class TestUnopenablePaths:
    """A path that cannot be opened is a usage error (exit 2, one line),
    not an honest recovery failure (exit 1)."""

    @pytest.mark.parametrize("command, flag", [
        ("sketch", "--w"), ("sketch", "--out"), ("recover", "--sketch"),
        ("recover", "--w-prime"), ("recover", "--out"), ("experiment", "--out")])
    def test_a_directory_exits_2(self, workdir, capsys, command, flag):
        assert main(_sketch_args(workdir)) == 0
        capsys.readouterr()
        argv = {
            "sketch": _sketch_args(workdir),
            "recover": ["recover", "--sketch", str(workdir / "sk.bin"),
                        "--w-prime", str(workdir / "w.txt"), "--sweep",
                        "--out", str(workdir / "rep.csv")],
            "experiment": ["experiment", "--kind", "lsh", "--trials", "5",
                           "--out", str(workdir / "lsh.csv")],
        }[command]
        argv[argv.index(flag) + 1] = str(workdir)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"'{workdir}'\n")


class TestExperimentFlags:
    @pytest.fixture()
    def configs(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda cfg: seen.append(cfg) or [])
        return seen

    def test_help_text(self, capsys):
        with pytest.raises(SystemExit) as exc:   # golden.json freezes the text
            main(["experiment", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rvsketch experiment")

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
