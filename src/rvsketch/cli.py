"""Command-line front end.

Subcommands: sketch, recover, bounds, experiment. Exit codes: 0 success,
1 honest recovery failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import analysis
from .bitcore import BitString, DimensionError, ParameterError, SeededRng
from .codes import code_from_spec
from .experiments import _KINDS, ExperimentConfig, run_experiment
from .lsh import gen_index_vector
from .recover import RecoveryReport, recover_fixed, recover_sweep
from .sketch import (SketchParams, load_sketch_file, make_sketch,
                     param_violations, save_sketch)

EXIT_OK = 0
EXIT_RECOVERY_FAILED = 1
EXIT_USAGE = 2


def _read_bitstring(path: str) -> BitString:
    text = Path(path).read_text().strip()
    return BitString(text)


def _fraction_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _text(val) -> str:
    """str(val), but ints and fractions are spelled through Decimal, which
    has no digit limit (str(int) refuses more than 4,300 digits by default)."""
    if isinstance(val, Fraction) and val.denominator != 1:
        return f"{_text(val.numerator)}/{_text(val.denominator)}"
    if isinstance(val, (int, Fraction)) and not isinstance(val, bool):
        return str(Decimal(int(val)))
    return str(val)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvsketch",
        description="Secure sketches from locality-sensitive bit sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sk = sub.add_parser("sketch", help="sketch a secret bitstring file")
    p_sk.add_argument("--w", required=True, help="path to a ^[01]+$ text file")
    p_sk.add_argument("--inner", required=True,
                      help="inner code: m:t, bch:m:t or random:n:k")
    p_sk.add_argument("--outer", required=True,
                      help="outer code: m:t, bch:m:t or random:n:k")
    p_sk.add_argument("--eps-ss", required=True, type=_fraction_flag,
                      help="error parameter as a rational a/b")
    p_sk.add_argument("--seed", type=int, default=1)
    p_sk.add_argument("--out", required=True, help="sketch file to write")

    p_rec = sub.add_parser("recover", help="recover a secret from a sketch")
    p_rec.add_argument("--sketch", required=True)
    p_rec.add_argument("--w-prime", required=True)
    group = p_rec.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps-rec", type=_fraction_flag)
    group.add_argument("--sweep", action="store_true",
                       help="try weights 0..max-weight in order")
    p_rec.add_argument("--max-weight", type=int, default=None)
    p_rec.add_argument("--out", default=None, help="CSV report path")

    p_b = sub.add_parser("bounds", help="print the bound table for a parameter set")
    p_b.add_argument("--k-star", required=True, type=int)
    p_b.add_argument("--n-star", required=True, type=int)
    p_b.add_argument("--k", required=True, type=int)
    p_b.add_argument("--n", required=True, type=int)
    p_b.add_argument("--eps-ss", required=True, type=_fraction_flag)
    p_b.add_argument("--eps-rec", type=_fraction_flag, default=None)
    p_b.add_argument("--xi", type=_fraction_flag, default=None)
    p_b.add_argument("--format", choices=("text", "csv"), default="text")

    # no defaults here: an omitted flag leaves the ExperimentConfig default
    p_e = sub.add_parser("experiment", help="run a seeded Monte-Carlo experiment",
                         argument_default=argparse.SUPPRESS)
    p_e.add_argument("--kind", required=True, choices=tuple(_KINDS))
    p_e.add_argument("--trials", type=int)
    p_e.add_argument("--seed", type=int)
    p_e.add_argument("--out")
    p_e.add_argument("--k-star", type=int)
    p_e.add_argument("--distance", type=int)
    p_e.add_argument("--n", type=int)
    p_e.add_argument("--inner", dest="inner_spec", metavar="INNER")
    p_e.add_argument("--outer", dest="outer_spec", metavar="OUTER")
    p_e.add_argument("--eps-ss", type=_fraction_flag)
    p_e.add_argument("--w-prime-distance", type=int)
    p_e.add_argument("--deltas",
                     help="comma-separated k-n* values for false_accept")
    p_e.add_argument("--min-iterations", type=int)
    return parser


def cmd_sketch(args) -> int:
    w = _read_bitstring(args.w)
    rng = SeededRng(args.seed)
    inner = code_from_spec(args.inner, rng.spawn(1))
    outer = code_from_spec(args.outer, rng.spawn(2))
    p = SketchParams.from_codes(inner, outer, args.eps_ss)
    violations = param_violations(p.k_star, p.n_star, p.k, p.n, p.eps_ss)
    for v in violations:
        print(f"parameter violation: {v}", file=sys.stderr)
    if violations:
        return EXIT_USAGE
    N = gen_index_vector(p.k_star, p.n, rng.spawn(3))
    sk = make_sketch(w, N, args.eps_ss, p, rng.spawn(4))
    save_sketch(sk, args.out)
    eps_rec = 2 * p.eps_ss
    ef = analysis.error_floor_check(p.n, p.eps_ss, p.k, p.n_star)
    eb = analysis.efficiency_bound_check(p.k_star, eps_rec, p.k, p.n_star)
    print(f"n = {p.n}")
    print(f"k - n* = {p.k - p.n_star}")
    print(f"eps_ss = {p.eps_ss}")
    print(f"error floor holds: {ef.holds} ({ef.lhs:.6g} vs {ef.rhs:.6g})")
    print(f"enumeration budget holds: {eb.holds} "
          f"({eb.lhs:.6g} vs {eb.rhs:.6g} at eps_rec = {eps_rec})")
    print(f"sketch written to {args.out}")
    return EXIT_OK


def cmd_recover(args) -> int:
    if args.max_weight is not None and not args.sweep:
        raise ParameterError("--max-weight applies only with --sweep")
    sk = load_sketch_file(args.sketch)
    w_prime = _read_bitstring(args.w_prime)
    inner, outer = sk.params.inner, sk.params.outer
    if args.sweep:
        report = recover_sweep(sk, w_prime, inner, outer,
                               max_weight=args.max_weight)
    else:
        report = recover_fixed(sk, w_prime, args.eps_rec, inner, outer)
    if args.out:
        with open(args.out, "w") as f:
            f.write(RecoveryReport.CSV_HEADER + "\n")
            f.write(report.csv_row() + "\n")
    if report.outcome is None:
        print("FAIL")
        return EXIT_RECOVERY_FAILED
    print(str(report.outcome))
    return EXIT_OK


def cmd_bounds(args) -> int:
    k_star, n_star, k, n = args.k_star, args.n_star, args.k, args.n
    eps_ss = args.eps_ss
    problems = param_violations(k_star, n_star, k, n, eps_ss, args.eps_rec)
    for problem in problems:
        print(f"parameter violation: {problem}", file=sys.stderr)
    if problems:
        return EXIT_USAGE
    eps_rec = args.eps_rec if args.eps_rec is not None else 2 * eps_ss
    rows = []
    rows.append(("k_star", k_star))
    rows.append(("n_star", n_star))
    rows.append(("k", k))
    rows.append(("n", n))
    rows.append(("eps_ss", eps_ss))
    rows.append(("eps_rec", eps_rec))
    rows.append(("h2(eps_ss)", f"{analysis.binary_entropy(eps_ss):.12g}"))
    rows.append(("h2(eps_rec)", f"{analysis.binary_entropy(eps_rec):.12g}"))
    rows.append(("hoeffding exp(-2n eps_ss^2)",
                 f"{analysis.hoeffding_bound(n, eps_ss):.12g}"))
    exact, bound = analysis.support_size(k_star, eps_rec)
    rows.append(("support size exact", exact))
    rows.append(("support size envelope 2^(k* h2(eps_rec))", f"{bound:.12g}"))
    eff = analysis.efficiency_bound_check(k_star, eps_rec, k, n_star)
    rows.append(("efficiency k* h2(eps_rec) <= k-n*",
                 f"{eff.holds} ({eff.lhs:.6g} vs {eff.rhs:.6g})"))
    floor = analysis.error_floor_check(n, eps_ss, k, n_star)
    rows.append(("error floor exp(-2n eps^2) <= 2^-(k-n*)",
                 f"{floor.holds} ({floor.lhs:.6g} vs {floor.rhs:.6g})"))
    rows.append(("min n for error floor",
                 analysis.min_length_for_error_floor(k, n_star, eps_ss)))
    rb = analysis.rate_bounds(k_star, k, n_star, eps_ss, eps_rec)
    rows.append(("rate R = 1-(k-n*)/k*", rb.rate))
    rows.append(("shannon upper bound", f"{rb.shannon_ub:.12g}"))
    rows.append(("gv lower bound", f"{rb.gv_lb:.12g}"))
    rows.append(("rate regime", rb.regime))
    rows.append(("residual entropy floor bits",
                 analysis.residual_entropy_bound(n, eps_ss)))
    rows.append(("entropy floor applies", floor.holds))
    rows.append(("false accept rate 2^-(k-n*)",
                 f"{float(analysis.false_accept_rate(k, n_star)):.12g}"))
    budget = analysis.efficiency_bound_check(k_star, 2 * eps_ss, k, n_star)
    prefix_states = 2 ** (k - n_star)
    rows.append(("iteration budget 2^(k* h2(2 eps_ss)) <= 2^(k-n*)",
                 f"{budget.holds} ({analysis._pow2(budget.lhs):.6g} vs "
                 f"{_text(prefix_states)})"))
    rows.append(("bch-exact sketch relation 2^(k-n*) == n+1",
                 prefix_states == n + 1))
    if args.xi is not None:
        th = analysis.thresholds(k_star, n, args.xi, eps_ss)
        rows.append(("xi", th.xi))
        rows.append(("t_max = n(xi-eps)", th.t_max))
        rows.append(("t_min = n(xi+eps)", th.t_min))
        rows.append(("t_plus_prime", th.t_plus_prime))
        rows.append(("t_minus_prime", th.t_minus_prime))
        rows.append(("t_plus", th.t_plus))
        rows.append(("t_minus", th.t_minus))

    if args.format == "csv":
        print("quantity,value")
        for name, val in rows:
            print(f"{name},{_text(val)}")
    else:
        width = max(len(name) for name, _ in rows)
        for name, val in rows:
            print(f"{name:<{width}}  {_text(val)}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    flags = {key: val for key, val in vars(args).items() if key != "command"}
    if "deltas" in flags:
        try:
            flags["deltas"] = tuple(int(d) for d in flags["deltas"].split(","))
        except ValueError:
            print(f"bad --deltas value: {flags['deltas']!r}", file=sys.stderr)
            return EXIT_USAGE
    cfg = ExperimentConfig(**flags)
    result = run_experiment(cfg)
    if isinstance(result, list):
        for item in result:
            print(item)
    else:
        print(result)
    if cfg.out:
        print(f"csv written to {cfg.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "sketch": cmd_sketch,
        "recover": cmd_recover,
        "bounds": cmd_bounds,
        "experiment": cmd_experiment,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, FileNotFoundError) as exc:
        # ValueError covers ParameterError, DimensionError and SketchFormatError
        kind = "dimension error" if isinstance(exc, DimensionError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
