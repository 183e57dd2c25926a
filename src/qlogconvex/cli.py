"""Command-line front end: family tables, convexity checks, full verification.

Exit codes are kept distinguishable: 0 success, 1 verification failure,
2 usage error (argparse's convention), 3 I/O failure.  Every command writes
its output to stdout, or to the ``--out`` file, through ``_emit``.  All
machine formats emit numbers as decimal strings, since the integers here
overflow the native number types of most downstream tools.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .criteria import criterion_c2_sweep, log_convex_check
from .families import (
    ARRAY_KINDS,
    FAMILY_TAGS,
    domb_numbers,
    family_poly,
    get_array,
)
from .hiprec import fraction_to_decimal, fraction_to_scientific
from .verification import (
    SERIES_TOLERANCE_TEXT,
    VerificationConfig,
    check_series_digits,
    qlc_check,
    run_full_verification,
    series_check,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3

N_MAX_HELP = {"n_max_factorization": "largest n of the factorization sweep; it also bounds "
                                     "the prop32 and prop33 sweeps (default: %(default)s)"}


def _emit(text: str, out_path: str | None, passed: bool = True) -> int:
    """Write ``text`` to ``out_path`` (stdout when None); return the exit code."""
    try:
        if out_path is None:
            sys.stdout.write(text)
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILURE


def _csv_text(rows) -> str:
    import csv  # only the csv format loads it

    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _render_summary(summary: dict[str, str], fmt: str) -> str:
    """A flat record as a json object, a header-and-row csv, or key: value lines."""
    if fmt == "json":
        return json.dumps(summary, indent=2) + "\n"
    if fmt == "csv":
        return _csv_text([list(summary.keys()), list(summary.values())])
    return "\n".join(f"{key}: {value}" for key, value in summary.items()) + "\n"


def _render_families(tag: str, ns: range, fmt: str) -> str:
    rows = []
    for n in ns:
        poly = family_poly(tag, n)
        rows.append((n, [str(poly.coefficient(k)) for k in range(n + 1)]))
    if fmt == "json":
        table = [{"n": str(n), "coefficients": coeffs} for n, coeffs in rows]
        return json.dumps({"family": tag, "rows": table}, indent=2) + "\n"
    if fmt == "csv":
        return _csv_text([["n", "k", "coefficient"]] + [
            [str(n), str(k), c] for n, coeffs in rows for k, c in enumerate(coeffs)])
    return "\n".join(" ".join(coeffs) for _, coeffs in rows) + "\n"


def cmd_families(args) -> int:
    ns = range(args.n_from, args.n_max + 1)
    return _emit(_render_families(args.family, ns, args.format), args.out)


def _run_qlc(args) -> tuple[dict[str, str], bool, str | None]:
    record, rows = qlc_check(args.family, args.n_max, args.jobs)
    bad = [f"n={n}, coefficient {first}" for n, first, _last in rows if first is not None]
    # a failing record without a negative row: a V row is not F's reversed
    witness = bad[0] if bad else (None if record.passed else record.witness["first_failure"])
    return {"family": args.family}, record.passed, witness


def _run_logconvex(args) -> tuple[dict[str, str], bool, str | None]:
    failure = log_convex_check(domb_numbers(args.n_max + 1))
    return ({"sequence": "domb_numbers"}, failure is None,
            None if failure is None else f"index {failure}")


def _run_crossing(args) -> tuple[dict[str, str], bool, str | None]:
    array = get_array(args.array)
    first = next((n for n in range(1, args.n_max + 1)
                  if criterion_c2_sweep(array, n) is not None), None)
    return {"array": args.array}, first is None, None if first is None else f"n={first}"


# kind -> (the optional flags it reads, with their defaults (None: the CPU
# count); the smallest n-max that leaves it something to test; its runner,
# which returns the summary's subject, the verdict and the first witness or
# None).  Giving a kind a flag it does not read is a usage error.  qlc and
# crossing start at n = 1, and log-convexity needs D_0, D_1 and D_2.
CHECKS = {
    "qlc": ({"family": "D", "jobs": None}, 1, _run_qlc),
    "logconvex": ({}, 2, _run_logconvex),
    "crossing": ({"array": "domb_a"}, 1, _run_crossing),
}


def _check_flag_help(flag: str) -> str:
    kind, reads = next((kind, reads) for kind, (reads, _, _) in CHECKS.items() if flag in reads)
    return f"read by check {kind} only (default: {reads[flag] or 'the CPU count'})"


def cmd_check(args) -> int:
    _reads, _fewest, run = CHECKS[args.kind]
    subject, passed, witness = run(args)
    summary = {"check": args.kind, **subject, "n_max": str(args.n_max),
               "result": "pass" if passed else "fail"}
    if witness is not None:
        summary["first_witness"] = witness
    return _emit(_render_summary(summary, args.format), args.out, passed)


def _certificate_csv(certificate) -> str:
    rows = [["claim", "params", "outcome", "witness"]]
    for record in certificate.claims:
        params = ";".join(f"{k}={v}" for k, v in sorted(record.params.items()))
        witness = ";".join(f"{k}={v}" for k, v in sorted(record.witness.items()))
        rows.append([record.claim, params, record.outcome, witness])
    rows.append(["verdict", "", certificate.verdict, ""])
    return _csv_text(rows)


def _certificate_text(certificate) -> str:
    lines = [f"version: {certificate.version}", f"timestamp: {certificate.timestamp}"]
    for record in certificate.claims:
        params = " ".join(f"{k}={v}" for k, v in sorted(record.params.items()))
        line = f"{record.outcome.upper():4s} {record.claim} {params}"
        if record.witness:
            line += "  [" + "; ".join(f"{k}={v}" for k, v in sorted(record.witness.items())) + "]"
        lines.append(line)
    lines.append(f"verdict: {certificate.verdict}")
    return "\n".join(lines) + "\n"


def cmd_verify_paper(args) -> int:
    config = VerificationConfig(*(getattr(args, name) for name in VerificationConfig._fields))
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    certificate = run_full_verification(config)

    # one-line verdict per claim family; kept off the certificate stream
    summary_stream = sys.stdout if args.out else sys.stderr
    by_claim: dict[str, list] = {}
    for record in certificate.claims:
        by_claim.setdefault(record.claim, []).append(record)
    for claim in sorted(by_claim):
        records = by_claim[claim]
        failed = sum(1 for r in records if not r.passed)
        status = "pass" if failed == 0 else f"FAIL ({failed}/{len(records)} records)"
        print(f"{claim}: {status}", file=summary_stream)
    print(f"overall: {certificate.verdict}", file=summary_stream)

    if args.format == "json":
        text = certificate.dumps()
    elif args.format == "csv":
        text = _certificate_csv(certificate)
    else:
        text = _certificate_text(certificate)
    return _emit(text, args.out, certificate.passed)


def cmd_series(args) -> int:
    try:
        check_series_digits(args.series_digits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    partial, lo, hi, distance_bound, passed = series_check(args.series_N, args.series_digits)
    summary = {
        "N": str(args.series_N),
        "partial_sum": fraction_to_decimal(partial, args.series_digits),
        "constant_low": fraction_to_decimal(lo, args.series_digits),
        "constant_high": fraction_to_decimal(hi, args.series_digits),
        # scientific: truncated to --digits places it would read 0.000...
        "distance_bound": fraction_to_scientific(distance_bound),
        "tolerance": SERIES_TOLERANCE_TEXT,
        "result": "pass" if passed else "fail",
    }
    return _emit(_render_summary(summary, args.format), args.out, passed)


def _add_common_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text")
    parser.add_argument("--out", metavar="PATH", default=None)


def _add_series_args(parser: argparse.ArgumentParser, defaults: VerificationConfig) -> None:
    parser.add_argument("--series-N", type=int, default=defaults.series_N)
    parser.add_argument("--digits", type=int, default=defaults.series_digits,
                        dest="series_digits", metavar="DIGITS")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlogconvex",
        description="Exact q-log-convexity toolkit for Domb and Narayana-type families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fam = sub.add_parser("families", help="emit family coefficient tables")
    p_fam.add_argument("--family", choices=FAMILY_TAGS, required=True)
    p_fam.add_argument("--n-from", type=int, default=0)
    p_fam.add_argument("--n-max", type=int, required=True)
    _add_common_output_args(p_fam)
    p_fam.set_defaults(func=cmd_families)

    p_check = sub.add_parser("check", help="run a single convexity/crossing check")
    p_check.add_argument("kind", choices=("qlc", "logconvex", "crossing"))
    # None marks a flag not given; main applies the default where it is read
    p_check.add_argument("--family", choices=FAMILY_TAGS, help=_check_flag_help("family"))
    p_check.add_argument("--array", choices=ARRAY_KINDS, help=_check_flag_help("array"))
    p_check.add_argument("--n-max", type=int, required=True)
    p_check.add_argument("--jobs", type=int, help=_check_flag_help("jobs"))
    _add_common_output_args(p_check)
    p_check.set_defaults(func=cmd_check)

    # every config field is one flag, whose destination is the field's name
    defaults = VerificationConfig()
    p_verify = sub.add_parser("verify-paper", help="full verification with certificate")
    for name in (field for field in defaults._fields if field.startswith("n_max_")):
        p_verify.add_argument("--" + name.replace("_", "-"), type=int,
                              default=getattr(defaults, name), help=N_MAX_HELP.get(name))
    _add_series_args(p_verify, defaults)
    p_verify.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                          dest="parallelism", metavar="JOBS")
    _add_common_output_args(p_verify)
    p_verify.set_defaults(func=cmd_verify_paper, format="json")

    p_series = sub.add_parser("series", help="partial sums of the 1/pi series")
    _add_series_args(p_series, defaults)
    _add_common_output_args(p_series)
    p_series.set_defaults(func=cmd_series)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "families":
        if args.n_from < 0 or args.n_from > args.n_max:
            parser.error(f"empty range: n-from={args.n_from}, n-max={args.n_max}")
    if hasattr(args, "n_max") and args.n_max < 0:
        parser.error(f"n-max must be nonnegative, got {args.n_max}")
    if args.command == "check":
        reads, fewest, _run = CHECKS[args.kind]
        for flag in dict.fromkeys(flag for row in CHECKS.values() for flag in row[0]):
            if flag not in reads:
                if getattr(args, flag) is not None:
                    parser.error(f"check {args.kind} does not read --{flag}")
            elif getattr(args, flag) is None:
                setattr(args, flag, reads[flag] or os.cpu_count() or 1)
        if args.n_max < fewest:
            parser.error(f"check {args.kind} needs n-max >= {fewest}, got {args.n_max}")
        if "jobs" in reads and args.jobs < 1:
            parser.error(f"jobs must be at least 1, got {args.jobs}")
    if args.command == "series" and args.series_N < 0:
        parser.error(f"series-N must be nonnegative, got {args.series_N}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
