"""Batch front end for the exact engine, the oracle, and the simulator.

Subcommands: constants, bounds, oracle, simulate, factor, verify.  JSON
(canonical: sorted keys, exact values as decimal strings, floats at 12
significant digits) is the primary format; CSV is a flat projection of
the table-shaped outputs.  Exit codes: 0 success, 1 usage error,
2 verification failure, 3 internal inconsistency or an exact computation
past the capacity of the residue maps (valid input can reach it mid-run).

An optional on-disk cache (--cache-dir) stores one expression per
(kind, k), so repeated runs skip the symbolic recurrences entirely.  An
entry is the file <kind>.<k>.json in JSON lines: a head, then one line
per term, sorted by (upow, vpow):

    {"count": <terms>, "den": "<hex>", "format": "ranktree-plexpr/2", "k": k, "kind": kind}
    [upow, vpow, "<signed hex numerator>"]
    ...

It holds the expression's canonical parts (PLExpr.parts): one positive
denominator and the nonzero numerators over it.  Writing and reading
them takes no gcd per term.  A reader holds one line at a time: reading
each entry whole, as one JSON document, raised the peak of a warm
`constants --kmax 6` from 38.4 to 43.2 MB, because freeing a text of
2.2 MB raises glibc's threshold for serving allocations by mmap, and the
heap then keeps what later work frees (2-core Xeon, glibc malloc).  An
entry is loaded only if its term lines are as many as its head counts
and its parts are canonical (PLExpr.from_parts); any other entry, one of
an earlier format included, is treated as missing and rewritten.  The
name keeps its .json suffix so that an entry of the earlier format (one
JSON document) is rewritten in place.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Collection
from pathlib import Path

from . import checks, conjecture, genfun, montecarlo, oracle
from .checks import approx, flat_rat
from .genfun import KINDS, InternalInconsistency
from .plring import PLExpr, Rational
from .residues import CapacityExceeded

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INCONSISTENT = 3

CACHE_FORMAT = "ranktree-plexpr/2"

# constants/bounds beyond this are refused: the term count of the rank
# generating functions grows like 4^k, so k = 8 is out of reach exactly
STRETCH_KMAX = 7
DEFAULT_KMAX = 5


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Output helpers


def _rat(x: Rational) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator), "approx": approx(x)}


def _emit(payload: dict, rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")
    else:
        buf = io.StringIO()
        fields: list[str] = []
        for row in rows:
            for key in row:
                if key not in fields:
                    fields.append(key)
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())


def _check_kmax(k: int, exact_gf: bool) -> None:
    """The one --kmax check, run for every subcommand before it starts.

    The ceiling and the stretch warning concern the exact generating
    functions, so they apply only to the subcommands that build them.
    """
    if k < 0:
        raise ValueError("kmax must be >= 0")
    if not exact_gf:
        return
    if k > STRETCH_KMAX:
        raise ValueError(
            f"kmax={k} is not computable exactly; the hard ceiling is {STRETCH_KMAX}"
        )
    if k > DEFAULT_KMAX:
        print(
            f"warning: kmax={k} is a stretch run (the exact arithmetic grows "
            "about 4x per level of k); treat the output as new data",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# Expression cache


def _cache_path(cache_dir: Path, kind: str, k: int) -> Path:
    return cache_dir / f"{kind}.{k}.json"


def _entry_text(kind: str, k: int, expr: PLExpr):
    """The lines of the cache entry of one expression: the head, then one
    line per term."""
    items, den = expr.parts()
    head = {"count": len(items), "den": f"{den:x}", "format": CACHE_FORMAT, "k": k, "kind": kind}
    yield json.dumps(head, sort_keys=True) + "\n"
    for (b, c), n in items:
        yield f'[{b}, {c}, "{n:x}"]\n'


def _term(line: str) -> tuple[tuple[int, int], int]:
    b, c, n = json.loads(line)
    return (b, c), int(n, 16)


def _read_entry(lines) -> tuple[dict, PLExpr]:
    """The head and the expression of the entry with these lines.

    ValueError, TypeError or KeyError unless the head carries the current
    format, the term lines are as many as it counts, and the parts are
    canonical (PLExpr.from_parts).
    """
    head = json.loads(next(lines, ""))
    if not isinstance(head, dict) or head.get("format") != CACHE_FORMAT:
        raise ValueError("not an entry of the current format")
    terms = [_term(line) for line in lines]
    if len(terms) != head["count"]:
        raise ValueError(f"{len(terms)} term lines where the head counts {head['count']!r}")
    return head, PLExpr.from_parts(terms, int(head["den"], 16))


def load_cache(cache_dir: Path, accepted: set[Path] | None = None) -> int:
    """Seed the in-memory memo from disk; returns the number of entries.

    An entry is accepted when it reads (_read_entry) and its kind and k
    match its file name.  Accepted paths are added to ``accepted`` when
    given, so that save_cache can rewrite the others.
    """
    loaded = 0
    if not cache_dir.is_dir():
        return 0
    for path in sorted(cache_dir.glob("*.json")):
        try:
            with path.open() as fh:
                head, expr = _read_entry(fh)
        except (OSError, ValueError, TypeError, KeyError):
            continue  # truncated or malformed: like a missing entry
        kind, k = head.get("kind"), head.get("k")
        if kind not in KINDS or not isinstance(k, int) or path != _cache_path(cache_dir, kind, k):
            continue
        genfun.cache_insert(kind, k, expr)
        loaded += 1
        if accepted is not None:
            accepted.add(path)
    return loaded


def save_cache(cache_dir: Path, keep: Collection[Path] = ()) -> int:
    """Write every memoized expression; returns the number written.

    Paths in ``keep`` (the entries load_cache accepted) are left alone, and
    every other entry is replaced, so an unreadable file is repaired.  Each
    file is written under a temporary name and renamed into place, so a
    reader never sees a partial entry.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for (kind, k), expr in sorted(genfun.cache_snapshot().items()):
        path = _cache_path(cache_dir, kind, k)
        if path in keep:
            continue
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("w") as fh:
                fh.writelines(_entry_text(kind, k, expr))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        written += 1
    return written


# ---------------------------------------------------------------------------
# Subcommands


def cmd_constants(args) -> int:
    kmax = args.kmax
    table = genfun.constants_table(kmax)
    rows_json = []
    rows_csv = []
    for row in table.rows:
        rows_json.append(
            {
                "k": row.k,
                "c": _rat(row.c),
                "f": _rat(row.f),
                "g": _rat(row.g),
                "partial_sum": _rat(row.partial_sum),
                "f_over_c": _rat(row.f_over_c),
                "g_over_c": _rat(row.g_over_c),
            }
        )
        rows_csv.append(
            {
                "k": row.k,
                "c": flat_rat(row.c),
                "c_approx": approx(row.c),
                "f": flat_rat(row.f),
                "g": flat_rat(row.g),
                "partial_sum_approx": approx(row.partial_sum),
                "f_over_c": flat_rat(row.f_over_c),
                "g_over_c": flat_rat(row.g_over_c),
            }
        )
    payload: dict = {"command": "constants", "kmax": kmax, "rows": rows_json}
    if args.dump_gf:
        payload["gf"] = {
            args.dump_gf: {
                str(k): genfun.gf_by_kind(args.dump_gf, k).to_records()
                for k in range(kmax + 1)
            }
        }
    _emit(payload, rows_csv, args.format)
    return EXIT_OK


def cmd_bounds(args) -> int:
    kmax = args.kmax
    table = genfun.tail_report(kmax)
    rows_json = []
    rows_csv = []
    for row in table.rows:
        rows_json.append(
            {
                "k": row.k,
                "exact_tail": _rat(row.exact_tail),
                "exact_tail_prev": _rat(row.exact_tail_prev),
                "moment_bound": _rat(row.moment_bound),
                "theorem_bound": _rat(row.theorem_bound),
                "lower_reference": approx(row.lower_reference),
            }
        )
        rows_csv.append(
            {
                "k": row.k,
                "exact_tail": flat_rat(row.exact_tail),
                "exact_tail_approx": approx(row.exact_tail),
                "moment_bound_approx": approx(row.moment_bound),
                "theorem_bound_approx": approx(row.theorem_bound),
                "lower_reference": approx(row.lower_reference),
            }
        )
    payload = {
        "command": "bounds",
        "kmax": kmax,
        "alpha0": approx(table.alpha0),
        "moments": {
            f"{k},{t}": _rat(value) for (k, t), value in sorted(table.moments.items())
        },
        "rows": rows_json,
    }
    _emit(payload, rows_csv, args.format)
    return EXIT_OK


def cmd_oracle(args) -> int:
    n = args.n
    kmax = args.kmax
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > oracle.DEFAULT_N_CAP:
        print(
            f"warning: n={n} exceeds the default cap {oracle.DEFAULT_N_CAP}; "
            "the rows grow about like n^3 and --rho like n^4 "
            "(about 4.5 s and 37 s at n = 1000)",
            file=sys.stderr,
        )
    rows_json = []
    rows_csv = []
    counts = oracle.expected_rank_counts(n, kmax)
    for k, e_k in enumerate(counts):
        p_gt = oracle.root_rank_tail(n, k)
        p_eq = oracle.root_rank_prob(n, k)
        f_k = oracle.expected_leaf_pairs(n, k)
        g_k = oracle.expected_closest_pairs(n, k)
        rows_json.append(
            {
                "k": k,
                "root_rank_tail": _rat(p_gt),
                "root_rank_prob": _rat(p_eq),
                "rank_count": _rat(e_k),
                "leaf_pairs": _rat(f_k),
                "closest_pairs": _rat(g_k),
            }
        )
        rows_csv.append(
            {
                "k": k,
                "root_rank_tail": flat_rat(p_gt),
                "root_rank_prob_approx": approx(p_eq),
                "rank_count_approx": approx(e_k),
                "leaf_pairs_approx": approx(f_k),
                "closest_pairs_approx": approx(g_k),
            }
        )
    payload: dict = {"command": "oracle", "n": n, "kmax": kmax, "rows": rows_json}
    if args.rho is not None:
        rho = checks.parse_rational(args.rho)
        payload["moment_ratio"] = {"rho": args.rho, **_rat(oracle.moment_gf_ratio(n, rho))}
    if args.series_order is not None:
        order = args.series_order
        if not checks.cdf_series_vs_oracle(kmax, order)[1]:
            raise InternalInconsistency(
                "generating-function series disagrees with the exact DP"
            )
        payload["series_check"] = {"order": order, "agree": True}
    _emit(payload, rows_csv, args.format)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.n < 1 or args.trials < 1:
        raise ValueError("n and trials must be >= 1")
    report = montecarlo.estimate(args.n, args.trials, args.seed, kmax=args.kmax)
    payload = {"command": "simulate", **report.to_dict()}
    rows_csv = [
        {"statistic": name, **summary.to_dict()}
        for name, summary in sorted(report.statistics.items())
    ]
    _emit(payload, rows_csv, args.format)
    return EXIT_OK


def cmd_factor(args) -> int:
    kmax = args.kmax
    rows_json = []
    rows_csv = []
    all_pass = True
    for k in range(kmax + 1):
        c = genfun.rank_constant(k)
        verdict = conjecture.check_conjectures(k, c)
        structure = conjecture.check_pl_structure(k)
        numer = conjecture.factor_smooth(max(int(c.numerator), 1), args.factor_bound)
        ok = conjecture.factor_pass(verdict, structure)
        all_pass = all_pass and ok
        rows_json.append(
            {
                "k": k,
                "denominator": verdict.to_dict(),
                "numerator": numer.to_dict(),
                "structure": structure.to_dict(),
                "pass": ok,
            }
        )
        rows_csv.append(
            {
                "k": k,
                "den_largest_prime": verdict.largest_prime,
                "den_threshold": verdict.threshold,
                "smoothness_pass": verdict.smoothness_pass,
                "gap_free": verdict.gap_free,
                "structure_pass": structure.passed,
                "num_residual": str(numer.residual),
            }
        )
    payload = {
        "command": "factor",
        "kmax": kmax,
        "factor_bound": args.factor_bound,
        "rows": rows_json,
        "pass": all_pass,
    }
    _emit(payload, rows_csv, args.format)
    return EXIT_OK if all_pass else EXIT_VERIFY


def cmd_verify(args) -> int:
    if args.n < 1 or args.trials < 2:
        raise ValueError("verify needs n >= 1 and trials >= 2 (a standard error needs two trials)")
    rows = []
    failed = 0
    for name, ok, detail in checks.verify_checks(args.n, args.trials, args.seed, args.rho):
        status = "PASS" if ok else "FAIL"
        failed += 0 if ok else 1
        print(f"{status} {name}: {detail}")
        rows.append({"name": name, "pass": ok, "detail": detail})
    payload = {
        "command": "verify",
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "rho": args.rho,
        "checks": rows,
        "pass": failed == 0,
    }
    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# Argument plumbing


def _rho(text: str) -> str:
    """--rho as given, once it parses: a bad value is a usage error before any work."""
    try:
        checks.parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None
    return text


def _at_least(low: int):
    """An int option below `low` is a usage error before any work, as --rho is."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, not {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="ranktree", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # each subcommand takes only the shared options it reads
    shared = {
        "--kmax": dict(type=int, default=DEFAULT_KMAX),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--cache-dir": dict(type=Path, default=None),
    }
    parser.set_defaults(kmax=None, cache_dir=None)

    def common(p, *flags, exact_gf=False):
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(exact_gf=exact_gf)

    p = sub.add_parser("constants", help="exact c_k, f_k, g_k, S_k tables")
    common(p, "--kmax", "--format", "--cache-dir", exact_gf=True)
    p.add_argument("--dump-gf", choices=KINDS, default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("bounds", help="exact tails vs proven envelopes")
    common(p, "--kmax", "--format", "--cache-dir", exact_gf=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("oracle", help="exact finite-n tables")
    common(p, "--kmax", "--format", "--cache-dir")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--rho", type=_rho, default=None)
    p.add_argument("--series-order", type=_at_least(0), default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="seeded Monte Carlo estimates")
    common(p, "--kmax", "--format")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("factor", help="denominator factorizations and verdicts")
    common(p, "--kmax", "--format", "--cache-dir", exact_gf=True)
    p.add_argument("--factor-bound", type=_at_least(2), default=1000)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p, "--cache-dir")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=_rho, default="7/5")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir
    accepted: set[Path] = set()
    # exact values from k = 7 on have more decimal digits than Python 3.11+
    # converts by default (4300) in the output; the cache entries are hex,
    # which the limit does not cover.  It is lifted for this run only
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.kmax is not None:
            _check_kmax(args.kmax, args.exact_gf)
        if cache_dir is not None:
            load_cache(cache_dir, accepted)
        code = args.func(args)
        if cache_dir is not None:
            save_cache(cache_dir, accepted)
        return code
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except CapacityExceeded as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
