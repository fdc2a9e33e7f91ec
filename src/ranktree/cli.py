"""Batch front end for the exact engine, the oracle, and the simulator.

Subcommands: constants, bounds, oracle, simulate, factor, verify.  JSON
(canonical: sorted keys, exact values as decimal strings, floats at 12
significant digits) is the primary format; CSV is a flat projection of
the table-shaped outputs.  Exit codes: 0 success, 1 usage error,
2 verification failure, 3 internal inconsistency.

An optional on-disk cache (--cache-dir) stores one serialized expression
per (kind, k) with a format-version header, so repeated runs skip the
symbolic recurrences entirely.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Collection
from fractions import Fraction
from pathlib import Path

from . import conjecture, genfun, montecarlo, oracle
from .genfun import KINDS, InternalInconsistency
from .plring import PLExpr, Rational

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INCONSISTENT = 3

CACHE_FORMAT = "ranktree-plexpr/1"

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


def _approx(x) -> float:
    return float(f"{float(x):.12g}")


def _rat(x: Rational) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator), "approx": _approx(x)}


def _flat_rat(x: Rational) -> str:
    return f"{x.numerator}/{x.denominator}"


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


def _parse_rational(text: str) -> Rational:
    frac = Fraction(text)
    return Rational(frac.numerator) / frac.denominator


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


def load_cache(cache_dir: Path, accepted: set[Path] | None = None) -> int:
    """Seed the in-memory memo from disk; returns the number of entries.

    An entry is accepted when it parses, carries the current format, and
    its kind and k match its file name.  Accepted paths are added to
    ``accepted`` when given, so that save_cache can rewrite the others.
    """
    loaded = 0
    if not cache_dir.is_dir():
        return 0
    for path in sorted(cache_dir.glob("*.json")):
        try:
            blob = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if blob.get("format") != CACHE_FORMAT:
            continue
        kind, k = blob.get("kind"), blob.get("k")
        if kind not in KINDS or not isinstance(k, int) or path != _cache_path(cache_dir, kind, k):
            continue
        genfun.cache_insert(kind, k, PLExpr.from_records(blob["terms"]))
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
        blob = {"format": CACHE_FORMAT, "kind": kind, "k": k, "terms": expr.to_records()}
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(blob, sort_keys=True, indent=2) + "\n")
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
                "c": _flat_rat(row.c),
                "c_approx": _approx(row.c),
                "f": _flat_rat(row.f),
                "g": _flat_rat(row.g),
                "partial_sum_approx": _approx(row.partial_sum),
                "f_over_c": _flat_rat(row.f_over_c),
                "g_over_c": _flat_rat(row.g_over_c),
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
                "lower_reference": _approx(row.lower_reference),
            }
        )
        rows_csv.append(
            {
                "k": row.k,
                "exact_tail": _flat_rat(row.exact_tail),
                "exact_tail_approx": _approx(row.exact_tail),
                "moment_bound_approx": _approx(row.moment_bound),
                "theorem_bound_approx": _approx(row.theorem_bound),
                "lower_reference": _approx(row.lower_reference),
            }
        )
    payload = {
        "command": "bounds",
        "kmax": kmax,
        "alpha0": _approx(conjecture.alpha0(1e-12)),
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
            "the DP is quadratic in n with big-integer entries",
            file=sys.stderr,
        )
    rows_json = []
    rows_csv = []
    for k in range(kmax + 1):
        p_gt = oracle.root_rank_tail(n, k)
        p_eq = oracle.root_rank_prob(n, k)
        e_k = oracle.expected_rank_counts(n, k)[k]
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
                "root_rank_tail": _flat_rat(p_gt),
                "root_rank_prob_approx": _approx(p_eq),
                "rank_count_approx": _approx(e_k),
                "leaf_pairs_approx": _approx(f_k),
                "closest_pairs_approx": _approx(g_k),
            }
        )
    payload: dict = {"command": "oracle", "n": n, "kmax": kmax, "rows": rows_json}
    if args.rho is not None:
        rho = _parse_rational(args.rho)
        payload["moment_ratio"] = {"rho": args.rho, **_rat(oracle.moment_gf_ratio(n, rho))}
    if args.series_order is not None:
        order = args.series_order
        agree = True
        for k in range(kmax + 1):
            coeffs = genfun.root_rank_cdf_gf(k).series(order)
            for m in range(1, order + 1):
                if coeffs[m] != 1 - oracle.root_rank_tail(m, k):
                    agree = False
        if not agree:
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
        ok = verdict.smoothness_pass and verdict.gap_free is not False and structure.passed
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


# ---------------------------------------------------------------------------
# Verification suite


def _se_window(observed, exact, stderr, sigmas: float = 4.0) -> bool:
    slack = sigmas * stderr if stderr > 0 else 1e-12
    return abs(observed - float(exact)) <= slack


def _verify_checks(args) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    # exact low-order constants, each computed along two independent routes
    c = [genfun.rank_constant(k) for k in range(6)]
    expected = [Rational(1) / 3, Rational(3) / 10, Rational(1721) / 8100]
    add(
        "constants-exact",
        c[:3] == expected,
        f"c_0..c_2 = {[_flat_rat(x) for x in c[:3]]}",
    )
    add(
        "constants-windows",
        abs(float(c[4]) - 0.0364) <= 5e-4 and abs(float(c[5]) - 0.0074) <= 5e-4,
        f"c_4 ~ {_approx(c[4])}, c_5 ~ {_approx(c[5])}",
    )

    f = [genfun.leaf_pair_constant(k) for k in range(3)]
    g = [genfun.closest_leaf_constant(k) for k in range(3)]
    ratios = [genfun.per_vertex_ratios(k) for k in range(3)]
    f_exp = [Rational(1) / 3, Rational(17) / 30, Rational(152389) / 170100]
    g_exp = [Rational(1) / 3, Rational(1) / 3, Rational(49) / 180]
    r_exp = [
        (Rational(1), Rational(1)),
        (Rational(17) / 9, Rational(10) / 9),
        (Rational(152389) / 36141, Rational(2205) / 1721),
    ]
    add(
        "pair-constants-exact",
        f == f_exp and g == g_exp and ratios == r_exp,
        f"f = {[_flat_rat(x) for x in f]}, g = {[_flat_rat(x) for x in g]}",
    )

    s = [genfun.partial_sum(k) for k in range(6)]
    add(
        "partial-sum-windows",
        0.954 < float(s[3]) < 0.956
        and 0.9913 < float(s[4]) < 0.9915
        and 0.9987 < float(s[5]) < 0.9988,
        f"S_3..S_5 ~ {[_approx(x) for x in s[3:6]]}",
    )

    ok_tails = True
    for k in range(11):
        ik1 = genfun.tail_moment(k, 1)
        upper = Rational(6 * k + 7) / 6 / Rational(3) ** k
        lower = genfun.tail_moment(0, 1) / Rational(3) ** k
        ok_tails = ok_tails and lower <= ik1 <= upper
    for k in range(6):
        ok_tails = ok_tails and 1 - s[k] <= 2 * genfun.tail_moment(k, 1)
    add("tail-bounds", ok_tails, "moment bounds hold for k <= 10, tails for k <= 5")

    residual_ranges = {
        "root_rank": range(0, 6),
        "root_rank_cdf": range(0, 6),
        "leaf_pair_tail": range(0, 4),
        "closest_leaf": range(1, 4),
        "greedy_tail": range(0, 7),
    }
    ok_res = all(
        genfun.ode_residual(kind, k).is_zero()
        for kind, ks in residual_ranges.items()
        for k in ks
    )
    add("ode-residuals", ok_res, "all five defining equations have zero residual")

    ok_series = True
    for k in range(6):
        coeffs = genfun.root_rank_cdf_gf(k).series(50)
        for n in range(1, 51):
            ok_series = ok_series and coeffs[n] == 1 - oracle.root_rank_tail(n, k)
    for k in range(4):
        tail = genfun.leaf_pair_tail_gf(k).series(25)
        hat = genfun.closest_leaf_gf(k).series(25)
        for n in range(1, 26):
            ok_series = ok_series and tail[n] == oracle.expected_leaf_pairs_tail(n, k)
            ok_series = ok_series and hat[n] == oracle.expected_closest_pairs(n, k)
    add("series-vs-oracle", ok_series, "coefficients match the exact DP tables")

    ok_struct = True
    for k in range(6):
        verdict = conjecture.check_conjectures(k, c[k])
        structure = conjecture.check_pl_structure(k)
        ok_struct = ok_struct and verdict.smoothness_pass and structure.passed
        if k >= 2:
            ok_struct = ok_struct and verdict.gap_free is True
    add("structure-and-factorizations", ok_struct, "k <= 5")

    a0 = conjecture.alpha0(1e-12)
    add("alpha0-window", 0.3725 < a0 < 0.3735, f"alpha0 ~ {_approx(a0)}")

    rho = _parse_rational(args.rho)
    ratios_by_n = [float(oracle.moment_gf_ratio(n, rho)) for n in (100, 200, 400)]
    spread = (max(ratios_by_n) - min(ratios_by_n)) / max(ratios_by_n)
    add(
        "moment-ratio-stability",
        spread < 0.05,
        f"rho={args.rho}, spread {_approx(spread * 100)}% over n in 100..400",
    )

    # seeded simulation against the exact oracle, 4-standard-error windows
    rep = montecarlo.estimate(args.n, args.trials, args.seed, kmax=3)
    ok_mc = True
    for k in range(4):
        stat = rep[f"rank_fraction/{k}"]
        exact = oracle.expected_rank_counts(args.n, k)[k] / args.n
        ok_mc = ok_mc and _se_window(stat.mean, exact, stat.stderr)
    leaf = rep["leaf_fraction"]
    ok_mc = ok_mc and _se_window(
        leaf.mean, oracle.expected_rank_counts(args.n, 0)[0] / args.n, leaf.stderr
    )
    add("simulation-rank-fractions", ok_mc, f"n={args.n}, trials={args.trials}")

    rep200 = montecarlo.estimate(200, args.trials, args.seed + 1, kmax=3)
    ok_root = all(
        _se_window(
            rep200[f"root_rank_freq/{k}"].mean,
            oracle.root_rank_prob(200, k),
            rep200[f"root_rank_freq/{k}"].stderr,
        )
        for k in range(4)
    )
    add("simulation-root-rank", ok_root, f"n=200, trials={args.trials}")

    rep30 = montecarlo.estimate(30, args.trials, args.seed + 2, kmax=5)
    ok_greedy = True
    for k in range(6):
        stat = rep30[f"greedy_gt/{k}"]
        exact = genfun.greedy_tail_gf(k).series(30)[30]
        ok_greedy = ok_greedy and _se_window(stat.mean, exact, stat.stderr)
    add("simulation-greedy-walk", ok_greedy, f"n=30, trials={args.trials}")

    return checks


def cmd_verify(args) -> int:
    if args.n < 1 or args.trials < 2:
        raise ValueError("verify needs n >= 1 and trials >= 2 (a standard error needs two trials)")
    checks = _verify_checks(args)
    rows = []
    failed = 0
    for name, ok, detail in checks:
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="ranktree", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, exact_gf=False):
        p.add_argument("--kmax", type=int, default=DEFAULT_KMAX)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--cache-dir", type=Path, default=None)
        p.set_defaults(exact_gf=exact_gf)

    p = sub.add_parser("constants", help="exact c_k, f_k, g_k, S_k tables")
    common(p, exact_gf=True)
    p.add_argument("--dump-gf", choices=KINDS, default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("bounds", help="exact tails vs proven envelopes")
    common(p, exact_gf=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("oracle", help="exact finite-n tables")
    common(p)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--rho", default=None)
    p.add_argument("--series-order", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="seeded Monte Carlo estimates")
    common(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("factor", help="denominator factorizations and verdicts")
    common(p, exact_gf=True)
    p.add_argument("--factor-bound", type=int, default=1000)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", default="7/5")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir
    accepted: set[Path] = set()
    try:
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
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
