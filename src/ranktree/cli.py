"""Batch front end for the exact engine, the oracle, and the simulator.

Subcommands: constants, bounds, oracle, simulate, factor, verify.  JSON
(canonical: sorted keys, exact values as decimal strings, floats at 12
significant digits) is the primary format; CSV is a flat projection of
the table-shaped outputs.  Exit codes: 0 success, 1 usage error,
2 verification failure, 3 internal inconsistency (a divergent integral
included: valid input never makes one, a corrupted cache entry can) or an
exact computation past the capacity of the residue maps (valid input can
reach it mid-run).
Option ranges are checked while parsing, so a value out of range exits 1
before any work; the --kmax ceiling of the runs that build exact
generating functions (constants, bounds, factor, oracle --series-order)
is checked next, before the cache loads.  An oracle --rho whose moment
ratio is provably past the float range is refused before any DP.

An optional on-disk cache (--cache-dir) stores one expression per
(kind, k), so repeated runs skip the symbolic recurrences entirely.  An
entry is the file <kind>.<k>.bin: one JSON head line, then a binary body
of the terms, sorted by (upow, vpow):

    {"count": <terms>, "den": "<hex>", "format": "ranktree-plexpr/3", "k": k, "kind": kind}
    the keys (upow, vpow), as little-endian int32 pairs
    one little-endian int32 per numerator: its length in bytes, negative
      for a negative numerator
    the magnitudes of the numerators, little-endian, one after another

It holds the expression's canonical parts (PLExpr.parts): one positive
denominator and the nonzero numerators over it.  Writing and reading
them takes no gcd per term and no text conversion.  The writer streams
one numerator at a time, and the reader reads each numerator from the
buffered file, so neither holds a whole entry's bytes.

The top level K of `constants` and `bounds` builds no entry: its
constants integrate the right-hand sides of level K (genfun's module
docstring).  Each right-hand side the memo holds is the file
<kind>.<k>.rhs.bin, laid out as an entry whose head also carries
"rhs": true; it takes about half the bytes of its entry.  A later run
that needs the entry antidifferentiates the cached right-hand side, with
no product, and then writes the entry and removes the right-hand side's
file.

An entry or a right-hand side is loaded only if its body holds exactly
the terms its head counts, with no byte missing or left over, its parts
are canonical (PLExpr.from_parts), and its head names its file; any
other file is treated as missing and rewritten.  Entries of the earlier
formats are <kind>.<k>.json files: they are neither read nor removed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections.abc import Collection
from pathlib import Path

import numpy as np

from . import checks, conjecture, genfun, montecarlo, oracle
from .checks import approx, flat_rat
from .genfun import KINDS, InternalInconsistency
from .plring import DivergentIntegral, PLExpr, Rational
from .residues import CapacityExceeded

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INCONSISTENT = 3

CACHE_FORMAT = "ranktree-plexpr/3"
_INT32 = np.dtype("<i4")  # the keys and the signed lengths of an entry

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


def _table(rows) -> tuple[list[dict], list[dict]]:
    """The JSON rows and the CSV rows of a table, each column named once.

    A row is (k, columns), a column (name, value, csv).  An exact value is
    written as _rat in JSON, and csv says what the CSV keeps of it: "frac"
    the fraction as <name>, "approx" its float as <name>_approx, "both"
    the two, None nothing.  A float (with csv None) goes to both formats
    as approx(value).
    """
    rows_json, rows_csv = [], []
    for k, columns in rows:
        row_json, row_csv = {"k": k}, {"k": k}
        for name, value, csv_keeps in columns:
            if isinstance(value, float):
                row_json[name] = row_csv[name] = approx(value)
                continue
            row_json[name] = _rat(value)
            if csv_keeps in ("frac", "both"):
                row_csv[name] = flat_rat(value)
            if csv_keeps in ("approx", "both"):
                row_csv[f"{name}_approx"] = approx(value)
        rows_json.append(row_json)
        rows_csv.append(row_csv)
    return rows_json, rows_csv


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


def _check_kmax(k: int) -> None:
    """The ceiling and the stretch warning of every run that builds exact
    generating functions, checked before the cache loads."""
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


def _cache_path(cache_dir: Path, kind: str, k: int, rhs: bool = False) -> Path:
    return cache_dir / f"{kind}.{k}.rhs.bin" if rhs else cache_dir / f"{kind}.{k}.bin"


def _entry_bytes(kind: str, k: int, expr: PLExpr, rhs: bool = False):
    """The bytes of the cache file of one expression, in pieces: the head
    line, the keys, the signed lengths, then one magnitude at a time.  The
    head of a right-hand side (``rhs``) says so."""
    items, den = expr.parts()
    head = {"count": len(items), "den": f"{den:x}", "format": CACHE_FORMAT, "k": k, "kind": kind}
    if rhs:
        head["rhs"] = True
    yield (json.dumps(head, sort_keys=True) + "\n").encode()
    yield np.array([key for key, _ in items], _INT32).tobytes()
    sizes = [(abs(n).bit_length() + 7) // 8 for _, n in items]
    yield np.array([size if n > 0 else -size for size, (_, n) in zip(sizes, items)], _INT32).tobytes()
    for size, (_, n) in zip(sizes, items):
        yield abs(n).to_bytes(size, "little")


def _read_entry(fh) -> tuple[dict, PLExpr]:
    """The head and the expression of the entry in the binary file fh.

    ValueError, TypeError or KeyError unless the head carries the current
    format, the body holds exactly the keys, lengths and magnitudes of as
    many terms as the head counts, and the parts are canonical
    (PLExpr.from_parts).  Both the count and the lengths are checked
    against the size of the file before the bytes they cover are read.
    """
    end = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    head = json.loads(fh.readline())
    if not isinstance(head, dict) or head.get("format") != CACHE_FORMAT:
        raise ValueError("not an entry of the current format")
    count = head["count"]
    if type(count) is not int or count < 0:
        raise ValueError(f"the head counts {count!r} terms")
    left = end - fh.tell() - 12 * count
    if left < 0:
        raise ValueError("the entry ends before its keys and lengths")
    keys = np.frombuffer(fh.read(8 * count), _INT32).reshape(count, 2).tolist()
    sizes = np.frombuffer(fh.read(4 * count), _INT32).tolist()
    total = sum(map(abs, sizes))
    if total != left:
        raise ValueError(f"the lengths add up to {total} bytes, and {left} follow")
    nums = [
        int.from_bytes(fh.read(size), "little") if size > 0 else -int.from_bytes(fh.read(-size), "little")
        for size in sizes
    ]
    return head, PLExpr.from_parts(zip(keys, nums), int(head["den"], 16))


def load_cache(cache_dir: Path, accepted: set[Path] | None = None) -> int:
    """Seed the in-memory memo from disk; returns the number of files loaded,
    entries and right-hand sides.

    A file is accepted when it reads (_read_entry) and its head's kind, k
    and "rhs" flag name it.  Accepted paths are added to ``accepted`` when
    given, so that save_cache can rewrite the others.
    """
    loaded = 0
    if not cache_dir.is_dir():
        return 0
    for path in sorted(cache_dir.glob("*.bin")):
        try:
            with path.open("rb") as fh:
                head, expr = _read_entry(fh)
            kind, k, rhs = head.get("kind"), head.get("k"), head.get("rhs", False)
            if kind not in KINDS or type(k) is not int or type(rhs) is not bool:
                continue
            if path != _cache_path(cache_dir, kind, k, rhs):
                continue
            genfun.cache_insert(kind, k, expr, rhs)
        except (OSError, ValueError, TypeError, KeyError):
            continue  # truncated or malformed: like a missing file
        loaded += 1
        if accepted is not None:
            accepted.add(path)
    return loaded


def save_cache(cache_dir: Path, keep: Collection[Path] = ()) -> int:
    """Write every memoized entry and right-hand side; returns the number of
    files written.

    Paths in ``keep`` (the files load_cache accepted) are left alone, and
    every other file is replaced, so an unreadable file is repaired.  Each
    file is written under a temporary name and renamed into place, so a
    reader never sees a partial file.  The right-hand-side file of each
    memoized entry is removed.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for key, expr in sorted(genfun.cache_snapshot().items()):
        kind, k, rhs = key[0], key[1], len(key) == 3  # (kind, k, "rhs") for a right-hand side
        path = _cache_path(cache_dir, kind, k, rhs)
        if not rhs:
            _cache_path(cache_dir, kind, k, rhs=True).unlink(missing_ok=True)
        if path in keep:
            continue
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("wb") as fh:
                fh.writelines(_entry_bytes(kind, k, expr, rhs))
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
    rows_json, rows_csv = _table(
        (
            row.k,
            [
                ("c", row.c, "both"),
                ("f", row.f, "frac"),
                ("g", row.g, "frac"),
                ("partial_sum", row.partial_sum, "approx"),
                ("f_over_c", row.f_over_c, "frac"),
                ("g_over_c", row.g_over_c, "frac"),
            ],
        )
        for row in genfun.constants_table(kmax)
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
    rows_json, rows_csv = _table(
        (
            row.k,
            [
                ("exact_tail", row.exact_tail, "both"),
                ("exact_tail_prev", row.exact_tail_prev, None),
                ("moment_bound", row.moment_bound, "approx"),
                ("theorem_bound", row.theorem_bound, "approx"),
                ("lower_reference", row.lower_reference, None),
            ],
        )
        for row in table.rows
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


def _refuse_a_ratio_past_the_float_range(n: int, rho: Rational) -> None:
    """A usage error, before any DP, when the moment ratio of --rho must be
    past the float range of its approx field.

    Only a path has root rank n-1, and 2^(n-1) of the n! permutations build
    one, so E_{n,n-1} = 2^(n-1)/n! and the ratio (1/n)·sum_k rho^k E_{n,k}
    is at least rho^(n-1)·2^(n-1)/(n·n!).  That bound is compared with
    2^1024 in integers.
    """
    p, q = int(rho.numerator), int(rho.denominator)
    num, den = (2 * p) ** (n - 1), q ** (n - 1) * n * math.factorial(n)
    if num >= den << 1024:
        bits = (num // den).bit_length() - 1
        raise ValueError(f"the moment ratio, at least 2^{bits}, is past the float range")


def cmd_oracle(args) -> int:
    n = args.n
    kmax = args.kmax
    if args.rho is not None:
        _refuse_a_ratio_past_the_float_range(n, checks.parse_rational(args.rho))
    if n > oracle.DEFAULT_N_CAP:
        print(
            f"warning: n={n} exceeds the default cap {oracle.DEFAULT_N_CAP}; "
            "the rows grow about like n^3 and --rho like n^4 "
            "(about 6 s and 40 s at n = 1000)",
            file=sys.stderr,
        )
    rows_json, rows_csv = _table(
        (
            k,
            [
                ("root_rank_tail", oracle.root_rank_tail(n, k), "frac"),
                ("root_rank_prob", oracle.root_rank_prob(n, k), "approx"),
                ("rank_count", e_k, "approx"),
                ("leaf_pairs", oracle.expected_leaf_pairs(n, k), "approx"),
                ("closest_pairs", oracle.expected_closest_pairs(n, k), "approx"),
            ],
        )
        for k, e_k in enumerate(oracle.expected_rank_counts(n, kmax))
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
    """--rho as given, once it parses as a positive rational: else a usage error before any work."""
    try:
        value = checks.parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {text}")
    return text


def _cache_dir(text: str) -> Path:
    """--cache-dir as a Path, unless it or the nearest of its parents that
    exists is not a directory: then a usage error before any work, not a
    failed save after it."""
    path = Path(text)
    existing = next((p for p in (path, *path.parents) if p.exists()), path)
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"{str(existing)!r} is not a directory")
    return path


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
        "--kmax": dict(type=_at_least(0), default=DEFAULT_KMAX),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--cache-dir": dict(type=_cache_dir, default=None),
    }
    parser.set_defaults(cache_dir=None, series_order=None)

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
    p.add_argument("--n", type=_at_least(1), default=50)
    p.add_argument("--rho", type=_rho, default=None)
    p.add_argument("--series-order", type=_at_least(0), default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="seeded Monte Carlo estimates")
    common(p, "--kmax", "--format")
    p.add_argument("--n", type=_at_least(1), default=1000)
    p.add_argument("--trials", type=_at_least(1), default=1000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("factor", help="denominator factorizations and verdicts")
    common(p, "--kmax", "--format", "--cache-dir", exact_gf=True)
    p.add_argument("--factor-bound", type=_at_least(2), default=1000)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p, "--cache-dir")
    p.add_argument("--n", type=_at_least(1), default=1000)
    # a standard error needs two trials
    p.add_argument("--trials", type=_at_least(2), default=2000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--rho", type=_rho, default="7/5")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir
    accepted: set[Path] = set()
    # exact values from k = 7 on have more decimal digits than Python 3.11+
    # converts by default (4300) in the output; the cache entries are
    # binary, which the limit does not cover.  It is lifted for this run only
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.exact_gf or args.series_order is not None:
            _check_kmax(args.kmax)
        if cache_dir is not None:
            load_cache(cache_dir, accepted)
        code = args.func(args)
        if cache_dir is not None:
            save_cache(cache_dir, accepted)
        return code
    except (InternalInconsistency, DivergentIntegral) as exc:
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
