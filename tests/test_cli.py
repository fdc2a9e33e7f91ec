"""Front-end: schemas, exit codes, determinism, and the disk cache."""

import json
import sys
from pathlib import Path

import pytest

import reference_plring
from ranktree import cli, genfun, plring, residues
from ranktree.genfun import InternalInconsistency
from ranktree.plring import PLExpr, Rational

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_json_schema(capsys):
    code, out, _ = run(capsys, "constants", "--kmax", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "constants"
    assert payload["kmax"] == 1
    assert [row["k"] for row in payload["rows"]] == [0, 1]
    row = payload["rows"][1]
    assert set(row) == {"k", "c", "f", "g", "partial_sum", "f_over_c", "g_over_c"}
    assert row["c"] == {"num": "3", "den": "10", "approx": 0.3}


def test_constants_csv_projection(capsys):
    code, out, _ = run(capsys, "constants", "--kmax", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k,c,c_approx,")
    assert lines[1].startswith("0,1/3,")
    assert lines[2].startswith("1,3/10,")


def test_constants_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "constants", "--kmax", "2")
    _, second, _ = run(capsys, "constants", "--kmax", "2")
    assert first == second


def test_dump_gf_round_trips(capsys):
    code, out, _ = run(capsys, "constants", "--kmax", "1", "--dump-gf", "root_rank")
    assert code == 0
    payload = json.loads(out)
    records = payload["gf"]["root_rank"]["1"]
    assert records == reference_plring.records(genfun.root_rank_gf(1).terms)


def test_bounds_schema(capsys):
    code, out, _ = run(capsys, "bounds", "--kmax", "2")
    assert code == 0
    payload = json.loads(out)
    assert 0.3725 < payload["alpha0"] < 0.3735
    assert payload["moments"]["0,1"] == {"num": "1", "den": "3", "approx": pytest.approx(1 / 3)}
    assert [row["k"] for row in payload["rows"]] == [0, 1, 2]


def test_oracle_schema_and_series_check(capsys):
    code, out, _ = run(
        capsys, "oracle", "--n", "12", "--kmax", "2", "--rho", "7/5",
        "--series-order", "12",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 12
    assert payload["series_check"] == {"order": 12, "agree": True}
    assert payload["moment_ratio"]["rho"] == "7/5"
    assert payload["rows"][0]["rank_count"]["num"] == "13"
    assert payload["rows"][0]["rank_count"]["den"] == "3"


def test_simulate_deterministic_for_fixed_seed(capsys):
    args = ("simulate", "--n", "30", "--trials", "10", "--seed", "4", "--kmax", "2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["seed"] == 4
    assert "rank_fraction/0" in payload["statistics"]
    stat = payload["statistics"]["leaf_fraction"]
    assert set(stat) == {"mean", "stderr", "trials"}


def test_factor_passes_for_low_k(capsys):
    code, out, _ = run(capsys, "factor", "--kmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(row["pass"] for row in payload["rows"])
    assert payload["rows"][3]["denominator"]["gap_free"] is True


def test_cache_cold_then_warm_identical_bytes(capsys, tmp_path):
    cache = tmp_path / "cache"
    _, cold, _ = run(capsys, "constants", "--kmax", "2", "--cache-dir", str(cache))
    files = sorted(p.name for p in cache.glob("*.json"))
    assert "root_rank.2.json" in files
    _, warm, _ = run(capsys, "constants", "--kmax", "2", "--cache-dir", str(cache))
    assert cold == warm


def _read(entry):
    """The head and the term lines of a cache entry, decoded."""
    head, *terms = entry.read_text().splitlines()
    return json.loads(head), [json.loads(line) for line in terms]


def _write(entry, head, terms):
    entry.write_text("".join(json.dumps(line) + "\n" for line in [head, *terms]))


def test_cached_expression_matches_recomputation(tmp_path):
    cache = tmp_path / "cache"
    genfun.root_rank_gf(2)
    cli.save_cache(cache)
    head, terms = _read(cache / "root_rank.2.json")
    assert head["format"] == cli.CACHE_FORMAT
    assert head["count"] == len(terms)
    parts = [((b, c), int(n, 16)) for b, c, n in terms]
    assert PLExpr.from_parts(parts, int(head["den"], 16)) == genfun.root_rank_gf(2)


def test_truncated_cache_entry_is_rewritten(capsys, tmp_path):
    fresh, cache = tmp_path / "fresh", tmp_path / "cache"
    _, cold, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(fresh))
    run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
    entry = cache / "root_rank.2.json"
    entry.write_text(entry.read_text()[:40])
    for _ in range(2):
        code, out, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
        assert code == 0
        assert out == cold
        assert entry.read_bytes() == (fresh / "root_rank.2.json").read_bytes()
    # nothing but the entries themselves: no temporary file is left behind
    assert sorted(p.name for p in cache.iterdir()) == sorted(p.name for p in fresh.iterdir())


def _first_term(head, terms, b=None, c=None, n=None):
    first = [old if new is None else new for old, new in zip(terms[0], (b, c, n))]
    return head, [first, *terms[1:]]


def _times_three(head, terms):
    # the same values over a denominator three times larger: not in lowest terms
    terms = [[b, c, f"{3 * int(n, 16):x}"] for b, c, n in terms]
    return {**head, "den": f"{3 * int(head['den'], 16):x}"}, terms


def _bool_vpow(head, terms):
    # True == 1 and False == 0: the key keeps its value, only its type is wrong
    c = terms[0][1]
    assert c in (0, 1)
    return _first_term(head, terms, c=bool(c))


def _first_format(head, terms):
    # a valid entry of the first format: one JSON document, with one record
    # per term in lowest terms
    records = genfun.gf_by_kind(head["kind"], head["k"]).to_records()
    return {"format": "ranktree-plexpr/1", "kind": head["kind"], "k": head["k"], "terms": records}, []


@pytest.mark.parametrize(
    "damage",
    [
        lambda head, terms: ([head], terms),
        lambda head, terms: (head, []),
        lambda head, terms: (head, [None, *terms[1:]]),
        lambda head, terms: ({**head, "den": "0"}, terms),
        lambda head, terms: _first_term(head, terms, n="xyz"),  # not hex
        # int() would truncate it to another exponent
        lambda head, terms: _first_term(head, terms, b=terms[0][0] + 1.5),
        _times_three,
        lambda head, terms: _first_term(head, terms, n="0"),
        lambda head, terms: ({**head, "count": head["count"] + 1}, [*terms, terms[0]]),
        lambda head, terms: ({**head, "den": "-" + head["den"]}, terms),
        _bool_vpow,
        _first_format,
        # cut at a line boundary, so every line that is left reads
        lambda head, terms: (head, terms[:-1]),
    ],
    ids=[
        "json-list", "no-terms", "null-terms", "zero-den", "bad-num", "float-upow",
        "shared-factor", "zero-num", "repeated-key", "negative-den", "bool-vpow", "first-format",
        "lost-line",
    ],
)
def test_malformed_cache_entry_is_rewritten(capsys, monkeypatch, tmp_path, damage):
    fresh, cache = tmp_path / "fresh", tmp_path / "cache"
    _, cold, _ = run(capsys, "constants", "--kmax", "2", "--cache-dir", str(fresh))
    run(capsys, "constants", "--kmax", "2", "--cache-dir", str(cache))
    entry = cache / "closest_leaf.2.json"
    _write(entry, *damage(*_read(entry)))
    monkeypatch.setattr(genfun, "_CACHE", {})
    monkeypatch.setattr(genfun, "_PARTIAL_SUMS", {})
    code, out, _ = run(capsys, "constants", "--kmax", "2", "--cache-dir", str(cache))
    assert code == 0
    assert out == cold
    assert entry.read_bytes() == (fresh / "closest_leaf.2.json").read_bytes()


def test_indented_cache_entries_load_with_identical_output(capsys, monkeypatch, tmp_path):
    # entries are written compact, one JSON value a line; whitespace within
    # and before a line does not change what it reads as
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    _, cold, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(fresh))
    old.mkdir()
    names = sorted(p.name for p in fresh.glob("*.json"))
    for name in names:
        lines = (fresh / name).read_text().splitlines()
        assert len(lines) == 1 + json.loads(lines[0])["count"]
        spaced = [json.dumps(json.loads(line), separators=(" , ", " : ")) for line in lines]
        (old / name).write_text("".join(f"  {line}\n" for line in spaced))
    indented = {name: (old / name).read_text() for name in names}
    built = genfun.cache_snapshot()
    monkeypatch.setattr(genfun, "_CACHE", {})
    monkeypatch.setattr(genfun, "_PARTIAL_SUMS", {})
    assert cli.load_cache(old) == len(names)
    assert genfun.cache_snapshot() == {key: built[key] for key in genfun.cache_snapshot()}
    monkeypatch.setattr(genfun, "_CACHE", {})
    code, warm, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(old))
    assert code == 0
    assert warm == cold
    # accepted entries are left as they were
    assert {name: (old / name).read_text() for name in names} == indented


def test_misnamed_cache_entry_is_not_accepted(tmp_path):
    genfun.root_rank_gf(2)
    cli.save_cache(tmp_path)
    (tmp_path / "root_rank.2.json").rename(tmp_path / "root_rank.9.json")
    accepted = set()
    loaded = cli.load_cache(tmp_path, accepted)
    assert tmp_path / "root_rank.9.json" not in accepted
    assert loaded == len(accepted)


def test_simulate_output_is_strict_json(capsys):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    code, out, _ = run(capsys, "simulate", "--n", "30", "--trials", "1", "--kmax", "2")
    assert code == 0
    payload = json.loads(out, parse_constant=refuse)
    stats = payload["statistics"]
    assert stats["leaf_fraction"]["trials"] == 1
    assert all(stat["stderr"] is None for stat in stats.values())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--kmax", "2"],
        ["verify", "--format", "csv"],
        ["simulate", "--cache-dir", "unused"],
    ],
    ids=["verify-kmax", "verify-format", "simulate-cache-dir"],
)
def test_options_a_subcommand_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("bounds-kmax5.json", ["bounds", "--kmax", "5"]),
        ("bounds-kmax5.csv", ["bounds", "--kmax", "5", "--format", "csv"]),
        ("factor-kmax5.json", ["factor", "--kmax", "5"]),
        (
            "oracle-n40.json",
            ["oracle", "--n", "40", "--kmax", "3", "--rho", "7/5", "--series-order", "12"],
        ),
        ("simulate-n1000.json", ["simulate", "--n", "1000", "--trials", "200", "--seed", "0"]),
        (
            "simulate-n50.csv",
            ["simulate", "--n", "50", "--trials", "30", "--seed", "1", "--kmax", "3", "--format", "csv"],
        ),
        ("simulate-n1.json", ["simulate", "--n", "1", "--trials", "1"]),
        ("oracle-n200.json", ["oracle", "--n", "200", "--kmax", "6", "--rho", "7/5"]),
        (
            "oracle-n200.csv",
            ["oracle", "--n", "200", "--kmax", "6", "--rho", "7/5", "--format", "csv"],
        ),
        ("constants-kmax4.json", ["constants", "--kmax", "4"]),
        ("constants-kmax4.csv", ["constants", "--kmax", "4", "--format", "csv"]),
        ("constants-kmax3-gf.json", ["constants", "--kmax", "3", "--dump-gf", "root_rank_cdf"]),
        ("constants-kmax7.json", ["constants", "--kmax", "7"]),
        ("factor-kmax7.json", ["factor", "--kmax", "7"]),
    ],
)
def test_stdout_matches_golden(capsys, golden, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_values_beyond_the_int_digit_limit(capsys, monkeypatch, tmp_path):
    # about 1/3, with 5001-digit parts: past the 4300 digits Python 3.11+
    # converts by default; the expected text needs no int-to-str conversion
    big = Rational(10**5000 + 1) / (3 * 10**5000)
    num, den = "1" + "0" * 4999 + "1", "3" + "0" * 5000
    row = genfun.ConstantsRow(0, big, big, big, big, big, big)
    monkeypatch.setattr(genfun, "constants_table", lambda kmax: genfun.ConstantsTable(0, [row]))
    monkeypatch.setattr(genfun, "_CACHE", {("root_rank", 0): PLExpr.term(big)})
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()

    code, out, _ = run(capsys, "constants", "--kmax", "0", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["rows"][0]["c"] == {"num": num, "den": den, "approx": 0.333333333333}
    code, out, _ = run(capsys, "constants", "--kmax", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith(f"0,{num}/{den},")
    # a fresh memo is seeded from the entry just written
    monkeypatch.setattr(genfun, "_CACHE", {})
    code, _, _ = run(capsys, "constants", "--kmax", "0", "--cache-dir", str(tmp_path))
    assert code == 0
    assert genfun.cache_snapshot() == {("root_rank", 0): PLExpr.term(big)}
    assert get_limit() == limit


def test_load_cache_ignores_foreign_files(tmp_path):
    (tmp_path / "junk.json").write_text("{not json")
    (tmp_path / "other.json").write_text('{"format": "something-else"}')
    assert cli.load_cache(tmp_path) == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "argv", [["oracle", "--n", "5", "--rho", "1/0"], ["verify", "--rho", "1/0"]], ids=["oracle", "verify"]
)
def test_a_bad_rho_is_a_usage_error_before_any_work(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert captured.out == ""
    assert "not a rational number" in captured.err


OUT_OF_RANGE = {
    "series-order": (
        ["oracle", "--n", "400", "--kmax", "5", "--rho", "7/5", "--series-order", "-1"],
        "--series-order: must be >= 0",
    ),
    "factor-bound": (["factor", "--kmax", "6", "--factor-bound", "1"], "--factor-bound: must be >= 2"),
    **{
        f"{subcommand}-kmax": ([subcommand, "--kmax", "-1"], "--kmax: must be >= 0")
        for subcommand in ["constants", "bounds", "oracle", "simulate", "factor"]
    },
    **{
        f"{subcommand}-n": ([subcommand, "--n", "0"], "--n: must be >= 1")
        for subcommand in ["oracle", "simulate", "verify"]
    },
    "simulate-trials": (["simulate", "--trials", "0"], "--trials: must be >= 1"),
    # a standard error needs two trials
    "verify-trials": (["verify", "--trials", "1"], "--trials: must be >= 2"),
    "simulate-seed": (["simulate", "--n", "50", "--trials", "20", "--seed", "-1"], "--seed: must be >= 0"),
    "verify-seed": (["verify", "--n", "50", "--trials", "20", "--seed", "-1"], "--seed: must be >= 0"),
}


@pytest.mark.parametrize("argv,message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_an_out_of_range_int_is_a_usage_error_before_any_work(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the options were checked")

    for module, name in [
        (cli, "load_cache"),
        (cli.genfun, "constants_table"),
        (cli.genfun, "tail_report"),
        (cli.genfun, "rank_constant"),
        (cli.oracle, "expected_rank_counts"),
        (cli.montecarlo, "estimate"),
        (cli.checks, "verify_checks"),
    ]:
        monkeypatch.setattr(module, name, no_work)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert captured.out == ""
    assert message in captured.err


def test_kmax_ceiling_is_enforced(capsys):
    code, _, err = run(capsys, "constants", "--kmax", "9")
    assert code == cli.EXIT_USAGE
    assert "ceiling" in err


def test_oracle_series_order_keeps_to_the_kmax_ceiling(capsys, monkeypatch):
    # the series check builds B_{<=0..kmax}: the same exact work as constants
    monkeypatch.setattr(cli, "STRETCH_KMAX", 3)
    monkeypatch.setattr(cli, "DEFAULT_KMAX", 2)
    monkeypatch.setattr(genfun, "_CACHE", {})
    code, out, err = run(capsys, "oracle", "--n", "5", "--kmax", "4", "--series-order", "2")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "ceiling is 3" in err
    assert not genfun.cache_snapshot()

    code, _, err = run(capsys, "oracle", "--n", "5", "--kmax", "3", "--series-order", "2")
    assert code == 0
    assert "warning: kmax=3 is a stretch run" in err
    # without the series the oracle builds no generating function: no ceiling
    code, _, err = run(capsys, "oracle", "--n", "5", "--kmax", "4")
    assert code == 0
    assert err == ""


def test_verification_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.checks, "verify_checks", lambda *args: [("doomed", False, "synthetic")]
    )
    code, out, _ = run(capsys, "verify")
    assert code == cli.EXIT_VERIFY
    assert "FAIL doomed" in out


def test_internal_inconsistency_exit_code(capsys, monkeypatch):
    def boom(kmax):
        raise InternalInconsistency("synthetic")

    monkeypatch.setattr(cli.genfun, "constants_table", boom)
    code, _, err = run(capsys, "constants", "--kmax", "1")
    assert code == cli.EXIT_INCONSISTENT
    assert "internal inconsistency" in err


def test_a_residue_capacity_refusal_mid_run_exits_3(capsys, monkeypatch):
    # valid input, refused in the middle of the run: not a usage error
    monkeypatch.setattr(plring, "_RESIDUE_PAIRS", 1)  # every product by residues
    monkeypatch.setattr(residues, "_TERMS", 4)
    monkeypatch.setattr(genfun, "_CACHE", {})
    monkeypatch.setattr(genfun, "_PARTIAL_SUMS", {})
    code, out, err = run(capsys, "constants", "--kmax", "4")
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert "capacity exceeded: " in err and "fewer than 4" in err
    assert "usage error" not in err


def test_broken_simulator_invariant_exit_code(capsys, monkeypatch):
    # a greedy walk shorter than the root rank can only be a bug
    monkeypatch.setattr(cli.montecarlo, "_greedy_walk", lambda *args: -1)
    code, out, err = run(capsys, "simulate", "--n", "20", "--trials", "3")
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert "greedy walk shorter than the root rank" in err
