"""Front-end: schemas, exit codes, determinism, and the disk cache."""

import errno
import json
import math
import os
import struct
import sys
from pathlib import Path

import numpy as np
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
    # B_2 is an entry of a --kmax 3 run: rhs_3 of B_3 reads it
    cache = tmp_path / "cache"
    _, cold, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
    files = sorted(p.name for p in cache.glob("*.bin"))
    assert "root_rank.2.bin" in files
    _, warm, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
    assert cold == warm


def _encode(head, terms):
    """The bytes of an entry with this head and these [b, c, numerator]
    terms, laid out here independently of cli: the head line, the keys as
    int32 pairs, one signed int32 length in bytes per numerator, then the
    little-endian magnitudes."""
    sizes = [(abs(n).bit_length() + 7) // 8 for _, _, n in terms]
    return b"".join(
        [
            (json.dumps(head, sort_keys=True) + "\n").encode(),
            struct.pack(f"<{2 * len(terms)}i", *(e for b, c, _ in terms for e in (b, c))),
            struct.pack(f"<{len(terms)}i", *(s if n > 0 else -s for s, (_, _, n) in zip(sizes, terms))),
            *(abs(n).to_bytes(s, "little") for s, (_, _, n) in zip(sizes, terms)),
        ]
    )


def _decode(data):
    """The head and the [b, c, numerator] terms of an entry's bytes."""
    line, _, body = data.partition(b"\n")
    head = json.loads(line)
    count = head["count"]
    keys = struct.unpack_from(f"<{2 * count}i", body)
    sizes = struct.unpack_from(f"<{count}i", body, 8 * count)
    at, terms = 12 * count, []
    for i, size in enumerate(sizes):
        n = int.from_bytes(body[at : at + abs(size)], "little")
        terms.append([keys[2 * i], keys[2 * i + 1], -n if size < 0 else n])
        at += abs(size)
    assert at == len(body)
    return head, terms


def test_cached_expression_matches_recomputation(tmp_path):
    cache = tmp_path / "cache"
    genfun.root_rank_gf(2)
    cli.save_cache(cache)
    data = (cache / "root_rank.2.bin").read_bytes()
    head, terms = _decode(data)
    assert head["format"] == cli.CACHE_FORMAT
    assert head["count"] == len(terms)
    parts = [((b, c), n) for b, c, n in terms]
    assert PLExpr.from_parts(parts, int(head["den"], 16)) == genfun.root_rank_gf(2)
    # the writer's layout is the one decoded here, to the byte
    assert data == _encode(head, terms)


def test_truncated_cache_entry_is_rewritten(capsys, tmp_path):
    fresh, cache = tmp_path / "fresh", tmp_path / "cache"
    _, cold, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(fresh))
    run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
    entry = cache / "root_rank.2.bin"
    entry.write_bytes(entry.read_bytes()[:40])
    for _ in range(2):
        code, out, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
        assert code == 0
        assert out == cold
        assert entry.read_bytes() == (fresh / "root_rank.2.bin").read_bytes()
    # nothing but the entries themselves: no temporary file is left behind
    assert sorted(p.name for p in cache.iterdir()) == sorted(p.name for p in fresh.iterdir())


def _terms(damage):
    """A damage to the decoded head and terms, as a damage to the bytes."""
    return lambda data: _encode(*damage(*_decode(data)))


def _first_term(head, terms, b=None, c=None, n=None):
    first = [old if new is None else new for old, new in zip(terms[0], (b, c, n))]
    return head, [first, *terms[1:]]


def _times_three(head, terms):
    # the same values over a denominator three times larger: not in lowest terms
    terms = [[b, c, 3 * n] for b, c, n in terms]
    return {**head, "den": f"{3 * int(head['den'], 16):x}"}, terms


def _first_length(data, size):
    # the signed length of the first numerator set to `size`
    head, _ = _decode(data)
    at = data.index(b"\n") + 1 + 8 * head["count"]
    return data[:at] + struct.pack("<i", size) + data[at + 4 :]


@pytest.mark.parametrize(
    "damage",
    [
        _terms(lambda head, terms: ([head], terms)),
        _terms(lambda head, terms: (head, [])),
        _terms(lambda head, terms: ({**head, "den": "0"}, terms)),
        _terms(lambda head, terms: ({**head, "den": "-" + head["den"]}, terms)),
        _terms(lambda head, terms: ({**head, "den": "xyz"}, terms)),  # not hex
        _terms(_times_three),
        _terms(lambda head, terms: _first_term(head, terms, n=0)),
        _terms(lambda head, terms: _first_term(head, terms, c=-1)),
        _terms(lambda head, terms: ({**head, "count": head["count"] + 1}, [*terms, terms[0]])),
        _terms(lambda head, terms: ({**head, "format": "ranktree-plexpr/2"}, terms)),
        _terms(lambda head, terms: ({**head, "count": str(head["count"])}, terms)),
        # the head counts one term more than the body holds
        _terms(lambda head, terms: (head, terms[:-1])),
        lambda data: data[:-1],
        lambda data: data + b"\0",
        # far more than the file holds: refused before any read
        _terms(lambda head, terms: ({**head, "count": 2**40}, terms)),
        lambda data: _first_length(data, 2**31 - 1),
    ],
    ids=[
        "json-list", "no-terms", "zero-den", "negative-den", "non-hex-den", "shared-factor",
        "zero-num", "negative-vpow", "repeated-key", "wrong-format", "str-count", "lost-term",
        "short-body", "trailing-bytes", "huge-count", "huge-length",
    ],
)
def test_malformed_cache_entry_is_rewritten(capsys, fresh_memo, tmp_path, damage):
    # f_3 reads J_2, the integral of the entry Bcal_{>2}, so a --kmax 3 run rebuilds it
    fresh, cache = tmp_path / "fresh", tmp_path / "cache"
    _, cold, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(fresh))
    run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
    entry = cache / "leaf_pair_tail.2.bin"
    entry.write_bytes(damage(entry.read_bytes()))
    fresh_memo()
    code, out, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
    assert code == 0
    assert out == cold
    assert entry.read_bytes() == (fresh / "leaf_pair_tail.2.bin").read_bytes()


def test_a_malformed_entry_no_level_needs_gives_way_to_its_right_hand_side(
    capsys, fresh_memo, tmp_path
):
    # Bhat_3's cached right-hand side spares a --kmax 3 run Bhat_2, so g_2
    # integrates rhs^hat_2 in its place, as a --kmax 2 run does
    top, fresh, cache = tmp_path / "top", tmp_path / "fresh", tmp_path / "cache"
    run(capsys, "constants", "--kmax", "2", "--cache-dir", str(top))
    fresh_memo()
    _, cold, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(fresh))
    run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
    entry = cache / "closest_leaf.2.bin"
    entry.write_bytes(entry.read_bytes()[:-1])
    fresh_memo()
    code, out, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
    assert code == 0
    assert out == cold
    assert not entry.exists()
    rhs = "closest_leaf.2.rhs.bin"
    assert (cache / rhs).read_bytes() == (top / rhs).read_bytes()


@pytest.mark.parametrize(
    "damage",
    [
        _terms(lambda head, terms: ({**head, "den": "0"}, terms)),
        _terms(_times_three),
        _terms(lambda head, terms: ({k: v for k, v in head.items() if k != "rhs"}, terms)),
        _terms(lambda head, terms: ({**head, "rhs": 1}, terms)),
        lambda data: data[:-1],
    ],
    ids=["zero-den", "shared-factor", "no-rhs-flag", "int-rhs-flag", "short-body"],
)
def test_malformed_right_hand_side_is_rewritten(capsys, fresh_memo, tmp_path, damage):
    # a --kmax 2 run caches the right-hand side of Bhat_2, not the entry
    fresh, cache = tmp_path / "fresh", tmp_path / "cache"
    _, cold, _ = run(capsys, "constants", "--kmax", "2", "--cache-dir", str(fresh))
    run(capsys, "constants", "--kmax", "2", "--cache-dir", str(cache))
    entry = cache / "closest_leaf.2.rhs.bin"
    assert _decode(entry.read_bytes())[0]["rhs"] is True
    entry.write_bytes(damage(entry.read_bytes()))
    fresh_memo()
    code, out, _ = run(capsys, "constants", "--kmax", "2", "--cache-dir", str(cache))
    assert code == 0
    assert out == cold
    assert entry.read_bytes() == (fresh / "closest_leaf.2.rhs.bin").read_bytes()
    assert not (cache / "closest_leaf.2.bin").exists()


def test_a_right_hand_side_and_an_entry_under_each_other_s_name_are_rejected(
    capsys, fresh_memo, tmp_path
):
    fresh, cache = tmp_path / "fresh", tmp_path / "cache"
    _, cold, _ = run(capsys, "constants", "--kmax", "2", "--cache-dir", str(fresh))
    run(capsys, "constants", "--kmax", "2", "--cache-dir", str(cache))
    (cache / "closest_leaf.2.rhs.bin").rename(cache / "closest_leaf.2.bin")
    (cache / "closest_leaf.1.bin").rename(cache / "closest_leaf.1.rhs.bin")
    fresh_memo()
    accepted = set()
    loaded = cli.load_cache(cache, accepted)
    assert cache / "closest_leaf.2.bin" not in accepted
    assert cache / "closest_leaf.1.rhs.bin" not in accepted
    assert loaded == len(accepted) == len(list(fresh.iterdir())) - 2
    assert ("closest_leaf", 1) not in genfun.cache_snapshot()
    assert ("closest_leaf", 2, "rhs") not in genfun.cache_snapshot()
    fresh_memo()
    code, out, _ = run(capsys, "constants", "--kmax", "2", "--cache-dir", str(cache))
    assert code == 0
    assert out == cold
    # both are rewritten where they belong, and each misnamed file is removed
    # by the file of the same (kind, k) that the memo holds
    names = sorted(p.name for p in cache.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    for path in fresh.iterdir():
        assert (cache / path.name).read_bytes() == path.read_bytes()


def test_an_entries_only_cache_gives_identical_stdout(capsys, fresh_memo, tmp_path):
    # a cache written before right-hand sides were cached holds level 3's entries
    fresh, cache = tmp_path / "fresh", tmp_path / "cache"
    _, cold, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(fresh))
    for kind in ("root_rank", "leaf_pair_tail", "closest_leaf"):
        genfun.gf_by_kind(kind, 3)
    assert cli.save_cache(cache) == len(genfun.cache_snapshot())
    names = sorted(p.name for p in cache.iterdir())
    assert not any(name.endswith(".rhs.bin") for name in names)
    fresh_memo()
    code, out, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
    assert code == 0
    assert out == cold
    assert sorted(p.name for p in cache.iterdir()) == names


def test_a_run_one_level_higher_builds_the_entry_from_the_cached_right_hand_side(
    capsys, fresh_memo, monkeypatch, tmp_path
):
    cache = tmp_path / "cache"
    run(capsys, "constants", "--kmax", "6", "--cache-dir", str(cache))
    assert (cache / "root_rank.6.rhs.bin").exists() and not (cache / "root_rank.6.bin").exists()
    fresh_memo()
    built = []
    for kind, family in genfun._FAMILIES.items():
        def rhs(k, kind=kind, real=family.rhs):
            built.append((kind, k))
            return real(k)

        monkeypatch.setitem(genfun._FAMILIES, kind, family._replace(rhs=rhs))
    code, out, _ = run(capsys, "constants", "--kmax", "7", "--cache-dir", str(cache))
    assert code == 0
    assert out == (GOLDEN / "constants-kmax7.json").read_text()
    # level 6's entries come from the cached right-hand sides; B_{<=6}, which
    # a --kmax 6 run does not need, and level 7 are the only products
    assert sorted(built) == [
        ("closest_leaf", 7), ("leaf_pair_tail", 7), ("root_rank", 7), ("root_rank_cdf", 6)
    ]
    for kind in ("root_rank", "leaf_pair_tail", "closest_leaf"):
        assert (cache / f"{kind}.6.bin").exists() and not (cache / f"{kind}.6.rhs.bin").exists()
        assert (cache / f"{kind}.7.rhs.bin").exists()


def _format_2_text(kind, k, expr):
    # an entry of the previous format: JSON lines, a head and one hex term a line
    items, den = expr.parts()
    head = {"count": len(items), "den": f"{den:x}", "format": "ranktree-plexpr/2", "k": k, "kind": kind}
    return json.dumps(head, sort_keys=True) + "\n" + "".join(f'[{b}, {c}, "{n:x}"]\n' for (b, c), n in items)


def test_format_2_entries_are_neither_loaded_nor_removed(capsys, fresh_memo, tmp_path):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    _, cold, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(fresh))
    old.mkdir()
    # a canonical but wrong g_2 entry (the constant term one larger), and one cut short
    items, den = genfun.closest_leaf_gf(2).parts()
    wrong = PLExpr.from_parts([(key, n + (key == (0, 0))) for key, n in items], den)
    assert wrong != genfun.closest_leaf_gf(2)
    texts = {
        "closest_leaf.2.json": _format_2_text("closest_leaf", 2, wrong),
        "root_rank.2.json": _format_2_text("root_rank", 2, genfun.root_rank_gf(2))[:40],
    }
    for name, text in texts.items():
        (old / name).write_text(text)
    fresh_memo()
    assert cli.load_cache(old) == 0
    code, out, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(old))
    assert code == 0
    assert out == cold
    assert {name: (old / name).read_text() for name in texts} == texts
    assert sorted(p.name for p in old.glob("*.bin")) == sorted(p.name for p in fresh.iterdir())


def test_a_cache_that_cannot_be_written_is_one_warning(capsys, fresh_memo, tmp_path):
    # the values are printed, complete and exact, before the cache is written
    fresh, cache = tmp_path / "fresh", tmp_path / "cache"
    _, cold, _ = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(fresh))
    (cache / "closest_leaf.0.bin").mkdir(parents=True)  # the first file written
    fresh_memo()
    code, out, err = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
    assert code == cli.EXIT_OK
    assert out == cold
    # one line, naming the file not written by its final path and counting the others
    others = {p.name for p in fresh.iterdir()} - {"closest_leaf.0.bin"}
    assert err.startswith(f"warning: cache incomplete: {cache / 'closest_leaf.0.bin'} not written (")
    assert err.endswith(f"); {len(others)} other files saved\n") and err.count("\n") == 1
    assert ".tmp" not in err
    # every other file of the memo is written, and a second run loads them all
    assert {p.name for p in cache.iterdir() if p.is_file()} == others
    assert all((cache / name).read_bytes() == (fresh / name).read_bytes() for name in others)
    fresh_memo()
    accepted = set()
    assert cli.load_cache(cache, accepted) == len(others)
    assert {p.name for p in accepted} == others


def test_several_cache_files_that_fail_are_counted_in_the_one_warning(capsys, fresh_memo, tmp_path):
    # a directory where an entry goes, and one where a right-hand side's stale entry is removed
    (tmp_path / "closest_leaf.0.bin").mkdir()
    (tmp_path / "closest_leaf.1.bin" / "x").mkdir(parents=True)
    code, _, err = run(capsys, "constants", "--kmax", "1", "--cache-dir", str(tmp_path))
    assert code == cli.EXIT_OK
    saved = len(genfun.cache_snapshot()) - 2
    assert err == (
        f"warning: cache incomplete: {tmp_path / 'closest_leaf.0.bin'} not written "
        f"({os.strerror(errno.EISDIR)}), and 1 more; {saved} other files saved\n"
    )
    assert (tmp_path / "closest_leaf.1.rhs.bin").is_file()


def test_misnamed_cache_entry_is_not_accepted(tmp_path):
    genfun.root_rank_gf(2)
    cli.save_cache(tmp_path)
    (tmp_path / "root_rank.2.bin").rename(tmp_path / "root_rank.9.bin")
    accepted = set()
    loaded = cli.load_cache(tmp_path, accepted)
    assert tmp_path / "root_rank.9.bin" not in accepted
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
    monkeypatch.setattr(genfun, "constants_table", lambda kmax: [row])
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
    (tmp_path / "junk.bin").write_text("{not json")
    (tmp_path / "other.bin").write_text('{"format": "something-else"}\n')
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


def test_a_rho_past_the_float_range_is_a_usage_error(capsys):
    # the moment ratio is about rho^(n-1), whose approx has no float
    code, out, err = run(capsys, "oracle", "--n", "10", "--kmax", "1", "--rho", "1e400")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: ") and "past the float range" in err
    assert err.count("\n") == 1


def test_a_rho_whose_ratio_must_be_past_the_float_range_is_refused_before_any_dp(capsys, monkeypatch):
    def no_dp(*args, **kwargs):
        raise AssertionError("the DP ran before --rho was refused")

    for name in ("moment_gf_ratio", "expected_rank_counts", "root_rank_tail"):
        monkeypatch.setattr(cli.oracle, name, no_dp)
    code, out, err = run(capsys, "oracle", "--n", "10", "--kmax", "1", "--rho", "1e400")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "usage error: the moment ratio, at least 2^11942, is past the float range\n"


@pytest.mark.parametrize("n", [1, 2, 10, 40])
def test_the_early_rho_refusal_rests_on_a_bound_below_the_ratio(monkeypatch, n):
    # rho^(n-1)·2^(n-1)/(n·n!) is one term of the ratio, and the others are >= 0;
    # a fresh engine, since an earlier test may leave the shared one on a large n
    monkeypatch.setattr(cli.oracle, "_DEFAULT", cli.oracle.RankDP())
    rho = Rational(7, 5)
    bound = rho ** (n - 1) * 2 ** (n - 1) / (n * math.factorial(n))
    assert cli.oracle.moment_gf_ratio(n, rho) >= bound
    assert cli.oracle.expected_rank_counts(n, n)[n - 1] == Rational(2 ** (n - 1), math.factorial(n))


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
    **{
        f"{subcommand}-rho-{name}": (argv, "--rho: must be positive")
        for subcommand, head in [("oracle", ["oracle", "--n", "600", "--kmax", "5"]), ("verify", ["verify"])]
        for name, argv in [("0", head + ["--rho", "0"]), ("negative", head + ["--rho=-1/2"])]
    },
    # a file at the cache directory or above it: refused before the work, not after it
    **{
        name: (
            ["constants", "--kmax", "1", "--cache-dir", path],
            f"argument --cache-dir: {__file__!r} is not a directory",
        )
        for name, path in [("cache-dir-file", __file__), ("cache-dir-under-file", f"{__file__}/cache")]
    },
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


def test_oracle_series_order_keeps_to_the_kmax_ceiling(capsys, monkeypatch, fresh_memo):
    # the series check builds B_{<=0..kmax}: the same exact work as constants
    monkeypatch.setattr(cli, "STRETCH_KMAX", 3)
    monkeypatch.setattr(cli, "DEFAULT_KMAX", 2)
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


def _damage_entry(entry, damage):
    entry.write_bytes(_terms(damage)(entry.read_bytes()))


def test_a_divergent_cache_entry_exits_3(capsys, fresh_memo, tmp_path):
    # a canonical entry with a wrong exponent: c_3's integral of u·B_3 then
    # diverges, which valid input never makes happen; B_3 is an entry of a
    # --kmax 4 run, since rhs_4 of B_4 reads it
    cache = tmp_path / "cache"
    run(capsys, "constants", "--kmax", "4", "--cache-dir", str(cache))

    def move_to_u_cubed_below(head, terms):
        i = terms.index([1, 0, 0x5F172AEB742C])
        return head, [*terms[:i], [-3, *terms[i][1:]], *terms[i + 1 :]]

    _damage_entry(cache / "root_rank.3.bin", move_to_u_cubed_below)
    fresh_memo()
    code, out, err = run(capsys, "constants", "--kmax", "4", "--cache-dir", str(cache))
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert "internal inconsistency: term u^-2 v^0 diverges on [0, 1]" in err
    assert "usage error" not in err


def test_a_changed_divergent_tail_term_exits_3(capsys, fresh_memo, tmp_path):
    # f_2 integrates the tails Bcal_{>1} and Bcal_{>2} apart; their terms at
    # u^-2, whose integrals against u diverge, must be equal, and one is not
    cache = tmp_path / "cache"
    run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))

    def one_more_at_u_squared_below(head, terms):
        assert terms[0][:2] == [-2, 0]
        return _first_term(head, terms, n=terms[0][2] + 1)

    _damage_entry(cache / "leaf_pair_tail.2.bin", one_more_at_u_squared_below)
    fresh_memo()
    code, out, err = run(capsys, "constants", "--kmax", "3", "--cache-dir", str(cache))
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert "internal inconsistency: term u^-1 v^0 diverges on [0, 1]" in err


def _one_more(head, terms):
    # the first numerator one larger: still canonical, so the loader takes it
    return _first_term(head, terms, n=terms[0][2] + 1)


def _u_cubed_below(head, terms):
    # the first v-free term with b >= 0 moved to b = -3, where no term is
    i = next(i for i, (b, c, _) in enumerate(terms) if b >= 0 and c == 0)
    return head, [*terms[:i], [-3, *terms[i][1:]], *terms[i + 1 :]]


@pytest.mark.parametrize(
    "entry, damage, message",
    [
        # the integral route reads B_3, the partial-sum route B_{<=2}
        ("root_rank.3.bin", _one_more, "c_3: the partial-sum route disagrees modulo "),
        ("root_rank_cdf.2.bin", _one_more, "c_3: the partial-sum route disagrees modulo "),
        # u·B_{<=2} then has a term at u^-2, whose square is at u^-4
        ("root_rank_cdf.2.bin", _u_cubed_below, "term u^-4 v^0 diverges on [0, 1]"),
        # c_4 integrates the cached right-hand side of B_4
        ("root_rank.4.rhs.bin", _one_more, "c_4: the partial-sum route disagrees modulo "),
    ],
    ids=["root-rank-numerator", "cdf-numerator", "cdf-divergent", "root-rank-rhs-numerator"],
)
def test_a_cache_entry_that_breaks_a_route_to_c_k_exits_3(
    capsys, fresh_memo, tmp_path, entry, damage, message
):
    # B_3 and B_{<=2} are entries of a --kmax 4 run: rhs_4 and c_3's square read them
    cache = tmp_path / "cache"
    run(capsys, "constants", "--kmax", "4", "--cache-dir", str(cache))
    _damage_entry(cache / entry, damage)
    fresh_memo()
    code, out, err = run(capsys, "constants", "--kmax", "4", "--cache-dir", str(cache))
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert f"internal inconsistency: {message}" in err


def _weights_one_row_off(monkeypatch):
    real = plring._integral_weights
    monkeypatch.setattr(plring, "_integral_weights", lambda b0, *rest: real(b0 + 1, *rest))


def _prime_three_in_the_check(monkeypatch):
    moduli = residues.Moduli(2**40)
    moduli.q = np.array([3, *moduli.q[1:]], np.int64)
    monkeypatch.setattr(genfun, "_check_moduli", lambda: moduli)


@pytest.mark.parametrize(
    "breaker, message",
    [
        (_weights_one_row_off, "c_0: the partial-sum route disagrees modulo "),
        # c_0 passes modulo 3; the square of 1 - u·B_{<=0} has a cell at b = 2
        (_prime_three_in_the_check, "a prime of [3, "),
    ],
    ids=["weights-off-by-one", "prime-three"],
)
def test_a_broken_modular_check_exits_3(capsys, monkeypatch, fresh_memo, breaker, message):
    breaker(monkeypatch)
    code, out, err = run(capsys, "constants", "--kmax", "2")
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert f"internal inconsistency: {message}" in err


def test_a_residue_capacity_refusal_mid_run_exits_3(capsys, monkeypatch, fresh_memo):
    # valid input, refused in the middle of the run: not a usage error
    monkeypatch.setattr(plring, "_RESIDUE_PAIRS", 1)  # every product by residues
    monkeypatch.setattr(residues, "_TERMS", 4)
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
