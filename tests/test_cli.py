"""Command-line behavior: output shapes, exit codes, determinism."""

import hashlib
import json
import shutil
import time

import pytest

from matroid_forge import cli
from matroid_forge.cli import main
from matroid_forge.formats import parse_matroid_text, serialize_matroid
from matroid_forge.minors import fano_matroid

from hosts import host
from test_formats import BAD_TEXTS, refusal_id


@pytest.fixture(scope="module")
def paths(data_dir):
    return {
        "m": str(data_dir / "M.matroid"),
        "n": str(data_dir / "N.matroid"),
        "a": str(data_dir / "A.matrix"),
        "a2": str(data_dir / "yuzvinsky_a2.matrix"),
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_or_exit(capsys, argv):
    """Like :func:`run`, but an argparse exit becomes its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_reused_unchanged(capsys, paths):
    calls = [
        ["validate", paths["m"]],
        ["flats", paths["m"], "--rank", "2", "--json"],
        ["erect", paths["m"]],  # no mode: an argparse error
        ["minor", paths["n"], paths["m"]],
        ["charpoly", paths["m"], "--json"],
        ["flats", paths["n"], "--rank", "x"],
        ["validate", paths["n"], "--json"],
        ["minor", "--help"],
    ]
    cli._build_parser.cache_clear()
    shared = [run_or_exit(capsys, argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_or_exit(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 1, 0, 2, 0, 0]
    assert "required" in shared[2][2]
    assert "invalid int value" in shared[5][2]


# -- validate -----------------------------------------------------------------

def test_validate_ok(capsys, paths):
    code, out, _ = run(capsys, "validate", paths["m"])
    assert code == 0
    assert out == "ok: simple rank-3 matroid on 13 elements, 271 bases\n"


def test_validate_json(capsys, paths):
    code, out, _ = run(capsys, "validate", paths["n"], "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"valid": True, "n": 13, "rank": 4,
                   "bases": 494, "simple": True}


def test_validate_invalid_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.matroid"
    bad.write_text("n 5\nrank 3\nflat 2 0 3\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert out.startswith("invalid:")


@pytest.mark.parametrize("text, message", [
    pytest.param(text, message, id=refusal_id(kind, message))
    for kind, text, message in BAD_TEXTS if kind == "matroid"][::4])
@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_validate_reports_the_exact_refusal(capsys, tmp_path, text, message, flags):
    bad = tmp_path / "bad.matroid"
    bad.write_text(text)
    code, out, err = run(capsys, "validate", str(bad), *flags)
    assert code == 1 and err == ""
    error = message.format(source=bad)
    if flags:
        assert json.loads(out) == {"valid": False, "error": error}
    else:
        assert out == f"invalid: {error}\n"


def test_basis_listing_past_the_budget_fails_fast(capsys, tmp_path):
    # C(64, 32) rank-subsets: validate says invalid, flats cannot answer
    big = tmp_path / "big.matroid"
    big.write_text("n 64\nrank 32\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "validate", str(big))
    assert code == 1
    assert out.startswith("invalid:") and "exceeded" in out
    code, _, err = run(capsys, "flats", str(big), "--rank", "2")
    assert code == 2
    assert err.startswith("error:") and "exceeded" in err
    assert time.perf_counter() - start < 1


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.matroid")
    assert code == 2
    assert err.startswith("error:")


# -- flats ----------------------------------------------------------------------

def test_flats_text(capsys, paths):
    code, out, _ = run(capsys, "flats", paths["m"], "--rank", "2",
                       "--min-size", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    assert lines[0] == "{0,3,9}"


def test_flats_json(capsys, paths):
    code, out, _ = run(capsys, "flats", paths["m"], "--rank", "2",
                       "--min-size", "3", "--json")
    doc = json.loads(out)
    assert len(doc["flats"]) == 15


def test_bad_matroid_input_exits_2(capsys, tmp_path, paths):
    bad = tmp_path / "bad.matroid"
    bad.write_text("n 5\nrank 3\nflat 2 0 3\n")
    code, _, err = run(capsys, "flats", str(bad), "--rank", "2")
    assert code == 2
    assert err.startswith("error:")


# -- erect -----------------------------------------------------------------------

def test_erect_all(capsys, paths):
    code, out, _ = run(capsys, "erect", paths["m"], "--all")
    assert code == 0
    assert out.splitlines() == [
        "2 erections of a rank-3 matroid on 13 elements",
        "[0] rank 3, 271 bases (trivial)",
        "[1] rank 4, 494 bases",
        "free erection: [1]",
    ]


def test_erect_free_roundtrips(capsys, paths, rank4_matroid):
    code, out, _ = run(capsys, "erect", paths["m"], "--free")
    assert code == 0
    assert parse_matroid_text(out) == rank4_matroid


def test_erect_free_past_the_census_cap(capsys, tmp_path):
    """U(3,20) erects freely to U(4,20); PG(2,4) and PG(2,5) are taut."""
    texts = {name: serialize_matroid(host(name)) for name in ("U(3,20)", "PG(2,4)", "PG(2,5)")}
    outputs = {}
    for name, text in texts.items():
        path = tmp_path / "host.matroid"
        path.write_text(text)
        code, outputs[name], _ = run(capsys, "erect", str(path), "--free")
        assert code == 0, name
    u420 = parse_matroid_text(outputs["U(3,20)"])
    assert (u420.n, u420.rank, len(u420.basis_masks)) == (20, 4, 4845)
    for name in ("PG(2,4)", "PG(2,5)"):
        assert outputs[name] == serialize_matroid(parse_matroid_text(texts[name]))


def test_erect_all_past_the_census_cap_on_a_taut_plane(capsys, tmp_path):
    path = tmp_path / "pg25.matroid"
    path.write_text(serialize_matroid(host("PG(2,5)")))
    code, out, _ = run(capsys, "erect", str(path), "--all")
    assert code == 0
    assert out.splitlines() == [
        "1 erections of a rank-3 matroid on 31 elements",
        "[0] rank 3, 3875 bases (trivial)",
        "free erection: [0]",
    ]


def test_erect_requires_mode(paths):
    with pytest.raises(SystemExit):
        main(["erect", paths["m"]])


# -- formality / charpoly ----------------------------------------------------------

def test_formality_text(capsys, paths):
    code, out, _ = run(capsys, "formality", paths["a"])
    assert code == 0
    assert out.splitlines() == [
        "kernel dimension     10",
        "weight-3 dimension   10",
        "matrix rank          3",
        "formalization rank   3",
        "verdict              formal",
    ]


def test_formality_negative_json(capsys, paths):
    code, out, _ = run(capsys, "formality", paths["a2"], "--json")
    doc = json.loads(out)
    assert doc["formal"] is False
    assert doc["formalization_rank"] == 4


@pytest.mark.parametrize("key", ["a", "a2"])
@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_formality_computes_one_relation_space(capsys, paths, spy, key, flags):
    from matroid_forge import linalg
    # both names: the command's own and the one formalization and is_formal use
    calls = spy(linalg, "weight3_subspace", cli)
    code, _, _ = run(capsys, "formality", paths[key], *flags)
    assert code == 0
    assert len(calls) == 1


def test_formality_zero_column_exits_2(capsys, tmp_path):
    zero = tmp_path / "zero.matrix"
    zero.write_text("field Q\nrows 2\ncols 3\n1 0 0\n0 1 0\n")
    code, out, err = run(capsys, "formality", str(zero))
    assert code == 2
    assert out == ""
    assert err == "error: column(s) 2 are zero functionals\n"


def test_formality_bare_rows_line_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.matrix"
    bad.write_text("field Q\nrows\ncols 1\n1\n")
    code, out, err = run(capsys, "formality", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}:2: rows takes one value\n"


def test_charpoly_text(capsys, paths):
    code, out, _ = run(capsys, "charpoly", paths["m"])
    assert code == 0
    assert out == "t^3 - 13*t^2 + 63*t - 51\ninteger roots: none\n"


def test_charpoly_lists_integer_roots(capsys, tmp_path):
    # U(3,3) is free: chi = (t - 1)^3
    free = tmp_path / "u33.matroid"
    free.write_text("n 3\nrank 3\n")
    code, out, _ = run(capsys, "charpoly", str(free))
    assert code == 0
    assert out == "t^3 - 3*t^2 + 3*t - 1\ninteger roots: 1, 1, 1\n"


def test_huge_prime_field_answers_fast(capsys, tmp_path):
    big = tmp_path / "big.matrix"
    big.write_text("field GF 2305843009213693951\nrows 2\ncols 3\n"
                   "1 0 1\n0 1 1\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "formality", str(big))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[-1] == "verdict              formal"


def test_prime_beyond_certified_range_exits_2(capsys, tmp_path):
    big = tmp_path / "big.matrix"
    big.write_text(f"field GF {2 ** 89 - 1}\nrows 1\ncols 1\n1\n")
    code, _, err = run(capsys, "formality", str(big))
    assert code == 2
    assert err.startswith("error:")
    assert "exceeds" in err


def test_exponent_entry_exits_2_fast(capsys, tmp_path):
    huge = tmp_path / "huge.matrix"
    huge.write_text("field Q\nrows 1\ncols 3\n1/2 -3 1e100000000\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "formality", str(huge))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "1e100000000" in err


def test_rational_entries_still_parse(capsys, tmp_path):
    ok = tmp_path / "ok.matrix"
    ok.write_text("field Q\nrows 2\ncols 3\n1/2 -3 2/4\n0 1 1\n")
    code, out, _ = run(capsys, "formality", str(ok))
    assert code == 0
    assert out.splitlines()[-1] == "verdict              formal"


# -- minor / obstruction ------------------------------------------------------------

def test_minor_found(capsys, paths):
    code, out, _ = run(capsys, "minor", paths["n"], paths["n"])
    assert code == 0
    assert out == "minor found: contract {}, delete {}\n"


def test_minor_not_found_exits_1(capsys, paths):
    code, out, _ = run(capsys, "minor", paths["n"], paths["m"])
    assert code == 1
    assert out == "no minor found\n"


@pytest.mark.parametrize("host, target", [
    ("n 3\nrank 2\n", "n 2\nrank 1\n"),
    ("n 3\nrank 1\nbasis 1\nbasis 2\n", "n 2\nrank 1\nbasis 1\n"),
], ids=["U(1,2)-in-U(2,3)", "loop+coloop"])
def test_minor_non_simple_target_exits_2(capsys, tmp_path, host, target):
    (tmp_path / "host.matroid").write_text(host)
    (tmp_path / "target.matroid").write_text(target)
    code, out, err = run(capsys, "minor", str(tmp_path / "host.matroid"),
                         str(tmp_path / "target.matroid"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "simple targets" in err


def test_minor_json(capsys, paths):
    code, out, _ = run(capsys, "minor", paths["n"], paths["m"], "--json")
    assert code == 1
    assert json.loads(out) == {"found": False}


def test_obstruction_text(capsys, paths):
    code, out, _ = run(capsys, "obstruction", paths["n"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: no-field"
    assert lines[1].startswith("char-2 minor: contract {6}, delete {10,12}")
    assert lines[2] == "char-not-2 minor: contract {}, delete {0,1,2,3,4,5}"


def test_obstruction_json(capsys, paths):
    code, out, _ = run(capsys, "obstruction", paths["m"], "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "char-not-2-only"
    assert doc["fano"] is None
    assert doc["nonfano"]["delete"] == [0, 1, 2, 3, 4, 5]


# -- reproduce -----------------------------------------------------------------------

def test_reproduce_deterministic(capsys):
    code1, out1, _ = run(capsys, "reproduce")
    code2, out2, _ = run(capsys, "reproduce")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "overall                 PASS    12/12 checks passed" in out1
    assert "timing" not in out1


def test_reproduce_json(capsys):
    code, out, _ = run(capsys, "reproduce", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] is True
    assert doc["total"] == 12
    assert [c["name"] for c in doc["checks"]][:3] == [
        "m-wellformed", "realization", "erections"]


def test_reproduce_timing_lines(capsys):
    code, out, _ = run(capsys, "reproduce", "--timing")
    assert code == 0
    timing_lines = [l for l in out.splitlines() if l.startswith("timing")]
    assert len(timing_lines) == 12


def test_reproduce_negative_control(capsys, data_dir, tmp_path):
    # removing one plane from the rank-4 file must fail the erections check
    for p in data_dir.iterdir():
        shutil.copy(p, tmp_path / p.name)
    target = tmp_path / "N.matroid"
    lines = target.read_text().splitlines()
    first_plane = next(i for i, l in enumerate(lines) if l.startswith("flat 3"))
    del lines[first_plane]
    target.write_text("\n".join(lines) + "\n")

    code, out, _ = run(capsys, "reproduce", "--data", str(tmp_path))
    assert code == 1
    erections_line = next(l for l in out.splitlines()
                          if l.startswith("erections"))
    assert "FAIL" in erections_line
    assert "overall                 FAIL" in out


def test_reproduce_refuses_a_set_element_past_the_ground_cap(capsys, data_dir, tmp_path):
    # the element is read and refused before any bitmask is built
    for p in data_dir.iterdir():
        shutil.copy(p, tmp_path / p.name)
    with open(tmp_path / "spurious_blocks.sets", "a") as sets:
        sets.write("0 1 1000000\n")

    code, out, _ = run(capsys, "reproduce", "--data", str(tmp_path))
    assert code == 1
    rows = {l.split()[0]: l.split(None, 2)[1:] for l in out.splitlines()[2:14]}
    failed = {name for name, (status, _) in rows.items() if status == "FAIL"}
    assert failed == {"candidate-census", "crapo-conditions"}
    for name in failed:
        assert rows[name][1].startswith("FormatError: "), rows[name]
        assert rows[name][1].endswith("set element out of range"), rows[name]
    assert "overall                 FAIL    10/12 checks passed" in out


def test_budget_env_invalid(capsys, monkeypatch, paths):
    monkeypatch.setenv("MATROID_FORGE_BUDGET", "lots")
    code, _, err = run(capsys, "erect", paths["m"], "--all")
    assert code == 2
    assert "MATROID_FORGE_BUDGET" in err


def test_budget_env_zero(capsys, monkeypatch, paths):
    monkeypatch.setenv("MATROID_FORGE_BUDGET", "0")
    code, out, err = run(capsys, "erect", paths["m"], "--all")
    assert code == 2
    assert out == ""
    assert err == "error: MATROID_FORGE_BUDGET must be positive, got 0\n"


def test_budget_env_tiny(capsys, monkeypatch, paths):
    monkeypatch.setenv("MATROID_FORGE_BUDGET", "1")
    code, _, err = run(capsys, "erect", paths["m"], "--all")
    assert code == 2
    assert "exceeded" in err


def test_budget_env_generous(capsys, monkeypatch, paths):
    monkeypatch.setenv("MATROID_FORGE_BUDGET", "100000000")
    code, _, _ = run(capsys, "erect", paths["m"], "--all")
    assert code == 0


# -- golden output ---------------------------------------------------------------

# SHA-256 of the stdout of each bundled command, recorded when the output
# was last declared correct; any change to default output must update these
# deliberately.
GOLDEN = {
    "validate-M": (["validate", "{m}"],
                   "d7a9f765b80675b655d30fbf1c4df00ccdf0b36c0db7a1b0e9d84f90ca542a89"),
    "validate-N": (["validate", "{n}"],
                   "9a7afdcd5d14fb3d59540776bf3c12398ccad2c8aaeec60bd6b2d225899b25f0"),
    "flats-M": (["flats", "{m}", "--rank", "2"],
                "0a803e5b70c8025a67b1277ace7d7f390fd3437ca473b636bafc424f2e5cd18e"),
    "erect-all": (["erect", "{m}", "--all"],
                  "bc63318884deff31ed83c591ceddbb34366328d54b476e1a58f03552f6226066"),
    "erect-free": (["erect", "{m}", "--free"],
                   "f0f67922fc23d314271967a5c119df3957a170bfa71d479aacd41e066ad0edf1"),
    "erect-all-json": (["erect", "{m}", "--all", "--json"],
                       "47fe317e5b17444e122807786f635eb3dc18dd590e801b6ff4ad42c14609f99d"),
    "erect-free-json": (["erect", "{m}", "--free", "--json"],
                        "0d588c6babf9dd07af6e7c3063f4f4a72aa9d7632696da1e248e8902dba81b0d"),
    "formality-A": (["formality", "{a}"],
                    "8fca1687a0ea7a85ec8d4c53633c0cb704b8646fa042ff39a3d6b798431bc41e"),
    "formality-yuzvinsky": (["formality", "{a2}"],
                            "3f857b50fc8b76832dcad60a1addab72386c19fe986253fb2443fe62d862fa9e"),
    "charpoly-M": (["charpoly", "{m}"],
                   "45f5422fafccb24c23449dec6c81e25cdbd55f8b6e2d1fedfff76af7ad612e5c"),
    "minor-N-fano": (["minor", "{n}", "{fano}"],
                     "6bbe3bfefb063a608628175cd743c1369f72091e4964ac63ba628c7a232b0f1c"),
    "obstruction-N": (["obstruction", "{n}"],
                      "94c1a748ac54880f9ab32c99ee8e35537a379579eb4a5930cf40ba020a118be3"),
    "reproduce": (["reproduce"],
                  "169c41bb20d22d45707ff0e75c0094b1919657644fb768cb9bf980e2840e1ba1"),
    # the JSON mirrors carry each witness's iso, which the text leaves out
    "minor-N-fano-json": (["minor", "--json", "{n}", "{fano}"],
                          "21a96bf13c16b3c9884d29329d3b40d6b65c52fecff44e3eee960cd41169acf4"),
    "obstruction-N-json": (["obstruction", "--json", "{n}"],
                           "ec0e5ea8e1deb7da936e86f9e59dfb8bd149d531b8d6d2d1826d006da4ae79b8"),
    "reproduce-json": (["reproduce", "--json"],
                       "c0cc1d217ef80a61c7b3904a441c5f41f18f6de025024761f76a115381a242d1"),
}


def test_golden_output(capsys, paths, tmp_path):
    fano = tmp_path / "fano.matroid"
    fano.write_text(serialize_matroid(fano_matroid()))
    files = dict(paths, fano=str(fano))
    changed = []
    for label, (argv, digest) in GOLDEN.items():
        code, out, _ = run(capsys, *(arg.format(**files) for arg in argv))
        assert code == 0, label
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(label)
    assert changed == []
