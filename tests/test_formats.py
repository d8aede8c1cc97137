"""Text formats: grammar, error positions, canonical round-trips."""

import pytest

from matroid_forge.errors import FormatError, ValidationError
from matroid_forge.formats import (
    bundled_data_dir,
    load_matrix,
    load_matroid,
    load_sets,
    parse_matrix_text,
    parse_matroid_text,
    parse_sets_text,
    serialize_matrix,
    serialize_matroid,
    serialize_sets,
)
from matroid_forge.linalg import PrimeField, Rationals
from matroid_forge.matroid import contract
from matroid_forge.minors import fano_matroid


# -- matroid files -------------------------------------------------------------

def test_parse_flat_style():
    text = "n 4\nrank 3\nflat 2 0 1 2\n"
    m = parse_matroid_text(text)
    assert (m.n, m.rank) == (4, 3)
    assert m.flats_at(2, min_size=3) == ((0, 1, 2),)


def test_parse_basis_style():
    m = parse_matroid_text("n 3\nrank 2\nbasis 0 1\nbasis 0 2\n")
    assert (m.n, m.rank) == (3, 2)
    assert not m.is_simple


def test_parse_free_matroid():
    m = parse_matroid_text("n 3\nrank 2\n")
    assert len(m.basis_masks) == 3


def test_comments_and_blank_lines():
    text = "# header\nn 3\n\nrank 2  # inline\n"
    assert parse_matroid_text(text).n == 3


def test_serialize_simple_uses_flats():
    text = serialize_matroid(fano_matroid())
    assert "flat 2 0 1 5" in text
    assert "basis" not in text
    assert parse_matroid_text(text) == fano_matroid()


def test_serialize_non_simple_uses_bases():
    c = contract(fano_matroid(), (0,))
    text = serialize_matroid(c)
    assert "basis" in text and "flat" not in text
    assert parse_matroid_text(text) == c


@pytest.mark.parametrize("name", ["M.matroid", "N.matroid"])
def test_bundled_matroids_roundtrip(data_dir, name):
    m = load_matroid(data_dir / name)
    assert parse_matroid_text(serialize_matroid(m)) == m


def test_unknown_directive_with_line():
    with pytest.raises(FormatError) as err:
        parse_matroid_text("n 3\nrank 2\nwhatever 1\n", source="f.matroid")
    assert err.value.line == 3
    assert str(err.value).startswith("f.matroid:3:")


def test_duplicate_directive_rejected():
    with pytest.raises(FormatError):
        parse_matroid_text("n 3\nn 4\nrank 2\n")


def test_mixed_styles_rejected():
    with pytest.raises(FormatError):
        parse_matroid_text("n 4\nrank 3\nflat 2 0 1 2\nbasis 0 1 3\n")


def test_trivial_flat_rejected():
    with pytest.raises(FormatError) as err:
        parse_matroid_text("n 5\nrank 3\nflat 2 0 3\n")
    assert err.value.line == 3


def test_out_of_range_element_rejected():
    with pytest.raises(FormatError):
        parse_matroid_text("n 3\nrank 2\nbasis 0 7\n")


def test_inconsistent_flats_forward_validation_error():
    with pytest.raises(ValidationError):
        parse_matroid_text("n 5\nrank 3\nflat 2 0 1 2\nflat 2 0 1 3\n")


# -- matrix files ----------------------------------------------------------------

def test_parse_rational_matrix():
    a = parse_matrix_text("field Q\nrows 2\ncols 3\n1 1/2 -3\n0 2/4 5\n")
    assert a.field == Rationals()
    assert a.entries[0][1] == a.entries[1][1]


def test_parse_prime_field_matrix():
    a = parse_matrix_text("field GF 5\nrows 1\ncols 3\n-1 7 1/2\n")
    assert a.field == PrimeField(5)
    assert a.entries[0] == (4, 2, 3)


def test_non_prime_field_rejected():
    with pytest.raises(FormatError) as err:
        parse_matrix_text("field GF 4\nrows 1\ncols 1\n1\n")
    assert err.value.line == 1


def test_wrong_entry_count_rejected():
    with pytest.raises(FormatError):
        parse_matrix_text("field Q\nrows 1\ncols 3\n1 2\n")
    with pytest.raises(FormatError):
        parse_matrix_text("field Q\nrows 2\ncols 1\n1\n")


@pytest.mark.parametrize("header, line, message", [
    ("field Q\nrows\ncols 1\n", 2, "rows takes one value"),
    ("field Q\nrows 1\ncols\n", 3, "cols takes one value"),
    ("field Q\nrows 1 7\ncols 1\n", 2, "rows takes one value"),
    ("field Q\nrows 1\ncols 1 1\n", 3, "cols takes one value"),
    ("field Q\nrows 1\nrows 1\ncols 1\n", 3, "rows declared twice"),
    ("field Q\nrows 1\ncols 1\ncols 1\n", 4, "cols declared twice"),
])
def test_matrix_size_lines_take_one_value_once(header, line, message):
    with pytest.raises(FormatError) as err:
        parse_matrix_text(header + "1\n", source="f.matrix")
    assert str(err.value) == f"f.matrix:{line}: {message}"


def test_zero_denominator_rejected():
    with pytest.raises(FormatError):
        parse_matrix_text("field Q\nrows 1\ncols 1\n1/0\n")


def test_matrix_roundtrip():
    text = "field Q\nrows 2\ncols 2\n1/2 0\n-3 4\n"
    a = parse_matrix_text(text)
    assert parse_matrix_text(serialize_matrix(a)) == a


@pytest.mark.parametrize("name", [
    "A.matrix", "fano.gf2.matrix", "fano.gf3.matrix",
    "yuzvinsky_a1.matrix", "yuzvinsky_a2.matrix",
])
def test_bundled_matrices_roundtrip(data_dir, name):
    a = load_matrix(data_dir / name)
    assert parse_matrix_text(serialize_matrix(a)) == a


# -- set-family files -------------------------------------------------------------

def test_sets_roundtrip():
    sets = parse_sets_text("0 1\n4\n")
    assert sets == ((4,), (0, 1))
    assert parse_sets_text(serialize_sets(sets)) == sets


@pytest.mark.parametrize("element", [-1, 64, 10 ** 6])
def test_set_elements_outside_the_ground_cap_are_rejected(element):
    with pytest.raises(FormatError, match="set element out of range") as err:
        parse_sets_text(f"0 1\n0 1 {element}\n")
    assert err.value.line == 2


def test_bundled_spurious_sets(data_dir):
    sets = load_sets(data_dir / "spurious_blocks.sets")
    assert len(sets) == 13
    assert all(len(s) in (3, 4) for s in sets)


# -- bundled data directory --------------------------------------------------------

def test_data_directory_contents():
    names = {p.name for p in bundled_data_dir().iterdir()}
    assert {"M.matroid", "N.matroid", "A.matrix", "spurious_blocks.sets",
            "fano.gf2.matrix", "fano.gf3.matrix",
            "yuzvinsky_a1.matrix", "yuzvinsky_a2.matrix"} <= names
