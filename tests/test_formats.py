"""Text formats: grammar, error positions, canonical round-trips."""

import re

import pytest

from matroid_forge.errors import (
    EmptyGroundSet,
    FormatError,
    GroundSetTooLarge,
    MatroidForgeError,
    ValidationError,
)
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
from matroid_forge.matroid import Matroid, PointedMap, contract, matroid_from_flats
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


# -- every refusal, by its exact text ----------------------------------------------

PARSERS = {"matroid": parse_matroid_text, "matrix": parse_matrix_text,
           "sets": parse_sets_text}

# (kind, text, the error's text with {source} for the file name); a file
# that parses but builds no matroid is refused without a position
BAD_TEXTS = [
    ("matroid", "n x\nrank 2\n", "{source}:1: n must be an integer, got 'x'"),
    ("matroid", "flat 1 0 1\nn 3\nrank 2\n",
     "{source}:1: flat before n and rank declarations"),
    ("matroid", "n 4\nrank 3\nbasis 0 1 2\nflat 2 0 1 2\n",
     "{source}:4: cannot mix flat and basis lines"),
    ("matroid", "n 4\nrank 3\nflat 2\n", "{source}:3: flat needs a rank and elements"),
    ("matroid", "n 4\nrank 3\nflat 3 0 1 2 3\n", "{source}:3: flat rank 3 outside 1..2"),
    ("matroid", "n 4\nrank 3\nflat 2 0 1 1\n", "{source}:3: flat repeats an element"),
    ("matroid", "n 4\nrank 3\nflat 2 0 1 4\n", "{source}:3: flat element out of range"),
    ("matroid", "n 3\nrank 2\nbasis 0\n", "{source}:3: basis must have 2 elements"),
    ("matroid", "n 3\nrank 2\nbasis 1 1\n", "{source}:3: basis repeats an element"),
    ("matroid", "n 3\n", "{source}: file must declare n and rank"),
    ("matroid", "n 0\nrank 1\n", "matroid needs at least one element"),
    ("matroid", "n 65\nrank 1\n", "ground set of size 65 exceeds the cap of 64"),
    ("matroid", "n 65\nrank 1\nbasis 0\n", "ground set of size 65 exceeds the cap of 64"),
    ("matroid", "n 3\nrank 4\n", "rank 4 outside 1..3"),
    ("matrix", "field Q\nfield Q\n", "{source}:2: field declared twice"),
    ("matrix", "field R\n", "{source}:1: field must be 'Q' or 'GF <p>'"),
    ("matrix", "1 2\n", "{source}:1: matrix data before field/rows/cols header"),
    ("matrix", "field Q\nrows 1\ncols 1\n1\n2\n", "{source}:5: more data rows than declared"),
    ("matrix", "field Q\nrows 1\n", "{source}: file must declare field, rows and cols"),
    ("sets", "0 1\n2 2\n", "{source}:2: set repeats an element"),
]


def refusal_id(kind, message):
    where = re.sub(r"\{source\}:(\d+)", r"line \1", message)
    return f"{kind}: " + where.replace("{source}", "file")


@pytest.mark.parametrize("kind, text, message", BAD_TEXTS,
                         ids=[refusal_id(kind, message) for kind, _, message in BAD_TEXTS])
def test_bad_text_is_refused_with_its_exact_message(kind, text, message):
    source = f"bad.{kind}"
    with pytest.raises(MatroidForgeError) as err:
        PARSERS[kind](text, source=source)
    assert str(err.value) == message.format(source=source)


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: matroid_from_flats(0, 1, []), EmptyGroundSet,
                 "matroid needs at least one element", id="flats-no-element"),
    pytest.param(lambda: matroid_from_flats(65, 1, []), GroundSetTooLarge,
                 "ground set of size 65 exceeds the cap of 64", id="flats-65-elements"),
    pytest.param(lambda: matroid_from_flats(3, 0, []), ValidationError,
                 "rank 0 outside 1..3", id="flats-rank-0"),
    pytest.param(lambda: matroid_from_flats(3, 2, [(1, 0b1000)]), FormatError,
                 "flat element out of range", id="flats-mask-too-wide"),
    pytest.param(lambda: matroid_from_flats(3, 2, [(1, -1)]), FormatError,
                 "flat element out of range", id="flats-negative-mask"),
    pytest.param(lambda: matroid_from_flats(3, 2, [(1, (0, 3))]), FormatError,
                 "flat element out of range", id="flats-element-3-of-3"),
    pytest.param(lambda: matroid_from_flats(3, 2, [(1, (0, 0))]), FormatError,
                 "flat lists an element twice", id="flats-repeat"),
    pytest.param(lambda: matroid_from_flats(3, 2, [(2, (0, 1, 2))]), ValidationError,
                 "listed flat rank 2 outside 1..1", id="flats-rank-2-in-rank-2"),
    pytest.param(lambda: matroid_from_flats(3, 2, [(1, (0,))]), ValidationError,
                 "rank-1 flat {0} is trivial and must not be listed", id="flats-trivial"),
    pytest.param(lambda: Matroid(65, 1, [1]), GroundSetTooLarge,
                 "ground set of size 65 exceeds the cap of 64", id="matroid-65-elements"),
    pytest.param(lambda: PointedMap((0, -1)), ValidationError,
                 "PointedMap images must be non-negative", id="map-negative-image"),
    pytest.param(lambda: PointedMap((0, 1), ((0,),)), ValidationError,
                 "PointedMap classes must match images in length", id="map-short-classes"),
])
def test_bad_construction_is_refused_with_its_exact_message(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


# -- bundled data directory --------------------------------------------------------

def test_data_directory_contents():
    names = {p.name for p in bundled_data_dir().iterdir()}
    assert {"M.matroid", "N.matroid", "A.matrix", "spurious_blocks.sets",
            "fano.gf2.matrix", "fano.gf3.matrix",
            "yuzvinsky_a1.matrix", "yuzvinsky_a2.matrix"} <= names
