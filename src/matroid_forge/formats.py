"""Text formats for matroids, matrices, and plain set lists.

Matroid files::

    # comment
    n 13
    rank 3
    flat 2 0 3 9          # rank, then the elements; nontrivial flats only
    ...

or alternatively ``basis e1 e2 ...`` lines (one style per file).  A file
with neither kind of line describes the free matroid of the declared rank.

Matrix files::

    field Q               # or: field GF 2
    rows 3
    cols 13
    1 4 4 8 4 2 1 0 0 4 4 4 4
    ...                   # entries are integers or p/q fractions

Set files are lines of whitespace-separated elements, each in 0..63.
All parsers report :class:`FormatError` with a 1-based line number;
serializers emit the canonical form, so parse(serialize(x)) round-trips
exactly.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

from .bitsets import MAX_GROUND, mask_of, sort_masks, elements_of
from .errors import FormatError
from .linalg import ExactMatrix, PrimeField, Rationals
from .matroid import Matroid, matroid_from_flats, nontrivial_levels


def _logical_lines(text: str):
    """Yield (lineno, tokens) for non-empty lines, comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def _int_token(token: str, lineno: int, source: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {token!r}",
                          line=lineno, source=source) from None


def _header_value(tokens: list[str], previous: int | None, lineno: int,
                  source: str) -> int:
    """The one integer of a header line such as ``n 13``, declared once."""
    directive = tokens[0]
    if previous is not None:
        raise FormatError(f"{directive} declared twice", line=lineno, source=source)
    if len(tokens) != 2:
        raise FormatError(f"{directive} takes one value", line=lineno, source=source)
    return _int_token(tokens[1], lineno, source, directive)


# ---------------------------------------------------------------------------
# matroid files


def parse_matroid_text(text: str, *, source: str = "<string>") -> Matroid:
    """Parse a matroid file; forwards ValidationError from construction."""
    n = rank = None
    flats: list[tuple[int, tuple[int, ...]]] = []
    bases: list[tuple[int, ...]] = []
    for lineno, tokens in _logical_lines(text):
        directive, args = tokens[0], tokens[1:]
        if directive == "n":
            n = _header_value(tokens, n, lineno, source)
        elif directive == "rank":
            rank = _header_value(tokens, rank, lineno, source)
        elif directive in ("flat", "basis"):
            if n is None or rank is None:
                raise FormatError(f"{directive} before n and rank declarations",
                                  line=lineno, source=source)
            if directive == "flat" and bases:
                raise FormatError("cannot mix flat and basis lines",
                                  line=lineno, source=source)
            if directive == "basis" and flats:
                raise FormatError("cannot mix flat and basis lines",
                                  line=lineno, source=source)
            values = [_int_token(t, lineno, source, "element") for t in args]
            if directive == "flat":
                if len(values) < 2:
                    raise FormatError("flat needs a rank and elements",
                                      line=lineno, source=source)
                k, elems = values[0], values[1:]
                if not 1 <= k < rank:
                    raise FormatError(f"flat rank {k} outside 1..{rank - 1}",
                                      line=lineno, source=source)
                if len(set(elems)) != len(elems):
                    raise FormatError("flat repeats an element",
                                      line=lineno, source=source)
                if any(e < 0 or e >= n for e in elems):
                    raise FormatError("flat element out of range",
                                      line=lineno, source=source)
                if len(elems) <= k:
                    raise FormatError(
                        f"a rank-{k} flat needs more than {k} elements "
                        "(trivial flats are implied, not listed)",
                        line=lineno, source=source)
                flats.append((k, tuple(elems)))
            else:
                if len(values) != rank:
                    raise FormatError(f"basis must have {rank} elements",
                                      line=lineno, source=source)
                if len(set(values)) != len(values):
                    raise FormatError("basis repeats an element",
                                      line=lineno, source=source)
                if any(e < 0 or e >= n for e in values):
                    raise FormatError("basis element out of range",
                                      line=lineno, source=source)
                bases.append(tuple(values))
        else:
            raise FormatError(f"unknown directive {directive!r}",
                              line=lineno, source=source)
    if n is None or rank is None:
        raise FormatError("file must declare n and rank", source=source)
    if bases:
        return Matroid.from_bases(n, bases)
    return matroid_from_flats(n, rank, flats)


def serialize_matroid(m: Matroid) -> str:
    """Canonical text: flat lines for simple matroids, basis lines otherwise."""
    lines = [f"n {m.n}", f"rank {m.rank}"]
    if m.is_simple:
        for k, level in enumerate(nontrivial_levels(m), 1):
            for f in level:
                lines.append(f"flat {k} " + " ".join(map(str, elements_of(f))))
    else:
        for b in m.basis_masks:
            lines.append("basis " + " ".join(map(str, elements_of(b))))
    return "\n".join(lines) + "\n"


def load_matroid(path: str | os.PathLike) -> Matroid:
    p = Path(path)
    return parse_matroid_text(p.read_text(encoding="utf-8"), source=str(p))


# ---------------------------------------------------------------------------
# matrix files


def parse_matrix_text(text: str, *, source: str = "<string>") -> ExactMatrix:
    field = None
    rows = cols = None
    data: list[list] = []
    for lineno, tokens in _logical_lines(text):
        directive = tokens[0]
        if directive == "field":
            if field is not None:
                raise FormatError("field declared twice", line=lineno, source=source)
            if tokens[1:] == ["Q"]:
                field = Rationals()
            elif len(tokens) == 3 and tokens[1] == "GF":
                p = _int_token(tokens[2], lineno, source, "prime")
                try:
                    field = PrimeField(p)
                except ValueError as exc:
                    raise FormatError(str(exc), line=lineno, source=source) from None
            else:
                raise FormatError("field must be 'Q' or 'GF <p>'",
                                  line=lineno, source=source)
        elif directive == "rows":
            rows = _header_value(tokens, rows, lineno, source)
        elif directive == "cols":
            cols = _header_value(tokens, cols, lineno, source)
        else:
            if field is None or rows is None or cols is None:
                raise FormatError("matrix data before field/rows/cols header",
                                  line=lineno, source=source)
            if len(data) == rows:
                raise FormatError("more data rows than declared",
                                  line=lineno, source=source)
            if len(tokens) != cols:
                raise FormatError(
                    f"row has {len(tokens)} entries, expected {cols}",
                    line=lineno, source=source)
            row = []
            for token in tokens:
                try:
                    row.append(field.parse(token))
                except (ValueError, ZeroDivisionError) as exc:
                    raise FormatError(f"bad entry {token!r}: {exc}",
                                      line=lineno, source=source) from None
            data.append(row)
    if field is None or rows is None or cols is None:
        raise FormatError("file must declare field, rows and cols", source=source)
    if len(data) != rows:
        raise FormatError(f"expected {rows} data rows, found {len(data)}",
                          source=source)
    return ExactMatrix(field, rows, cols,
                       tuple(tuple(row) for row in data))


def serialize_matrix(a: ExactMatrix) -> str:
    if isinstance(a.field, Rationals):
        header = "field Q"
    else:
        header = f"field GF {a.field.p}"
    lines = [header, f"rows {a.rows}", f"cols {a.cols}"]
    for row in a.entries:
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def load_matrix(path: str | os.PathLike) -> ExactMatrix:
    p = Path(path)
    return parse_matrix_text(p.read_text(encoding="utf-8"), source=str(p))


# ---------------------------------------------------------------------------
# set-list files


def parse_sets_text(text: str, *, source: str = "<string>"
                    ) -> tuple[tuple[int, ...], ...]:
    masks = []
    for lineno, tokens in _logical_lines(text):
        elems = [_int_token(t, lineno, source, "element") for t in tokens]
        if len(set(elems)) != len(elems):
            raise FormatError("set repeats an element", line=lineno, source=source)
        if any(not 0 <= e < MAX_GROUND for e in elems):
            raise FormatError("set element out of range", line=lineno, source=source)
        masks.append(mask_of(elems))
    return tuple(elements_of(s) for s in sort_masks(masks))


def serialize_sets(sets) -> str:
    masks = sort_masks(mask_of(s) if not isinstance(s, int) else s for s in sets)
    return "\n".join(" ".join(map(str, elements_of(s))) for s in masks) + "\n"


def load_sets(path: str | os.PathLike) -> tuple[tuple[int, ...], ...]:
    p = Path(path)
    return parse_sets_text(p.read_text(encoding="utf-8"), source=str(p))


# ---------------------------------------------------------------------------
# bundled data


def bundled_data_dir() -> Path:
    """Directory of the data files shipped inside the package."""
    return Path(str(resources.files("matroid_forge").joinpath("data")))
