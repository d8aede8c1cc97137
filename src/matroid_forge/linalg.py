"""Exact linear algebra over the rationals and prime fields.

Matrices carry a field tag and immutable entries: `Fraction` values over Q,
least non-negative residues over GF(p).  The tags, `Rationals` and
`PrimeField`, only parse and convert entries; they do no arithmetic.  All
of it is one integer elimination, Gauss-Jordan for both fields — rows kept
primitive over Q, residues mod p — with one division by each pivot at the
end; the reduced row-echelon form it returns is unique, so every derived
object is deterministic, and kernels, relation spaces and membership tests
are all read off it.  Column matroids read each r-subset off one
fraction-free (Bareiss) determinant of the echelon rows.  No floating
point appears anywhere.

The arrangement-flavoured operations live here too: kernels of the column
functionals, the subspace of relations supported on at most three columns,
formality, and formalization (rebuilding an arrangement from that
subspace's orthogonal complement).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

from .bitsets import mask_of
from .errors import GroundSetMismatch, ValidationError, ZeroFunctional
from .matroid import Matroid


class Rationals:
    """Field tag for exact rational arithmetic."""

    name = "Q"

    def parse(self, token: str) -> Fraction:
        """An integer or a/b; no decimals or exponents, which could be huge."""
        num, slash, den = token.partition("/")
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))

    def from_int(self, value: int | Fraction) -> Fraction:
        return Fraction(value)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


# Miller-Rabin with the first thirteen primes as witnesses is exact below
# this bound (Sorenson and Webster, 2015); larger moduli are rejected.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= p < PRIME_LIMIT."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _residue(num: int, den: int, p: int) -> int:
    """num / den in GF(p); ValueError when p divides den."""
    d = den % p
    if d == 0:
        raise ValueError(f"denominator divisible by {p}")
    return num * pow(d, p - 2, p) % p


class PrimeField:
    """GF(p) with elements stored as least non-negative residues."""

    def __init__(self, p: int):
        if p >= PRIME_LIMIT:
            raise ValueError(f"modulus {p} exceeds the supported range (below {PRIME_LIMIT})")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def parse(self, token: str) -> int:
        num, slash, den = token.partition("/")
        if not slash:
            return int(num) % self.p
        d = int(den)
        return _residue(int(num), d, self.p)

    def from_int(self, value: int | Fraction) -> int:
        """The residue of an integer, or of a fraction a/b as a * b^-1."""
        if isinstance(value, Fraction):
            return _residue(value.numerator, value.denominator, self.p)
        return value % self.p

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _integer_rows(field, rows, cols: int) -> tuple[list[list[int]], list[int], int]:
    """Integer rows, column scales and modulus (0 over Q) for a matrix.

    Over Q column j is multiplied by the lcm of its denominators, and each
    row is then divided by its content: the column matroid stays, and the
    row space changes only by the column scales.  Over GF(p) the rows are
    least residues and every scale is 1.
    """
    if isinstance(field, PrimeField):
        p = field.p
        return [[v % p for v in row] for row in rows], [1] * cols, p
    scales = [lcm(*(row[j].denominator for row in rows)) for j in range(cols)]
    return [_primitive([v.numerator * (s // v.denominator)
                        for v, s in zip(row, scales)]) for row in rows], scales, 0


def _rref(field, rows: list[list], cols: int) -> tuple[list[list], list[int]]:
    """Gauss-Jordan on a copy; returns (nonzero rows, pivot columns).

    The elimination runs on the integer rows of :func:`_integer_rows`,
    taking the first nonzero entry in column order as pivot.  A row
    update is the cross-multiplication ``pivot * row - a * lead``, then
    divided by its content over Q (so every row stays the primitive
    integer vector of its line, with entries bounded by the minors of the
    matrix) or reduced mod p.  Each pivot row is divided by its pivot at
    the end; the reduced row-echelon form is unique, so the result is the
    same as for elimination in the field.
    """
    mat, scales, p = _integer_rows(field, rows, cols)
    pivots: list[int] = []
    pr = 0
    for c in range(cols):
        if pr == len(mat):
            break
        for r in range(pr, len(mat)):
            if mat[r][c]:
                break
        else:
            continue
        mat[pr], mat[r] = mat[r], mat[pr]
        lead = mat[pr]
        piv = lead[c]
        for r, row in enumerate(mat):
            a = row[c]
            if a and r != pr:
                if p:
                    mat[r] = [(piv * v - a * w) % p for v, w in zip(row, lead)]
                else:
                    mat[r] = _primitive([piv * v - a * w for v, w in zip(row, lead)])
        pivots.append(c)
        pr += 1
    if p:
        invs = [pow(mat[i][c], p - 2, p) for i, c in enumerate(pivots)]
        return [[v * inv % p for v in mat[i]] for i, inv in enumerate(invs)], pivots
    return [[Fraction(v * scales[c], mat[i][c] * s) for v, s in zip(mat[i], scales)]
            for i, c in enumerate(pivots)], pivots


def _determinant(square: list[list[int]]) -> int:
    """Bareiss's fraction-free determinant of an integer matrix (consumed).

    After step k every entry below row k is a (k+1)-minor, so each
    division by the previous pivot is exact and entries stay bounded by
    the minors of the matrix.
    """
    n = len(square)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not square[k][k]:
            for i in range(k + 1, n):
                if square[i][k]:
                    square[k], square[i] = square[i], square[k]
                    sign = -sign
                    break
            else:
                return 0
        lead = square[k]
        piv = lead[k]
        for row in square[k + 1:]:
            a = row[k]
            row[k + 1:] = [(piv * v - a * w) // prev
                           for v, w in zip(row[k + 1:], lead[k + 1:])]
        prev = piv
    return sign * square[-1][-1] if n else 1


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable field-tagged matrix; columns are functionals."""

    field: Rationals | PrimeField
    rows: int
    cols: int
    entries: tuple[tuple, ...]

    @staticmethod
    def build(field, rows_data: Iterable[Iterable]) -> "ExactMatrix":
        """Integer and Fraction entries become field elements (over GF(p) a/b
        is a * b^-1; ValueError when p divides b); any other entry is a
        ValidationError."""
        entries = tuple(tuple(row) for row in rows_data)
        for row in entries:
            for v in row:
                if not isinstance(v, (int, Fraction)):
                    raise ValidationError(
                        f"matrix entry {v!r} is neither an integer nor a Fraction")
        entries = tuple(tuple(field.from_int(v) for v in row) for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(r) != cols for r in entries):
            raise ValidationError("matrix rows have uneven length")
        return ExactMatrix(field, rows, cols, entries)

    def columns_submatrix(self, indices: Sequence[int]) -> "ExactMatrix":
        ents = tuple(tuple(row[j] for j in indices) for row in self.entries)
        return ExactMatrix(self.field, self.rows, len(indices), ents)

    def zero_columns(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.cols)
                     if not any(row[j] for row in self.entries))

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...]]:
        reduced, pivots = _rref(self.field, list(self.entries), self.cols)
        ents = tuple(tuple(r) for r in reduced)
        return (ExactMatrix(self.field, len(ents), self.cols, ents),
                tuple(pivots))

    def rank(self) -> int:
        return len(self.rref()[1])

    def __repr__(self):
        return f"ExactMatrix({self.field!r}, {self.rows}x{self.cols})"


@dataclass(frozen=True)
class RelationSpace:
    """A subspace of K^n held as a reduced-echelon basis (possibly empty)."""

    field: Rationals | PrimeField
    ambient: int
    vectors: tuple[tuple, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_vectors(field, ambient: int, vectors: Iterable[Sequence]
                     ) -> "RelationSpace":
        rows = [list(v) for v in vectors]
        if any(len(row) != ambient for row in rows):
            raise ValidationError(f"a vector's length is not the ambient dimension {ambient}")
        reduced, pivots = _rref(field, rows, ambient)
        return RelationSpace(field, ambient,
                             tuple(tuple(r) for r in reduced), tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, vec: Sequence) -> bool:
        stacked = self.vectors + (tuple(vec),)
        return RelationSpace.from_vectors(self.field, self.ambient, stacked).dim == self.dim

    def is_subspace_of(self, other: "RelationSpace") -> bool:
        stacked = other.vectors + self.vectors
        return RelationSpace.from_vectors(self.field, self.ambient, stacked).dim == other.dim

    def matrix(self) -> ExactMatrix:
        return ExactMatrix(self.field, self.dim, self.ambient, self.vectors)

    def perp(self) -> "RelationSpace":
        """Orthogonal complement under the coordinate pairing."""
        return kernel_basis(self.matrix())


def kernel_basis(a: ExactMatrix) -> RelationSpace:
    """Reduced-echelon basis of {y : A y = 0}; dim = cols - rank."""
    f = a.field
    reduced, pivots = _rref(f, list(a.entries), a.cols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(a.cols) if c not in pivot_set]
    vectors = []
    for fc in free_cols:
        v = [0] * a.cols
        v[fc] = 1
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][fc]
        vectors.append(v)
    return RelationSpace.from_vectors(f, a.cols, vectors)


def column_matroid(a: ExactMatrix) -> Matroid:
    """The matroid of linear independence on the columns of A.

    Row operations keep column dependencies, so the r echelon rows of A,
    scaled to integers, have A's column matroid; an r-subset of columns
    is a basis exactly when its r x r minor there is nonzero (mod p over
    GF(p): reduction mod p is a ring homomorphism).
    """
    reduced, pivots = _rref(a.field, list(a.entries), a.cols)
    rows, _, p = _integer_rows(a.field, reduced, a.cols)
    bases = []
    for combo in combinations(range(a.cols), len(pivots)):
        det = _determinant([[row[j] for j in combo] for row in rows])
        if det % p if p else det:
            bases.append(mask_of(combo))
    return Matroid(a.cols, len(pivots), bases, _validated=True)


def realizes(a: ExactMatrix, m: Matroid) -> bool:
    """Does the column matroid of A equal m (canonically, labels and all)?"""
    if a.cols != m.n:
        raise GroundSetMismatch(
            f"matrix has {a.cols} columns but the matroid has {m.n} elements")
    return column_matroid(a) == m


def weight3_subspace(a: ExactMatrix) -> RelationSpace:
    """Span of the kernel vectors with at most three nonzero entries.

    Such a relation lives on a line (rank-2 flat) of the columns, so this is
    the sum of the lines' relation spaces, or the whole kernel if rank A <= 2.
    Each line takes one elimination R, with two of its independent columns
    i, j in front; every x zero in R below row 2 is on it (zero and parallel
    columns too) and gives R[0][x] e_i + R[1][x] e_j - e_x.
    """
    f = a.field
    if a.rank() <= 2:
        return kernel_basis(a)
    n = a.cols
    covered: set[tuple[int, int]] = set()
    generators: list[list] = []
    for i, j in combinations(range(n), 2):
        if (i, j) in covered:
            continue
        order = [i, j] + [x for x in range(n) if x not in (i, j)]
        reduced, pivots = _rref(f, [[row[c] for c in order] for row in a.entries], n)
        if pivots[:2] != [0, 1]:
            continue
        line = [i, j]
        for pos, x in enumerate(order[2:], 2):
            if not any(row[pos] for row in reduced[2:]):
                v = [0] * n
                v[i], v[j], v[x] = reduced[0][pos], reduced[1][pos], -1
                generators.append(v)
                line.append(x)
        covered.update(combinations(sorted(line), 2))
    return RelationSpace.from_vectors(f, n, generators)


def is_formal(a: ExactMatrix) -> bool:
    """True iff the weight-<=3 relations already span the whole kernel."""
    return weight3_subspace(a).dim == a.cols - a.rank()


def formalization(a: ExactMatrix) -> ExactMatrix:
    """Rebuild an arrangement from the weight-<=3 relation subspace.

    Returns the matrix G whose rows form the reduced-echelon basis of the
    orthogonal complement of weight3_subspace(A); column i of G is the
    functional of the i-th rebuilt hyperplane.  The original column
    matroid is a quotient of G's with the same points and lines, and
    rank(G) >= rank(A) with equality exactly when A is formal.
    """
    _reject_zero_functionals(a)
    return _complement_of_relations(a, weight3_subspace(a))


def _complement_of_relations(a: ExactMatrix, relations: RelationSpace
                             ) -> ExactMatrix:
    """G of :func:`formalization`, from A's already computed weight-3 space."""
    comp = relations.perp()
    g = ExactMatrix(a.field, comp.dim, a.cols, comp.vectors)
    if g.zero_columns():
        # impossible when no functional is zero: e_i in the relation span
        # would force column i of A to vanish
        raise ZeroFunctional("formalization produced a zero functional")
    return g


def _reject_zero_functionals(a: ExactMatrix) -> None:
    """Raise :class:`ZeroFunctional` if a column of A is zero."""
    zero = a.zero_columns()
    if zero:
        cols = ", ".join(str(c) for c in zero)
        raise ZeroFunctional(f"column(s) {cols} are zero functionals")
