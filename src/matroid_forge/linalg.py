"""Exact linear algebra over the rationals and prime fields.

Matrices carry a field tag and immutable entries: `Fraction` values over Q,
least non-negative residues over GF(p).  The tags, `Rationals` and
`PrimeField`, only parse and convert entries; they do no arithmetic.  All
of it is one integer elimination, Gauss-Jordan for both fields — rows kept
primitive over Q, residues mod p — with one division by each pivot at the
end; the reduced row-echelon form it returns is unique, so every derived
object is deterministic, and kernels, relation spaces and membership tests
are all read off it.  Column matroids read their bases off the nonzero
maximal minors of the echelon rows, all found in one pass of Laplace
expansion.  No floating point appears anywhere.

The arrangement-flavoured operations live here too: kernels of the column
functionals, the subspace of relations supported on at most three columns,
formality, and formalization (rebuilding an arrangement from that
subspace's orthogonal complement).  A matrix is eliminated at most twice
in its life: rank, rref, the relation space and the column matroid share
one forward elimination, and the kernel reads its canonical basis off the
elimination of A with its columns reversed.  The relation space finds
every line, and its relations by Cramer's rule, on the forward echelon
rows.  Matrices and relation spaces are immutable, so each keeps these
derived values, and its orthogonal complement, once computed: asking
again, as formality and formalization do, costs nothing.  A relation
space's basis is its own reduced row-echelon form, so its matrix, such as
the formalization G, starts with that forward elimination known.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from itertools import combinations
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from .bitsets import mask_of
from .errors import GroundSetMismatch, ValidationError, ZeroFunctional, charger
from .matroid import Matroid, Record


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
    update is the cross-multiplication ``pivot * row - a * lead`` of
    :func:`_cross`, divided by its content over Q (so every row stays the
    primitive integer vector of its line, with entries bounded by the
    minors of the matrix) or reduced mod p.  Each pivot row is divided by
    its pivot at the end; the reduced row-echelon form is unique, so the
    result is the same as for elimination in the field.
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
                mat[r] = _cross(piv, row, a, lead, p)
        pivots.append(c)
        pr += 1
    if p:
        invs = [pow(mat[i][c], p - 2, p) for i, c in enumerate(pivots)]
        return [[v * inv % p for v in mat[i]] for i, inv in enumerate(invs)], pivots
    return [[Fraction(v * scales[c], mat[i][c] * s) for v, s in zip(mat[i], scales)]
            for i, c in enumerate(pivots)], pivots


def _memoized(derive):
    """derive(obj), computed once per immutable obj and kept in its memo.

    The memo is a slot outside the object's record fields, so it is left
    out of ``__eq__``, ``__hash__`` and ``__repr__``, and an asked object
    still equals a fresh one.
    """
    key = derive.__name__

    @wraps(derive)
    def once(obj):
        memo = obj._memo
        if key not in memo:
            memo[key] = derive(obj)
        return memo[key]
    return once


class ExactMatrix(Record):
    """Immutable field-tagged matrix; columns are functionals."""

    _fields = ("field", "rows", "cols", "entries")
    __slots__ = _fields + ("_memo",)

    def __init__(self, field: Rationals | PrimeField, rows: int, cols: int,
                 entries: tuple[tuple, ...]):
        Record.__init__(self, field, rows, cols, entries)
        object.__setattr__(self, "_memo", {})

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

    def zero_columns(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.cols)
                     if not any(row[j] for row in self.entries))

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...]]:
        reduced, pivots = _forward(self)
        ents = tuple(tuple(r) for r in reduced)
        return (ExactMatrix(self.field, len(ents), self.cols, ents),
                tuple(pivots))

    def rank(self) -> int:
        return len(_forward(self)[1])

    def __repr__(self):
        return f"ExactMatrix({self.field!r}, {self.rows}x{self.cols})"


class RelationSpace(Record):
    """A subspace of K^n held as a reduced-echelon basis (possibly empty)."""

    _fields = ("field", "ambient", "vectors", "pivots")
    __slots__ = _fields + ("_memo",)

    def __init__(self, field: Rationals | PrimeField, ambient: int,
                 vectors: tuple[tuple, ...], pivots: tuple[int, ...]):
        Record.__init__(self, field, ambient, vectors, pivots)
        object.__setattr__(self, "_memo", {})

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

    def is_subspace_of(self, other: "RelationSpace") -> bool:
        stacked = other.vectors + self.vectors
        return RelationSpace.from_vectors(self.field, self.ambient, stacked).dim == other.dim

    def matrix(self) -> ExactMatrix:
        """The basis as the rows of a matrix, which are its own reduced
        row-echelon form: the matrix keeps them as its forward elimination."""
        a = ExactMatrix(self.field, self.dim, self.ambient, self.vectors)
        a._memo[_forward.__name__] = ([list(v) for v in self.vectors], list(self.pivots))
        return a

    @_memoized
    def perp(self) -> "RelationSpace":
        """Orthogonal complement under the coordinate pairing."""
        return kernel_basis(self.matrix())


@_memoized
def _forward(a: ExactMatrix) -> tuple[list[list], list[int]]:
    """A's reduced row-echelon rows and pivots: the one forward elimination
    that rank, rref, the relation space and the column matroid share."""
    return _rref(a.field, list(a.entries), a.cols)


@_memoized
def kernel_basis(a: ExactMatrix) -> RelationSpace:
    """Reduced-echelon basis of {y : A y = 0}; dim = cols - rank.

    One elimination, of A with its columns reversed: its pivots are the
    lex-last basis B of the column matroid.  For each column f outside B,
    e_f - sum R[i][f] e_(b_i) is nonzero only at f and at elements of B
    above f, so these vectors, in order of f, are already the unique
    reduced-echelon basis of the kernel.
    """
    f, n = a.field, a.cols
    reduced, pivots = _rref(f, [row[::-1] for row in a.entries], n)
    p = f.p if isinstance(f, PrimeField) else 0
    # original column of each echelon row's pivot, with the row read in
    # original column order
    rows = [(n - 1 - c, row[::-1]) for c, row in zip(pivots, reduced)]
    in_basis = {b for b, _ in rows}
    zero, one = f.from_int(0), f.from_int(1)
    free = tuple(c for c in range(n) if c not in in_basis)
    vectors = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for b, row in rows:
            if row[fc]:
                v[b] = -row[fc] % p if p else -row[fc]
        vectors.append(tuple(v))
    return RelationSpace(f, n, tuple(vectors), free)


@_memoized
def column_matroid(a: ExactMatrix) -> Matroid:
    """The matroid of linear independence on the columns of A.

    Row operations keep column dependencies, so the r echelon rows of A,
    scaled to integers, have A's column matroid; an r-subset of columns
    is a basis exactly when its r x r minor there is nonzero (mod p over
    GF(p): reduction mod p is a ring homomorphism).  :func:`_minors`
    finds every nonzero one in one pass, after C(n, r) is charged to the
    default budget; the bases are read off in ``combinations`` order, which
    is the constructor's canonical order.
    """
    reduced, pivots = _forward(a)
    rows, _, p = _integer_rows(a.field, reduced, a.cols)
    charger(None, "column matroid")(comb(a.cols, len(pivots)))
    minors = _minors(rows, p)
    bases = filter(minors.__contains__,
                   map(mask_of, combinations(range(a.cols), len(pivots))))
    return Matroid(a.cols, len(pivots), list(bases), _validated=True)


def _minors(rows: list[list[int]], p: int) -> dict[int, int]:
    """The nonzero k x k minors of k integer rows, keyed by column mask.

    Laplace expansion along row i: the minor of the first i + 1 rows on
    columns T is the sum over j in T of (-1)^(number of elements of T
    above j) row_i[j] times the minor of the first i rows on T - j.  So
    one pass pushes each nonzero minor of the first i rows to its
    supersets by one column, and minors that vanish (mod p when p is
    nonzero) are dropped at each level and never pushed.
    """
    level = {0: 1}
    for row in rows:
        entries = [(1 << j, v) for j, v in enumerate(row) if v]
        pushed: dict[int, int] = {}
        for s, minor in level.items():
            for bit, v in entries:
                if not s & bit:
                    t = s | bit
                    term = v * minor
                    pushed[t] = pushed.get(t, 0) + (
                        -term if (s & -bit).bit_count() & 1 else term)
        level = {t: r for t, m in pushed.items() if (r := m % p if p else m)}
    return level


def realizes(a: ExactMatrix, m: Matroid) -> bool:
    """Does the column matroid of A equal m (canonically, labels and all)?"""
    if a.cols != m.n:
        raise GroundSetMismatch(
            f"matrix has {a.cols} columns but the matroid has {m.n} elements")
    return column_matroid(a) == m


@_memoized
def weight3_subspace(a: ExactMatrix) -> RelationSpace:
    """Span of the kernel vectors with at most three nonzero entries.

    Such a relation lives on a line (rank-2 flat) of the columns, so this is
    the sum of the lines' relation spaces, or the whole kernel if rank A <= 2.
    A is eliminated once, and every line is found on its r echelon rows,
    scaled to integers.  For a pair i, j not yet on a found line, rows s, t
    with a nonzero 2x2 minor d are picked (there are none when i, j are
    dependent); for every other column x, Cramer's rule gives
    u = det[c_x c_j] and v = det[c_i c_x] on those rows, and x is on the
    line exactly when d c_x = u c_i + v c_j on the other r - 2 rows (zero
    and parallel columns too).  Each relation u e_i + v e_j - d e_x, times
    the column scales, joins a running reduced-echelon basis; once that
    reaches dimension cols - rank the relations fill the kernel.
    """
    f, n = a.field, a.cols
    reduced, pivots = _forward(a)
    rank = len(pivots)
    if rank <= 2:
        return kernel_basis(a)
    rows, scales, p = _integer_rows(f, reduced, n)
    cols = list(zip(*rows))
    basis: dict[int, list[int]] = {}
    covered: set[tuple[int, int]] = set()
    for i, j in combinations(range(n), 2):
        if (i, j) in covered:
            continue
        ci, cj = cols[i], cols[j]
        s = next((k for k in range(rank) if ci[k]), None)
        if s is None:
            continue
        # ci[s] cj - cj[s] ci vanishes at s, and elsewhere too iff i, j are
        # dependent
        for t in range(rank):
            d = ci[s] * cj[t] - cj[s] * ci[t]
            if d % p if p else d:
                break
        else:
            continue
        others = [k for k in range(rank) if k != s and k != t]
        line = [i, j]
        for x, cx in enumerate(cols):
            if x == i or x == j:
                continue
            u = cx[s] * cj[t] - cj[s] * cx[t]
            v = ci[s] * cx[t] - cx[s] * ci[t]
            if any((d * cx[k] - u * ci[k] - v * cj[k]) % p if p
                   else d * cx[k] != u * ci[k] + v * cj[k] for k in others):
                continue
            line.append(x)
            relation = [0] * n
            relation[i], relation[j], relation[x] = (
                u * scales[i], v * scales[j], -d * scales[x])
            if _join_echelon(basis, relation, (i, j, x), p) and len(basis) == n - rank:
                return kernel_basis(a)
        covered.update(combinations(sorted(line), 2))
    return RelationSpace.from_vectors(f, n, basis.values())


def _join_echelon(basis: dict[int, list[int]], vec: list[int],
                  support: tuple[int, ...], p: int) -> bool:
    """Add vec (nonzero only on support) to a reduced-echelon basis.

    The basis maps each row's leading column to the row, which is zero at
    every other leading column, so only leading columns in vec's support
    need eliminating.  Rows are residues mod p, or primitive integer
    vectors over Q.  Returns whether vec was independent.
    """
    vec = [v % p for v in vec] if p else _primitive(vec)
    for lead in support:
        row = basis.get(lead)
        if row is not None and vec[lead]:
            vec = _cross(row[lead], vec, vec[lead], row, p)
    lead = next((k for k, v in enumerate(vec) if v), None)
    if lead is None:
        return False
    for other, row in basis.items():
        if row[lead]:
            basis[other] = _cross(vec[lead], row, row[lead], vec, p)
    basis[lead] = vec
    return True


def _cross(a: int, x: list[int], b: int, y: list[int], p: int) -> list[int]:
    """a x - b y, reduced mod p or divided by its content over Q."""
    row = [a * v - b * w for v, w in zip(x, y)]
    return [v % p for v in row] if p else _primitive(row)


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
    g = weight3_subspace(a).perp().matrix()
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
