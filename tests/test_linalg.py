"""Exact linear algebra, formality analysis, characteristic polynomials."""

import pytest

import importlib.util
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

from matroid_forge.charpoly import (
    IntPolynomial,
    characteristic_polynomial,
    splits_over_integers,
)
from matroid_forge.cli import main
from matroid_forge.errors import (
    GroundSetMismatch,
    SearchBudgetExceeded,
    ValidationError,
    ZeroFunctional,
)
from matroid_forge import linalg
from matroid_forge.formats import load_matrix, parse_matrix_text
from matroid_forge.linalg import (
    ExactMatrix,
    PrimeField,
    Rationals,
    RelationSpace,
    _minors,
    _rref,
    column_matroid,
    formalization,
    is_formal,
    kernel_basis,
    realizes,
    weight3_subspace,
)
from matroid_forge.matroid import delete
from matroid_forge.minors import fano_matroid, non_fano_matroid
from matroid_forge.reproduce import run_reproduce

from hosts import host, uniform
import oracles


# -- fields -------------------------------------------------------------------

def test_rationals_parse_and_reduce():
    q = Rationals()
    assert q.parse("3/6") == Fraction(1, 2)
    assert q.parse("-4") == Fraction(-4)


@pytest.mark.parametrize("token", ["1e1000000", "0.5", "1/2e9", "1/", "/2", "inf"])
def test_rationals_accept_only_integers_and_fractions(token):
    with pytest.raises(ValueError):
        Rationals().parse(token)


def test_prime_field_arithmetic():
    gf5 = PrimeField(5)
    assert gf5.parse("-1") == 4
    assert gf5.parse("1/2") == 3


def test_non_prime_field_rejected():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_primality_matches_trial_division():
    def prime(p):
        return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))

    for p in range(3000):
        try:
            PrimeField(p)
        except ValueError:
            assert not prime(p), p
        else:
            assert prime(p), p


def test_primality_is_exact_for_large_moduli():
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    with pytest.raises(ValueError, match="not prime"):
        PrimeField((2 ** 31 - 1) ** 2)
    # strong pseudoprime to every prime base up to 23
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(3825123056546413051)
    # a prime, but beyond the range where the primality test is proven
    with pytest.raises(ValueError, match="exceeds"):
        PrimeField(2 ** 89 - 1)


def test_field_equality():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert Rationals() == Rationals()


# -- matrices and kernels ------------------------------------------------------

def test_rref_and_rank():
    a = ExactMatrix.build(Rationals(), [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert a.rank() == 2
    reduced, pivots = a.rref()
    assert pivots == (0, 1)
    assert reduced.entries[0][0] == 1


def test_build_reduces_fractions_over_prime_fields():
    a = ExactMatrix.build(PrimeField(5), [[1, Fraction(1, 2)], [Fraction(4), 1]])
    assert a.entries == ((1, 3), (4, 1))
    assert a.rank() == 2
    with pytest.raises(ValueError, match="divisible by 5"):
        ExactMatrix.build(PrimeField(5), [[1, Fraction(3, 10)]])


@pytest.mark.parametrize("entry", [0.5, "1", None])
def test_build_rejects_entries_that_are_not_exact(entry):
    for field in (Rationals(), PrimeField(5)):
        with pytest.raises(ValidationError, match="neither an integer nor a Fraction"):
            ExactMatrix.build(field, [[entry, 1]])


@pytest.mark.parametrize("field", [Rationals(), PrimeField(3)])
def test_relation_vectors_must_have_the_ambient_length(field):
    space = RelationSpace.from_vectors(field, 2, [(1, 0)])
    assert oracles.span_contains(space, (2, 0))
    assert not oracles.span_contains(space, (0, 1))
    # an extra coordinate was once dropped, and a short vector raised IndexError
    for vec in ((1, 0, 2), (1,)):
        with pytest.raises(ValidationError, match="ambient dimension 2"):
            oracles.span_contains(space, vec)
        with pytest.raises(ValidationError, match="ambient dimension 2"):
            RelationSpace.from_vectors(field, 2, [(0, 1), vec])


def test_kernel_basis_small():
    a = ExactMatrix.build(Rationals(), [[1, 0, 1], [0, 1, 1]])
    ker = kernel_basis(a)
    assert ker.dim == 1
    assert oracles.span_contains(ker, (Fraction(-2), Fraction(-2), Fraction(2)))
    assert not oracles.span_contains(ker, (Fraction(1), Fraction(0), Fraction(0)))


def test_perp_is_involutive():
    space = RelationSpace.from_vectors(Rationals(), 3, [[1, 1, 0]])
    perp = space.perp()
    assert perp.dim == 2
    assert perp.perp().vectors == space.vectors


def test_zero_matrix_kernel_is_everything():
    a = ExactMatrix.build(Rationals(), [[0, 0, 0]])
    assert kernel_basis(a).dim == 3


@pytest.mark.parametrize("field", [Rationals(), PrimeField(3)])
def test_perp_of_zero_space_is_identity(field):
    perp = RelationSpace.from_vectors(field, 4, []).perp()
    assert perp.vectors == tuple(tuple(1 if i == j else 0 for j in range(4))
                                 for i in range(4))
    assert perp.pivots == (0, 1, 2, 3)


# -- column matroids -----------------------------------------------------------

def test_fano_only_in_characteristic_two(fano_gf2, fano_gf3):
    assert column_matroid(fano_gf2) == fano_matroid()
    assert column_matroid(fano_gf3) == non_fano_matroid()


def test_rational_fano_columns_relax(fano_gf2):
    rational = ExactMatrix.build(
        Rationals(), [[int(x) for x in row] for row in fano_gf2.entries])
    assert column_matroid(rational) == non_fano_matroid()


def test_zero_matrix_column_matroid_has_one_empty_basis():
    m = column_matroid(ExactMatrix.build(Rationals(), [[0, 0, 0], [0, 0, 0]]))
    assert (m.n, m.rank, m.basis_masks) == (3, 0, (0,))


def test_realizes_bundled(realization, rank3_matroid):
    assert realizes(realization, rank3_matroid)
    assert not realizes(realization, uniform(3, 13))


def test_realizes_checks_ground_set(realization):
    with pytest.raises(GroundSetMismatch):
        realizes(realization, uniform(2, 4))


# -- formality -----------------------------------------------------------------

def test_formal_pair(formal_matrix, informal_matrix):
    assert is_formal(formal_matrix)
    assert not is_formal(informal_matrix)
    assert weight3_subspace(informal_matrix).dim < kernel_basis(informal_matrix).dim


def test_formalization_ranks(formal_matrix, informal_matrix):
    assert formalization(formal_matrix).rank() == formal_matrix.rank() == 3
    assert formalization(informal_matrix).rank() == 4


def test_same_column_matroid_different_formality(
        formal_matrix, informal_matrix, rank3_matroid):
    from matroid_forge.matroid import are_isomorphic
    cm1 = column_matroid(formal_matrix)
    cm2 = column_matroid(informal_matrix)
    nine = delete(rank3_matroid, (9, 10, 11, 12))
    assert are_isomorphic(cm1, cm2) is not None
    assert are_isomorphic(cm1, nine) is not None


def test_weight3_contained_in_kernel(realization):
    assert weight3_subspace(realization).is_subspace_of(kernel_basis(realization))


def test_formalization_of_generic_four_planes_has_rank_four():
    # four generic planes in 3-space: the one relation has weight 4
    a = ExactMatrix.build(Rationals(), [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    assert weight3_subspace(a).dim == 0
    assert not is_formal(a)
    assert formalization(a).rank() == 4


WEIGHT3_FIELDS = (Rationals(), PrimeField(2), PrimeField(3), PrimeField(5),
                  PrimeField(7))


def seeded_matrix(seed):
    """1-4 rows, 1-8 columns mixing zero, parallel, collinear and generic ones."""
    rng = random.Random(f"weight3:{seed}")
    field = WEIGHT3_FIELDS[seed % len(WEIGHT3_FIELDS)]
    rows, cols = rng.choice((1, 2, 3, 3, 4, 4)), rng.randint(1, 8)
    dim = rows if rng.random() < 0.7 else rng.randint(0, rows)
    span = [[rng.randint(-3, 3) for _ in range(rows)] for _ in range(dim)]
    columns = []
    for _ in range(cols):
        kind = rng.random()
        nonzero = [c for c in columns if any(c)]
        if kind < 0.1 or not span:
            col = [0] * rows
        elif kind < 0.25 and nonzero:
            col = [rng.randint(1, 3) * x for x in rng.choice(nonzero)]
        elif kind < 0.45 and len(nonzero) > 1:
            u, w = rng.sample(nonzero, 2)
            c = rng.randint(1, 3)
            col = [x + c * y for x, y in zip(u, w)]
        else:
            coeffs = [rng.randint(-3, 3) for _ in span]
            col = [sum(c * v[r] for c, v in zip(coeffs, span)) for r in range(rows)]
        columns.append(col)
    return ExactMatrix.build(field, [[col[r] for col in columns] for r in range(rows)])


def test_weight3_matches_subset_kernels_on_seeded_matrices():
    ranks = Counter()
    line_relations = 0
    for seed in range(1000):
        a = seeded_matrix(seed)
        got, want = weight3_subspace(a), oracles.reference_weight3_subspace(a)
        assert (got.vectors, got.pivots) == (want.vectors, want.pivots), seed
        rank = a.rank()
        ranks[rank] += 1
        line_relations += rank >= 3 and got.dim > 0
    assert set(ranks) == {0, 1, 2, 3, 4}
    assert ranks[3] + ranks[4] >= 150 and line_relations >= 100


def test_weight3_matches_subset_kernels_on_bundled(data_dir):
    paths = sorted(data_dir.glob("*.matrix"))
    assert len(paths) == 5
    for path in paths:
        a = load_matrix(path)
        got, want = weight3_subspace(a), oracles.reference_weight3_subspace(a)
        assert (got.vectors, got.pivots) == (want.vectors, want.pivots), path.name


def test_kernel_basis_matches_reference():
    matrices = [seeded_matrix(seed) for seed in range(1000)]
    for field in (Rationals(), PrimeField(5)):
        matrices += [ExactMatrix(field, 0, 3, ()),
                     ExactMatrix.build(field, [[], []]),
                     ExactMatrix.build(field, [[0] * 4] * 3)]
    for a in matrices:
        got, want = kernel_basis(a), oracles.reference_kernel_basis(a)
        assert (got.vectors, got.pivots) == (want.vectors, want.pivots), a
        assert got.dim == a.cols - a.rank(), a
        entry = Fraction if a.field == Rationals() else int
        assert all(type(v) is entry for vec in got.vectors for v in vec), a


def seeded_wide_matrix(seed):
    """5-6 rows, 6-12 columns of a rank 3-6 span: zero, parallel and generic
    columns, and many sums of two earlier ones, which put them on lines."""
    rng = random.Random(f"wide:{seed}")
    field = WEIGHT3_FIELDS[seed % len(WEIGHT3_FIELDS)]
    rows, cols = rng.randint(5, 6), rng.randint(6, 12)
    span = [[rng.randint(-3, 3) for _ in range(rows)]
            for _ in range(rng.randint(3, rows))]
    generic = rng.choice((0.0, 0.1, 0.3))
    columns = []
    for _ in range(cols):
        kind = rng.random()
        if kind < 0.05:
            col = [0] * rows
        elif kind < 0.15 and columns:
            col = [rng.randint(1, 3) * x for x in rng.choice(columns)]
        elif kind < 1 - generic and len(columns) >= len(span):
            u, w = rng.sample(columns, 2)
            c = rng.randint(1, 3)
            col = [x + c * y for x, y in zip(u, w)]
        else:
            coeffs = [rng.randint(-3, 3) for _ in span]
            col = [sum(c * v[r] for c, v in zip(coeffs, span)) for r in range(rows)]
        columns.append(col)
    return ExactMatrix.build(field, [[col[r] for col in columns] for r in range(rows)])


def ladder_matrices():
    """The GF(5) matrices of the benchmark's ladder workload, seeds 1-5."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generators.py"
    spec = importlib.util.spec_from_file_location("ladder_generators", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [parse_matrix_text(instance.texts["matrix"])
            for seed in range(1, 6) for instance in module.ladder(seed)]


def test_weight3_matches_subset_kernels_on_wide_and_ladder_matrices(
        data_dir, spy):
    yuzvinsky = load_matrix(data_dir / "yuzvinsky_a2.matrix")
    matrices = [seeded_wide_matrix(seed) for seed in range(150)]
    matrices += ladder_matrices()
    matrices.append(ExactMatrix.build(PrimeField(11), yuzvinsky.entries))
    assert len(matrices) == 161
    kernel_calls = spy(linalg, "kernel_basis")
    early, not_formal, later_rows = 0, 0, 0
    for a in matrices:
        kernel_calls.clear()
        got, want = weight3_subspace(a), oracles.reference_weight3_subspace(a)
        assert (got.vectors, got.pivots) == (want.vectors, want.pivots), a.entries
        rank = a.rank()
        if rank < 3 or rank == a.cols:
            continue
        # the pair (first nonzero column, third pivot column) is never on a
        # line found before it, and its minor vanishes on echelon rows 0, 1
        later_rows += 1
        if got.dim == a.cols - rank > 0:
            assert kernel_calls == [(a,)]
            early += 1
        else:
            assert kernel_calls == []
            not_formal += 1
    assert later_rows >= 140 and early >= 90 and not_formal >= 40
    assert not is_formal(matrices[-1])
    assert all(is_formal(a) for a in matrices[150:160])


def seeded_giant_matrix(seed):
    """P A D for a seeded wide rational A: P unit upper triangular with
    100-digit entries, D a diagonal of 100- to 300-digit fractions.  Both
    keep every dependency, so columns lie on lines and off them as in A,
    but the echelon rows carry hundreds of digits."""
    a = seeded_wide_matrix(len(WEIGHT3_FIELDS) * seed)
    assert a.field == Rationals()
    rng = random.Random(f"giant wide:{seed}")

    def digits(low):
        return rng.randrange(10 ** (low - 1), 10 ** rng.randint(low, 300))

    p = [[0] * i + [1] + [digits(100) for _ in range(a.rows - 1 - i)]
         for i in range(a.rows)]
    d = [Fraction(rng.choice((1, -1)) * digits(100), digits(100)) for _ in range(a.cols)]
    return ExactMatrix.build(Rationals(), [
        [sum(p[i][k] * a.entries[k][j] for k in range(a.rows)) * d[j]
         for j in range(a.cols)] for i in range(a.rows)])


def test_weight3_matches_subset_kernels_on_giant_rationals():
    """The subset kernels' answers on rationals of hundreds of digits.  The
    last four matrices have one 3 x 3 minor, 0 or a nonzero multiple of the
    prime q = 2^30 - 35, which a line test modulo q alone would misread."""
    q = (1 << 30) - 35
    matrices = [seeded_giant_matrix(seed) for seed in range(12)]
    matrices += [ExactMatrix.build(Rationals(), [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, c]])
                 for c in (q, -q, 3 * q, 0)]
    dims = Counter()
    for a in matrices:
        got, want = weight3_subspace(a), oracles.reference_weight3_subspace(a)
        assert (got.vectors, got.pivots) == (want.vectors, want.pivots), a.entries
        dims[(got.dim > 0, got.dim == a.cols - a.rank())] += 1
    assert min(len(str(abs(v.numerator))) for v in matrices[0].entries[0] if v) >= 100
    assert [weight3_subspace(a).dim for a in matrices[-4:]] == [0, 0, 0, 1]
    assert dims[(True, True)] and dims[(True, False)] and dims[(False, False)]


def seeded_fraction_matrix(seed):
    """1-4 rows of small fractions, some rows repeated up to a factor or zero."""
    rng = random.Random(f"fractions:{seed}")
    rows, cols = rng.randint(1, 4), rng.randint(1, 7)
    out = []
    for _ in range(rows):
        kind = rng.random()
        if kind < 0.15:
            out.append([0] * cols)
        elif kind < 0.35 and out:
            c = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 4))
            out.append([c * v for v in rng.choice(out)])
        else:
            out.append([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(cols)])
    return ExactMatrix.build(Rationals(), out)


def assert_matches_reference(a, label):
    got = _rref(a.field, list(a.entries), a.cols)
    want = oracles.reference_rref(a.field, a.entries, a.cols)
    assert got == want, label
    if a.field == Rationals():
        assert all(type(v) is Fraction for row in got[0] for v in row), label
    assert column_matroid(a).basis_masks == oracles.reference_column_matroid(a).basis_masks, label


def test_rref_and_column_matroid_match_reference_on_seeded_matrices():
    for seed in range(1000):
        assert_matches_reference(seeded_matrix(seed), seed)
    for seed in range(300):
        assert_matches_reference(seeded_fraction_matrix(seed), f"fractions:{seed}")


def test_rref_and_column_matroid_match_reference_on_bundled(data_dir):
    paths = sorted(data_dir.glob("*.matrix"))
    assert len(paths) == 5
    for path in paths:
        assert_matches_reference(load_matrix(path), path.name)


# -- subspace membership -------------------------------------------------------

def seeded_generators(field, n, seed):
    """Three seeded vectors of K^n; the spaces are spanned by their prefixes."""
    rng = random.Random(f"span:{field}:{n}:{seed}")
    if field == Rationals():
        return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(3)]
    return [[rng.randrange(field.p) for _ in range(n)] for _ in range(3)]


def seeded_spaces(field, n):
    """(generators, space) for prefixes of length 0-3 of four seeded triples."""
    out = []
    for seed in range(4):
        gens = seeded_generators(field, n, seed)
        for k in range(4):
            out.append((gens[:k], RelationSpace.from_vectors(field, n, gens[:k])))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_membership_matches_span_enumeration_over_prime_fields(p):
    field = PrimeField(p)
    outcomes = Counter()
    for n in range(1, 5):
        spaces = []
        for gens, space in seeded_spaces(field, n):
            span = {tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % p
                          for i in range(n))
                    for coeffs in product(range(p), repeat=len(gens))}
            assert len(span) == p ** space.dim
            for v in product(range(p), repeat=n):
                assert oracles.span_contains(space, v) == (v in span), (p, n, gens, v)
            spaces.append((space, span))
        for s, s_span in spaces:
            for t, t_span in spaces:
                got = s.is_subspace_of(t)
                assert got == all(oracles.span_contains(t, v) for v in s.vectors)
                assert got == (s_span <= t_span), (p, n, s, t)
                outcomes[got, s_span == t_span] += 1
    assert min(outcomes[True, False], outcomes[False, False]) >= 20


def test_membership_matches_reference_rank_over_rationals():
    q = Rationals()

    def rank(vectors, n):
        return len(oracles.reference_rref(q, vectors, n)[1])

    rng = random.Random("span:Q")
    for n in range(1, 5):
        spaces = seeded_spaces(q, n)
        for gens, space in spaces:
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in gens]
            inside = [sum((c * g[i] for c, g in zip(coeffs, gens)), Fraction(0))
                      for i in range(n)]
            assert oracles.span_contains(space, inside)
            for _ in range(5):
                v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                want = rank(gens + [v], n) == rank(gens, n)
                assert oracles.span_contains(space, v) == want
        for s_gens, s in spaces:
            for t_gens, t in spaces:
                want = rank(t_gens + s_gens, n) == rank(t_gens, n)
                assert s.is_subspace_of(t) == want, (n, s_gens, t_gens)


def seeded_square(seed):
    """A size 0-5 integer matrix; a third are singular, many need a row swap."""
    rng = random.Random(f"det:{seed}")
    n = seed % 6
    m = [[rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10 ** 6, 10 ** 6)))
          for _ in range(n)] for _ in range(n)]
    if n >= 2 and seed % 3 == 0:
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        m[i] = [c * v for v in m[j]]
    return m


def test_minor_pass_matches_cofactor_expansion():
    singular = 0
    for seed in range(600):
        m = seeded_square(seed)
        full = (1 << len(m)) - 1
        want = oracles.cofactor_determinant(m)
        minors = _minors(m, 0)
        assert set(minors) <= {full} and minors.get(full, 0) == want, seed
        singular += want == 0
        for p in (2, 3, 5, 7, 1_000_003):
            residues = [[v % p for v in row] for row in m]
            assert _minors(residues, p).get(full, 0) == want % p, (seed, p)
    assert singular >= 200


def test_column_matroid_charges_its_subsets_before_any_minor(monkeypatch):
    rng = random.Random(3264)
    rows = [[int(i == j) for j in range(32)] + [rng.randrange(2) for _ in range(32)]
            for i in range(32)]
    a = ExactMatrix.build(PrimeField(2), rows)
    assert a.rank() == 32
    monkeypatch.setattr(linalg, "_minors",
                        lambda rows, p: pytest.fail("a minor was computed"))
    with pytest.raises(SearchBudgetExceeded, match="^column matroid exceeded"):
        column_matroid(a)


GIANT_BASE = [[1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 2],
              [0, 1, 0, 0, 1, -1, 0, 1, 0, 1, 2, -1],
              [0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 3, 1],
              [0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 4, 3]]


def giant_matrix():
    """P * GIANT_BASE * D: P unit upper triangular with 100-digit entries, D a
    diagonal of 300-digit fractions.  Both keep the kernel's dimension, the
    weight-3 space's and the column matroid, so the answers are the base's."""
    rng = random.Random("giant")

    def digits(k):
        return rng.randrange(10 ** (k - 1), 10 ** k)

    p = [[0] * i + [1] + [digits(100) for _ in range(3 - i)] for i in range(4)]
    d = [Fraction(digits(300), digits(300)) * rng.choice((1, -1)) for _ in range(12)]
    return [[sum(p[i][k] * GIANT_BASE[k][j] for k in range(4)) * d[j]
             for j in range(12)] for i in range(4)]


def test_giant_rational_constants_answer_fast(capsys, tmp_path):
    rows = giant_matrix()
    assert min(len(str(v.denominator)) for row in rows for v in row if v) >= 290
    path = tmp_path / "giant.matrix"
    path.write_text("field Q\nrows 4\ncols 12\n"
                    + "".join(" ".join(str(v) for v in row) + "\n" for row in rows))
    start = time.perf_counter()
    code = main(["formality", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "kernel dimension     8",
        "weight-3 dimension   6",
        "matrix rank          4",
        "formalization rank   6",
        "verdict              not formal",
    ]
    assert elapsed < 2.0
    giant = load_matrix(path)
    m = column_matroid(giant)
    assert m == oracles.reference_column_matroid(giant)
    assert m == column_matroid(ExactMatrix.build(Rationals(), GIANT_BASE))


def generic_giant_rows():
    """4 x 12 independent random 300-digit fractions: no three columns are
    dependent, so no pair of columns is on a line with a third."""
    rng = random.Random("generic giant")

    def digits():
        return rng.randrange(10 ** 299, 10 ** 300)

    return [[Fraction(rng.choice((1, -1)) * digits(), digits()) for _ in range(12)]
            for _ in range(4)]


def test_each_question_takes_one_elimination(spy, capsys, tmp_path, data_dir):
    def rank3():
        # built afresh, so that each count measures a first question
        return [load_matrix(data_dir / name) for name in
                ("A.matrix", "yuzvinsky_a1.matrix", "yuzvinsky_a2.matrix")
                ] + [ExactMatrix.build(Rationals(), GIANT_BASE)]

    calls = spy(linalg, "_rref")
    for a in rank3() + [ExactMatrix.build(PrimeField(3), [[1, 2, 0]])]:
        calls.clear()
        kernel_basis(a)
        assert len(calls) == 1, a
    for a in rank3():
        calls.clear()
        weight3_subspace(a)
        assert len(calls) <= 2, a
        assert a.rank() >= 3
    path = tmp_path / "generic.matrix"
    path.write_text("field Q\nrows 4\ncols 12\n"
                    + "".join(" ".join(map(str, row)) + "\n" for row in generic_giant_rows()))
    calls.clear()
    assert main(["formality", str(path)]) == 0
    # the rank and the relation space share the forward elimination; the
    # relation space is empty, so one more elimination spans it
    assert len(calls) == 2
    assert capsys.readouterr().out.splitlines() == [
        "kernel dimension     8",
        "weight-3 dimension   0",
        "matrix rank          4",
        "formalization rank   12",
        "verdict              not formal",
    ]


def test_a_repeated_question_makes_no_elimination(spy, data_dir):
    calls = spy(linalg, "_rref")
    names = ("A.matrix", "yuzvinsky_a1.matrix", "yuzvinsky_a2.matrix")
    for ask in (ExactMatrix.rank, kernel_basis, weight3_subspace, column_matroid,
                is_formal, formalization):
        for a in [load_matrix(data_dir / name) for name in names]:
            first = ask(a)
            calls.clear()
            assert ask(a) == first
            assert calls == [], (ask.__name__, a)


def test_an_asked_matrix_equals_a_fresh_build(data_dir):
    for name in ("A.matrix", "yuzvinsky_a1.matrix", "yuzvinsky_a2.matrix"):
        a = load_matrix(data_dir / name)
        for ask in (is_formal, formalization, column_matroid, ExactMatrix.rref):
            ask(a)
        assert a._memo
        twin = ExactMatrix(a.field, a.rows, a.cols, a.entries)
        assert not twin._memo
        assert a == twin
        assert hash(a) == hash(twin)
        assert repr(a) == repr(twin)


def test_a_relation_space_matrix_starts_with_its_elimination(data_dir):
    """Its kept echelon rows and pivots are what eliminating it would give."""
    def assert_kept_is_fresh(m, label):
        assert m._memo["_forward"] == _rref(m.field, list(m.entries), m.cols), label

    paths = sorted(data_dir.glob("*.matrix"))
    assert len(paths) == 5
    for path in paths:
        a = load_matrix(path)
        for space in (kernel_basis(a), weight3_subspace(a), weight3_subspace(a).perp()):
            assert_kept_is_fresh(space.matrix(), path.name)
        # yuzvinsky_a2's G has rank 4 > rank A: the one formalization that
        # adds rows
        assert_kept_is_fresh(formalization(a), path.name)


def test_reproduce_eliminations(spy):
    calls = spy(linalg, "_rref")
    assert run_reproduce().overall
    # 27 while each formalization G was eliminated again, 6 of them
    assert len(calls) == 21


def test_elimination_entries_stay_bounded_on_dense_rows():
    # without a division after each row update the entries double in length
    # at each of the twelve steps, and this takes seconds instead of ~0.03 s
    rng = random.Random("dense")
    rows = [[Fraction(rng.randrange(-10 ** 20, 10 ** 20), rng.randrange(1, 10 ** 20))
             for _ in range(14)] for _ in range(12)]
    start = time.perf_counter()
    got = _rref(Rationals(), rows, 14)
    assert time.perf_counter() - start < 1.0
    assert got == oracles.reference_rref(Rationals(), rows, 14)
    assert got[1] == list(range(12))


def test_zero_column_rejected():
    a = ExactMatrix.build(Rationals(), [[1, 0], [0, 0]])
    with pytest.raises(ZeroFunctional):
        formalization(a)


# -- polynomials ----------------------------------------------------------------

def test_polynomial_text():
    p = IntPolynomial((-51, 63, -13, 1))
    assert str(p) == "t^3 - 13*t^2 + 63*t - 51"
    assert str(IntPolynomial((7,))) == "7"
    assert p.degree == 3 and p.is_monic
    assert p.coefficient(2) == -13 and p.coefficient(9) == 0


def test_polynomial_division():
    p = IntPolynomial((-8, 14, -7, 1))  # (t-1)(t-2)(t-4)
    quotient, remainder = p.divide_by_root(1)
    assert remainder == 0
    assert quotient.evaluate(2) == 0


def test_charpoly_of_plane_splits():
    chi = characteristic_polynomial(fano_matroid())
    assert chi.coeffs == (-8, 14, -7, 1)
    assert splits_over_integers(chi) == (1, 2, 4)


def test_charpoly_of_relaxation_has_double_root():
    chi = characteristic_polynomial(non_fano_matroid())
    assert chi.coeffs == (-9, 15, -7, 1)
    assert splits_over_integers(chi) == (1, 3, 3)


def test_charpoly_of_line():
    chi = characteristic_polynomial(uniform(2, 4))
    assert chi.coeffs == (3, -4, 1)
    assert splits_over_integers(chi) == (1, 3)


def test_charpoly_no_integer_split(rank3_matroid):
    chi = characteristic_polynomial(rank3_matroid)
    assert str(chi) == "t^3 - 13*t^2 + 63*t - 51"
    assert splits_over_integers(chi) is None
    assert chi.evaluate(1) == 0


def _polynomial_from_roots(roots):
    p = IntPolynomial((1,))
    for r in roots:  # multiply by (t - r)
        shifted = (0,) + p.coeffs
        scaled = tuple(-r * c for c in p.coeffs) + (0,)
        p = IntPolynomial(tuple(a + b for a, b in zip(shifted, scaled)))
    return p


def test_split_matches_full_divisor_walk():
    polys = [_polynomial_from_roots(r) for r in product(range(-6, 7), repeat=3)]
    polys += [IntPolynomial((c, b, 1)) for c in range(-40, 41) for b in range(-9, 10)]
    for p in polys:
        assert splits_over_integers(p) == oracles.splits_by_full_divisor_walk(p), p


def test_split_with_large_roots_is_fast():
    start = time.perf_counter()
    p = _polynomial_from_roots((999983, 1000003))
    assert splits_over_integers(p) == (999983, 1000003)
    assert time.perf_counter() - start < 1.0


def test_no_split_with_large_constant_is_fast():
    start = time.perf_counter()
    # t^2 + t + 999983 * 1000003: discriminant negative, constant ~10^12
    p = IntPolynomial((999983 * 1000003, 1, 1))
    assert splits_over_integers(p) is None
    assert time.perf_counter() - start < 1.0


def test_charpoly_requires_simple():
    parallel = host("parallel-pair")
    with pytest.raises(ValidationError):
        characteristic_polynomial(parallel)


def test_splits_requires_monic():
    with pytest.raises(ValidationError):
        splits_over_integers(IntPolynomial((1, 2)))
