"""The end-to-end reproduction report: twelve named checks over bundled data.

Each check recomputes one headline fact from the shipped data files with
independent machinery (brute-force scans next to the structured
algorithms) and yields PASS/FAIL plus a one-line detail.  Output is
deterministic and bit-identical across runs; wall-clock timing is kept out
of the table so the text can serve as a golden file.

Data problems inside a check (a file that fails validation, say) FAIL that
check rather than aborting the run; only genuinely environmental errors —
missing or unreadable files — escape as OSError for the caller to turn
into an I/O exit.
"""

from __future__ import annotations

import json
import time
from itertools import combinations
from math import comb
from pathlib import Path

from .bitsets import mask_of
from .charpoly import characteristic_polynomial, splits_over_integers
from .erection import check_erection_blocks, enumerate_erections, spanning_k_closed_sets
from .formats import bundled_data_dir, load_matrix, load_matroid, load_sets
from .linalg import (
    column_matroid,
    formalization,
    is_formal,
    kernel_basis,
    realizes,
    weight3_subspace,
)
from .matroid import (
    Record,
    are_isomorphic,
    contract,
    delete,
    exchange_failure,
    matroid_from_flats,
    removal_map,
    simplify,
    truncation,
)
from .minors import fano_matroid, find_minor, non_fano_matroid, realizability_obstruction
from . import properties

# Exclusion witnesses for the three-element spurious candidate blocks: each
# maps to a block Z containing it and a basis B whose only candidate cover
# is Z, which forces Z into every solution and shuts the triple out.
_EXCLUSION_WITNESSES: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {
    (0, 1, 12): ((0, 1, 3, 4, 7, 9, 12), (0, 1, 3)),
    (3, 4, 12): ((0, 1, 3, 4, 7, 9, 12), (0, 1, 3)),
    (0, 2, 11): ((0, 2, 3, 5, 6, 9, 11), (0, 2, 3)),
    (3, 5, 11): ((0, 2, 3, 5, 6, 9, 11), (0, 2, 3)),
    (1, 2, 10): ((1, 2, 4, 5, 8, 9, 10), (1, 2, 4)),
    (4, 5, 10): ((1, 2, 4, 5, 8, 9, 10), (1, 2, 4)),
    (6, 7, 8): ((6, 7, 8, 9, 10, 11, 12), (7, 8, 9)),
}

# The contraction by {6}: expected parallel classes (original labels) and
# the seven lines of the simplified matroid written in least representatives.
_EXPECTED_CLASSES = ((0, 5), (1,), (2, 3), (4,), (7,), (8,), (9, 11), (10, 12))
_EXPECTED_COLLAPSED_LINES = frozenset({
    (0, 1, 8), (0, 2, 9), (0, 4, 7), (1, 2, 7),
    (1, 4, 9), (2, 4, 8), (7, 8, 9, 10),
})


class CheckResult(Record):
    __slots__ = _fields = ("name", "passed", "detail", "elapsed")

    def __init__(self, name: str, passed: bool, detail: str, elapsed: float):
        Record.__init__(self, name, passed, detail, elapsed)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


class ReproReport(Record):
    __slots__ = _fields = ("checks",)

    def __init__(self, checks: tuple[CheckResult, ...]):
        Record.__init__(self, checks)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    def to_text(self, *, timing: bool = False) -> str:
        name_w = 22
        rule = f"{'-' * name_w}  ------  {'-' * 48}"
        lines = [f"{'check':<{name_w}}  result  detail", rule]
        for c in self.checks:
            lines.append(f"{c.name:<{name_w}}  {c.status:<6}  {c.detail}")
        lines.append(rule)
        verdict = "PASS" if self.overall else "FAIL"
        lines.append(f"{'overall':<{name_w}}  {verdict:<6}  "
                     f"{self.passed_count}/{len(self.checks)} checks passed")
        if timing:
            lines.append("")
            for c in self.checks:
                lines.append(f"timing  {c.name:<{name_w}}  {c.elapsed:.3f}s")
        return "\n".join(lines) + "\n"

    def to_json(self, *, timing: bool = False) -> str:
        doc = {
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "passed": self.passed_count,
            "total": len(self.checks),
            "overall": self.overall,
        }
        if timing:
            doc["timings"] = {c.name: round(c.elapsed, 3) for c in self.checks}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class _Ctx:
    """Lazy, memoized access to the bundled objects; failures propagate."""

    def __init__(self, data_dir: Path, budget: int | None):
        self.dir = data_dir
        self.budget = budget
        self._cache: dict[str, object] = {}

    def _get(self, key, loader):
        if key not in self._cache:
            self._cache[key] = loader()
        return self._cache[key]

    def m(self):
        return self._get("m", lambda: load_matroid(self.dir / "M.matroid"))

    def n_matroid(self):
        return self._get("n", lambda: load_matroid(self.dir / "N.matroid"))

    def family(self):
        return self._get("family",
                         lambda: enumerate_erections(self.m(), budget=self.budget))

    def spurious(self):
        return self._get("spurious",
                         lambda: load_sets(self.dir / "spurious_blocks.sets"))

    def census(self):
        return self._get("census", lambda: spanning_k_closed_sets(self.m(), 2))

    def matrix(self, name):
        return self._get(name, lambda: load_matrix(self.dir / name))


def _check_m_wellformed(ctx: _Ctx):
    m = ctx.m()
    if (m.n, m.rank) != (13, 3):
        return False, f"expected a rank-3 matroid on 13 elements, got {m!r}"
    lines = m.flats_at(2, min_size=3)
    # independent brute-force scan: a triple is dependent iff inside a line
    line_masks = [mask_of(L) for L in lines]
    dependent = sum(1 for t in map(mask_of, combinations(range(13), 3))
                    if any(t & ~lm == 0 for lm in line_masks))
    n_bases = len(m.basis_masks)
    ok = (n_bases == 271 and len(lines) == 15
          and dependent == 15 and comb(13, 3) - dependent == n_bases)
    return ok, (f"271 bases and 15 lines confirmed by triple scan"
                if ok else f"bases={n_bases}, lines={len(lines)}")


def _check_realization(ctx: _Ctx):
    a = ctx.matrix("A.matrix")
    ok = realizes(a, ctx.m())
    return ok, ("rational 3x13 matrix has exactly the right column matroid"
                if ok else "column matroid differs from the bundled matroid")


def _check_erections(ctx: _Ctx):
    fam = ctx.family()
    n = ctx.n_matroid()
    if len(fam) != 2:
        return False, f"expected 2 erections, found {len(fam)}"
    if fam.erections[0] != ctx.m():
        return False, "first erection is not the trivial one"
    if fam.erections[1] != n:
        return False, "nontrivial erection differs from the bundled rank-4 matroid"
    if fam.free() != n:
        return False, "free erection is not the nontrivial one"
    return True, "exactly 2 erections: trivial + the bundled rank-4 matroid"


def _check_candidate_census(ctx: _Ctx):
    cands = set(ctx.census())
    expected = set(ctx.n_matroid().flats_at(3)) | set(ctx.spurious())
    if len(cands) != 52 or cands != expected:
        extra = len(cands - expected)
        missing = len(expected - cands)
        return False, (f"census has {len(cands)} sets "
                       f"({extra} unexpected, {missing} missing)")
    return True, "52 spanning 2-closed sets = 39 copoints + 13 spurious"


def _check_crapo(ctx: _Ctx):
    m = ctx.m()
    blocks = ctx.n_matroid().flat_lattice()[3]
    chk = check_erection_blocks(m, blocks)
    if not chk:
        return False, f"condition {chk.condition} fails: {chk.witness}"
    cand_masks = [mask_of(c) for c in ctx.census()]
    spurious3 = [s for s in ctx.spurious() if len(s) == 3]
    if sorted(spurious3) != sorted(_EXCLUSION_WITNESSES):
        return False, "three-element spurious sets differ from the witness table"
    for x, (z, b) in _EXCLUSION_WITNESSES.items():
        xm, zm, bm = mask_of(x), mask_of(z), mask_of(b)
        if bm not in m.basis_masks:
            return False, f"witness basis {b} is not a basis"
        if bm & ~zm or xm & ~zm:
            return False, f"witness containments fail for {x}"
        covers = [c for c in cand_masks if bm & ~c == 0]
        if covers != [zm]:
            return False, f"basis {b} lies in {len(covers)} candidates, not 1"
    return True, "3 copoint conditions hold; 7 spurious triples excluded"


def _check_minor_chain(ctx: _Ctx):
    n = ctx.n_matroid()
    w1 = find_minor(n, non_fano_matroid(), budget=ctx.budget)
    if w1 is None or w1.contract_set != () or w1.delete_set != (0, 1, 2, 3, 4, 5):
        return False, f"deletion witness wrong: {w1 and w1.describe()}"
    p = contract(n, (6,))
    simple, pmap = simplify(p)
    back = removal_map(13, (6,))
    classes = tuple(tuple(back(e) for e in c) for c in pmap.classes)
    if simple.n != 8 or classes != _EXPECTED_CLASSES:
        return False, f"contraction classes differ: {classes}"
    reps = [min(c) for c in classes]
    coll_lines = frozenset(tuple(sorted(reps[i] for i in L))
                           for L in simple.flats_at(2, min_size=3))
    if coll_lines != _EXPECTED_COLLAPSED_LINES:
        return False, "collapsed line list differs"
    w2 = find_minor(n, fano_matroid(), budget=ctx.budget)
    if w2 is None or w2.contract_set != (6,) or w2.delete_set != (10, 12):
        return False, f"contraction witness wrong: {w2 and w2.describe()}"
    return True, "deletion {0..5} and contraction {6} witnesses verified"


def _check_obstructions(ctx: _Ctx):
    expected = (
        (ctx.n_matroid(), "no-field"),
        (fano_matroid(), "char-2-only"),
        (non_fano_matroid(), "char-not-2-only"),
    )
    got = []
    for matroid, want in expected:
        rep = realizability_obstruction(matroid, budget=ctx.budget)
        got.append(rep.verdict)
        if rep.verdict != want:
            return False, f"verdict {rep.verdict}, expected {want}"
    return True, " / ".join(got) + " as required"


def _check_fano_matrices(ctx: _Ctx):
    gf2 = column_matroid(ctx.matrix("fano.gf2.matrix"))
    gf3 = column_matroid(ctx.matrix("fano.gf3.matrix"))
    if gf2 != fano_matroid():
        return False, "GF(2) column matroid is not the seven-line plane"
    if gf3 != non_fano_matroid():
        return False, "GF(3) column matroid is not the six-line relaxation"
    return True, "GF(2) and GF(3) column matroids match the built-ins"


def _check_yuzvinsky(ctx: _Ctx):
    a1 = ctx.matrix("yuzvinsky_a1.matrix")
    a2 = ctx.matrix("yuzvinsky_a2.matrix")
    if not is_formal(a1):
        return False, "first arrangement should be formal"
    if is_formal(a2):
        return False, "second arrangement should not be formal"
    rank_fz = formalization(a2).rank()
    if rank_fz <= 3:
        return False, f"formalization rank {rank_fz} not above 3"
    cm1, cm2 = column_matroid(a1), column_matroid(a2)
    restriction = delete(ctx.m(), (9, 10, 11, 12))
    if are_isomorphic(cm1, cm2) is None or are_isomorphic(cm1, restriction) is None:
        return False, "the two column matroids fail to match the 9-point restriction"
    return True, f"same matroid, formal vs not; formalization rank {rank_fz} > 3"


def _check_formality(ctx: _Ctx):
    a = ctx.matrix("A.matrix")
    dk = kernel_basis(a).dim
    dw = weight3_subspace(a).dim
    ok = is_formal(a) and dk == 10 and dw == 10
    return ok, (f"formal: dim kernel = dim weight-3 = 10"
                if ok else f"dim kernel = {dk}, dim weight-3 = {dw}")


def _check_non_freeness(ctx: _Ctx):
    chi = characteristic_polynomial(ctx.m())
    roots = splits_over_integers(chi)
    if roots is not None:
        return False, f"unexpected integer split {roots}"
    if chi.coefficient(2) != -13:
        return False, f"t^2 coefficient is {chi.coefficient(2)}, expected -13"
    if chi.evaluate(1) != 0:
        return False, "chi(1) is not zero"
    return True, f"chi = {chi}: no integer split; t^2 coeff -13; chi(1) = 0"


def _check_properties(ctx: _Ctx):
    m = ctx.m()
    n = ctx.n_matroid()
    fam = ctx.family()
    free3 = matroid_from_flats(3, 3, [])
    p_simple, _ = simplify(contract(n, (6,)))
    n_truncated = truncation(n)
    failures: list[str] = []
    for matroid in (fano_matroid(), non_fano_matroid(), free3, p_simple, m, n):
        failures += properties.rank_and_closure_failures(matroid)
    for matroid in (m, n, fano_matroid(), non_fano_matroid(), p_simple,
                    n_truncated):
        if (failure := exchange_failure(matroid)) is not None:
            failures.append(failure)
    failures += properties.erection_family_failures(fam)
    for name in ("A.matrix", "yuzvinsky_a1.matrix", "yuzvinsky_a2.matrix",
                 "fano.gf2.matrix", "fano.gf3.matrix"):
        failures += properties.formalization_quotient_failures(ctx.matrix(name))
    failures += properties.quotient_order_failures([m, n, n_truncated])
    failures += properties.minor_commutation_failures(m)
    if failures:
        return False, failures[0]
    return True, "closure/rank/exchange/quotient/weak-order batteries clean"


_CHECKS = (
    ("m-wellformed", _check_m_wellformed),
    ("realization", _check_realization),
    ("erections", _check_erections),
    ("candidate-census", _check_candidate_census),
    ("crapo-conditions", _check_crapo),
    ("minor-chain", _check_minor_chain),
    ("obstruction-verdicts", _check_obstructions),
    ("fano-matrices", _check_fano_matrices),
    ("yuzvinsky-pair", _check_yuzvinsky),
    ("formality", _check_formality),
    ("non-freeness", _check_non_freeness),
    ("property-suites", _check_properties),
)


def run_reproduce(data_dir: str | Path | None = None,
                  budget: int | None = None) -> ReproReport:
    """Run all twelve checks against a data directory (bundled by default)."""
    base = Path(data_dir) if data_dir is not None else bundled_data_dir()
    ctx = _Ctx(base, budget)
    results = []
    for name, fn in _CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = fn(ctx)
        except OSError:
            raise
        except Exception as exc:  # a failing check, not a crashed run
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, str(detail),
                                   time.perf_counter() - start))
    return ReproReport(tuple(results))
