"""Outside-in tracing of matroid_forge, for the benchmark's traced runs.

The tracer patches nothing until :meth:`Tracer.install` runs.  It then
replaces selected public functions and methods with wrappers, in every
``matroid_forge`` module namespace that bound them (``from .matroid import
contract`` leaves a second reference in ``minors``, ``reproduce`` and so on),
and on the class for methods.  Two kinds of wrapper exist:

* span wrappers record ``[name, parent, start, end, counter deltas,
  note]`` in memory, where the counter deltas are the count-wrapper calls
  made inside the span and the note is a small summary of the call (a hit
  flag, a basis count) that a metric needs;
* count wrappers only bump a counter; they sit on the hot rank, closure
  and RREF primitives, where a span per call would swamp the run.

A target the program no longer has is skipped, and the metrics built on
it read 0.  Self time is a span's duration minus the durations of its
direct children.  The layer metrics below are computed per pass from the spans
and counters.
"""

from __future__ import annotations

import sys
from functools import wraps
from time import perf_counter

PACKAGE = "matroid_forge"

# Counters kept by count wrappers, in this order in Tracer.calls.
COUNTED = (
    ("matroid", "Matroid.rank_of_mask"),
    ("matroid", "Matroid.closure_mask"),
    ("linalg", "_rref"),
)
RANK, CLOSURE, RREF = range(3)


def _found(args, kwargs, result):
    return result is not None


def _census_note(args, kwargs, result):
    return len(result), 2 ** args[0].n


def _nontrivial_erections(args, kwargs, result):
    return len(result) - 1


def _exchange_pairs(args, kwargs, result):
    return len(result.basis_masks) ** 2


def _cli_command(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0]


def _check_times(args, kwargs, result):
    return tuple((c.name, c.elapsed) for c in result.checks)


# (module, qualified name, span kind, note function or None)
SPANNED = (
    ("formats", "parse_matroid_text", "parse", None),
    ("formats", "parse_matrix_text", "parse", None),
    ("formats", "parse_sets_text", "parse", None),
    ("matroid", "matroid_from_flats", "certify", _exchange_pairs),
    ("matroid", "Matroid.flat_lattice", "lattice", None),
    ("matroid", "contract", "minor_op", None),
    ("matroid", "delete", "minor_op", None),
    ("matroid", "simplify", "minor_op", None),
    ("matroid", "truncation", "minor_op", None),
    ("matroid", "relabel", "minor_op", None),
    ("matroid", "is_weak_map_image", "weak_order", None),
    ("matroid", "are_isomorphic", "iso", _found),
    ("erection", "spanning_k_closed_masks", "census", _census_note),
    ("erection", "enumerate_erections", "cover", _nontrivial_erections),
    ("erection", "_materialize", "materialize", None),
    ("minors", "find_minor", "search", _found),
    ("minors", "replay_witness", "replay", None),
    ("linalg", "column_matroid", "column_matroid", None),
    ("linalg", "kernel_basis", "kernel", None),
    ("linalg", "weight3_subspace", "weight3", None),
    ("linalg", "formalization", "formalization", None),
    ("charpoly", "characteristic_polynomial", "charpoly", None),
    ("charpoly", "splits_over_integers", "charpoly", None),
    ("properties", "closure_axiom_failures", "properties", None),
    ("properties", "rank_axiom_failures", "properties", None),
    ("properties", "exchange_failures", "properties", None),
    ("properties", "minor_commutation_failures", "properties", None),
    ("properties", "erection_family_failures", "properties", None),
    ("properties", "formalization_quotient_failures", "properties", None),
    ("properties", "quotient_order_failures", "properties", None),
    ("reproduce", "run_reproduce", "reproduce", _check_times),
    ("cli", "main", "cli", _cli_command),
)
CERTIFY = "matroid.Matroid.__init__"
KIND = {f"{mod}.{qualname}": kind for mod, qualname, kind, _ in SPANNED}
KIND[CERTIFY] = "certify"
LINALG_KINDS = frozenset({"column_matroid", "kernel", "weight3", "formalization"})

CLI_COMMANDS = ("validate", "flats", "erect", "formality", "charpoly",
                "minor", "obstruction", "reproduce")
REPRODUCE_CHECKS = (
    "m-wellformed", "realization", "erections", "candidate-census",
    "crapo-conditions", "minor-chain", "obstruction-verdicts",
    "fano-matrices", "yuzvinsky-pair", "formality", "non-freeness",
    "property-suites",
)

_S, _COUNT, _RATIO = "s", "count", "ratio"

# Every per-layer metric, in output order, with its unit.
LAYER_METRICS = (
    ("formats.parse_s", _S),
    ("formats.parse_self_s", _S),
    ("matroid.certify_s", _S),
    ("matroid.certify_calls", _COUNT),
    ("matroid.exchange_pairs", _COUNT),
    ("matroid.rank_queries", _COUNT),
    ("matroid.closure_queries", _COUNT),
    ("matroid.lattice_s", _S),
    ("matroid.minor_ops_s", _S),
    ("matroid.weak_order_s", _S),
    ("matroid.weak_order_calls", _COUNT),
    ("matroid.iso_s", _S),
    ("matroid.iso_hit_ratio", _RATIO),
    ("erection.census_s", _S),
    ("erection.census_calls", _COUNT),
    ("erection.census_candidates", _COUNT),
    ("erection.census_subsets", _COUNT),
    ("erection.cover_s", _S),
    ("erection.materialize_s", _S),
    ("erection.solutions", _COUNT),
    ("erection.erections_found", _COUNT),
    ("erection.dedupe_ratio", _RATIO),
    ("minors.search_s", _S),
    ("minors.search_self_s", _S),
    ("minors.searches", _COUNT),
    ("minors.found_ratio", _RATIO),
    ("minors.contractions", _COUNT),
    ("minors.iso_calls", _COUNT),
    ("minors.replay_s", _S),
    ("linalg.rref_calls", _COUNT),
    ("linalg.column_matroid_s", _S),
    ("linalg.column_matroid_rref_calls", _COUNT),
    ("linalg.kernel_s", _S),
    ("linalg.weight3_s", _S),
    ("linalg.weight3_calls", _COUNT),
    ("linalg.formalization_s", _S),
    ("charpoly.s", _S),
    ("properties.s", _S),
    *((f"reproduce.{name}_s", _S) for name in REPRODUCE_CHECKS),
    *((f"cli.{name}_s", _S) for name in CLI_COMMANDS),
    ("trace.pass_s", _S),
    ("trace.overhead_s", _S),
)


class Tracer:
    """Spans and counters for one process; inert until installed."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.current = -1
        self.calls = [0] * len(COUNTED)
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for index, (mod, qualname) in enumerate(COUNTED):
            self._replace(mod, qualname,
                          lambda orig, i=index: self._counting(orig, i))
        for mod, qualname, _kind, note in SPANNED:
            self._replace(mod, qualname,
                          lambda orig, s=f"{mod}.{qualname}", n=note:
                          self._spanning(orig, s, n))
        self._replace("matroid", "Matroid.__init__", self._certifying)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        self.enabled = False

    def _replace(self, module_name: str, qualname: str, make_wrapper) -> None:
        """Wrap one target everywhere it is bound; skip it if it is gone."""
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            return
        wrapper = make_wrapper(original)
        if owner_name:
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _counting(self, orig, index: int):
        calls = self.calls

        @wraps(orig)
        def wrapper(*args, **kwargs):
            calls[index] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _open(self, name: str) -> tuple[list, int]:
        record = [name, self.current, perf_counter(), 0.0, tuple(self.calls), None]
        parent = self.current
        self.current = len(self.spans)
        self.spans.append(record)
        return record, parent

    def _close(self, record: list, parent: int) -> None:
        record[3] = perf_counter()
        record[4] = tuple(b - a for a, b in zip(record[4], self.calls))
        self.current = parent

    def _spanning(self, orig, name: str, note):
        lattice = KIND[name] == "lattice"

        @wraps(orig)
        def wrapper(*args, **kwargs):
            # flat_lattice is memoized; only the computing call is work
            if not self.enabled or (
                    lattice and getattr(args[0], "_lattice", None) is not None):
                return orig(*args, **kwargs)
            record, parent = self._open(name)
            try:
                result = orig(*args, **kwargs)
                if note is not None:
                    record[5] = note(args, kwargs, result)
                return result
            finally:
                self._close(record, parent)
        return wrapper

    def _certifying(self, orig):
        """Matroid(...) certifies the exchange axiom unless _validated."""
        @wraps(orig)
        def wrapper(obj, *args, **kwargs):
            if kwargs.get("_validated") or not self.enabled:
                return orig(obj, *args, **kwargs)
            record, parent = self._open(CERTIFY)
            try:
                orig(obj, *args, **kwargs)
                record[5] = len(obj.basis_masks) ** 2
            finally:
                self._close(record, parent)
        return wrapper

    # -- passes -------------------------------------------------------------

    def begin_pass(self) -> tuple[int, ...]:
        self.spans = []
        self.current = -1
        self.enabled = True
        return tuple(self.calls)

    def end_pass(self, calls_at_start: tuple[int, ...]) -> tuple[list, tuple]:
        self.enabled = False
        delta = tuple(b - a for a, b in zip(calls_at_start, self.calls))
        return self.spans, delta


def slice_pass(spans: list[list], start: tuple, stop: tuple):
    """The spans and counter deltas between two (span count, calls) marks."""
    first, last = start[0], stop[0]
    part = [[name, parent - first if parent >= first else -1, *rest]
            for name, parent, *rest in spans[first:last]]
    return part, tuple(b - a for a, b in zip(start[1], stop[1]))


def layer_metrics(spans: list[list], calls: tuple[int, ...]) -> dict[str, float]:
    """Per-layer figures of one traced pass, or part of one.

    Names are those of LAYER_METRICS except the ``trace.*`` pair, which
    compare whole passes and are filled in by the caller.

    A time is the total duration of the spans of one kind that have no
    ancestor of the same kind, so recursion and nesting count once.
    """
    count = len(spans)
    kind = [KIND[s[0]] for s in spans]
    duration = [s[3] - s[2] for s in spans]
    child_time = [0.0] * count
    above: list[frozenset] = [frozenset()] * count  # kinds of all ancestors
    for i, record in enumerate(spans):
        parent = record[1]
        if parent >= 0:
            child_time[parent] += duration[i]
            above[i] = above[parent] | {kind[parent]}
    by_kind: dict[str, list[int]] = {}
    for i, k in enumerate(kind):
        by_kind.setdefault(k, []).append(i)

    def every(k):
        return by_kind.get(k, [])

    def outer(k):
        return [i for i in every(k) if k not in above[i]]

    def total(idx):
        return sum(duration[i] for i in idx)

    def self_total(idx):
        return sum(duration[i] - child_time[i] for i in idx)

    def notes(idx):
        return [spans[i][5] for i in idx]

    def ratio(hits, attempts):
        return hits / attempts if attempts else 0.0

    def under_search(name):
        return [i for i in range(count) if spans[i][0] == name
                and spans[i][1] >= 0 and kind[spans[i][1]] == "search"]

    census = every("census")
    found = sum(notes(every("cover")))
    solutions = len(every("materialize"))
    search = every("search")
    out = {
        "formats.parse_s": total(outer("parse")),
        "formats.parse_self_s": self_total(outer("parse")),
        "matroid.certify_s": total(outer("certify")),
        "matroid.certify_calls": len(every("certify")),
        "matroid.exchange_pairs": sum(notes(every("certify"))),
        "matroid.rank_queries": calls[RANK],
        "matroid.closure_queries": calls[CLOSURE],
        "matroid.lattice_s": total(outer("lattice")),
        "matroid.minor_ops_s": total(outer("minor_op")),
        "matroid.weak_order_s": total(outer("weak_order")),
        "matroid.weak_order_calls": len(every("weak_order")),
        "matroid.iso_s": total(outer("iso")),
        "matroid.iso_hit_ratio": ratio(sum(notes(every("iso"))), len(every("iso"))),
        "erection.census_s": total(outer("census")),
        "erection.census_calls": len(census),
        "erection.census_candidates": sum(c for c, _ in notes(census)),
        "erection.census_subsets": sum(s for _, s in notes(census)),
        "erection.cover_s": self_total(every("cover")),
        "erection.materialize_s": total(outer("materialize")),
        "erection.solutions": solutions,
        "erection.erections_found": found,
        "erection.dedupe_ratio": ratio(found, solutions),
        "minors.search_s": total(outer("search")),
        "minors.search_self_s": self_total(search),
        "minors.searches": len(search),
        "minors.found_ratio": ratio(sum(notes(search)), len(search)),
        "minors.contractions": len(under_search("matroid.contract")),
        "minors.iso_calls": len(under_search("matroid.are_isomorphic")),
        "minors.replay_s": total(outer("replay")),
        "linalg.rref_calls": calls[RREF],
        "linalg.column_matroid_s": total(outer("column_matroid")),
        "linalg.column_matroid_rref_calls": sum(
            spans[i][4][RREF] for i in outer("column_matroid")),
        "linalg.kernel_s": total([i for i in every("kernel")
                                  if not above[i] & LINALG_KINDS]),
        "linalg.weight3_s": total(outer("weight3")),
        "linalg.weight3_calls": len(every("weight3")),
        "linalg.formalization_s": total(outer("formalization")),
        "charpoly.s": total(outer("charpoly")),
        "properties.s": total(outer("properties")),
    }
    checks = dict.fromkeys(REPRODUCE_CHECKS, 0.0)
    for check_times in notes(every("reproduce")):
        for name, elapsed in check_times:
            checks[name] += elapsed
    commands = dict.fromkeys(CLI_COMMANDS, 0.0)
    for i in every("cli"):
        commands[spans[i][5]] += duration[i]
    out.update((f"reproduce.{name}_s", t) for name, t in checks.items())
    out.update((f"cli.{name}_s", t) for name, t in commands.items())
    return out
