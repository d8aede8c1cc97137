"""Exception taxonomy shared across the library.

Everything raised on purpose derives from :class:`MatroidForgeError`, so
callers can catch one base class at API boundaries.  Validation failures
(axiom violations, inconsistent flat lists) are kept separate from format
errors (bad input files) and from resource guards (ground set too large,
search budget exhausted).
"""

from __future__ import annotations

from typing import Callable

# The node budget of every backtracking search when the caller sets none.
DEFAULT_BUDGET = 10 ** 8


class MatroidForgeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MatroidForgeError):
    """A constructed object violates a matroid axiom or an invariant."""


class EmptyGroundSet(ValidationError):
    """An operation would leave no elements at all."""


class RankTooLow(ValidationError):
    """The operation needs a matroid of higher rank (e.g. truncation of rank 1)."""


class GroundSetMismatch(ValidationError):
    """Two objects that must share a ground-set size do not."""


class GroundSetTooLarge(MatroidForgeError):
    """The ground set exceeds what an exhaustive routine is willing to scan."""


class SearchBudgetExceeded(MatroidForgeError):
    """A backtracking search ran past its node budget.

    Exceeding the budget is always an error; results are exact or absent,
    never silently truncated.
    """


def charger(budget: int | None, search: str) -> Callable[[int], None]:
    """A charge function over ``budget`` nodes (default :data:`DEFAULT_BUDGET`)
    that raises :class:`SearchBudgetExceeded`, naming ``search``, once the
    nodes charged exceed it."""
    limit = DEFAULT_BUDGET if budget is None else budget
    nodes = 0

    def charge(count: int) -> None:
        nonlocal nodes
        nodes += count
        if nodes > limit:
            raise SearchBudgetExceeded(f"{search} exceeded {limit} nodes")
    return charge


class ZeroFunctional(MatroidForgeError):
    """A matrix column that must be a nonzero functional is zero."""


class FormatError(MatroidForgeError):
    """An input file does not follow the documented grammar."""

    def __init__(self, message: str, *, line: int | None = None,
                 source: str | None = None):
        self.line = line
        self.source = source
        prefix = ""
        if source is not None:
            prefix = source if line is None else f"{source}:{line}"
        elif line is not None:
            prefix = f"line {line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)
