"""Characteristic polynomials of simple matroids, with exact integers.

chi(t) = sum over flats X of mu(bottom, X) * t^(r - rk X), where mu is the
Moebius function of the lattice of flats.  The lattice is small at desk
scale, so mu is computed by the defining recursion over lower intervals —
no broken-circuit machinery.  Failure to factor into integer linear terms
is the freeness obstruction consumed downstream.
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .matroid import Matroid, Record


class IntPolynomial(Record):
    """Integer polynomial, coefficients ascending: coeffs[i] multiplies t^i."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        if coeffs and coeffs[-1] == 0:
            raise ValidationError("leading coefficient must be nonzero")
        Record.__init__(self, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, power: int) -> int:
        return self.coeffs[power] if 0 <= power < len(self.coeffs) else 0

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divide_by_root(self, root: int) -> tuple["IntPolynomial", int]:
        """Synthetic division by (t - root); returns (quotient, remainder)."""
        acc = 0
        out = []
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        remainder = out.pop()
        quotient = tuple(reversed(out))
        return IntPolynomial(quotient), remainder

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                term = str(mag)
            elif power == 1:
                term = "t" if mag == 1 else f"{mag}*t"
            else:
                term = f"t^{power}" if mag == 1 else f"{mag}*t^{power}"
            parts.append((sign, term))
        if not parts:
            return "0"
        first_sign, first_term = parts[0]
        text = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


def characteristic_polynomial(m: Matroid) -> IntPolynomial:
    """Moebius sum over the lattice of flats of a simple matroid."""
    if not m.is_simple:
        raise ValidationError("characteristic polynomial expects a simple matroid")
    # a flat's proper subflats have lower rank, so mu has them already
    mu: dict[int, int] = {}
    coeffs = [0] * (m.rank + 1)
    for k, level in enumerate(m.flat_lattice()):
        for f in level:
            mu[f] = -sum(v for g, v in mu.items() if g & ~f == 0) if k else 1
            coeffs[m.rank - k] += mu[f]
    return IntPolynomial(tuple(coeffs))


def splits_over_integers(p: IntPolynomial) -> tuple[int, ...] | None:
    """The sorted multiset of roots if p factors into integer linear terms.

    Candidate roots are the (signed) divisors of the constant term, found
    in pairs (d, |c| / d) with d <= sqrt|c| and each confirmed by exact
    synthetic division; any stage without an integer root means no full
    split exists, and None is returned.
    """
    if not p.is_monic:
        raise ValidationError("splits_over_integers expects a monic polynomial")
    roots: list[int] = []
    work = p
    while work.degree > 0:
        constant = work.coeffs[0]
        if constant == 0:
            candidates = [0]
        else:
            mag = abs(constant)
            small = [d for d in range(1, math.isqrt(mag) + 1) if mag % d == 0]
            divisors = small + [mag // d for d in reversed(small) if d * d != mag]
            candidates = [s * d for d in divisors for s in (1, -1)]
        for cand in candidates:
            quotient, remainder = work.divide_by_root(cand)
            if remainder == 0:
                roots.append(cand)
                work = quotient
                break
        else:
            return None
    return tuple(sorted(roots))
