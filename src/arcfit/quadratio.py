"""Global minimum of (a0 + a1*x + a2*x^2) / (b0 + b1*x + b2*x^2).

The minimum is taken over Q = {x : denominator > 0}, and the numerator is
required to be nonnegative everywhere, which is what the fitting objectives
guarantee (their numerators are weighted sums of squares). Under that
restriction the ratio has at most one interior minimum, located at a root of
the quadratic numerator of the derivative, and the whole problem collapses
to a sign/discriminant case split. No iteration is ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["QuadRatio", "RatioMin", "minimize_ratio", "ratio_value"]

_ADMISSIBILITY_RTOL = 1e-9
# Denominator values this close to zero (relative to the evaluated terms) are
# treated as outside the domain; callers fall back to their own search.
_DOMAIN_RTOL = 1e-12


class _Inadmissible(ValueError):
    """A numerator that takes negative values beyond round-off."""


def _admissible(a0: float, a1: float, a2: float) -> tuple[float, float, float]:
    """Validate that the numerator is nonnegative for all x.

    Round-off level violations are clamped to the admissible boundary;
    anything worse raises _Inadmissible.
    """
    scale = max(abs(a0), abs(a1), abs(a2))
    if scale == 0.0:
        return 0.0, 0.0, 0.0
    tol = _ADMISSIBILITY_RTOL * scale
    if a2 < 0.0:
        if a2 < -tol:
            raise _Inadmissible(f"numerator opens downward: a2={a2!r}")
        a2 = 0.0
    if a0 < 0.0:
        if a0 < -tol:
            raise _Inadmissible(f"numerator negative at x=0: a0={a0!r}")
        a0 = 0.0
    if a2 == 0.0:
        if abs(a1) > tol:
            raise _Inadmissible(
                f"linear numerator takes negative values: a1={a1!r}")
        a1 = 0.0
    else:
        disc = a1 * a1 - 4.0 * a0 * a2
        # Scale includes the full coefficient magnitude so that round-off
        # junk in a1 (e.g. near an exact fit, where a0 underflows to 0)
        # still counts as boundary noise rather than a violation.
        dscale = max(a1 * a1, abs(4.0 * a0 * a2), scale * scale)
        if disc > _ADMISSIBILITY_RTOL * dscale:
            raise _Inadmissible(
                f"numerator has real roots of odd multiplicity: "
                f"discriminant {disc!r}")
        if disc > 0.0:
            a1 = math.copysign(2.0 * math.sqrt(a0 * a2), a1)
    return a0, a1, a2


@dataclass(frozen=True)
class QuadRatio:
    """Coefficients of a quadratic-over-quadratic with nonnegative numerator."""

    a: tuple[float, float, float]
    b: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "a", _admissible(*map(float, self.a)))
        object.__setattr__(self, "b", tuple(map(float, self.b)))

    def numerator(self, x: float) -> float:
        a0, a1, a2 = self.a
        return a0 + x * (a1 + x * a2)

    def denominator(self, x: float) -> float:
        b0, b1, b2 = self.b
        return b0 + x * (b1 + x * b2)


@dataclass(frozen=True)
class RatioMin:
    """Location and value of an attained global minimum."""

    x: float
    value: float


def ratio_value(q: QuadRatio, x: float) -> float:
    return q.numerator(x) / q.denominator(x)


def _stationary_point(c0: float, c1: float, c2: float) -> float | None:
    """Root of c0 + c1*x + c2*x^2 that can be a minimum of the ratio.

    For c2 > 0 that is the largest root, for c2 < 0 the smallest; the two
    branch formulas below pick it without cancellation for either sign of c1.
    Returns None when no such root exists (the ratio is monotone, constant,
    or has only an interior maximum).
    """
    if c2 == 0.0:
        if c1 > 0.0:
            return -c0 / c1
        return None
    disc = c1 * c1 - 4.0 * c0 * c2
    if disc <= 0.0:
        return None
    if c1 < 0.0:
        return (math.sqrt(disc) - c1) / (2.0 * c2)
    if c1 > 0.0:
        return -2.0 * c0 / (math.sqrt(disc) + c1)
    return math.copysign(math.sqrt(-c0 / c2), c2)


def minimize_ratio(q: QuadRatio) -> RatioMin | None:
    """Attained global minimum of the ratio over Q, or None if there is none.

    None covers every unattained case: constant ratio, infimum approached at
    infinity or at a denominator root, and an empty domain.
    """
    a0, a1, a2 = q.a
    b0, b1, b2 = q.b
    if a0 == a1 == a2 == 0.0 and b0 == b1 == b2 == 0.0:
        raise ValueError("numerator and denominator are both identically zero")

    c0 = a1 * b0 - a0 * b1
    c1 = 2.0 * (a2 * b0 - a0 * b2)
    c2 = a2 * b1 - a1 * b2

    x = _stationary_point(c0, c1, c2)
    if x is None or not math.isfinite(x):
        return None

    den = q.denominator(x)
    den_scale = abs(b0) + abs(b1 * x) + abs(b2 * x * x)
    if den <= _DOMAIN_RTOL * den_scale:
        return None
    return RatioMin(x=x, value=max(q.numerator(x), 0.0) / den)
