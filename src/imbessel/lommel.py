"""Classification of x^2 y'' + a x y' + (b + c x^(2 beta)) y = 0.

Any equation of this family transforms into a Bessel equation: writing
s = (a - 1)/2, the substitution y = x^(-s) w(g x^beta) with
g = sqrt(c)/|beta| turns it into

    u^2 w'' + u w' + (u^2 - D) w = 0,      D = s^2 - b,

so the solution order is sqrt(D) when the discriminant D is nonnegative
(classical real order) and the order is pure imaginary with parameter
sqrt(-D)/|beta| otherwise, in which case the basis of this package
applies directly.  The prefactor exponent -s is real either way, even
though the order may not be.

Negative beta is accepted; its sign folds into the argument transform
x -> g x^beta, so the reported scale g and order stay nonnegative.

The records are named tuples.  The two orders have the same shape, so
each compares equal only to an order of its own type:
RealOrder(v) != ImaginaryOrder(v).
"""

import math
from typing import NamedTuple

from .error_bounds import _check_finite
from .errors import DomainError, ToleranceError

_isfinite = math.isfinite
_sqrt = math.sqrt
_INF = math.inf
# Records are built with tuple.__new__, which is what a named tuple's own
# __new__ calls after binding its arguments by name: the same record,
# without the generated __new__'s Python frame, in about half the time
# (each classify call builds two records).
_new = tuple.__new__


def _eq(self, other):
    # tuple equality alone would make RealOrder(v) == ImaginaryOrder(v)
    return type(other) is type(self) and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


class RealOrder(NamedTuple):
    """Classical Bessel order nu >= 0."""

    nu: float
    __eq__ = _eq
    __ne__ = _ne


class ImaginaryOrder(NamedTuple):
    """Pure imaginary Bessel order i*nu with nu > 0."""

    nu: float
    __eq__ = _eq
    __ne__ = _ne


class LommelSolution(NamedTuple):
    """Bessel form of a classified equation.

    Solutions are x^prefactor_exponent * w(gamma * x^beta) with w a
    Bessel-type function of the reported order.
    """

    prefactor_exponent: float
    gamma: float
    order: RealOrder | ImaginaryOrder


def classify(a: float, b: float, c: float, beta: float) -> LommelSolution:
    """Map coefficients (a, b, c, beta) to Bessel parameters.

    The discriminant ((a-1)/2)^2 - b decides the order type: nonnegative
    gives a real order (zero ties resolve to RealOrder(0)), negative an
    imaginary order.  Requires beta != 0 and c > 0: with c = 0 the
    equation is an Euler equation, whose argument scale 0 has no Bessel
    form.

    Raises DomainError for an argument that is not a finite real number
    (checked in the order a, b, c, beta), beta = 0 or c <= 0, and
    ToleranceError when the scale gamma or the order leaves the double
    range (gamma overflows or underflows to 0, an imaginary order
    underflows to 0, or the discriminant or the order overflows).
    """
    try:
        finite = _isfinite(a) and _isfinite(b) and _isfinite(c) and _isfinite(beta)
    except TypeError:
        finite = False
    if not finite:
        for name, value in (("a", a), ("b", b), ("c", c), ("beta", beta)):
            _check_finite(value, name)
    if beta == 0.0:
        raise DomainError("beta must be nonzero")
    if c <= 0.0:
        raise DomainError(f"c must be > 0, got {c}")
    s = (a - 1.0) / 2.0
    disc = s * s - b
    abs_beta = abs(beta)
    scale = _sqrt(c) / abs_beta
    if not 0.0 < scale < _INF:
        raise ToleranceError(
            f"gamma = sqrt(c)/|beta| = {scale!r} leaves the double range at c={c!r}, beta={beta!r}"
        )
    if disc >= 0.0:
        nu = _sqrt(disc) / abs_beta
        order = _new(RealOrder, (nu,))
        ok = nu < _INF
    else:
        nu = _sqrt(-disc) / abs_beta
        order = _new(ImaginaryOrder, (nu,))
        ok = 0.0 < nu < _INF
    if not ok:
        raise ToleranceError(
            f"order nu = {nu!r} leaves the double range at a={a!r}, b={b!r}, beta={beta!r}"
        )
    return _new(LommelSolution, (-s, scale, order))

