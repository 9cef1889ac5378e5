"""Scalar backends: exact Gaussian rationals and tolerance-aware complex floats.

Every matrix in this library carries one of two backends.  The exact
backend stores entries as Gaussian rationals (pairs of ``fractions.Fraction``),
so rank and span decisions are division-free certain.  The float backend
stores complex128 and makes all zero/rank decisions relative to an explicit
:class:`ToleranceContext`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral


@dataclass(frozen=True)
class ToleranceContext:
    """Thresholds shared by all float-backend decisions.

    tau_rank: relative singular-value cutoff for rank/kernel decisions.
    tau_gap: absolute gap under which two eigenvalues are treated as equal.
    """

    tau_rank: float = 1e-9
    tau_gap: float = 1e-7

    def __post_init__(self):
        if self.tau_rank <= 0 or self.tau_gap <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_TOL = ToleranceContext()


class QQi:
    """A Gaussian rational re + im*i with Fraction components.

    Immutable and hashable.  Fractions keep themselves in lowest terms with
    positive denominator, which makes equality of canonical subspace bases
    entrywise equality.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @classmethod
    def _raw(cls, re, im):
        # fast path for internal arithmetic: arguments are Fractions already
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.re and not self.im

    def is_real(self):
        return not self.im

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, QQi):
            return x
        if isinstance(x, (Fraction, Integral)):
            return QQi(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi._raw(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return QQi._raw(self.re * other.re, self.im)
        return QQi._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return QQi._raw(self.re / other.re, self.im / other.re)
        d = other.re * other.re + other.im * other.im
        if not d:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi._raw(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversions ------------------------------------------------------

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if not self.im:
            return f"QQi({self.re})"
        return f"QQi({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)


def as_qqi(x) -> QQi:
    """Coerce ints, Fractions, exact-looking floats and QQi to QQi."""
    if isinstance(x, QQi):
        return x
    if isinstance(x, (Fraction, Integral)):
        return QQi(x)
    if isinstance(x, float):
        # binary floats are exact rationals; callers who want decimal
        # semantics should pass "p/q" strings instead
        return QQi(Fraction(x))
    if isinstance(x, complex):
        return QQi(Fraction(x.real), Fraction(x.imag))
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")

