"""Exact scalars and angles.

All discrete strategy parameters in this package live on lattices of
rational multiples of pi.  Squared payoff amplitudes built from such angles
stay inside the quadratic field Q(sqrt(2)), so an exact pair-of-Fractions
number type is enough to avoid floating point everywhere it matters.
Field decides how two scalars compare, exactly or within a tolerance.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Union

from .errors import DomainError, ExactnessError, ToleranceError

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


class Q2:
    """Number a + b*sqrt(2) with rational a, b.  Immutable, hashable, ordered."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", a if isinstance(a, Fraction) else Fraction(a))
        object.__setattr__(self, "b", b if isinstance(b, Fraction) else Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Q2 is immutable")

    # -- conversions ------------------------------------------------------

    @staticmethod
    def coerce(x) -> "Q2":
        if isinstance(x, Q2):
            return x
        if isinstance(x, (int, Fraction)):
            return Q2(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Q2")

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = Q2.coerce(other)
        if not o.b:
            return Q2(self.a + o.a, self.b)
        return Q2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = Q2.coerce(other)
        if not o.b:
            return Q2(self.a - o.a, self.b)
        return Q2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = Q2.coerce(other)
        return Q2(o.a - self.a, o.b - self.b)

    def __neg__(self):
        return Q2(-self.a, -self.b)

    def __mul__(self, other):
        o = Q2.coerce(other)
        if not (self.b or o.b):
            return Q2(self.a * o.a, _ZERO)
        # (a + b r)(c + d r) = ac + 2bd + (ad + bc) r, with r = sqrt(2)
        return Q2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Q2.coerce(other)
        n = o.a * o.a - 2 * o.b * o.b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q2")
        # 1/(c + d r) = (c - d r)/(c^2 - 2 d^2)
        return self * Q2(o.a / n, -o.b / n)

    def __rtruediv__(self, other):
        return Q2.coerce(other) / self

    # -- comparisons ------------------------------------------------------

    def _sign(self) -> int:
        return _sign(self.a, self.b)

    def __eq__(self, other):
        try:
            o = Q2.coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __lt__(self, other):
        return (self - Q2.coerce(other))._sign() < 0

    def __le__(self, other):
        return (self - Q2.coerce(other))._sign() <= 0

    def __gt__(self, other):
        return (self - Q2.coerce(other))._sign() > 0

    def __ge__(self, other):
        return (self - Q2.coerce(other))._sign() >= 0

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def __repr__(self):
        return f"Q2({self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt(2)"
        sep = "+" if self.b > 0 else "-"
        return f"{self.a}{sep}{abs(self.b)}*sqrt(2)"


def normalize(x):
    """A rational Q2 as its Fraction; any other scalar unchanged."""
    return x.a if isinstance(x, Q2) and x.b == 0 else x


def scalar_is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, Q2))


def _sign(a, b) -> int:
    """Sign of a + b*sqrt(2) for rational a, b, decided exactly."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare |a| with |b| sqrt(2) exactly
    if a > 0:  # b < 0
        return 1 if a * a > 2 * b * b else -1
    return 1 if 2 * b * b > a * a else -1


class Z2:
    """Integer a + b*sqrt(2) of Z[sqrt(2)]: an exact Q(sqrt(2)) game scaled by
    the lcm of its denominators.  Supports what fraction-free elimination
    needs: +, -, *, exact division // (a nonzero remainder raises) and sign
    comparisons; ints mix in freely."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        self.a = a
        self.b = b

    def __add__(self, o):
        if isinstance(o, int):
            return Z2(self.a + o, self.b)
        return Z2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, int):
            return Z2(self.a - o, self.b)
        return Z2(self.a - o.a, self.b - o.b)

    def __rsub__(self, o):
        return Z2(o - self.a, -self.b)

    def __neg__(self):
        return Z2(-self.a, -self.b)

    def __mul__(self, o):
        if isinstance(o, int):
            return Z2(self.a * o, self.b * o)
        return Z2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __floordiv__(self, o):
        """The exact quotient: through the norm c^2 - 2 d^2 of o = c + d r."""
        if isinstance(o, int):
            num, norm = self, o
        else:
            num, norm = self * Z2(o.a, -o.b), o.a * o.a - 2 * o.b * o.b
        qa, ra = divmod(num.a, norm)
        qb, rb = divmod(num.b, norm)
        if ra or rb:
            raise ArithmeticError(f"{self} is not divisible by {o} in Z[sqrt(2)]")
        return Z2(qa, qb)

    def __rfloordiv__(self, o):
        return Z2(o) // self

    def __eq__(self, o):
        if isinstance(o, int):
            return self.b == 0 and self.a == o
        if isinstance(o, Z2):
            return self.a == o.a and self.b == o.b
        return NotImplemented

    def __lt__(self, o):
        diff = self - o
        return _sign(diff.a, diff.b) < 0

    def __gt__(self, o):
        diff = self - o
        return _sign(diff.a, diff.b) > 0

    def __repr__(self):
        return f"Z2({self.a}, {self.b})"


def integral(values, scale: int):
    """scale * x for every exact x, as an int, or a Z2 when x has a sqrt(2)
    part; scale must clear every denominator (see denominators_lcm)."""
    out = []
    for x in values:
        if isinstance(x, Q2):
            if x.b:
                out.append(Z2(int(x.a * scale), int(x.b * scale)))
                continue
            x = x.a
        out.append(int(x * scale) if isinstance(x, Fraction) else x * scale)
    return out


def denominators_lcm(values) -> int:
    """lcm of the denominators of the rational parts of exact values."""
    scale = 1
    for x in values:
        for part in (x.a, x.b) if isinstance(x, Q2) else (x,):
            if isinstance(part, Fraction):
                scale = math.lcm(scale, part.denominator)
    return scale


def ratio(num, d):
    """The exact quotient num / d of two integers of Z or Z[sqrt(2)], as a
    Fraction when it is rational and a Q2 otherwise."""
    if isinstance(num, int) and isinstance(d, int):
        return Fraction(num, d)
    num, d = (Q2(x.a, x.b) if isinstance(x, Z2) else Q2(x) for x in (num, d))
    return normalize(num / d)


Q2_ZERO = Q2(0)
Q2_ONE = Q2(1)
Q2_HALF_SQRT2 = Q2(0, _HALF)  # sqrt(2)/2 == cos(pi/4)


# -- exact trigonometry on rational multiples of pi ------------------------


@lru_cache(maxsize=4096)
def exact_cos(k: Fraction) -> Q2:
    """cos(k*pi) for rational k, exact in Q(sqrt(2)) when representable.

    Defined for k with denominator 1, 2, 3 or 4; anything else (e.g. pi/6 or
    pi/8 multiples, whose cosines need sqrt(3) or nested radicals) raises
    ExactnessError.
    """
    k = k % 2
    q = k.denominator
    p = k.numerator
    if q == 1:
        return Q2_ONE if p % 2 == 0 else Q2(-1)
    if q == 2:
        return Q2_ZERO
    if q == 3:
        return Q2(_HALF) if p % 6 in (1, 5) else Q2(-_HALF)
    if q == 4:
        return Q2_HALF_SQRT2 if p % 8 in (1, 7) else Q2(0, -_HALF)
    raise ExactnessError(f"cos({k}*pi) is not representable in Q(sqrt(2))")


# -- angles -----------------------------------------------------------------

_ANGLE_RE = re.compile(
    r"""^\s*(?P<sign>[+-])?\s*
        (?:(?P<num>\d+)\s*(?:/\s*(?P<den>\d+))?\s*)?
        (?P<pi>pi|π)\s*$""",
    re.VERBOSE | re.IGNORECASE,
)


@dataclass(frozen=True)
class Angle:
    """An angle, stored exactly as a rational multiple of pi or as float radians."""

    value: Union[Fraction, float]

    @staticmethod
    def pi_frac(k) -> "Angle":
        """Angle k*pi for rational k."""
        return Angle(Fraction(k))

    @staticmethod
    def radians(x: float) -> "Angle":
        return Angle(float(x))

    @staticmethod
    def parse(text) -> "Angle":
        """Parse '1/2 pi', 'pi', '0', '3/4pi' or a float-radian literal.

        A zero denominator or a non-finite value raises DomainError.
        """
        if isinstance(text, Angle):
            return text
        if isinstance(text, (int, Fraction)):
            return Angle.pi_frac(text)
        if isinstance(text, float):
            if not math.isfinite(text):
                raise DomainError(f"angle {text!r} is not finite")
            return Angle.radians(text)
        s = str(text).strip()
        m = _ANGLE_RE.match(s)
        try:
            if m:
                num = int(m.group("num")) if m.group("num") else 1
                den = int(m.group("den")) if m.group("den") else 1
                k = Fraction(num, den)
                if m.group("sign") == "-":
                    k = -k
                return Angle.pi_frac(k)
            if "/" in s:
                return Angle.pi_frac(Fraction(s))  # bare rational means k*pi
            f = float(s)
        except ValueError:
            raise DomainError(f"cannot parse angle {text!r}") from None
        except ZeroDivisionError:
            raise DomainError(f"angle {text!r} has a zero denominator") from None
        if not math.isfinite(f):
            raise DomainError(f"angle {text!r} is not finite")
        if f == int(f) and "." not in s and "e" not in s.lower():
            return Angle.pi_frac(int(f))  # bare integer means k*pi
        return Angle.radians(f)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)

    @property
    def frac(self) -> Fraction:
        if not self.is_exact:
            raise ExactnessError(f"angle {self} is not an exact multiple of pi")
        return self.value

    def to_radians(self) -> float:
        if self.is_exact:
            return float(self.value) * math.pi
        return self.value

    def mod_2pi(self) -> "Angle":
        if self.is_exact:
            return Angle(self.value % 2)
        r = math.fmod(self.value, 2.0 * math.pi)
        if r < 0:
            r += 2.0 * math.pi
        if r >= 2.0 * math.pi:  # fmod rounding at the boundary
            r = 0.0
        return Angle(r)

    def __add__(self, other: "Angle") -> "Angle":
        if self.is_exact and other.is_exact:
            return Angle(self.value + other.value)
        return Angle(self.to_radians() + other.to_radians())

    def __sub__(self, other: "Angle") -> "Angle":
        if self.is_exact and other.is_exact:
            return Angle(self.value - other.value)
        return Angle(self.to_radians() - other.to_radians())

    def __neg__(self) -> "Angle":
        return Angle(-self.value)

    def __rmul__(self, k: int) -> "Angle":
        return Angle(k * self.value)

    @cached_property
    def pi_units(self) -> float:
        """The angle over pi, as a float."""
        return float(self.value) if self.is_exact else self.value / math.pi

    def format(self) -> str:
        """Inverse of parse: 'k/m pi' for exact angles, repr-float otherwise."""
        if not self.is_exact:
            return repr(self.value)
        k = self.value
        if k == 0:
            return "0"
        if k == 1:
            return "pi"
        if k.denominator == 1:
            return f"{k.numerator} pi"
        return f"{k.numerator}/{k.denominator} pi"

    def __str__(self):
        return self.format()


ANGLE_PI = Angle.pi_frac(1)


def angle_cos(a: Angle) -> Union[Q2, float]:
    """cos(a): exact in Q(sqrt(2)) when a is an exact angle whose cosine
    lies there, a float otherwise.  The one place where exact trigonometry
    falls back to floats value by value; payoff.coefficients falls back by
    whole vectors instead."""
    if a.is_exact:
        try:
            return exact_cos(a.value)
        except ExactnessError:
            pass
    return math.cos(a.to_radians())


# -- comparing scalars, exactly or within a tolerance -------------------------

FLOAT_TOL = 1e-10


@dataclass(frozen=True)
class Field:
    """How two scalars compare: exactly when tol is None, else within tol.

    Every algorithm that compares scalars asks its Field instead of testing
    types or a mode: partition and criterion_holds, strongly_isomorphic, the
    lattice kernel's interning, the closed-form payoff sum and the
    equilibrium solver.
    """

    tol: Optional[float] = None

    @staticmethod
    def of(values, mode: str = "auto", tol: float = FLOAT_TOL) -> "Field":
        """Exact unless mode is 'float' or some value is a float."""
        if mode != "float" and all(scalar_is_exact(v) for v in values):
            return EXACT
        return Field(tol)

    @property
    def exact(self) -> bool:
        return self.tol is None

    @property
    def zero(self):
        return Fraction(0) if self.exact else 0.0

    @property
    def one(self):
        return Fraction(1) if self.exact else 1.0

    def convert(self, x):
        """x in this field: a float in a float field; in the exact field
        ints become Fractions, so exact results are Fractions."""
        if not self.exact:
            return float(x)
        return Fraction(x) if isinstance(x, int) else x

    def is_zero(self, x, d=1) -> bool:
        """x / d is zero: exactly, or within tol in a float field."""
        return x == 0 if self.exact else abs(x) <= self.tol * abs(d)

    def exceeds(self, x, y) -> bool:
        """x > y, by more than tol in a float field."""
        return x > y if self.exact else x > y + self.tol

    def pivot(self, values, d=1) -> Optional[int]:
        """Index of the pivot among values / d, None if all are zero: the
        first nonzero one when exact, the largest in magnitude otherwise."""
        if self.exact:
            return next((i for i, v in enumerate(values) if v != 0), None)
        best = max(range(len(values)), key=lambda i: abs(values[i]))
        return None if self.is_zero(values[best], d) else best

    def key(self, x):
        """Dedupe key: the value itself, or its index on a grid of step tol."""
        return x if self.exact else round(float(x) / self.tol)

    def intern(self, values) -> List[int]:
        """Integer ids of values: equal ids mean equal values (exact) or
        values within tol (float).

        Floats are sorted and start a new id at every gap wider than tol.
        That is closeness at tol only if every cluster is much narrower than
        tol and every gap much wider, so ToleranceError is raised unless
        each cluster spans at most tol/100 and each gap is at least 100 tol.
        """
        if self.exact:
            ids: Dict[object, int] = {}
            return [ids.setdefault(v, len(ids)) for v in values]
        tol = self.tol
        values = [float(v) for v in values]
        distinct = sorted(set(values))
        if not all(map(math.isfinite, distinct)):
            raise ToleranceError("values to intern must be finite")
        cluster_of = {}
        cluster, width, gap = 0, 0.0, math.inf
        start = prev = distinct[0] if distinct else 0.0
        for v in distinct:
            if v - prev > tol:  # a gap wider than tol starts a new cluster
                width, gap = max(width, prev - start), min(gap, v - prev)
                start, cluster = v, cluster + 1
            cluster_of[v] = cluster
            prev = v
        width = max(width, prev - start)
        if width > tol / 100 or gap < 100 * tol:
            raise ToleranceError(
                f"float values do not separate at tol = {tol:g}: "
                f"widest cluster {width:.3g}, narrowest gap {gap:.3g}"
            )
        return [cluster_of[v] for v in values]


EXACT = Field()
