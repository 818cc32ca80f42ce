"""Exact scalars and angles.

All discrete strategy parameters in this package live on lattices of
rational multiples of pi.  Squared payoff amplitudes built from such angles
stay inside the quadratic field Q(sqrt(2)), so one exact number type, Q2 =
(p + q*sqrt(2))/d on ints, is enough to avoid floating point everywhere it
matters; its d = 1 elements are the ring Z[sqrt(2)] that fraction-free
elimination runs in.  A float enters exact arithmetic at its binary value
(exact_value).
Field decides how two scalars compare, exactly or within a tolerance, and
sums products of vectors of them (exactly on int numerators).
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Union

from .errors import DomainError, ExactnessError, ToleranceError

_HALF = Fraction(1, 2)


class Q2:
    """Number (p + q*sqrt(2))/d with int p, q, d, d > 0 and gcd(p, q, d) = 1.

    Immutable, hashable and ordered; .a and .b are the rational parts
    p/d and q/d.  The ring Z[sqrt(2)] is the d = 1 case, and x // y is the
    exact quotient there: x / y when that lies in Z[sqrt(2)], else
    ArithmeticError.  Ints and Fractions mix in freely and compare and hash
    equal to the Q2 of the same value.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a=0, b=0):
        a, b = Fraction(a), Fraction(b)
        d = math.lcm(a.denominator, b.denominator)
        _set_p(self, a.numerator * (d // a.denominator))
        _set_q(self, b.numerator * (d // b.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Q2 is immutable")

    # -- conversions ------------------------------------------------------

    @staticmethod
    def coerce(x) -> "Q2":
        return x if isinstance(x, Q2) else _make(*_parts(x))

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    def __float__(self) -> float:
        # p/d and q/d round as the Fractions a and b do
        return self.p / self.d + self.q / self.d * _SQRT2

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        p, q, d = _parts(other)
        if d == self.d:
            return _reduced(self.p + p, self.q + q, d)
        return _reduced(self.p * d + p * self.d, self.q * d + q * self.d, self.d * d)

    __radd__ = __add__

    def __sub__(self, other):
        p, q, d = _parts(other)
        if d == self.d:
            if d == 1:
                return _make(self.p - p, self.q - q, 1)
            return _reduced(self.p - p, self.q - q, d)
        return _reduced(self.p * d - p * self.d, self.q * d - q * self.d, self.d * d)

    def __rsub__(self, other):
        return Q2.coerce(other) - self

    def __neg__(self):
        return _make(-self.p, -self.q, self.d)

    def __mul__(self, other):
        p, q, d = _parts(other)
        # (a + b r)(c + e r) = ac + 2be + (ae + bc) r, with r = sqrt(2)
        if d == 1 == self.d:
            return _make(self.p * p + 2 * self.q * q, self.p * q + self.q * p, 1)
        return _reduced(self.p * p + 2 * self.q * q, self.p * q + self.q * p, self.d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p, q, d = _parts(other)
        n = p * p - 2 * q * q
        if n == 0:
            raise ZeroDivisionError("division by zero in Q2")
        # 1/((c + e r)/d) = (c - e r) d/(c^2 - 2 e^2)
        sp, sq = self.p, self.q
        return _reduced((sp * p - 2 * sq * q) * d, (sq * p - sp * q) * d, self.d * n)

    def __rtruediv__(self, other):
        return Q2.coerce(other) / self

    def __floordiv__(self, other):
        p, q, d = _parts(other)
        # (a + b r)/s divided by (c + e r)/d is (a + b r)(c - e r) d/(s n),
        # n = c^2 - 2e^2: in Z[sqrt(2)] exactly when s n divides both parts
        n = (p * p - 2 * q * q) * self.d
        if n == 0:
            raise ZeroDivisionError("division by zero in Q2")
        x, rx = divmod((self.p * p - 2 * self.q * q) * d, n)
        y, ry = divmod((self.q * p - self.p * q) * d, n)
        if rx or ry:
            raise ArithmeticError(f"{self} is not divisible by {other} in Z[sqrt(2)]")
        return _make(x, y, 1)

    def __rfloordiv__(self, other):
        return Q2.coerce(other) // self

    # -- comparisons ------------------------------------------------------

    def _cmp(self, other) -> int:
        p, q, d = _parts(other)
        return _sign(self.p * d - p * self.d, self.q * d - q * self.d)

    def __eq__(self, other):
        try:
            p, q, d = _parts(other)
        except TypeError:
            return NotImplemented
        return self.p == p and self.q == q and self.d == d

    def __hash__(self):
        if self.q:
            return hash((self.p, self.q, self.d))
        try:  # Python's numeric hash of p/d, computed as Fraction.__hash__ does
            h = hash(hash(abs(self.p)) * pow(self.d, -1, sys.hash_info.modulus))
        except ValueError:  # d is a multiple of the modulus
            return hash(Fraction(self.p, self.d))
        return h if self.p >= 0 else -2 if h == 1 else -h

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if _sign(self.p, self.q) < 0 else self

    def __repr__(self):
        return f"Q2({self.a!r}, {self.b!r})"

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}*sqrt(2)"
        sep = "+" if b > 0 else "-"
        return f"{a}{sep}{abs(b)}*sqrt(2)"


_SQRT2 = math.sqrt(2.0)
_set_p, _set_q, _set_d = Q2.p.__set__, Q2.q.__set__, Q2.d.__set__


def _make(p: int, q: int, d: int) -> Q2:
    """The Q2 (p + q*sqrt(2))/d of parts already in lowest terms."""
    x = object.__new__(Q2)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    return x


def _reduced(p: int, q: int, d: int) -> Q2:
    """The Q2 (p + q*sqrt(2))/d for any d != 0."""
    if d < 0:
        p, q, d = -p, -q, -d
    if d != 1:
        g = math.gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
    return _make(p, q, d)


def _parts(x):
    """(p, q, d) of an exact scalar; TypeError for anything else."""
    if isinstance(x, Q2):
        return x.p, x.q, x.d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    raise TypeError(f"cannot coerce {type(x).__name__} to Q2")


def normalize(x):
    """A rational Q2 as its Fraction; any other scalar unchanged."""
    return x.a if isinstance(x, Q2) and x.q == 0 else x


def from_parts(p: int, q: int, d: int):
    """(p + q*sqrt(2))/d for ints, d != 0, in normalize's types: a Fraction
    when q = 0, else a Q2."""
    return _reduced(p, q, d) if q else Fraction(p, d)


def scalar_is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, Q2))


def exact_value(x):
    """x as an exact scalar: a float as the Fraction of its binary value
    (DomainError if it is not finite); an int, Fraction or Q2 unchanged."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"value {x!r} is not finite")
        return Fraction(x)
    return x


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


def integral(values, scale: int):
    """scale * x for every exact x, as an int, or a Q2 with d = 1 when x
    has a sqrt(2) part; scale must clear every denominator (see
    denominators_lcm)."""
    out = []
    for x in values:
        p, q, d = _parts(x)
        k = scale // d
        out.append(_make(p * k, q * k, 1) if q else p * k)
    return out


def denominators_lcm(values) -> int:
    """lcm of the denominators of exact values."""
    return math.lcm(*(_parts(x)[2] for x in values))


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

# 'k/m pi' or 'k pi/m' (k optional), as '3/4 pi', '3pi/4', 'pi/2' or '-pi'
_ANGLE_RE = re.compile(
    r"""^\s*(?P<sign>[+-])?\s*
        (?:(?P<num>\d+)\s*(?:/\s*(?P<den>\d+)\s*)?)?
        (?:pi|π)
        (?(den)|\s*(?:/\s*(?P<under>\d+))?)\s*$""",
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
        """Parse '1/2 pi', 'pi/2', 'pi', '0', '3/4pi', '3pi/4' or a
        float-radian literal.

        Other text, a zero denominator or a non-finite value raises
        DomainError.
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
                num, den, under = (int(m.group(g) or 1) for g in ("num", "den", "under"))
                k = Fraction(num, den * under)
                if m.group("sign") == "-":
                    k = -k
                return Angle.pi_frac(k)
            if "/" in s:
                return Angle.pi_frac(Fraction(s))  # bare rational means k*pi
            f = float(s)
        except ValueError:
            raise DomainError(
                f"cannot parse angle {text!r}: write 'k/m pi' or 'k pi/m' (as '3/4 pi', "
                "'3pi/4', 'pi/2'), a bare rational ('3/4' for 3/4 pi) or radians "
                "as a decimal ('0.5')") from None
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


def angle_cos(a: Angle) -> Union[Q2, Fraction]:
    """cos(a), exact: in Q(sqrt(2)) when a is an exact angle whose cosine
    lies there, else the Fraction of the float math.cos gives.  The one
    place where exact trigonometry falls back to a rounded cosine: it serves
    the mode-less family block formulas (extensions.extension_matrix), which
    then carry that cosine's binary value exactly, so identities in it
    (such as t + (1 - t) = 1 for t = cos^2(theta/2)) hold.  Every moded
    function raises ExactnessError in exact mode instead."""
    if a.is_exact:
        try:
            return exact_cos(a.value)
        except ExactnessError:
            pass
    return Fraction(math.cos(a.to_radians()))


# -- comparing scalars, exactly or within a tolerance -------------------------

FLOAT_TOL = 1e-10
MODES = ("exact", "float")


def check_mode(mode: str) -> str:
    """mode, if it is one of the two arithmetic modes of every moded
    function: 'exact' (values in Q(sqrt(2)), ExactnessError where one would
    leave it) or 'float' (doubles); ValueError for anything else."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}: use 'exact' or 'float'")
    return mode


@dataclass(frozen=True)
class Field:
    """How two scalars compare: exactly when tol is None, else within tol.

    Every algorithm that compares scalars asks its Field instead of testing
    types or a mode: partition and criterion_holds, strongly_isomorphic, the
    lattice kernel's interning, the closed-form payoff sum and
    best_response_values.  The equilibrium solver has no float field: it
    takes a float entry at its binary value (exact_value).
    """

    tol: Optional[float] = None

    @staticmethod
    def of(values, mode: str = "exact", tol: float = FLOAT_TOL) -> "Field":
        """The field of a moded function: Field(tol) in mode 'float'; in
        mode 'exact' EXACT, or ExactnessError if some value is a float."""
        if check_mode(mode) == "float":
            return Field(tol)
        if not all(map(scalar_is_exact, values)):
            raise ExactnessError("exact mode needs exact values; use float mode for floats")
        return EXACT

    @staticmethod
    def of_values(values) -> "Field":
        """The field of the values themselves, for the mode-less helpers:
        exact when every value is exact, else Field(FLOAT_TOL)."""
        return EXACT if all(map(scalar_is_exact, values)) else Field(FLOAT_TOL)

    @property
    def exact(self) -> bool:
        return self.tol is None

    def vector(self, xs):
        """xs as dot takes it: floats in a float field; in the exact field
        (ps, qs, d), each x as (p + q*sqrt(2))/d over one common d."""
        if not self.exact:
            return [float(x) for x in xs]
        parts = [_parts(x) for x in xs]
        d = math.lcm(*[e for _, _, e in parts])
        return [p * (d // e) for p, _, e in parts], [q * (d // e) for _, q, e in parts], d

    def dot(self, xs, ys):
        """sum of x*y over two vectors of equal length, given as vector
        gives them, so a vector used in many dots is converted once.

        Exact: the sum runs on the int numerators and is reduced once; the
        result has normalize's types.  Float: the builtin sum of the
        products, in order, from 0.0.
        """
        if not self.exact:
            return sum(map(operator.mul, xs, ys), 0.0)
        (xp, xq, dx), (yp, yq, dy) = xs, ys
        mul = operator.mul
        # (a + b r)(c + e r) = ac + 2be + (ae + bc) r, with r = sqrt(2)
        p = sum(map(mul, xp, yp)) + 2 * sum(map(mul, xq, yq))
        q = sum(map(mul, xp, yq)) + sum(map(mul, xq, yp))
        return from_parts(p, q, dx * dy)

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
