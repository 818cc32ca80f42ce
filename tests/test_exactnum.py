import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ewlext import Angle, DomainError, ExactnessError, Q2, canonicalize, coefficients, exact_cos
from ewlext.exactnum import EXACT, FLOAT_TOL, Field, denominators_lcm, integral, normalize
from ewlext.payoff import _closed_form


class ReferenceQ2:
    """a + b*sqrt(2) as a pair of Fractions: the exact type Q2 replaced,
    kept as its reference."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def coerce(x):
        return x if isinstance(x, ReferenceQ2) else ReferenceQ2(x)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    def __add__(self, other):
        o = ReferenceQ2.coerce(other)
        return ReferenceQ2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = ReferenceQ2.coerce(other)
        return ReferenceQ2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return ReferenceQ2.coerce(other) - self

    def __neg__(self):
        return ReferenceQ2(-self.a, -self.b)

    def __mul__(self, other):
        o = ReferenceQ2.coerce(other)
        return ReferenceQ2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = ReferenceQ2.coerce(other)
        n = o.a * o.a - 2 * o.b * o.b
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return self * ReferenceQ2(o.a / n, -o.b / n)

    def __floordiv__(self, other):
        x = self / other
        if x.a.denominator != 1 or x.b.denominator != 1:
            raise ArithmeticError("not divisible in Z[sqrt(2)]")
        return x

    def sign(self):
        a, b = self.a, self.b
        if a >= 0 and b >= 0 or a <= 0 and b <= 0:
            return (a + b > 0) - (a + b < 0)
        # opposite signs: compare a^2 with 2 b^2
        return (1 if a > 0 else -1) * ((a * a > 2 * b * b) - (a * a < 2 * b * b))

    def __eq__(self, other):
        o = ReferenceQ2.coerce(other)
        return self.a == o.a and self.b == o.b

    def __lt__(self, other):
        return (self - other).sign() < 0


def reference_cos(k):
    c = exact_cos(k)
    return ReferenceQ2(c.a, c.b)


def same(x, ref):
    """x (a Q2, Fraction or int) has the value of the ReferenceQ2 ref."""
    x = Q2.coerce(x)
    return (x.a, x.b) == (ref.a, ref.b)


def test_q2_field_arithmetic():
    r = Q2(0, 1)  # sqrt(2)
    assert r * r == Q2(2)
    x = Q2(Fraction(1, 2), Fraction(-1, 3))
    y = Q2(Fraction(2), Fraction(1, 6))
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x * y) / y == x
    assert 1 / (r / 2) == r  # (sqrt2/2)^-1 = sqrt2
    assert float(r) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_q2_order_is_exact():
    r = Q2(0, 1)
    assert Q2(Fraction(141, 100)) < r < Q2(Fraction(142, 100))
    assert Q2(3) - 2 * r > 0          # 3 > 2.828...
    assert Q2(-3) + 2 * r < 0
    assert abs(Q2(1) - r) == r - 1
    assert Q2(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(Q2(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_q2_rational_hash_at_the_modulus_edges():
    m = sys.hash_info.modulus
    for p, d in [(-1, m + 1), (1, m + 1), (1, m), (-3, 2 * m), (m, 7), (-m - 2, 3),
                 (-(10 ** 40 + 1), 10 ** 39)]:
        f = Fraction(p, d)
        assert hash(Q2(f)) == hash(f)


def test_q2_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q2(1) / Q2(0)


def test_q2_ring_arithmetic_and_exact_division():
    unit = Q2(1, 1)  # 1 + sqrt(2), norm -1
    x = Q2(3, -2) * unit
    assert x == Q2(-1, 1) and x / unit == Q2(3, -2)
    assert Q2(6, 4) / 2 == Q2(3, 2) and 7 / Q2(3, 2) == Q2(21, -14)
    assert 2 * unit - 1 == Q2(1, 2) and -unit + 1 == Q2(0, -1)
    assert (Q2(1, 1) / 2).d == 2  # the quotient leaves Z[sqrt(2)]
    assert Q2(1, -1) < 0 < Q2(-1, 1) and Q2(3, -2) > 0  # 3 > 2 sqrt(2)
    half = unit / 2
    assert (half.p, half.q, half.d) == (1, 1, 2)
    with pytest.raises(AttributeError):
        half.d = 1  # immutable
    assert half == Q2(Fraction(1, 2), Fraction(1, 2))
    assert type(normalize(Q2(2) / Q2(4))) is Fraction
    assert normalize(Q2(3) / -6) == Fraction(-1, 2)
    # scaling to the ring: the lcm of the denominators clears them all
    values = [Fraction(1, 2), Q2(Fraction(1, 3), Fraction(-1, 2)), 3]
    scale = denominators_lcm(values)
    assert scale == 6
    assert integral(values, scale) == [3, Q2(2, -3), 18]
    assert [type(v) for v in integral(values, scale)] == [int, Q2, int]


def exact_scalars(ring=False):
    """Pairs (Q2, ReferenceQ2) of equal value; d = 1 when ring is set."""
    part = st.integers(-12, 12)
    den = st.just(1) if ring else st.integers(1, 6)
    return st.builds(lambda p, q, d: (Q2(Fraction(p, d), Fraction(q, d)),
                                      ReferenceQ2(Fraction(p, d), Fraction(q, d))),
                     part, st.integers(-4, 4) | st.just(0), den)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exact_scalars(), exact_scalars())
def test_q2_matches_reference_field(x, y):
    (x, rx), (y, ry) = x, y
    for z in (x, y):
        assert z.d > 0 and math.gcd(z.p, z.q, z.d) == 1
        assert (z.a, z.b) == (Fraction(z.p, z.d), Fraction(z.q, z.d))
    assert float(x) == float(rx)  # bit for bit
    assert same(x + y, rx + ry) and same(x - y, rx - ry) and same(-x, -rx)
    assert same(x * y, rx * ry)
    if ry == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert same(x / y, rx / ry)
    assert (x < y) == (rx < ry) and (x > y) == (ry < rx)
    assert (x <= y) == (not ry < rx) and (x >= y) == (not rx < ry)
    assert (x == y) == (rx == ry) and (x != y) == (not rx == ry)
    assert same(abs(x), -rx if rx < 0 else rx)
    # ints and Fractions mix in on either side
    k = Fraction(y.p, y.d)
    assert same(x + k, rx + k) and same(k - x, ReferenceQ2(k) - rx)
    assert same(k * x, rx * k) and (x < k) == (rx < k)
    if rx != 0:
        assert same(k / x, ReferenceQ2(k) / rx)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exact_scalars(ring=True) | exact_scalars(), exact_scalars(ring=True) | exact_scalars())
def test_q2_exact_division_matches_reference(x, y):
    (x, rx), (y, ry) = x, y
    assert same(x * y, rx * ry) and same(x - y, rx - ry)  # the ring's d = 1 paths
    if ry == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    got = x / y
    try:
        want = rx // ry
    except ArithmeticError:
        assert got.d != 1  # the quotient leaves Z[sqrt(2)]
        return
    assert same(got, want) and got.d == 1
    if x.q == 0 and x.d == 1:  # an int on the left
        assert same(x.p / y, want)


def exact_vector_pair():
    """Two equal-length vectors of ints, Fractions and Q2s, each zipped with
    their ReferenceQ2 values."""
    fraction = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    q2 = exact_scalars().map(lambda pair: pair[0])
    scalar = st.integers(-12, 12) | fraction | q2
    return st.integers(0, 6).flatmap(
        lambda n: st.tuples(*(st.lists(scalar, min_size=n, max_size=n) for _ in range(2))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exact_vector_pair())
def test_exact_dot_matches_reference_sums(vectors):
    xs, ys = vectors
    ref = [[ReferenceQ2(Q2.coerce(v).a, Q2.coerce(v).b) for v in vs] for vs in vectors]
    want = sum((x * y for x, y in zip(*ref)), ReferenceQ2(0))
    got = EXACT.dot(EXACT.vector(xs), EXACT.vector(ys))
    assert same(got, want)
    # normalize's types: a Fraction when rational, a Q2 in lowest terms otherwise
    if want.b == 0:
        assert type(got) is Fraction
    else:
        assert type(got) is Q2 and got.d > 0 and math.gcd(got.p, got.q, got.d) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    *(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n) for _ in range(2)))))
def test_float_dot_is_the_sum_of_products_bit_for_bit(vectors):
    xs, ys = vectors
    field = Field(FLOAT_TOL)
    want = sum((x * y for x, y in zip(xs, ys)), 0.0)
    assert field.dot(field.vector(map(Fraction, xs)), field.vector(ys)).hex() == want.hex()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exact_scalars(), exact_scalars())
def test_q2_equal_values_hash_equal(x, y):
    (x, _), (y, _) = x, y
    z = (x * y) / y if y != 0 else x  # the same value reached another way
    assert z == x and hash(z) == hash(x)
    if x.q == 0:  # rational: equal to, and hashed as, its Fraction (and int)
        f = Fraction(x.p, x.d)
        assert x == f and f == x and hash(x) == hash(f) and {f: 1}[x] == 1
        if x.d == 1:
            assert x == x.p and hash(x) == hash(x.p)
    else:
        assert x != x.a and x.a != x


def test_q2_coefficients_match_reference_on_sampled_lattice_pairs():
    """A seeded sample of the pi/4 lattice pairs whose thetas are exact; a
    script over all 151,552 of them found no difference."""
    thetas = [Fraction(k, 12) for k in (0, 3, 4, 6, 8, 9, 12)]
    quarter = [Fraction(k, 4) for k in range(8)]
    rng = random.Random(11)
    checked = 0
    while checked < 400:
        t1, t2 = rng.choice(thetas), rng.choice(thetas)
        if {t1.denominator, t2.denominator} & {3} and {t1.denominator, t2.denominator} & {2, 4}:
            continue  # cos(pi/3 -+ pi/4) leaves Q(sqrt(2))
        p = canonicalize(Angle(t1), Angle(rng.choice(quarter)), Angle(rng.choice(quarter)))
        o = canonicalize(Angle(t2), Angle(rng.choice(quarter)), Angle(rng.choice(quarter)))
        got = coefficients(p, o, mode="exact")
        want = _closed_form(reference_cos, *(a.frac for a in (p.theta, p.alpha, p.beta,
                                                               o.theta, o.alpha, o.beta)))
        assert all(same(g, w) for g, w in zip(got, want))
        checked += 1


@pytest.mark.parametrize("num,den", [(k, q) for q in (1, 2, 3, 4) for k in range(2 * q)])
def test_exact_cos_matches_float(num, den):
    k = Fraction(num, den)
    assert float(exact_cos(k)) == pytest.approx(math.cos(float(k) * math.pi), abs=1e-15)


@pytest.mark.parametrize("num,den", [(k, q) for q in (1, 2, 4) for k in range(2 * q)])
def test_exact_sin_matches_float(num, den):
    # payoff's expansion takes sin(k pi) as cos((1/2 - k) pi)
    k = Fraction(num, den)
    assert (float(exact_cos(Fraction(1, 2) - k))
            == pytest.approx(math.sin(float(k) * math.pi), abs=1e-15))


@pytest.mark.parametrize("k", [Fraction(1, 6), Fraction(1, 8), Fraction(3, 16)])
def test_exact_trig_unsupported(k):
    # these cosines need sqrt(3) or nested radicals, outside Q(sqrt(2))
    with pytest.raises(ExactnessError):
        exact_cos(k)


def test_angle_parse_and_format():
    assert Angle.parse("1/2 pi").frac == Fraction(1, 2)
    assert Angle.parse("pi").frac == 1
    assert Angle.parse("-pi").mod_2pi().frac == 1
    assert Angle.parse("3/4pi").frac == Fraction(3, 4)
    assert Angle.parse("0").frac == 0
    assert Angle.parse("0.5").to_radians() == 0.5
    a = Angle.parse("7/2 pi").mod_2pi()
    assert a.frac == Fraction(3, 2)
    assert Angle.parse(a.format()) == a
    with pytest.raises(DomainError):
        Angle.parse("one pi and a half")


@pytest.mark.parametrize("text,k", [("pi/2", "1/2"), ("2pi/3", "2/3"), ("3 pi/4", "3/4"),
                                    ("-pi/4", "-1/4"), ("+ 6 π / 4", "3/2")])
def test_angle_parse_accepts_k_pi_over_m(text, k):
    assert Angle.parse(text) == Angle.parse(f"{k} pi") == Angle.pi_frac(Fraction(k))


@pytest.mark.parametrize("text", ["1/2 pi/3", "pi/", "/2 pi", "2/pi", "pi 2", "pi/2 pi"])
def test_angle_parse_rejects_other_text_naming_the_forms(text):
    with pytest.raises(DomainError, match="'k/m pi' or 'k pi/m'"):
        Angle.parse(text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.fractions(-8, 8, max_denominator=24) | st.floats(allow_nan=False, allow_infinity=False))
def test_angle_format_parse_round_trip(v):
    a = Angle.pi_frac(v) if isinstance(v, Fraction) else Angle.radians(v)
    assert Angle.parse(a.format()) == a


@pytest.mark.parametrize("text", ["1/0 pi", "pi/0", "-1/0pi", "1/0", "nan", "inf", "-inf",
                                  "1e400", float("nan"), float("inf")])
def test_angle_parse_rejects_zero_denominator_and_non_finite(text):
    with pytest.raises(DomainError):
        Angle.parse(text)


def test_angle_arithmetic():
    a = Angle.pi_frac(Fraction(3, 4))
    b = Angle.pi_frac(Fraction(1, 2))
    assert (a + b).frac == Fraction(5, 4)
    assert (a - b).frac == Fraction(1, 4)
    assert (-b).mod_2pi().frac == Fraction(3, 2)
    f = Angle.radians(3.0 * math.pi)
    assert f.mod_2pi().to_radians() == pytest.approx(math.pi)
    # mixed exact/float falls back to radians
    assert (a + f).to_radians() == pytest.approx(0.75 * math.pi + 3 * math.pi)


def test_normalize_turns_rational_q2_into_fraction():
    assert type(normalize(Q2(Fraction(3, 4)))) is Fraction
    assert normalize(Q2(1, 1)) == Q2(1, 1)
    assert normalize(0.5) == 0.5 and normalize(Fraction(1, 3)) == Fraction(1, 3)
