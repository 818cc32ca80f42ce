import math
from fractions import Fraction

import pytest

from ewlext import Angle, DomainError, ExactnessError, Q2, exact_cos
from ewlext.exactnum import Z2, normalize, ratio


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


def test_q2_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q2(1) / Q2(0)


def test_z2_ring_arithmetic_and_exact_division():
    unit = Z2(1, 1)  # 1 + sqrt(2), norm -1
    x = Z2(3, -2) * unit
    assert x == Z2(-1, 1) and x // unit == Z2(3, -2)
    assert Z2(6, 4) // 2 == Z2(3, 2) and 7 // Z2(3, 2) == Z2(21, -14)
    assert 2 * unit - 1 == Z2(1, 2) and -unit + 1 == Z2(0, -1)
    with pytest.raises(ArithmeticError):
        Z2(1, 1) // 2
    assert Z2(1, -1) < 0 < Z2(-1, 1) and Z2(3, -2) > 0  # 3 > 2 sqrt(2)
    assert ratio(Z2(1, 1), 2) == Q2(Fraction(1, 2), Fraction(1, 2))
    assert type(ratio(Z2(2, 0), Z2(4, 0))) is Fraction
    assert ratio(3, -6) == Fraction(-1, 2)


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


@pytest.mark.parametrize("text", ["1/0 pi", "-1/0pi", "1/0", "nan", "inf", "-inf",
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
