import math
from fractions import Fraction

import numpy as np
import pytest

from ewlext import (
    DomainError,
    IDENTITY,
    IX,
    StrategyParams,
    are_equivalent,
    canonicalize,
    phi,
)
from conftest import build_unitary, random_float_params, random_lattice_params

UNITARITY_TOL = 1e-12


def test_canonicalize_examples():
    p = canonicalize("1/2 pi", "2 pi", "-1/2 pi")
    assert (p.theta.frac, p.alpha.frac, p.beta.frac) == (
        Fraction(1, 2), Fraction(0), Fraction(3, 2))
    p = canonicalize("pi", "7/2 pi", "1/4 pi")
    assert (p.theta.frac, p.alpha.frac, p.beta.frac) == (
        Fraction(1), Fraction(3, 2), Fraction(1, 4))
    with pytest.raises(DomainError):
        canonicalize("3/2 pi", "0", "0")
    with pytest.raises(DomainError):
        canonicalize(4.0, 0, 0)  # 4 rad > pi after reduction


def test_canonicalize_idempotent(rng):
    for _ in range(50):
        p = random_lattice_params(rng)
        again = canonicalize(p.theta, p.alpha, p.beta)
        assert again == p
    for _ in range(50):
        p = random_float_params(rng)
        again = canonicalize(p.theta, p.alpha, p.beta)
        assert again == p


def test_build_unitary_examples():
    assert np.allclose(build_unitary(IDENTITY), np.eye(2), atol=1e-15)
    assert np.allclose(build_unitary(IX), np.array([[0, 1j], [1j, 0]]), atol=1e-15)
    u = build_unitary(canonicalize("1/2 pi", "1/2 pi", "1/2 pi"))
    want = np.array([[1j, -1], [1, -1j]]) / math.sqrt(2.0)
    assert np.allclose(u, want, atol=1e-15)


def test_build_unitary_paper_b_class_member():
    # U(pi/2, 3pi/4, pi/4) written out entrywise
    u = build_unitary(canonicalize("1/2 pi", "3/4 pi", "1/4 pi"))
    want = np.array([[-1 + 1j, -1 + 1j], [1 + 1j, -1 - 1j]]) / 2.0
    assert np.allclose(u, want, atol=1e-15)


def test_special_unitarity(rng):
    for _ in range(200):
        p = random_float_params(rng)
        u = build_unitary(p)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < UNITARITY_TOL
        assert abs(np.linalg.det(u) - 1.0) < UNITARITY_TOL


def test_phi_examples():
    p = phi(IDENTITY)
    assert (p.theta.frac, p.alpha.frac, p.beta.frac) == (
        Fraction(1), Fraction(0), Fraction(1))
    p = phi(canonicalize("1/2 pi", "1/2 pi", "1/2 pi"))
    assert (p.theta.frac, p.alpha.frac, p.beta.frac) == (
        Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))


def test_phi_image_of_identity_is_minus_ix():
    assert np.allclose(build_unitary(phi(IDENTITY)), -build_unitary(IX), atol=1e-15)


def test_phi_swaps_theta_boundaries(rng):
    for _ in range(20):
        alpha = Fraction(rng.randrange(8), 4)
        beta = Fraction(rng.randrange(8), 4)
        assert phi(canonicalize(0, alpha, beta)).theta.frac == 1
        assert phi(canonicalize(1, alpha, beta)).theta.frac == 0


def test_phi_involution_up_to_equivalence(rng):
    # phi(phi(p)) = (theta, alpha+pi, beta+pi), payoff equivalent to p
    opponents = [IDENTITY, IX]
    for _ in range(40):
        p = random_lattice_params(rng)
        pp = phi(phi(p))
        assert pp.theta == p.theta
        assert are_equivalent(pp, p, opponents + [p, pp])
    for _ in range(40):
        p = random_float_params(rng)
        pp = phi(phi(p))
        assert are_equivalent(pp, p, opponents + [p, pp], mode="float")


def test_params_json_round_trip(rng):
    for _ in range(20):
        p = random_lattice_params(rng)
        assert StrategyParams.from_json(p.to_json()) == p
    p = canonicalize(0.25, 1.0, 2.0)
    assert StrategyParams.from_json(p.to_json()) == p
