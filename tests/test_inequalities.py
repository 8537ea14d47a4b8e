"""Commutator-norm inequality residuals and bound estimates."""
from fractions import Fraction
import random

import numpy as np
import pytest

import tracealg as ta
from tracealg.hurwitz import LEVELS, frobenius, hmat_commutator
from tracealg.inequalities import bw_lie_estimate, bw_reduction_check, cdk_residual

F = Fraction


def rand_herm(rng, n, level):
    X = np.zeros((n, n, level), dtype=object) + F(0)
    for i in range(n):
        X[i, i, 0] = F(rng.randint(-3, 3))
        for j in range(i + 1, n):
            for a in range(level):
                v = F(rng.randint(-3, 3))
                X[i, j, a] = v
                X[j, i, a] = v if a == 0 else -v
    return X


def rand_rational_herm(rng, n, level):
    """A Hermitian matrix with entries p / q, |p| <= 3, 1 <= q <= 4."""
    X = rand_herm(rng, n, level)
    for i in range(n):
        X[i, i, 0] /= rng.randint(1, 4)
        for j in range(i + 1, n):
            for a in range(level):
                X[i, j, a] /= (q := rng.randint(1, 4))
                X[j, i, a] /= q
    return X


def cdk_by_definition(X, Y, level):
    """2 (f(X,X) f(Y,Y) - f(X,Y)^2) - f(C,C), C = [X, Y], from the public
    pairing and commutator."""
    C = hmat_commutator(X, Y, level)
    return 2 * (frobenius(X, X) * frobenius(Y, Y) - frobenius(X, Y) ** 2) - frobenius(C, C)


def test_cdk_residual_equals_its_definition():
    """Exactly, as a Fraction, on rational pairs at every level; within
    1e-12, as a float, on their float views."""
    rng = random.Random(8)
    for level in LEVELS:
        for n in (2, 3):
            for _ in range(10):
                X, Y = rand_rational_herm(rng, n, level), rand_rational_herm(rng, n, level)
                r = cdk_residual(X, Y, level)
                assert type(r) is F and r == cdk_by_definition(X, Y, level)
                Xf, Yf = X.astype(float), Y.astype(float)
                r = cdk_residual(Xf, Yf, level)
                assert isinstance(r, float) and abs(r - cdk_by_definition(Xf, Yf, level)) <= 1e-12


def test_cdk_nonnegative_exact_samples():
    rng = random.Random(0)
    for level in (1, 2, 4):
        for n in (2, 3, 5):
            for _ in range(40):
                X = rand_herm(rng, n, level)
                Y = rand_herm(rng, n, level)
                assert cdk_residual(X, Y, level) >= 0


def test_cdk_octonion_diagonal_x():
    rng = random.Random(1)
    for _ in range(60):
        X = np.zeros((3, 3, 8), dtype=object) + F(0)
        for i in range(3):
            X[i, i, 0] = F(rng.randint(-3, 3))
        Y = rand_herm(rng, 3, 8)
        assert cdk_residual(X, Y, 8) >= 0


def test_cdk_equality_witnesses():
    for level in (1, 2, 4):
        for n in (2, 3, 5):
            X = np.zeros((n, n, level), dtype=object) + F(0)
            X[0, 0, 0] = F(1)
            X[n - 1, n - 1, 0] = F(-1)
            Y = np.zeros((n, n, level), dtype=object) + F(0)
            Y[0, n - 1, 0] = F(1)
            Y[n - 1, 0, 0] = F(1)
            assert cdk_residual(X, Y, level) == 0


def test_bw_reduction_identity():
    rng = random.Random(2)
    for level in (1, 2, 4):
        for _ in range(20):
            X = rand_herm(rng, 3, level)
            Y = rand_herm(rng, 3, level)
            assert bw_reduction_check(X, Y, level) < 1e-9


def test_bw_lie_so3_exact_half():
    est = bw_lie_estimate(ta.lie_so(3), samples=800, ascent=80, seed=0)
    assert abs(est["value"] - 0.5) < 1e-6


def test_bw_lie_estimate_needs_a_negative_definite_killing_form():
    with pytest.raises(ValueError, match=r"negative definite, inertia \(3, 0, 0\)"):
        bw_lie_estimate(ta.simplicial(3))


def test_bw_lie_bounds():
    est = bw_lie_estimate(ta.lie_su(3), samples=800, ascent=60, seed=0)
    assert est["value"] <= 1.0 / 3 + 1e-6
    est = bw_lie_estimate(ta.lie_so(5), samples=600, ascent=40, seed=0)
    assert est["value"] <= 2.0 / 3 + 1e-6
