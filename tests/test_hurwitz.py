"""Cayley-Dickson coordinate arithmetic."""
from fractions import Fraction
import itertools
import random

import numpy as np

import pytest

from tracealg.hurwitz import (LEVEL_OF_LETTER, LEVELS, _mul_units, frobenius,
                              hconj, hmat_commutator, hmat_conj_t, hmat_jordan,
                              hmat_mul, hmat_re_tr, hmul, hre, is_hermitian,
                              unit_tensor)


def unit(level, k):
    v = np.zeros(level, dtype=object) + Fraction(0)
    v[k] = Fraction(1)
    return v


def test_levels():
    assert LEVEL_OF_LETTER == {"r": 1, "c": 2, "h": 4, "o": 8}


def test_complex_matches_arithmetic():
    i = unit(2, 1)
    assert np.all(hmul(i, i, 2) == -unit(2, 0))


def test_quaternion_table():
    i, j, k = unit(4, 1), unit(4, 2), unit(4, 3)
    assert np.all(hmul(i, j, 4) == k)
    assert np.all(hmul(j, i, 4) == -k)
    assert np.all(hmul(j, k, 4) == i)
    assert np.all(hmul(k, i, 4) == j)


def test_unit_norms():
    for level in (1, 2, 4, 8):
        for a in range(level):
            e = unit(level, a)
            p = hmul(e, hconj(e), level)
            assert np.all(p == unit(level, 0))


def test_quaternion_associative():
    rng = random.Random(0)
    for _ in range(20):
        x, y, z = (np.array([Fraction(rng.randint(-3, 3)) for _ in range(4)],
                            dtype=object) for _ in range(3))
        assert np.all(hmul(hmul(x, y, 4), z, 4) == hmul(x, hmul(y, z, 4), 4))


def test_octonion_not_associative_but_alternative():
    e = [unit(8, a) for a in range(8)]
    assoc = hmul(hmul(e[1], e[2], 8), e[4], 8) - hmul(e[1], hmul(e[2], e[4], 8), 8)
    assert np.any(assoc != 0)
    rng = random.Random(1)
    for _ in range(20):
        x, y = (np.array([Fraction(rng.randint(-2, 2)) for _ in range(8)],
                         dtype=object) for _ in range(2))
        # alternative law: (x x) y = x (x y)
        assert np.all(hmul(hmul(x, x, 8), y, 8) == hmul(x, hmul(x, y, 8), 8))


def test_unit_tensor_signs():
    t = unit_tensor(4)
    assert t.shape == (4, 4, 4)
    assert set(np.unique(np.abs(t))) <= {0, 1}


def rand_herm(rng, n, level):
    X = np.zeros((n, n, level), dtype=object) + Fraction(0)
    for i in range(n):
        X[i, i, 0] = Fraction(rng.randint(-3, 3))
        for j in range(i + 1, n):
            for a in range(level):
                v = Fraction(rng.randint(-3, 3))
                X[i, j, a] = v
                X[j, i, a] = v if a == 0 else -v
    return X


def test_hermitian_construction_and_jordan():
    rng = random.Random(2)
    for level in (1, 2, 4):
        X = rand_herm(rng, 3, level)
        Y = rand_herm(rng, 3, level)
        assert is_hermitian(X)
        P = hmat_jordan(X, Y, level)
        assert is_hermitian(P)
        assert np.all(P == hmat_jordan(Y, X, level))


def test_conj_transpose_involution():
    rng = random.Random(3)
    for level in (2, 4):
        X = rand_herm(rng, 2, level)
        assert np.all(hmat_conj_t(hmat_conj_t(X)) == X)


def test_conj_transpose_on_a_stack():
    """A (2, 3, 3, 4) stack keeps its shape under hmat_conj_t, which acts per
    matrix, as is_hermitian then does."""
    rng = random.Random(6)
    X = np.stack([rand_herm(rng, 3, 4), rand_herm(rng, 3, 4)])
    X[1, 0, 1, 2] += 1                  # the second matrix is not Hermitian
    T = hmat_conj_t(X)
    assert T.shape == X.shape
    assert all(np.array_equal(T[k], hmat_conj_t(X[k])) for k in range(2))
    assert is_hermitian(X[:1]) and not is_hermitian(X)


def test_conj_and_re_on_a_stack():
    """[[1, 2], [3, 4]] is the stack 1+2i, 3+4i: conjugate and real part act
    per scalar, so x conj(x) is |x|^2."""
    x = np.array([[1, 2], [3, 4]])
    assert hconj(x).tolist() == [[1, -2], [3, -4]]
    assert hre(x).tolist() == [1, 3]
    assert hmul(x, hconj(x), 2).tolist() == [[5, 0], [25, 0]]
    assert hconj(x[1]).tolist() == [3, -4] and hre(x[1]) == 3


def test_re_tr_and_frobenius():
    rng = random.Random(4)
    X = rand_herm(rng, 3, 4)
    Y = rand_herm(rng, 3, 4)
    # frobenius pairing is re tr(X Y) for hermitian X, Y
    assert frobenius(X, Y) == hmat_re_tr(hmat_mul(X, Y, 4))
    assert frobenius(X, Y) == frobenius(Y, X)


def test_commutator_skew():
    rng = random.Random(5)
    X = rand_herm(rng, 3, 2)
    Y = rand_herm(rng, 3, 2)
    C = hmat_commutator(X, Y, 2)
    assert np.all(C == -hmat_commutator(Y, X, 2))
    assert hre(np.array([hmat_re_tr(C)], dtype=object)) == 0 or hmat_re_tr(C) == 0


# ------------------------------------------- per-scalar loop (reference)


def loop_hmul(x, y, level):
    out = np.zeros(level, dtype=object)
    for a in range(level):
        for b in range(level):
            s, c = _mul_units(a, b, level)
            out[c] = out[c] + s * x[a] * y[b]
    return out


def loop_hmat_mul(X, Y, level):
    """Product of single matrices (n, m, d) x (m, l, d), one scalar at a time."""
    out = np.zeros((X.shape[0], Y.shape[1], level), dtype=object)
    for i in range(X.shape[0]):
        for k in range(Y.shape[1]):
            for j in range(X.shape[1]):
                out[i, k] = out[i, k] + loop_hmul(X[i, j], Y[j, k], level)
    return out


def loop_stack(fn, X, Y, level):
    """fn on single matrices, broadcast over the leading axes of X and Y."""
    lead = np.broadcast_shapes(X.shape[:-3], Y.shape[:-3])
    X = np.broadcast_to(X, lead + X.shape[-3:])
    Y = np.broadcast_to(Y, lead + Y.shape[-3:])
    first = fn(X[(0,) * len(lead)], Y[(0,) * len(lead)], level)
    out = np.empty(lead + first.shape, dtype=object)
    for idx in np.ndindex(*lead):
        out[idx] = fn(X[idx], Y[idx], level)
    return out


def loop_jordan(X, Y, level):
    half = Fraction(1, 2) if X.dtype == object else 0.5
    return (loop_hmat_mul(X, Y, level) + loop_hmat_mul(Y, X, level)) * half


def loop_commutator(X, Y, level):
    return loop_hmat_mul(X, Y, level) - loop_hmat_mul(Y, X, level)


def random_entries(rng, shape, kind):
    """Fractions, floats, or Python ints above 2**62 in magnitude."""
    if kind == "float":
        return np.array([rng.uniform(-2, 2) for _ in range(int(np.prod(shape)))]).reshape(shape)
    draw = {"fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            "bigint": lambda: rng.choice((-1, 1)) * rng.randint(2 ** 62, 2 ** 64)}[kind]
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = draw()
    return out


def assert_matches(got, want, kind, scale):
    assert got.shape == want.shape
    if kind == "float":
        assert got.dtype == float
        # a different summation order: a few roundings of terms up to scale
        assert np.max(np.abs(got - want.astype(float)), initial=0) <= 64 * np.finfo(float).eps * scale
    else:
        assert all(isinstance(v, Fraction) for v in got.flat)
        assert np.array_equal(got, want)


# (leading shape of X, of Y, matrix sizes n, m, l): single matrices, stacks,
# broadcast stacks and non-square products
SHAPES = [((), (), 3, 3, 3), ((2,), (2,), 3, 3, 3), ((3, 1), (1, 2), 2, 2, 2),
          ((2,), (), 3, 3, 3), ((), (), 2, 3, 1), ((4, 1), (1, 3), 3, 3, 3),
          ((2,), (2,), 2, 3, 4)]


@pytest.mark.parametrize("kind", ["fraction", "float", "bigint"])
@pytest.mark.parametrize("level", LEVELS)
def test_products_match_the_per_scalar_loop(kind, level):
    rng = random.Random(level)
    for lx, ly, n, m, l in SHAPES:
        X = random_entries(rng, lx + (n, m, level), kind)
        Y = random_entries(rng, ly + (m, l, level), kind)
        scale = m * level * float(np.max(np.abs(X))) * float(np.max(np.abs(Y)))
        assert_matches(hmat_mul(X, Y, level), loop_stack(loop_hmat_mul, X, Y, level),
                       kind, scale)
        if n == m == l:
            for fn, ref in ((hmat_jordan, loop_jordan), (hmat_commutator, loop_commutator)):
                assert_matches(fn(X, Y, level), loop_stack(ref, X, Y, level), kind, scale)
        x, y = np.broadcast_arrays(X[..., 0, 0, :], Y[..., 0, 0, :])   # scalar stacks
        want = np.empty(x.shape, dtype=object)
        for idx in np.ndindex(*x.shape[:-1]):
            want[idx] = loop_hmul(x[idx], y[idx], level)
        assert_matches(hmul(X[..., 0, 0, :], Y[..., 0, 0, :], level), want, kind, scale)
        if X.shape == Y.shape:
            f = frobenius(X, Y)
            want = sum(p * q for p, q in zip(X.flat, Y.flat))
            assert (abs(f - want) <= 64 * np.finfo(float).eps * scale if kind == "float"
                    else f == want and isinstance(f, Fraction))
