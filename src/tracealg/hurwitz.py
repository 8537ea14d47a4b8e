"""Cayley-Dickson arithmetic for the four composition algebras.

Levels 1, 2, 4, 8 are the reals, complexes, quaternions and octonions.
Scalars are coordinate vectors of length d = level; matrices over a
composition algebra are (n, n, d) arrays.
"""
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import EPS0, RATIONAL, _is_zero, backend_of, max_abs, zeros

LEVELS = (1, 2, 4, 8)
LEVEL_OF_LETTER = {"r": 1, "c": 2, "h": 4, "o": 8}


def _mul_units(a, b, level):
    """Product of basis units u_a u_b; returns (sign, index)."""
    if level == 1:
        return 1, 0
    h = level // 2
    if a < h and b < h:
        return _mul_units(a, b, h)
    if a < h and b >= h:
        s, i = _mul_units(b - h, a, h)
        return s, i + h
    if a >= h and b < h:
        s, i = _mul_units(a - h, b, h)
        return (s if b == 0 else -s), i + h
    s, i = _mul_units(b - h, a - h, h)
    return (-s if b - h == 0 else s), i


@lru_cache(maxsize=None)
def unit_tensor(level):
    """Structure tensor M[a,b,c] in {-1,0,1} with u_a u_b = sum_c M[a,b,c] u_c."""
    M = np.zeros((level, level, level), dtype=int)
    for a in range(level):
        for b in range(level):
            s, c = _mul_units(a, b, level)
            M[a, b, c] = s
    return M


def hmul(x, y, level):
    """Product of two scalars given as coordinate vectors."""
    backend = backend_of(x)
    out = zeros(level, backend)
    for a in range(level):
        if x[a] == 0:
            continue
        for b in range(level):
            if y[b] == 0:
                continue
            s, c = _mul_units(a, b, level)
            out[c] = out[c] + s * x[a] * y[b]
    return out


def hconj(x):
    out = np.array(x, copy=True)
    out[1:] = -out[1:]
    return out


def hre(x):
    return x[0]


def hscalar(value, level, backend=RATIONAL):
    out = zeros(level, backend)
    out[0] = Fraction(value) if backend == RATIONAL else float(value)
    return out


def hmat(n, level, backend=RATIONAL):
    return zeros((n, n, level), backend)


def hmat_mul(X, Y, level):
    n = X.shape[0]
    backend = backend_of(X)
    out = zeros((n, Y.shape[1], level), backend)
    for i in range(n):
        for k in range(Y.shape[1]):
            acc = zeros(level, backend)
            for j in range(X.shape[1]):
                acc = acc + hmul(X[i, j], Y[j, k], level)
            out[i, k] = acc
    return out


def hmat_conj_t(X):
    out = np.array(np.swapaxes(X, 0, 1), copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def hmat_re_tr(X):
    return sum(X[i, i, 0] for i in range(X.shape[0]))


def hmat_jordan(X, Y, level):
    """Symmetrized product (XY + YX) / 2."""
    return (hmat_mul(X, Y, level) + hmat_mul(Y, X, level)) / 2


def hmat_commutator(X, Y, level):
    return hmat_mul(X, Y, level) - hmat_mul(Y, X, level)


def frobenius(X, Y):
    """Real Frobenius pairing f(X, Y) = re tr(conj(X)^t Y)."""
    return sum(x * y for x, y in zip(np.asarray(X).flat, np.asarray(Y).flat))


def is_hermitian(X):
    return bool(np.all(_is_zero(X - hmat_conj_t(X), EPS0, lambda: max_abs(X))))
