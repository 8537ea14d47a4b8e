"""Cayley-Dickson arithmetic for the four composition algebras.

Levels 1, 2, 4, 8 are the reals, complexes, quaternions and octonions.
Scalars are coordinate vectors of length d = level; matrices over a
composition algebra are (n, n, d) arrays, and stacks of them (..., n, n, d).

unit_tensor(level) is the one multiplication table: every product is a
contraction of integer numerators with it and one batched matmul (_mul),
over the product of the operands' common denominators, and only the
result becomes Fractions.  A float array is its own numerator over D = 1,
so floats run the same code.
"""
from functools import lru_cache

import numpy as np

from .linalg import _contract, _fractions, _is_zero, _numerators, max_abs, zeros

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
    """Structure tensor M[a,b,c] in {-1,0,1} with u_a u_b = sum_c M[a,b,c] u_c
    (read-only: every caller shares the cached array)."""
    M = np.zeros((level, level, level), dtype=np.int64)
    for a in range(level):
        for b in range(level):
            s, c = _mul_units(a, b, level)
            M[a, b, c] = s
    M.flags.writeable = False
    return M


def _mul(X, Y, level):
    """Matrix products X Y of integer or float numerator stacks
    (..., n, m, d) and (..., m, l, d), broadcast over the leading axes.

    Two steps.  The unit-tensor contraction XU[..., i, c, j, b] =
    sum_a X[..., i, j, a] M[a, b, c] is one product per entry, since each
    (b, c) has exactly one unit a with M[a,b,c] != 0.  Then XU, as
    (..., i c, j b) matrices, times Y, as (..., j b, k) matrices, is one
    batched matmul, whose (i c, k) entry is the product's [i, k, c], a sum
    of m * level products.  numpy runs the equivalent einsum over (j, b)
    as a loop over the stack, without its matmul path, at several times
    the cost; one three-operand einsum over i, j, k, a, b, c is slower
    still.
    """
    n, m, l = X.shape[-3], X.shape[-2], Y.shape[-2]

    def mul(x, y, u):
        xu = np.einsum("...ija,abc->...icjb", x, u)
        xu = xu.reshape(xu.shape[:-4] + (n * level, m * level))
        y = np.swapaxes(y, -1, -2).reshape(y.shape[:-3] + (m * level, l))
        p = xu @ y
        return np.swapaxes(p.reshape(p.shape[:-2] + (n, level, l)), -1, -2)
    return _contract(mul, m * level, X, Y, unit_tensor(level))


def _products(X, Y, level):
    """(XY, YX, D): numerators of both products over one denominator D."""
    NX, DX = _numerators(X)
    NY, DY = _numerators(Y)
    return _mul(NX, NY, level), _mul(NY, NX, level), DX * DY


def hmul(x, y, level):
    """Product of two scalars given as coordinate vectors: the 1 x 1 case of
    hmat_mul, broadcast over leading axes."""
    one = (Ellipsis, None, None, slice(None))
    return hmat_mul(np.asarray(x)[one], np.asarray(y)[one], level)[..., 0, 0, :]


def hconj(x):
    """Conjugate of a scalar, broadcast over leading axes."""
    out = np.array(x, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def hre(x):
    """Real part of a scalar, broadcast over leading axes."""
    return np.asarray(x)[..., 0][()]


def hmat(n, level):
    return zeros((n, n, level))


def hmat_mul(X, Y, level):
    """Matrix product X Y, broadcast over leading axes; exact on Fractions
    (and Python or numpy integers), float on floats."""
    NX, DX = _numerators(X)
    NY, DY = _numerators(Y)
    return _fractions(_mul(NX, NY, level), DX * DY)


def hmat_conj_t(X):
    out = np.array(np.swapaxes(X, 0, 1), copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def hmat_re_tr(X):
    """Real part of the trace, broadcast over leading axes."""
    return np.trace(np.asarray(X)[..., 0], axis1=-2, axis2=-1)


def hmat_jordan(X, Y, level):
    """Symmetrized product (XY + YX) / 2."""
    XY, YX, D = _products(X, Y, level)
    return _fractions(XY + YX, 2 * D)      # each below 2**62, so the sum fits


def hmat_commutator(X, Y, level):
    XY, YX, D = _products(X, Y, level)
    return _fractions(XY - YX, D)


def frobenius(X, Y):
    """Real Frobenius pairing f(X, Y) = re tr(conj(X)^t Y)."""
    NX, DX = _numerators(X)
    NY, DY = _numerators(Y)
    return _fractions(_frobenius(NX, NY), DX * DY)


def _frobenius(X, Y):
    """f(X, Y) of numerator stacks X and Y: the sum of their entrywise
    products, a Python number."""
    return _contract(lambda x, y: np.sum(x * y), X.size, X, Y)


def is_hermitian(X):
    return bool(np.all(_is_zero(X - hmat_conj_t(X), scale=lambda: max_abs(X))))
