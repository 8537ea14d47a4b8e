"""Commutator norm inequalities for matrix algebras and Lie algebras."""
import numpy as np

from . import linalg
from .core import _with_metric, as_float
from .hurwitz import _frobenius, _mul, frobenius, hmat_commutator


def cdk_residual(X, Y, level):
    """Residual of 2 (|X|^2 |Y|^2 - f(X,Y)^2) >= |[X,Y]|^2 for Hermitian
    X, Y in the Frobenius pairing f; nonnegative on the proved domain.

    With X = NX / DX and Y = NY / DY, [X, Y] = C / (DX DY) for the integer
    C = NX NY - NY NX, so the residual is one integer over (DX DY)^2: a
    Fraction on exact input, a float on float input.
    """
    (NX, DX), (NY, DY) = linalg._numerators(X), linalg._numerators(Y)
    C = _mul(NX, NY, level) - _mul(NY, NX, level)      # each below 2**62, so the difference fits
    return linalg._fractions(2 * (_frobenius(NX, NX) * _frobenius(NY, NY)
                                  - _frobenius(NX, NY) ** 2) - _frobenius(C, C),
                             (DX * DY) ** 2)


def bw_reduction_check(X, Y, level):
    """Residual of [P, Q] = 2 |X| |Y| [X, Y] for P = |Y|X - |X|Y,
    Q = |Y|X + |X|Y (float)."""
    Xf = linalg.to_float(X)
    Yf = linalg.to_float(Y)
    nx = np.sqrt(float(frobenius(Xf, Xf)))
    ny = np.sqrt(float(frobenius(Yf, Yf)))
    P = ny * Xf - nx * Yf
    Q = ny * Xf + nx * Yf
    lhs = hmat_commutator(P, Q, level)
    rhs = 2 * nx * ny * hmat_commutator(Xf, Yf, level)
    return linalg.max_abs(lhs - rhs)


def bw_lie_estimate(lie_alg, samples=2000, ascent=200, seed=0):
    """Estimate sup -B([x,y],[x,y]) / (B(x,x)B(y,y) - B(x,y)^2) for a Lie
    algebra whose Killing form B is negative definite.

    Random sampling followed by local ascent, on the float view of the
    algebra metrized by B; returns a BoundEstimate dict {"value",
    "witness", "seed"}."""
    from scipy import optimize       # imported here: the exact commands never need it
    B = lie_alg.killing_form()
    p, m, z = B.inertia()
    if p or z:
        raise ValueError("Killing form must be negative definite, inertia %s" % ((p, m, z),))
    n = lie_alg.dim
    fl = as_float(_with_metric(lie_alg, B))
    Gf = fl.gram
    rng = np.random.default_rng(seed)

    def ratio(zv):
        x, y = zv[:n], zv[n:]
        c = fl.multiply(x, y)
        bx = x @ Gf @ x
        by = y @ Gf @ y
        den = bx * by - (x @ Gf @ y) ** 2
        # near-degenerate planes amplify cancellation error in den
        if den < 1e-7 * abs(bx * by) or den < 1e-12:
            return 0.0
        return -(c @ Gf @ c) / den

    best_val, best_z = -np.inf, None
    for _ in range(samples):
        zv = rng.standard_normal(2 * n)
        v = ratio(zv)
        if v > best_val:
            best_val, best_z = v, zv
    res = optimize.minimize(lambda zv: -ratio(zv), best_z, method="Powell",
                            options={"maxiter": ascent * 2 * n,
                                     "xtol": 1e-12, "ftol": 1e-14})
    if -res.fun > best_val:
        best_val, best_z = -res.fun, res.x
    return {"value": float(best_val), "witness": best_z.tolist(), "seed": seed}
