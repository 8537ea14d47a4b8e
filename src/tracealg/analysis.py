"""Sectional quantities, associativity defects and numeric searches."""
import math
from fractions import Fraction

import numpy as np

from . import linalg
from .core import MetrizedAlgebra
from .catalog import gamma_vectors, triple_embeddings
from .linalg import (EPS0, EPS_DEDUP, RATIONAL, _contract, _fractions, _is_zero,
                     _numerators, _residual, is_zero, max_abs, zeros)


def make_report(predicate, verdict, residual, witnesses=None, seed=None):
    return {"schema": 1, "predicate": predicate, "verdict": bool(verdict),
            "residual": residual if isinstance(residual, (int, float)) else float(residual),
            "witnesses": witnesses or [], "seed": seed}


def sect(alg, x, y, form=None):
    """Sectional value of the plane spanned by x, y (undefined on
    degenerate planes)."""
    h = alg.form if form is None else form
    num = h.apply(alg.multiply(x, x), alg.multiply(y, y)) \
        - h.norm2(alg.multiply(x, y))
    den = h.norm2(x) * h.norm2(y) - h.apply(x, y) ** 2
    return num / den


def isect(alg, x, y, tau=None):
    """Sectional value w.r.t. the Killing form (scale invariant)."""
    if tau is None:
        tau = alg.killing_form()
    return sect(alg, x, y, form=tau)


def _ric_scal(alg):
    H = alg.gram
    R = alg.ricci_form().gram
    scal = np.sum(linalg.inv(H) * R.T)          # tr(H^-1 R), n^2 products
    return R, scal


def _conformal(alg):
    """(W, E) with the conformal tensor = W / E, W integer on exact algebras."""
    n = alg.dim
    if n < 3:
        raise ValueError("the conformal tensor needs dim >= 3")
    R, scal = _ric_scal(alg)
    (H, DH), (R, DR) = _numerators(alg.gram), _numerators(R)
    p, q = _numerators(scal / ((n - 1) * (n - 2)))
    # w = hp terms + (R (x) H terms) / (n - 2) + scal / ((n-1)(n-2)) (H (x) H terms)
    # over the common denominator E
    E = math.lcm(alg._D ** 2 * DH, DR * DH * (n - 2), q * DH ** 2)

    def w(m1, h1, m2, r, h2, c_hp, c_rh, c_hh):
        hp = np.tensordot(np.tensordot(m1, h1, axes=(2, 0)), m2, axes=(2, 2))
        # hp[i,j,k,l] = h(e_i e_j, e_k e_l)
        return (c_hp * (np.einsum("jkil->ijkl", hp) - np.einsum("kilj->ijkl", hp))
                + c_rh * (np.einsum("ik,jl->ijkl", r, h1) - np.einsum("jk,il->ijkl", r, h1)
                          - np.einsum("il,jk->ijkl", r, h1) + np.einsum("jl,ik->ijkl", r, h1))
                + c_hh * (np.einsum("il,jk->ijkl", h1, h2) - np.einsum("jl,ik->ijkl", h1, h2)))
    # the hp difference sums 2 n^2 products, the R (x) H terms 4, the H (x) H terms 2
    W = _contract(w, 2 * n * n + 6, alg._N, H, alg._N, R, H,
                  E // (alg._D ** 2 * DH), E // (DR * DH * (n - 2)), p * (E // (q * DH ** 2)))
    return W, E


def conformal_tensor(alg):
    """Trace-adjusted curvature-type tensor w[i,j,k,l]; identically zero
    iff the algebra is conformally associative (dim > 3)."""
    return _fractions(*_conformal(alg))


def is_conformally_associative(alg, tol=EPS0):
    """Returns (verdict, max residual); dims <= 3 are conformally
    associative by convention."""
    if alg.dim <= 2:
        return True, 0
    W, E = _conformal(alg)
    err = _fractions(max_abs(W), E)
    if alg.dim == 3:
        return True, err
    return bool(_is_zero(err, tol, lambda: max_abs(alg.gram) ** 2)), err


def _pair_times_identity(X):
    """T[i,j,k,l] = X[i,j] [k == l] - X[j,k] [i == l], the basis triples of
    X(x, y) z - X(y, z) x, for integer (or float) X."""
    I = np.eye(len(X), dtype=int)
    # two products per entry
    return _contract(lambda x, i: np.einsum("ij,kl->ijkl", x, i) - np.einsum("jk,il->ijkl", x, i),
                     2, X, I)


def is_projectively_associative(alg, tol=EPS0):
    """Check [x,y,z] = c(y,z) x - c(x,y) z with c = -ric/(dim-1) on basis
    triples, plus the cyclic commutator identity it implies."""
    n = alg.dim
    R, E = alg._ricci()                                  # c = -R / (E (n - 1))
    P, Q = _residual(*alg._associator(), _pair_times_identity(R), E * (n - 1))

    # sum_cyc [L_i, L_j] L_k = T[i,j,k] + T[j,k,i] + T[k,i,j] with
    # T[i,j,k] = [L_i, L_j] L_k and T[k,i,j] = -T[i,k,j]; one (j,k,a,b)
    # slab per i keeps the largest array at n^4 entries.
    def cyclic(ma, mb, mc):
        La, Lb, Lc = (np.transpose(x, (0, 2, 1)) for x in (ma, mb, mc))  # L[i] = L(e_i)
        LL = np.tensordot(La, Lb, axes=(2, 1))                      # [i,a,j,b]
        Comm = np.transpose(LL, (0, 2, 1, 3)) - np.transpose(LL, (2, 0, 1, 3))
        err = 0
        for i in range(n):
            T = np.tensordot(Comm[i], Lc, axes=(2, 1))              # [j,a,k,b]
            M = (np.transpose(T, (0, 2, 1, 3)) - np.transpose(T, (2, 0, 1, 3))
                 + np.tensordot(Comm, Lc[i], axes=(3, 0)))
            err = max(err, max_abs(M))
        return err
    # Comm sums 2 n products; each of M's three terms sums n Comm entries: 3 x 2 n^2
    S = _contract(cyclic, 6 * n * n, alg._N, alg._N, alg._N)
    # the larger of P / Q and S / D^3, over one denominator
    err = _fractions(max(P * alg._D ** 3, S * Q), Q * alg._D ** 3)
    return bool(_is_zero(err, tol, lambda: max_abs(alg._N) ** 3)), err


def constant_sect_check(alg, kappa=None, tol=EPS0):
    """Check [x,y,z] = kappa (h(x,y) z - h(y,z) x) on basis triples.

    If kappa is None it is inferred from ric = kappa (dim-1) h at the
    first anisotropic diagonal entry.  Returns (verdict, kappa, residual).
    """
    n = alg.dim
    H = alg.gram
    if kappa is None:
        R, E = alg._ricci()
        k0 = next(i for i in range(n) if not is_zero(H[i, i], tol))
        kappa = _fractions(R[k0, k0], E) / ((n - 1) * H[k0, k0])
    G, DG = _numerators(H)
    err = _fractions(*_residual(*alg._associator(), _pair_times_identity(G), DG, kappa))
    return bool(_is_zero(err, tol, lambda: max_abs(H))), kappa, err


def norton_minimum(alg, seed):
    """Smallest h([x, x, y], y) / (|x|^2 |y|^2) over seeded standard normal
    samples (x, y); Norton's inequality says it is >= 0."""
    rng = np.random.default_rng(seed)
    mf = linalg.to_float(alg.structure)
    Gf = linalg.to_float(alg.gram)
    worst = np.inf
    for _ in range(500):
        x = rng.standard_normal(alg.dim)
        y = rng.standard_normal(alg.dim)
        tx = np.tensordot(x, mf, axes=(0, 0))
        xx = x @ tx
        xy = y @ tx
        v = y @ np.tensordot(xx, mf, axes=(0, 0)) - xy @ tx  # [x, x, y]
        worst = min(worst, (v @ Gf @ y) / ((x @ x) * (y @ y)))
    return worst


def talg_idempotents(n, alpha):
    """Closed-form idempotents and square-zero rays of talg(n, alpha)."""
    alpha = Fraction(alpha)
    idems, szeros = [], []
    for mask in range(1, 2 ** n):
        I = [i for i in range(n) if mask >> i & 1]
        eI = zeros(n, RATIONAL)
        for i in I:
            eI[i] = Fraction(1)
        d = 1 - 2 * alpha + 2 * alpha * len(I)
        if d == 0:
            szeros.append(eI)
        else:
            idems.append(eI / d)
    return {"idempotents": idems, "szero_rays": szeros,
            "count": len(idems) + len(szeros)}


def simplicial_idempotents(n):
    """Closed-form nonzero idempotents and square-zero rays of ealg(n).

    sigma_I = (n-1)/(n+1-2|I|) gamma_I over subsets of {0..n} modulo
    complements; subsets with 2|I| = n+1 give square-zero rays.
    """
    gs = gamma_vectors(n)
    idems, szeros = [], []
    seen = set()
    for mask in range(1, 2 ** (n + 1) - 1):
        comp = (2 ** (n + 1) - 1) ^ mask
        if comp in seen:
            continue
        seen.add(mask)
        I = [i for i in range(n + 1) if mask >> i & 1]
        gI = sum(gs[i] for i in I)
        if 2 * len(I) == n + 1:
            szeros.append(gI)
        else:
            idems.append(Fraction(n - 1, n + 1 - 2 * len(I)) * gI)
    return {"idempotents": idems, "szero_rays": szeros,
            "count": len(idems) + len(szeros)}


def _dedup(points, found, tol):
    for p in found:
        if np.max(np.abs(p - points)) <= tol:
            return True
    return False


def newton_idempotents(alg, trials, seed, tol=1e-12, dedup=EPS_DEDUP, radius=3.0):
    """Numeric enumeration of nonzero idempotents (those found; no
    completeness claim)."""
    n = alg.dim
    m = linalg.to_float(alg.structure)
    rng = np.random.default_rng(seed)
    found = []
    I = np.eye(n)
    for _ in range(trials):
        x = rng.uniform(-radius, radius, n)
        for _ in range(60):
            t = np.tensordot(x, m, axes=(0, 0))
            F = x @ t - x
            if np.max(np.abs(F)) < tol:
                break
            J = 2 * t.T - I
            try:
                x = x - np.linalg.solve(J, F)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1e6:
                break
        else:
            continue
        t = np.tensordot(x, m, axes=(0, 0))
        if np.max(np.abs(x @ t - x)) < tol and np.max(np.abs(x)) > 1e-6:
            if not _dedup(x, found, dedup):
                found.append(x.copy())
    return found


def square_zero_rays(alg, trials, seed, tol=1e-10, dedup=EPS_DEDUP):
    """Numeric enumeration of square-zero rays, normalized to unit length
    with the first sizeable coordinate positive."""
    n = alg.dim
    m = linalg.to_float(alg.structure)
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(trials):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        ok = False
        for _ in range(80):
            t = np.tensordot(x, m, axes=(0, 0))
            F = np.concatenate([x @ t, [x @ x - 1.0]])
            if np.max(np.abs(F)) < tol:
                ok = True
                break
            J = np.vstack([2 * t.T, 2 * x])
            dx, *_ = np.linalg.lstsq(J, F, rcond=None)
            x = x - dx
            if not np.all(np.isfinite(x)):
                break
        if not ok:
            continue
        k = next(i for i in range(n) if abs(x[i]) > 1e-6)
        z = x / np.linalg.norm(x)
        if z[k] < 0:
            z = -z
        if not _dedup(z, found, dedup):
            found.append(z)
    return found


def orth_spectrum(alg, e, tol=EPS0):
    """Eigenvalues of L(e) on the metric-orthocomplement of e, ascending."""
    Ge = linalg.to_float(alg.gram) @ linalg.to_float(e)
    C = linalg.nullspace(Ge.reshape(1, -1), tol)
    L = linalg.to_float(alg.left_mult_matrix(e))
    M, *_ = np.linalg.lstsq(C, L @ C, rcond=None)
    vals, has_complex = linalg.general_real_eigenvalues(M, 1e-7)
    return vals, has_complex


def group_spectrum(vals, tol=1e-6):
    groups = []
    for v in sorted(vals):
        if groups and abs(v - groups[-1][0] * 1.0) <= tol:
            groups[-1][1] += 1
        else:
            groups.append([v, 1])
    return [(v, m) for v, m in groups]


def _sect_objective(mf, Gf, bad=1e9):
    def f(z):
        n = len(z) // 2
        x, y = z[:n], z[n:]
        tx = np.tensordot(x, mf, axes=(0, 0))
        xx = x @ tx
        xy = y @ tx
        yy = y @ np.tensordot(y, mf, axes=(0, 0))
        den = (x @ Gf @ x) * (y @ Gf @ y) - (x @ Gf @ y) ** 2
        scale = max((x @ x) * (y @ y), 1e-300)
        if abs(den) < 1e-9 * scale:
            return bad
        return (xx @ Gf @ yy - xy @ Gf @ xy) / den
    return f


def sect_extremize(alg, seed, n_starts=40, maxiter=4000):
    """Numeric (min, max) estimate of sect over nondegenerate planes.

    Random multistart polished by derivative-free descent; finite
    precision, no global guarantee.  Returns a BoundEstimate dict.
    """
    from scipy import optimize       # imported here: the exact commands never need it
    n = alg.dim
    mf = linalg.to_float(alg.structure)
    Gf = linalg.to_float(alg.gram)
    f = _sect_objective(mf, Gf)
    rng = np.random.default_rng(seed)
    best = {}
    for sign in (1.0, -1.0):
        def obj(z, sign=sign):
            v = f(z)
            # degenerate-plane sentinel must stay penalized in both directions
            return 1e9 if abs(v) >= 1e8 else sign * v
        vals = []
        for _ in range(n_starts):
            z0 = rng.standard_normal(2 * n)
            res = optimize.minimize(obj, z0, method="Powell",
                                    options={"maxiter": maxiter,
                                             "xtol": 1e-12, "ftol": 1e-14})
            if res.fun < 1e8:
                vals.append((res.fun, res.x))
        vals.sort(key=lambda t: t[0])
        best[sign] = vals[0]
    lo = best[1.0]
    hi = best[-1.0]
    return {"lower": lo[0], "upper": -hi[0],
            "witnesses": [lo[1].tolist(), hi[1].tolist()], "seed": seed}


def complexified_special_elements_sect(alg, seed, trials=200, tol=1e-10):
    """Search pairs (a, b) coming from complexified square-zero elements
    (a a = b b, a b = 0) and idempotents (a a - b b = a, 2 a b = b);
    return the sect values of the found planes."""
    n = alg.dim
    mf = linalg.to_float(alg.structure)
    Gf = linalg.to_float(alg.gram)
    rng = np.random.default_rng(seed)
    sec = _sect_objective(mf, Gf)
    out = {"szero": [], "idem": []}

    def solve_system(Ffun, z0):
        z = z0.copy()
        for _ in range(80):
            F, J = Ffun(z)
            if np.max(np.abs(F)) < tol:
                return z
            dz, *_ = np.linalg.lstsq(J, F, rcond=None)
            z = z - dz
            if not np.all(np.isfinite(z)):
                return None
        return None

    def mul(x, y):
        return y @ np.tensordot(x, mf, axes=(0, 0))

    def Lm(x):
        return np.tensordot(x, mf, axes=(0, 0)).T

    for kind in ("szero", "idem"):
        for _ in range(trials):
            z0 = rng.standard_normal(2 * n)

            def Ffun(z):
                a, b = z[:n], z[n:]
                La, Lb = Lm(a), Lm(b)
                if kind == "szero":
                    F = np.concatenate([mul(a, a) - mul(b, b), mul(a, b),
                                        [a @ a - 1.0, b @ b - 1.0]])
                    J = np.block([[2 * La, -2 * Lb], [Lb, La]])
                    J = np.vstack([J, np.concatenate([2 * a, 0 * b]),
                                   np.concatenate([0 * a, 2 * b])])
                else:
                    F = np.concatenate([mul(a, a) - mul(b, b) - a,
                                        2 * mul(a, b) - b])
                    J = np.block([[2 * La - np.eye(n), -2 * Lb],
                                  [2 * Lb, 2 * La - np.eye(n)]])
                return F, J

            z = solve_system(Ffun, z0)
            if z is None:
                continue
            a, b = z[:n], z[n:]
            den = (a @ Gf @ a) * (b @ Gf @ b) - (a @ Gf @ b) ** 2
            if abs(den) < 1e-8 * max(1.0, (a @ a) * (b @ b)):
                continue
            if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
                continue
            out[kind].append(sec(z))
            if len(out[kind]) >= 10:
                break
    return out


def deunit_sect_shift_check(unital_alg, seed, trials=50):
    """Check g(e,e) sect_B(x,y) = sect_A(x,y) + 1 for planes in the
    deunitalization A of a unital metrized algebra B; returns max residual."""
    from .core import deunitalization
    A = deunitalization(unital_alg)
    E = linalg.to_float(A.embedding)
    gee = float(unital_alg.h(A.unit, A.unit))
    mB = linalg.to_float(unital_alg.structure)
    GB = linalg.to_float(unital_alg.gram)
    mA = linalg.to_float(A.structure)
    GA = linalg.to_float(A.gram)
    fB = _sect_objective(mB, GB)
    fA = _sect_objective(mA, GA)
    rng = np.random.default_rng(seed)
    err = 0.0
    k = A.dim
    for _ in range(trials):
        x = rng.standard_normal(k)
        y = rng.standard_normal(k)
        sA = fA(np.concatenate([x, y]))
        sB = fB(np.concatenate([E @ x, E @ y]))
        if sA > 1e8 or sB > 1e8:
            continue
        err = max(err, abs(gee * sB - (sA + 1.0)))
    return err


def triple_sect_relations_check(base_alg, seed, trials=30):
    """Verify the five sectional-value relations between a metrized algebra
    (with its Killing form) and its triple construction; returns max residual."""
    from .catalog import triple
    tau = base_alg.killing_form()
    T = triple(MetrizedAlgebra._from_numerators(base_alg._N, base_alg._D, tau,
                                                base_alg.symmetry))
    n = base_alg.dim
    emb = triple_embeddings(n)
    tauT = T.killing_form()
    mT = linalg.to_float(T.structure)
    GT = linalg.to_float(tauT.gram)
    fT = _sect_objective(mT, GT)
    mA = linalg.to_float(base_alg.structure)
    GA = linalg.to_float(tau.gram)
    fA = _sect_objective(mA, GA)
    rng = np.random.default_rng(seed)
    err = 0.0

    def mulA(x, y):
        return y @ np.tensordot(x, mA, axes=(0, 0))

    for _ in range(trials):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        sA = fA(np.concatenate([x, y]))
        if sA > 1e8:
            continue
        x2, y2, xy = mulA(x, x), mulA(y, y), mulA(x, y)
        nx2, ny2 = x @ GA @ x, y @ GA @ y
        txy = x @ GA @ y
        for i in range(3):
            gi = linalg.to_float(emb["gamma"][i + 1])
            ni = linalg.to_float(emb["nabla"][i + 1])
            err = max(err, abs(fT(np.concatenate([gi @ x, gi @ y])) - 2.0 / 3 * sA))
            err = max(err, abs(fT(np.concatenate([ni @ x, ni @ y])) - 0.5 * sA))
        for i, j in ((1, 2), (2, 3), (1, 3)):
            gi = linalg.to_float(emb["gamma"][i])
            gj = linalg.to_float(emb["gamma"][j])
            ni = linalg.to_float(emb["nabla"][i])
            nj = linalg.to_float(emb["nabla"][j])
            pred = -2.0 * ((x2 @ GA @ y2) + xy @ GA @ xy) / \
                (9.0 * nx2 * ny2 - txy ** 2)
            err = max(err, abs(fT(np.concatenate([gi @ x, gj @ y])) - pred))
            pred = -1.5 * (xy @ GA @ xy) / (4.0 * nx2 * ny2 - txy ** 2)
            err = max(err, abs(fT(np.concatenate([ni @ x, nj @ y])) - pred))
        d = linalg.to_float(emb["diag"])
        for i in (1, 2, 3):
            ni = linalg.to_float(emb["nabla"][i])
            pred = -(2.0 * (x2 @ GA @ y2) + xy @ GA @ xy) / (6.0 * nx2 * ny2)
            err = max(err, abs(fT(np.concatenate([d @ x, ni @ y])) - pred))
    return err
