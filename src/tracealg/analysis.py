"""Sectional quantities, associativity defects and numeric searches."""
import math
from fractions import Fraction

import numpy as np

from . import linalg
from .core import _first_anisotropic, _with_metric, as_float, deunitalization
from .catalog import triple, triple_embeddings
from .linalg import (EPS_DEDUP, _contract, _fractions, _is_zero, _lowest_terms,
                     _numerators, _residual, max_abs, to_float, zeros)


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


def _conformal(alg):
    """(W, E) with the conformal tensor = W / E, W integer on exact algebras."""
    n = alg.dim
    if n < 3:
        raise ValueError("the conformal tensor needs dim >= 3")
    H, DH = alg.form._G, alg.form._DG
    R, DR = _lowest_terms(*alg._ricci())
    # scal = tr(H^-1 ric) = DH tr(X) / (EX DR), with H X = EX R on the numerators
    X, EX = linalg._solve_numerators(H, R)
    p, q = _numerators(_fractions(DH * sum(np.diagonal(X).tolist()),
                                  EX * DR * (n - 1) * (n - 2)))
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


def is_conformally_associative(alg):
    """Returns (verdict, max residual); dims <= 3 are conformally
    associative by convention."""
    if alg.dim <= 2:
        return True, 0
    W, E = _conformal(alg)
    err = _fractions(max_abs(W), E)
    if alg.dim == 3:
        return True, err
    return bool(_is_zero(err, scale=lambda: max_abs(alg.gram) ** 2)), err


def _pair_times_identity(X):
    """T[i,j,k,l] = X[i,j] [k == l] - X[j,k] [i == l], the basis triples of
    X(x, y) z - X(y, z) x, for integer (or float) X."""
    I = np.eye(len(X), dtype=int)
    # two products per entry
    return _contract(lambda x, i: np.einsum("ij,kl->ijkl", x, i) - np.einsum("jk,il->ijkl", x, i),
                     2, X, I)


def is_projectively_associative(alg):
    """Check [x,y,z] = c(y,z) x - c(x,y) z with c = -ric/(dim-1) on basis
    triples, plus the cyclic commutator identity it implies.  c needs
    dim >= 2; a smaller dim raises ValueError."""
    n = alg.dim
    if n < 2:
        raise ValueError("projective associativity needs dim >= 2, not %d" % n)
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
    return bool(_is_zero(err, scale=lambda: max_abs(alg._N) ** 3)), err


def constant_sect_check(alg, kappa=None):
    """Check [x,y,z] = kappa (h(x,y) z - h(y,z) x) on basis triples.

    If kappa is None it is inferred from ric = kappa (dim-1) h at the
    first anisotropic diagonal entry, and a metric with none, or dim below
    2, raises ValueError.  Returns (verdict, kappa, residual).
    """
    n = alg.dim
    G, DG = alg.form._G, alg.form._DG
    if kappa is None:
        if n < 2:
            raise ValueError("a constant sectional value needs dim >= 2, not %d" % n)
        R, E = alg._ricci()
        k0 = _first_anisotropic(alg.form)
        kappa = _fractions(R[k0, k0], E) / ((n - 1) * _fractions(G[k0, k0], DG))
    err = _fractions(*_residual(*alg._associator(), _pair_times_identity(G), DG, kappa))
    return bool(_is_zero(err, scale=lambda: max_abs(G))), kappa, err


def norton_minimum(alg, seed):
    """Smallest h([x, x, y], y) / (|x|^2 |y|^2) over seeded standard normal
    samples (x, y), on the float view; Norton's inequality says it is >= 0."""
    fl = as_float(alg)
    G = fl.gram
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(500):
        x = rng.standard_normal(fl.dim)
        y = rng.standard_normal(fl.dim)
        worst = min(worst, (fl.associator(x, x, y) @ G @ y) / ((x @ x) * (y @ y)))
    return worst


def talg_idempotents(n, alpha):
    """Closed-form idempotents and square-zero rays of talg(n, alpha)."""
    alpha = Fraction(alpha)
    idems, szeros = [], []
    for mask in range(1, 2 ** n):
        I = [i for i in range(n) if mask >> i & 1]
        eI = zeros(n)
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
    complements; subsets with 2|I| = n+1 give square-zero rays.  Each
    pair of complements has one member that leaves out gamma_0, a subset I
    of the generators gamma_1..gamma_n, the basis of ealg(n) = talg(n, alpha)
    at alpha = -1/(n-1).  There 1 - 2 alpha + 2 alpha |I| = (n+1-2|I|)/(n-1),
    so talg_idempotents gives them all.
    """
    return talg_idempotents(n, Fraction(-1, n - 1))


# The numeric searches' fixed settings.  Each search runs on the float
# view (as_float) of its algebra and keeps its finds in trial order, less
# those within EPS_DEDUP (max-norm) of an earlier one.
_NEWTON_STEPS = 80          # Newton steps before a start is given up
_NEWTON_BOUND = 1e6         # an iterate beyond this in max-norm has diverged
_IDEMPOTENT_TOL = 1e-12     # max |x x - x| of an accepted idempotent
_IDEMPOTENT_RADIUS = 3.0    # idempotent starts are uniform in [-3, 3]^n
_NEWTON_TOL = 1e-10         # max residual of the other Newton searches
_DEGENERATE = 1e9           # _sect_objective on a (nearly) degenerate plane
_POWELL_MAXITER = 4000      # iterations of each sect_extremize descent
_TRIPLE_TRIALS = 30         # sampled planes of triple_sect_relations_check


def _newton(system, z, tol):
    """Newton's method for F(z) = 0 from z, with system(z) = (F, J) and J
    the Jacobian of F.  Returns the first iterate with max |F| < tol, or
    None after _NEWTON_STEPS steps, at an iterate that is not finite or
    exceeds _NEWTON_BOUND, or when a step's solve fails.  Each step is a
    least-squares solve, so J may be rectangular or singular."""
    for _ in range(_NEWTON_STEPS):
        F, J = system(z)
        if np.max(np.abs(F)) < tol:
            return z
        try:
            z = z - np.linalg.lstsq(J, F, rcond=None)[0]
        except np.linalg.LinAlgError:   # LAPACK's SVD can fail to converge
            return None
        if not np.all(np.isfinite(z)) or np.max(np.abs(z)) > _NEWTON_BOUND:
            return None
    return None


def _dedup(points, found):
    return any(np.max(np.abs(p - points)) <= EPS_DEDUP for p in found)


def newton_idempotents(alg, trials, seed):
    """Numeric enumeration of nonzero idempotents (those found; no
    completeness claim): Newton's method on x x = x from seeded starts."""
    fl = as_float(alg)
    I = np.eye(fl.dim)

    def system(x):
        L = fl.left_mult_matrix(x)
        return L @ x - x, 2 * L - I
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(trials):
        x = _newton(system, rng.uniform(-_IDEMPOTENT_RADIUS, _IDEMPOTENT_RADIUS, fl.dim),
                    _IDEMPOTENT_TOL)
        if x is not None and np.max(np.abs(x)) > 1e-6 and not _dedup(x, found):
            found.append(x)
    return found


def square_zero_rays(alg, trials, seed):
    """Numeric enumeration of square-zero rays, normalized to unit length
    with the first sizeable coordinate positive: Newton's method on
    x x = 0, |x|^2 = 1 from seeded starts."""
    fl = as_float(alg)

    def system(x):
        L = fl.left_mult_matrix(x)
        return np.concatenate([L @ x, [x @ x - 1.0]]), np.vstack([2 * L, 2 * x])
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(trials):
        x = rng.standard_normal(fl.dim)
        x = _newton(system, x / np.linalg.norm(x), _NEWTON_TOL)
        if x is None:
            continue
        k = next(i for i in range(fl.dim) if abs(x[i]) > 1e-6)
        z = x / np.linalg.norm(x)
        if z[k] < 0:
            z = -z
        if not _dedup(z, found):
            found.append(z)
    return found


def orth_spectrum(alg, e):
    """Eigenvalues of L(e) on the metric-orthocomplement of e, ascending,
    on the float view, and whether L(e) has complex ones there."""
    fl = as_float(alg)
    e = to_float(e)
    C = linalg.nullspace((fl.gram @ e).reshape(1, -1))
    M, *_ = np.linalg.lstsq(C, fl.left_mult_matrix(e) @ C, rcond=None)
    return linalg.general_real_eigenvalues(M, 1e-7)


def group_spectrum(vals, tol=1e-6):
    groups = []
    for v in sorted(vals):
        if groups and abs(v - groups[-1][0] * 1.0) <= tol:
            groups[-1][1] += 1
        else:
            groups.append([v, 1])
    return [(v, m) for v, m in groups]


def _sect_objective(mf, Gf):
    """The function z = (x, y) -> sect of the plane x, y for the float
    structure tensor mf and Gram matrix Gf; _DEGENERATE on a (nearly)
    degenerate plane."""
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
            return _DEGENERATE
        return (xx @ Gf @ yy - xy @ Gf @ xy) / den
    return f


def sect_extremize(alg, seed, n_starts=40):
    """Numeric (min, max) estimate of sect over nondegenerate planes.

    Random multistart on the float view, polished by derivative-free
    descent; finite precision, no global guarantee.  Returns a
    BoundEstimate dict.  Raises ValueError when every start of the min or
    of the max search ends on a degenerate plane.
    """
    from scipy import optimize       # imported here: the exact commands never need it
    fl = as_float(alg)
    f = _sect_objective(fl.structure, fl.gram)
    rng = np.random.default_rng(seed)
    best = {}
    for sign in (1.0, -1.0):
        def obj(z, sign=sign):
            v = f(z)
            # degenerate-plane sentinel must stay penalized in both directions
            return _DEGENERATE if abs(v) >= 1e8 else sign * v
        vals = []
        for _ in range(n_starts):
            z0 = rng.standard_normal(2 * fl.dim)
            # sect is constant along x -> c x and y -> c y, where no line search
            # brackets; a box, which every plane meets, stops the drift to overflow
            b = 10 * np.max(np.abs(z0))
            res = optimize.minimize(obj, z0, method="Powell", bounds=[(-b, b)] * len(z0),
                                    options={"maxiter": _POWELL_MAXITER,
                                             "xtol": 1e-12, "ftol": 1e-14})
            if res.fun < 1e8:
                vals.append((res.fun, res.x))
        if not vals:
            raise ValueError("every one of the %d starts of the sect %s search ended on "
                             "a degenerate plane" % (n_starts, "min" if sign > 0 else "max"))
        best[sign] = min(vals, key=lambda t: t[0])
    lo = best[1.0]
    hi = best[-1.0]
    return {"lower": lo[0], "upper": -hi[0],
            "witnesses": [lo[1].tolist(), hi[1].tolist()], "seed": seed}


def complexified_special_elements_sect(alg, seed, trials=200):
    """Search pairs (a, b) coming from complexified square-zero elements
    (a a = b b, a b = 0) and idempotents (a a - b b = a, 2 a b = b) by
    Newton's method on the float view; return the sect values of the
    found planes."""
    fl = as_float(alg)
    n = fl.dim
    G = fl.gram
    I = np.eye(n)
    sec = _sect_objective(fl.structure, G)

    def szero(z):
        a, b = z[:n], z[n:]
        La, Lb = fl.left_mult_matrix(a), fl.left_mult_matrix(b)
        F = np.concatenate([La @ a - Lb @ b, La @ b, [a @ a - 1.0, b @ b - 1.0]])
        J = np.vstack([np.block([[2 * La, -2 * Lb], [Lb, La]]),
                       np.concatenate([2 * a, 0 * b]), np.concatenate([0 * a, 2 * b])])
        return F, J

    def idem(z):
        a, b = z[:n], z[n:]
        La, Lb = fl.left_mult_matrix(a), fl.left_mult_matrix(b)
        F = np.concatenate([La @ a - Lb @ b - a, 2 * La @ b - b])
        J = np.block([[2 * La - I, -2 * Lb], [2 * Lb, 2 * La - I]])
        return F, J

    rng = np.random.default_rng(seed)
    out = {"szero": [], "idem": []}
    for kind, system in (("szero", szero), ("idem", idem)):
        for _ in range(trials):
            z = _newton(system, rng.standard_normal(2 * n), _NEWTON_TOL)
            if z is None:
                continue
            a, b = z[:n], z[n:]
            den = (a @ G @ a) * (b @ G @ b) - (a @ G @ b) ** 2
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
    A = deunitalization(unital_alg)
    E = to_float(A.embedding)
    gee = float(unital_alg.h(A.unit, A.unit))
    fB, fA = (_sect_objective(fl.structure, fl.gram) for fl in map(as_float, (unital_alg, A)))
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


def triple_sect_relations_check(base_alg, seed):
    """Verify the five sectional-value relations between a metrized algebra
    (with its Killing form) and its triple construction on _TRIPLE_TRIALS
    seeded planes; returns max residual."""
    A = _with_metric(base_alg, base_alg.killing_form())
    T = triple(A)
    fA, fT = as_float(A), as_float(_with_metric(T, T.killing_form()))
    sectA = _sect_objective(fA.structure, fA.gram)
    sectT = _sect_objective(fT.structure, fT.gram)
    GA = fA.gram
    n = base_alg.dim
    emb = triple_embeddings(n)
    gamma = [to_float(g) for g in emb["gamma"]]
    nabla = {i: to_float(v) for i, v in emb["nabla"].items()}
    diag = to_float(emb["diag"])
    rng = np.random.default_rng(seed)
    err = 0.0
    for _ in range(_TRIPLE_TRIALS):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        sA = sectA(np.concatenate([x, y]))
        if sA > 1e8:
            continue
        x2, y2, xy = fA.multiply(x, x), fA.multiply(y, y), fA.multiply(x, y)
        nx2, ny2 = x @ GA @ x, y @ GA @ y
        txy = x @ GA @ y
        for i in (1, 2, 3):
            err = max(err, abs(sectT(np.concatenate([gamma[i] @ x, gamma[i] @ y])) - 2.0 / 3 * sA))
            err = max(err, abs(sectT(np.concatenate([nabla[i] @ x, nabla[i] @ y])) - 0.5 * sA))
        for i, j in ((1, 2), (2, 3), (1, 3)):
            pred = -2.0 * ((x2 @ GA @ y2) + xy @ GA @ xy) / \
                (9.0 * nx2 * ny2 - txy ** 2)
            err = max(err, abs(sectT(np.concatenate([gamma[i] @ x, gamma[j] @ y])) - pred))
            pred = -1.5 * (xy @ GA @ xy) / (4.0 * nx2 * ny2 - txy ** 2)
            err = max(err, abs(sectT(np.concatenate([nabla[i] @ x, nabla[j] @ y])) - pred))
        for i in (1, 2, 3):
            pred = -(2.0 * (x2 @ GA @ y2) + xy @ GA @ xy) / (6.0 * nx2 * ny2)
            err = max(err, abs(sectT(np.concatenate([diag @ x, nabla[i] @ y])) - pred))
    return err
