"""Constructions: the named algebra families and derived builds."""
import math
from fractions import Fraction

import numpy as np

from . import hurwitz
from .core import (ANTICOMMUTATIVE, COMMUTATIVE, Algebra, MetrizedAlgebra,
                   tensor_product, unitalization)
from .hurwitz import hmat_jordan, hmat_mul, hmat_re_tr
from .linalg import FLOAT, RATIONAL, as_backend, eye, zeros


def _one(backend):
    return Fraction(1) if backend == RATIONAL else 1.0


def talg(n, alpha, backend=RATIONAL):
    """Permutation-invariant family: e_i e_i = e_i, e_i e_j = alpha (e_i + e_j)."""
    alpha = Fraction(alpha) if backend == RATIONAL else float(alpha)
    s = zeros((n, n, n), backend)
    for i in range(n):
        s[i, i, i] = _one(backend)
        for j in range(n):
            if j != i:
                s[i, j, i] = alpha
                s[i, j, j] = alpha
    return Algebra(s, COMMUTATIVE, name="talg(%d)" % n)


def simplicial(n, backend=RATIONAL):
    """Exact simple algebra on n generators gamma_1..gamma_n with
    gamma_i^2 = gamma_i and gamma_i gamma_j = -(gamma_i + gamma_j)/(n-1);
    metric is the Killing form."""
    base = talg(n, Fraction(-1, n - 1), backend)
    return MetrizedAlgebra(base.structure, base.killing_form().gram, COMMUTATIVE,
                           name="ealg(%d)" % n)


def gamma_vectors(n, backend=RATIONAL):
    """gamma_0, ..., gamma_n of the simplicial algebra (gamma_0 = -sum)."""
    gs = [None] * (n + 1)
    for i in range(1, n + 1):
        v = zeros(n, backend)
        v[i - 1] = _one(backend)
        gs[i] = v
    gs[0] = -sum(gs[1:])
    return gs


def cyclic3(c=1, backend=RATIONAL):
    """3-dim algebra e_i e_i = 0, e_1 e_2 = c e_3 (cyclically); metric Killing."""
    c = Fraction(c) if backend == RATIONAL else float(c)
    s = zeros((3, 3, 3), backend)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        s[i, j, k] = c
        s[j, i, k] = c
    base = Algebra(s, COMMUTATIVE)
    return MetrizedAlgebra(s, base.killing_form().gram, COMMUTATIVE, name="cyclic3")


def simplicial_reflection(n, i, j, backend=RATIONAL):
    """Reflection matrix fl_ij(x) = x - <r,x> r for r = gamma_i - gamma_j."""
    alg = simplicial(n, backend)
    gs = gamma_vectors(n, backend)
    r = gs[i] - gs[j]
    rr = alg.h(r, r)
    gr = alg.gram @ r
    return eye(n, backend) - (2 / rr) * np.outer(r, gr)


def tensor_witnesses(n, backend=RATIONAL):
    """Distinguished elements of ealg(2) (x) ealg(n).

    Returns a dict with 'e' (e[i][alpha] vectors), 'a' (a[(al,be,ga)]),
    and 'b' or (n = 5) 'z' keyed by (i, al, be, ga).
    """
    g2 = gamma_vectors(2, backend)
    gn = gamma_vectors(n, backend)
    e = [[np.kron(g2[i], gn[al]) for al in range(n + 1)] for i in range(3)]
    out = {"e": e, "a": {}, "b": {}, "z": {}}
    for al in range(n + 1):
        for be in range(n + 1):
            for ga in range(n + 1):
                if len({al, be, ga}) < 3:
                    continue
                out["a"][(al, be, ga)] = (
                    (e[0][al] + e[1][be] + e[2][ga]) * (n - 1) / (n + 1))
                for i in range(3):
                    base = e[i][al] + e[i][be] + e[i][ga]
                    if n == 5:
                        out["z"][(i, al, be, ga)] = (4 * base) / 3
                    else:
                        out["b"][(i, al, be, ga)] = base * (n - 1) / (n - 5)
    return out


def _herm_basis(n, level, traceless=False):
    """Basis matrices: diagonal ones first, then off-diagonal u e_ij + conj(u) e_ji."""
    mats = []
    ndiag = n - 1 if traceless else n
    for i in range(ndiag):
        m = hurwitz.hmat(n, level)
        m[i, i, 0] = Fraction(1)
        if traceless:
            m[n - 1, n - 1, 0] = Fraction(-1)
        mats.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(level):
                m = hurwitz.hmat(n, level)
                m[i, j, a] = Fraction(1)
                m[j, i, a] = Fraction(1) if a == 0 else Fraction(-1)
                mats.append(m)
    return mats


def _herm_coords(M, n, level, traceless=False):
    """Coordinates of a (traceless) Hermitian matrix in the _herm_basis order."""
    coords = []
    for i in range(n - 1 if traceless else n):
        coords.append(M[i, i, 0])
    for i in range(n):
        for j in range(i + 1, n):
            coords.extend(M[i, j, a] for a in range(level))
    return np.array(coords, dtype=object)


def herm_jordan(n, level):
    """Hermitian matrix Jordan algebra x * y = (xy + yx)/2 with
    h(x, y) = re tr(xy) / n; exact rational."""
    if level == 8 and n != 3:
        raise ValueError("octonionic Hermitian matrices only at size 3")
    mats = _herm_basis(n, level)
    k = len(mats)
    s = zeros((k, k, k), RATIONAL)
    g = zeros((k, k), RATIONAL)
    for p in range(k):
        for q in range(p + 1):
            prod = hmat_jordan(mats[p], mats[q], level)
            coords = _herm_coords(prod, n, level)
            s[p, q, :] = coords
            s[q, p, :] = coords
            # re tr(XY) = re tr(X o Y), as re(ab) = re(ba) in every
            # Cayley-Dickson algebra
            v = Fraction(hmat_re_tr(prod), n)
            g[p, q] = v
            g[q, p] = v
    out = MetrizedAlgebra(s, g, COMMUTATIVE, name="herm(%d,%d)" % (n, level))
    out.matrices = mats
    out.msize = n
    out.level = level
    return out


def herm0(n, level):
    """Traceless Hermitian matrices, x y = x * y - tr(x * y) I / n,
    h(x, y) = re tr(xy) / n; exact rational."""
    if level == 8 and n != 3:
        raise ValueError("octonionic Hermitian matrices only at size 3")
    mats = _herm_basis(n, level, traceless=True)
    k = len(mats)
    s = zeros((k, k, k), RATIONAL)
    g = zeros((k, k), RATIONAL)
    for p in range(k):
        for q in range(p + 1):
            prod = hmat_jordan(mats[p], mats[q], level)
            tr = sum(prod[i, i, 0] for i in range(n))
            for i in range(n):
                prod[i, i, 0] -= Fraction(tr, n)
            coords = _herm_coords(prod, n, level, traceless=True)
            s[p, q, :] = coords
            s[q, p, :] = coords
            v = Fraction(tr, n)                      # re tr(XY) = re tr(X o Y)
            g[p, q] = v
            g[q, p] = v
    out = MetrizedAlgebra(s, g, COMMUTATIVE, name="herm0(%d,%d)" % (n, level))
    out.matrices = mats
    out.msize = n
    out.level = level
    return out


def herm0_coords(M, n, level):
    return _herm_coords(M, n, level, traceless=True)


def diagonal_generators(n, level):
    """Vectors gamma(i) = n/(n-2) (e_ii - I/n) in herm0(n, level) coordinates."""
    if n <= 2:
        raise ValueError("diagonal generators need n > 2")
    alg_dim = (n - 1) + (n * (n - 1) // 2) * level
    out = []
    for i in range(1, n + 1):
        v = zeros(alg_dim, RATIONAL)
        for j in range(1, n):
            v[j - 1] = Fraction(n - 1, n - 2) if j == i else Fraction(-1, n - 2)
        out.append(v)
    return out


def algebra_from_matrix_basis(mats, product, coords, gram=None, symmetry=ANTICOMMUTATIVE,
                              name=""):
    """Structure tensor of a matrix algebra given basis, product and a
    coordinate read-off; metric defaults to the Killing form."""
    k = len(mats)
    s = zeros((k, k, k), RATIONAL)
    sign = 1 if symmetry == COMMUTATIVE else -1
    for p in range(k):
        for q in range(p + 1):
            if symmetry == ANTICOMMUTATIVE and p == q:
                continue
            c = coords(product(mats[p], mats[q]))
            s[p, q, :] = c
            s[q, p, :] = sign * c
    base = Algebra(s, symmetry, name=name)
    g = gram if gram is not None else base.killing_form().gram
    out = MetrizedAlgebra(s, g, symmetry, name=name)
    out.matrices = mats
    return out


def lie_so(n):
    """so(n), n >= 3; for n = 3 the cyclic basis with [L1, L2] = L3."""
    if n < 3:
        raise ValueError("lie-so needs n >= 3")
    if n == 3:
        mats = []
        for k in range(3):
            m = zeros((3, 3), RATIONAL)
            for i in range(3):
                for j in range(3):
                    m[i, j] = Fraction(-_eps(k, i, j))
            mats.append(m)

        def coords(M):
            return np.array([-M[1, 2], M[0, 2], -M[0, 1]], dtype=object)
    else:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        mats = []
        for a, b in pairs:
            m = zeros((n, n), RATIONAL)
            m[a, b] = Fraction(1)
            m[b, a] = Fraction(-1)
            mats.append(m)

        def coords(M):
            return np.array([M[a, b] for a, b in pairs], dtype=object)

    return algebra_from_matrix_basis(mats, lambda x, y: x @ y - y @ x, coords,
                                     name="lie-so(%d)" % n)


def _eps(i, j, k):
    if (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        return 1
    if (i, j, k) in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
        return -1
    return 0


def _su_basis(n):
    """Skew-Hermitian traceless basis aligned with herm0(n, 2) via x -> jx."""
    h0 = _herm_basis(n, 2, traceless=True)
    mats = []
    for H in h0:
        S = hurwitz.hmat(n, 2)
        for i in range(n):
            for j in range(n):
                a, b = H[i, j]
                S[i, j, 0] = b
                S[i, j, 1] = -a
        mats.append(S)
    return mats


def _su_coords(M, n):
    """Coordinates via the isomorphism x -> jx onto herm0(n, 2)."""
    H = hurwitz.hmat(n, 2)
    for i in range(n):
        for j in range(n):
            a, b = M[i, j]
            H[i, j, 0] = -b
            H[i, j, 1] = a
    return _herm_coords(H, n, 2, traceless=True)


def lie_su(n):
    """su(n) with the commutator bracket, aligned with the herm0(n,2) basis."""
    if n < 2:
        raise ValueError("lie-su needs n >= 2")
    mats = _su_basis(n)

    def prod(x, y):
        return hmat_mul(x, y, 2) - hmat_mul(y, x, 2)

    return algebra_from_matrix_basis(mats, prod, lambda M: _su_coords(M, n),
                                     name="lie-su(%d)" % n)


def su_circle(n):
    """Commutative product x o y = (j/2)(xy + yx - 2 tr(xy) I / n) on su(n),
    with h(x, y) = -re tr(xy)/n; exact rational."""
    if n < 2:
        raise ValueError("su-circle needs n >= 2")
    mats = _su_basis(n)
    k = len(mats)
    s = zeros((k, k, k), RATIONAL)
    g = zeros((k, k), RATIONAL)
    for p in range(k):
        for q in range(p + 1):
            sym = hmat_jordan(mats[p], mats[q], 2)
            tr = sum(sym[i, i, 0] for i in range(n))  # trace is real here
            for i in range(n):
                sym[i, i, 0] -= Fraction(tr, n)
            prod = hurwitz.hmat(n, 2)
            for i in range(n):
                for j in range(n):
                    a, b = sym[i, j]
                    prod[i, j, 0] = -b
                    prod[i, j, 1] = a
            c = _su_coords(prod, n)
            s[p, q, :] = c
            s[q, p, :] = c
            v = -Fraction(tr, n)                     # re tr(XY) = re tr(X o Y)
            g[p, q] = v
            g[q, p] = v
    out = MetrizedAlgebra(s, g, COMMUTATIVE, name="su-circle(%d)" % n)
    out.matrices = mats
    return out


def triple(alg, name=""):
    """Three copies construction: comp_k(x y) = (x_{k+1} y_{k+2} + y_{k+1} x_{k+2})/2.

    Commutative input with metric h: metric blockdiag(h/2) (its Killing form
    when h is the Killing form).  Anticommutative input with Killing metric B:
    metric blockdiag(-B/2).  Output is always commutative.
    """
    n = alg.dim
    backend = alg.backend
    s = zeros((3 * n, 3 * n, 3 * n), backend)
    m = alg.structure
    for i in range(3):
        for dj in (1, 2):
            j = (i + dj) % 3
            k = (i + 2) % 3 if dj == 1 else (j + 2) % 3
            for a in range(n):
                for b in range(n):
                    row = m[a, b] if dj == 1 else m[b, a]
                    s[i * n + a, j * n + b, k * n:(k + 1) * n] = row / 2
    sign = 1 if alg.symmetry == COMMUTATIVE else -1
    g = zeros((3 * n, 3 * n), backend)
    for i in range(3):
        g[i * n:(i + 1) * n, i * n:(i + 1) * n] = sign * alg.gram / 2
    return MetrizedAlgebra(s, g, COMMUTATIVE, name=name or ("triple(%s)" % alg.name))


def nahm(lie_alg):
    """Triple construction applied to a Lie algebra with its Killing form."""
    if lie_alg.symmetry != ANTICOMMUTATIVE:
        raise ValueError("nahm needs an anticommutative (Lie) algebra")
    return triple(lie_alg, name="nahm(%s)" % lie_alg.name)


def triple_embeddings(n, backend=RATIONAL):
    """Distinguished linear maps into the triple construction (3n x n)."""
    I = eye(n, backend)
    Z = zeros((n, n), backend)

    def stack(a, b, c):
        return np.concatenate([a, b, c], axis=0)

    nu = [stack(I, Z, Z), stack(Z, I, Z), stack(Z, Z, I)]
    gamma = [stack(I, I, I), stack(I, -I, -I), stack(-I, I, -I), stack(-I, -I, I)]
    nabla_pair = {(i, j): (gamma[i] - gamma[j]) / 2
                  for i in range(4) for j in range(4) if i != j}
    nabla = {i: gamma[0] - 3 * nu[i - 1] for i in (1, 2, 3)}
    return {"nu": nu, "gamma": gamma, "nabla_pair": nabla_pair, "nabla": nabla,
            "diag": gamma[0]}


def s4_transposition_matrices(n, backend=RATIONAL):
    """The six transpositions of the S4 symmetry of the triple construction,
    as 3n x 3n matrices, keyed by the transposed pair."""
    I = eye(n, backend)
    Z = zeros((n, n), backend)

    def block(rows):
        return np.concatenate([np.concatenate(r, axis=1) for r in rows], axis=0)

    return {
        (0, 1): block([[I, Z, Z], [Z, Z, -I], [Z, -I, Z]]),
        (0, 2): block([[Z, Z, -I], [Z, I, Z], [-I, Z, Z]]),
        (0, 3): block([[Z, -I, Z], [-I, Z, Z], [Z, Z, I]]),
        (1, 2): block([[Z, I, Z], [I, Z, Z], [Z, Z, I]]),
        (1, 3): block([[Z, Z, I], [Z, I, Z], [I, Z, Z]]),
        (2, 3): block([[I, Z, Z], [Z, Z, I], [Z, I, Z]]),
    }


def _sqrt_scalar(x, backend):
    if backend == FLOAT:
        return math.sqrt(float(x))
    x = Fraction(x)
    p = math.isqrt(x.numerator)
    q = math.isqrt(x.denominator)
    if p * p != x.numerator or q * q != x.denominator:
        raise ValueError("square root not rational; use the float backend")
    return Fraction(p, q)


def conformal_extension(alg, backend=FLOAT):
    """One dimension up: (x,r)(y,s) = c ( a x y - s x - r y, n r s - tau(x,y) )
    with c = 1/sqrt(n(n+1)), a = sqrt((n+2)(n-1)); metric blockdiag(tau, 1).

    Input must be exact with Killing metric; output is exact with Killing
    metric again.  Carries `.canonical_idempotent`.
    """
    n = alg.dim
    G = as_backend(alg.gram, backend)
    m = as_backend(alg.structure, backend)
    cn = 1 / _sqrt_scalar(n * (n + 1), backend)
    a = _sqrt_scalar((n + 2) * (n - 1), backend)
    s = zeros((n + 1, n + 1, n + 1), backend)
    s[:n, :n, :n] = cn * a * m
    s[:n, :n, n] = -cn * G
    for i in range(n):
        s[i, n, i] = -cn
        s[n, i, i] = -cn
    s[n, n, n] = n * cn
    g = zeros((n + 1, n + 1), backend)
    g[:n, :n] = G
    g[n, n] = _one(backend)
    out = MetrizedAlgebra(s, g, COMMUTATIVE, name="confext(%s)" % alg.name)
    e = zeros(n + 1, backend)
    e[n] = _sqrt_scalar(Fraction(n + 1, n), backend)
    out.canonical_idempotent = e
    return out


def confext_idempotent_data(n, e_norm2):
    """Stationary values s_-, s_+ and squared-norm map phi for idempotents of
    the conformal extension built over an idempotent of squared norm e_norm2."""
    E = float(e_norm2)
    c2 = 1.0 / ((n + 2) * (n - 1))
    disc = math.sqrt(1 + 4 * (n + 2) * c2 * E)
    s_minus = (-1 - 4 * c2 * E - disc) / (4 * c2 * E)
    s_plus = (-1 - 4 * c2 * E + disc) / (4 * c2 * E)

    def phi(s):
        if s == 0:  # degenerate branch: the stationary point escapes to infinity
            return math.inf
        return n * (n + 1) * (n + 1 - 2 * s) / (4 * s * s)

    return s_minus, s_plus, phi(s_minus), phi(s_plus)


def build_by_name(name, **kw):
    """CLI-facing dispatch over the catalogue names."""
    if name == "talg":
        return talg(kw["n"], kw["alpha"], kw.get("backend", RATIONAL))
    if name == "ealg":
        return simplicial(kw["n"], kw.get("backend", RATIONAL))
    if name == "herm":
        return herm_jordan(kw["n"], kw["level"])
    if name == "herm0":
        return herm0(kw["n"], kw["level"])
    if name == "su-circle":
        return su_circle(kw["n"])
    if name == "lie-so":
        return lie_so(kw["n"])
    if name == "lie-su":
        return lie_su(kw["n"])
    if name == "triple":
        return triple(kw["base"])
    if name == "nahm":
        return nahm(kw["base"])
    if name == "tensor":
        return tensor_product(kw["base"], kw["base2"])
    if name == "dsum":
        from .core import direct_sum
        return direct_sum(kw["base"], kw["base2"])
    if name == "unitalize":
        return unitalization(kw["base"])
    if name == "deunitalize":
        from .core import deunitalization
        return deunitalization(kw["base"])
    if name == "confext":
        return conformal_extension(kw["base"], kw.get("backend", FLOAT))
    raise ValueError("unknown construction: %s" % name)
