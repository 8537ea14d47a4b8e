"""Constructions: the named algebra families and derived builds."""
import math
from fractions import Fraction

import numpy as np

from . import hurwitz
from .core import (ANTICOMMUTATIVE, COMMUTATIVE, Algebra, MetrizedAlgebra, _adjoin, _blocks,
                   deunitalization, direct_sum, tensor_product, unitalization)
from .hurwitz import hmat_re_tr
from .linalg import SymBilinearForm, _contract, _made_once, _view, eye, zeros


def talg(n, alpha):
    """Permutation-invariant family: e_i e_i = e_i, e_i e_j = alpha (e_i + e_j)."""
    if n < 1:
        raise ValueError("talg needs n >= 1")
    alpha = Fraction(alpha)
    off = np.zeros((n, n, n), dtype=np.int64)
    i, j = np.nonzero(1 - np.eye(n, dtype=int))
    off[i, j, i] = off[i, j, j] = 1
    diag = np.zeros((n, n, n), dtype=np.int64)
    diag[range(n), range(n), range(n)] = 1
    # numerators over the denominator q of alpha = p / q; one product per
    # entry, as off and diag are disjoint
    N = _contract(lambda p, q, o, d: p * o + q * d, 1, alpha.numerator, alpha.denominator,
                  off, diag)
    return Algebra._from_numerators(N, alpha.denominator, COMMUTATIVE, name="talg(%d)" % n)


def simplicial(n):
    """Exact simple algebra on n generators gamma_1..gamma_n with
    gamma_i^2 = gamma_i and gamma_i gamma_j = -(gamma_i + gamma_j)/(n-1);
    metric is the Killing form."""
    if n < 2:
        raise ValueError("ealg needs n >= 2")
    base = talg(n, Fraction(-1, n - 1))
    return MetrizedAlgebra._from_numerators(base._N, base._D, base.killing_form(),
                                            COMMUTATIVE, name="ealg(%d)" % n)


def gamma_vectors(n):
    """gamma_0, ..., gamma_n of the simplicial algebra (gamma_0 = -sum)."""
    I = eye(n)
    return [-I.sum(axis=0)] + list(I)


def cyclic3():
    """3-dim algebra e_i e_i = 0, e_1 e_2 = e_3 (cyclically); metric Killing."""
    N = np.zeros((3, 3, 3), dtype=np.int64)
    i, j, k = (0, 1, 2), (1, 2, 0), (2, 0, 1)
    N[i, j, k] = N[j, i, k] = 1
    base = Algebra._from_numerators(N, 1, COMMUTATIVE)
    return MetrizedAlgebra._from_numerators(N, 1, base.killing_form(), COMMUTATIVE,
                                            name="cyclic3")


def simplicial_reflection(n, i, j):
    """Reflection matrix fl_ij(x) = x - <r,x> r for r = gamma_i - gamma_j."""
    alg = simplicial(n)
    gs = gamma_vectors(n)
    r = gs[i] - gs[j]
    rr = alg.h(r, r)
    gr = alg.gram @ r
    return eye(n) - (2 / rr) * np.outer(r, gr)


def tensor_witnesses(n):
    """Distinguished elements of ealg(2) (x) ealg(n).

    Returns a dict with 'e' (e[i][alpha] vectors), 'a' (a[(al,be,ga)]),
    and 'b' or (n = 5) 'z' keyed by (i, al, be, ga).
    """
    g2 = gamma_vectors(2)
    gn = gamma_vectors(n)
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
    """Integer basis matrices stacked as (k, n, n, level): diagonal ones
    first, then off-diagonal u e_ij + conj(u) e_ji for i < j and each unit u."""
    ndiag = n - 1 if traceless else n
    iu, ju = np.triu_indices(n, 1)
    d = np.arange(ndiag)
    B = np.zeros((ndiag + len(iu) * level, n, n, level), dtype=np.int64)
    B[d, d, d, 0] = 1
    if traceless:
        B[d, n - 1, n - 1, 0] = -1
    p = np.arange(len(iu) * level)
    pair, a = np.divmod(p, level)
    B[ndiag + p, iu[pair], ju[pair], a] = 1
    B[ndiag + p, ju[pair], iu[pair], a] = np.where(a == 0, 1, -1)
    return B


def _herm_coords(M, n, level, traceless=False):
    """Coordinates of a (traceless) Hermitian matrix, or of a stack of them
    (..., n, n, level), in the _herm_basis order."""
    M = np.asarray(M)
    d = np.arange(n - 1 if traceless else n)
    iu, ju = np.triu_indices(n, 1)
    off = M[..., iu, ju, :].reshape(M.shape[:-3] + (len(iu) * level,))
    return np.concatenate([M[..., d, d, 0], off], axis=-1)


def _jordan_table(B, level):
    """(J, t): numerators over 2 of all Jordan products B_p o B_q of an
    integer basis stack, and of their real traces.  t is also re tr(B_p B_q)
    times 2, as re(ab) = re(ba) in every Cayley-Dickson algebra."""
    P = hurwitz._mul(B[:, None], B[None], level)     # all k^2 products at once
    J = P + np.swapaxes(P, 0, 1)
    return J, hmat_re_tr(J)


class _MatrixAlgebra(MetrizedAlgebra):
    """A metrized algebra on a basis of matrices, kept as an integer stack;
    its Fractions, `matrices`, are made on first read, as `structure` is."""

    matrices = _made_once("_matrices", lambda alg: _view(alg._mats, 1))


def _matrix_algebra(N, D, form, symmetry, name, mats):
    """The metrized algebra of structure N / D and metric form on the
    integer basis stack mats."""
    out = _MatrixAlgebra._from_numerators(N, D, form, symmetry, name=name)
    out._mats, out._matrices = mats, None
    return out


def herm_jordan(n, level):
    """Hermitian matrix Jordan algebra x * y = (xy + yx)/2 with
    h(x, y) = re tr(xy) / n; exact rational."""
    if n < 1:
        raise ValueError("herm needs n >= 1")
    if level == 8 and n != 3:
        raise ValueError("octonionic Hermitian matrices only at size 3")
    B = _herm_basis(n, level)
    J, t = _jordan_table(B, level)
    return _matrix_algebra(_herm_coords(J, n, level), 2, SymBilinearForm._from_numerators(t, 2 * n),
                           COMMUTATIVE, "herm(%d,%d)" % (n, level), B)


def herm0(n, level):
    """Traceless Hermitian matrices, x y = x * y - tr(x * y) I / n,
    h(x, y) = re tr(xy) / n; exact rational."""
    if n < 2:
        raise ValueError("herm0 needs n >= 2")
    if level == 8 and n != 3:
        raise ValueError("octonionic Hermitian matrices only at size 3")
    B = _herm_basis(n, level, traceless=True)
    J, t = _jordan_table(B, level)
    # numerators over 2n of x o y - re tr(x o y) I / n and of re tr(xy) / n
    s = n * _herm_coords(J, n, level, traceless=True)
    s[..., :n - 1] -= t[..., None]
    return _matrix_algebra(s, 2 * n, SymBilinearForm._from_numerators(t, 2 * n), COMMUTATIVE,
                           "herm0(%d,%d)" % (n, level), B)


def herm0_coords(M, n, level):
    return _herm_coords(M, n, level, traceless=True)


def diagonal_generators(n, level):
    """Vectors gamma(i) = n/(n-2) (e_ii - I/n) in herm0(n, level) coordinates."""
    if n <= 2:
        raise ValueError("diagonal generators need n > 2")
    alg_dim = (n - 1) + (n * (n - 1) // 2) * level
    out = []
    for i in range(1, n + 1):
        v = zeros(alg_dim)
        for j in range(1, n):
            v[j - 1] = Fraction(n - 1, n - 2) if j == i else Fraction(-1, n - 2)
        out.append(v)
    return out


def algebra_from_matrix_basis(mats, mul, coords, name=""):
    """Lie algebra of an integer basis stack (k, ...) under the commutator
    of `mul`, with its Killing form as the metric.

    mul(X, Y) forms all products of two broadcast stacks at once, and
    coords reads the integer coordinates off a stack of matrices.
    """
    P = mul(mats[:, None], mats[None])
    s = coords(P - np.swapaxes(P, 0, 1))
    tau = Algebra._from_numerators(s, 1, ANTICOMMUTATIVE).killing_form()
    return _matrix_algebra(s, 1, tau, ANTICOMMUTATIVE, name, mats)


def lie_so(n):
    """so(n), n >= 3, on the basis L_ab = E_ab - E_ba, a < b; for n = 3 the
    cyclic basis with [L1, L2] = L3, (-L_12, L_02, -L_01)."""
    if n < 3:
        raise ValueError("lie-so needs n >= 3")
    a, b = np.triu_indices(n, 1)
    c = np.ones(len(a), dtype=np.int64)
    if n == 3:
        a, b, c = a[::-1], b[::-1], np.array([-1, 1, -1])
    mats = np.zeros((len(a), n, n), dtype=np.int64)
    mats[np.arange(len(a)), a, b] = c
    mats[np.arange(len(a)), b, a] = -c

    def coords(M):
        return c * M[..., a, b]

    return algebra_from_matrix_basis(mats, np.matmul, coords, name="lie-so(%d)" % n)


def _times_j(M):
    """x -> jx on complex entries (a, b) -> (b, -a), broadcast over stacks."""
    return np.stack([M[..., 1], -M[..., 0]], axis=-1)


def _su_basis(n):
    """Skew-Hermitian traceless integer basis aligned with herm0(n, 2) via x -> jx."""
    return _times_j(_herm_basis(n, 2, traceless=True))


def _su_coords(M, n):
    """Coordinates via the isomorphism x -> jx onto herm0(n, 2)."""
    return _herm_coords(-_times_j(M), n, 2, traceless=True)


def lie_su(n):
    """su(n) with the commutator bracket, aligned with the herm0(n,2) basis."""
    if n < 2:
        raise ValueError("lie-su needs n >= 2")
    return algebra_from_matrix_basis(_su_basis(n), lambda x, y: hurwitz._mul(x, y, 2),
                                     lambda M: _su_coords(M, n), name="lie-su(%d)" % n)


def su_circle(n):
    """Commutative product x o y = (j/2)(xy + yx - 2 tr(xy) I / n) on su(n),
    with h(x, y) = -re tr(xy)/n; exact rational.  It is herm0(n, 2) on the
    su basis, herm0(n, 2)'s times a unit imaginary scalar c, c^2 = -1: the
    product and form above undo the sign c^2 gives its Jordan table and traces."""
    if n < 2:
        raise ValueError("su-circle needs n >= 2")
    h = herm0(n, 2)
    return _matrix_algebra(h._N, h._D, h.form, COMMUTATIVE, "su-circle(%d)" % n, _su_basis(n))


def triple(alg, name=""):
    """Three copies construction: comp_k(x y) = (x_{k+1} y_{k+2} + y_{k+1} x_{k+2})/2.

    Commutative input with metric h: metric blockdiag(h/2) (its Killing form
    when h is the Killing form).  Anticommutative input with Killing metric B:
    metric blockdiag(-B/2).  Output is always commutative.
    """
    n = alg.dim
    N = np.zeros((3 * n,) * 3, alg._N.dtype)
    block = [slice(k * n, (k + 1) * n) for k in range(3)]
    for i in range(3):
        # x_i y_{i+1} lies in copy i + 2 with the products x y, and x_i
        # y_{i+2} in copy i + 1 with the products y x, all over 2
        N[block[i], block[(i + 1) % 3], block[(i + 2) % 3]] = alg._N
        N[block[i], block[(i + 2) % 3], block[(i + 1) % 3]] = np.swapaxes(alg._N, 0, 1)
    sign = 1 if alg.symmetry == COMMUTATIVE else -1
    G = (sign * alg.form._G, 2 * alg.form._DG)
    form = SymBilinearForm._from_numerators(*_blocks(2, G, G, G))
    return MetrizedAlgebra._from_numerators(N, 2 * alg._D, form, COMMUTATIVE,
                                            name=name or ("triple(%s)" % alg.name))


def nahm(lie_alg):
    """Triple construction applied to a Lie algebra with its Killing form."""
    if lie_alg.symmetry != ANTICOMMUTATIVE:
        raise ValueError("nahm needs an anticommutative (Lie) algebra")
    return triple(lie_alg, name="nahm(%s)" % lie_alg.name)


def triple_embeddings(n):
    """Distinguished linear maps into the triple construction (3n x n)."""
    I = eye(n)
    Z = zeros((n, n))

    def stack(a, b, c):
        return np.concatenate([a, b, c], axis=0)

    nu = [stack(I, Z, Z), stack(Z, I, Z), stack(Z, Z, I)]
    gamma = [stack(I, I, I), stack(I, -I, -I), stack(-I, I, -I), stack(-I, -I, I)]
    nabla_pair = {(i, j): (gamma[i] - gamma[j]) / 2
                  for i in range(4) for j in range(4) if i != j}
    nabla = {i: gamma[0] - 3 * nu[i - 1] for i in (1, 2, 3)}
    return {"nu": nu, "gamma": gamma, "nabla_pair": nabla_pair, "nabla": nabla,
            "diag": gamma[0]}


def s4_transposition_matrices(n):
    """The six transpositions of the S4 symmetry of the triple construction,
    as 3n x 3n matrices, keyed by the transposed pair."""
    I = eye(n)
    Z = zeros((n, n))

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


def conformal_extension(alg):
    """One dimension up, in the rational basis e_i, f: with k = (n+2)(n-1),
    (x,r)(y,s) = (x y - s x - r y, n r s - tau(x,y) / k), metric
    n(n+1) (tau / k + r s), where tau is alg's metric.

    Input must carry its Killing metric, and the metric built is the
    Killing form again.  It is the extension c (a x y - s x - r y, n r s -
    tau(x,y)) with metric tau + r s, c = 1/sqrt(n(n+1)), a = sqrt(k), in
    the basis e_i / (c a), f = e_n / c.  Carries `.canonical_idempotent`, f / n.
    """
    if alg.symmetry != COMMUTATIVE:
        raise ValueError("the conformal extension needs a commutative algebra")
    n = alg.dim
    if n < 2:
        raise ValueError("the conformal extension needs dim >= 2")
    c = SymBilinearForm._from_numerators(-alg.form._G, alg.form._DG * (n + 2) * (n - 1))
    out = _adjoin(alg, -1, n, c, n * (n + 1), "confext(%s)" % alg.name)
    out.canonical_idempotent = out.basis_vector(n) / n
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


# family: (builder, the options it needs, in argument order); builders are
# looked up by name at call time, so a wrapper installed over one is seen
FAMILIES = {
    "talg": ("talg", ("n", "alpha")),
    "ealg": ("simplicial", ("n",)),
    "herm": ("herm_jordan", ("n", "level")),
    "herm0": ("herm0", ("n", "level")),
    "su-circle": ("su_circle", ("n",)),
    "lie-so": ("lie_so", ("n",)),
    "lie-su": ("lie_su", ("n",)),
    "triple": ("triple", ("base",)),
    "nahm": ("nahm", ("base",)),
    "tensor": ("tensor_product", ("base", "base2")),
    "dsum": ("direct_sum", ("base", "base2")),
    "unitalize": ("unitalization", ("base",)),
    "deunitalize": ("deunitalization", ("base",)),
    "confext": ("conformal_extension", ("base",)),
}


def build_by_name(name, **kw):
    """CLI-facing dispatch over the catalogue names; a missing option
    raises ValueError naming it."""
    if name not in FAMILIES:
        raise ValueError("unknown construction: %s" % name)
    builder, options = FAMILIES[name]
    missing = ["--" + o for o in options if kw.get(o) is None]
    if missing:
        raise ValueError("%s needs %s" % (name, " and ".join(missing)))
    return globals()[builder](*(kw[o] for o in options))
