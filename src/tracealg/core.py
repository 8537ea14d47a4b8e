"""Finite dimensional commutative / anticommutative algebras with trace forms.

An algebra is a structure tensor m[i,j,k] (e_i e_j = sum_k m[i,j,k] e_k)
held as numerators N over one denominator D, m = N / D: integers in lowest
terms on an exact algebra, floats over D = 1 on a float one.  The trace
forms, the associator, invariance, ideal tests and the commutant are
computed on N; the tensor of Fractions, `structure`, is made only when it
is read, and kept.  A metrized algebra additionally carries a
nondegenerate invariant symmetric bilinear form of the same kind.
`as_float` is the one float view of an algebra, made from the numerators;
the numeric searches compute on it.
"""
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from . import linalg
from .linalg import (FLOAT, RATIONAL, SymBilinearForm, Subspace, _contract,
                     _fractions, _is_zero, _lowest_terms, _made_once, _numerators,
                     _read, _residual, _view, as_backend, backend_of, is_zero, max_abs, zeros)

COMMUTATIVE = "commutative"
ANTICOMMUTATIVE = "anticommutative"


class Algebra:
    def __init__(self, structure, symmetry=COMMUTATIVE, name=""):
        self._init(*_read(structure), symmetry, name)

    @classmethod
    def _from_numerators(cls, N, D, *args, **kwargs):
        """cls(N / D, *args, **kwargs) for integer numerators N over D (or
        float N), without making the Fractions of N / D."""
        alg = cls.__new__(cls)
        alg._init(N, D, *args, **kwargs)
        return alg

    def _init(self, N, D, symmetry=COMMUTATIVE, name=""):
        """The algebra of structure tensor N / D: the one initializer."""
        self._N, self._D = _lowest_terms(N, D)
        self._structure = None
        self.symmetry = symmetry
        self.name = name
        N = self._N
        if N.ndim != 3 or not N.shape[0] == N.shape[1] == N.shape[2]:
            raise ValueError("structure tensor of shape %s is not n x n x n" % (N.shape,))
        if symmetry not in (COMMUTATIVE, ANTICOMMUTATIVE):
            raise ValueError("unknown symmetry %r" % (symmetry,))
        T = np.swapaxes(N, 0, 1)
        if symmetry == ANTICOMMUTATIVE:
            T = -T                      # |N| < 2^62 on int64, so no entry wraps
        if not (np.all(_is_zero(N - T, scale=lambda: max_abs(N))) if N.dtype.kind == "f"
                else np.array_equal(N, T)):
            raise ValueError("structure tensor is not %s" % symmetry)

    # m[i,j,k] = N / D, read-only: Fractions on an exact algebra, made on
    # first read and then kept, and N itself on a float one (D = 1)
    structure = _made_once("_structure", lambda alg: _view(alg._N, alg._D))

    @property
    def backend(self):
        return FLOAT if self._N.dtype.kind == "f" else RATIONAL

    @property
    def dim(self):
        return self._N.shape[0]

    def basis_vector(self, i):
        v = zeros(self.dim, self.backend)
        v[i] += 1
        return v

    def multiply(self, x, y):
        t = np.tensordot(np.asarray(x), self.structure, axes=(0, 0))
        return np.tensordot(np.asarray(y), t, axes=(0, 0))

    def left_mult_matrix(self, x):
        return np.tensordot(np.asarray(x), self.structure, axes=(0, 0)).T

    def trace_linear(self):
        """Vector t with tr L(x) = t . x."""
        # t[i] sums n entries m[i,j,j]
        return _fractions(_contract(lambda a: np.trace(a, axis1=1, axis2=2), self.dim, self._N),
                          self._D)

    def is_exact(self):
        return is_zero(self.trace_linear())

    def _killing(self):
        """(K, E) with tau = K / E, K integer on exact algebras."""
        # g[i,j] sums n^2 products; g + g.T doubles that
        K = _contract(_twice_killing, 2 * self.dim ** 2, self._N, self._N)
        return K, 2 * self._D ** 2

    def killing_form(self):
        """tau(e_i, e_j) = tr L(e_i) L(e_j) = sum_ab m[i,a,b] m[j,b,a]."""
        return SymBilinearForm._from_numerators(*self._killing())

    def _ricci(self):
        """(R, E) with ric = R / E, R integer on exact algebras."""
        def twice_ricci(a, b):
            return (2 * np.tensordot(a, np.trace(b, axis1=1, axis2=2), axes=(2, 0))
                    - _twice_killing(a, b))
        # 2 (a . tr b) sums 2 n^2 products, twice Killing 2 n^2 more
        return _contract(twice_ricci, 4 * self.dim ** 2, self._N, self._N), 2 * self._D ** 2

    def ricci_form(self):
        """ric(x, y) = tr L(x y) - tau(x, y)."""
        return SymBilinearForm._from_numerators(*self._ricci())

    def associator(self, x, y, z):
        return (self.multiply(self.multiply(x, y), z)
                - self.multiply(x, self.multiply(y, z)))

    def _associator(self):
        """(A, E) with the associator tensor = A / E, A integer on exact algebras."""
        def associator(a, b):
            left = np.tensordot(a, b, axes=(2, 0))                 # [i,j,k,l]
            right = np.tensordot(a, b, axes=(2, 1))                # [j,k,i,l]
            return left - np.transpose(right, (2, 0, 1, 3))
        # left and right sum n products each
        return _contract(associator, 2 * self.dim, self._N, self._N), self._D ** 2

    def associator_tensor(self):
        """A[i,j,k,l] = [e_i, e_j, e_k]_l = ((e_i e_j) e_k - e_i (e_j e_k))_l."""
        return _fractions(*self._associator())

    def is_invariant(self, form):
        """Check h(xy, z) = h(x, yz) on basis triples; returns (ok, max violation)."""
        G, DG = form._G, form._DG

        def violation(m, g):
            A = np.tensordot(m, g, axes=(2, 0))                    # h(e_i e_j, e_k)
            return max_abs(A - np.transpose(A, (2, 0, 1)))
        # A sums n products; A minus its transpose doubles that
        err = _fractions(_contract(violation, 2 * self.dim, self._N, G), self._D * DG)
        ok = _is_zero(err, scale=lambda: max(max_abs(G), max_abs(self._N)))
        return bool(ok), err

    def cubic_value(self, form, x):
        """P(x) with 6 P(x) = h(x x, x)."""
        return form.apply(self.multiply(x, x), x) / 6

    def _products(self, S):
        """The products e_i s_j (s_j outer, e_i inner) with the rows of S, as
        rows: integer numerators over one common denominator on an exact
        algebra, which is all a containment test needs."""
        # each entry sums n products
        P = _contract(lambda m, r: np.tensordot(m, r, axes=(1, 1)),
                      self.dim, self._N, S._R)                     # [i,k,j]
        return np.transpose(P, (2, 0, 1)).reshape(-1, self.dim)

    def is_ideal(self, S):
        return S.contains(self._products(S))

    def ideal_closure(self, generators):
        S = Subspace.from_spanning(generators)
        while True:
            outside = S._outside(self._products(S))
            if not len(outside):
                return S
            S = Subspace(np.vstack([S._R, outside]).T)

    def find_unit(self):
        """Solve L(e) = Id if possible, else return None.

        An exact algebra solves A e = b exactly: it has a solution iff the
        nullspace of [A | -b] holds a vector (e, t) with t != 0.  With
        A = N' / D for the numerators N' of A, that is the nullspace of the
        integer matrix [N' | -D b], whose reduced echelon form is the same.
        """
        n = self.dim
        A = np.transpose(self._N, (1, 2, 0)).reshape(n * n, n)
        b = np.eye(n, dtype=np.int64).reshape(n * n)
        if self.backend == RATIONAL:
            # one product per entry
            M = _contract(lambda a, d, b: np.column_stack([a, -d * b]), 1, A, self._D, b)
            v = next((v for v in linalg._kernel(*linalg._reduce_rows(M))[0].T if v[n] != 0), None)
            return None if v is None else _fractions(v[:n] if v[n] > 0 else -v[:n], abs(int(v[n])))
        e, *_ = np.linalg.lstsq(A, b, rcond=None)
        return e if np.all(_is_zero(A @ e - b, scale=lambda: max_abs(A))) else None


def _twice_killing(a, b):
    """2 tau, as the sum of g[i,j] and g[j,i]: the two sum the same terms in
    different orders, and on floats the sum keeps tau exactly symmetric."""
    g = np.tensordot(a, b, axes=([1, 2], [2, 1]))
    return g + g.T


class MetrizedAlgebra(Algebra):
    def __init__(self, structure, gram, symmetry=COMMUTATIVE, name=""):
        form = SymBilinearForm(as_backend(gram, backend_of(structure)))
        self._init(*_read(structure), form, symmetry, name)

    def _init(self, N, D, form, symmetry=COMMUTATIVE, name=""):
        """The algebra N / D with the metric form, a SymBilinearForm of its kind."""
        super()._init(N, D, symmetry, name)
        self.form = form
        if self.form.dim != self.dim:
            raise ValueError("Gram matrix of dim %d on an algebra of dim %d"
                             % (self.form.dim, self.dim))

    @property
    def gram(self):
        return self.form.gram

    def h(self, x, y):
        return self.form.apply(x, y)


def as_float(alg):
    """The float64 view of an algebra, and of its metric if it has one: a new
    algebra of the entries N / D and G / DG, correctly rounded (linalg._floats),
    with no Fraction made.  A float algebra comes back as an equal copy."""
    N = linalg._floats(alg._N, alg._D)
    if isinstance(alg, MetrizedAlgebra):
        form = SymBilinearForm._from_numerators(linalg._floats(alg.form._G, alg.form._DG), 1)
        return MetrizedAlgebra._from_numerators(N, 1, form, alg.symmetry, alg.name)
    return Algebra._from_numerators(N, 1, alg.symmetry, alg.name)


def _with_metric(alg, form):
    """The algebra alg, metrized by form, a SymBilinearForm of its kind."""
    return MetrizedAlgebra._from_numerators(alg._N, alg._D, form, alg.symmetry, alg.name)


def _first_anisotropic(form):
    """The first i with h(e_i, e_i) != 0; ValueError when there is none."""
    live = np.flatnonzero(~_is_zero(np.diagonal(form._G)))
    if not live.size:
        raise ValueError("metric vanishes on the whole diagonal")
    return int(live[0])


def einstein_fit(alg):
    """Fit tau = kappa h; kappa from the first basis vector with h(e,e) != 0.

    Returns (kappa, residual) where residual is the max-norm of tau - kappa h.
    """
    K, E = alg._killing()
    G, DG = alg.form._G, alg.form._DG
    k = _first_anisotropic(alg.form)
    kappa = _fractions(K[k, k], E) / _fractions(G[k, k], DG)
    return kappa, _fractions(*_residual(K, E, G, DG, kappa))


def _check_same_kind(a, b):
    if a.symmetry != b.symmetry or a.backend != b.backend:
        raise ValueError("operands differ: %s %s and %s %s"
                         % (a.symmetry, a.backend, b.symmetry, b.backend))


def _over(N, D, E):
    """The numerators over E, a multiple of D, of N / D."""
    # one product per entry
    return _contract(lambda x, k: x * k, 1, N, E // D)


def _blocks(ndim, *parts):
    """(N, D) of the block-diagonal join of the arrays N_i / D_i given as
    pairs (N_i, D_i), each n_i x ... x n_i with ndim axes, over the lcm D
    of the D_i."""
    D = math.lcm(*(d for _, d in parts))
    scaled = [_over(X, d, D) for X, d in parts]
    N = np.zeros((sum(len(X) for X in scaled),) * ndim, np.result_type(*scaled))
    at = 0
    for X in scaled:
        N[(slice(at, at + len(X)),) * ndim] = X
        at += len(X)
    return N, D


def direct_sum(a, b):
    _check_same_kind(a, b)
    return MetrizedAlgebra._from_numerators(
        *_blocks(3, (a._N, a._D), (b._N, b._D)),
        SymBilinearForm._from_numerators(*_blocks(2, (a.form._G, a.form._DG),
                                                  (b.form._G, b.form._DG))),
        a.symmetry, name="%s(+)%s" % (a.name, b.name))


def tensor_product(a, b):
    """Tensor product algebra; basis e_i (x) f_j in row-major order."""
    _check_same_kind(a, b)
    n, m = a.dim, b.dim
    # one product per entry
    N = _contract(np.multiply.outer, 1, a._N, b._N)           # (i1,j1,k1,i2,j2,k2)
    N = np.transpose(N, (0, 3, 1, 4, 2, 5)).reshape(n * m, n * m, n * m)
    G = _contract(np.multiply.outer, 1, a.form._G, b.form._G)
    G = np.transpose(G, (0, 2, 1, 3)).reshape(n * m, n * m)
    return MetrizedAlgebra._from_numerators(
        N, a._D * b._D, SymBilinearForm._from_numerators(G, a.form._DG * b.form._DG),
        COMMUTATIVE, name="%s(x)%s" % (a.name, b.name))


def unitalization(alg, c=None, name=""):
    """Adjoin a unit: (x,a)(y,b) = (xy + a y + b x, a b + c(x,y)).

    c, a form of alg's kind, defaults to the metric of alg; the returned
    metric is c + (last coordinates product), which is invariant iff c is.
    """
    if alg.symmetry != COMMUTATIVE:
        raise ValueError("unitalization needs a commutative algebra")
    c = alg.form if c is None else c
    if c.backend != alg.backend:
        raise ValueError("form c is %s on a %s algebra" % (c.backend, alg.backend))
    return _adjoin(alg, 1, 1, c, 1, name or ("unit(%s)" % alg.name))


def _adjoin(alg, t, u, c, w, name):
    """alg plus one basis vector: (x,a)(y,b) = (xy + t(a y + b x), u a b + c(x,y))
    for t = +-1, an integer u and a SymBilinearForm c of alg's kind.  The
    metric is w t c + w (last coordinates product) for an integer w: h(xy, f)
    = h(x, yf) forces the block w t c, and the sum is invariant iff c is."""
    n = alg.dim
    C, DC = c._G, c._DG
    D = math.lcm(alg._D, DC)
    M, CD = _over(alg._N, alg._D, D), _over(C, DC, D)
    act = _over(np.diag([t] * n + [u]), 1, D)       # the adjoined vector's product
    N = np.zeros((n + 1,) * 3, np.result_type(M, CD, act))
    N[:n, :n, :n] = M
    N[:n, :n, n] = CD
    N[n] = N[:, n] = act
    # one product per entry
    form = SymBilinearForm._from_numerators(*_blocks(2, (_contract(np.multiply, 1, C, t * w), DC),
                                                     (np.full((1, 1), w), 1)))
    return MetrizedAlgebra._from_numerators(N, D, form, COMMUTATIVE, name=name)


def intrinsic_unitalization(alg):
    """Unitalization with c = -ric / (dim - 1)."""
    n = alg.dim
    R, E = alg._ricci()
    c = SymBilinearForm._from_numerators(-R, E * (n - 1))
    return unitalization(alg, c, name="iunit(%s)" % alg.name)


def retraction(alg, basis):
    """Orthogonal-projection algebra on the span of the given basis columns.

    Products: pi(x) pi(y) projected back; metric: the restricted Gram
    matrix.  Returns a MetrizedAlgebra in the basis coordinates.  Exact
    algebras compute it on integer numerators.
    """
    B = as_backend(basis, alg.backend)
    out = _retraction(alg, *_numerators(B.T))
    out.embedding = B
    return out


def _retraction(alg, X, DB):
    """retraction(alg, X.T / DB) for the numerators X of a k x n basis as
    rows: the products B B m and the Gram matrix B G B^T as numerator
    contractions, and one multi-column solve for the coordinates."""
    k, n = X.shape
    G, DG = alg.form._G, alg.form._DG
    # B G and (B G) B^T sum n products per entry
    BG = _contract(np.matmul, n, X, G)                             # over DB DG
    M = _contract(lambda bg, b: bg @ b.T, n, BG, X)                # over DB^2 DG
    # P[i,j] = B[i] B[j] sums n^2 products, BG P n products of BG and P
    P = _contract(lambda b, c, m: np.tensordot(b, np.tensordot(c, m, axes=(1, 1)),
                                               axes=(1, 1)),
                  n * n, X, X, alg._N)                             # over DB^2 D
    rhs = _contract(lambda bg, p: bg @ p.reshape(k * k, n).T, n, BG, P)
    # one multi-column solve gives all coordinates: with M^-1 rhs = C / E,
    # they are C / (E DB D), as rhs lies over DB D times M's denominator
    C, E = linalg._solve_numerators(M, rhs)
    return MetrizedAlgebra._from_numerators(C.T.reshape(k, k, k), E * DB * alg._D,
                                            SymBilinearForm._from_numerators(M, DB ** 2 * DG),
                                            alg.symmetry)


def deunitalization(alg):
    """Retract a unital metrized algebra onto the orthocomplement of its unit.

    The metric is rescaled by 1/h(e,e).  The result carries `.embedding`
    (columns spanning the complement) and `.unit`.
    """
    e = alg.find_unit()
    if e is None:
        raise ValueError("algebra has no unit")
    X, DX = _numerators(e)
    gee = _fractions(_contract(lambda x, g, y: x @ g @ y, alg.dim ** 2, X, alg.form._G, X),
                     DX ** 2 * alg.form._DG)                # n^2 products: h(e, e)
    if is_zero(gee):
        raise ValueError("unit is null for the metric")
    comp = linalg.orthogonal_complement(Subspace(X), alg.form)
    # the coordinates do not depend on the metric's scale, so the form is
    # rescaled afterwards, by p / q = 1 / gee with q > 0: one product per entry
    out = _retraction(alg, comp._R, comp._DR)
    p, q = _numerators(1 / gee)
    out.form = SymBilinearForm._from_numerators(_contract(np.multiply, 1, out.form._G, p),
                                                out.form._DG * q)
    out.embedding, out.unit = comp.basis, e
    out.name = "deunit(%s)" % alg.name
    return out


def verify_homomorphism(psi, a, b):
    """Max violation of psi(x y) = psi(x) psi(y) over basis pairs."""
    psi = np.asarray(psi)
    lhs = np.tensordot(a.structure, psi, axes=(2, 1))              # psi(e_i e_j)
    rhs = np.tensordot(psi, np.tensordot(psi, b.structure, axes=(0, 1)),
                       axes=(0, 1))                                # psi(e_i) psi(e_j)
    return max_abs(lhs - rhs)


def verify_isometric(psi, a, b):
    """Max violation over (products, metric pullback)."""
    psi = np.asarray(psi)
    hom = verify_homomorphism(psi, a, b)
    met = max_abs(psi.T @ b.gram @ psi - a.gram)
    return max(hom, met)


def griess_einstein(A, B, gee):
    """Given tau = A g(x,e) g(y,e) + B g(x,y) on a unital algebra with
    |e|^2 = gee, return (dim, kappa) of the deunitalization."""
    A, B, gee = Fraction(A), Fraction(B), Fraction(gee)
    return A * gee ** 2 + B * gee, B * gee - 2


def voa_kappa(c, n):
    """Einstein constant of the deunitalized degree-2 algebra with central
    charge c and dim-of-weight-2-part n."""
    c, n = Fraction(c), Fraction(n)
    return (-5 * c ** 2 + 88 * (n - 2) - 2 * c * (n + 20)) / (4 * (5 * c + 22))


def _commutant(alg):
    """Basis of {T : T L(e_i) = L(e_i) T for all i}, as n x n maps: the
    centroid (Schafer, An Introduction to Nonassociative Algebras, ch. II),
    whose idempotents project onto the direct summands that are ideals.

    T is fixed by its values on generators e_g of A as a module over the
    L(e_i) (Ronyai, J. Symbolic Comput. 9, 1990): T = [W_j T e_g(j)] B^-1
    for words W_j in the L(e_i) and the basis B of the W_j e_g(j), grown
    breadth first from e_0.  The L(e_i) refine the span K of the T with
    T[0, 0] = 0 as K Z, Z the kernel of T -> T L - L T on K, in systems no
    larger than the first, n^2 x (s n - 1) for s generators; an empty K
    proves that the centroid is the scalars.  The basis returned, with I, is
    the whole n^3 x n^2 system's nullspace basis, as (X, E) (_canonical_maps).
    """
    n = alg.dim
    # m, each level of words and each K Z divided by their content: the
    # kernels stay, and float rounding stays relative to 1
    N = linalg._divide_content(alg._N)
    L, I = np.swapaxes(N, 1, 2), np.eye(n, dtype=N.dtype)         # L(e_i) up to a factor
    words, gens, level, g = I[None], [0], I[None], 0
    R, pivots = I, [0]                  # n = 1: B = I
    while len(words) < n:
        B = words[np.arange(len(words)), :, gens]                   # the W_j e_g(j)
        # the level goes on divided by its content; words keeps it as eliminated
        level = linalg._divide_content(level, axis=(1, 2))
        # the candidates C = L(e_i) W e_g of the last level's words: n
        # products per entry; one elimination of [B | C | I] keeps those
        # independent of B, else names the next generator, and holds B^-1
        C = _contract(lambda l, b: np.tensordot(b, l, axes=(1, 2)), n,
                      L, level[:, :, g]).reshape(-1, n)
        R, pivots = linalg._reduce_rows(np.vstack([B, C, I]).T)
        # at most n - len(B): float elimination may find a column of B dependent
        kept = np.array([p - len(B) for p in pivots if len(B) <= p < len(B) + len(C)][:n - len(B)],
                        dtype=int)
        # the words L(e_i) W of the kept C: n products per entry
        level = _contract(np.matmul, n, L[kept % n], level[kept // n])
        if not len(level):              # the orbit closed short of n
            g = next(p for p in pivots if p >= len(B) + len(C)) - len(B) - len(C)
            level = I[None]
        words, gens = np.concatenate([words, level]), gens + [g] * len(level)
    X = linalg._echelon(R, pivots)[0][:, -n:]         # B^-1 up to a factor: B is R's pivots
    # T at e_p of generator g sums W_j[:, p] X[j] over g's words: n products per entry
    orbit = np.equal.outer(gens, sorted(set(gens))).astype(np.int64)[:, :, None, None]
    K = _contract(lambda w, x, o: np.tensordot(o * w[:, None], x, axes=(0, 0)), n, words, X, orbit)
    K, i = linalg._divide_content(K.transpose(0, 2, 1, 3).reshape(-1, n * n)[1:], axis=1), 0
    first = len(K)
    while len(K) and i < n:
        # L(e_j), j = i, ..., as many as keep the system within the first's
        # size; an entry of T L - L T sums 2n products
        j, i = i, min(n, i + first // len(K))
        R = _contract(lambda t, l: t @ np.swapaxes(l, 1, 2) - np.swapaxes(l, 1, 2) @ t, 2 * n,
                      K.reshape(-1, 1, n, n), N[j:i])
        # K becomes Z^T K, Z the kernel on K: len(K) products per entry
        Z, _ = linalg._kernel(*linalg._reduce_rows(R.reshape(len(K), -1).T))
        K = linalg._divide_content(_contract(lambda z, k: z.T @ k, len(K), Z, K), axis=1)
    return _canonical_maps(np.vstack([I.reshape(1, -1), K]), n)


def _canonical_maps(K, n):
    """(X, E): the basis X / E of the span of the rows of K as n x n maps, read
    off the reversed echelon form: unique to the span, as a nullspace basis is."""
    X, E = linalg._echelon(*linalg._reduce_rows(K[:, ::-1]))
    return X[::-1, ::-1].reshape(-1, n, n), E


def _restricted_commutant(X, piece):
    """The commutant of the retraction onto a certified piece, from the stack X
    of its parent's (decompose_ideals): in piece.basis, the pivot rows of T B
    for the T in X's span with T B in B, the kernel of T B's residuals."""
    n, k = piece.ambient_dim, len(X)
    TB = _contract(np.matmul, n, X, piece._R.T)                   # n products per entry
    residuals = piece._residuals(np.swapaxes(TB, 1, 2).reshape(-1, n)).reshape(k, -1)
    Z, _ = linalg._kernel(*linalg._reduce_rows(residuals.T))
    # each entry sums k products of Z and T B
    return _canonical_maps(_contract(lambda z, t: z.T @ t, k, Z,
                                     TB[:, piece.pivots].reshape(k, -1)), piece.dim)


def _certified_split(alg, commutant):
    """First eigenspace S = ker(X - mu I), X in the stack commutant, that is a
    proper nondegenerate ideal with an ideal orthocomplement C; (S, C) or None.

    Every such eigenspace is an ideal, since T(x v) = x (T v); the checks
    below certify the split rather than trust it.
    """
    n = alg.dim
    I = np.eye(n, dtype=np.int64)
    G = alg.form._G
    for X in commutant:
        # T = X / E, so an exact lam is mu / E for an eigenvalue mu of the
        # integer X, and ker(T - lam I) = ker(X - mu I); a float T is X
        if alg.backend == RATIONAL:
            eigenvalues = [int(mu) for mu in linalg.rational_eigenvalues(X)]
        else:
            eigenvalues = linalg.general_real_eigenvalues(X)[0]
        for mu in eigenvalues:
            # two products per entry
            S = Subspace(linalg._kernel(*linalg._reduce_rows(
                _contract(lambda x, m, i: x - m * i, 2, X, mu, I)))[0])
            if not 0 < S.dim < n:
                continue
            # the restricted form R G R^T / (DR^2 DG): n^2 products per entry
            if linalg.inertia(_contract(lambda r, g, s: r @ g @ s.T, n * n, S._R, G, S._R))[2]:
                continue
            comp = linalg.orthogonal_complement(S, alg.form)
            if alg.is_ideal(S) and alg.is_ideal(comp):
                return S, comp
    return None


def decompose_ideals(alg):
    """Certified direct-sum decomposition into ideals, through the commutant.

    Returns (components, verdict): components are (Subspace in original
    coordinates, restricted MetrizedAlgebra) pairs.  The verdict is
    "decomposed" when a certified split was found, "indecomposable" when
    the commutant is one-dimensional (a proof), and "undetermined" when no
    commutant eigenspace passed the certificate.  A degenerate metric
    raises ValueError.  The commutant is computed once, of the input.  A
    piece B and its complement C are ideals with BC = 0, so S + U is in the
    parent's commutant for S in B's and U in C's, and maps B into B: B's is
    {T|B : T in its parent's, T(B) in B}, and dim C(B) + dim C(C) <= k, the
    parent's.  So B's is the scalars when k = 2, and C's when B's is k - 1.
    """
    if not alg.form.is_nondegenerate():
        raise ValueError("metric is degenerate (inertia %s)" % (alg.form.inertia(),))

    def recurse(sub_alg, embed, X):
        pieces = None if len(X) == 1 else _certified_split(sub_alg, X)
        if pieces is None:
            return [(Subspace(embed), sub_alg)]
        parts, left = [], len(X)
        for later, piece in zip((1, 0), pieces):        # pieces after this one
            Y = (np.eye(piece.dim, dtype=np.int64)[None] if left - later == 1
                 else _restricted_commutant(X, piece)[0])
            left -= len(Y)
            # embed @ piece._R.T, a multiple of the piece's basis in the
            # original coordinates, spans it; each entry sums sub_alg.dim products
            parts += recurse(_retraction(sub_alg, piece._R, piece._DR),
                             _contract(np.matmul, sub_alg.dim, embed, piece._R.T), Y)
        return parts

    X = _commutant(alg)[0]
    parts = recurse(alg, np.eye(alg.dim, dtype=np.int64), X)
    if len(parts) > 1:
        verdict = "decomposed"
    else:
        verdict = "indecomposable" if len(X) == 1 else "undetermined"
    return parts, verdict


def to_json(alg):
    n = alg.dim
    # rows i <= j (i < j when anticommutative) of the nonzero entries, each
    # value N / D in lowest terms
    upper = np.triu(np.ones((n, n), dtype=bool), int(alg.symmetry == ANTICOMMUTATIVE))
    nonzero = upper[:, :, None] & (alg._N != 0)
    values = linalg._json_values(alg._N[nonzero], alg._D)
    doc = {
        "name": alg.name,
        "dim": n,
        "symmetry": alg.symmetry,
        "scalar": alg.backend,
        "structure": [[i, j, k, v] for (i, j, k), v in zip(np.argwhere(nonzero).tolist(), values)],
    }
    if isinstance(alg, MetrizedAlgebra):
        gram = linalg._json_values(alg.form._G.ravel(), alg.form._DG)
        doc["metric"] = {"gram": [gram[i * n:(i + 1) * n] for i in range(n)]}
    return doc


def from_json(doc):
    """Algebra of a JSON document; malformed input raises KeyError,
    IndexError, TypeError or ValueError.

    The file is read in columns, not entry by entry.  The structure
    indices are checked as whole tuples (all ints, all in range), each
    distinct string value of the structure and the Gram matrix is parsed
    once, and every entry is mapped to its parse by lookup (_parsed).  A
    value is read as an integer pair (p, q), except a JSON float in a
    float file, which is kept as it is.  An exact file's distinct values
    become integer numerators over the lcm of their q, with no Fraction
    made; a float file's become floats, p / q rounded as float(Fraction(p, q))
    rounds it (ValueError past the float range).  A later entry overwrites
    an earlier one at each position it sets, its transpose included.

    When a whole-column check fails, the entries are scanned in order and
    the first faulty one raises (_first_fault): within an entry, an index
    out of range before a bad value before an index that is not an int,
    and the structure before the Gram matrix.
    """
    n = doc["dim"]
    if type(n) is not int or n < 1:
        raise ValueError("dim %r is not an integer of at least 1" % (n,))
    backend = doc.get("scalar", RATIONAL)
    if backend not in (RATIONAL, FLOAT):
        raise ValueError("unknown scalar kind %r" % (backend,))
    symmetry = doc.get("symmetry", COMMUTATIVE)
    parse = linalg._parse_ratio
    if backend == FLOAT:
        def parse(v):
            p, q = (v, 1) if isinstance(v, float) else linalg._parse_ratio(v)
            try:
                p / q                   # made below, where -v is (-p) / q: 0.0 at p = 0
            except OverflowError:
                raise ValueError("value beyond the float range in %.40r" % (v,)) from None
            return p, q

    rows, metric = doc["structure"], doc.get("metric")
    try:
        I, J, K, V = zip(*rows, strict=True) if len(rows) else ((),) * 4
        ijk = I + J + K
        if set(map(type, ijk)) - {int}:
            raise IndexError("structure index is not an integer")
        ijk = np.fromiter(ijk, np.intp, len(ijk)).reshape(3, -1)
        if ijk.view(np.uintp).max(initial=0) >= n:     # a negative index reads as huge
            raise IndexError("structure index out of range")
        gram = () if metric is None else metric["gram"]
        codes, ratios = _parsed(V + tuple(itertools.chain.from_iterable(gram)), parse)
    except (IndexError, KeyError, OverflowError, TypeError, ValueError):
        _first_fault(rows, n, parse)
        for row in () if metric is None else metric["gram"]:
            for v in row:
                parse(v)
        raise
    m = len(V)
    # each entry writes its transpose, then itself, so that i == j keeps
    # its own value: the flat write positions, and the codes of the values
    # written, where on an anticommutative algebra the transpose's (-p, q)
    # follow the distinct pairs
    at = (ijk.T @ np.array([[n, n * n], [n * n, n], [1, 1]])).ravel()
    writes = codes[:m].repeat(2)
    if symmetry != COMMUTATIVE:
        writes[::2] += len(ratios)
        ratios = ratios + [(-p, q) for p, q in ratios]
    nums, D = _ratio_numerators(ratios) if backend == RATIONAL else (
        np.array([p / q for p, q in ratios], dtype=float), 1)
    # a later write overwrites an earlier one: every write to a position
    # sets the value of the last write there
    last = np.zeros(n ** 3, np.intp)
    np.maximum.at(last, at, np.arange(len(at)))
    N = np.zeros((n, n, n), nums.dtype)
    np.put(N, at, nums[writes[last[at]]])
    name = doc.get("name", "")
    if metric is None:
        return Algebra._from_numerators(N, D, symmetry, name=name)
    if not gram or any(len(row) != len(gram) for row in gram):
        raise ValueError("Gram matrix with rows of lengths %s is not square"
                         % [len(row) for row in gram])
    form = SymBilinearForm._from_numerators(nums[codes[m:]].reshape(len(gram), -1), D)
    alg = MetrizedAlgebra._from_numerators(N, D, form, symmetry, name=name)
    G = form._G
    if not np.all(_is_zero(G - G.T, scale=lambda: max_abs(G))):
        raise ValueError("Gram matrix is not symmetric")
    return alg


def _parsed(values, parse):
    """(codes, ratios) with parse(values[e]) == ratios[codes[e]]: each
    distinct string is parsed once, and every value is looked up.  Only
    strings are keys, as 1 == 1.0 == True and 0.0 == -0.0 would merge
    values a file tells apart; any other value is parsed on its own."""
    keys = values
    distinct = list(dict.fromkeys(keys))
    if set(map(type, distinct)) - {str}:
        keys = [v if type(v) is str else e for e, v in enumerate(values)]
        distinct = list(dict.fromkeys(keys))
    ratios = [parse(k if type(k) is str else values[k]) for k in distinct]
    code = dict(zip(distinct, range(len(distinct))))
    return np.fromiter(map(code.__getitem__, keys), np.intp, len(keys)), ratios


def _first_fault(rows, n, parse):
    """Raise the error of the first faulty structure entry, its checks in
    order: index range, value, integer index type."""
    for i, j, k, v in rows:
        if not 0 <= min(i, j, k) <= max(i, j, k) < n:
            raise IndexError("structure index (%s, %s, %s) out of range for dim %d"
                             % (i, j, k, n))
        parse(v)
        if not type(i) is type(j) is type(k) is int:
            raise IndexError("structure index (%s, %s, %s) is not an integer" % (i, j, k))


def _ratio_numerators(ratios):
    """(N, D): the integer pairs (p, q) as numerators N over the lcm D of
    the q, a 1-D array in the dtype _integers gives it."""
    D = math.lcm(*{q for _, q in ratios})
    return linalg._integers([p * (D // q) for p, q in ratios], (len(ratios),)), D


def load_json(path):
    with open(path) as fh:
        return from_json(json.load(fh))
