"""Catalogue constructions: permutation-invariant families, Hermitian
Jordan algebras, Lie algebras, triples, conformal extensions."""
from fractions import Fraction
import hashlib
import itertools
import random

import numpy as np
import pytest

import tracealg as ta
from tracealg.cli import _dumps
from tracealg.core import (MetrizedAlgebra, tensor_product, to_json, verify_homomorphism,
                           verify_isometric, einstein_fit)
from tracealg.linalg import (FLOAT, RATIONAL, Subspace, SymBilinearForm,
                             max_abs, to_float)

F = Fraction


def ident(n):
    return np.array([[F(int(i == j)) for j in range(n)] for i in range(n)],
                    dtype=object)


# ---------------------------------------------------------------- talg


def test_talg_products():
    al = F(1, 3)
    A = ta.talg(3, al)
    e0, e1 = A.basis_vector(0), A.basis_vector(1)
    assert np.all(A.multiply(e0, e0) == e0)
    assert np.all(A.multiply(e0, e1) == al * (e0 + e1))


def test_talg_exactness_threshold():
    for n in (2, 3, 5):
        assert ta.talg(n, F(-1, n - 1)).is_exact()
        assert not ta.talg(n, F(1, 7)).is_exact()


def test_talg_invariance_exactly_three_values():
    for n in (3, 4):
        special = {F(-1, n - 1), F(0), F(1, 2)}
        for al in sorted(special | {F(1, 3), F(-2), F(2, 5)}):
            A = ta.talg(n, al)
            ok, _ = A.is_invariant(A.killing_form())
            assert ok == (al in special)
            ok, _ = A.is_invariant(A.ricci_form())
            assert ok


RIC_REGIMES_BIG = [  # (sample alpha as function of n, rank, pos, neg)
    (lambda n: F(1), lambda n: (n, 1, n - 1)),
    (lambda n: F(1, 2), lambda n: (1, 1, 0)),
    (lambda n: F(1, 4), lambda n: (n, n, 0)),
    (lambda n: F(0), lambda n: (0, 0, 0)),
    (lambda n: F(-1, 2 * (n - 2)), lambda n: (n, 0, n)),
    (lambda n: F(-1, n - 2), lambda n: (n - 1, 0, n - 1)),
    (lambda n: F(-2, n - 2), lambda n: (n, 1, n - 1)),
]

RIC_REGIMES_N2 = [
    (F(1), (2, 1, 1)),
    (F(1, 2), (1, 1, 0)),
    (F(1, 4), (2, 2, 0)),
    (F(0), (0, 0, 0)),
    # for n = 2, alpha < 0 both eigenvalues a(1-2a) and a are negative
    (F(-3), (2, 0, 2)),
]


def test_talg_ricci_inertia_tables():
    for n in (3, 5):
        for alf, wantf in RIC_REGIMES_BIG:
            A = ta.talg(n, alf(n))
            ric = A.ricci_form()
            p, m, z = ric.inertia()
            rank, pos, neg = wantf(n)
            assert (p + m, p, m) == (rank, pos, neg), (n, alf(n))
    for al, (rank, pos, neg) in RIC_REGIMES_N2:
        ric = ta.talg(2, al).ricci_form()
        p, m, z = ric.inertia()
        assert (p + m, p, m) == (rank, pos, neg), al


def test_talg_idempotents_closed_form():
    n, al = 4, F(1, 3)
    data = ta.talg_idempotents(n, al)
    idems = data["idempotents"] if isinstance(data, dict) else data
    A = ta.talg(n, al)
    for v in idems:
        v = np.asarray(v)
        assert max_abs(A.multiply(v, v) - v) == 0


# ----------------------------------------------------------- simplicial


def test_simplicial_exact_invariant():
    for n in (2, 3, 4, 5):
        E = ta.simplicial(n)
        assert E.is_exact()
        ok, _ = E.is_invariant(E.killing_form())
        assert ok
        assert E.killing_form().is_nondegenerate()


def test_simplicial_constant_sect():
    for n in (2, 3, 4):
        E = ta.simplicial(n)
        ok, kappa, err = ta.constant_sect_check(E)
        assert ok and err == 0
        assert kappa == F(-1, n - 1)


def test_simplicial_gamma_vectors_sum_zero():
    for n in (2, 4):
        gs = ta.gamma_vectors(n)
        assert len(gs) == n + 1
        assert max_abs(sum(gs)) == 0
        E = ta.simplicial(n)
        for g in gs:
            assert max_abs(E.multiply(g, g) - g) == 0


def test_simplicial_idempotent_count():
    for n in range(2, 11):
        assert ta.simplicial_idempotents(n)["count"] == 2 ** n - 1


def test_simplicial_idempotent_certificates():
    for n in (3, 4, 5):
        E = ta.simplicial(n)
        data = ta.simplicial_idempotents(n)
        for v in data["idempotents"]:
            assert max_abs(E.multiply(v, v) - v) == 0
        for z in data["szero_rays"]:
            assert max_abs(E.multiply(z, z)) == 0
        tau = np.asarray(E.killing_form().gram)
        for v in data["idempotents"]:
            nz = [i for i in range(n + 1)]  # norm check via closed form
        # sigma_I norm: |I|(n-1)(n-|I|+1)/(n-2|I|+1)^2
        gs = ta.gamma_vectors(n)
        for size in range(1, n + 1):
            if 2 * size == n + 1:
                continue
            gI = sum(gs[i] for i in range(size))
            sI = F(n - 1, n + 1 - 2 * size) * gI
            got = sI @ tau @ sI
            assert got == F(size * (n - 1) * (n - size + 1),
                            (n - 2 * size + 1) ** 2)


def test_simplicial_reflections_and_group():
    for n in (2, 3, 4, 5):
        E = ta.simplicial(n)
        tau = np.asarray(E.killing_form().gram)
        for i, j in itertools.combinations(range(n + 1), 2):
            R = np.asarray(ta.simplicial_reflection(n, i, j))
            assert verify_homomorphism(R, E, E) == 0
            assert max_abs(R.T @ tau @ R - tau) == 0
    # the reflections of the 3-simplex generate a group of order 24
    mats = [tuple(map(tuple, np.asarray(ta.simplicial_reflection(3, i, j))))
            for i, j in itertools.combinations(range(4), 2)]
    group = set(mats)
    frontier = set(mats)
    while frontier:
        new = set()
        for a in frontier:
            for b in mats:
                c = tuple(map(tuple, np.asarray(a) @ np.asarray(b)))
                if c not in group:
                    new.add(c)
        group |= new
        frontier = new
    assert len(group) == 24


def test_simplicial_triple_product_closed_form():
    n = 4
    E = ta.simplicial(n)
    tau = np.asarray(E.killing_form().gram)
    rng = random.Random(0)
    for _ in range(10):
        x, y, z = (np.array([F(rng.randint(-2, 2)) for _ in range(n)],
                            dtype=object) for _ in range(3))
        lhs = E.associator(x, y, z)
        rhs = F(1, n - 1) * ((y @ tau @ z) * x - (x @ tau @ y) * z)
        assert max_abs(lhs - rhs) == 0


def test_cyclic3():
    C = ta.cyclic3()
    e1, e2, e3 = (C.basis_vector(i) for i in range(3))
    assert max_abs(C.multiply(e1, e1)) == 0
    assert np.all(C.multiply(e1, e2) == e3)
    assert np.all(C.multiply(e2, e3) == e1)
    assert np.all(np.asarray(C.killing_form().gram) == 2 * np.asarray(ident(3)))
    # the file of its structure and Killing metric, as first recorded
    text = _dumps(to_json(C))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "e4998a15ffacd60fa22d222697d105d69a663c9f339475f8c068646b995b8016")


# ------------------------------------------------------ tensor witnesses


def test_tensor_witness_idempotents_and_permutation_products():
    for n in (3, 6):
        T = tensor_product(ta.simplicial(2), ta.simplicial(n))
        w = ta.tensor_witnesses(n)
        a = w["a"]
        for (al, be, ga) in ((0, 1, 2), (1, 2, 0)):
            v = a[(al, be, ga)]
            assert max_abs(T.multiply(v, v) - v) == 0
        # cyclic products inside one orbit
        p = T.multiply(a[(0, 1, 2)], a[(1, 2, 0)])
        assert max_abs(p - a[(2, 0, 1)]) == 0
        p = T.multiply(a[(0, 1, 2)], a[(2, 0, 1)])
        assert max_abs(p - a[(1, 2, 0)]) == 0


def test_tensor_witness_b_relations():
    for n in (4, 6):
        T = tensor_product(ta.simplicial(2), ta.simplicial(n))
        w = ta.tensor_witnesses(n)
        b = [w["b"][(i, 0, 1, 2)] for i in range(3)]
        for i in range(3):
            assert max_abs(T.multiply(b[i], b[i]) - b[i]) == 0
            # indices work cyclically mod 3
            assert max_abs(T.multiply(b[i], b[(i + 1) % 3]) - b[(i + 2) % 3]) == 0


def test_tensor_witness_opposite_orbit_product():
    for n in (3, 4, 6):
        T = tensor_product(ta.simplicial(2), ta.simplicial(n))
        w = ta.tensor_witnesses(n)
        a = w["a"]
        b0 = w["b"][(0, 0, 1, 2)]
        p = T.multiply(a[(0, 1, 2)], a[(0, 2, 1)])
        assert max_abs(p - F(n - 5, n + 1) * b0) == 0


def test_tensor_witness_n5_z_layer():
    """At n = 5 the b elements blow up; the z substitutes satisfy
    a a' = z/2 and all z products vanish."""
    n = 5
    T = tensor_product(ta.simplicial(2), ta.simplicial(n))
    w = ta.tensor_witnesses(n)
    a = w["a"]
    z = [w["z"][(i, 0, 1, 2)] for i in range(3)]
    p = T.multiply(a[(0, 1, 2)], a[(0, 2, 1)])
    assert max_abs(p - F(1, 2) * z[0]) == 0
    for i in range(3):
        for j in range(3):
            assert max_abs(T.multiply(z[i], z[j])) == 0


def test_tensor_witness_recovery():
    for n in (3, 4, 6):
        w = ta.tensor_witnesses(n)
        a, b, e = w["a"], w["b"], w["e"]
        lhs = (F(n + 1, n - 1) * (a[(0, 1, 2)] + a[(0, 2, 1)])
               + F(n - 5, n - 1) * b[(0, 0, 1, 2)])
        assert max_abs(lhs - 3 * e[0][0]) == 0
    w = ta.tensor_witnesses(5)
    lhs = (F(1, 2) * (w["a"][(0, 1, 2)] + w["a"][(0, 2, 1)])
           + F(1, 4) * w["z"][(0, 0, 1, 2)])
    assert max_abs(lhs - w["e"][0][0]) == 0


def test_tensor_witness_n2_collapse():
    w = ta.tensor_witnesses(2)
    assert max_abs(w["a"][(0, 1, 2)] + w["a"][(0, 2, 1)] - w["e"][0][0]) == 0


def test_tensor_disjoint_triple_products():
    n = 6
    T = tensor_product(ta.simplicial(2), ta.simplicial(n))
    w = ta.tensor_witnesses(n)
    a = w["a"]
    assert max_abs(T.multiply(a[(0, 1, 2)], a[(3, 4, 5)])) == 0
    # b against a disjoint a: coefficient -3/(n-5), permuted pattern
    b = [w["b"][(i, 0, 1, 2)] for i in range(3)]
    d, s, m = 3, 4, 5
    pat = [a[(d, m, s)], a[(m, s, d)], a[(s, d, m)]]
    for i in range(3):
        p = T.multiply(b[i], a[(d, s, m)])
        assert max_abs(p - F(-3, n - 5) * pat[i]) == 0


def test_tensor_square_decomposes_into_two_planes():
    A = ta.simplicial(2)
    T = tensor_product(A, A)
    w = ta.tensor_witnesses(2)
    a = w["a"]
    orbit1 = [a[(0, 1, 2)], a[(1, 2, 0)], a[(2, 0, 1)]]
    orbit2 = [a[(0, 2, 1)], a[(2, 1, 0)], a[(1, 0, 2)]]
    for orbit in (orbit1, orbit2):
        assert max_abs(sum(orbit)) == 0  # three idempotents summing to zero
        S = Subspace.from_spanning(orbit)
        assert S.dim == 2
        assert T.is_ideal(S)
    # mutually orthogonal and zero products
    G = np.asarray(T.gram)
    for u in orbit1:
        for v in orbit2:
            assert max_abs(T.multiply(u, v)) == 0
            assert u @ G @ v == 0
    # each plane carries the 2-simplex algebra structure
    for orbit in (orbit1, orbit2):
        for i in range(3):
            u, v = orbit[i], orbit[(i + 1) % 3]
            assert max_abs(T.multiply(u, u) - u) == 0
            assert max_abs(T.multiply(u, v) - orbit[(i + 2) % 3]) == 0


def test_tensor_six_dim_span_is_subalgebra_not_ideal():
    """The span of the nine e(i, col) over three columns is a 6-dim
    subalgebra of the 2-simplex x n-simplex tensor product, but its ideal
    closure is everything (products against outside columns escape it)."""
    n = 6
    T = tensor_product(ta.simplicial(2), ta.simplicial(n))
    w = ta.tensor_witnesses(n)
    e = w["e"]
    gens = [e[i][al] for i in range(3) for al in range(3)]
    S = Subspace.from_spanning(gens)
    assert S.dim == 6
    cols = [S.basis[:, j] for j in range(S.dim)]
    assert all(S.contains(T.multiply(x, y)) for x in cols for y in cols)
    assert not T.is_ideal(S)
    assert T.ideal_closure(gens).dim == T.dim


# -------------------------------------------------------- hermitian


EINSTEIN_TABLE = [(3, 1, F(7, 4)), (4, 1, F(4)), (3, 2, F(5, 2)),
                  (3, 4, F(4)), (3, 8, F(7))]


def test_herm0_einstein_table():
    for n, level, kappa in EINSTEIN_TABLE:
        A = ta.herm0(n, level)
        assert A.is_exact()
        assert einstein_fit(A) == (kappa, 0)
        ok, _ = A.is_invariant(ta.SymBilinearForm(A.gram))
        assert ok


def test_herm0_two_by_two_killing_vanishes():
    for level in (1, 2, 4):
        assert max_abs(np.asarray(ta.herm0(2, level).killing_form().gram)) == 0


def test_herm_jordan_unital():
    A = ta.herm_jordan(3, 2)
    e = A.find_unit()
    assert e is not None
    for i in range(A.dim):
        v = A.basis_vector(i)
        assert max_abs(A.multiply(e, v) - v) == 0


@pytest.mark.parametrize("build, n, sign", [
    (lambda: ta.herm_jordan(3, 1), 3, 1), (lambda: ta.herm_jordan(3, 4), 3, 1),
    (lambda: ta.herm_jordan(3, 2), 3, 1), (lambda: ta.herm0(3, 2), 3, 1),
    (lambda: ta.herm0(3, 4), 3, 1), (lambda: ta.herm0(4, 2), 4, 1),
    (lambda: ta.su_circle(3), 3, -1)], ids=["herm(3,1)", "herm(3,4)", "herm(3,2)",
                                            "herm0(3,2)", "herm0(3,4)", "herm0(4,2)",
                                            "su-circle(3)"])
def test_gram_is_trace_of_matrix_product(build, n, sign):
    """Each Gram entry, read off the Jordan product, equals sign re tr(m_p m_q) / n
    of the ordinary matrix product of the basis matrices."""
    A = build()
    mats = A.matrices
    level = mats[0].shape[2]
    for p, q in itertools.product(range(A.dim), repeat=2):
        want = sign * F(ta.hurwitz.hmat_re_tr(ta.hurwitz.hmat_mul(mats[p], mats[q], level)), n)
        assert A.gram[p, q] == want and isinstance(A.gram[p, q], F)


def test_diagonal_generators():
    for n, level in ((3, 1), (4, 1), (5, 1), (3, 2), (3, 4), (3, 8)):
        A = ta.herm0(n, level)
        gam = [np.asarray(g) for g in ta.diagonal_generators(n, level)]
        G = np.asarray(A.gram)
        assert max_abs(sum(gam)) == 0
        for g in gam:
            assert max_abs(A.multiply(g, g) - g) == 0
            assert g @ G @ g == F(n - 1, (n - 2) ** 2)
        assert gam[0] @ G @ gam[1] == F(-1, (n - 2) ** 2)


def test_diagonal_generators_simplicial_embedding():
    """gamma(1..n-1) span a copy of the (n-1)-simplex algebra, isometric
    up to the factor 1/(n-2)."""
    for n in (3, 4, 5):
        A = ta.herm0(n, 1)
        gam = [np.asarray(g) for g in ta.diagonal_generators(n, 1)]
        E = ta.simplicial(n - 1)
        M = np.stack(gam[:n - 1], axis=1)
        assert verify_homomorphism(M, E, A) == 0
        G = np.asarray(A.gram)
        tau = np.asarray(E.killing_form().gram)
        assert max_abs(M.T @ G @ M - tau * F(1, n - 2)) == 0


def test_su_circle_isomorphic_to_herm0_complex():
    for n in (2, 3):
        A = ta.su_circle(n)
        B = ta.herm0(n, 2)
        I = ident(A.dim)
        assert verify_homomorphism(I, A, B) == 0
        assert verify_isometric(I, A, B) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_su_circle_is_herm0_complex_on_the_su_basis(n):
    """su_circle(n) is built as herm0(n, 2): the same numerators and form,
    named su-circle(n), on the su basis."""
    A, B = ta.su_circle(n), ta.herm0(n, 2)
    assert A.name == "su-circle(%d)" % n and A._D == B._D
    assert np.array_equal(A._N, B._N) and A._N.dtype == B._N.dtype
    assert A.form._DG == B.form._DG and np.array_equal(A.form._G, B.form._G)
    assert np.array_equal(A.matrices, ta.catalog._su_basis(n))


# ------------------------------------------------ loop builds (reference)
# The catalogue forms all k^2 basis products in one contraction and reads
# coordinates off by index; these build one basis pair at a time.


def loop_herm_basis(n, level, traceless=False):
    mats = []
    for i in range(n - 1 if traceless else n):
        m = ta.hurwitz.hmat(n, level)
        m[i, i, 0] = F(1)
        if traceless:
            m[n - 1, n - 1, 0] = F(-1)
        mats.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(level):
                m = ta.hurwitz.hmat(n, level)
                m[i, j, a] = F(1)
                m[j, i, a] = F(1) if a == 0 else F(-1)
                mats.append(m)
    return mats


def loop_herm_coords(M, n, level, traceless=False):
    coords = [M[i, i, 0] for i in range(n - 1 if traceless else n)]
    for i in range(n):
        for j in range(i + 1, n):
            coords.extend(M[i, j, a] for a in range(level))
    return np.array(coords, dtype=object)


def loop_times_j(M, sign=1):
    """x -> jx (sign 1) or x -> -jx (sign -1) on complex entries."""
    out = ta.hurwitz.hmat(M.shape[0], 2)
    for i in range(M.shape[0]):
        for j in range(M.shape[0]):
            a, b = M[i, j]
            out[i, j] = (sign * b, -sign * a)
    return out


def loop_jordan_build(mats, n, level, traceless, su=False):
    """(structure, Gram) of herm / herm0 (or su-circle) one pair at a time."""
    k = len(mats)
    s = np.zeros((k, k, k), dtype=object)
    g = np.zeros((k, k), dtype=object)
    for p in range(k):
        for q in range(p + 1):
            prod = ta.hurwitz.hmat_jordan(mats[p], mats[q], level)
            tr = sum(prod[i, i, 0] for i in range(n))
            if traceless:
                for i in range(n):
                    prod[i, i, 0] -= F(tr, n)
            if su:       # x o y = (j/2)(xy + yx - 2 tr(xy) I / n), read as su(n)
                s[p, q] = s[q, p] = loop_su_coords(loop_times_j(prod, -1), n)
                g[p, q] = g[q, p] = -F(tr, n)
            else:
                s[p, q] = s[q, p] = loop_herm_coords(prod, n, level, traceless)
                g[p, q] = g[q, p] = F(tr, n)
    return s, g


def loop_lie_build(mats, bracket, coords):
    k = len(mats)
    s = np.zeros((k, k, k), dtype=object) + F(0)
    for p in range(k):
        for q in range(p):
            c = coords(bracket(mats[p], mats[q]))
            s[p, q], s[q, p] = c, -c
    return s


def loop_su_coords(M, n):
    return loop_herm_coords(loop_times_j(M, -1), n, 2, traceless=True)


def assert_same_build(A, mats, s, g=None):
    assert np.array_equal(A.matrices, np.array(mats, dtype=object))
    assert np.array_equal(A.structure, s) and all(isinstance(v, F) for v in A.structure.flat)
    if g is not None:
        assert np.array_equal(A.gram, g) and all(isinstance(v, F) for v in A.gram.flat)


@pytest.mark.parametrize("level", [1, 2, 4, 8])
def test_herm_jordan_matches_loop_build(level):
    mats = loop_herm_basis(3, level)
    assert_same_build(ta.herm_jordan(3, level), mats,
                      *loop_jordan_build(mats, 3, level, traceless=False))


@pytest.mark.parametrize("n, level", [(3, 1), (3, 2), (3, 4), (3, 8), (4, 1), (4, 2),
                                      (4, 4)])
def test_herm0_matches_loop_build(n, level):
    mats = loop_herm_basis(n, level, traceless=True)
    assert_same_build(ta.herm0(n, level), mats,
                      *loop_jordan_build(mats, n, level, traceless=True))
    for m in mats:
        assert np.array_equal(ta.herm0_coords(m, n, level),
                              loop_herm_coords(m, n, level, traceless=True))


def test_su_circle_matches_loop_build():
    mats = [loop_times_j(m) for m in loop_herm_basis(3, 2, traceless=True)]
    assert_same_build(ta.su_circle(3), mats,
                      *loop_jordan_build(mats, 3, 2, traceless=True, su=True))


@pytest.mark.parametrize("n", [3, 4])
def test_lie_su_matches_loop_build(n):
    mats = [loop_times_j(m) for m in loop_herm_basis(n, 2, traceless=True)]
    L = ta.lie_su(n)
    assert_same_build(L, mats, loop_lie_build(
        mats, lambda x, y: ta.hurwitz.hmat_commutator(x, y, 2),
        lambda M: loop_su_coords(M, n)))
    assert np.array_equal(L.gram, ta.Algebra(L.structure, "anticommutative").killing_form().gram)


def test_lie_so_matches_loop_build():
    pairs = list(itertools.combinations(range(4), 2))
    mats = []
    for a, b in pairs:
        m = np.zeros((4, 4), dtype=object) + F(0)
        m[a, b], m[b, a] = F(1), F(-1)
        mats.append(m)
    assert_same_build(ta.lie_so(4), mats, loop_lie_build(
        mats, lambda x, y: x @ y - y @ x,
        lambda M: np.array([M[a, b] for a, b in pairs], dtype=object)))


# -------------------------------------------------------------- lie


def test_lie_so3_killing():
    L = ta.lie_so(3)
    assert L.symmetry == "anticommutative"
    assert max_abs(np.asarray(L.killing_form().gram) + 2 * np.asarray(ident(3))) == 0


def test_lie_killing_vs_frobenius():
    from tracealg.hurwitz import frobenius
    for mk, ns, factor in ((ta.lie_so, (3, 4, 5), lambda n: -(n - 2)),
                           (ta.lie_su, (2, 3), lambda n: -2 * n)):
        for n in ns:
            L = mk(n)
            G = np.asarray(L.killing_form().gram)
            for i in range(L.dim):
                for j in range(L.dim):
                    f = frobenius(L.matrices[i], L.matrices[j])
                    assert G[i, j] == factor(n) * f


def test_lie_jacobi():
    rng = random.Random(0)
    for L in (ta.lie_so(4), ta.lie_su(3)):
        for _ in range(5):
            x, y, z = (np.array([F(rng.randint(-2, 2)) for _ in range(L.dim)],
                                dtype=object) for _ in range(3))
            s = (L.multiply(L.multiply(x, y), z)
                 + L.multiply(L.multiply(y, z), x)
                 + L.multiply(L.multiply(z, x), y))
            assert max_abs(s) == 0


# ----------------------------------------------------------- triples


def test_triple_cubic_rank_one():
    R1 = MetrizedAlgebra(np.full((1, 1, 1), F(1)), np.full((1, 1), F(1)),
                         "commutative")
    T = ta.triple(R1)
    form = SymBilinearForm(T.gram)
    x = np.array([F(2), F(3), F(5)], dtype=object)
    assert T.cubic_value(form, x) == F(2 * 3 * 5, 4)


def permanent3(M):
    tot = F(0)
    for p in itertools.permutations(range(3)):
        prod = F(1)
        for i in range(3):
            prod *= M[i][p[i]]
        tot += prod
    return tot


def det3(M):
    return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))


def test_triple_cubic_permanent():
    T = ta.triple(ta.cyclic3())
    form = SymBilinearForm(T.gram)
    rng = random.Random(3)
    for _ in range(6):
        M = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        x = np.array([M[i][j] for i in range(3) for j in range(3)],
                     dtype=object)
        assert 2 * T.cubic_value(form, x) == permanent3(M)


def test_nahm_cubic_determinant():
    N = ta.nahm(ta.lie_so(3))
    form = SymBilinearForm(N.gram)
    rng = random.Random(4)
    for _ in range(6):
        M = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        x = np.array([M[i][j] for i in range(3) for j in range(3)],
                     dtype=object)
        assert 2 * N.cubic_value(form, x) == det3(M)


def test_nahm_x0_idempotent_spectrum():
    N = ta.nahm(ta.lie_so(3))
    emb = ta.triple_embeddings(3)
    nu = emb["nu"]
    e = [np.array([F(int(j == i)) for j in range(3)], dtype=object)
         for i in range(3)]
    X0 = sum(np.asarray(nu[i]) @ e[i] for i in range(3))
    assert max_abs(N.multiply(X0, X0) - X0) == 0
    vals = ta.orth_spectrum(N, np.asarray(to_float(X0), dtype=float))
    vals = np.sort(np.asarray(vals[0] if isinstance(vals, tuple) else vals))
    assert np.abs(vals[:5] + 0.5).max() < 1e-9
    assert np.abs(vals[5:] - 0.5).max() < 1e-9


def test_nahm_sect_witnesses_both_signs():
    N = ta.nahm(ta.lie_so(3))
    emb = ta.triple_embeddings(3)
    nu = emb["nu"]
    a = np.array([F(1), F(0), F(0)], dtype=object)
    b = np.array([F(0), F(1), F(0)], dtype=object)
    x = np.asarray(nu[0]) @ a + np.asarray(nu[1]) @ b
    y = np.asarray(nu[0]) @ b - np.asarray(nu[1]) @ a
    z = np.asarray(nu[0]) @ a - np.asarray(nu[1]) @ b
    assert ta.isect(N, x, y) == F(1, 4)
    assert ta.isect(N, x, z) == F(-1, 4)


def random_metrized(rng, n):
    from tracealg.linalg import inv
    C = np.zeros((n, n, n), dtype=object) + F(0)
    for i in range(n):
        for j in range(i + 1):
            for k in range(j + 1):
                v = F(rng.randint(-3, 3), rng.randint(1, 3))
                for p in set(itertools.permutations((i, j, k))):
                    C[p] = v
    while True:
        G = np.zeros((n, n), dtype=object) + F(0)
        for i in range(n):
            for j in range(i + 1):
                G[i, j] = G[j, i] = F(rng.randint(-3, 3), rng.randint(1, 3))
        try:
            Gi = inv(G)
            break
        except Exception:
            continue
    m = np.einsum("ijl,kl->ijk", C, Gi)
    return MetrizedAlgebra(m, G, "commutative")


def test_triple_embedding_identities():
    rng = random.Random(5)
    for _ in range(4):
        n = rng.randint(2, 3)
        A = random_metrized(rng, n)
        T = ta.triple(A)
        emb = ta.triple_embeddings(n)
        G, Nb, Np, dg = emb["gamma"], emb["nabla"], emb["nabla_pair"], emb["diag"]
        for _ in range(3):
            x = np.array([F(rng.randint(-2, 2)) for _ in range(n)], dtype=object)
            y = np.array([F(rng.randint(-2, 2)) for _ in range(n)], dtype=object)
            xy = A.multiply(x, y)
            for i in (1, 2, 3):
                assert max_abs(T.multiply(G[i] @ x, G[i] @ y) - G[i] @ xy) == 0
                assert max_abs(Nb[i] @ xy + T.multiply(Nb[i] @ x, Nb[i] @ y)
                               + dg @ xy) == 0
                assert max_abs(T.multiply(dg @ x, Nb[i] @ y)
                               + F(1, 2) * (Nb[i] @ xy)) == 0
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    if i == j:
                        continue
                    assert max_abs(T.multiply(G[i] @ x, G[j] @ y)
                                   + F(1, 2) * ((G[i] + G[j]) @ xy)) == 0
                    k = 6 - i - j
                    assert max_abs(Nb[i] @ xy + T.multiply(Nb[j] @ x, Nb[k] @ y)
                                   - F(1, 2) * (dg @ xy)) == 0
                    if (j, k) in Np:
                        assert max_abs(T.multiply(G[i] @ x, Np[(j, k)] @ y)
                                       + F(1, 2) * (Np[(j, k)] @ xy)) == 0


def test_s4_transpositions_are_isometric_automorphisms():
    rng = random.Random(6)
    for _ in range(3):
        n = rng.randint(2, 3)
        A = random_metrized(rng, n)
        T = ta.triple(A)
        G = np.asarray(T.gram)
        mats = ta.s4_transposition_matrices(n)
        assert len(mats) == 6
        for S in mats.values():
            S = np.asarray(S)
            assert verify_homomorphism(S, T, T) == 0
            assert max_abs(S.T @ G @ S - G) == 0
        # transpositions are involutions
        for S in mats.values():
            S = np.asarray(S)
            assert max_abs(S @ S - np.asarray(ident(3 * n))) == 0


# ------------------------------------------------- conformal extension


def test_conformal_extension_basics():
    for n in (2, 3):
        E = ta.simplicial(n)
        C = ta.conformal_extension(E)
        assert C.dim == n + 1
        assert max_abs(C.trace_linear()) <= 1e-12
        tau = np.asarray(to_float(np.asarray(E.killing_form().gram)))
        tb = np.asarray(to_float(np.asarray(C.killing_form().gram)))
        want = np.zeros((n + 1, n + 1))
        want[:n, :n] = tau
        want[n, n] = 1.0
        assert np.abs(tb - want).max() < 1e-9


def test_conformal_extension_canonical_idempotent():
    for n in (2, 3):
        C = ta.conformal_extension(ta.simplicial(n))
        e = np.asarray(C.canonical_idempotent, dtype=float)
        assert np.abs(C.multiply(e, e) - e).max() < 1e-12
        tb = np.asarray(to_float(np.asarray(C.killing_form().gram)))
        assert abs(e @ tb @ e - (n + 1) / n) < 1e-10
        Le = np.asarray(to_float(np.asarray(C.left_mult_matrix(e))))
        assert np.abs(Le[:n, :n] + np.eye(n) / n).max() < 1e-12
        vals = ta.orth_spectrum(C, e)
        vals = np.asarray(vals[0] if isinstance(vals, tuple) else vals)
        assert np.abs(vals + 1.0 / n).max() < 1e-9


def test_conformal_extension_omega_vanishes_over_simplicial():
    for n in (2, 3):
        C = ta.conformal_extension(ta.simplicial(n))
        M = MetrizedAlgebra(C.structure, C.killing_form().gram, "commutative")
        om = ta.conformal_tensor(M)
        assert np.abs(np.asarray(om)).max() < 1e-9


def confext_scaling(n):
    """Unit-leading-coefficient normalization factor for idempotent forms."""
    return np.sqrt(n * (n + 1) / ((n + 2) * (n - 1)))


def test_conformal_extension_idempotent_forms_and_spectrum():
    for n in (3, 4):
        E = ta.simplicial(n)
        C = ta.conformal_extension(E)
        tau = np.asarray(to_float(np.asarray(E.killing_form().gram)))
        tb = np.asarray(to_float(np.asarray(C.killing_form().gram)))
        cn = 1 / np.sqrt((n + 2) * (n - 1))
        beta = confext_scaling(n)
        e = np.zeros(n)
        e[0] = 1.0  # minimal idempotent, squared norm n/(n-1)
        E2 = e @ tau @ e
        sm, sp, phim, phip = ta.confext_idempotent_data(n, E2)
        for s, phi in ((sm, phim), (sp, phip)):
            eb = beta * np.concatenate(((1 + s) * e / s, [1 / (2 * cn * s)]))
            assert np.abs(C.multiply(eb, eb) - eb).max() < 1e-12
            assert abs(eb @ tb @ eb - phi) < 1e-8
            vals = ta.orth_spectrum(C, eb)
            vals = np.sort(np.asarray(vals[0] if isinstance(vals, tuple)
                                      else vals))
            mapped = (2 * (s + 1) * (-1.0 / (n - 1)) - 1) / (2 * s)
            extra = (n + 1) / (2 * s)  # (n+2)/(2s) does not occur
            want = np.sort(np.append(np.full(n - 1, mapped), extra))
            assert np.abs(vals - want).max() < 1e-9


def test_conformal_extension_szero_lift():
    n = 3
    E = ta.simplicial(n)
    C = ta.conformal_extension(E)
    tau = np.asarray(to_float(np.asarray(E.killing_form().gram)))
    tb = np.asarray(to_float(np.asarray(C.killing_form().gram)))
    cn = 1 / np.sqrt((n + 2) * (n - 1))
    beta = confext_scaling(n)
    gs = [np.asarray(to_float(np.asarray(g))) for g in ta.gamma_vectors(n)]
    z = gs[0] + gs[1]
    assert np.abs(E.multiply(z, z)).max() < 1e-12
    zn = z / np.sqrt(z @ tau @ z)
    for pm in (1, -1):
        zb = beta * np.concatenate((pm * np.sqrt(n + 2) / (2 * cn) * zn,
                                    [-1 / (2 * cn)]))
        assert np.abs(C.multiply(zb, zb) - zb).max() < 1e-12
        assert abs(zb @ tb @ zb - n * (n + 1) * (n + 3) / 4) < 1e-8


def test_conformal_extension_ray_count():
    for n in (2, 3):
        C = ta.conformal_extension(ta.simplicial(n))
        M = MetrizedAlgebra(C.structure, C.killing_form().gram, "commutative")
        idems = ta.newton_idempotents(M, 1500, seed=5)
        szs = ta.square_zero_rays(M, 400, seed=5)
        assert len(idems) + len(szs) == 2 ** (n + 1) - 1


# ------------------------------------------------------------- naming


def test_build_by_name():
    assert ta.build_by_name("ealg", n=3).dim == 3
    assert ta.build_by_name("talg", n=3, alpha=F(1, 2)).dim == 3
    assert ta.build_by_name("herm0", n=3, level=2).dim == 8
    assert ta.build_by_name("lie-so", n=3).dim == 3
    with pytest.raises((KeyError, ValueError)):
        ta.build_by_name("nope")
