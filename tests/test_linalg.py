"""Exact/float linear algebra helpers."""
from fractions import Fraction
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracealg
from tracealg import linalg
from tracealg.linalg import (FLOAT, RATIONAL, Subspace, SymBilinearForm, _echelon,
                             _fractions, _integers, _numerators, _reduce_integer_rows,
                             _reduce_rows, inertia,
                             inv, nullspace, orthogonal_complement, parse_scalar,
                             rational_eigenvalues, solve, to_float, zeros)

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def frac_matrix(rows):
    return np.array([[Fraction(v) for v in r] for r in rows], dtype=object)


def test_parse_scalar():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-2") == Fraction(-2)
    assert parse_scalar(Fraction(1, 3)) == Fraction(1, 3)
    assert parse_scalar("2.5e-3") == Fraction(1, 400)
    assert parse_scalar("1e5") == parse_scalar("1E+5") == 100000


def test_parse_scalar_refuses_a_huge_exponent():
    """A decimal exponent above the int-string digit limit is refused at
    once, as an integer string of that many digits is; Fraction would
    build 10**exponent.  Within the limit, it is read exactly."""
    limit = sys.get_int_max_str_digits()
    for s in ("1e10000000", "1e100000000", "-3.5E-100000000", "1e%d" % (limit + 1)):
        with pytest.raises(ValueError, match="exponent"):
            parse_scalar(s)
    assert parse_scalar("1e%d" % limit) == 10 ** limit
    with pytest.raises(ValueError):
        parse_scalar("e5")


def test_lowest_terms_keeps_an_int64_array_in_lowest_terms():
    """An int64 array already in lowest terms is returned, not copied;
    anything else comes back as a new array."""
    N = np.array([[2, 3], [0, -5]], dtype=np.int64)
    assert linalg._lowest_terms(N, 7)[0] is N
    M, D = linalg._lowest_terms(2 * N, 14)
    assert M is not N and np.array_equal(M, N) and D == 7
    assert linalg._lowest_terms(N.astype(object), 7)[0].dtype == np.int64


def test_solve_exact():
    A = frac_matrix([[2, 1], [1, 3]])
    b = np.array([Fraction(1), Fraction(0)], dtype=object)
    x = solve(A, b)
    assert np.all(A @ x == b)


def test_inv_exact_roundtrip():
    A = frac_matrix([[1, 2, 0], [0, 1, 4], [1, 0, 1]])
    Ai = inv(A)
    assert np.all(A @ Ai == np.eye(3, dtype=object) + Fraction(0))


def test_solve_rejects_a_matrix_that_is_not_square():
    """As numpy does for floats: a wide exact A is not solved as its
    leading square block with the next column taken for the right side."""
    for A in (frac_matrix([[1, 0, 1], [0, 1, 1]]), frac_matrix([[1, 0], [0, 1], [1, 1]])):
        for M in (A, to_float(A)):
            with pytest.raises(np.linalg.LinAlgError):
                solve(M, M[:, 0])


def test_float_inv_equals_numpy_inv_bit_for_bit():
    """inv is a solve against the identity; on floats that is the LAPACK
    call numpy's inv makes, so every bit agrees."""
    for n in range(1, 30):
        for e in range(-5, 5):
            A = np.random.default_rng(10 * n + e + 5).standard_normal((n, n)) * 10.0 ** e
            X = inv(A)
            assert X.dtype == float
            assert np.array_equal(X.view(np.int64), np.linalg.inv(A).view(np.int64))


def test_inv_singular_raises():
    A = frac_matrix([[1, 2], [2, 4]])
    with pytest.raises(Exception):
        inv(A)


def test_inertia_known():
    G = frac_matrix([[1, 0, 0], [0, -2, 0], [0, 0, 0]])
    assert inertia(G) == (1, 1, 1)
    # zero diagonal needs the hyperbolic-pair step
    H = frac_matrix([[0, 1], [1, 0]])
    assert inertia(H) == (1, 1, 0)


def test_inertia_float_agrees():
    G = frac_matrix([[3, 1, 0], [1, -1, 2], [0, 2, 5]])
    assert inertia(G) == inertia(to_float(G))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(fracs, min_size=3, max_size=3), min_size=3, max_size=3))
def test_inertia_congruence_invariant(rows):
    """Sylvester: inertia is invariant under congruence by invertible S."""
    G = frac_matrix(rows)
    G = (G + G.T)
    S = frac_matrix([[1, 2, 0], [0, 1, -1], [3, 0, 1]])
    assert inertia(G) == inertia(S.T @ G @ S)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(fracs, min_size=2, max_size=2), min_size=2, max_size=2),
       st.lists(fracs, min_size=2, max_size=2))
def test_solve_matches_substitution(rows, rhs):
    A = frac_matrix(rows)
    b = np.array([Fraction(v) for v in rhs], dtype=object)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if det == 0:
        return
    x = solve(A, b)
    assert np.all(A @ x == b)


def test_subspace_echelon_and_contains():
    v1 = np.array([Fraction(1), Fraction(2), Fraction(0)], dtype=object)
    v2 = np.array([Fraction(0), Fraction(1), Fraction(1)], dtype=object)
    S = Subspace.from_spanning([v1, v2, v1 + v2])
    assert S.dim == 2
    assert S.contains(3 * v1 - v2)
    assert not S.contains(np.array([Fraction(0), Fraction(0), Fraction(1)],
                                   dtype=object))
    # an integer array is reduced as floats, not truncated in place
    assert Subspace(np.array([[2], [1]])).contains(np.array([1.0, 0.5]))


def test_subspace_equals():
    for dtype in (object, float):
        v1 = np.array([1, 0, Fraction(1, 3)], dtype)
        v2 = np.array([1, 1, Fraction(-2, 7)], dtype)
        A = Subspace.from_spanning([v1, v2])
        B = Subspace.from_spanning([v2, v1 - v2, 3 * v1 + v2])
        assert A.equals(B) and B.equals(A)
        assert not A.equals(Subspace.from_spanning([v1, v2 + np.array([0, 0, 1], dtype)]))
        assert not A.equals(Subspace.from_spanning([v1]))


def test_nullspace():
    A = frac_matrix([[1, 2, 3], [2, 4, 6]])
    N = nullspace(A)
    assert N.shape[1] == 2
    assert np.all(A @ N == 0)
    N = nullspace(np.array([[2, 1]]))
    assert np.allclose(N[:, 0], [-0.5, 1])


def test_integer_arrays_are_exact():
    """An integer array is exact, as an array of Fractions is: entries
    near 2**53, which float64 rounds, give exact kernels, solutions and
    memberships."""
    X = 2 ** 53
    M = np.array([[X + 1, X]])
    assert linalg.backend_of(M) == RATIONAL
    K = nullspace(M)
    assert list(K[:, 0]) == [Fraction(-X, X + 1), 1]
    assert np.all(M.astype(object) @ K == 0)
    A = np.array([[X + 1, X], [X, X - 1]])                 # determinant -1
    assert list(solve(A, np.array([1, 0]))) == [1 - X, X]
    assert inv(A).tolist() == [[1 - X, X], [X, -1 - X]]
    S = Subspace(np.array([[X + 1], [X]]))
    assert S.contains(np.array([[X + 1, X], [2 * X + 2, 2 * X]]))
    assert not S.contains(np.array([X, X - 1]))


def test_exact_subspace_zero_tests_float_vectors():
    """A float vector or subspace is compared with an exact subspace as
    floats, within EPS0, as with a float one: 0.1 is not a third of 0.3 in
    float64."""
    F = Subspace(np.array([[0.3], [0.1]]))
    for basis in (np.array([[3], [1]]), frac_matrix([[3], [1]]), np.array([[3.0], [1.0]])):
        S = Subspace(basis)
        assert S.contains(np.array([0.3, 0.1]))
        assert not S.contains(np.array([0.3, 0.2]))
        assert S.equals(F) and F.equals(S)
        assert not S.equals(Subspace(np.array([[0.3], [0.2]])))


def test_orthogonal_complement():
    form = SymBilinearForm(frac_matrix([[1, 0], [0, -1]]))
    v = np.array([Fraction(1), Fraction(1)], dtype=object)  # isotropic vector
    S = Subspace.from_spanning([v])
    C = orthogonal_complement(S, form)
    # v is isotropic so it lies in its own complement
    assert C.dim == 1 and C.contains(v)
    # span(e_2) lies in the radical of diag(1, 0): its complement is everything
    with pytest.raises(ValueError, match="degenerate"):
        orthogonal_complement(Subspace.from_spanning([np.array([Fraction(0), Fraction(1)])]),
                              SymBilinearForm(frac_matrix([[1, 0], [0, 0]])))


def test_sym_bilinear_form():
    G = frac_matrix([[2, 1], [1, 2]])
    f = SymBilinearForm(G)
    x = np.array([Fraction(1), Fraction(-1)], dtype=object)
    assert f.norm2(x) == 2
    assert f.inertia() == (2, 0, 0)
    assert f.is_nondegenerate()
    assert f.rank() == 2


def test_sym_bilinear_form_makes_its_gram_view_when_read():
    """The public constructor keeps only the numerators: the read-only Gram
    view is made from them on first read and equals the input."""
    for g in (frac_matrix([[2, Fraction(1, 3)], [Fraction(1, 3), -1]]),
              [[2, 1], [1, 0]], np.array([[0.5, -2.0], [-2.0, 1e-3]])):
        f = SymBilinearForm(g)
        assert f._gram is None
        assert np.array_equal(f.gram, np.asarray(g)) and f.gram is f.gram
        assert f.gram.dtype == (float if f.backend == FLOAT else object)
        with pytest.raises(ValueError):
            f.gram[0, 0] = 7
    for g in (Fraction(1, 2), 1.5, [1, 2], [[1, 2]], np.zeros((2, 3))):
        with pytest.raises(ValueError, match=r"Gram matrix of shape \(.*\) is not square"):
            SymBilinearForm(g)


def test_subspace_canonical_form():
    """Two spanning sets of one exact subspace, B and B X with X invertible
    (and B X with a dependent column appended), give equal rows and pivots."""
    B = frac_matrix([[1, 2, 0], [Fraction(1, 2), 1, 3], [0, 0, 1], [2, 4, -1], [1, -1, 0]])
    X = frac_matrix([[2, 1, 0], [0, Fraction(1, 3), 1], [1, 0, -1]])
    assert inertia(X.T @ X)[2] == 0                         # X is invertible
    S, T = Subspace(B), Subspace(B @ X)
    U = Subspace(np.column_stack([B @ X, B[:, 0] - B[:, 2]]))
    assert S.dim == 3 and S.pivots == T.pivots == U.pivots
    assert np.array_equal(S.rows, T.rows) and np.array_equal(S.rows, U.rows)
    assert np.array_equal(S.basis, S.rows.T) and not S.basis.flags.writeable
    # reduced: the pivot columns hold the identity
    assert np.array_equal(S.rows[:, S.pivots], np.eye(3, dtype=int))


def test_subspace_rows_are_read_only_and_made_once():
    """`rows`, the Fractions of R / DR, is made on first read, as an
    algebra's `structure` is; an exact ideal closure never reads it."""
    S = Subspace(frac_matrix([[1, 2], [Fraction(1, 2), 1], [0, 3]]))
    assert S._rows is None
    rows = S.rows
    assert S.rows is rows and np.array_equal(rows, S._R / S._DR)
    with pytest.raises(AttributeError):
        S.rows = rows
    with pytest.raises(ValueError):
        rows[0, 0] = Fraction(1)
    A = tracealg.herm0(3, 2)
    assert A.ideal_closure([A.basis_vector(0)])._rows is None


def test_float_reduction_at_large_scale():
    """Float elimination clears every row of a pivot column, also where the
    normalised pivot rows hold entries below tol times the matrix scale."""
    M = np.array([[1e8, 2e7, 3e8], [2e8, 3e7, 1e8]])
    N = nullspace(M)
    assert N.shape == (3, 1)
    assert np.allclose(N[:, 0] / N[2, 0], [7, -50, 1], rtol=1e-12)
    assert np.allclose(M @ N, 0, atol=1e-9 * 1e8)
    rng = np.random.default_rng(7)
    for _ in range(50):
        A = rng.standard_normal((3, 5)) * 1e8
        assert np.allclose(A @ nullspace(A), 0, atol=1e-6 * 1e8)
        S = Subspace(A.T)
        assert S.dim == 3
        assert S.contains(rng.standard_normal((4, 3)) @ A)


def test_zero_subspace():
    for dtype in (object, float):
        S = Subspace(np.zeros((3, 0), dtype))
        assert S.dim == 0 and S.ambient_dim == 3 and S.basis.shape == (3, 0)
        assert S.contains(np.zeros(3, dtype)) and S.contains(np.zeros((2, 3), dtype))
        assert not S.contains(np.array([0, 1, 0], dtype))
        assert S.equals(Subspace.from_spanning([np.zeros(3, dtype)]))


def test_contains_stack_with_one_vector_outside():
    B = frac_matrix([[1, 0], [2, 1], [0, 1], [1, 1]])
    S = Subspace(B)
    inside = (B @ frac_matrix([[1, 2, 0], [-1, 1, 3]])).T       # three rows in S
    outside = np.array([Fraction(0), Fraction(0), Fraction(1), Fraction(0)], dtype=object)
    assert S.contains(inside)
    assert not S.contains(np.vstack([inside[:2], outside, inside[2:]]))
    Sf = Subspace(to_float(B))
    assert Sf.contains(to_float(inside))
    assert not Sf.contains(to_float(np.vstack([inside, outside])))


# -- differential test: fraction-free elimination against Fraction Gauss-Jordan --

def ref_reduce_rows(M):
    """Reduced row echelon form by Gauss-Jordan on Fractions: the exact
    path of _reduce_rows before it ran on integer rows.  (rows, pivots)."""
    M = np.array(M, dtype=object)
    m, n = M.shape
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        nonzero = M[:, col] != 0
        live = row + np.flatnonzero(nonzero[row:])
        if not live.size:
            continue
        piv = live[0]
        if piv != row:
            M[[row, piv]] = M[[piv, row]]
            nonzero[[row, piv]] = nonzero[[piv, row]]
        support = np.flatnonzero(M[row] != 0)
        M[row, support] = M[row, support] / M[row, col]
        for i in np.flatnonzero(nonzero):
            if i != row:
                M[i, support] = M[i, support] - M[i, col] * M[row, support]
        pivots.append(col)
    return M[:len(pivots)], pivots


def ref_nullspace(M):
    """Basis (columns) of the right nullspace, read off the Fraction reduced
    row echelon form: the column of free variable j is 1 at j and -R[:, j]
    at the pivots."""
    R, pivots = ref_reduce_rows(M)
    n = R.shape[1]
    free = [j for j in range(n) if j not in pivots]
    basis = zeros((n, len(free)))
    for idx, j in enumerate(free):
        basis[j, idx] += 1
        basis[pivots, idx] = -R[:, j]
    return basis


def rref(M):
    """The reduced row echelon form of M, as Fractions, and its pivots, from
    _reduce_rows and _echelon."""
    R, pivots = _reduce_rows(M)
    return _fractions(*_echelon(R, pivots)), pivots


def ref_row_numerators(M):
    """Each row of a Fraction matrix times the lcm of its denominators, as
    integers: the per-row scaling _reduce_rows applied before it read M as
    numerators over one common denominator."""
    nums = []
    for row in M.tolist():
        D = math.lcm(*(x.denominator for x in row))
        nums += [x.numerator * (D // x.denominator) for x in row]
    return _integers(nums, M.shape)


def assert_reduces_like_fractions(M):
    """Fractions or integers M reduce as Fraction Gauss-Jordan reduces them;
    every row elimination returns is primitive, and M is left as it is."""
    before = M.copy()
    R, pivots = rref(M)
    # tolist: Fractions of int64 entries would keep int64 numerators, which wrap
    ref, ref_pivots = ref_reduce_rows(frac_matrix(M.tolist()))
    assert pivots == ref_pivots and R.shape == ref.shape
    assert all(isinstance(x, Fraction) for x in R.flat)
    assert np.array_equal(R, ref)
    assert np.array_equal(nullspace(M), ref_nullspace(frac_matrix(M.tolist())))
    # positive row scaling changes no row that elimination returns
    rows, row_pivots = _reduce_rows(M)
    numerators = ref_row_numerators(M)
    ref_rows, ref_row_pivots = _reduce_integer_rows(numerators)
    assert row_pivots == ref_row_pivots and np.array_equal(rows, ref_rows)
    assert all(math.gcd(*row) == 1 for row in rows.tolist())
    assert np.array_equal(M, before)
    assert np.array_equal(numerators, ref_row_numerators(M))


# far above 2**62, so that even the scaled rows are Python ints
HUGE = Fraction(2 ** 70 + 1, 3 ** 41)


@st.composite
def exact_matrices(draw):
    """Matrices of up to 6 x 7 Fractions: dense or of a chosen lower rank,
    with zero rows and columns, duplicated (scaled) rows, and numerators
    above 2**62 in some rows or in all."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))

    def block(rows, cols):
        return frac_matrix(draw(st.lists(st.lists(fracs, min_size=cols, max_size=cols),
                                         min_size=rows, max_size=rows)))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n)))
        M = block(m, k) @ block(k, n) if k else frac_matrix([[0] * n] * m)
    else:
        M = block(m, n)
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        M[i] = 0 * M[i]
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        M[:, j] = 0 * M[:, j]
    if m > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        M[j] = M[i] * draw(st.sampled_from([Fraction(1), Fraction(-3, 2)]))
    scale = draw(st.sampled_from(["none", "rows", "all"]))
    if scale == "all":
        M = M * HUGE
    elif scale == "rows":
        for i in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m)):
            M[i] = M[i] * HUGE
    return M


@st.composite
def integer_matrices(draw):
    """int64 matrices of up to 6 x 7 small entries, some rows of which are
    multiplied by 6 or -4, so that they are not primitive."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    M = np.array(draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=np.int64)
    for i in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        M[i] *= draw(st.sampled_from([6, -4]))
    return M


@settings(max_examples=100, deadline=None)
@given(st.one_of(exact_matrices(), integer_matrices()))
def test_integer_elimination_equals_fraction_gauss_jordan(M):
    assert_reduces_like_fractions(M)


@settings(max_examples=100, deadline=None)
@given(exact_matrices())
def test_subspace_holds_the_numerators_of_its_reduced_form(M):
    """A subspace's state is the reduced row echelon form of its spanning
    rows as integer numerators over one denominator, in lowest terms."""
    S = Subspace(M.T)
    ref, ref_pivots = ref_reduce_rows(M)
    R, DR = _numerators(ref)
    assert S.pivots == ref_pivots and S._DR == DR
    assert S._R.dtype == R.dtype and np.array_equal(S._R, R)
    assert np.array_equal(S.rows, ref) and not S.rows.flags.writeable


def test_elimination_edge_cases():
    zero = frac_matrix([[0, 0, 0], [0, 0, 0]])
    R, pivots = rref(zero)
    assert R.shape == (0, 3) and pivots == []
    assert_reduces_like_fractions(zero)
    assert_reduces_like_fractions(frac_matrix([[0, 2, 4], [0, 1, 2], [0, 3, 7]]))
    assert_reduces_like_fractions(frac_matrix([[Fraction(1, 3), 1], [Fraction(1, 3), 1]]))
    assert_reduces_like_fractions(frac_matrix([[2 ** 80, 3], [5, 2 ** 90 + 1]]))
    # the first step runs on Python ints and leaves small rows, whose later
    # steps run on int64 again
    X = 2 ** 70
    assert_reduces_like_fractions(frac_matrix([[1, 2, 3], [0, 1, 4],
                                               [X, 2 * X + 1, 3 * X + 5]]))
    # thirty steps on dense rows of Python ints, and on int64 rows whose
    # first step passes 2**62: each step's bound is formed from the rows it
    # updates, so the work follows the size of the entries, not the number
    # of steps taken since the rows left int64
    rng = random.Random(5)
    big = frac_matrix([[Fraction(rng.choice((-1, 1)) * rng.randrange(2 ** 62, 2 ** 64),
                                 rng.randrange(1, 2 ** 10)) for _ in range(31)]
                       for _ in range(30)])
    assert_reduces_like_fractions(big)
    crossing = np.array([[rng.randrange(-2 ** 40, 2 ** 40) for _ in range(31)]
                         for _ in range(30)], dtype=np.int64)
    assert_reduces_like_fractions(crossing)


# -- differential test: rational eigenvalues on integer powers against Fraction powers --

def ref_rational_eigenvalues(M):
    """rational_eigenvalues before it ran on integers: the powers I, M,
    M^2, ... as Fraction matrix products, and a Fraction nullspace redone
    at every power; the rational roots of the first dependency."""
    n = M.shape[0]
    powers = [frac_matrix([[int(i == j) for j in range(n)] for i in range(n)])]
    while True:
        powers.append(powers[-1] @ M)
        dependency = ref_nullspace(np.stack([P.reshape(-1) for P in powers], axis=1))
        if dependency.shape[1]:
            break
    scale = math.lcm(*(c.denominator for c in dependency[:, 0]))
    c = [int(x * scale) for x in dependency[:, 0]]
    low = next(k for k, x in enumerate(c) if x)

    def divisors(k):
        return {d for d in range(1, k + 1) if k % d == 0}
    candidates = {Fraction(s * p, q) for p in divisors(abs(c[low]))
                  for q in divisors(abs(c[-1])) for s in (1, -1)}
    roots = {r for r in candidates if sum(x * r ** k for k, x in enumerate(c)) == 0}
    return sorted(roots | ({Fraction(0)} if low else set()))


@st.composite
def eigen_matrices(draw):
    """Square matrices of size 1 to 4: random integer or rational entries
    (mostly irrational eigenvalues), or P J P^-1 for J diagonal or with a
    Jordan block, over eigenvalues that repeat and include 0."""
    n = draw(st.integers(1, 4))
    entries = st.integers(-4, 4) if draw(st.booleans()) else fracs

    def square():
        return frac_matrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                         min_size=n, max_size=n)))
    if draw(st.booleans()):
        return square()
    values = draw(st.lists(st.sampled_from([0, 0, 1, -2, Fraction(1, 2), Fraction(-3, 4)]),
                           min_size=n, max_size=n))
    J = frac_matrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])
    for i in draw(st.lists(st.integers(0, n - 2), max_size=2)) if n > 1 else []:
        if J[i, i] == J[i + 1, i + 1]:
            J[i, i + 1] = Fraction(1)             # a Jordan block
    P = square()
    try:
        return P @ J @ inv(P)
    except np.linalg.LinAlgError:
        return J


@settings(max_examples=150, deadline=None)
@given(eigen_matrices())
def test_rational_eigenvalues_equal_fraction_powers(M):
    assert rational_eigenvalues(M) == ref_rational_eigenvalues(M)


def test_rational_eigenvalues_edge_cases():
    for M in (frac_matrix([[0]]), frac_matrix([[0] * 3] * 3),
              frac_matrix([[0, 1], [0, 0]]),
              # powers with entries above 2**62, over a small minimal polynomial
              frac_matrix([[1, 2 ** 70], [0, 1]]),
              frac_matrix([[2, 2 ** 70, 0], [0, 2, 0], [0, 0, -1]]),
              frac_matrix([[Fraction(1, 3 ** 8), 0], [0, -1]]),
              np.empty((0, 0), dtype=object)):
        assert rational_eigenvalues(M) == ref_rational_eigenvalues(M)


def test_divisors_equal_trial_division():
    """_divisors against every d <= k; _is_prime proves primes below
    3.3e24 only, and rejects strong pseudoprimes to the bases below 41."""
    for k in range(1, 3000):
        assert linalg._divisors(k) == {d for d in range(1, k + 1) if k % d == 0}
        assert linalg._is_prime(k) == (k > 1 and all(k % d for d in range(2, math.isqrt(k) + 1)))
    # composites that pass Miller-Rabin to the bases up to 7, 23 and 37
    for k in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not linalg._is_prime(k)
    assert linalg._is_prime(2 ** 61 - 1) and not linalg._is_prime(2 ** 89 - 1)
    q = 2 ** 31 - 1
    assert linalg._divisors(12 * q * q) == {d * e for d in linalg._divisors(12) for e in (1, q, q * q)}


# -- differential test: inertia on integers against the Fraction congruence --

def ref_inertia(gram):
    """inertia before it ran on integers: symmetric congruence
    diagonalization of the Fraction Gram matrix."""
    A = np.array(gram, dtype=object)
    n = A.shape[0]
    pos = neg = zero = 0
    for k in range(n):
        if A[k, k] == 0:
            j = next((j for j in range(k + 1, n) if A[j, j] != 0), None)
            if j is not None:
                A[[k, j]] = A[[j, k]]
                A[:, [k, j]] = A[:, [j, k]]
            else:
                j = next((j for j in range(k + 1, n) if A[k, j] != 0), None)
                if j is None:
                    zero += 1
                    continue
                A[k] = A[k] + A[j]
                A[:, k] = A[:, k] + A[:, j]
        d = A[k, k]
        for i in range(k + 1, n):
            if A[i, k] != 0:
                f = A[i, k] / d
                A[i] = A[i] - f * A[k]
                A[:, i] = A[:, i] - f * A[:, k]
        if d > 0:
            pos += 1
        else:
            neg += 1
    return pos, neg, zero


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices of size 1 to 6 of small Fractions, zeros and
    integers of magnitude in [2**62, 2**90]: dense or of lower rank, some
    with a zero diagonal (the swap and row-add pivots) or zero rows."""
    n = draw(st.integers(1, 6))
    big = st.integers(2 ** 62, 2 ** 90).map(Fraction)
    entries = st.one_of(st.just(Fraction(0)), fracs, big, big.map(lambda x: -x))
    M = zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            M[i, j] = M[j, i] = draw(entries)
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        B = frac_matrix(draw(st.lists(st.lists(fracs, min_size=n, max_size=n),
                                      min_size=k, max_size=k))).reshape(k, n)
        M = B.T @ M[:k, :k] @ B if k else zeros((n, n))
    if draw(st.booleans()):
        M[range(n), range(n)] = Fraction(0)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        M[i, :] = M[:, i] = Fraction(0)
    return M


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices())
def test_integer_inertia_equals_fraction_congruence(M):
    want = ref_inertia(M)
    assert inertia(M) == want
    assert SymBilinearForm(M).inertia() == want


def test_integer_inertia_pivot_paths():
    X = 2 ** 70
    for M in ([[0, 1], [1, 0]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
              [[0, 2, 3], [2, 0, 5], [3, 5, 0]], [[0, 0], [0, -3]], [[0, 0], [0, 0]],
              [[X, X + 1, 0], [X + 1, X, 1], [0, 1, -X]], [[1, 2], [2, 4]]):
        M = frac_matrix(M)
        assert inertia(M) == ref_inertia(M)
    assert inertia(np.empty((0, 0), dtype=object)) == (0, 0, 0)


def test_form_inertia_makes_no_fraction_gram(monkeypatch):
    """The inertia of a form runs on its numerators: no Fraction Gram
    matrix is made."""
    form = tracealg.simplicial(8).form
    want = ref_inertia(tracealg.simplicial(8).gram)
    shapes = []
    real = linalg._fractions

    def spy(N, D):
        shapes.append(np.shape(N))
        return real(N, D)
    monkeypatch.setattr(linalg, "_fractions", spy)
    assert form.inertia() == want == (8, 0, 0)
    assert shapes == [] and form._gram is None

