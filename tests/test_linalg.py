"""Exact/float linear algebra helpers."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracealg.linalg import (FLOAT, RATIONAL, Subspace, SymBilinearForm,
                             column_echelon, inertia, inv, nullspace,
                             orthogonal_complement, parse_scalar, solve,
                             to_float)

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def frac_matrix(rows):
    return np.array([[Fraction(v) for v in r] for r in rows], dtype=object)


def test_parse_scalar():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-2") == Fraction(-2)
    assert parse_scalar(Fraction(1, 3)) == Fraction(1, 3)


def test_solve_exact():
    A = frac_matrix([[2, 1], [1, 3]])
    b = np.array([Fraction(1), Fraction(0)], dtype=object)
    x = solve(A, b)
    assert np.all(A @ x == b)


def test_inv_exact_roundtrip():
    A = frac_matrix([[1, 2, 0], [0, 1, 4], [1, 0, 1]])
    Ai = inv(A)
    assert np.all(A @ Ai == np.eye(3, dtype=object) + Fraction(0))


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


def test_subspace_equals():
    v1 = np.array([Fraction(1), Fraction(0)], dtype=object)
    v2 = np.array([Fraction(1), Fraction(1)], dtype=object)
    A = Subspace.from_spanning([v1, v2])
    B = Subspace.from_spanning([v2, v1 - v2])
    assert A.equals(B)


def test_nullspace():
    A = frac_matrix([[1, 2, 3], [2, 4, 6]])
    N = nullspace(A)
    assert N.shape[1] == 2
    assert np.all(A @ N == 0)


def test_orthogonal_complement():
    form = SymBilinearForm(frac_matrix([[1, 0], [0, -1]]))
    v = np.array([Fraction(1), Fraction(1)], dtype=object)  # isotropic vector
    S = Subspace.from_spanning([v])
    C = orthogonal_complement(S, form)
    # v is isotropic so it lies in its own complement
    assert C.dim == 1 and C.contains(v)


def test_sym_bilinear_form():
    G = frac_matrix([[2, 1], [1, 2]])
    f = SymBilinearForm(G)
    x = np.array([Fraction(1), Fraction(-1)], dtype=object)
    assert f.norm2(x) == 2
    assert f.inertia() == (2, 0, 0)
    assert f.is_nondegenerate()
    assert f.rank() == 2


def test_column_echelon_deterministic():
    M = frac_matrix([[0, 1], [1, 1]])
    E1 = column_echelon(M)
    E2 = column_echelon(M.copy())
    assert np.all(E1 == E2)
