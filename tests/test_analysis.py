"""Sectional values, idempotent search, associativity diagnostics."""
from fractions import Fraction
import itertools
import random
import warnings

import numpy as np
import pytest

import tracealg as ta
from tracealg.core import MetrizedAlgebra, unitalization
from tracealg.linalg import FLOAT, RATIONAL, SymBilinearForm, inv, max_abs, to_float

F = Fraction


def random_metrized(rng, n):
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


def float_copy(alg):
    return MetrizedAlgebra(to_float(np.asarray(alg.structure)),
                           to_float(np.asarray(alg.gram)),
                           "commutative")


def test_sect_scale_invariance():
    rng = random.Random(0)
    A = random_metrized(rng, 3)
    form = SymBilinearForm(A.gram)
    x = np.array([F(1), F(0), F(2)], dtype=object)
    y = np.array([F(0), F(1), F(-1)], dtype=object)
    s = ta.sect(A, x, y, form=form)
    assert ta.sect(A, 3 * x, y, form=form) == s
    assert ta.sect(A, x + y, y, form=form) == s


def test_isect_simplicial_constant():
    E = ta.simplicial(3)
    rng = random.Random(1)
    for _ in range(10):
        x = np.array([F(rng.randint(-2, 2)) for _ in range(3)], dtype=object)
        y = np.array([F(rng.randint(-2, 2)) for _ in range(3)], dtype=object)
        try:
            s = ta.isect(E, x, y)
        except ZeroDivisionError:
            continue
        assert s == F(-1, 2)


def test_constant_sect_check_negative_case():
    A = ta.herm0(3, 1)
    ok, kappa, err = ta.constant_sect_check(A)
    assert not ok


def test_newton_idempotents_simplicial():
    for n in (2, 3):
        E = ta.simplicial(n)
        M = float_copy(E)
        idems = ta.newton_idempotents(M, 1200, seed=0)
        szs = ta.square_zero_rays(M, 300, seed=0)
        assert len(idems) + len(szs) == 2 ** n - 1
        cf = ta.simplicial_idempotents(n)
        for v in cf["idempotents"]:
            vf = np.asarray(to_float(np.asarray(v)), dtype=float)
            assert min(np.abs(np.asarray(w) - vf).max() for w in idems) < 1e-6
        for z in cf["szero_rays"]:
            zf = np.asarray(to_float(np.asarray(z)), dtype=float)
            zf = zf / np.linalg.norm(zf)
            assert min(min(np.abs(np.asarray(w) - zf).max(),
                           np.abs(np.asarray(w) + zf).max())
                       for w in szs) < 1e-6


def test_orth_spectrum_minimal_idempotent():
    n = 4
    E = ta.simplicial(n)
    e = np.zeros(n)
    e[0] = 1.0
    vals = ta.orth_spectrum(E, e)
    vals = np.asarray(vals[0] if isinstance(vals, tuple) else vals)
    assert len(vals) == n - 1
    assert np.abs(vals + 1.0 / (n - 1)).max() < 1e-9


def test_sect_extremize_herm0():
    est = ta.sect_extremize(ta.herm0(3, 1), seed=1, n_starts=25)
    assert abs(est["lower"] - (-1.0)) < 1e-6
    assert abs(est["upper"] - 0.5) < 1e-6
    assert est["seed"] == 1


def test_sect_extremize_constant_case():
    E = ta.simplicial(3)
    M = MetrizedAlgebra(E.structure, E.killing_form().gram, "commutative")
    est = ta.sect_extremize(M, seed=0, n_starts=10)
    assert abs(est["lower"] + 0.5) < 1e-5
    assert abs(est["upper"] + 0.5) < 1e-5


def test_sect_extremize_stays_in_a_box():
    """sect is constant along x -> c x and y -> c y; on su-circle(2) (+)
    ealg(3) an unbounded Powell search drifted towards overflow, warned,
    and missed -1/2 or ended every start on a degenerate plane."""
    A = ta.direct_sum(ta.su_circle(2), ta.simplicial(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = ta.sect_extremize(A, seed=0, n_starts=3)
    assert abs(est["lower"] + 0.5) < 1e-9 and abs(est["upper"]) < 1e-9


def test_sect_extremize_raises_when_every_start_is_degenerate():
    """big_coprime_algebra's own metric: every Powell run of the min search
    ends on a degenerate plane, exact and on the float view."""
    from test_core import big_coprime_algebra
    A = big_coprime_algebra()
    for alg in (A, ta.as_float(A)):
        with pytest.raises(ValueError, match="every one of the 3 starts .* degenerate plane"):
            ta.sect_extremize(alg, seed=2, n_starts=3)


def test_projective_associativity():
    for n in (2, 3):
        ok, err = ta.is_projectively_associative(ta.simplicial(n))
        assert ok and err == 0
    rng = random.Random(2)
    found_negative = False
    for _ in range(6):
        A = random_metrized(rng, 3)
        ok, _ = ta.is_projectively_associative(A)
        found_negative |= not ok
    assert found_negative


def test_conformal_associativity():
    for n in (2, 3, 4):
        ok, err = ta.is_conformally_associative(ta.simplicial(n))
        assert ok
    # dims <= 3 are conformally associative by convention
    rng = random.Random(3)
    A = random_metrized(rng, 2)
    ok, _ = ta.is_conformally_associative(A)
    assert ok


def test_conformal_tensor_needs_dim_3():
    with pytest.raises(ValueError, match="needs dim >= 3"):
        ta.conformal_tensor(ta.simplicial(2))


def test_conformal_tensor_vanishes_constant_sect():
    E = ta.simplicial(4)
    M = MetrizedAlgebra(E.structure, E.killing_form().gram, "commutative")
    om = ta.conformal_tensor(M)
    assert max_abs(np.asarray(om)) == 0


def test_group_spectrum_helper():
    E = ta.simplicial(3)
    e = np.zeros(3)
    e[0] = 1.0
    vals = ta.orth_spectrum(E, e)
    spec = ta.group_spectrum(vals[0] if isinstance(vals, tuple) else vals,
                             tol=1e-8)
    assert spec == [(pytest.approx(-0.5), 2)]


def test_deunit_sect_shift():
    rng = random.Random(4)
    for t in range(4):
        A = random_metrized(rng, rng.randint(2, 3))
        U = unitalization(A)
        assert ta.deunit_sect_shift_check(U, seed=t) < 1e-8


def test_triple_sect_relations():
    assert ta.triple_sect_relations_check(ta.simplicial(3), seed=2) < 1e-9
    assert ta.triple_sect_relations_check(ta.simplicial(2), seed=3) < 1e-9


def test_complexified_special_elements_nonnegative():
    A = ta.herm0(3, 1)
    out = ta.complexified_special_elements_sect(A, seed=0, trials=60)
    assert out["szero"] and out["idem"]
    for k in ("szero", "idem"):
        assert min(out[k]) > -1e-9


def test_make_report_schema():
    rep = ta.analysis.make_report("demo", True, 0.0, witnesses=[1], seed=3)
    assert rep["schema"] == 1
    assert rep["predicate"] == "demo"
    assert rep["verdict"] is True
    assert rep["witnesses"] == [1]
    assert rep["seed"] == 3


def counted(system):
    """system, and the list that grows by one entry per call of it."""
    calls = []

    def wrapped(z):
        calls.append(z.copy())
        return system(z)
    return wrapped, calls


def test_newton_returns_a_converged_start_unchanged():
    system, calls = counted(lambda z: (z ** 2 - 4.0, np.diag(2 * z)))
    z0 = np.array([2.0, -2.0])
    assert ta.analysis._newton(system, z0, 1e-12) is z0
    assert len(calls) == 1


def test_newton_converges_to_a_root():
    z = ta.analysis._newton(lambda z: (z ** 2 - 2.0, np.diag(2 * z)), np.array([1.0]), 1e-12)
    assert abs(z[0] - np.sqrt(2.0)) < 1e-12


@pytest.mark.parametrize("jacobian", [1e-320, 1e-7], ids=["non-finite", "beyond-bound"])
def test_newton_gives_up_on_a_diverging_step(jacobian):
    """A step to an infinite iterate, or to one beyond the bound, ends the
    search at once."""
    system, calls = counted(lambda z: (np.array([1.0]), np.array([[jacobian]])))
    assert ta.analysis._newton(system, np.array([0.0]), 1e-12) is None
    assert len(calls) == 1


def test_newton_gives_up_after_the_step_cap():
    """F = 1 with J = 1 steps by -1 forever and never converges."""
    system, calls = counted(lambda z: (np.array([1.0]), np.array([[1.0]])))
    assert ta.analysis._newton(system, np.array([0.0]), 1e-12) is None
    assert len(calls) == ta.analysis._NEWTON_STEPS == 80
    assert calls[-1][0] == -79.0


def test_newton_gives_up_when_a_solve_fails(monkeypatch):
    """LAPACK's SVD can fail to converge on a finite, well-scaled Jacobian
    (seen on herm0(3, 8)); that start is abandoned, the search goes on."""
    def fail(J, F, rcond=None):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    monkeypatch.setattr(np.linalg, "lstsq", fail)
    system, calls = counted(lambda z: (np.array([1.0]), np.array([[1.0]])))
    assert ta.analysis._newton(system, np.array([0.0]), 1e-12) is None
    assert len(calls) == 1
