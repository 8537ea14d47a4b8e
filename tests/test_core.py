"""Algebra container, trace forms, unitalization, serialization."""
from fractions import Fraction
import hashlib
import inspect
import itertools
import json
import math
import os
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracealg as ta
from tracealg import analysis, catalog, core, hurwitz, linalg
from tracealg.analysis import (conformal_tensor, constant_sect_check,
                               is_conformally_associative,
                               is_projectively_associative)
from tracealg.core import (Algebra, MetrizedAlgebra, deunitalization,
                           direct_sum, einstein_fit, from_json, griess_einstein,
                           intrinsic_unitalization, retraction, tensor_product,
                           to_json, unitalization, verify_homomorphism, voa_kappa)
from tracealg.hurwitz import LEVELS, hmat_commutator, hmat_jordan, hmat_mul
from tracealg.linalg import (FLOAT, RATIONAL, SymBilinearForm, Subspace, _is_zero,
                             _numerators, _reduce_rows, as_backend, eye, inv, inertia,
                             max_abs, rational_eigenvalues, solve, to_float, zeros)
from test_linalg import ref_nullspace, ref_reduce_rows, rref

F = Fraction


def random_metrized(rng, n):
    """Invariant metrized algebra from a random symmetric cubic and gram."""
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


def test_multiply_and_left_mult():
    A = ta.talg(3, F(1, 2))
    x = A.basis_vector(0)
    y = A.basis_vector(1)
    xy = A.multiply(x, y)
    assert np.all(A.left_mult_matrix(x) @ y == xy)
    assert np.all(xy == A.multiply(y, x))


def test_trace_linear_and_exact():
    A = ta.talg(4, F(-1, 3))
    assert A.is_exact()
    B = ta.talg(4, F(1, 2))
    assert not B.is_exact()
    t = B.trace_linear()
    assert all(v == 1 + 3 * F(1, 2) for v in t)


def test_killing_and_ricci_closed_form():
    n, al = 5, F(1, 3)
    A = ta.talg(n, al)
    tau = A.killing_form().gram
    ric = A.ricci_form().gram
    for i in range(n):
        for j in range(n):
            if i == j:
                assert tau[i][j] == 1 + (n - 1) * al ** 2
                assert ric[i][j] == (n - 1) * al * (1 - al)
            else:
                assert tau[i][j] == al * (2 + (n - 1) * al)
                assert ric[i][j] == (n - 1) * al ** 2


def test_ricci_equals_minus_killing_on_exact():
    for alg in (ta.simplicial(3), ta.herm0(3, 1)):
        assert max_abs(np.asarray(alg.ricci_form().gram)
                       + np.asarray(alg.killing_form().gram)) == 0


def test_associator_alternating_in_outer_arguments():
    rng = random.Random(0)
    A = random_metrized(rng, 3)
    x = np.array([F(1), F(2), F(-1)], dtype=object)
    y = np.array([F(0), F(1), F(3)], dtype=object)
    assert max_abs(A.associator(x, y, x)) == 0
    z = np.array([F(2), F(0), F(1)], dtype=object)
    assert max_abs(A.associator(x, y, z) + A.associator(z, y, x)) == 0


def test_invariance_verdicts():
    A = ta.talg(4, F(1, 2))
    ok, err = A.is_invariant(A.killing_form())
    assert ok and err == 0
    B = ta.talg(4, F(1, 3))
    ok, err = B.is_invariant(B.killing_form())
    assert not ok and err != 0
    ok, _ = B.is_invariant(B.ricci_form())
    assert ok


def test_left_mult_self_adjoint_for_invariant_metric():
    rng = random.Random(1)
    A = random_metrized(rng, 3)
    G = np.asarray(A.gram)
    for i in range(3):
        L = np.asarray(A.left_mult_matrix(A.basis_vector(i)))
        assert max_abs(G @ L - L.T @ G) == 0


def test_cubic_polarization():
    """h(x y, z) is the full polarization of the cubic P with 6P = h(x x, x)."""
    rng = random.Random(2)
    A = random_metrized(rng, 3)
    form = SymBilinearForm(A.gram)

    def P(v):
        return A.cubic_value(form, v)

    for _ in range(10):
        x, y, z = (np.array([F(rng.randint(-2, 2)) for _ in range(3)],
                            dtype=object) for _ in range(3))
        lhs = form.apply(A.multiply(x, y), z)
        rhs = (P(x + y + z) - P(x + y) - P(x + z) - P(y + z)
               + P(x) + P(y) + P(z))
        assert lhs == rhs


def test_ideal_and_closure():
    A = ta.simplicial(2)
    T = tensor_product(A, A)
    w = ta.tensor_witnesses(2)
    gens = [w["a"][p] for p in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    S = Subspace.from_spanning(gens)
    assert S.dim == 2
    assert T.is_ideal(S)
    # a single idempotent generates a bigger ideal
    C = T.ideal_closure([gens[0]])
    assert C.dim == 2


def test_find_unit():
    rng = random.Random(3)
    A = random_metrized(rng, 2)
    U = unitalization(A)
    e = U.find_unit()
    assert np.all(np.asarray(e)[:2] == 0) and np.asarray(e)[2] == 1


def test_find_unit_is_exact():
    """e e = c e has the unit e / c; a float solve rounded back to a
    rational misses it once c exceeds the rounding denominator."""
    c = 10 ** 10 + 1
    A = Algebra(np.array([[[F(c)]]], dtype=object))
    assert list(A.find_unit()) == [F(1, c)]
    assert ta.simplicial(3).find_unit() is None


def test_direct_sum():
    A = ta.simplicial(2)
    B = ta.simplicial(3)
    D = direct_sum(A, B)
    assert D.dim == 5
    left = Subspace.from_spanning([D.basis_vector(i) for i in range(2)])
    assert D.is_ideal(left)


@pytest.mark.parametrize("backend", [RATIONAL, FLOAT])
def test_zero_subspace_is_ideal(backend):
    A = ta.simplicial(3)
    if backend == FLOAT:
        A = ta.as_float(A)
    zero = Subspace(zeros((A.dim, 0), backend))
    assert zero.dim == 0 and A.is_ideal(zero)
    assert A.ideal_closure([zeros(A.dim, backend)]).dim == 0


def test_tensor_product_killing_is_product():
    A = ta.simplicial(2)
    B = ta.simplicial(3)
    T = tensor_product(A, B)
    tauA = np.asarray(A.killing_form().gram)
    tauB = np.asarray(B.killing_form().gram)
    tauT = np.asarray(T.killing_form().gram)
    want = np.kron(tauA, tauB)
    assert max_abs(tauT - want) == 0
    assert max_abs(np.asarray(T.gram) - want) == 0


def test_unitalization_identities():
    rng = random.Random(4)
    for trial in range(8):
        n = rng.randint(2, 4)
        A = random_metrized(rng, n)
        U = unitalization(A)
        c = np.asarray(A.gram)
        tA = A.trace_linear()
        # trace of hat-multiplication
        for i in range(n):
            xh = np.append(A.basis_vector(i), F(0))
            assert np.trace(U.left_mult_matrix(xh)) == tA[i]
        e = U.find_unit()
        assert np.trace(U.left_mult_matrix(e)) == 1 + n
        # hat-Killing form
        tauU = np.asarray(U.killing_form().gram)
        tauA = np.asarray(A.killing_form().gram)
        assert max_abs(tauU[:n, :n] - (tauA + 2 * c)) == 0
        assert np.all(tauU[:n, n] == np.asarray(tA))
        assert tauU[n, n] == 1 + n
        # trace of a product
        ch = np.asarray(U.gram)
        for i in range(n):
            for j in range(n):
                xh = np.append(A.basis_vector(i), F(0))
                yh = np.append(A.basis_vector(j), F(0))
                lhs = np.trace(U.left_mult_matrix(U.multiply(xh, yh)))
                prod = A.multiply(A.basis_vector(i), A.basis_vector(j))
                rhs = np.trace(A.left_mult_matrix(prod)) + (1 + n) * ch[i, j]
                assert lhs == rhs
        # hat-Ricci form
        ricU = np.asarray(U.ricci_form().gram)
        ricA = np.asarray(A.ricci_form().gram)
        assert max_abs(ricU[:n, :n] - (ricA + (n - 1) * c)) == 0
        assert max_abs(ricU[:, n]) == 0 and max_abs(ricU[n, :]) == 0


def test_unital_associator_identity():
    rng = random.Random(5)
    A = random_metrized(rng, 3)
    U = unitalization(A)
    c = np.asarray(A.gram)
    for _ in range(10):
        xa, yb, zg = (np.array([F(rng.randint(-2, 2)) for _ in range(4)],
                               dtype=object) for _ in range(3))
        full = U.associator(xa, yb, zg)
        x, y, z = xa[:3], yb[:3], zg[:3]
        base = (A.associator(x, y, z)
                + (x @ c @ y) * z - (y @ c @ z) * x)
        assert max_abs(full[:3] - base) == 0
        assert full[3] == 0


def test_intrinsic_unitalization_ricci_flat():
    rng = random.Random(6)
    for _ in range(5):
        A = random_metrized(rng, rng.randint(2, 4))
        V = intrinsic_unitalization(A)
        assert max_abs(np.asarray(V.ricci_form().gram)) == 0


def test_intrinsic_unitalization_reads_no_metric():
    """c = -ric / (dim - 1) is built from the structure alone: an algebra
    without a metric unitalizes to the same file as with one, exact and
    float."""
    rng = random.Random(8)
    for A in [ta.simplicial(3), ta.herm0(3, 2)] + [random_metrized(rng, n) for n in (2, 3, 4)]:
        for B in (A, ta.as_float(A)):
            bare = Algebra._from_numerators(B._N, B._D, B.symmetry, B.name)
            assert to_json(intrinsic_unitalization(bare)) == to_json(intrinsic_unitalization(B))


def test_deunitalization_round_trip():
    rng = random.Random(7)
    for _ in range(6):
        n = rng.randint(2, 4)
        A = random_metrized(rng, n)
        U = unitalization(A)
        D = deunitalization(U)
        assert D.dim == n
        assert max_abs(np.asarray(D.structure) - np.asarray(A.structure)) == 0
        assert max_abs(np.asarray(D.gram) - np.asarray(A.gram)) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_float_deunitalization_matches_the_exact_one(n):
    """A float algebra finds its unit by least squares: the round trip on
    floats agrees with the float view of the exact one."""
    A = ta.simplicial(n)
    fl = deunitalization(unitalization(ta.as_float(A)))
    ex = ta.as_float(deunitalization(unitalization(A)))
    assert fl.backend == FLOAT and fl.dim == ex.dim == n
    assert np.max(np.abs(fl.structure - ex.structure)) <= 1e-12
    assert np.max(np.abs(fl.gram - ex.gram)) <= 1e-12


def test_unitalization_refuses_a_form_of_the_other_kind():
    """c is a form of the algebra's kind, as direct_sum's operands are of
    one kind: an exact c on a float algebra and a float c on an exact one
    are both refused."""
    A = ta.simplicial(3)
    fl = ta.as_float(A)
    with pytest.raises(ValueError, match="form c is float on a rational algebra"):
        unitalization(A, fl.form)
    with pytest.raises(ValueError, match="form c is rational on a float algebra"):
        unitalization(fl, A.form)


def test_deunitalization_ignores_the_sign_of_the_metric():
    """Negating the metric of a unital algebra negates h(e, e) and the
    restricted Gram matrix together: the deunitalization is unchanged, in
    lowest terms with a positive denominator."""
    rng = random.Random(5)
    for _ in range(3):
        U = unitalization(random_metrized(rng, rng.randint(2, 3)))
        V = MetrizedAlgebra._from_numerators(
            U._N, U._D, SymBilinearForm._from_numerators(-U.form._G, U.form._DG), U.symmetry)
        D, E = deunitalization(U), deunitalization(V)
        assert D._D == E._D and np.array_equal(D._N, E._N)
        assert D.form._DG == E.form._DG > 0 and np.array_equal(D.form._G, E.form._G)


def test_einstein_unitalization_shift():
    """An exact algebra with killing = (dim-1) metric unitalizes to
    killing-hat = (dim+1) metric-hat."""
    for n in (2, 3, 4):
        E = ta.simplicial(n)
        h = np.asarray(E.killing_form().gram) / F(n - 1)
        A = MetrizedAlgebra(E.structure, h, "commutative")
        assert einstein_fit(A) == (n - 1, 0)
        U = intrinsic_unitalization(A)
        assert einstein_fit(U) == (n + 1, 0)
        assert max_abs(np.asarray(U.ricci_form().gram)) == 0


def test_griess_and_voa_numbers():
    assert griess_einstein(183024, 13860, 1) == (196884, 13858)
    assert voa_kappa(8, 156) == 42
    assert voa_kappa(24, 196883) == F(983913, 71)


def test_json_round_trip():
    A = ta.herm0(3, 2)
    doc = to_json(A)
    text = json.dumps(doc)
    B = from_json(json.loads(text))
    assert max_abs(np.asarray(B.structure) - np.asarray(A.structure)) == 0
    assert max_abs(np.asarray(B.gram) - np.asarray(A.gram)) == 0
    assert B.symmetry == A.symmetry


def test_json_anticommutative():
    L = ta.lie_so(3)
    B = from_json(to_json(L))
    assert B.symmetry == "anticommutative"
    assert max_abs(np.asarray(B.structure) - np.asarray(L.structure)) == 0


def test_structure_and_gram_are_read_only_and_made_once():
    A = ta.herm0(3, 2)
    assert A._structure is None and A.form._gram is None
    m, g = A.structure, A.gram
    assert A.structure is m and A.gram is g
    assert np.array_equal(m, from_json(to_json(A)).structure)
    with pytest.raises(AttributeError):
        A.structure = m
    with pytest.raises(AttributeError):
        A.form.gram = g
    with pytest.raises(ValueError):
        m[0, 0, 0] = F(1)
    with pytest.raises(ValueError):
        g[0, 0] = F(1)
    B = MetrizedAlgebra(np.array(m), np.array(g))
    with pytest.raises(ValueError):
        B.structure[0, 0, 0] = F(1)
    with pytest.raises(ValueError):
        B.gram[0, 0] = F(1)


# -- differential test: the numerator loader against the Fraction-tensor loader --

def ref_parse_scalar(s):
    """parse_scalar before it read integer pairs."""
    if isinstance(s, str):
        try:
            if "/" not in s:
                return F(int(s))
            p, q = s.split("/")
            return F(int(p), int(q))
        except ValueError:
            return F(s)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (s,)) from None
    if isinstance(s, float):
        raise ValueError("float %r where an exact value is needed" % (s,))
    return F(s)


def ref_from_json(doc):
    """from_json before it read numerators: a dense tensor of Fractions
    (floats on a float file) filled one entry at a time, then the public
    constructors.  Like from_json, it refuses a dim below 1."""
    n = doc["dim"]
    if n < 1:
        raise ValueError("dim %s is below 1" % (n,))
    backend = doc.get("scalar", RATIONAL)
    if backend not in (RATIONAL, FLOAT):
        raise ValueError("unknown scalar kind %r" % (backend,))
    symmetry = doc.get("symmetry", "commutative")
    s = zeros((n, n, n), backend)
    sign = 1 if symmetry == "commutative" else -1
    scalar = ref_parse_scalar
    if backend == FLOAT:
        def scalar(v):
            return v if isinstance(v, float) else ref_parse_scalar(v)
    for i, j, k, v in doc["structure"]:
        if not 0 <= min(i, j, k) <= max(i, j, k) < n:
            raise IndexError("structure index (%s, %s, %s) out of range" % (i, j, k))
        val = scalar(v)
        s[i, j, k] = val
        if i != j:
            s[j, i, k] = sign * val
    if "metric" in doc and doc["metric"] is not None:
        gram = [[scalar(v) for v in row] for row in doc["metric"]["gram"]]
        alg = MetrizedAlgebra(s, as_backend(gram, backend), symmetry, name=doc.get("name", ""))
        G, _ = _numerators(alg.gram)
        if not np.all(_is_zero(G - G.T, scale=lambda: max_abs(G))):
            raise ValueError("Gram matrix is not symmetric")
        return alg
    return Algebra(s, symmetry, name=doc.get("name", ""))


def load_outcome(load, doc):
    """What a loader makes of doc: the exception type it raises, or the
    algebra's kind, numerators and values (repr keeps -0.0 apart)."""
    try:
        A = load(doc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return type(exc).__name__
    out = [type(A).__name__, A.symmetry, A.name, A.backend, A._N.dtype, A._D,
           repr(A._N.tolist()), repr(A.structure.tolist())]
    if isinstance(A, MetrizedAlgebra):
        out += [A.form._G.dtype, A.form._DG, repr(A.form._G.tolist()), repr(A.gram.tolist())]
    return out


GOOD_VALUES = ["ratio"] * 4 + ["unreduced", "negative-denominator", "integer", "json-int",
                               "decimal", "big"]


@st.composite
def json_values(draw, kinds):
    """A structure or Gram value as JSON holds it: "p/q" unreduced or with a
    negative denominator, integer strings, JSON ints, decimals, numerators
    above 2**62, JSON floats, -0.0 among them (exact files reject them), a
    zero denominator or a word."""
    p, q = draw(st.integers(-6, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(kinds))
    if kind == "ratio":
        return "%d/%d" % (p, q)
    if kind == "unreduced":
        m = draw(st.integers(2, 4))
        return "%d/%d" % (p * m, q * m)
    if kind == "negative-denominator":
        return "%d/-%d" % (p, q)
    if kind == "integer":
        return str(p)
    if kind == "json-int":
        return p
    if kind == "decimal":
        return "%s%d.%02d" % ("-" if p < 0 else "", abs(p), draw(st.integers(0, 99)))
    if kind == "big":
        return "%d/%d" % (p * 2 ** 63 + draw(st.sampled_from([-1, 1])), q)
    if kind == "json-float":
        return draw(st.sampled_from([p / 4, -0.0]))
    if kind == "zero-denominator":
        return "%d/0" % p
    return "one"


@st.composite
def json_docs(draw):
    """Algebra documents of dim 0 to 5 with up to 40 entries, which repeat
    positions and set transposes of earlier entries, or carry float or
    string indices, or fall out of range, with an optional Gram matrix that
    may be asymmetric, ragged or of the wrong size."""
    n = draw(st.integers(0, 5))
    doc = {"dim": n, "name": "doc"}
    doc["scalar"] = draw(st.sampled_from(["rational"] * 3 + ["float"]))
    doc["symmetry"] = draw(st.sampled_from(["commutative", "anticommutative"]))
    faulty = draw(st.integers(0, 3)) == 0          # one document in four
    kinds = GOOD_VALUES + (["json-float"] if doc["scalar"] == "float" else [])
    index = st.sampled_from(range(n)) if n else st.just(0)
    if faulty:
        kinds = kinds + ["json-float", "zero-denominator", "word"]
        index = st.sampled_from(list(range(n)) * 6 + [-1, n, 1.0, "1"])
    value = json_values(kinds)
    entry = st.tuples(index, index, index, value).map(list)
    rows = draw(st.lists(entry, max_size=25))
    # later entries at an earlier entry's position or at its transpose
    for e, transpose, v in draw(st.lists(st.tuples(st.integers(0, 24), st.booleans(), value),
                                         max_size=15 if rows else 0)):
        i, j, k, _ = rows[e % len(rows)]
        rows.append([j, i, k, v] if transpose else [i, j, k, v])
    doc["structure"] = rows
    metric = draw(st.sampled_from(["absent", "none", "square", "square", "square"]
                                  + (["asymmetric", "ragged", "wrong-dim"] if faulty else [])))
    if metric == "none":
        doc["metric"] = None
    elif metric != "absent":
        size = n + 1 if metric == "wrong-dim" else n
        G = [[draw(value) for _ in range(size)] for _ in range(size)]
        if metric != "asymmetric":
            G = [[G[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
        if metric == "ragged" and G:
            G[-1] = G[-1][:-1]
        doc["metric"] = {"gram": G}
    return doc


@settings(max_examples=300, deadline=None)
@given(json_docs())
def test_loader_equals_the_fraction_tensor_loader(doc):
    assert load_outcome(from_json, doc) == load_outcome(ref_from_json, doc)


def test_loader_edge_cases():
    """Float and string indices raise as the Fraction loader does; a later
    entry sets both positions of its transpose; a bool index, and a bool
    value in the structure or the Gram matrix, is refused."""
    for doc in ({"dim": 2, "structure": [[0, 1.0, 0, "1"]]},
                {"dim": 2, "structure": [[0, "1", 0, "1"]]},
                {"dim": 2, "structure": [[0, 1, 0, "1"], [1, 0, 0, "2"]]},
                {"dim": 2, "symmetry": "anticommutative",
                 "structure": [[0, 1, 0, "1"], [1, 0, 0, "2"], [0, 1, 1, "2/4"]]},
                {"dim": 1, "structure": [[0, 0, 0, "%d" % 2 ** 70]],
                 "metric": {"gram": [["%d/3" % 2 ** 64]]}},
                # repeated strings, read through the loader's parse cache
                {"dim": 2, "structure": [[0, 0, 0, "1/2"], [0, 1, 0, "-0"], [1, 1, 1, "1/2"],
                                         [0, 1, 1, "0"], [1, 1, 0, "-0"], [0, 0, 1, "2/4"],
                                         [0, 1, 1, "1/2"], [1, 1, 1, 1]],
                 "metric": {"gram": [["1/2", "-0"], ["0", "1/2"]]}},
                {"dim": 2, "scalar": "float",
                 "structure": [[0, 0, 0, "-0"], [0, 1, 0, -0.0], [1, 1, 1, "0"], [0, 1, 1, "1"],
                               [1, 1, 0, 1.0], [0, 0, 1, 1], [1, 1, 1, "-0"]],
                 "metric": {"gram": [["1", "-0"], ["-0", 1.0]]}}):
        assert load_outcome(from_json, doc) == load_outcome(ref_from_json, doc)
    A = from_json({"dim": 2, "structure": [[0, 1, 0, "1"], [1, 0, 0, "2"]]})
    assert A.structure[0, 1, 0] == A.structure[1, 0, 0] == 2
    # -0.0 after an equal 0.0 stays -0.0, and the file round-trips
    doc = {"name": "z", "dim": 2, "symmetry": "commutative", "scalar": "float",
           "structure": [[0, 0, 0, 0.0], [0, 1, 1, -0.0], [1, 1, 1, 1.0]],
           "metric": {"gram": [[0.0, -0.0], [-0.0, 1.0]]}}
    assert load_outcome(from_json, doc) == load_outcome(ref_from_json, doc)
    B = from_json(doc)
    assert repr(B.gram.tolist()) == "[[0.0, -0.0], [-0.0, 1.0]]"
    assert json.dumps(to_json(from_json(to_json(B)))) == json.dumps(to_json(B))
    assert to_json(B)["metric"] == doc["metric"]
    with pytest.raises(IndexError):
        from_json({"dim": 2, "structure": [[True, 0, 0, "1"]]})
    for doc in ({"dim": 1, "structure": [[0, 0, 0, True]]},
                {"dim": 1, "scalar": "float", "structure": [[0, 0, 0, False]]},
                {"dim": 1, "structure": [[0, 0, 0, "1"]], "metric": {"gram": [[True]]}}):
        with pytest.raises(ValueError, match="bool"):
            from_json(doc)


@pytest.mark.parametrize("rows, exc, message", [
    pytest.param([[0, 0, 0, "one"], [0, 2, 0, "1"]], ValueError,
                 "Invalid literal for Fraction: 'one'", id="value-before-range"),
    pytest.param([[0, 2, 0, "1"], [0, 0, 0, "one"]], IndexError,
                 r"structure index \(0, 2, 0\) out of range for dim 2", id="range-before-value"),
    pytest.param([[0, 0, 0, "1/0"], [0, 1.0, 0, "1"]], ValueError,
                 "zero denominator in '1/0'", id="zero-denominator-before-float-index"),
    # within one entry: range before value before index type
    pytest.param([[0, 1.0, 2, "1/0"]], IndexError, "out of range", id="one-entry-range"),
    pytest.param([[0, 1.0, 0, "1/0"]], ValueError, "zero denominator", id="one-entry-value"),
])
def test_loader_raises_the_first_faulty_entry(rows, exc, message):
    """With two faulty entries, the first one's error is raised, as an
    entry-by-entry read raises it; a bad Gram value comes after them all."""
    for metric in (None, {"gram": [["1", "x"], ["x", "1"]]}):
        doc = {"dim": 2, "structure": rows, "metric": metric}
        with pytest.raises(exc, match=message):
            from_json(doc)
        assert load_outcome(from_json, doc) == load_outcome(ref_from_json, doc)


def _construct_files(tmp_path):
    """{label: path} of the CONSTRUCT_SHA256 builds and the benchmark's
    input algebras, each written by `construct` into tmp_path."""
    from test_cli import CONSTRUCT_SHA256
    from tracealg.cli import main
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    try:
        from workloads import INPUTS
    finally:
        sys.path.pop(0)
    builds = {argv: argv.split() for argv in CONSTRUCT_SHA256}
    builds.update(INPUTS)                   # in order: "@stem" names an earlier input
    paths = {}
    for label, argv in builds.items():
        paths[label] = str(tmp_path / ("%d.json" % len(paths)))
        argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
        assert main(["construct"] + argv + ["-o", paths[label]]) == 0
    return paths


def test_loader_equals_the_fraction_tensor_loader_on_constructed_files(tmp_path):
    for label, path in _construct_files(tmp_path).items():
        with open(path) as fh:
            doc = json.load(fh)
        assert load_outcome(from_json, doc) == load_outcome(ref_from_json, doc), label


@pytest.mark.parametrize("argv", [["herm0", "--n", "3", "--level", "o"],
                                  ["herm0", "--n", "4", "--level", "h"]])
def test_loader_parses_each_distinct_string_once(tmp_path, monkeypatch, argv):
    from tracealg.cli import main
    path = str(tmp_path / "a.json")
    assert main(["construct"] + argv + ["-o", path]) == 0
    with open(path) as fh:
        doc = json.load(fh)
    values = [row[3] for row in doc["structure"]] + [v for row in doc["metric"]["gram"]
                                                    for v in row]
    calls = []
    real = linalg._parse_ratio

    def spy(v):
        calls.append(v)
        return real(v)
    monkeypatch.setattr(linalg, "_parse_ratio", spy)
    A = core.load_json(path)
    assert sorted(calls) == sorted(set(values))
    assert A.dim == doc["dim"] and len(values) > 10 * len(calls)


def test_decompose_ideals_tensor_square():
    A = ta.simplicial(2)
    T = tensor_product(A, A)
    parts, verdict = ta.decompose_ideals(T)
    assert verdict == "decomposed"
    assert sorted(S.dim for S, _ in parts) == [2, 2]
    for S, _ in parts:
        assert T.is_ideal(S)


def test_decompose_ideals_makes_no_fraction_gram():
    """The certificate tests the restricted form on integer numerators: a
    loaded algebra's Gram matrix is never made as Fractions."""
    e3 = ta.simplicial(3)
    alg = from_json(to_json(direct_sum(e3, e3)))
    parts, verdict = ta.decompose_ideals(alg)
    assert verdict == "decomposed" and [S.dim for S, _ in parts] == [3, 3]
    assert alg.form._gram is None


def test_decompose_ideals_simple_case():
    E = ta.simplicial(3)
    M = MetrizedAlgebra(E.structure, E.gram, "commutative")
    parts, verdict = ta.decompose_ideals(M)
    assert verdict == "indecomposable"
    assert len(parts) == 1


DECOMPOSITIONS = {
    "lie_so(4)": (lambda: ta.lie_so(4), "decomposed", [3, 3]),
    "ealg(2)(x)ealg(2)": (lambda: tensor_product(ta.simplicial(2), ta.simplicial(2)),
                          "decomposed", [2, 2]),
    "ealg(3)(+)ealg(3)": (lambda: direct_sum(ta.simplicial(3), ta.simplicial(3)),
                          "decomposed", [3, 3]),
    "herm0(3,1)(+)ealg(2)": (lambda: direct_sum(ta.herm0(3, 1), ta.simplicial(2)),
                             "decomposed", [2, 5]),
    "ealg(2)(x)ealg(3)": (lambda: tensor_product(ta.simplicial(2), ta.simplicial(3)),
                          "indecomposable", [6]),
    "ealg(3)": (lambda: ta.simplicial(3), "indecomposable", [3]),
}


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_decompose_ideals_verdicts(name):
    build, expected, dims = DECOMPOSITIONS[name]
    alg = build()
    parts, verdict = ta.decompose_ideals(alg)
    assert verdict == expected
    assert sorted(S.dim for S, _ in parts) == dims
    for S, part in parts:
        assert alg.is_ideal(S)
        assert part.dim == S.dim
        assert part.form.is_nondegenerate()


def test_decompose_ideals_float_path():
    """ealg(3) (+) ealg(3) on floats splits into the same ideals as on
    rationals; the ideal check on each part is exact."""
    build = DECOMPOSITIONS["ealg(3)(+)ealg(3)"][0]
    exact_parts, _ = ta.decompose_ideals(build())
    parts, verdict = ta.decompose_ideals(ta.as_float(build()))
    assert verdict == "decomposed"
    assert [S.dim for S, _ in parts] == [S.dim for S, _ in exact_parts] == [3, 3]
    for (S, _), (X, _) in zip(parts, exact_parts):
        assert np.allclose(S.basis, to_float(X.basis), atol=1e-12)
        assert build().is_ideal(X)


def test_decompose_ideals_undetermined_without_rational_eigenvalues():
    """Q(i) = span(1, i) with its trace form: the commutant is Q(i) itself,
    whose non-scalar elements have eigenvalues +-i, so no split is certified
    and none exists."""
    s = zeros((2, 2, 2))
    s[0, 0, 0] = s[0, 1, 1] = s[1, 0, 1] = F(1)
    s[1, 1, 0] = F(-1)
    A = MetrizedAlgebra(s, [[F(2), F(0)], [F(0), F(-2)]])
    assert A.is_invariant(A.form)[0]
    parts, verdict = ta.decompose_ideals(A)
    assert verdict == "undetermined"
    assert [S.dim for S, _ in parts] == [2]


@pytest.mark.parametrize("name, dim", [("lie_so(4)", 2), ("ealg(3)(+)ealg(3)", 2),
                                       ("ealg(2)(x)ealg(3)", 1)])
def test_commutant_commutes_with_left_multiplications(name, dim):
    alg = DECOMPOSITIONS[name][0]()
    C = linalg._fractions(*ta.core._commutant(alg))
    assert len(C) == dim
    for T in C:
        for i in range(alg.dim):
            L = alg.left_mult_matrix(alg.basis_vector(i))
            assert max_abs(T @ L - L @ T) == 0


def assert_integer_numerators(X):
    """X holds integer numerators: int64, or Python ints past 2**62."""
    assert X.dtype == np.int64 or all(type(x) is int for x in X.flat)


def full_commutant_system(alg):
    """The whole n^3 x n^2 system of T L(e_i) = L(e_i) T, rows (i, a, c)."""
    n = alg.dim
    L = [alg.left_mult_matrix(alg.basis_vector(i)) for i in range(n)]
    M = zeros((n, n, n, n, n))
    for i, a, c, p, q in itertools.product(range(n), repeat=5):
        M[i, a, c, p, q] = (p == a) * L[i][q, c] - L[i][a, p] * (q == c)
    return M.reshape(n ** 3, n * n)


def ref_commutant(alg):
    """The commutant by refinement on all n^2 entries of T: the T with
    T[0, 0] = 0 that commute with L(e_0) are the kernel of an n^2 x (n^2 - 1)
    system, and each later L(e_i) replaces that basis K by K Z, Z the kernel
    of T -> T L(e_i) - L(e_i) T on K; the identity is added back, and the
    basis put in canonical form (core._canonical_maps)."""
    n = alg.dim
    N = linalg._divide_content(alg._N)
    d = np.arange(n)
    # M[a,c,p,q] is the coefficient of T[p,q] in (T L_0 - L_0 T)[a,c]
    M = np.zeros((n, n, n, n), N.dtype)
    M[d, :, d, :] = N[0]
    M[:, d, :, d] -= N[0].T
    Z, _ = linalg._kernel(*linalg._reduce_rows(M.reshape(n * n, n * n)[:, 1:]))
    K = np.vstack([np.zeros((1, Z.shape[1]), Z.dtype), Z]).T
    for L in N[1:]:
        if not len(K):
            break
        R = linalg._contract(lambda t, l: t @ l.T - l.T @ t, 2 * n, K.reshape(-1, n, n), L)
        R, pivots = linalg._reduce_rows(R.reshape(len(K), -1).T)
        if pivots:
            E, D = linalg._echelon(R, pivots)
            free = np.delete(np.arange(len(K)), pivots)
            K = linalg._divide_content(linalg._contract(
                lambda e, k, d: d * k[free] - e[:, free].T @ k[pivots],
                len(pivots) + 1, E, K, D), axis=1)
    return core._canonical_maps(np.vstack([np.eye(n, dtype=np.int64).reshape(1, -1), K]), n)


@pytest.mark.parametrize("build", [DECOMPOSITIONS["ealg(3)(+)ealg(3)"][0],
                                   DECOMPOSITIONS["lie_so(4)"][0],
                                   lambda: ta.herm0(3, 2),
                                   DECOMPOSITIONS["ealg(2)(x)ealg(3)"][0],
                                   DECOMPOSITIONS["herm0(3,1)(+)ealg(2)"][0],
                                   lambda: direct_sum(zero_algebra(2), ta.simplicial(2))],
                         ids=["ealg(3)(+)ealg(3)", "lie_so(4)", "herm0(3,2)",
                              "ealg(2)(x)ealg(3)", "herm0(3,1)(+)ealg(2)", "zero(2)(+)ealg(2)"])
def test_commutant_equals_full_system_nullspace(build):
    """The commutant from module generators (one for a cyclic algebra,
    several for a sum or a zero product), on integers, gives the exact basis
    of the nullspace of the whole system, as Gauss-Jordan on its Fractions
    finds it, entry for entry.  The float view of the algebra gives the
    same basis, to rounding."""
    alg = build()
    n = alg.dim
    N = ref_nullspace(full_commutant_system(alg))
    X, E = ta.core._commutant(alg)
    assert_integer_numerators(X)
    C = linalg._fractions(X, E)
    assert len(C) == N.shape[1] >= 1
    for j, T in enumerate(C):
        assert np.array_equal(T, N[:, j].reshape(n, n))
    Cf, Ef = ta.core._commutant(ta.as_float(alg))
    assert len(Cf) == len(C) and Cf.dtype == float and Ef == 1
    for T, Tf in zip(C, Cf):
        assert max_abs(Tf - to_float(T)) <= 1e-12


def random_structure(rng, n, big):
    """A commutative structure tensor of dim n: entries p/q with |p| <= 3 and
    q <= 3, or numerators near 2**40 over 1000003 when big, at a density
    drawn from 0.2, 0.5 and 1."""
    density = rng.choice((0.2, 0.5, 1.0))
    m = zeros((n, n, n))
    for i, j, k in itertools.product(range(n), repeat=3):
        if j <= i and rng.random() < density:
            if big:
                v = F(rng.choice((-1, 1)) * (2 ** 40 + rng.randint(-999, 999)), 1000003)
            else:
                v = F(rng.randint(-3, 3), rng.randint(1, 3))
            m[i, j, k] = m[j, i, k] = v
    return m


@st.composite
def commutant_inputs(draw):
    """(algebra, big): a drawn structure tensor of dim 1-5, or the direct sum
    or the tensor product of two drawn pieces of dim 1-3 and 1-2."""
    rng = draw(st.randoms(use_true_random=False))
    big = draw(st.booleans()) and draw(st.booleans())
    kind = draw(st.sampled_from(["one", "sum", "tensor"]))
    if kind == "one":
        return Algebra(random_structure(rng, draw(st.integers(1, 5)), big)), big
    a, b = (random_structure(rng, draw(st.integers(1, k)), big) for k in (3, 2))
    if kind == "tensor":
        m = np.multiply.outer(a, b).transpose(0, 3, 1, 4, 2, 5).reshape((len(a) * len(b),) * 3)
        return Algebra(m), big
    m = zeros((len(a) + len(b),) * 3)
    m[:len(a), :len(a), :len(a)] = a
    m[len(a):, len(a):, len(a):] = b
    return Algebra(m), big


@settings(max_examples=40, deadline=None)
@given(commutant_inputs())
def test_commutant_refinement_equals_full_system(drawn):
    """The commutant from module generators gives the basis of the
    nullspace of the whole system, entry for entry, on numerators small
    and large (the Python-int path of the contractions).  The float view
    finds a nonempty basis, and on small entries the same one to rounding."""
    alg, big = drawn
    n = alg.dim
    N = ref_nullspace(full_commutant_system(alg))
    X, E = ta.core._commutant(alg)
    assert_integer_numerators(X)
    C = linalg._fractions(X, E)
    assert len(C) == N.shape[1]
    for j, T in enumerate(C):
        assert np.array_equal(T, N[:, j].reshape(n, n))
    Cf, Ef = ta.core._commutant(ta.as_float(alg))
    assert len(Cf) >= 1 and Cf.dtype == float and Ef == 1
    if not big:
        assert len(Cf) == len(C)
        for T, Tf in zip(C, Cf):
            assert max_abs(Tf - to_float(T)) <= 1e-12


def zero_algebra(n):
    """The n-dim algebra with zero product, metrized by the identity: its
    commutant is all of gl(n)."""
    return MetrizedAlgebra(zeros((n, n, n)), eye(n))


SPLIT_INPUTS = {name: build for name, (build, verdict, _) in DECOMPOSITIONS.items()
                if verdict == "decomposed"}
SPLIT_INPUTS.update({
    "ealg(3)(+)ealg(3)(+)ealg(2)": lambda: direct_sum(
        direct_sum(ta.simplicial(3), ta.simplicial(3)), ta.simplicial(2)),
    "herm0(3,2)(+)herm0(3,1)": lambda: direct_sum(ta.herm0(3, 2), ta.herm0(3, 1)),
    "ealg(4)(+)ealg(4)": lambda: direct_sum(ta.simplicial(4), ta.simplicial(4)),
    "herm0(3,8)(+)herm0(3,4)": lambda: direct_sum(ta.herm0(3, 8), ta.herm0(3, 4)),
    # zero products: the commutant holds maps that leave a piece
    "zero(2)": lambda: zero_algebra(2),
    "zero(2)(+)ealg(2)": lambda: direct_sum(zero_algebra(2), ta.simplicial(2)),
})
FLOAT_SPLIT_INPUTS = ["lie_so(4)", "ealg(3)(+)ealg(3)", "herm0(3,1)(+)ealg(2)",
                      "ealg(3)(+)ealg(3)(+)ealg(2)", "ealg(4)(+)ealg(4)",
                      "zero(2)", "zero(2)(+)ealg(2)"]
SPLIT_CASES = ([(name, "exact") for name in sorted(SPLIT_INPUTS)]
               + [(name, "float") for name in FLOAT_SPLIT_INPUTS])


def split_input(name, kind):
    alg = SPLIT_INPUTS[name]()
    return ta.as_float(alg) if kind == "float" else alg


def certified_splits(alg):
    """Each (algebra, the numerators of its commutant, piece) of the splits
    decompose_ideals makes, with every piece's commutant computed afresh."""
    X, _ = core._commutant(alg)
    pieces = None if len(X) == 1 else core._certified_split(alg, X)
    for piece in pieces or ():
        yield alg, X, piece
        yield from certified_splits(retraction(alg, piece.basis))


def ref_decompose_ideals(alg):
    """decompose_ideals with every piece's commutant computed afresh."""
    def recurse(sub_alg, embed):
        X, _ = core._commutant(sub_alg)
        pieces = None if len(X) == 1 else core._certified_split(sub_alg, X)
        if pieces is None:
            return [(Subspace(embed), sub_alg)], len(X)
        return [part for piece in pieces
                for part in recurse(retraction(sub_alg, piece.basis),
                                    embed @ piece._R.T)[0]], len(X)
    parts, dim = recurse(alg, np.eye(alg.dim, dtype=np.int64))
    return parts, ("decomposed" if len(parts) > 1 else
                   "indecomposable" if dim == 1 else "undetermined")


def decomposition_state(parts_verdict):
    """A decomposition's verdict and every number of its parts, with dtypes."""
    parts, verdict = parts_verdict
    return verdict, [(S.pivots, S._DR, S._R.dtype, S._R.tolist(), P._D, P._N.dtype,
                      P._N.tolist(), P.form._DG, P.form._G.tolist()) for S, P in parts]


@pytest.mark.parametrize("name, kind", SPLIT_CASES)
def test_restricted_centroid_equals_piece_commutant(name, kind):
    """The commutant of an algebra restricted to a certified piece is the
    commutant of the piece's retraction, entry for entry (to 1e-12 on
    floats), at every split decompose_ideals makes, pieces that some T
    leaves (on a zero product) included; and the decomposition equals the
    one that computes every piece's commutant afresh."""
    alg = split_input(name, kind)
    splits = list(certified_splits(alg))
    assert len(splits) >= 2
    for parent, X, piece in splits:
        T, E = core._restricted_commutant(X, piece)
        U, EU = core._commutant(retraction(parent, piece.basis))
        assert len(T) == len(U)
        if kind == "exact":
            assert_integer_numerators(T)
            assert np.array_equal(linalg._fractions(T, E), linalg._fractions(U, EU))
        else:
            assert T.dtype == float and E == 1 and max_abs(T - U) <= 1e-12
    assert (decomposition_state(ta.decompose_ideals(alg))
            == decomposition_state(ref_decompose_ideals(alg)))


@pytest.mark.parametrize("name", sorted(SPLIT_INPUTS))
def test_certified_split_reduces_integer_eigen_systems(monkeypatch, name):
    """_certified_split eliminates X - mu I, for T = X / E in the commutant,
    on integers: no Fraction reaches _reduce_rows.  Each piece it returns
    is the Fraction kernel of T - lam I, lam = mu / E, for some T and lam
    (and its orthocomplement), entry for entry."""
    alg = SPLIT_INPUTS[name]()
    n, (X, E) = alg.dim, core._commutant(alg)
    assert_integer_numerators(X)
    systems, real = [], linalg._reduce_rows
    monkeypatch.setattr(linalg, "_reduce_rows", lambda M: systems.append(M) or real(M))
    S, comp = core._certified_split(alg, X)
    monkeypatch.undo()
    assert systems and not any(isinstance(x, F) for M in systems for x in M.flat)
    kernels = [Subspace(linalg.nullspace(T - lam * eye(n)))
               for T in linalg._fractions(X, E) for lam in rational_eigenvalues(T)]
    assert any((K.pivots, K._DR, K._R.tolist()) == (S.pivots, S._DR, S._R.tolist())
               for K in kernels)
    assert comp.equals(linalg.orthogonal_complement(S, alg.form))


def spy_on_commutant(monkeypatch):
    """The dims of the algebras core._commutant is called on, as a list that
    grows with each call."""
    dims, real = [], core._commutant

    def spy(alg):
        dims.append(alg.dim)
        return real(alg)
    monkeypatch.setattr(core, "_commutant", spy)
    return dims


@pytest.mark.parametrize("name", sorted(SPLIT_INPUTS))
def test_decompose_ideals_computes_one_commutant(monkeypatch, name):
    """Every piece's commutant is the input's, restricted: none is computed,
    also where some T leaves a piece (on a zero product)."""
    alg = SPLIT_INPUTS[name]()
    dims = spy_on_commutant(monkeypatch)
    parts, verdict = ta.decompose_ideals(alg)
    assert verdict == "decomposed" and len(parts) >= 2
    assert dims == [alg.dim]


@pytest.mark.parametrize("name", sorted(SPLIT_INPUTS))
def test_decompose_ideals_keeps_the_commutant_on_integers(monkeypatch, name):
    """The commutant reaches the restriction and the split as integer
    numerators: _canonical_maps, _restricted_commutant and _certified_split
    make no Fraction view and read no Fractions back, and each piece is
    retracted from its numerators, not read back from a Fraction basis."""
    callers = []
    for helper in ("_fractions", "_numerators"):
        def spy(*args, real=getattr(core, helper)):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args)
        monkeypatch.setattr(core, helper, spy)
    parts, verdict = ta.decompose_ideals(SPLIT_INPUTS[name]())
    assert verdict == "decomposed" and len(parts) >= 2
    assert not ({"_canonical_maps", "_restricted_commutant", "_certified_split", "retraction",
                 "_retraction"} & set(callers))


@pytest.mark.parametrize("build, commutant_dim, part_dims", [
    (lambda: zero_algebra(2), 4, [1, 1]),
    (lambda: direct_sum(zero_algebra(2), ta.simplicial(2)), 5, [2, 1, 1]),
], ids=["zero(2)", "zero(2)(+)ealg(2)"])
def test_zero_product_pieces_restrict_to_the_stabilizer(build, commutant_dim, part_dims):
    """On the zero product of dim 2 the commutant holds all of gl(2), which
    maps no line of it into itself.  A piece that cuts it (a line, or a
    line plus ealg(2)) gets the restrictions of the T that map it into
    itself.  The decomposition is the one that computes every piece's
    commutant afresh."""
    alg = build()
    assert len(core._commutant(alg)[0]) == commutant_dim
    out = ta.decompose_ideals(alg)
    assert [S.dim for S, _ in out[0]] == part_dims and out[1] == "decomposed"
    assert decomposition_state(out) == decomposition_state(ref_decompose_ideals(alg))


COMMUTANT_INPUTS = {**{name: build for name, (build, _, _) in DECOMPOSITIONS.items()},
                    **SPLIT_INPUTS,
                    "lie_su(3)": lambda: ta.lie_su(3),
                    "herm0(3,4)": lambda: ta.herm0(3, 4),
                    "herm0(3,8)": lambda: ta.herm0(3, 8),
                    "ealg(16)": lambda: ta.simplicial(16)}


@pytest.mark.parametrize("name", sorted(COMMUTANT_INPUTS))
def test_commutant_equals_reference_refinement(name):
    """The commutant from module generators equals the refinement on all
    n^2 entries of T, in (X, E) and dtype, entry for entry; on the float
    views of the split inputs it equals it to rounding."""
    alg = COMMUTANT_INPUTS[name]()
    (X, E), (Y, F) = core._commutant(alg), ref_commutant(alg)
    assert X.dtype == Y.dtype and E == F and np.array_equal(X, Y)
    if name in FLOAT_SPLIT_INPUTS:
        (X, E), (Y, F) = core._commutant(ta.as_float(alg)), ref_commutant(ta.as_float(alg))
        assert X.dtype == Y.dtype == float and E == F == 1
        assert X.shape == Y.shape and max_abs(X - Y) <= 1e-12


@pytest.mark.parametrize("name, restricted", [
    ("ealg(3)(+)ealg(3)", []), ("herm0(3,1)(+)ealg(2)", []), ("lie_so(4)", []),
    ("ealg(2)(x)ealg(2)", []),
    # k = 3: the first piece's commutant is 2-dimensional, so its
    # complement's is the scalars, and so are both pieces of the first piece
    ("ealg(3)(+)ealg(3)(+)ealg(2)", [(3, 5, 2)])])
def test_commutant_dimensions_certify_pieces(monkeypatch, name, restricted):
    """A split piece's commutant and its complement's add up to at most
    their parent's, so under a two-dimensional commutant both pieces are
    indecomposable with no restriction computed, and a piece whose commutant
    takes all but one dimension leaves its complement none; the
    decomposition is the one that computes every piece's commutant afresh."""
    alg = SPLIT_INPUTS[name]()
    calls, real = [], core._restricted_commutant

    def spy(X, piece):
        out = real(X, piece)
        calls.append((len(X), piece.dim, len(out[0])))
        return out
    monkeypatch.setattr(core, "_restricted_commutant", spy)
    out = ta.decompose_ideals(alg)
    monkeypatch.undo()
    assert calls == restricted and out[1] == "decomposed"
    assert decomposition_state(out) == decomposition_state(ref_decompose_ideals(alg))


def test_rational_eigenvalues():
    P = np.array([[F(1), F(2), F(0)], [F(0), F(1), F(3)], [F(1), F(0), F(1)]],
                 dtype=object)
    D = np.diag([F(1, 2), F(-3), F(1, 2)])
    assert rational_eigenvalues(P @ D @ inv(P)) == [F(-3), F(1, 2)]
    sqrt2 = np.array([[F(0), F(2)], [F(1), F(0)]], dtype=object)
    assert rational_eigenvalues(sqrt2) == []
    nilpotent = np.array([[F(0), F(1)], [F(0), F(0)]], dtype=object)
    assert rational_eigenvalues(nilpotent) == [F(0)]
    scalar = np.diag([F(-4, 9)] * 3)
    assert rational_eigenvalues(scalar) == [F(-4, 9)]
    # minimal polynomials whose lowest coefficient, 2**140 and -3**40, has
    # too many divisors to list by counting up to its square root
    jordan = np.array([[F(2 ** 70), F(1)], [F(0), F(2 ** 70)]], dtype=object)
    assert rational_eigenvalues(jordan) == [F(2 ** 70)]
    assert rational_eigenvalues(np.diag([F(1, 3 ** 40), F(-1)])) == [F(-1), F(1, 3 ** 40)]
    # lowest coefficients that are the largest prime below 2**50 and the
    # square of the prime 2**31 - 1: the divisor search stops at once
    p, q = 1125899906842597, 2 ** 31 - 1
    assert rational_eigenvalues(np.array([[F(0), F(p)], [F(1), F(0)]], dtype=object)) == []
    assert (rational_eigenvalues(np.array([[F(0), F(q * q)], [F(1), F(0)]], dtype=object))
            == [F(-q), F(q)])


# -- differential test: whole-tensor contractions against per-basis loops --
#
# The references below are the per-basis-vector loops the library used
# before its trace forms, associativity checks, ideal tests, retraction and
# homomorphism check became contractions of the whole structure tensor.
# Exact results must agree as Fractions, entry for entry.

def ref_killing(A):
    n = A.dim
    Ls = [A.left_mult_matrix(A.basis_vector(i)) for i in range(n)]
    g = zeros((n, n), A.backend)
    for i in range(n):
        for j in range(i + 1):
            g[i, j] = g[j, i] = np.sum(Ls[i] * Ls[j].T)
    return g


def ref_associator_residual(A, rhs):
    """Max over basis triples of |[e_i, e_j, e_k] - rhs(e, i, j, k)|."""
    e = [A.basis_vector(i) for i in range(A.dim)]
    err = 0
    for i, j, k in itertools.product(range(A.dim), repeat=3):
        err = max(err, max_abs(A.associator(e[i], e[j], e[k]) - rhs(e, i, j, k)))
    return err


def ref_const_sect_residual(A, kappa):
    H = A.gram
    return ref_associator_residual(
        A, lambda e, i, j, k: kappa * (H[i, j] * e[k] - H[j, k] * e[i]))


def ref_proj_assoc_residual(A):
    n = A.dim
    C = -A.ricci_form().gram / (n - 1)
    err = ref_associator_residual(
        A, lambda e, i, j, k: C[j, k] * e[i] - C[i, j] * e[k])
    Ls = [A.left_mult_matrix(A.basis_vector(i)) for i in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        M = ((Ls[i] @ Ls[j] - Ls[j] @ Ls[i]) @ Ls[k]
             + (Ls[j] @ Ls[k] - Ls[k] @ Ls[j]) @ Ls[i]
             + (Ls[k] @ Ls[i] - Ls[i] @ Ls[k]) @ Ls[j])
        err = max(err, max_abs(M))
    return err


def ref_conformal(A):
    n = A.dim
    m, H = A.structure, A.gram
    R = A.ricci_form().gram
    scal = np.trace(inv(H) @ R)
    hp = np.tensordot(np.tensordot(m, H, axes=(2, 0)), m, axes=(2, 2))
    nn = F(n) if A.backend == RATIONAL else float(n)
    c1 = 1 / (nn - 2)
    c2 = scal / ((nn - 1) * (nn - 2))
    w = zeros((n, n, n, n), A.backend)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        w[i, j, k, l] = (hp[j, k, i, l] - hp[k, i, l, j]
                         + c1 * (R[i, k] * H[j, l] - R[j, k] * H[i, l]
                                 - R[i, l] * H[j, k] + R[j, l] * H[i, k])
                         + c2 * (H[i, l] * H[j, k] - H[j, l] * H[i, k]))
    return w


def ref_homomorphism(psi, a, b):
    err = 0
    for i in range(a.dim):
        for j in range(i + 1):
            lhs = psi @ a.multiply(a.basis_vector(i), a.basis_vector(j))
            rhs = b.multiply(psi[:, i], psi[:, j])
            err = max(err, max_abs(lhs - rhs))
    return err


def ref_products(A, S):
    return [A.multiply(A.basis_vector(i), S.basis[:, j])
            for j in range(S.dim) for i in range(A.dim)]


def ref_is_ideal(A, S):
    return all(S.contains(p) for p in ref_products(A, S))


def ref_ideal_closure(A, generators):
    S = Subspace.from_spanning(generators)
    while True:
        outside = [p for p in ref_products(A, S) if not S.contains(p)]
        if not outside:
            return S
        S = Subspace.from_spanning([S.basis[:, j] for j in range(S.dim)] + outside)


def ref_retraction(A, B):
    k = B.shape[1]
    M = B.T @ A.gram @ B
    s = zeros((k, k, k), A.backend)
    for i in range(k):
        for j in range(k):
            s[i, j, :] = solve(M, B.T @ A.gram @ A.multiply(B[:, i], B[:, j]))
    return s, M


def rational_matrix(rng, rows, cols):
    return np.array([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
                     for _ in range(rows)], dtype=object).reshape(rows, cols)


def retraction_bases(rng, A):
    """A random change of basis (k = n) and a random nondegenerate
    hyperplane (k = n - 1)."""
    n = A.dim
    out = []
    for k in (n, n - 1):
        while True:
            B = rational_matrix(rng, n, k)
            if inertia(B.T @ A.gram @ B)[2] == 0:
                out.append(B)
                break
    return out


DIFFERENTIAL_CASES = [
    pytest.param(lambda n=n, s=s: random_metrized(random.Random(s), n),
                 id="random-dim%d-seed%d" % (n, s))
    for n in (2, 3, 4) for s in (10, 11)
] + [pytest.param(lambda: ta.lie_su(2), id="lie-su2"),
     pytest.param(lambda: ta.lie_so(3), id="lie-so3")]


@pytest.mark.parametrize("make", DIFFERENTIAL_CASES)
def test_contractions_equal_basis_loops(make):
    A = make()
    n = A.dim
    rng = random.Random(n)

    tau = A.killing_form().gram
    assert all(isinstance(v, F) for v in tau.flat)
    assert np.array_equal(tau, ref_killing(A))
    assert all(isinstance(v, F) for v in A.associator_tensor().flat)

    ok, kappa, err = constant_sect_check(A)
    assert err == ref_const_sect_residual(A, kappa) and ok == (err == 0)
    ok, err = is_projectively_associative(A)
    assert err == ref_proj_assoc_residual(A) and ok == (err == 0)
    if n >= 3:
        assert np.array_equal(conformal_tensor(A), ref_conformal(A))

    psi = rational_matrix(rng, n, n)
    assert verify_homomorphism(psi, A, A) == ref_homomorphism(psi, A, A) != 0
    diag = np.vstack([np.eye(n, dtype=int), np.eye(n, dtype=int)]) * F(1)
    D = direct_sum(A, A)
    assert verify_homomorphism(diag, A, D) == ref_homomorphism(diag, A, D) == 0

    v = rational_matrix(rng, n, 1)[:, 0]
    closure = A.ideal_closure([v])
    assert np.array_equal(closure.basis, ref_ideal_closure(A, [v]).basis)
    vv = np.append(v, v)
    assert np.array_equal(D.ideal_closure([vv]).basis, ref_ideal_closure(D, [vv]).basis)
    first = Subspace(np.vstack([np.eye(n, dtype=int), np.zeros((n, n), dtype=int)]) * F(1))
    for alg, S in ((A, Subspace.from_spanning([v])), (A, closure),
                   (D, first), (D, Subspace.from_spanning([vv]))):
        assert alg.is_ideal(S) == ref_is_ideal(alg, S)
    assert D.is_ideal(first)

    for B in retraction_bases(rng, A):
        R = retraction(A, B)
        s, M = ref_retraction(A, B)
        assert np.array_equal(R.structure, s) and np.array_equal(R.gram, M)


def test_float_contractions_match_basis_loops():
    A = random_metrized(random.Random(12), 4)
    Af = MetrizedAlgebra(to_float(A.structure), to_float(A.gram), A.symmetry)
    rng = random.Random(4)

    def close(x, y):
        x, y = to_float(x), to_float(y)
        return x.shape == y.shape and np.allclose(x, y, rtol=1e-10, atol=1e-10)

    assert close(Af.killing_form().gram, ref_killing(Af))
    assert close(Af.killing_form().gram, A.killing_form().gram)
    _, kappa, err = constant_sect_check(Af)
    assert close(err, ref_const_sect_residual(Af, kappa))
    assert close(is_projectively_associative(Af)[1], ref_proj_assoc_residual(Af))
    assert close(conformal_tensor(Af), ref_conformal(Af))
    psi = to_float(rational_matrix(rng, 4, 4))
    assert close(verify_homomorphism(psi, Af, Af), ref_homomorphism(psi, Af, Af))
    v = to_float(rational_matrix(rng, 4, 1)[:, 0])
    assert close(Af.ideal_closure([v]).basis, ref_ideal_closure(Af, [v]).basis)
    S = Subspace.from_spanning([v])
    assert Af.is_ideal(S) == ref_is_ideal(Af, S)
    for B in retraction_bases(rng, A):
        Bf = to_float(B)
        R = retraction(Af, Bf)
        s, M = ref_retraction(Af, Bf)
        assert close(R.structure, s) and close(R.gram, M)
        assert close(R.structure, retraction(A, B).structure)


# -- differential test: integer numerators against Fraction contractions --
#
# The references below are the whole-tensor contractions as the library ran
# them on Fraction object arrays, before it computed on integer numerators
# over one common denominator.  Exact results must agree as Fractions, on
# int64 numerators and on the Python-int path that large ones take.

def frac_killing(A):
    m = A.structure
    g = np.tensordot(m, m, axes=([1, 2], [2, 1]))
    return (g + g.T) / 2


def frac_ricci(A):
    m = A.structure
    return np.tensordot(m, np.trace(m, axis1=1, axis2=2), axes=(2, 0)) - frac_killing(A)


def frac_associator(A):
    m = A.structure
    left = np.tensordot(m, m, axes=(2, 0))
    right = np.tensordot(m, m, axes=(2, 1))
    return left - np.transpose(right, (2, 0, 1, 3))


def frac_invariance(A, G):
    T = np.tensordot(A.structure, G, axes=(2, 0))
    return max_abs(T - np.transpose(T, (2, 0, 1)))


def frac_einstein(A):
    tau, G = frac_killing(A), A.gram
    k = next(i for i in range(A.dim) if G[i, i] != 0)
    kappa = tau[k, k] / G[k, k]
    return kappa, max_abs(tau - kappa * G)


def frac_const_sect(A):
    n, H = A.dim, A.gram
    k = next(i for i in range(n) if H[i, i] != 0)
    kappa = frac_ricci(A)[k, k] / ((n - 1) * H[k, k])
    I = eye(n)
    rhs = kappa * (np.einsum("ij,kl->ijkl", H, I) - np.einsum("jk,il->ijkl", H, I))
    return kappa, max_abs(frac_associator(A) - rhs)


def frac_proj_assoc(A):
    n = A.dim
    C = -frac_ricci(A) / (n - 1)
    I = eye(n)
    rhs = np.einsum("jk,il->ijkl", C, I) - np.einsum("ij,kl->ijkl", C, I)
    err = max_abs(frac_associator(A) - rhs)
    L = np.transpose(A.structure, (0, 2, 1))
    LL = np.tensordot(L, L, axes=(2, 1))
    Comm = np.transpose(LL, (0, 2, 1, 3)) - np.transpose(LL, (2, 0, 1, 3))
    for i in range(n):
        T = np.tensordot(Comm[i], L, axes=(2, 1))
        M = (np.transpose(T, (0, 2, 1, 3)) - np.transpose(T, (2, 0, 1, 3))
             + np.tensordot(Comm, L[i], axes=(3, 0)))
        err = max(err, max_abs(M))
    return err


def frac_conformal(A):
    n = A.dim
    m, H = A.structure, A.gram
    R = frac_ricci(A)
    scal = np.trace(inv(H) @ R)
    hp = np.tensordot(np.tensordot(m, H, axes=(2, 0)), m, axes=(2, 2))
    c2 = scal / ((n - 1) * (n - 2))
    return (np.einsum("jkil->ijkl", hp) - np.einsum("kilj->ijkl", hp)
            + (np.einsum("ik,jl->ijkl", R, H) - np.einsum("jk,il->ijkl", R, H)
               - np.einsum("il,jk->ijkl", R, H) + np.einsum("jl,ik->ijkl", R, H)) / (n - 2)
            + c2 * (np.einsum("il,jk->ijkl", H, H) - np.einsum("jl,ik->ijkl", H, H)))


def all_fractions(*values):
    return all(isinstance(v, F) for x in values for v in np.asarray(x, dtype=object).flat)


def assert_equals_fraction_kernel(A):
    n = A.dim
    tau, ric = A.killing_form().gram, A.ricci_form().gram
    assert np.array_equal(tau, frac_killing(A)) and np.array_equal(ric, frac_ricci(A))
    t = A.trace_linear()
    assert np.array_equal(t, np.trace(A.structure, axis1=1, axis2=2))
    assert A.is_exact() == all(t == 0)
    for G in (tau, ric, A.gram):
        ok, err = A.is_invariant(SymBilinearForm(G))
        assert err == frac_invariance(A, G) and ok == (err == 0)
    assert np.array_equal(A.associator_tensor(), frac_associator(A))
    ok, err = is_projectively_associative(A)
    assert err == frac_proj_assoc(A) and ok == (err == 0)
    residuals = [err]
    if any(A.gram.diagonal() != 0):
        kappa, err = einstein_fit(A)
        assert (kappa, err) == frac_einstein(A)
        ok, kappa, err2 = constant_sect_check(A)
        assert (kappa, err2) == frac_const_sect(A) and ok == (err2 == 0)
        residuals += [kappa, err, err2]
    if n >= 3:
        w = conformal_tensor(A)
        assert np.array_equal(w, frac_conformal(A))
        ok, err = is_conformally_associative(A)
        assert err == max_abs(w)
        residuals += [w, err]
    assert all_fractions(tau, ric, t, A.associator_tensor(), *residuals)


# numerators near 2**40 over a large denominator: the Killing form's bound
# 2 n^2 max|N|^2 passes 2**62, so the Python-int path runs
BIG = F(2 ** 40 + 15, 1000003 * 999983)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32), big=st.booleans())
def test_integer_contractions_equal_fraction_contractions(n, seed, big):
    A = random_metrized(random.Random(seed), n)
    if big:
        A = MetrizedAlgebra(A.structure * BIG, A.gram)
    assert_equals_fraction_kernel(A)


def big_coprime_algebra():
    """Dim 3; structure numerators near 2**40 over the coprime denominators
    1000003 and 999983, and a Gram matrix over four more large primes."""
    rng = random.Random(5)
    primes = (1000003, 999983)
    m = zeros((3, 3, 3))
    for i, j, k in itertools.product(range(3), repeat=3):
        if i <= j:
            m[i, j, k] = m[j, i, k] = F(2 ** 20 + rng.randint(0, 999), primes[(i + j + k) % 2])
    G = np.array([[F(5, 1000033), F(1, 999979), F(0)],
                  [F(1, 999979), F(-7, 1000037), F(0)],
                  [F(0), F(0), F(2, 1000039)]], dtype=object)
    return MetrizedAlgebra(m, G)


def test_python_int_path_equals_fraction_contractions():
    A = big_coprime_algebra()
    # the numerators fit in int64, but a product of two does not
    assert A._N.dtype == np.int64 and int(np.max(np.abs(A._N))) ** 2 > 2 ** 70
    assert_equals_fraction_kernel(A)
    # retraction's contractions and elimination take the Python-int path too
    for B in retraction_bases(random.Random(2), A):
        R = retraction(A, B)
        s, M = ref_retraction(A, B)
        assert np.array_equal(R.structure, s) and np.array_equal(R.gram, M)


@pytest.mark.parametrize("make", [lambda: random_metrized(random.Random(3), 4),
                                  big_coprime_algebra], ids=["int64", "python-int"])
def test_exact_contractions_run_without_fraction_arithmetic(make, monkeypatch):
    """The trace forms, invariance, associator, the projective check, exact
    elimination, the ideal tests and retraction create Fractions for their
    results only; no Fraction operator runs."""
    A = make()
    G = A.gram.copy()
    B = retraction_bases(random.Random(1), A)[1]

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic inside an exact contraction")
    for op in ("add", "sub", "mul", "truediv", "pow"):
        for name in ("__%s__" % op, "__r%s__" % op):
            monkeypatch.setattr(F, name, forbidden)
    for name in ("__neg__", "__abs__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(F, name, forbidden)
    A = MetrizedAlgebra(A.structure, G)      # the numerators and symmetry check too
    tau = A.killing_form()
    A.ricci_form()
    A.is_exact()
    A.is_invariant(tau)
    A.is_invariant(A.form)
    A.associator_tensor()
    is_projectively_associative(A)
    constant_sect_check(A, kappa=F(1, 3))
    # exact elimination, ideal tests and retraction run on integers too
    _reduce_rows(A.structure.reshape(A.dim, -1))
    solve(A.gram, A.structure[0])
    S = A.ideal_closure([A.structure[0, 0]])
    A.is_ideal(S)
    retraction(A, B)


def wrapping_trace_algebra():
    """Dim 3 over D0 = (2**64 - 1) / 3: the numerators D0, D0 and D0 + 1 of
    m000, m011 and m022 sum to t_0 = 2**64, which int64 wraps to 0."""
    D0 = (2 ** 64 - 1) // 3
    m = zeros((3, 3, 3))
    m[0, 0, 0] = m[0, 1, 1] = m[1, 0, 1] = F(1)
    m[0, 2, 2] = m[2, 0, 2] = F(D0 + 1, D0)
    return MetrizedAlgebra(m, eye(3))


def test_numerators_near_the_int64_limit_do_not_wrap():
    A = wrapping_trace_algebra()
    assert A.trace_linear()[0] == 3 + F(1, (2 ** 64 - 1) // 3) and not A.is_exact()
    assert_equals_fraction_kernel(A)
    # numerators just below 2**62 stay int64; their trace and sums do not
    N = 2 ** 62 - 1
    m = zeros((3, 3, 3))
    for i in range(3):
        m[i, i, i] = F(N)
    m[0, 1, 1] = m[1, 0, 1] = F(-N)
    A = MetrizedAlgebra(m, eye(3))
    assert A._N.dtype == np.int64
    assert list(A.trace_linear()) == [0, N, N]
    assert max_abs(np.array([-2 ** 63], dtype=np.int64)) == 2 ** 63
    assert_equals_fraction_kernel(A)
    # -2**63 fits in int64, and -2**63 + -2**63 wraps to 0
    m = zeros((3, 3, 3))
    m[0, 1, 2] = m[1, 0, 2] = F(-2 ** 63)
    with pytest.raises(ValueError):
        Algebra(m, "anticommutative")


@pytest.mark.parametrize("signs", ["positive", "mixed"])
def test_contraction_bounds_at_the_int64_switch(signs, monkeypatch):
    """Every contraction, on numerators of every magnitude from 2**8 to 2**62:
    each crosses from float64 to int64 and from int64 to Python ints
    somewhere in the sweep, and an undercounted bound rounds or wraps on
    inputs just below its switch.  The work gate is off, so every
    contraction bounded below 2**53 runs on float64, however small.
    All-positive entries make the sums of products as large as they can be."""
    monkeypatch.setattr(linalg, "_FLOAT64_WORK", 0)
    tiers = record_tiers(monkeypatch)
    rng = random.Random(11)
    C = zeros((3, 3, 3))
    for i, j, k in itertools.combinations_with_replacement(range(3), 3):
        s = 1 if signs == "positive" else rng.choice((-1, 1))
        for p in set(itertools.permutations((i, j, k))):
            C[p] = F(s)
    H = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) + zeros((3, 3))
    if signs == "mixed":
        H = np.array([[1, -1, 0], [-1, -1, 1], [0, 1, 1]]) + zeros((3, 3))
    for e in range(8, 63):
        for M in (2 ** e - 1, 2 ** e - 2 ** (e // 2)):
            A = MetrizedAlgebra(C * M, H * M)
            assert_equals_fraction_kernel(A)
    # the Killing form's bound 2 n^2 M^2 passes 2**53 next to this M
    killing = math.isqrt(2 ** 53 // 18)
    for M in (killing - 1, killing, killing + 1):
        assert_equals_fraction_kernel(MetrizedAlgebra(C * M, H * M))
    # hmat_mul bounds an entry by n * level products: sweep every magnitude
    # and the integers next to each level's switches, to float64 and to
    # Python ints, where XY + YX of the Jordan product is largest
    for level in LEVELS:
        X, Y = hermitian_extremes(rng, signs, level)
        XY, YX = hmat_mul(X, Y, level), hmat_mul(Y, X, level)
        switches = [math.isqrt(limit // (3 * level)) for limit in (2 ** 53, 2 ** 62)]
        for M in [2 ** e - 1 for e in range(8, 63)] + [s + d for s in switches for d in (-1, 0, 1)]:
            assert np.array_equal(hmat_mul(X * M, Y * M, level), XY * M * M)
            assert np.array_equal(hmat_jordan(X * M, Y * M, level), (XY + YX) * M * M / 2)
            assert np.array_equal(hmat_commutator(X * M, Y * M, level), (XY - YX) * M * M)
    assert set(tiers) == {"float64", "int64", "object"}


def test_elimination_bounds_at_the_int64_switch():
    """Exact elimination on rows of every magnitude from 2**8 to 2**62 and
    next to the switch, against Gauss-Jordan on Fractions.  The first step
    of [[X, -(X-1)], [X-1, X]] makes X**2 + (X-1)**2 from the bound
    2 X**2 - X: it crosses 2**62 in the sweep, and a step run on int64 past
    2**63 wraps.  In the last matrix the first step runs on Python ints once
    X is near 2**60 and leaves small rows, so the later steps run on int64
    again while the rows are Python ints."""
    switch = math.isqrt(2 ** 61)
    for X in [2 ** e - 1 for e in range(8, 63)] + [switch - 1, switch, switch + 1]:
        for M in ([[X, -(X - 1)], [X - 1, X]],
                  [[X, -(X - 1), 1], [X - 1, X, 2], [1, 2, 3]],
                  [[1, 2, 3], [0, 1, 4], [X, 2 * X + 1, 3 * X + 5]]):
            M = np.array(M, dtype=object) + F(0)
            R, pivots = rref(M)
            ref, ref_pivots = ref_reduce_rows(M)
            assert pivots == ref_pivots and np.array_equal(R, ref)
            if len(M) == 3:
                x = solve(M[-2:, :2], M[-2:, 2])
                assert np.array_equal(x, ref_reduce_rows(M[-2:])[0][:, 2])


def hermitian_extremes(rng, signs, level):
    """3 x 3 matrices with entries +-1 whose product XY reaches the bound
    3 * level in every real part: Y's imaginary parts cancel the -1 of
    u_a u_a (positive), or random signs (mixed)."""
    X = zeros((3, 3, level)) + 1
    Y = zeros((3, 3, level)) + 1
    Y[..., 1:] = -1
    if signs == "mixed":
        X = X * np.array([rng.choice((-1, 1)) for _ in range(X.size)]).reshape(X.shape)
    return X, Y


# -- the float64 tier of _contract --

CONTRACTING = (analysis, catalog, core, hurwitz, linalg)       # the modules that call it


def same_result(a, b):
    """Equal in value and dtype (arrays) or type (scalars)."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def record_tiers(monkeypatch, compare=False):
    """Route every _contract call through a spy; return the list to which
    it appends the tier of each call on integer operands, the dtype its fn
    received: "float64", "int64" or "object".  With compare, each such call
    runs again with the float64 tier off, and the two results must be the
    same in value and dtype."""
    real = linalg._contract
    tiers = []

    def spy(fn, terms, *operands):
        def traced(*ops):
            tiers.append(np.asarray(ops[0]).dtype.name)
            return fn(*ops)
        if any(np.asarray(op).dtype.kind == "f" for op in operands):
            return real(fn, terms, *operands)
        # fn may write to its operands
        copies = [op.copy() if isinstance(op, np.ndarray) else op for op in operands]
        out = real(traced, terms, *operands)
        if compare:
            limit, linalg._FLOAT64_LIMIT = linalg._FLOAT64_LIMIT, 0
            try:
                ref = real(fn, terms, *copies)
            finally:
                linalg._FLOAT64_LIMIT = limit
            assert same_result(out, ref), (fn, tiers[-1])
        return out
    for module in CONTRACTING:
        monkeypatch.setattr(module, "_contract", spy)
    return tiers


def fingerprint(x):
    """A comparable form of a result: every array with its dtype, and every
    number with its type."""
    if isinstance(x, Algebra):
        return ["algebra", fingerprint(x._N), x._D, fingerprint(getattr(x, "form", None))]
    if isinstance(x, SymBilinearForm):
        return ["form", fingerprint(x._G), x._DG]
    if isinstance(x, Subspace):
        return ["subspace", fingerprint(x._R), x._DR, x.pivots]
    if isinstance(x, np.ndarray):
        return [x.dtype.str, x.shape, [fingerprint(v) for v in x.ravel().tolist()]]
    if isinstance(x, dict):
        return {k: fingerprint(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [fingerprint(v) for v in x]
    return [type(x).__name__, x]


def unimodular_conjugate(rng, n, eigenvalues):
    """U diag U^-1 with diagonal entries drawn from eigenvalues and U = I + S,
    S superdiagonal in {-1, 0, 1}: an integer matrix, as U^-1 = sum (-S)^k
    has entries in {-1, 0, 1}, whose minimal polynomial has small degree."""
    S = np.diag([rng.choice((-1, 0, 1)) for _ in range(n - 1)], 1)
    U_inv, P = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(n - 1):
        P = -P @ S
        U_inv = U_inv + P
    d = np.diag([rng.choice(eigenvalues) for _ in range(n)])
    return (np.eye(n, dtype=np.int64) + S) @ d @ U_inv


def symmetric_integers(rng, n, zero_diagonal=False):
    A = np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    A = A + A.T
    if zero_diagonal:
        np.fill_diagonal(A, 0)
    return A


def exact_computations(tmp_path):
    """(name, computation) pairs: every exact report suite on six
    algebras, decompose_ideals on the DECOMPOSITIONS table,
    rational_eigenvalues, inertia, retraction, the CONSTRUCT_SHA256 builds,
    herm0(3,8)'s Killing form and one 6 x 6 product."""
    from test_cli import CONSTRUCT_SHA256
    from tracealg.cli import SUITES, main, run_suite

    def reports(build):
        out = []
        for suite in SUITES:
            try:
                out.append(run_suite(build(), suite))
            except ValueError as exc:
                out.append(type(exc).__name__)
        return out

    def construct(argv):
        path = tmp_path / "construct.json"
        assert main(["construct"] + argv.split() + ["-o", str(path)]) == 0
        return path.read_bytes()

    rng = random.Random(21)
    eigen = [unimodular_conjugate(rng, n, (-2, 1, 3)) for n in (6, 30)]
    symmetric = [symmetric_integers(rng, 20), symmetric_integers(rng, 12, zero_diagonal=True)]
    A, H = random_metrized(random.Random(3), 5), ta.herm0(3, 2)
    bases = [(X, B) for X in (A, H) for B in retraction_bases(random.Random(4), X)]
    octonionic = ta.herm0(3, 8)
    X6 = np.arange(36, dtype=np.int64).reshape(6, 6) % 7
    return ([("report " + name, lambda build=build: reports(build))
             for name, build in (("ealg(4)", lambda: ta.simplicial(4)),
                                 ("herm0(3,1)", lambda: ta.herm0(3, 1)),
                                 ("herm0(3,2)", lambda: ta.herm0(3, 2)),
                                 ("herm0(3,8)", lambda: ta.herm0(3, 8)),
                                 ("lie-su(3)", lambda: ta.lie_su(3)),
                                 ("talg(3,1/2)", lambda: ta.talg(3, F(1, 2))))]
            + [("decompose " + name, lambda build=build: ta.decompose_ideals(build()))
               for name, (build, _, _) in sorted(DECOMPOSITIONS.items())]
            + [("rational_eigenvalues", lambda: [rational_eigenvalues(M) for M in eigen]
                + [rational_eigenvalues(as_backend(M, RATIONAL) / 3) for M in eigen]),
               ("inertia", lambda: [inertia(octonionic.killing_form()._G)]
                + [inertia(M) for M in symmetric]),
               ("retraction", lambda: [retraction(X, B) for X, B in bases]),
               ("herm0(3,8) Killing form", lambda: octonionic._killing()),
               ("matmul 6x6", lambda: linalg._contract(np.matmul, 6, X6, X6))]
            + [("construct " + argv, lambda argv=argv: construct(argv))
               for argv in sorted(CONSTRUCT_SHA256)])


@pytest.mark.parametrize("work", ["gated", "every-call"])
def test_float64_tier_equals_int64_tier(work, monkeypatch, tmp_path):
    """Each exact computation runs with the float64 tier, every _contract
    call in it compared with the int64 tier's result (_FLOAT64_LIMIT = 0)
    in value and dtype, and then again with the float64 tier off; the two
    results must be the same.  "every-call" turns the work gate off, so
    every contraction bounded below 2**53 runs on float64: each fn passed
    to _contract obeys its rule.  With the gate, the large products of the
    herm0(4,4) build and of herm0(3,8)'s Killing form run on float64, and
    a 6 x 6 product stays on int64."""
    from test_cli import CONSTRUCT_SHA256
    if work == "every-call":
        monkeypatch.setattr(linalg, "_FLOAT64_WORK", 0)
    computations = exact_computations(tmp_path)
    results, tiers = {}, {}
    for name, compute in computations:
        with monkeypatch.context() as patch:
            tiers[name] = record_tiers(patch, compare=True)
            results[name] = fingerprint(compute())
    monkeypatch.setattr(linalg, "_FLOAT64_LIMIT", 0)
    for name, compute in computations:
        assert fingerprint(compute()) == results[name], name
    for argv, digest in CONSTRUCT_SHA256.items():
        assert hashlib.sha256(results["construct " + argv][1]).hexdigest() == digest
    assert "float64" in tiers["construct herm0 --n 4 --level h"]
    assert "float64" in tiers["herm0(3,8) Killing form"]
    assert tiers["matmul 6x6"] == ["float64" if work == "every-call" else "int64"]


# -- the float view: one conversion, from the numerators --

def ref_as_float(A):
    """The float copy made from the Fraction tensor and Gram matrix."""
    if isinstance(A, MetrizedAlgebra):
        return MetrizedAlgebra(to_float(A.structure), to_float(A.gram), A.symmetry, A.name)
    return Algebra(to_float(A.structure), A.symmetry, A.name)


def assert_same_float_algebra(a, b):
    assert type(a) is type(b) and (a.symmetry, a.name) == (b.symmetry, b.name)
    assert a._N.dtype == b._N.dtype == float and a._D == b._D == 1
    assert a._N.tobytes() == b._N.tobytes()
    if isinstance(a, MetrizedAlgebra):
        assert a.form._G.dtype == b.form._G.dtype == float and a.form._DG == b.form._DG == 1
        assert a.form._G.tobytes() == b.form._G.tobytes()


FLOAT_VIEW_FAMILIES = {
    "talg(3,-1/2)": lambda: ta.talg(3, F(-1, 2)),
    "ealg(4)": lambda: ta.simplicial(4),
    "cyclic3": lambda: ta.cyclic3(),
    "herm(3,2)": lambda: ta.herm_jordan(3, 2),
    "herm0(3,8)": lambda: ta.herm0(3, 8),
    "su-circle(3)": lambda: ta.su_circle(3),
    "lie-so(4)": lambda: ta.lie_so(4),
    "lie-su(3)": lambda: ta.lie_su(3),
    "triple(ealg(3))": lambda: ta.triple(ta.simplicial(3)),
    "nahm(lie-su(2))": lambda: ta.nahm(ta.lie_su(2)),
    "tensor": lambda: tensor_product(ta.simplicial(2), ta.simplicial(3)),
    "dsum": lambda: direct_sum(ta.simplicial(3), ta.herm0(3, 1)),
    "unitalize": lambda: unitalization(ta.herm0(3, 1)),
    "deunitalize": lambda: deunitalization(unitalization(ta.herm0(3, 1))),
    "confext": lambda: ta.conformal_extension(ta.simplicial(3)),
}


@pytest.mark.parametrize("name", sorted(FLOAT_VIEW_FAMILIES))
def test_as_float_equals_the_fraction_tensor_rounding(name):
    A = FLOAT_VIEW_FAMILIES[name]()
    assert_same_float_algebra(ta.as_float(A), ref_as_float(A))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), python_ints=st.booleans(), data=st.data())
def test_as_float_rounds_large_numerators_as_fractions_do(n, python_ints, data):
    """Numerators in [2**53, 2**62) are int64 and not exact as floats; above
    2**62 they are Python ints.  Either way each entry is correctly
    rounded."""
    lo, hi = (2 ** 62, 2 ** 90) if python_ints else (2 ** 53, 2 ** 62 - 1)
    entry = st.one_of(st.just(0), st.integers(lo, hi), st.integers(-hi, -lo))

    def symmetric(shape):
        X = np.zeros(shape, dtype=object)
        for idx in itertools.product(range(n), repeat=len(shape)):
            if idx[0] <= idx[1]:
                X[idx] = X[(idx[1], idx[0]) + idx[2:]] = data.draw(entry)
        return X
    N, G = symmetric((n, n, n)), symmetric((n, n))
    D, DG = data.draw(st.integers(1, 2 ** 70)), data.draw(st.integers(1, 2 ** 70))
    A = MetrizedAlgebra._from_numerators(N, D, SymBilinearForm._from_numerators(G, DG))
    assert_same_float_algebra(ta.as_float(A), ref_as_float(A))
    plain = Algebra._from_numerators(N, D)
    assert_same_float_algebra(ta.as_float(plain), ref_as_float(plain))


def test_as_float_copies_a_float_algebra_unchanged():
    N = ta.as_float(ta.simplicial(3))._N.copy()
    N[N == 0] = -0.0
    G = 2 * np.eye(3)
    G[G == 0] = -0.0
    B = MetrizedAlgebra(N, G)
    C = ta.as_float(B)
    assert_same_float_algebra(C, B)
    assert np.signbit(C._N).any() and np.signbit(C.form._G).any()
    assert not np.shares_memory(C._N, B._N) and not np.shares_memory(C.form._G, B.form._G)


def test_no_public_signature_takes_a_tolerance():
    """Zero tests read the module constants EPS0 and EPS_RANK.  Only the
    real-eigenvalue split and the spectrum grouping radius take a tol."""
    members = [(name, getattr(ta, name)) for name in ta.__all__]
    for cls in (Algebra, MetrizedAlgebra, SymBilinearForm, Subspace):
        members += [("%s.%s" % (cls.__name__, name), member)
                    for name, member in inspect.getmembers(cls) if not name.startswith("_")]
    members = [(name, member) for name, member in members if callable(member)]
    assert {"Subspace", "Subspace.contains", "Algebra.is_exact", "decompose_ideals",
            "SymBilinearForm.inertia", "group_spectrum"} <= {name for name, _ in members}
    with_tol = {name for name, member in members
                if "tol" in inspect.signature(member).parameters}
    assert with_tol == {"general_real_eigenvalues", "group_spectrum"}
