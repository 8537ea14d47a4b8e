"""Scalar backends and small dense linear algebra.

Two backends are supported everywhere: exact rationals (numpy object
arrays holding fractions.Fraction) and binary64 floats.  Everything in
this module is deterministic: echelon pivots are the first nonzero row,
with largest-magnitude tie-break on the float backend.
"""
import math
from fractions import Fraction

import numpy as np

RATIONAL = "rational"
FLOAT = "float"

EPS0 = 1e-9      # default zero test
EPS_RANK = 1e-8  # default rank / inertia threshold
EPS_DEDUP = 1e-6  # default deduplication radius for numeric searches


def frac(p, q=1):
    return Fraction(p, q)


def zeros(shape, backend=RATIONAL):
    if backend == RATIONAL:
        a = np.empty(shape, dtype=object)
        a[...] = Fraction(0)
        return a
    return np.zeros(shape, dtype=float)


def eye(n, backend=RATIONAL):
    a = zeros((n, n), backend)
    one = Fraction(1) if backend == RATIONAL else 1.0
    for i in range(n):
        a[i, i] = one
    return a


def as_backend(data, backend):
    """Convert nested lists / arrays to the requested backend."""
    a = np.asarray(data)
    if backend == FLOAT:
        return np.asarray([float(x) for x in a.flat], dtype=float).reshape(a.shape)
    out = np.empty(a.shape, dtype=object)
    flat = out.reshape(-1)
    for i, x in enumerate(a.flat):
        flat[i] = x if isinstance(x, Fraction) else Fraction(x)
    return out


def to_float(a):
    a = np.asarray(a)
    return np.asarray([float(x) for x in a.flat], dtype=float).reshape(a.shape)


def backend_of(a):
    return RATIONAL if np.asarray(a).dtype == object else FLOAT


def is_zero(x, backend, tol=EPS0):
    if backend == RATIONAL:
        return x == 0
    return abs(x) <= tol


def max_abs(a):
    vals = [abs(x) for x in np.asarray(a).flat]
    return max(vals) if vals else 0


def parse_scalar(s):
    """Parse "p/q" strings, ints and floats into backend scalars."""
    if isinstance(s, str):
        if "/" in s:
            p, q = s.split("/")
            return Fraction(int(p), int(q))
        return Fraction(int(s))
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    return float(s)


def scalar_to_json(x):
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else str(x.numerator)
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(x)


def solve(A, b, backend=None):
    """Solve the square system A x = b exactly (rational) or via numpy."""
    if backend is None:
        backend = backend_of(A)
    if backend == FLOAT:
        return np.linalg.solve(to_float(A), to_float(b))
    A = as_backend(A, RATIONAL).copy()
    b = as_backend(b, RATIONAL).copy()
    n = A.shape[0]
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i, k] != 0), None)
        if piv is None:
            raise np.linalg.LinAlgError("singular rational system")
        if piv != k:
            A[[k, piv]] = A[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        for i in range(n):
            if i != k and A[i, k] != 0:
                f = A[i, k] / A[k, k]
                A[i] = A[i] - f * A[k]
                b[i] = b[i] - f * b[k]
    return np.array([b[i] / A[i, i] for i in range(n)], dtype=object)


def inv(A, backend=None):
    if backend is None:
        backend = backend_of(A)
    if backend == FLOAT:
        return np.linalg.inv(to_float(A))
    return solve(A, eye(A.shape[0]), RATIONAL)


def inertia(gram, backend=None, tol=EPS_RANK):
    """Return (n_plus, n_minus, n_zero) of a symmetric matrix.

    Rational backend: symmetric congruence diagonalization (exact).
    Float backend: eigenvalue counts with absolute threshold tol.
    """
    if backend is None:
        backend = backend_of(gram)
    if backend == FLOAT:
        w = np.linalg.eigvalsh(to_float(gram))
        pos = int(np.sum(w > tol))
        neg = int(np.sum(w < -tol))
        return pos, neg, len(w) - pos - neg
    A = as_backend(gram, RATIONAL).copy()
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


class SymBilinearForm:
    """A symmetric bilinear form given by its Gram matrix."""

    def __init__(self, gram, backend=None):
        if backend is None:
            backend = backend_of(gram)
        self.gram = as_backend(gram, backend)
        self.backend = backend
        n = self.gram.shape[0]
        assert self.gram.shape == (n, n)

    @property
    def dim(self):
        return self.gram.shape[0]

    def apply(self, x, y):
        return np.asarray(x) @ self.gram @ np.asarray(y)

    def norm2(self, x):
        return self.apply(x, x)

    def inertia(self, tol=EPS_RANK):
        return inertia(self.gram, self.backend, tol)

    def rank(self, tol=EPS_RANK):
        p, m, z = self.inertia(tol)
        return p + m

    def is_nondegenerate(self, tol=EPS_RANK):
        return self.rank(tol) == self.dim


def symmetric_eigen(M, tol=EPS0):
    """Eigenvalues (ascending) and orthonormal eigenvectors; float only."""
    w, V = np.linalg.eigh(to_float(M))
    return w, V


def general_real_eigenvalues(M, tol=EPS0):
    """Real eigenvalues of a general square matrix, sorted ascending.

    Returns (values, has_complex); complex pairs are excluded from the
    list and reported through the flag.
    """
    M = to_float(M)
    w = np.linalg.eigvals(M)
    scale = max(1.0, float(np.max(np.abs(w))) if len(w) else 1.0)
    real = sorted(float(z.real) for z in w if abs(z.imag) <= tol * scale)
    return real, len(real) < len(w)


def rational_eigenvalues(M):
    """Distinct rational eigenvalues of an exact square matrix, ascending.

    They are the rational roots of the minimal polynomial, the first exact
    dependency among I, M, M^2, ...; candidates come from the rational-root
    theorem and are tested exactly, so no float is involved.
    """
    powers = [eye(M.shape[0])]
    while True:
        powers.append(powers[-1] @ M)
        dependency = nullspace(np.stack([P.reshape(-1) for P in powers], axis=1), RATIONAL)
        if dependency.shape[1]:
            break
    scale = math.lcm(*(c.denominator for c in dependency[:, 0]))
    c = [int(x * scale) for x in dependency[:, 0]]
    low = next(k for k, x in enumerate(c) if x)      # x^low divides the polynomial
    candidates = {Fraction(s * p, q) for p in _divisors(abs(c[low]))
                  for q in _divisors(abs(c[-1])) for s in (1, -1)}
    roots = {r for r in candidates if sum(x * r ** k for k, x in enumerate(c)) == 0}
    return sorted(roots | ({Fraction(0)} if low else set()))


def _divisors(k):
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return set(small) | {k // d for d in small}


def column_echelon(cols, backend=None, tol=EPS0):
    """Reduce the columns of an n x k matrix to a deterministic echelon basis.

    Pivot row: first row with a nonzero entry among remaining columns;
    pivot column within that row: largest magnitude (float), first (rational).
    Returns an n x r matrix whose columns have leading 1 pivots.
    """
    A = np.array(cols, copy=True)
    if backend is None:
        backend = backend_of(A)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    n, k = A.shape
    scale = max(1.0, max_abs(A)) if backend == FLOAT else None
    out = []
    used = [False] * k
    for row in range(n):
        best = None
        for j in range(k):
            if used[j]:
                continue
            v = A[row, j]
            if backend == RATIONAL:
                if v != 0:
                    best = j
                    break
            elif abs(v) > tol * scale and (best is None or abs(v) > abs(A[row, best])):
                best = j
        if best is None:
            continue
        used[best] = True
        col = A[:, best] / A[row, best]
        for j in range(k):
            if not used[j] and not is_zero(A[row, j], backend, tol * (scale or 1)):
                A[:, j] = A[:, j] - A[row, j] * col
        for prev_row, prev in out:
            if not is_zero(col[prev_row], backend, tol * (scale or 1)):
                col = col - col[prev_row] * prev
        out.append((row, col))
        if len(out) == min(n, k):
            break
    if not out:
        return A[:, :0]
    return np.stack([c for _, c in out], axis=1)


def nullspace(M, backend=None, tol=EPS0):
    """Basis (columns) of the right nullspace of M."""
    M = np.array(M, copy=True)
    if backend is None:
        backend = backend_of(M)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    m, n = M.shape
    scale = max(1.0, max_abs(M)) if backend == FLOAT else 1
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            v = M[i, col]
            if backend == RATIONAL:
                if v != 0:
                    piv = i
                    break
            elif abs(v) > tol * scale and (piv is None or abs(v) > abs(M[piv, col])):
                piv = i
        if piv is None:
            continue
        if piv != row:
            M[[row, piv]] = M[[piv, row]]
        M[row] = M[row] / M[row, col]
        # only the pivot row's nonzeros change other rows; sparse systems
        # such as the commutant equations stay cheap
        support = np.flatnonzero(M[row] != 0)
        for i in range(m):
            if i != row and not is_zero(M[i, col], backend, tol * scale):
                M[i, support] = M[i, support] - M[i, col] * M[row, support]
        pivots.append(col)
        row += 1
        if row == m:
            break
    free = [j for j in range(n) if j not in pivots]
    basis = zeros((n, len(free)), backend)
    for idx, j in enumerate(free):
        basis[j, idx] = Fraction(1) if backend == RATIONAL else 1.0
        for r, pc in enumerate(pivots):
            basis[pc, idx] = -M[r, j]
    return basis


class Subspace:
    """A linear subspace stored via a deterministic echelon basis."""

    def __init__(self, basis, backend=None, tol=EPS0):
        basis = np.asarray(basis)
        if backend is None:
            backend = backend_of(basis)
        self.backend = backend
        self.tol = tol
        self.basis = column_echelon(basis, backend, tol)

    @classmethod
    def from_spanning(cls, vectors, backend=None, tol=EPS0):
        mat = np.stack([np.asarray(v) for v in vectors], axis=1)
        return cls(mat, backend, tol)

    @property
    def ambient_dim(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def contains(self, v, tol=None):
        tol = self.tol if tol is None else tol
        r = np.asarray(v).copy()
        if self.backend == FLOAT:
            scale = max(1.0, float(np.max(np.abs(r))) if r.size else 1.0)
        for j in range(self.dim):
            col = self.basis[:, j]
            lead = next(i for i in range(len(col))
                        if not is_zero(col[i], self.backend, 1e-12))
            r = r - r[lead] * col
        if self.backend == RATIONAL:
            return all(x == 0 for x in r)
        return float(np.max(np.abs(r))) <= tol * scale if r.size else True

    def equals(self, other):
        return (self.dim == other.dim
                and all(other.contains(self.basis[:, j]) for j in range(self.dim)))


def orthogonal_complement(S, form, tol=EPS0):
    """Orthogonal complement of a subspace w.r.t. a nondegenerate form."""
    C = (S.basis.T @ form.gram)
    comp = Subspace(nullspace(C, form.backend, tol), form.backend, tol)
    if comp.dim != S.ambient_dim - S.dim:
        raise ValueError("form degenerate on this configuration")
    return comp
