"""Scalar kinds and small dense linear algebra.

An array's dtype says which kind of scalar it holds: an object array of
fractions.Fraction, or an integer array, is exact (RATIONAL), a float64
array is FLOAT.  Functions read the kind from their input; only builders
that start from nothing (zeros, eye, the target of as_backend) are told
it.  Everything in this module is deterministic: echelon pivots are the
first nonzero entry, with the largest-magnitude entry chosen on floats.

There is one elimination routine for each kind of scalar: exact rows are
reduced fraction-free, as integers (_reduce_integer_rows), float rows by
_reduce_rows.  Solves, nullspaces and subspaces all go through them, and a
Subspace is stored in the reduced row echelon form _reduce_rows returns,
which is canonical for exact subspaces.

Exact contractions do not multiply Fractions.  They run on integer
numerators N over one common denominator D (_numerators), in a dtype that
rules out overflow before they start (_contract), and only their results
become Fractions (_fractions).  A float array is its own numerator over
D = 1, so the same code serves both kinds.
"""
import math
from fractions import Fraction

import numpy as np

RATIONAL = "rational"
FLOAT = "float"

EPS0 = 1e-9      # zero test of float data, relative to its scale
EPS_RANK = 1e-8  # absolute eigenvalue threshold of the float inertia
EPS_DEDUP = 1e-6  # deduplication radius (max-norm) of the numeric searches

_ZERO = Fraction(0)


def zeros(shape, backend=RATIONAL):
    if backend == RATIONAL:
        a = np.empty(shape, dtype=object)
        a[...] = Fraction(0)
        return a
    return np.zeros(shape, dtype=float)


def eye(n, backend=RATIONAL):
    a = zeros((n, n), backend)
    a[np.diag_indices(n)] += 1          # Fraction(0) + 1 stays a Fraction
    return a


def as_backend(data, backend):
    """A new array holding nested lists / arrays as the requested kind."""
    if backend == FLOAT:
        return np.array(data, dtype=float)
    a = np.asarray(data)
    out = np.empty(a.shape, dtype=object)
    flat = out.reshape(-1)
    for i, x in enumerate(a.flat):
        flat[i] = x if isinstance(x, Fraction) else Fraction(x)
    return out


def to_float(a):
    return np.array(a, dtype=float)


def backend_of(a):
    return RATIONAL if np.asarray(a).dtype.kind in "Oiu" else FLOAT


def _is_zero(x, tol=EPS0, scale=None):
    """Entrywise zero test of a scalar or an array: the one rule behind
    every verdict, pivot and read-off in the package.

    Exact data (Fractions or integer numerators) is zero when it equals 0.
    Float data is zero when abs(x) <= tol * max(1, scale()); scale is
    called only on float data, so no exact array is ever scanned for a
    tolerance.
    """
    if np.asarray(x).dtype.kind in "Oiu":       # Fractions or integers
        return x == 0
    return np.abs(x) <= tol * max(1.0, scale() if scale else 1.0)


def is_zero(x):
    """True when every entry of x is zero: exactly, or within EPS0 on floats."""
    return bool(np.all(_is_zero(x)))


def max_abs(a):
    a = np.asarray(a)
    if not a.size:
        return 0
    if a.dtype.kind in "iu":            # abs of the int64 minimum wraps
        return max(int(a.max()), -int(a.min()))
    return np.max(np.abs(a))


# numpy int64 arithmetic wraps silently; numerators and contraction bounds
# that reach this are Python ints instead, so the sum or difference of two
# int64 numerators still fits
_INT64_LIMIT = 2 ** 62


def _numerators(a):
    """(N, D) with a == N / D entrywise.

    Exact data: D is the lcm of the denominators and N holds integer
    numerators, int64 when every |N| < 2**62 and Python ints otherwise.
    Float data is (a, 1).  A scalar gives a Python number N.
    """
    a = np.asarray(a)
    if a.dtype.kind == "f":
        N, D = a, 1
    else:
        flat = a.ravel().tolist()
        D = math.lcm(*{x.denominator for x in flat})
        N = _integers([x.numerator * (D // x.denominator) for x in flat], a.shape)
    return (N.item() if N.ndim == 0 else N), D


def _integers(nums, shape):
    """The Python ints nums as an array of the given shape: int64 when
    every |x| < 2**62, an object array otherwise."""
    small = max(map(abs, nums), default=0) < _INT64_LIMIT
    return np.array(nums, dtype=np.int64 if small else object).reshape(shape)


def _lowest_terms(N, D):
    """(N / g, D / g) for g the gcd of D and every entry of integer N, N in
    the dtype _numerators gives it.  Of integer numerators over any common
    denominator, this makes the pair _numerators returns for N / D.  Float
    N comes back divided by D, over 1."""
    N = np.asarray(N)
    if N.dtype.kind == "f":
        return N / D, 1
    nonzero = N[N != 0]                 # a zero is a multiple of anything
    g = math.gcd(D, int(np.gcd.reduce(nonzero)))
    if g != 1:
        N, nonzero = N // g, nonzero // g
    return N.astype(np.int64 if max_abs(nonzero) < _INT64_LIMIT else object), D // g


def _fractions(N, D):
    """N / D: Fractions for integer N (an object array, or one Fraction
    for a scalar), floats for float N."""
    N = np.asarray(N)
    if N.dtype.kind == "f":
        return N / D
    if N.ndim == 0:
        return Fraction(N.item(), D)
    out = np.empty(N.shape, dtype=object)
    out.reshape(-1)[:] = [_ZERO if p == 0 else Fraction(p, D) for p in N.ravel().tolist()]
    return out


def _floats(N, D):
    """N / D as float64, each entry correctly rounded: integer N is divided
    as Python ints, as float(Fraction(p, D)) divides them."""
    N = np.asarray(N)
    if N.dtype.kind == "f":
        return N / D
    return np.array([p / D for p in N.ravel().tolist()], dtype=float).reshape(N.shape)


def _contract(fn, terms, *operands):
    """fn(*operands), with integer operands in a dtype it cannot overflow.

    Every entry fn computes, and every partial sum on the way, must be a
    sum of at most `terms` products that take at most one factor from each
    operand (a coefficient is a scalar operand; pass an array once per
    factor it supplies).  Its magnitude is then at most terms times the
    product of max(1, max |operand|).  Below 2**62 the operands go in as
    int64, otherwise as Python ints, which are exact at any size.  Float
    operands go in as they are.  A scalar result comes back as a Python
    number.
    """
    arrays = [np.asarray(op) for op in operands]
    if any(a.dtype.kind == "f" for a in arrays):
        out = fn(*operands)
    else:
        bound = terms
        for a in arrays:
            bound *= max(1, int(max_abs(a)))
        dtype = np.int64 if bound < _INT64_LIMIT else object
        out = fn(*(a.astype(dtype, copy=False) for a in arrays))
    return np.asarray(out).item() if np.ndim(out) == 0 else out


def _matmul(A, B):
    """A @ B, of exact matrices as one contraction of integer numerators:
    only the product's entries become Fractions."""
    (X, DA), (Y, DB) = _numerators(A), _numerators(B)
    # each entry sums A.shape[-1] products
    return _fractions(_contract(np.matmul, A.shape[-1], X, Y), DA * DB)


def _residual(X, DX, Y, DY, c=1):
    """(e, L) with e / L = max |X / DX - c Y / DY| over the entries of
    integer numerators X, Y and a scalar c."""
    p, q = _numerators(c)
    L = math.lcm(DX, q * DY)
    # two products per entry
    e = _contract(lambda x, y, cx, cy: max_abs(cx * x - cy * y), 2,
                  X, Y, L // DX, p * (L // (q * DY)))
    return e, L


def parse_scalar(s):
    """The exact Fraction of a string ("p/q", an integer, a decimal) or an
    int.  A float, which JSON reads as a binary expansion, and a zero
    denominator raise ValueError."""
    return Fraction(*_parse_ratio(s))


def _parse_ratio(s):
    """(p, q), integers with s == p / q and q != 0, not always in lowest
    terms, of what parse_scalar reads; it raises as parse_scalar does."""
    if isinstance(s, str):
        p, slash, q = s.partition("/")
        try:
            # int() reads the integers and "p/q" that files hold faster than
            # Fraction's parser, which reads decimals as well
            p, q = int(p), int(q) if slash else 1
        except ValueError:
            s = Fraction(s)
            return s.numerator, s.denominator
        if q == 0:
            raise ValueError("zero denominator in %r" % (s,))
        return p, q
    if isinstance(s, float):
        raise ValueError("float %r where an exact value is needed" % (s,))
    s = Fraction(s)
    return s.numerator, s.denominator


def _json_values(N, D):
    """The entries of the 1-D N / D as JSON values, read back by parse_scalar:
    "p/q" in lowest terms, or "p" when q = 1, for integer N, and floats
    for float N."""
    if N.dtype.kind == "f":
        return (N / D).tolist()
    out = []
    for p in N.tolist():
        g = math.gcd(p, D)
        out.append(str(p // g) if g == D else "%d/%d" % (p // g, D // g))
    return out


def solve(A, b):
    """Solve the square system A x = b exactly (exact A) or via numpy.

    The exact path reduces [A | b] once; a missing pivot among the columns
    of A means A is singular.
    """
    if backend_of(A) == FLOAT:
        return np.linalg.solve(to_float(A), to_float(b))
    n = len(A)
    if np.shape(A) != (n, n):
        raise np.linalg.LinAlgError("A of shape %s is not square" % (np.shape(A),))
    b = np.asarray(b)
    S = _row_numerators(as_backend(np.column_stack([A, b]), RATIONAL))
    X = _fractions(*_solve_numerators(S[:, :n], S[:, n:]))
    return X[:, 0] if b.ndim == 1 else X


def _solve_numerators(A, B):
    """(X, E) with A X = E B: the solution X / E of a square system of
    integer numerators, reduced once as [A | B]; float A and B are solved
    by numpy, with E = 1.  A singular A raises LinAlgError."""
    if A.dtype.kind == "f":
        return np.linalg.solve(A, B), 1
    n = len(A)
    R, pivots = _reduce_integer_rows(np.hstack([A, B]))
    if pivots[:n] != list(range(n)):
        raise np.linalg.LinAlgError("singular rational system")
    p = [int(x) for x in R[range(n), range(n)]]
    E = math.lcm(*p)
    # one product per entry
    return _contract(lambda r, c: r * c[:, None], 1, R[:, n:],
                     _integers([E // x for x in p], (n,))), E


def inv(A):
    if backend_of(A) == FLOAT:
        return np.linalg.inv(to_float(A))
    return solve(A, eye(len(A)))


def inertia(gram):
    """Return (n_plus, n_minus, n_zero) of a symmetric matrix.

    Exact (Fractions, or integers such as the numerators of a Gram matrix
    over a positive denominator, which has the same inertia): symmetric
    congruence diagonalization on integers.  The pivot is the first
    diagonal entry d; a zero one is swapped with the next nonzero diagonal
    entry, or else the first row and column with a nonzero off-diagonal
    entry are added to it.  Eliminating the pivot's column a leaves the
    trailing block B congruent to B - a a^T / d, which |d| B - sign(d) a a^T
    scales by |d| > 0; it is divided by its content, so no Fraction is made.
    Float: eigenvalue counts with absolute threshold EPS_RANK.
    """
    A = np.asarray(gram)
    if A.dtype.kind == "f":
        w = np.linalg.eigvalsh(A)
        pos = int(np.sum(w > EPS_RANK))
        neg = int(np.sum(w < -EPS_RANK))
        return pos, neg, len(w) - pos - neg
    A = _numerators(A)[0] if A.dtype.kind == "O" else A.copy()
    pos = neg = zero = 0
    while len(A):
        if A[0, 0] == 0:
            diagonal = np.flatnonzero(np.diagonal(A))
            row = np.flatnonzero(A[0])
            if diagonal.size:
                j = diagonal[0]
                A[[0, j]] = A[[j, 0]]
                A[:, [0, j]] = A[:, [j, 0]]
            elif row.size:
                # A[0, 0] becomes 2 A[0, j]; an entry sums at most four of A
                A = _contract(lambda b: _add_to_first(b, row[0]), 4, A)
            else:
                zero += 1
                A = A[1:, 1:]
                continue
        d, a, A = int(A[0, 0]), A[1:, 0], A[1:, 1:]
        if d > 0:
            pos += 1
        else:
            neg += 1
        if np.any(a != 0):
            # two products per entry: |d| B[i, l] and a[i] a[l]
            op = np.subtract if d > 0 else np.add
            A = _contract(lambda b, x, y, c: op(c * b, np.multiply.outer(x, y)), 2,
                          A, a, a, abs(d))
            g = np.gcd.reduce(A.ravel())
            if g > 1:
                A //= g
    return pos, neg, zero


def _add_to_first(A, j):
    """A with row and column j added to row and column 0, in place."""
    A[0] += A[j]
    A[:, 0] += A[:, j]
    return A


class SymBilinearForm:
    """A symmetric bilinear form given by its Gram matrix G / DG.

    Its state is the pair (G, DG), as _numerators gives it: integers in
    lowest terms, or float G over 1.  The Gram matrix, read-only, is G
    itself on a float form; its Fractions are made when first read.
    """

    def __init__(self, gram):
        g = as_backend(gram, backend_of(gram))
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("Gram matrix of shape %s is not square" % (g.shape,))
        self._init(*_numerators(g))
        g.setflags(write=False)
        self._gram = g

    @classmethod
    def _from_numerators(cls, G, DG):
        """The form of Gram matrix G / DG for integer G (or float G), without
        making its Fractions."""
        form = cls.__new__(cls)
        form._init(G, DG)
        return form

    def _init(self, G, DG):
        self._G, self._DG = _lowest_terms(G, DG)
        self._gram = None

    @property
    def gram(self):
        if self._gram is None:
            self._gram = (self._G.view() if self._G.dtype.kind == "f"
                          else _fractions(self._G, self._DG))
            self._gram.setflags(write=False)
        return self._gram

    @property
    def backend(self):
        return FLOAT if self._G.dtype.kind == "f" else RATIONAL

    @property
    def dim(self):
        return self._G.shape[0]

    def apply(self, x, y):
        return np.asarray(x) @ self.gram @ np.asarray(y)

    def norm2(self, x):
        return self.apply(x, x)

    def inertia(self):
        return inertia(self._G)

    def rank(self):
        p, m, z = self.inertia()
        return p + m

    def is_nondegenerate(self):
        return self.rank() == self.dim


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
    theorem and are tested exactly, so no float is involved.  With M = X / E
    for integer X, the powers are the integer X^k over E^k, and a dependency
    a' among the columns X^k is the dependency a'_k E^k among the M^k.
    """
    X, E = _numerators(M)
    powers = [np.eye(len(X), dtype=np.int64)]
    while True:
        # each entry sums n products
        powers.append(_contract(np.matmul, len(X), powers[-1], X))
        R, pivots = _reduce_integer_rows(np.column_stack([P.reshape(-1) for P in powers]))
        if len(pivots) < len(powers):
            break
    K = _kernel(_rref(R, pivots), pivots)
    free = next(j for j in range(len(powers)) if j not in pivots)
    dependency = [x * Fraction(E ** k, E ** free) for k, x in enumerate(K[:, 0])]
    scale = math.lcm(*(c.denominator for c in dependency))
    c = [int(x * scale) for x in dependency]
    low = next(k for k, x in enumerate(c) if x)      # x^low divides the polynomial
    candidates = {Fraction(s * p, q) for p in _divisors(abs(c[low]))
                  for q in _divisors(abs(c[-1])) for s in (1, -1)}
    roots = {r for r in candidates if sum(x * r ** k for k, x in enumerate(c)) == 0}
    return sorted(roots | ({Fraction(0)} if low else set()))


def _divisors(k):
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return set(small) | {k // d for d in small}


def _reduce_rows(M):
    """Reduced row echelon form of M: (the nonzero rows, their pivot columns).

    Each pivot column holds a leading 1 in its row and exactly 0 in every
    other row.  Exact M is reduced without Fractions: each row is scaled to
    integers by the lcm of its denominators, which leaves the reduced form
    as it is, then _reduce_integer_rows runs, and the rows become Fractions
    once, at the end (_rref).  Float pivots are the largest entry above EPS0
    times the largest |entry| of M.  The tolerance only chooses pivots:
    every row with a nonzero entry in a pivot column is eliminated, since
    the normalised pivot rows no longer share the scale of M.
    """
    if backend_of(M) == RATIONAL:
        R, pivots = _reduce_integer_rows(_row_numerators(np.asarray(M)))
        return _rref(R, pivots), pivots
    M = np.array(M, dtype=float)                      # a copy
    m, n = M.shape
    bound = EPS0 * max(1.0, max_abs(M))
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        nonzero = M[:, col] != 0                   # the rows to eliminate
        live = row + np.flatnonzero(nonzero[row:])
        live = live[~_is_zero(M[live, col], bound)]
        if not live.size:
            continue
        piv = live[np.argmax(np.abs(M[live, col]))]
        if piv != row:
            M[[row, piv]] = M[[piv, row]]
            nonzero[[row, piv]] = nonzero[[piv, row]]
        # only the pivot row's nonzeros change it and the other rows; sparse
        # systems such as the commutant equations stay cheap
        support = np.flatnonzero(M[row] != 0)
        M[row, support] = M[row, support] / M[row, col]
        for i in np.flatnonzero(nonzero):
            if i != row:
                M[i, support] = M[i, support] - M[i, col] * M[row, support]
        pivots.append(col)
    return M[:len(pivots)], pivots


def _row_numerators(M):
    """Each row of an exact matrix times the lcm of its denominators, as
    integers (int64 or Python ints, as _integers decides)."""
    nums = []
    for row in M.tolist():
        D = math.lcm(*(x.denominator for x in row))
        nums += [x.numerator * (D // x.denominator) for x in row]
    return _integers(nums, M.shape)


def _reduce_integer_rows(M):
    """Fraction-free Gauss-Jordan elimination of an integer matrix, int64 or
    an object array of Python ints, which it overwrites: (rows, pivots),
    the integer rows spanning the row space of M.

    Each pivot column is nonzero in its own row only, and row i divided by
    its entry in column pivots[i] is row i of the reduced row echelon form
    (_rref).  Pivots are the first nonzero entry of a column.  A pivot row
    is divided by its content (the gcd of its entries); every other row
    with c != 0 in the pivot column becomes p * row - c * (pivot row), with
    p the pivot, divided by its content, so entries stay small (Bareiss,
    Math. Comp. 22, 1968, divides by the previous pivot instead).  A step
    runs on int64 when its bound |p| max|rows| + max|c| max|pivot row| is
    below 2**62, on Python ints otherwise.  Zero rows sink and are dropped.
    """
    m, n = M.shape
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        nonzero = np.flatnonzero(M[:, col] != 0)
        live = nonzero[nonzero >= row]
        if not live.size:
            continue
        piv = live[0]
        others = nonzero[nonzero != piv]
        if piv != row:                  # row has a 0 in col: it is not in others
            M[[row, piv]] = M[[piv, row]]
        P = M[row] // np.gcd.reduce(M[row])
        M[row] = P
        if others.size:
            # only the pivot row's nonzeros change the other rows; sparse
            # systems such as the commutant equations stay cheap
            support = np.flatnonzero(P)
            P = P[support]
            C, c = M[others], M[others, col]
            p = int(P[support.searchsorted(col)])
            # int64 entries here are below 2**63 in magnitude (inputs below
            # 2**62, or differences of two such), so np.abs cannot wrap
            bound = (abs(p) * int(np.abs(C).max())
                     + int(np.abs(c).max()) * int(np.abs(P).max()))
            dtype = np.int64 if bound < _INT64_LIMIT else object
            if dtype is object and M.dtype != object:
                M = M.astype(object)
            C = C.astype(dtype, copy=False)
            C *= p
            C[:, support] -= c.astype(dtype)[:, None] * P.astype(dtype)
            g = np.gcd.reduce(C, axis=1)
            g[g == 0] = 1
            C //= g[:, None]
            M[others] = C
        pivots.append(col)
    return M[:len(pivots)], pivots


def _rref(R, pivots):
    """The reduced row echelon form, as Fractions, of the integer rows and
    pivots of _reduce_integer_rows: row i divided by R[i, pivots[i]]."""
    out = np.empty(R.shape, dtype=object)
    for i, (row, p) in enumerate(zip(R.tolist(), pivots)):
        d = row[p]
        out[i] = [_ZERO if x == 0 else Fraction(x, d) for x in row]
    return out


def _kernel(R, pivots):
    """Basis (columns) of the right nullspace of a reduced row echelon form."""
    n = R.shape[1]
    free = [j for j in range(n) if j not in pivots]
    basis = zeros((n, len(free)), backend_of(R))
    for idx, j in enumerate(free):
        basis[j, idx] += 1
        basis[pivots, idx] = -R[:, j]
    return basis


def nullspace(M):
    """Basis (columns) of the right nullspace of M."""
    M = np.asarray(M)
    return _kernel(*_reduce_rows(M.reshape(1, -1) if M.ndim == 1 else M))


class Subspace:
    """A linear subspace, stored as the reduced row echelon form of its
    spanning vectors: rows R (dim x ambient_dim) with pivot columns p.

    R[:, p] is the identity, so v lies in the subspace exactly when its
    residual v - v[p] @ R is zero.  An exact subspace is canonical: every
    spanning set of it gives the same R and p.
    """

    def __init__(self, basis):
        """basis: spanning vectors as columns (a 1-D array is one vector)."""
        B = np.asarray(basis)
        self.rows, self.pivots = _reduce_rows((B[:, None] if B.ndim == 1 else B).T)
        self.rows.setflags(write=False)

    @classmethod
    def from_spanning(cls, vectors):
        return cls(np.stack([np.asarray(v) for v in vectors], axis=1))

    @property
    def basis(self):
        """The rows as columns, read-only."""
        return self.rows.T

    @property
    def backend(self):
        return backend_of(self.rows)

    @property
    def ambient_dim(self):
        return self.rows.shape[1]

    @property
    def dim(self):
        return self.rows.shape[0]

    def _outside(self, V):
        """The residuals v - v[p] @ R of the rows v of V that lie outside
        the subspace, each up to a positive factor.  Exact rows (Fractions,
        or integer numerators over any common denominator) are tested on
        integers.  When V or the subspace is float, both are read as floats
        and zero-tested at the scale of the largest entry of V."""
        if self.backend == FLOAT or V.dtype.kind == "f":
            V = np.asarray(V, dtype=float)
            r = V - V[:, self.pivots] @ np.asarray(self.rows, dtype=float)
            return r[~np.all(_is_zero(r, scale=lambda: max_abs(V)), axis=1)]
        X = V if V.dtype.kind in "iu" else _numerators(V)[0]
        R, DR = _numerators(self.rows)
        # an entry sums dim products of X and R, and one of X and DR
        r = _contract(lambda x, rows, d: d * x - x[:, self.pivots] @ rows,
                      self.dim + 1, X, R, DR)
        return r[np.any(r != 0, axis=1)]

    def contains(self, V):
        """True when the vector V, or every row of the stack V, lies in the
        subspace.  A float stack is zero-tested at the scale of its largest
        entry, not row by row."""
        V = np.atleast_2d(np.asarray(V))
        return not len(self._outside(V))

    def equals(self, other):
        """Same subspace: equal pivots and rows, exactly, or within EPS0 when
        either subspace is float."""
        if self.pivots != other.pivots:
            return False
        diff = self.rows - other.rows
        if FLOAT in (self.backend, other.backend):
            diff = diff.astype(float)           # exact minus float rows are floats
        return bool(np.all(_is_zero(diff, scale=lambda: max_abs(self.rows))))


def orthogonal_complement(S, form):
    """Orthogonal complement of a subspace w.r.t. a nondegenerate form."""
    comp = Subspace(nullspace(_matmul(S.rows, form.gram)))
    if comp.dim != S.ambient_dim - S.dim:
        raise ValueError("form degenerate on this configuration")
    return comp
