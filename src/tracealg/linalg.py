"""Scalar kinds and small dense linear algebra.

An array's dtype says which kind of scalar it holds: an object array of
fractions.Fraction, or an integer array, is exact (RATIONAL), a float64
array is FLOAT.  Functions read the kind from their input (backend_of)
and are never told it: zeros and eye build exact arrays, and _read, the
one reader of caller arrays, reads a Gram matrix, a basis or a right side
in the kind of what it joins.  Everything in this module is
deterministic: echelon pivots are the first nonzero entry, with the
largest-magnitude entry chosen on floats.

There is one elimination entry, _reduce_rows.  It keeps its input's kind:
exact rows are reduced fraction-free, as integers (_reduce_integer_rows),
float rows to their reduced row echelon form, and _echelon reads both as
numerators N over one denominator D.  Solves, nullspaces and subspaces all
go through them; a Subspace is that pair, canonical when exact.

Exact contractions do not multiply Fractions.  They run on integer
numerators N over one common denominator D (_numerators), in a dtype that
rules out overflow before they start (_contract: float64 BLAS for large
products below 2**53, else int64 or Python ints), and only their results
become Fractions (_fractions, or _view for a read-only array).  A float
array is its own numerator over D = 1, so the same code serves both kinds.
"""
import math
import sys
from fractions import Fraction

import numpy as np

RATIONAL = "rational"
FLOAT = "float"

EPS0 = 1e-9      # zero test of float data, relative to its scale
EPS_RANK = 1e-8  # absolute eigenvalue threshold of the float inertia
EPS_DEDUP = 1e-6  # deduplication radius (max-norm) of the numeric searches

_ZERO = Fraction(0)


def zeros(shape):
    """An exact array of zeros (Fractions) of the given shape."""
    return _fractions(np.zeros(shape, dtype=np.int64), 1)


def eye(n):
    """The exact n x n identity (Fractions)."""
    return _fractions(np.eye(n, dtype=np.int64), 1)


def to_float(a):
    return np.array(a, dtype=float)


def backend_of(a):
    return RATIONAL if np.asarray(a).dtype.kind in "Oiu" else FLOAT


def _is_zero(x, scale=None):
    """Entrywise zero test of a scalar or an array: the one rule behind
    every verdict, pivot and read-off in the package.

    Exact data (Fractions or integer numerators) is zero when it equals 0.
    Float data is zero when abs(x) <= EPS0 * max(1, scale()); scale is
    called only on float data, so no exact array is ever scanned for a
    tolerance.
    """
    if np.asarray(x).dtype.kind in "Oiu":       # Fractions or integers
        return x == 0
    return np.abs(x) <= EPS0 * max(1.0, scale() if scale else 1.0)


def is_zero(x):
    """True when every entry of x is zero: exactly, or within EPS0 on floats."""
    return bool(np.all(_is_zero(x)))


def max_abs(a):
    a = np.asarray(a)
    if not a.size:
        return 0
    if a.dtype.kind in "iu":            # abs of the int64 minimum wraps
        return max(int(np.maximum.reduce(a, None)), -int(np.minimum.reduce(a, None)))
    return np.max(np.abs(a))


# numpy int64 arithmetic wraps silently; numerators and contraction bounds
# that reach this are Python ints instead, so the sum or difference of two
# int64 numerators still fits
_INT64_LIMIT = 2 ** 62
# float64 holds every integer below this exactly; _contract runs a product
# bounded below it on float64 BLAS when its work reaches _FLOAT64_WORK
_FLOAT64_LIMIT = 2 ** 53
_FLOAT64_WORK = 2 ** 14


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
    N comes back divided by D, over 1.  An int64 N already in lowest terms
    comes back as it is, not copied: the algebras, forms and subspaces
    that keep it never write to it."""
    N = np.asarray(N)
    if N.dtype.kind == "f":
        return N / D, 1
    nonzero = N[N != 0]                 # a zero is a multiple of anything
    g = math.gcd(D, int(np.gcd.reduce(nonzero)))
    if g != 1:
        N, nonzero = N // g, nonzero // g
    return N.astype(np.int64 if max_abs(nonzero) < _INT64_LIMIT else object, copy=False), D // g


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


def _view(N, D):
    """N / D, read-only: Fractions for integer N, N itself for float N."""
    out = N.view() if N.dtype.kind == "f" else _fractions(N, D)
    out.setflags(write=False)
    return out


def _made_once(name, make):
    """A read-only property of value make(obj), made on first read and kept
    in obj's attribute `name`, which starts as None."""
    def get(obj):
        if getattr(obj, name) is None:
            setattr(obj, name, make(obj))
        return getattr(obj, name)
    return property(get)


def _contract(fn, terms, *operands):
    """fn(*operands), with integer operands in a dtype it cannot overflow.

    The bound is terms times the product of max(1, max |operand|), and
    integer operands take one of three tiers by it:

    - float64, when the bound is below 2**53 and the work, terms times the
      size of the largest operand, reaches _FLOAT64_WORK.  Every integer
      below 2**53 is a float64, so the sums are exact in any order BLAS
      takes them (Dumas, Giorgi and Pernet, ACM TOMS 35, 2008); the result
      comes back as int64.  Smaller work stays on int64, where the float64
      copies of the operands cost more than BLAS saves.
    - int64, when the bound is below 2**62.
    - Python ints otherwise, which are exact at any size.

    The bound holds when callers keep two rules.  First, fn only adds,
    subtracts, multiplies, sums, traces or takes max_abs (or the largest of
    several) of its operands, and every array it adds or multiplies is an
    operand, passed once per factor it supplies; index lists, shapes and
    ints may be closures.  Second, `terms` is a true count: every entry fn
    computes, and every partial sum on the way, is a sum of at most `terms`
    products that take at most one factor from each operand, as a float64
    sum past 2**53 rounds where int64 had headroom to 2**62.  Float
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
        if bound < _FLOAT64_LIMIT and terms * max(a.size for a in arrays) >= _FLOAT64_WORK:
            out = np.asarray(fn(*(a.astype(np.float64) for a in arrays))).astype(np.int64)
        else:
            dtype = np.int64 if bound < _INT64_LIMIT else object
            out = fn(*(a.astype(dtype, copy=False) for a in arrays))
    return np.asarray(out).item() if np.ndim(out) == 0 else out


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
    int.  A float, which JSON reads as a binary expansion, a bool, which
    JSON reads from true and false, and a zero denominator raise ValueError."""
    return Fraction(*_parse_ratio(s))


def _parse_ratio(s):
    """(p, q), integers with s == p / q and q > 0, not always in lowest
    terms, of what parse_scalar reads; it raises as parse_scalar does."""
    if isinstance(s, str):
        p, slash, q = s.partition("/")
        try:
            # int() reads the integers and "p/q" that files hold faster than
            # Fraction's parser, which reads decimals as well
            p, q = int(p), int(q) if slash else 1
        except ValueError:
            _check_exponent(s)
            s = Fraction(s)
            return s.numerator, s.denominator
        if q == 0:
            raise ValueError("zero denominator in %r" % (s,))
        return (p, q) if q > 0 else (-p, -q)
    if isinstance(s, (float, bool)):
        raise ValueError("%s %r where an exact value is needed" % (type(s).__name__, s))
    s = Fraction(s)
    return s.numerator, s.denominator


def _check_exponent(s):
    """Refuse a decimal string whose exponent has a magnitude above
    sys.get_int_max_str_digits() (when it is nonzero), with ValueError.
    Fraction would build 10**exponent, which takes seconds and more as
    the exponent grows, while Python already refuses an integer string of
    that many digits."""
    limit = sys.get_int_max_str_digits()
    _, e, exponent = s.lower().rpartition("e")
    if not (limit and e):
        return
    try:
        exponent = int(exponent)
    except ValueError:
        return                          # not a decimal: Fraction says so
    if abs(exponent) > limit:
        raise ValueError("decimal exponent above %d in magnitude in %.40r" % (limit, s))


def _json_values(N, D):
    """The entries of the 1-D N / D as JSON values, read back by parse_scalar:
    "p/q" in lowest terms, or "p" when q = 1, for integer N, and floats
    for float N.  An algebra repeats few values, so each distinct
    numerator is formatted once and the entries are looked up."""
    if N.dtype.kind == "f":
        return (N / D).tolist()
    nums = N.tolist()
    text = {}
    for p in set(nums):
        g = math.gcd(p, D)
        text[p] = str(p // g) if g == D else "%d/%d" % (p // g, D // g)
    return list(map(text.__getitem__, nums))


def _read(data, kind=None):
    """(N, D) of nested lists or an array, as _numerators gives them, read
    in kind, or in its own (backend_of) when kind is None: the one reader
    of the matrices and tensors a caller passes in.  Integers and Fractions
    go to _numerators as they are, and FLOAT reads anything as floats; only
    where RATIONAL is asked of anything else, floats among it, is each
    entry read as the Fraction it equals, a float as its binary fraction."""
    a = np.asarray(data)
    if (kind or backend_of(a)) == FLOAT:
        return np.array(a, dtype=float), 1
    exact = a.dtype.kind in "iu" or (a.dtype.kind == "O"
                                     and {type(x) for x in a.flat} <= {int, Fraction})
    return _numerators(a if exact else np.frompyfunc(Fraction, 1, 1)(a))


def solve(A, b):
    """Solve the square system A x = b exactly (exact A) or via numpy
    (float A), through _solve_numerators; b is read in A's kind."""
    n = len(A)
    if np.shape(A) != (n, n):
        raise np.linalg.LinAlgError("A of shape %s is not square" % (np.shape(A),))
    b = np.asarray(b)
    S, _ = _read(np.column_stack([A, b]), backend_of(A))
    X = _fractions(*_solve_numerators(S[:, :n], S[:, n:]))
    return X[:, 0] if b.ndim == 1 else X


def _solve_numerators(A, B):
    """(X, E) with A X = E B: the solution X / E, in lowest terms, of a square
    exact system, read off the echelon form of [A | B] (_echelon); float A
    and B are solved by numpy, with E = 1.  A singular A raises LinAlgError."""
    if A.dtype.kind == "f":
        return np.linalg.solve(A, B), 1
    n = len(A)
    R, pivots = _reduce_rows(np.hstack([A, B]))
    if pivots[:n] != list(range(n)):
        raise np.linalg.LinAlgError("singular rational system")
    N, E = _echelon(R, pivots)
    return N[:, n:], E


def inv(A):
    return solve(A, np.eye(len(A), dtype=np.int64))


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
            A = _divide_content(_contract(lambda b, x, y, c: op(c * b, np.multiply.outer(x, y)),
                                          2, A, a, a, abs(d)))
    return pos, neg, zero


def _divide_content(X, axis=None):
    """X divided by its content along axis, or all of X when axis is None:
    integers by their gcd (a zero slice stays), floats by max(1, max |x|)."""
    if X.dtype.kind == "f":
        return X / np.max(np.abs(X), axis=axis, keepdims=True, initial=1.0)
    g = np.gcd.reduce(X, axis=axis, keepdims=True, initial=0)      # never negative
    return X // np.maximum(g, 1)


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
        self._init(*_read(gram))

    @classmethod
    def _from_numerators(cls, G, DG):
        """The form of Gram matrix G / DG for integer G (or float G), without
        making its Fractions."""
        form = cls.__new__(cls)
        form._init(G, DG)
        return form

    def _init(self, G, DG):
        if np.ndim(G) != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("Gram matrix of shape %s is not square" % (np.shape(G),))
        self._G, self._DG = _lowest_terms(G, DG)
        self._gram = None

    gram = _made_once("_gram", lambda form: _view(form._G, form._DG))

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

    With M = X / E for integer X, they are mu / E for the integer roots mu
    of the minimal polynomial of X, the first exact dependency among the
    integer powers I, X, X^2, ...  That polynomial is monic with integer
    coefficients (Gauss's lemma), so the echelon form of the powers has
    D = 1 and the kernel's one column holds the coefficients.  Every root
    divides the lowest nonzero coefficient and is tested exactly, so no
    Fraction is multiplied and no float is involved.
    """
    X, E = _numerators(M)
    powers = [np.eye(len(X), dtype=np.int64)]
    while True:
        # each entry sums n products
        powers.append(_contract(np.matmul, len(X), powers[-1], X))
        R, pivots = _reduce_rows(np.column_stack([P.reshape(-1) for P in powers]))
        if len(pivots) < len(powers):
            break
    c = [int(x) for x in _kernel(R, pivots)[0][:, 0]]
    low = next(k for k, x in enumerate(c) if x)      # x^low divides the polynomial
    roots = {s * p for p in _divisors(abs(c[low])) for s in (1, -1)
             if sum(x * (s * p) ** k for k, x in enumerate(c)) == 0}
    return sorted(Fraction(mu, E) for mu in roots | ({0} if low else set()))


def _divisors(k):
    """The positive divisors of k >= 1.  Each prime factor p is divided out
    of k: p is what is left of k, or its square root, when _is_prime proves
    that prime, and else the least factor, found by trial division."""
    divisors, p = {1}, 2
    while k > 1:
        r = math.isqrt(k)
        if r * r == k and _is_prime(r):
            p = r
        elif _is_prime(k):
            p = k
        else:
            while p <= r and k % p:
                p += 1
            if p > r:                       # no factor up to its square root
                p = k
        e = 0
        while k % p == 0:
            k, e = k // p, e + 1
        divisors |= {d * p ** i for d in divisors for i in range(1, e + 1)}
    return divisors


def _is_prime(k):
    """True when k is proved prime: by Miller-Rabin to the thirteen prime
    bases up to 41, a proof below 3317044064679887385961981 (Sorenson and
    Webster, Math. Comp. 86, 2017).  False when k is composite, and for any
    k above that bound, so no probable-prime test enters an exact path."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if not 1 < k < 3317044064679887385961981 or any(k % a == 0 for a in bases):
        return k in bases
    s = ((k - 1) & (1 - k)).bit_length() - 1            # k - 1 = d 2^s, d odd
    d = (k - 1) >> s
    return all(pow(a, d, k) == 1 or any(pow(a, d << j, k) == k - 1 for j in range(s))
               for a in bases)


def _reduce_rows(M):
    """Echelon rows of M in M's kind: (the nonzero rows, their pivot columns).

    Row i divided by its entry in column pivots[i] is row i of the reduced
    row echelon form (_echelon).  Exact M gives the rows of _reduce_integer_rows,
    Fractions read as their numerators over one common denominator
    (_numerators); elimination divides every row it returns by its
    content, so no positive scaling of a row changes them.
    Float M gives its reduced form, with pivots
    the largest entry above EPS0 times the largest |entry| of M.  The
    tolerance only chooses pivots: every row with a nonzero entry in a pivot
    column is eliminated, as normalised pivot rows lose the scale of M.
    """
    M = np.asarray(M)
    if M.dtype.kind == "O":
        return _reduce_integer_rows(_numerators(M)[0])
    if M.dtype.kind in "iu":
        return _reduce_integer_rows(M.astype(np.int64 if max_abs(M) < _INT64_LIMIT else object,
                                             copy=False))
    M = np.array(M, dtype=float)                      # a copy
    m, n = M.shape
    peak = max_abs(M)
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        nonzero = M[:, col] != 0                   # the rows to eliminate
        live = row + np.flatnonzero(nonzero[row:])
        live = live[~_is_zero(M[live, col], scale=lambda: peak)]
        if not live.size:
            continue
        piv = live[np.argmax(np.abs(M[live, col]))]
        if piv != row:
            M[[row, piv]] = M[[piv, row]]
            nonzero[[row, piv]] = nonzero[[piv, row]]
        nonzero[row] = False
        M[row] /= M[row, col]
        others = np.flatnonzero(nonzero)
        M[others] -= np.multiply.outer(M[others, col], M[row])
        pivots.append(col)
    return M[:len(pivots)], pivots


def _reduce_integer_rows(M):
    """Fraction-free Gauss-Jordan elimination of an integer matrix, int64 or
    an object array of Python ints, which it leaves as it is: (rows,
    pivots), the integer rows spanning the row space of M.

    Each pivot column is nonzero in its own row only, and row i divided by
    its entry in column pivots[i] is row i of the reduced row echelon form
    (_echelon).  Pivots are the first nonzero entry of a column.  Every row
    is divided by its content (_divide_content, the gcd of its entries)
    once, first; a row with c != 0 in the pivot column becomes
    p * row - c * (pivot row), with p the pivot, on whole rows, and is
    divided by its content, so entries stay small (Bareiss, Math. Comp. 22,
    1968, divides by the previous pivot instead).  So every row, pivot rows
    too, is primitive at every step, and the rows returned are those that
    dividing each pivot row at its step gives: g r updates to g (p r - c' P).
    A step runs on int64 when its bound |p| max|rows| + max|c| max|pivot row|
    is below 2**62, on Python ints otherwise.  While M is int64, a running
    bound t on every entry skips forming it when 2 t^2 is below 2**62.
    Zero rows are dropped first.
    """
    M = _divide_content(M[M.any(axis=1)], axis=1)
    pivots, col, top = [], 0, _INT64_LIMIT
    while len(pivots) < len(M):
        row = len(pivots)
        live = M[row:, col:].any(axis=0).nonzero()[0]     # columns with a pivot left
        if not live.size:
            break
        col += int(live[0])
        nonzero = M[:, col].nonzero()[0]
        piv = nonzero[nonzero.searchsorted(row)]
        if piv != row:                  # row has a 0 in col: it is not in others
            M[[row, piv]] = M[[piv, row]]
        if len(nonzero) > 1:
            others = nonzero[nonzero != piv]
            C, P = M[others], M[row]
            c, p = C[:, col:col + 1].copy(), int(P[col])
            bound = 2 * top * top
            if bound >= _INT64_LIMIT:
                if M.dtype != object:
                    top = max_abs(M)
                # int64 entries here are below 2**63 in magnitude (inputs
                # below 2**62, or differences of two such), so np.abs cannot wrap
                bound = (abs(p) * int(np.abs(C).max())
                         + int(np.abs(c).max()) * int(np.abs(P).max()))
                dtype = np.int64 if bound < _INT64_LIMIT else object
                if dtype is object and M.dtype != object:
                    M = M.astype(object)
                C, c, P = (x.astype(dtype, copy=False) for x in (C, c, P))
            C *= p
            C -= c * P
            M[others] = _divide_content(C, axis=1)
            # on Python-int rows top stays at 2**62: every step forms its bound
            top = max(top, bound) if M.dtype != object else _INT64_LIMIT
        pivots.append(col)
        col += 1
    return M[:len(pivots)], pivots


def _echelon(R, pivots):
    """(N, D): the reduced row echelon form N / D, in lowest terms, of the rows
    R and pivots of _reduce_rows, D the lcm of the pivot entries; float R is N."""
    if R.dtype.kind == "f":
        return R, 1
    p = [int(x) for x in R[range(len(pivots)), pivots]]
    D = math.lcm(*p)
    # row i times D / p[i]: one product per entry
    return _lowest_terms(_contract(np.multiply, 1, R, _integers([D // x for x in p], (-1, 1))), D)


def _kernel(R, pivots):
    """(K, D): the basis (columns) K / D of the right nullspace of the rows
    R and pivots of _reduce_rows.  With N / D their echelon form, the column
    of free variable j holds D at j and -N[:, j] at the pivots: integer
    numerators for exact R, floats over D = 1 for float R."""
    N, D = _echelon(R, pivots)
    free = [j for j in range(N.shape[1]) if j not in pivots]
    K = np.zeros((N.shape[1], len(free)), N.dtype)
    K[free, range(len(free))] = D
    K[pivots] = -N[:, free]
    return K, D


def nullspace(M):
    """Basis (columns) of the right nullspace of M: Fractions for exact M."""
    M = np.asarray(M)
    return _fractions(*_kernel(*_reduce_rows(M.reshape(1, -1) if M.ndim == 1 else M)))


class Subspace:
    """A linear subspace, stored as the reduced row echelon form R / DR of
    its spanning vectors (_echelon, dim x ambient_dim) with pivot columns p.

    R[:, p] is DR times the identity, so v lies in the subspace exactly when
    its residual DR v - v[p] @ R is zero.  An exact subspace is canonical:
    every spanning set gives the same R, DR and p.  `rows` is R / DR,
    read-only, made on first read.
    """

    def __init__(self, basis):
        """basis: spanning vectors as columns (a 1-D array is one vector)."""
        B = np.asarray(basis)
        R, self.pivots = _reduce_rows((B[:, None] if B.ndim == 1 else B).T)
        self._R, self._DR = _echelon(R, self.pivots)
        self._rows = None

    rows = _made_once("_rows", lambda S: _view(S._R, S._DR))

    @classmethod
    def from_spanning(cls, vectors):
        return cls(np.stack([np.asarray(v) for v in vectors], axis=1))

    @property
    def basis(self):
        """The rows as columns, read-only."""
        return self.rows.T

    @property
    def backend(self):
        return backend_of(self._R)

    @property
    def ambient_dim(self):
        return self._R.shape[1]

    @property
    def dim(self):
        return self._R.shape[0]

    def _residuals(self, V):
        """The residuals DR v - v[p] @ R of the rows v of V, each up to a
        positive factor, zero when v lies in the subspace: integers for exact
        rows (Fractions, or integer numerators over any common denominator),
        floats when V or the subspace is float."""
        if self.backend == FLOAT or V.dtype.kind == "f":
            V = np.asarray(V, dtype=float)
            return V - V[:, self.pivots] @ _floats(self._R, self._DR)
        X = V if V.dtype.kind in "iu" else _numerators(V)[0]
        # an entry sums dim products of X and R, and one of X and DR
        return _contract(lambda x, rows, d: d * x - x[:, self.pivots] @ rows,
                         self.dim + 1, X, self._R, self._DR)

    def _outside(self, V):
        """The residuals of the rows of V that lie outside the subspace."""
        r = self._residuals(V)
        return r[~np.all(_is_zero(r, scale=lambda: max_abs(V)), axis=1)]

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
        e, L = _residual(self._R, self._DR, other._R, other._DR)
        return bool(_is_zero(_fractions(e, L), scale=lambda: max_abs(self.rows)))


def orthogonal_complement(S, form):
    """Orthogonal complement of a subspace w.r.t. a nondegenerate form."""
    # each entry sums n products
    comp = Subspace(_kernel(*_reduce_rows(_contract(np.matmul, S.ambient_dim, S._R, form._G)))[0])
    if comp.dim != S.ambient_dim - S.dim:
        raise ValueError("form degenerate on this configuration")
    return comp
