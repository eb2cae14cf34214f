"""Exact local arithmetic.

Two layers, the second using the first:

  * exact monomials c*pi^v (or 0) in GF(p^m)((pi)), the only elements
    the local relation and Gram matrices of this package contain; a
    residue element of GF(p^m) is the case v = 0, and c is held as its
    discrete log to the field generator, so every operation, Frobenius
    included, is one table lookup,
  * Smith normal form of monomial matrices over the valuation ring
    GF(p^m)[[pi]], tracking the right transform.

GF(p^m) is GF(p)[x] modulo its smallest primitive polynomial, with x as
the generator: building a field is one walk over the powers of x.

A parallel Smith normal form over the rational integers lives here as
well, since the global rank computations need the same bookkeeping
(divisors, left and right transforms) over Z instead of a DVR.  Both
take dense rows; relation systems are sparse, and `split_blocks` cuts
them into the connected blocks of their nonzero pattern, which every
caller reduces through `reduce_blocks`, once per distinct block: the
relation modules and Gram matrices repeat their blocks.  The integer
determinant and inverse are Bareiss (fraction-free) eliminations, so no
rational number is ever formed, and they raise ValueError on input they
cannot handle: a non-integer or non-square matrix, or a singular or
non-unimodular one to invert.

Exactness convention: monomials are closed under products, inverses
and Frobenius, and a sum of two monomials stays one when a summand is
zero or both have the same valuation.  Any other sum raises NonMonomial
instead of being approximated, so every run checks that its local
arithmetic was exact.
"""

from functools import lru_cache
from operator import index

INF = float("inf")

# A field costs pure-Python walks over the powers of x, one per modulus
# candidate until a primitive one turns up, and three lists of about
# `size` entries, rebuilt in every run.  The catalog's fields have at
# most a few hundred elements and build in about a millisecond; at the
# cap the slowest, GF(2^12), takes under 0.1 s.  The cap bounds what a
# mistyped residue size can cost: a residue size q past it is refused
# when the place is built (a config error), and `finite_field` refuses
# any GF(q^ext) past it, each before q is factored; a place whose q is
# within the cap but whose GF(q^n) is not fails its local checks with
# that refusal.
MAX_FIELD_SIZE = 4096


class NonMonomial(ArithmeticError):
    """Raised when a sum of monomials of different valuation would leave the exact monomial class."""


class DegenerateTestElement(Exception):
    """Raised when no separating residue element exists for a requested module computation."""


def _small_factor(n):
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _primitive_walk(p, m):
    """(modulus, codes of x^0, .., x^(p^m - 2)) for the smallest primitive
    polynomial of degree m over GF(p).

    Candidates are the monic polynomials with a nonzero constant term,
    in code order.  x is a unit modulo each, so its powers return to 1;
    they take all p^m - 1 steps exactly when the candidate is
    irreducible and x generates the multiplicative group.
    """
    order = p**m - 1
    top_weight = p ** (m - 1)
    weights = [p**t for t in range(m)]
    for code in range(p**m):
        if not code % p:
            continue
        low = [code // w % p for w in weights]
        walk = [1]
        while len(walk) < order:
            # x * y: shift the digits up, then add top * x^m, which is
            # -top * (c_0 + c_1 x + .. + c_(m-1) x^(m-1)), digit by digit
            top, y = divmod(walk[-1], top_weight)
            y *= p
            if top:
                for w, c in zip(weights, low):
                    d = y // w % p
                    y += ((d - top * c) % p - d) * w
            if y == 1:
                break
            walk.append(y)
        else:
            return (*low, 1), walk
    raise ValueError(f"no primitive polynomial of degree {m} over GF({p})")


class FiniteField:
    """GF(p^m) on discrete-log tables.

    Elements have integer codes 0 .. p^m - 1, read as base-p digit
    vectors giving the coefficients of 1, x, .., x^(m-1) modulo the
    smallest primitive polynomial `modulus` (little-endian, monic), so
    x is the generator and the construction is deterministic.  `_exp`
    maps a log to its code, `_log` a code to its log (-1 for 0), and the
    Zech list `_zech` maps k to log(1 + x^k), which makes every field
    operation one lookup.  Elements are LocalMonomial at valuation 0.
    """

    def __init__(self, p, m):
        size = p**m
        if size > MAX_FIELD_SIZE:
            raise ValueError(f"field GF({p}^{m}) too large for table construction")
        self.p = p
        self.m = m
        self.size = size
        self.order = size - 1
        self.modulus, self._exp = _primitive_walk(p, m)
        self._log = [-1] * size
        for k, code in enumerate(self._exp):
            self._log[code] = k
        # adding 1 to a code changes only its constant digit
        self._zech = [self._log[c - c % p + (c + 1) % p] for c in self._exp]
        self.zero = LocalMonomial(self, INF, -1)
        self.one = LocalMonomial(self, 0, 0)
        self.generator = LocalMonomial(self, 0, 1 % self.order)

    def __call__(self, code):
        if self.m == 1:
            code %= self.size
        elif not 0 <= code < self.size:
            raise ValueError(f"{code} is not a code of {self}")
        return LocalMonomial(self, 0, self._log[code])

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"


def prime_power(q):
    """Write q = p^m, returning (p, m)."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = _small_factor(q)
    m = 0
    qq = q
    while qq > 1:
        if qq % p:
            raise ValueError(f"{q} is not a prime power")
        qq //= p
        m += 1
    return p, m


@lru_cache(maxsize=None)
def finite_field(q, ext=1):
    """Cached field GF(q^ext) for q a prime power.  A q^ext past the cap
    is refused before q is factored, which trial-divides up to sqrt(q)."""
    if ext < 1:
        raise ValueError(f"extension degree {ext} is not positive")
    if q**ext > MAX_FIELD_SIZE:
        raise ValueError(f"field GF({q}^{ext}) too large for table construction")
    p, m = prime_power(q)
    return FiniteField(p, m * ext)


class LocalMonomial:
    """An exact element c*pi^val of GF(p^m)((pi)), or 0 (val = +inf).

    c is held as its discrete log `log` to the field generator (-1 for
    0); a residue element of GF(p^m) is the case val = 0.  Truthiness is
    the zero test, and `coeffs` is (c,) for a nonzero element, c as a
    residue element, and () for zero.
    """

    __slots__ = ("field", "val", "log")

    def __init__(self, field, val, log):
        self.field = field
        self.val = val if log >= 0 else INF
        self.log = log

    @property
    def code(self):
        """The code of c in the field (0 for zero)."""
        return self.field._exp[self.log] if self.log >= 0 else 0

    @property
    def coeffs(self):
        return (LocalMonomial(self.field, 0, self.log),) if self.log >= 0 else ()

    def __bool__(self):
        return self.log >= 0

    def __add__(self, other):
        # x^a + x^b = x^a (1 + x^(b - a)), and the Zech list holds log(1 + x^k)
        a, b = self.log, other.log
        if a < 0:
            return other
        if b < 0:
            return self
        if self.val != other.val:
            raise NonMonomial(f"{self} + {other} is not a monomial")
        f = self.field
        z = f._zech[(b - a) % f.order]
        return LocalMonomial(f, self.val, -1 if z < 0 else (a + z) % f.order)

    def __neg__(self):
        if self.log < 0:
            return self
        f = self.field
        return LocalMonomial(f, self.val, (self.log + f._log[f.p - 1]) % f.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if self.log < 0 or other.log < 0:
            return f.zero
        return LocalMonomial(f, self.val + other.val, (self.log + other.log) % f.order)

    def __pow__(self, e):
        """c^e * pi^(val e); 0 has no power e <= 0."""
        if self.log < 0:
            if e <= 0:
                raise ZeroDivisionError("0 has no inverse")
            return self
        return LocalMonomial(self.field, self.val * e, self.log * e % self.field.order)

    def inverse(self):
        return self ** -1

    def shift(self, e):
        """Multiply by pi^e."""
        return LocalMonomial(self.field, self.val + e, self.log)

    def frobenius(self, e=1):
        """Apply c -> c^(p^e), which multiplies the log by p^e."""
        if self.log < 0:
            return self
        f = self.field
        return LocalMonomial(f, self.val, self.log * pow(f.p, e, f.order) % f.order)

    def __eq__(self, other):
        return (
            isinstance(other, LocalMonomial)
            and self.field is other.field
            and self.val == other.val
            and self.log == other.log
        )

    def __hash__(self):
        return self.log  # equal monomials share a log; block keys hash every entry

    def __repr__(self):
        if self.log < 0:
            return "0"
        c, e = self.code, self.val
        if e == 0:
            return f"{c}"
        return f"{c}*pi^{e}" if c != 1 else f"pi^{e}"


class RingMatrix:
    """Matrix over the local ring: rows of LocalMonomial entries."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]


class SmithDecomposition:
    """Result of the integer Smith normal form: U @ A @ V = D with U, V
    unimodular lists of int lists, and `divisors` the nonnegative
    elementary divisors."""

    __slots__ = ("U", "D", "V", "divisors")

    def __init__(self, U, D, V, divisors):
        self.U = U
        self.D = D
        self.V = V
        self.divisors = divisors


def split_blocks(rows, ncols, links=()):
    """Connected blocks of a sparse row system.

    Each row is a list of (column, entry) pairs.  Two columns share a
    block when one row touches both, or when they form one of the
    `links` pairs.  Returns (columns, row indices) per block, both
    ascending, with the blocks ordered by their first column.  A column
    no row touches is a block without rows; an empty row joins no block.
    """
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def union(a, b):
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)

    for a, b in links:
        union(a, b)
    for row in rows:
        for c, _ in row[1:]:
            union(row[0][0], c)
    # the root of a block is its smallest column, met first in this scan
    blocks = {}
    for c in range(ncols):
        blocks.setdefault(find(c), ([], []))[0].append(c)
    for i, row in enumerate(rows):
        if row:
            blocks[find(row[0][0])][1].append(i)
    return list(blocks.values())


def reduce_blocks(rows, blocks, reduce, zero):
    """(columns, reduce(dense rows, width)) for each (columns, row ids)
    block of `split_blocks`, with `zero` off the rows' entries.  `reduce`
    runs once per distinct block: the key is the width and the rows in
    block-local columns, entries as they are, so with each row's nonzero
    entries in ascending column order equal keys are equal dense blocks.
    """
    reduced = {}  # key -> the block's reduction, for this call
    for cols, row_ids in blocks:
        local = dict(zip(cols, range(len(cols))))
        key = len(cols), tuple([tuple([(local[c], a) for c, a in rows[i]]) for i in row_ids])
        if key not in reduced:
            dense = [[zero] * len(cols) for _ in row_ids]
            for line, sparse in zip(dense, key[1]):
                for t, a in sparse:
                    line[t] = a
            reduced[key] = reduce(dense, len(cols))
        yield cols, reduced[key]


def _column_count(A, ncols):
    """The column count of a row list: ncols, or the first row's length."""
    if ncols is None:
        if not A:
            raise ValueError("a matrix without rows needs ncols")
        ncols = len(A[0])
    if any(len(row) != ncols for row in A):
        raise ValueError(f"every row needs {ncols} entries")
    return ncols


def smith_normal_form(matrix, ncols=None):
    """Smith normal form over GF(q^n)[[pi]] of a matrix of monomials.

    Pivot selection takes the entry of minimal valuation, breaking ties
    lexicographically by (row, column).  Returns (V, exponents): V as a
    list of rows, so a vector x has quotient coordinates x @ V, and the
    pi-adic exponents of the diagonal divisors in nondecreasing order,
    +inf marking an exactly zero divisor.  Raises NonMonomial
    when an elimination step would leave the monomial class.  ncols
    defaults to the first row's length; a matrix without rows needs it,
    and its V is the identity on ncols columns.
    """
    field = matrix.field
    A = [list(r) for r in matrix.rows]
    m = len(A)
    n = _column_count(A, ncols)
    zero, one = field.zero, field.one
    V = [[one if i == j else zero for j in range(n)] for i in range(n)]
    exponents = []

    for k in range(min(m, n)):
        pivot = None
        pv = INF
        for i in range(k, m):
            row = A[i]
            for j in range(k, n):
                if row[j].val < pv:
                    pv = row[j].val
                    pivot = (i, j)
        if pivot is None:
            exponents.extend([INF] * (min(m, n) - k))
            break
        pi_, pj = pivot
        A[k], A[pi_] = A[pi_], A[k]
        if pj != k:
            for row in A:
                row[k], row[pj] = row[pj], row[k]
            for row in V:
                row[k], row[pj] = row[pj], row[k]
        # rows and columns before k are already cleared, so only the
        # block below and right of the pivot changes
        prow = A[k]
        p_inv = prow[k].inverse()
        pjs = [j for j in range(k + 1, n) if prow[j]]
        for i in range(k + 1, m):
            row = A[i]
            if not row[k]:
                continue
            factor = row[k] * p_inv
            row[k] = zero
            for j in pjs:
                row[j] = row[j] - factor * prow[j]
        vks = [i for i in range(n) if V[i][k]]
        for j in pjs:
            factor = prow[j] * p_inv
            prow[j] = zero
            for i in vks:
                V[i][j] = V[i][j] - V[i][k] * factor
        exponents.append(pv)

    finite = [e for e in exponents if e != INF]
    if finite != sorted(finite):
        raise AssertionError(f"divisor exponents not nondecreasing: {exponents}")
    return V, exponents


# ---------------------------------------------------------------------------
# Integer Smith normal form (same conventions: U @ A @ V = D, row space of A
# is the relation lattice, quotient coordinates of a vector x are x @ V).
# ---------------------------------------------------------------------------


def _int_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def integer_smith_normal_form(rows, ncols=None):
    """Smith normal form of an integer matrix, pure Python exact arithmetic.

    Returns a SmithDecomposition whose U, D, V are lists of int lists and
    whose `divisors` are the nonnegative elementary divisors d_1 | d_2 | ...
    (zeros at the end for the free part of the cokernel).  ncols is read
    as in smith_normal_form.
    """
    A = [list(r) for r in rows]
    m = len(A)
    n = _column_count(A, ncols)
    U = _int_identity(m)
    V = _int_identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, c):
        A[dst] = [a + c * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def addmul_col(dst, src, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    k = 0
    size = min(m, n)
    while k < size:
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        dirty = False
        for i in range(k + 1, m):
            if A[i][k]:
                q = A[i][k] // A[k][k]
                addmul_row(i, k, -q)
                if A[i][k]:
                    dirty = True
        for j in range(k + 1, n):
            if A[k][j]:
                q = A[k][j] // A[k][k]
                addmul_col(j, k, -q)
                if A[k][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the rest of the block by the pivot
        offender = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if A[i][j] % A[k][k]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            addmul_row(k, offender, 1)
            continue
        k += 1

    for t in range(min(m, n)):
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
    divisors = [A[t][t] for t in range(min(m, n))]
    for a, b in zip(divisors, divisors[1:]):
        if a and b and b % a:
            raise AssertionError(f"divisor chain broken: {divisors}")
        if a == 0 and b != 0:
            raise AssertionError(f"zero divisor precedes nonzero: {divisors}")
    return SmithDecomposition(U, A, V, divisors)


def _square_integer_rows(rows):
    """A copy of a square matrix as lists of Python ints; anything else is refused."""
    n = len(rows)
    try:
        a = [[index(x) for x in row] for row in rows]
    except TypeError:
        raise ValueError("expected integer entries") from None
    if any(len(row) != n for row in a):
        raise ValueError(f"expected a square matrix with {n} columns")
    return a


def integer_det(rows):
    """Exact determinant of a square integer matrix by Bareiss elimination.

    Step k replaces each lower row by (pivot * row - row[k] * pivot row)
    divided by the previous pivot.  That division is exact, since every
    entry is a minor of the input, so the work stays in integers.
    """
    a = _square_integer_rows(rows)
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        # a[i] holds columns k .. n-1 of row i
        piv = next((i for i in range(k, n) if a[i][0]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot, top = a[k][0], a[k][1:]
        for i in range(k + 1, n):
            f, row = a[i][0], a[i][1:]
            a[i] = [(pivot * x - f * y) // prev for x, y in zip(row, top)]
        prev = pivot
    return sign * prev


def integer_inverse(rows):
    """Exact inverse of a unimodular integer matrix.

    Fraction-free Gauss-Jordan elimination (the Bareiss step on every
    other row) takes [A | I] to [d I | d A^-1], where d is the
    determinant of A with its rows permuted.  A singular A, or one with
    d != +-1, has no integer inverse and raises ValueError.
    """
    a = _square_integer_rows(rows)
    n = len(a)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ValueError("singular matrix has no inverse")
        a[k], a[piv] = a[piv], a[k]
        pivot, top = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = pivot
    if prev not in (1, -1):
        raise ValueError(f"determinant {prev} is not a unit: no integer inverse")
    return [[prev * x for x in row[n:]] for row in a]
