"""The two Smith normal forms pelks ran before one elimination served
both rings, kept verbatim as oracles: `smith_normal_form` over
GF(q^n)[[pi]] and `integer_smith_normal_form` over Z.  Each has its own
loop and its own bookkeeping, so a test that compares them with
`pelks.algebra` compares two independent eliminations."""

from pelks.algebra import INF, SmithDecomposition, _column_count


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
