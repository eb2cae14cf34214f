import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pelks import pel_modules
from pelks.algebra import (
    INF,
    LocalMonomial as M,
    NonMonomial,
    RingMatrix,
    _find_irreducible,
    _poly_mul_mod,
    _poly_trim,
    _small_factor,
    finite_field,
    integer_det,
    integer_inverse,
    integer_smith_normal_form,
    smith_normal_form,
)

GF9 = finite_field(3, 2)
GF4 = finite_field(2, 2)
GF25 = finite_field(5, 2)


def _elem(field):
    return st.integers(min_value=0, max_value=field.size - 1).map(field)


# -- finite fields -----------------------------------------------------------


@given(_elem(GF9), _elem(GF9), _elem(GF9))
def test_field_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(_elem(GF25))
def test_field_inverses(a):
    assert a + (-a) == GF25.zero
    if a:
        assert a * a.inverse() == GF25.one


@given(_elem(GF9), _elem(GF9))
def test_frobenius_is_a_field_automorphism(a, b):
    assert (a + b).frobenius() == a.frobenius() + b.frobenius()
    assert (a * b).frobenius() == a.frobenius() * b.frobenius()


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (5, 2)])
def test_frobenius_fixed_subfield_has_size_q(q, n):
    # GF(q^n) over GF(q): x -> x^q fixes exactly the base field.
    field = finite_field(q, n)
    k = round(field.m / n)
    fixed = [x for x in (field(c) for c in range(field.size)) if x.frobenius(k) == x]
    assert len(fixed) == q


def test_generator_order():
    z = GF9.generator
    powers = {z**e for e in range(8)}
    assert len(powers) == 8


def test_field_construction_is_deterministic():
    assert finite_field(3, 2) is finite_field(3, 2)
    assert GF9.modulus == (1, 0, 1)  # x^2 + 1, smallest irreducible over GF(3)


def test_field_cap_is_refused():
    with pytest.raises(ValueError, match=r"field GF\(67\^2\) too large"):
        finite_field(67, 2)


# The oracle below is the earlier construction: full addition and
# multiplication tables over base-p digit vectors, inverses and
# Frobenius by square-and-multiply, and the generator as the smallest
# code of full order found by walking its powers.


def _table_field(p, m):
    size = p**m
    modulus = _find_irreducible(p, m)
    decode = [tuple((code // p**t) % p for t in range(m)) for code in range(size)]
    encode = {c: i for i, c in enumerate(decode)}

    def polymul(a, b):
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        for deg in range(2 * m - 2, m - 1, -1):
            lead = prod[deg]
            for t in range(m + 1):
                prod[deg - m + t] = (prod[deg - m + t] - lead * modulus[t]) % p
        return encode[tuple(prod[:m])]

    add = [[encode[tuple((x + y) % p for x, y in zip(a, b))] for b in decode] for a in decode]
    neg = [encode[tuple(-x % p for x in a)] for a in decode]
    mul = [[polymul(a, b) for b in decode] for a in decode]

    def power(a, e):
        acc = 1
        while e:
            if e & 1:
                acc = mul[acc][a]
            a = mul[a][a]
            e >>= 1
        return acc

    def order(a):
        k, y = 1, a
        while y != 1:
            y, k = mul[y][a], k + 1
        return k

    generator = next(a for a in range(1, size) if order(a) == size - 1)
    return modulus, generator, add, neg, mul, power


_SMALL_FIELDS = [
    (p, m)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79)
    for m in range(1, 7)
    if p**m <= 81
]


@pytest.mark.parametrize("p,m", _SMALL_FIELDS)
def test_log_tables_match_the_table_oracle(p, m):
    field = finite_field(p, m)
    modulus, generator, add, neg, mul, power = _table_field(p, m)
    assert field.modulus == modulus
    assert field.generator.code == generator
    elems = [field(c) for c in range(field.size)]
    assert [x.code for x in elems] == list(range(field.size))
    for a in elems:
        assert (-a).code == neg[a.code]
        if a:
            assert a.inverse().code == power(a.code, field.size - 2)
        for e in range(m + 1):
            assert a.frobenius(e).code == power(a.code, p**e)
        for b in elems:
            assert (a + b).code == add[a.code][b.code]
            assert (a - b).code == add[a.code][neg[b.code]]
            assert (a * b).code == mul[a.code][b.code]


def _walk_every_candidate(field):
    """The earlier generator search: walk the whole orbit of each code in
    turn until one has full order; returns its table of powers."""
    p, m = field.p, field.m
    weights = [p**t for t in range(m)]
    for g in range(1, field.size):
        g_poly = _poly_trim(tuple((g // w) % p for w in weights))
        walk, y = [1], g
        while y != 1:
            walk.append(y)
            poly = _poly_trim(tuple((y // w) % p for w in weights))
            y = sum(c * w for c, w in zip(_poly_mul_mod(poly, g_poly, field.modulus, p), weights))
        if len(walk) == field.order:
            return walk
    raise AssertionError("no generator")


# every field of at most 300 elements: these hold all the fields that the
# fixtures, the benchmark ladders and the digest configs build (the
# largest is GF(17^2))
_CATALOG_FIELDS = [(p, m) for p in range(2, 300) if _small_factor(p) == p for m in range(1, 9) if p**m <= 300]


def test_generator_search_matches_the_full_walk():
    for p, m in _CATALOG_FIELDS:
        field = finite_field(p, m)
        assert field._exp == _walk_every_candidate(field), (p, m)


# -- local monomials ---------------------------------------------------------


def _monomials(field):
    return st.builds(
        lambda v, code: M(field, v, field(code)),
        st.integers(-3, 3),
        st.integers(min_value=0, max_value=field.size - 1),
    )


@given(_monomials(GF9), st.integers(-3, 3), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60)
def test_series_ring_axioms(a, v, x, y, z):
    # sums stay monomials at a common valuation
    b, c, d = (M(GF9, v, GF9(code)) for code in (x, y, z))
    assert (b + c) + d == b + (c + d)
    assert b + c == c + b
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(_monomials(GF9), _monomials(GF9))
def test_series_valuation_adds_under_product(a, b):
    assert (a * b).val == a.val + b.val


@given(_monomials(GF25))
def test_series_inverse_roundtrip(a):
    if a.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert a * a.inverse() == M.one(GF25)


def test_sum_of_different_valuations_is_refused():
    pi = M(GF9, 1, GF9.one)
    with pytest.raises(NonMonomial):
        M.one(GF9) + pi
    assert (pi - pi).is_zero and (pi - pi).val == INF
    assert (pi - pi).coeffs == ()


def test_frobenius_on_series_is_coefficientwise():
    z = GF9.generator
    fa = M(GF9, -1, z).frobenius()
    assert fa.val == -1 and fa.coeff == z**3


# -- Smith normal form over the valuation ring -------------------------------
#
# The reference below is independent of the elimination: entries become
# {valuation: coefficient} polynomials, and determinants are Laplace
# expansions over them, so binomials that SNF would refuse are fine here.


def _poly(x):
    return {x.val: x.coeff} if x.coeff else {}


def _padd(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out[e] + c if e in out else c
        if not out[e]:
            del out[e]
    return out


def _pmul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out = _padd(out, {e1 + e2: c1 * c2})
    return out


def _pdet(rows):
    if len(rows) == 1:
        return rows[0][0]
    acc = {}
    for j, a in enumerate(rows[0]):
        if a:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            term = _pmul(a, _pdet(minor))
            acc = _padd(acc, term if j % 2 == 0 else {e: -c for e, c in term.items()})
    return acc


def _pval(p):
    return min(p) if p else INF


def test_snf_hand_example():
    # [[pi, 1], [0, pi]] reduces to diag(1, pi^2): the unit pivots first,
    # and the determinant pi^2 lands in the last divisor.
    pi = M(GF9, 1, GF9.one)
    _, exponents = smith_normal_form(RingMatrix(GF9, [[pi, M.one(GF9)], [M.zero(GF9), pi]]))
    assert exponents == [0, 2]


def test_snf_zero_block_yields_infinite_divisors():
    z = M.zero(GF9)
    one = M.one(GF9)
    _, exponents = smith_normal_form(RingMatrix(GF9, [[one, z], [z, z]]))
    assert exponents == [0, INF]


def test_snf_exact_cancellation_certifies_rank():
    # rank-one matrix with monomial entries: the elimination pi^2 - pi*pi
    # must cancel exactly, leaving a zero divisor
    pi = M(GF9, 1, GF9.one)
    _, exponents = smith_normal_form(RingMatrix(GF9, [[M.one(GF9), pi], [pi, pi * pi]]))
    assert exponents == [0, INF]


def test_snf_refuses_a_binomial():
    # eliminating the unit pivot leaves pi - 1 in the lower right corner
    one = M.one(GF9)
    with pytest.raises(NonMonomial):
        smith_normal_form(RingMatrix(GF9, [[one, one], [one, M(GF9, 1, GF9.one)]]))


_sparse_entry = st.tuples(st.booleans(), st.integers(1, 8), st.integers(0, 2))


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(_sparse_entry, min_size=n, max_size=n), min_size=1, max_size=3)
    )
)
@settings(max_examples=80, deadline=None)
def test_snf_random_matrices(entries):
    rows = [[M(GF9, v, GF9(c)) if keep else M.zero(GF9) for keep, c, v in row] for row in entries]
    try:
        V, exponents = smith_normal_form(RingMatrix(GF9, rows))
    except NonMonomial:
        assume(False)
    m, n = len(rows), len(rows[0])
    P = [[_poly(x) for x in row] for row in rows]
    # determinantal divisors: the first k exponents sum to the least
    # valuation of a k x k minor
    for k in range(1, min(m, n) + 1):
        least = min(
            _pval(_pdet([[P[i][j] for j in cols] for i in rs]))
            for rs in combinations(range(m), k)
            for cols in combinations(range(n), k)
        )
        assert sum(exponents[:k]) == least
    V = [[_poly(x) for x in row] for row in V]
    assert _pval(_pdet(V)) == 0
    free = [t for t in range(n) if t >= len(exponents) or exponents[t] == INF]
    for i in range(m):
        for s in free:
            acc = {}
            for t in range(n):
                acc = _padd(acc, _pmul(P[i][t], V[t][s]))
            assert acc == {}


def test_snf_quotient_coordinate_convention():
    # GF(4)[[pi]]^2 modulo the row span of [[pi, 0]]: coordinates of a vector
    # in the quotient are x @ V; the second slot is free, the first is pi-torsion.
    pi = M(GF4, 1, GF4.one)
    V, exponents = smith_normal_form(RingMatrix(GF4, [[pi, M.zero(GF4)]]))
    assert exponents == [1]
    x = [M.one(GF4), M.one(GF4)]
    free = x[0] * V[0][1] + x[1] * V[1][1]
    assert not free.is_zero


def test_snf_of_a_system_without_rows():
    # no relations: the quotient is free on every column, V the identity
    V, exponents = smith_normal_form(RingMatrix(GF4, []), ncols=3)
    assert exponents == []
    assert [[(x.val, x.coeff) for x in row] for row in V] == [
        [(0, GF4.one) if i == j else (INF, GF4.zero) for j in range(3)] for i in range(3)
    ]
    with pytest.raises(ValueError, match="ncols"):
        smith_normal_form(RingMatrix(GF4, []))
    with pytest.raises(ValueError, match="entries"):
        smith_normal_form(RingMatrix(GF4, [[M.one(GF4)]]), ncols=2)


# -- integer Smith normal form ------------------------------------------------


def test_integer_snf_hand_example():
    dec = integer_smith_normal_form([[2, 0], [0, 3]])
    assert dec.divisors == [1, 6]


def test_integer_snf_of_a_system_without_rows():
    dec = integer_smith_normal_form([], ncols=3)
    assert dec.divisors == []
    assert dec.V == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match="ncols"):
        integer_smith_normal_form([])
    with pytest.raises(ValueError, match="entries"):
        integer_smith_normal_form([[1, 2], [3]])


def test_integer_snf_transforms_are_unimodular():
    A = [[4, 2, 0], [2, 8, 2], [0, 2, 12]]
    dec = integer_smith_normal_form(A)
    assert abs(integer_det(dec.U)) == 1
    assert abs(integer_det(dec.V)) == 1


@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=2, max_size=4
    )
)
@settings(max_examples=60, deadline=None)
def test_integer_snf_random(rows):
    dec = integer_smith_normal_form(rows)
    m, n = len(rows), len(rows[0])
    lhs = [
        [sum(dec.U[i][t] * rows[t][j] for t in range(m)) for j in range(n)] for i in range(m)
    ]
    rhs = [
        [sum(lhs[i][t] * dec.V[t][j] for t in range(n)) for j in range(n)] for i in range(m)
    ]
    assert rhs == dec.D
    ds = [d for d in dec.divisors if d]
    for a, b in zip(ds, ds[1:]):
        assert b % a == 0


def test_integer_inverse_roundtrip():
    A = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
    B = integer_inverse(A)
    n = 3
    prod = [[sum(A[i][t] * B[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_integer_kernels_refuse_instead_of_asserting():
    # ValueError, not an assert that python -O strips
    for singular in ([[0]], [[1, 2], [2, 4]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="singular"):
            integer_inverse(singular)
    for not_unimodular in ([[2]], [[2, 1], [1, 2]], [[-3]]):
        with pytest.raises(ValueError, match="not a unit"):
            integer_inverse(not_unimodular)
    for kernel in (integer_det, integer_inverse):
        for bad in ([[Fraction(1, 2)]], [[1.0]], [[1, 2]], [[1], [2]]):
            with pytest.raises(ValueError):
                kernel(bad)


# The oracles below are the earlier kernels: Gaussian elimination over
# fractions.Fraction.


def _fraction_det(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def _fraction_inverse(rows):
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k])
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    out = []
    for i in range(n):
        row = a[i][n:]
        assert all(x.denominator == 1 for x in row)
        out.append([int(x) for x in row])
    return out


def _assert_kernels_match_the_oracles(rows):
    det = _fraction_det(rows)
    assert integer_det(rows) == det, rows
    if det in (1, -1):
        assert integer_inverse(rows) == _fraction_inverse(rows), rows
    else:
        with pytest.raises(ValueError):
            integer_inverse(rows)


@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
@example([])
@settings(max_examples=120, deadline=None)
def test_integer_kernels_match_the_fraction_oracles(rows):
    _assert_kernels_match_the_oracles(rows)
    # a repeated row makes it singular
    if rows:
        _assert_kernels_match_the_oracles(rows[:-1] + rows[:1])


def _unimodular(n, rng, steps):
    """A product of `steps` random elementary integer matrices and sign flips."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            a[i] = [-x for x in a[i]]
        else:
            c = rng.randint(-3, 3)
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


def test_integer_kernels_match_the_oracles_on_unimodular_products():
    rng = random.Random(5)
    for n in range(1, 9):
        for _ in range(12):
            a = _unimodular(n, rng, 3 * n)
            assert abs(_fraction_det(a)) == 1
            _assert_kernels_match_the_oracles(a)


def test_integer_kernels_match_the_oracles_on_the_rank_lemma(monkeypatch):
    seen = []

    def recording(name):
        kernel = getattr(pel_modules, name)

        def record(rows):
            seen.append(rows)
            return kernel(rows)

        return record

    for name in ("integer_det", "integer_inverse"):
        monkeypatch.setattr(pel_modules, name, recording(name))
    for disc in (-3, -4, -7):
        for p in range(5):
            for q in range(5):
                pel_modules.global_rank_lemma(p, q, disc)
    assert len(seen) > 100
    for rows in seen:
        _assert_kernels_match_the_oracles(rows)
