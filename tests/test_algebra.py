import random
import time
from fractions import Fraction
from itertools import combinations
from operator import floordiv, mod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import snf_oracle
from pelks import pel_modules
from pelks.algebra import (
    INF,
    MAX_FIELD_SIZE,
    FiniteField,
    NonMonomial,
    RingMatrix,
    _check_chain,
    _small_factor,
    finite_field,
    integer_det,
    integer_inverse,
    integer_smith_normal_form,
    reduce_blocks,
    smith_normal_form,
    split_blocks,
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
    # x^2 + x + 2: x^2 + 1 is the smallest irreducible over GF(3), but x
    # has order 4 modulo it
    assert GF9.modulus == (2, 1, 1)
    assert GF9.generator.code == 3
    # a prime field's modulus is x + c0 with -c0 the smallest primitive
    # root of the form -c: 3 modulo 5
    assert finite_field(5).modulus == (2, 1)
    assert finite_field(5).generator.code == 3


def test_field_cap_is_refused():
    with pytest.raises(ValueError, match=r"field GF\(67\^2\) too large"):
        finite_field(67, 2)


def test_field_cap_is_refused_before_factoring():
    # 2^61 - 1 is prime: factoring it by trial division would not finish
    start = time.perf_counter()
    for q, ext in ((2**61 - 1, 1), (2**89 - 1, 1), (2**61 - 1, 2), (2, 13)):
        with pytest.raises(ValueError, match="too large"):
            finite_field(q, ext)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p,m", [(2, 12), (3, 7), (4093, 1)])
def test_fields_at_the_cap_build(p, m):
    # the slowest builds under the cap (GF(2^12) about 0.08 s on a shared
    # 2-vCPU host, the three together under 0.2 s); the powers of x must
    # reach every nonzero code exactly once
    field = FiniteField(p, m)
    assert field.size <= MAX_FIELD_SIZE
    assert sorted(field._exp) == list(range(1, field.size))
    assert field._exp[:2] == [1, field.generator.code]


# The oracle below builds each field from scratch.  It tries the monic
# polynomials of degree m with a nonzero constant term in code order,
# multiplies digit vectors by schoolbook products reduced modulo each,
# and keeps the first candidate in which x has order p^m - 1.  Full
# addition and multiplication tables over that modulus then give every
# operation; inverses and Frobenius come by square-and-multiply.


def _digits(code, p, m):
    return tuple((code // p**t) % p for t in range(m))


def _code(digits, p):
    return sum(d * p**t for t, d in enumerate(digits))


def _mulmod(a, b, modulus, p):
    """Product of two little-endian polynomials over GF(p), reduced modulo
    the monic `modulus` to its degree m digits."""
    m = len(modulus) - 1
    prod = [0] * max(len(a) + len(b) - 1, m)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for deg in range(len(prod) - 1, m - 1, -1):
        lead = prod[deg]
        for t in range(m + 1):
            prod[deg - m + t] = (prod[deg - m + t] - lead * modulus[t]) % p
    return tuple(prod[:m])


def _oracle_powers(p, m):
    """(modulus, codes of x^0, .., x^(p^m - 2)) by the naive search."""
    size = p**m
    one = _digits(1, p, m)
    for code in range(size):
        modulus = _digits(code, p, m) + (1,)
        if modulus[0] == 0:
            continue
        x = _mulmod((0, 1), (1,), modulus, p)
        powers, y = [one], _mulmod(one, x, modulus, p)
        while y != one and len(powers) < size:
            powers.append(y)
            y = _mulmod(y, x, modulus, p)
        if len(powers) == size - 1:
            return modulus, [_code(y, p) for y in powers]
    raise AssertionError(f"no primitive polynomial of degree {m} over GF({p})")


def _table_field(p, m):
    size = p**m
    modulus, powers = _oracle_powers(p, m)
    decode = [_digits(code, p, m) for code in range(size)]
    encode = {c: i for i, c in enumerate(decode)}
    add = [[encode[tuple((x + y) % p for x, y in zip(a, b))] for b in decode] for a in decode]
    neg = [encode[tuple(-x % p for x in a)] for a in decode]
    mul = [[encode[_mulmod(a, b, modulus, p)] for b in decode] for a in decode]

    def power(a, e):
        acc = 1
        while e:
            if e & 1:
                acc = mul[acc][a]
            a = mul[a][a]
            e >>= 1
        return acc

    return modulus, powers[1 % len(powers)], add, neg, mul, power


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


# every field of at most 300 elements: these hold all the fields that the
# fixtures, the benchmark ladders and the digest configs build (the
# largest is GF(17^2))
_CATALOG_FIELDS = [(p, m) for p in range(2, 300) if _small_factor(p) == p for m in range(1, 9) if p**m <= 300]


def test_generator_search_matches_the_full_walk():
    # _exp is the oracle's walk over the powers of x, modulus included
    for p, m in _CATALOG_FIELDS:
        field = finite_field(p, m)
        assert (field.modulus, field._exp) == _oracle_powers(p, m), (p, m)


# -- local monomials ---------------------------------------------------------


def _monomials(field):
    return st.builds(
        lambda v, code: field(code).shift(v),
        st.integers(-3, 3),
        st.integers(min_value=0, max_value=field.size - 1),
    )


@given(_monomials(GF9), st.integers(-3, 3), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60)
def test_series_ring_axioms(a, v, x, y, z):
    # sums stay monomials at a common valuation
    b, c, d = (GF9(code).shift(v) for code in (x, y, z))
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
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert a * a.inverse() == GF25.one


@given(_monomials(GF25), st.integers(-4, 4))
def test_series_powers_match_repeated_products(a, e):
    # c^e pi^(val e): a negative power of a nonzero monomial is a power of
    # its inverse, and 0 has no power e <= 0
    if not a:
        if e <= 0:
            with pytest.raises(ZeroDivisionError):
                a**e
        else:
            assert a**e == GF25.zero
        return
    base = a if e >= 0 else a.inverse()
    product = GF25.one
    for _ in range(abs(e)):
        product = product * base
    assert a**e == product
    assert (a**e).val == a.val * e
    assert a**e * a**-e == GF25.one


def test_sum_of_different_valuations_is_refused():
    pi = GF9.one.shift(1)
    with pytest.raises(NonMonomial):
        GF9.one + pi
    assert not (pi - pi) and (pi - pi).val == INF
    assert (pi - pi).coeffs == ()


def test_frobenius_on_series_is_coefficientwise():
    z = GF9.generator
    fa = z.shift(-1).frobenius()
    assert fa.val == -1 and fa.coeffs == (z**3,)


@pytest.mark.parametrize("field", [GF4, GF9], ids=repr)
def test_euclidean_division_of_monomials(field):
    # every pair of a monomial alphabet with valuations 0 .. 2, zero included
    alphabet = [field.zero] + [field(code).shift(v) for code in range(1, field.size) for v in range(3)]
    for a in alphabet:
        for b in alphabet[1:]:
            q, r = a // b, a % b
            assert divmod(a, b) == (q, r)
            assert a == q * b + r
            assert not r or r.val < b.val
        for op in (floordiv, mod, divmod):
            with pytest.raises(ZeroDivisionError):
                op(a, field.zero)


# -- Smith normal form over the valuation ring -------------------------------
#
# The reference below is independent of the elimination: entries become
# {valuation: coefficient} polynomials, and determinants are Laplace
# expansions over them, so binomials that SNF would refuse are fine here.


def _poly(x):
    return {x.val: c for c in x.coeffs}


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
    pi = GF9.one.shift(1)
    _, exponents = smith_normal_form(RingMatrix(GF9, [[pi, GF9.one], [GF9.zero, pi]]))
    assert exponents == [0, 2]


def test_snf_zero_block_yields_infinite_divisors():
    z, one = GF9.zero, GF9.one
    _, exponents = smith_normal_form(RingMatrix(GF9, [[one, z], [z, z]]))
    assert exponents == [0, INF]


def test_snf_exact_cancellation_certifies_rank():
    # rank-one matrix with monomial entries: the elimination pi^2 - pi*pi
    # must cancel exactly, leaving a zero divisor
    pi = GF9.one.shift(1)
    _, exponents = smith_normal_form(RingMatrix(GF9, [[GF9.one, pi], [pi, pi * pi]]))
    assert exponents == [0, INF]


def test_snf_refuses_a_binomial():
    # eliminating the unit pivot leaves pi - 1 in the lower right corner
    one = GF9.one
    with pytest.raises(NonMonomial):
        smith_normal_form(RingMatrix(GF9, [[one, one], [one, one.shift(1)]]))


_sparse_entry = st.tuples(st.booleans(), st.integers(1, 8), st.integers(0, 2))


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(_sparse_entry, min_size=n, max_size=n), min_size=1, max_size=3)
    )
)
@settings(max_examples=80, deadline=None)
def test_snf_random_matrices(entries):
    rows = [[GF9(c).shift(v) if keep else GF9.zero for keep, c, v in row] for row in entries]
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
    pi = GF4.one.shift(1)
    V, exponents = smith_normal_form(RingMatrix(GF4, [[pi, GF4.zero]]))
    assert exponents == [1]
    x = [GF4.one, GF4.one]
    free = x[0] * V[0][1] + x[1] * V[1][1]
    assert free


def test_snf_of_a_system_without_rows():
    # no relations: the quotient is free on every column, V the identity
    V, exponents = smith_normal_form(RingMatrix(GF4, []), ncols=3)
    assert exponents == []
    assert V == [[GF4.one if i == j else GF4.zero for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError, match="ncols"):
        smith_normal_form(RingMatrix(GF4, []))
    with pytest.raises(ValueError, match="entries"):
        smith_normal_form(RingMatrix(GF4, [[GF4.one]]), ncols=2)


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


def test_the_divisor_chain_check_can_fire():
    pi = GF9.one.shift(1)
    for broken in ([2, 3], [0, 1], [pi * pi, pi], [GF9.zero, pi]):
        with pytest.raises(AssertionError, match="divisor chain broken"):
            _check_chain(broken)
    for chain in ([], [2, -6, 0, 0], [GF9.generator, pi, -pi, GF9.zero]):
        _check_chain(chain)


# -- one elimination against the two it replaced (tests/snf_oracle.py) -------
#
# 200 examples per ring; the two tests take about 1 s together on a
# 2-vCPU host.


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=5)
        )
    )
)
@example((3, []))
@example((2, [[2, 3]]))  # remainder 1 in the pivot row
@example((1, [[4], [6]]))  # remainder 2 in the pivot column
@example((2, [[2, 0], [0, 3]]))  # 2 does not divide 3: row 1 joins row 0
@example((3, [[6, 4, 0], [4, 6, 2], [0, 2, -9]]))
@settings(max_examples=200, deadline=None)
def test_integer_snf_matches_the_oracle(shape):
    ncols, rows = shape
    new = integer_smith_normal_form(rows, ncols=ncols)
    old = snf_oracle.integer_smith_normal_form(rows, ncols=ncols)
    assert (new.U, new.D, new.V, new.divisors) == (old.U, old.D, old.V, old.divisors)


def _series_snf_or_refusal(snf, rows, ncols):
    try:
        return snf(RingMatrix(GF9, rows), ncols=ncols)
    except NonMonomial:
        return "NonMonomial"


_gf9_entry = st.one_of(st.just(GF9.zero), st.builds(lambda c, v: GF9(c).shift(v), st.integers(1, 8), st.integers(0, 3)))


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.lists(_gf9_entry, min_size=n, max_size=n), max_size=4))
    )
)
@example((2, []))
@example((2, [[GF9.one, GF9.one], [GF9.one, GF9.one.shift(1)]]))  # refused: pi - 1
@example((2, [[GF9.one.shift(1), GF9.one], [GF9.zero, GF9.one.shift(1)]]))
@settings(max_examples=200, deadline=None)
def test_series_snf_matches_the_oracle(shape):
    ncols, rows = shape
    new = _series_snf_or_refusal(smith_normal_form, rows, ncols)
    assert new == _series_snf_or_refusal(snf_oracle.smith_normal_form, rows, ncols)


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


# -- blocks of sparse systems -------------------------------------------------


def _series_snf(dense, width):
    try:
        return smith_normal_form(RingMatrix(GF9, dense), ncols=width)
    except NonMonomial:
        return "NonMonomial"


# entry alphabet, zero and a reduction per entry type; few entries make
# repeated blocks likely
_BLOCK_SYSTEMS = {
    "integer": ([-2, -1, 1, 2], 0, lambda dense, width: integer_smith_normal_form(dense, ncols=width).divisors),
    "monomial": ([GF9.one, -GF9.one, GF9.generator, GF9.one.shift(1)], GF9.zero, _series_snf),
}


@pytest.mark.parametrize("entries", sorted(_BLOCK_SYSTEMS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_blocks_shares_a_reduction_exactly_between_equal_blocks(entries, data):
    alphabet, zero, reduce = _BLOCK_SYSTEMS[entries]
    ncols = data.draw(st.integers(1, 6))
    drawn = data.draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), st.sampled_from(alphabet), max_size=3), max_size=6))
    rows = [sorted(row.items()) for row in drawn]
    blocks = split_blocks(rows, ncols)
    calls = []

    def fresh(dense, width):
        calls.append(width)
        return [reduce(dense, width)]  # a new list per call, so a shared reduction is the same object

    out = list(reduce_blocks(rows, blocks, fresh, zero))
    assert [cols for cols, _ in out] == [cols for cols, _ in blocks]
    dense = [(len(cols), [[dict(rows[i]).get(c, zero) for c in cols] for i in ids]) for cols, ids in blocks]
    for (_, shared), (width, block) in zip(out, dense):
        assert shared == [reduce(block, width)]
    for a, b in combinations(range(len(out)), 2):
        assert (out[a][1] is out[b][1]) == (dense[a] == dense[b]), (rows, a, b)
    assert len(calls) == len([block for t, block in enumerate(dense) if block not in dense[:t]])
