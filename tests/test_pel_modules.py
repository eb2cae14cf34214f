import pytest

from pelks.algebra import DegenerateTestElement, LocalMonomial
from pelks.cyclic_algebra import CyclicAlgebraDescriptor
from pelks.pel_modules import (
    SignatureMismatch,
    SignedBasisModule,
    TensorSpace,
    build_module_pair,
    find_test_letters,
    global_rank_lemma,
    image_exponent,
    quotient_structure,
    relation_generators,
)

QUAT = CyclicAlgebraDescriptor(n=2, residue_size=2)
UNITARY = CyclicAlgebraDescriptor(n=2, residue_size=3, conjugation_power=1)
SPLIT = CyclicAlgebraDescriptor(n=1, residue_size=5, split=True)


# -- separating letters -------------------------------------------------------


def test_orbit_letters_are_deterministic():
    v1, v2 = find_test_letters(QUAT, "orbit_n")
    assert v1 == v2 == QUAT.field.generator


def test_strict_letters_need_a_big_enough_residue_field():
    # GF(4) has only one Galois orbit of generators, so two disjoint
    # 2-element orbits cannot fit
    with pytest.raises(DegenerateTestElement):
        find_test_letters(QUAT, "strict_2n")
    v1, v2 = find_test_letters(UNITARY, "strict_2n")
    z = UNITARY.field.generator
    assert (v1, v2) == (z, z * z)
    translates = {v1, v2, UNITARY.field(0) + v1.frobenius(), v2.frobenius()}
    assert len(translates) == 4


# -- action tables ------------------------------------------------------------


def test_plain_action_commutes_with_u_shift():
    plain = SignedBasisModule(UNITARY, (1, 1))
    letters = find_test_letters(UNITARY, "strict_2n")
    n = UNITARY.n
    for i in range(n):
        for j in range(2):
            i2, _ = plain.u_image(i, j)
            # u . (x . e) and (tau x) . (u . e) carry the same eigenvalue
            lhs = plain.x_coefficient(letters, i, j)
            tau_letters = tuple(v.frobenius() for v in letters)
            rhs = plain.x_coefficient(tau_letters, i2, j)
            assert lhs == rhs


def test_dual_action_commutes_only_in_low_degree():
    dual = SignedBasisModule(UNITARY, (1, 1), dual=True)
    letters = find_test_letters(UNITARY, "strict_2n")
    for i in range(2):
        for j in range(2):
            i2, _ = dual.u_image(i, j)
            lhs = dual.x_coefficient(letters, i, j)
            tau_letters = tuple(v.frobenius() for v in letters)
            rhs = dual.x_coefficient(tau_letters, i2, j)
            assert lhs == rhs
    cubic = CyclicAlgebraDescriptor(n=3, residue_size=2)
    with pytest.raises(ValueError):
        quotient_structure(cubic, (1, 0), "C")


# -- quotient structure -------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5])
def test_quaternion_quotient_structure(q):
    desc = CyclicAlgebraDescriptor(n=2, residue_size=q)
    qs = quotient_structure(desc, (1, 0), "C")
    assert qs.consistent, qs.violations
    assert qs.free_rank == 1
    assert qs.eligible_pairs == [(0, 0)]


def test_quaternion_relation_generator_structure():
    # rank one: basis x (x) x', x (x) y', y (x) x', y (x) y' at flats
    # 0, 1, 2, 3; the relations reduce to unit multiples of flats 1 and
    # 2 plus the single twist  x (x) x' - pi . y (x) y'
    desc = CyclicAlgebraDescriptor(n=2, residue_size=3)
    letters = find_test_letters(desc, "orbit_n")
    plain, dual = build_module_pair(desc, (1, 0))
    space, rows = relation_generators(plain, dual, letters)
    pi = LocalMonomial(space.field, 1, space.field.one)
    seen_dead = set()
    seen_twist = False
    for c in rows:
        assert c[3] == -(c[0] * pi)
        for flat in (1, 2):
            if not c[flat].is_zero and all(
                c[t].is_zero for t in (0, 1, 2, 3) if t != flat
            ):
                if c[flat].val == 0:
                    seen_dead.add(flat)
        if not c[0].is_zero:
            seen_twist = True
    assert seen_dead == {1, 2}
    assert seen_twist


@pytest.mark.parametrize(
    "desc,signature,kind,rank",
    [
        (UNITARY, (1, 1), "A", 2),
        (UNITARY, (2, 2), "A", 8),
        (UNITARY, (2, 1), "A", 4),
        (UNITARY, (2, 0), "C", 4),
        (SPLIT, (1, 1), "A", 2),
    ],
)
def test_quotient_free_rank(desc, signature, kind, rank):
    qs = quotient_structure(desc, signature, kind)
    assert qs.consistent, qs.violations
    assert qs.free_rank == rank == qs.expected_free_rank


# -- image exponents ----------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5])
def test_quaternion_image_exponent(q):
    desc = CyclicAlgebraDescriptor(n=2, residue_size=q)
    rep = image_exponent(desc, (1, 0), "C")
    assert rep.consistent, rep.violations
    assert rep.exponent == 1
    assert rep.chain_profiles == [((0, 0), [1, 0])]


def test_unitary_image_exponents():
    rep = image_exponent(UNITARY, (1, 1), "A")
    assert rep.consistent, rep.violations
    assert rep.exponent == 1
    assert rep.chain_profiles == [((0, 1), [1, 0])]

    rep4 = image_exponent(UNITARY, (2, 2), "A")
    assert rep4.consistent, rep4.violations
    assert rep4.exponent == 4
    assert [prof for _, prof in rep4.chain_profiles] == [[1, 0]] * 4


def test_split_place_exponent_vanishes():
    rep = image_exponent(SPLIT, (1, 1), "A")
    assert rep.consistent, rep.violations
    assert rep.exponent == 0
    assert rep.multiplier == 0


def test_unbalanced_unitary_signature_is_rejected():
    with pytest.raises(SignatureMismatch):
        image_exponent(UNITARY, (2, 1), "A")


def test_symplectic_rank_two_exponent():
    rep = image_exponent(UNITARY, (2, 0), "C")
    assert rep.consistent, rep.violations
    assert rep.exponent == 3  # r(r+1)/2 chains, one pi each


# -- global rank lemma --------------------------------------------------------


def test_global_rank_sweep_gaussian():
    for p in range(5):
        for q in range(5):
            rep = global_rank_lemma(p, q, -4)
            assert rep.consistent, (p, q, rep.violations)
            assert rep.free_rank == 2 * p * q
            assert rep.normalizer_exists == (p == q)
            assert all(4 % d == 0 for d in rep.torsion_divisors)


@pytest.mark.parametrize("disc", [-7, -3, -8])
def test_global_rank_other_discriminants(disc):
    rep = global_rank_lemma(2, 2, disc)
    assert rep.consistent, rep.violations
    assert rep.free_rank == 8
    assert rep.probe_left == rep.probe_right == 2
    assert rep.torsion_annihilated and rep.torsion_order_matches
    lop = global_rank_lemma(1, 2, disc)
    assert lop.consistent and not lop.normalizer_exists
    assert (lop.probe_left, lop.probe_right) == (2, 1)


def test_global_rank_degenerate_signatures():
    rep = global_rank_lemma(0, 0, -4)
    assert rep.normalizer_exists and rep.free_rank == 0
    rep = global_rank_lemma(3, 0, -4)
    assert rep.consistent and not rep.normalizer_exists
    assert rep.free_rank == 0
    assert rep.torsion_order_matches  # 6 matched classes, each of order 4


def test_global_rank_input_validation():
    with pytest.raises(ValueError):
        global_rank_lemma(1, 1, 5)
    with pytest.raises(ValueError):
        global_rank_lemma(1, 1, -6)


# -- tensor bookkeeping -------------------------------------------------------


def test_tensor_index_roundtrip():
    plain, dual = build_module_pair(UNITARY, (2, 1))
    space = TensorSpace(plain, dual)
    flat = 0
    for i in range(space.n):
        for j in range(space.r):
            for l in range(space.n):
                for k in range(space.r):
                    assert space.index(i, j, l, k) == flat
                    assert space.unpack(flat) == (i, j, l, k)
                    flat += 1
    assert flat == space.size
