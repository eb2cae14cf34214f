import pytest

from pelks import pel_modules
from functools import partial
from math import prod

from pelks.algebra import (
    INF,
    DegenerateTestElement,
    RingMatrix,
    integer_det,
    integer_inverse,
    integer_smith_normal_form,
    smith_normal_form,
    split_blocks,
)
from pelks.checks import verdict
from pelks.cyclic_algebra import CyclicAlgebraDescriptor
from pelks.pel_modules import (
    SignatureMismatch,
    find_test_letters,
    flat_index,
    global_rank_lemma,
    image_exponent,
    quotient_structure,
    relation_generators,
    u_image,
    unflat_index,
    x_eigenvalues,
)
from relation_oracle import (
    _FullRowDecomposition,
    _presolve_rows,
    _relation_rows,
    _relation_system,
    _swap_rows,
    reduce_every_block,
)

QUAT = CyclicAlgebraDescriptor(n=2, residue_size=2)
UNITARY = CyclicAlgebraDescriptor(n=2, residue_size=3, conjugation_power=1)
SPLIT = CyclicAlgebraDescriptor(n=1, residue_size=5, split=True)


def _dense_rows(rows, ncols, zero):
    """Sparse (column, entry) rows as dense lists of length `ncols`."""
    out = []
    for row in rows:
        dense = [zero] * ncols
        for c, a in row:
            dense[c] = a
        out.append(dense)
    return out


class _DenseDecomposition:
    """Oracle for pel_modules._Decomposition: one Smith normal form of the
    whole dense system, with no presolve and no blocks."""

    def __init__(self, field, rows, ncols):
        dense = RingMatrix(field, _dense_rows(rows, ncols, field.zero))
        self.V, exponents = smith_normal_form(dense, ncols=ncols)
        self.torsion = [e for e in exponents if 0 < e < INF]
        self.free_slots = [t for t, e in enumerate(exponents) if e == INF]
        self.free_slots += list(range(len(exponents), ncols))

    @property
    def free_rank(self):
        return len(self.free_slots)

    def free_terms(self, flat):
        row = self.V[flat]
        return [(s, row[f]) for s, f in enumerate(self.free_slots) if row[f]]


class _TamperedDecomposition:
    """pel_modules._Decomposition with the free coordinates of some classes
    replaced: zero at the flats in `zeroed`, a unit first coordinate at
    the flats in `revived`, and every coordinate times pi if `scaled`."""

    def __init__(self, field, columns, rows, zeroed=(), revived=(), scaled=False):
        self.dec = _DECOMPOSITION(field, columns, rows)
        self.free_rank, self.torsion = self.dec.free_rank, self.dec.torsion
        self.unit = field.one
        self.zeroed, self.revived = set(zeroed), set(revived)
        self.factor = field.one.shift(1) if scaled else self.unit

    def free_terms(self, flat):
        terms = [(s, self.factor * a) for s, a in self.dec.free_terms(flat)]
        if flat in self.zeroed:
            return []
        if flat in self.revived:
            return [(0, self.unit)] + [(s, a) for s, a in terms if s != 0]
        return terms


_DECOMPOSITION = pel_modules._Decomposition


# -- separating letters -------------------------------------------------------


def test_orbit_letters_are_deterministic():
    v1, v2 = find_test_letters(QUAT, "C")
    assert v1 == v2 == QUAT.field.generator


def test_strict_letters_need_a_big_enough_residue_field():
    # GF(4) has only one Galois orbit of generators, so two disjoint
    # 2-element orbits cannot fit
    with pytest.raises(DegenerateTestElement):
        find_test_letters(QUAT, "A")
    v1, v2 = find_test_letters(UNITARY, "A")
    z = UNITARY.field.generator
    assert (v1, v2) == (z, z * z)
    translates = {v1, v2, UNITARY.field(0) + v1.frobenius(), v2.frobenius()}
    assert len(translates) == 4


# -- action tables ------------------------------------------------------------


def test_plain_action_commutes_with_u_shift():
    letters = find_test_letters(UNITARY, "A")
    plain = x_eigenvalues(UNITARY, (1, 1), letters)
    tau_plain = x_eigenvalues(UNITARY, (1, 1), tuple(v.frobenius() for v in letters))
    n = UNITARY.n
    for i in range(n):
        for j in range(2):
            i2, _ = u_image(n, i)
            # u . (x . e) and (tau x) . (u . e) carry the same eigenvalue
            assert plain[i][j] == tau_plain[i2][j]


def test_dual_action_commutes_only_in_low_degree():
    letters = find_test_letters(UNITARY, "A")
    dual = x_eigenvalues(UNITARY, (1, 1), letters, dual=True)
    tau_dual = x_eigenvalues(UNITARY, (1, 1), tuple(v.frobenius() for v in letters), dual=True)
    for i in range(2):
        for j in range(2):
            i2, _ = u_image(2, i)
            assert dual[i][j] == tau_dual[i2][j]
    cubic = CyclicAlgebraDescriptor(n=3, residue_size=2)
    with pytest.raises(ValueError):
        quotient_structure(cubic, (1, 0), "C")


# -- quotient structure -------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5])
def test_quaternion_quotient_structure(q):
    desc = CyclicAlgebraDescriptor(n=2, residue_size=q)
    computed, expected = quotient_structure(desc, (1, 0), "C")
    assert computed == expected == {"free_rank": 1, "violations": []}


def test_quaternion_relation_generator_structure():
    # rank one: basis x (x) x', x (x) y', y (x) x', y (x) y' at flats
    # 0, 1, 2, 3; the relations reduce to unit multiples of flats 1 and
    # 2 plus the single twist  x (x) x' - pi . y (x) y'
    desc = CyclicAlgebraDescriptor(n=2, residue_size=3)
    letters = find_test_letters(desc, "C")
    ncols, rows = _relation_rows(desc, (1, 0), letters)
    rows = _dense_rows(rows, ncols, desc.field.zero)
    pi = desc.field.one.shift(1)
    seen_dead = set()
    seen_twist = False
    for c in rows:
        assert c[3] == -(c[0] * pi)
        for flat in (1, 2):
            if c[flat] and not any(c[t] for t in (0, 1, 2, 3) if t != flat):
                if c[flat].val == 0:
                    seen_dead.add(flat)
        if c[0]:
            seen_twist = True
    assert seen_dead == {1, 2}
    assert seen_twist
    # the presolved system lives on the surviving flats 0 and 3 and holds
    # only the twists: the two u-rows that reach them, and no x-row
    columns, rows, swaps = relation_generators(desc, (1, 0), letters)
    assert columns == (0, 3)
    assert len(rows) == 2 and swaps == ()
    for c in _dense_rows(rows, len(columns), desc.field.zero):
        assert c[0] and c[1] == -(c[0] * pi)


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
    computed, expected = quotient_structure(desc, signature, kind)
    assert computed == expected == {"free_rank": rank, "violations": []}


def test_quotient_audits_report_a_vanished_survivor_and_a_revived_class(monkeypatch):
    # UNITARY at (2, 1): n = 2, r = 3; the chain of the eligible pair
    # (0, 2) is e_13 (x) e'_13, e_23 (x) e'_23, and e_21 (x) e'_13 must die
    n, r = 2, 3
    survivor = flat_index(n, r, 1, 0, 1, 2)
    dead = flat_index(n, r, 1, 0, 0, 2)
    tampered = partial(_TamperedDecomposition, zeroed={survivor}, revived={dead})
    monkeypatch.setattr(pel_modules, "_Decomposition", tampered)
    violations = quotient_structure(UNITARY, (2, 1), "A")[0]["violations"]
    assert "chain (0,2): surviving class vanishes" in violations
    assert "class e_(21) (x) e'_(13) should die but survives" in violations
    assert len(violations) == 3  # the third: C_1 = pi C_2 fails against a zero C_2
    assert "chain (0,2): twist C_1 = pi C_2 fails" in violations


def test_quotient_audit_reports_lines_that_are_not_a_basis(monkeypatch):
    # every class times pi keeps each twist C_1 = pi C_2 and leaves the dead
    # classes zero, so only the last audit sees that the surviving lines
    # span pi times the quotient
    monkeypatch.setattr(pel_modules, "_Decomposition", partial(_TamperedDecomposition, scaled=True))
    for signature in ((2, 1), (2, 2)):
        violations = quotient_structure(UNITARY, signature, "A")[0]["violations"]
        assert violations == ["surviving lines are not an O_E-basis of the quotient"]


def test_image_exponent_audit_reports_a_vanished_chain_class(monkeypatch):
    first = flat_index(2, 2, 0, 0, 0, 1)  # C_1 = e_11 (x) e'_12 of the pair (0, 1)
    monkeypatch.setattr(pel_modules, "_Decomposition", partial(_TamperedDecomposition, zeroed={first}))
    computed, expected = image_exponent(UNITARY, (1, 1), "A")
    # a chain with a vanished class has no profile and adds nothing
    assert computed["violations"] == ["chain (0,1): class 1 vanishes"]
    assert (computed["exponent"], expected["exponent"]) == (0, 1)


def test_image_exponent_audit_reports_a_wrong_profile(monkeypatch):
    # C_1 = e_11 (x) e'_14 of the pair (0, 3) gains a unit coordinate, so
    # both classes have valuation 0 and the profile reads [0, 0]
    first = flat_index(2, 4, 0, 0, 0, 3)
    monkeypatch.setattr(pel_modules, "_Decomposition", partial(_TamperedDecomposition, revived={first}))
    computed, expected = image_exponent(UNITARY, (2, 2), "A")
    assert computed["violations"] == [
        "chain (0,3): pi-exponent profile [0, 0], predicted [1, 0]",
        "chain (0,3): classes 1 and 2 not proportional",
    ]
    assert (computed["exponent"], expected["exponent"]) == (3, 4)


def test_image_exponent_audit_reports_classes_off_one_line(monkeypatch):
    # C_2 = e_22 (x) e'_24 of the pair (1, 3) gains a coordinate C_1 lacks;
    # the profile still reads [1, 0], only the audit sees it
    second = flat_index(2, 4, 1, 1, 1, 3)
    monkeypatch.setattr(pel_modules, "_Decomposition", partial(_TamperedDecomposition, revived={second}))
    computed, expected = image_exponent(UNITARY, (2, 2), "A")
    assert computed["violations"] == ["chain (1,3): classes 1 and 2 not proportional"]
    assert computed["exponent"] == expected["exponent"]


def _block_and_dense(monkeypatch, compute):
    """compute() as it runs, and with every decomposition replaced by one
    dense Smith normal form of the full system: all the generated rows of
    the place on every column, and the basis audit's rows."""
    block = compute()
    made = []

    def full_system(descriptor, signature, kind):
        ncols, rows, swaps = _relation_system(descriptor, signature, kind)
        return range(ncols), tuple(rows), tuple(swaps)

    def dense(field, columns, rows):
        assert columns == range(len(columns))
        made.append(len(columns))
        return _DenseDecomposition(field, rows, len(columns))

    with monkeypatch.context() as m:
        m.setattr(pel_modules, "_local_system", full_system)
        m.setattr(pel_modules, "_Decomposition", dense)
        oracle = compute()
    assert made
    return block, oracle


def _local_sweep():
    for q in (3, 5, 7):
        desc = CyclicAlgebraDescriptor(n=2, residue_size=q, conjugation_power=1)
        for p in (1, 2, 3):
            yield desc, (p, p), "A", True
        yield desc, (2, 1), "A", False
    for q in (2, 3, 5):
        desc = CyclicAlgebraDescriptor(n=2, residue_size=q)
        for r in (1, 2, 3, 4):
            yield desc, (r, 0), "C", True
    yield SPLIT, (1, 1), "A", True
    yield SPLIT, (2, 2), "A", True


def test_block_decomposition_matches_the_dense_oracle(monkeypatch):
    for desc, signature, kind, with_exponent in _local_sweep():
        block, oracle = _block_and_dense(
            monkeypatch, lambda: quotient_structure(desc, signature, kind)
        )
        assert block == oracle, (desc, signature)
        if with_exponent:
            block, oracle = _block_and_dense(
                monkeypatch, lambda: image_exponent(desc, signature, kind)
            )
            assert block == oracle, (desc, signature)


def _assert_partition(rows, ncols, blocks):
    owner = {}
    for b, (cols, _) in enumerate(blocks):
        for c in cols:
            assert c not in owner
            owner[c] = b
    assert sorted(owner) == list(range(ncols))
    placed = sorted(i for _, row_ids in blocks for i in row_ids)
    assert placed == [i for i, row in enumerate(rows) if row]
    for b, (_, row_ids) in enumerate(blocks):
        for i in row_ids:
            assert all(owner[c] == b for c, _ in rows[i])


def test_relation_rows_split_into_small_blocks(monkeypatch):
    letters = find_test_letters(UNITARY, "A")
    for swap in (False, True):
        ncols, rows = _relation_rows(UNITARY, (3, 3), letters)
        if swap:
            rows += _swap_rows(UNITARY, (3, 3))
        blocks = split_blocks(rows, ncols)
        _assert_partition(rows, ncols, blocks)
        assert {len(cols) for cols, _ in blocks} <= {2, 4}

    p, r = 4, 8
    rank_rows = pel_modules._rank_relations(p, p, *pel_modules._omega_data(-4))
    ncols = 2 * r * r
    rank_blocks = split_blocks(rank_rows, ncols, [(2 * c, 2 * c + 1) for c in range(r * r)])
    _assert_partition(rank_rows, ncols, rank_blocks)
    assert max(len(cols) for cols, _ in rank_blocks) <= 4

    # the series reductions see only the blocks of the surviving classes of
    # the relation rows and of the symmetrized rows, and every block of the
    # basis audit's rows; each reduction call reduces each distinct block once
    ncols, rows = _relation_rows(UNITARY, (3, 3), letters)
    dec = _FullRowDecomposition(UNITARY.field, rows, ncols)
    pairs = pel_modules._eligible_pairs((3, 3), "A", symmetrized=False)
    basis = [dec.free_terms(pel_modules._chain_indices(2, 6, j, k)[-1]) for j, k in pairs]
    sym_rows = rows + _swap_rows(UNITARY, (3, 3))
    zero = UNITARY.field.zero
    systems = [_surviving_blocks(rows, ncols), _surviving_blocks(sym_rows, ncols)]
    systems.append((basis, split_blocks(basis, dec.free_rank)))
    expected = _distinct_blocks(rank_rows, rank_blocks, 0) + sum(_distinct_blocks(*system, zero) for system in systems)
    every = len(rank_blocks) + sum(len(blocks) for _, blocks in systems)
    assert expected < every  # the relation modules repeat their blocks
    widths = []
    for name in ("smith_normal_form", "integer_smith_normal_form"):
        original = getattr(pel_modules, name)

        def narrow(matrix, ncols=None, original=original):
            widths.append(ncols)  # the SNFs check every row against it
            return original(matrix, ncols=ncols)

        monkeypatch.setattr(pel_modules, name, narrow)
    assert verdict(*quotient_structure(UNITARY, (3, 3), "A"), "exact") == "pass"
    assert verdict(*image_exponent(UNITARY, (3, 3), "A"), "exact") == "pass"
    assert verdict(*global_rank_lemma(p, p, -4), "exact") == "pass"
    assert len(widths) == expected and max(widths) <= 4


def _surviving_blocks(rows, ncols):
    """(rows less the killed columns, the blocks of the surviving columns)
    of a full place system: every row with one unit entry kills its
    column, and split_blocks cuts the other rows, less the killed columns,
    into blocks."""
    killed = {row[0][0] for row in rows if len(row) == 1 and row[0][1].val == 0}
    rest = [[(c, a) for c, a in row if c not in killed] for row in rows]
    return rest, [(cols, ids) for cols, ids in split_blocks(rest, ncols) if cols[0] not in killed]


def _distinct_blocks(rows, blocks, zero):
    """How many of `blocks` differ as dense matrices, by width or by an entry."""
    return len({
        (len(cols), tuple(tuple(dict(rows[i]).get(c, zero) for c in cols) for i in ids))
        for cols, ids in blocks
    })


def _every_block_reduced(monkeypatch, compute):
    """compute() with every block reduced on its own."""
    with monkeypatch.context() as m:
        m.setattr(pel_modules, "reduce_blocks", reduce_every_block)
        return compute()


def _count_calls(monkeypatch, name, calls):
    """Count the calls of pel_modules' `name` into the list `calls`."""
    original = getattr(pel_modules, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(pel_modules, name, counted)


def _sweep_places(residue_sizes, max_r):
    """(descriptor, signature, kind): n in {1, 2}, kinds A and C, q in
    `residue_sizes`, r <= max_r, each place whose test letters exist."""
    for n in (1, 2):
        for q in residue_sizes:
            for kind in ("A", "C"):
                desc = CyclicAlgebraDescriptor(n=n, residue_size=q, conjugation_power=int(n == 2 and kind == "A"))
                try:
                    find_test_letters(desc, kind)
                except DegenerateTestElement:
                    continue
                for r in range(1, max_r + 1):
                    yield desc, ((r // 2, r - r // 2) if kind == "A" else (r, 0)), kind


def test_block_dedup_matches_reducing_every_block(monkeypatch):
    def outcome(field, columns, rows):
        dec = pel_modules._Decomposition(field, columns, rows)
        return dec.free_rank, dec.torsion, [dec.free_terms(flat) for flat in columns]

    # two blocks of one shape that differ in their entries, and a repeat
    field = UNITARY.field
    one, pi = field.one, field.one.shift(1)
    hand = [[(0, one), (1, -pi)], [(2, pi), (3, -one)], [(4, one), (5, -pi)]]
    systems = [(field, range(6), hand)]
    places = list(_sweep_places((2, 3, 4, 5, 7, 9), 6))
    assert {(d.n, kind) for d, _, kind in places} == {(1, "A"), (1, "C"), (2, "A"), (2, "C")}
    for desc, signature, kind in places:
        columns, rows, swaps = pel_modules._local_system(desc, signature, kind)
        systems += [(desc.field, columns, rows), (desc.field, columns, rows + swaps)]
    calls, oracle_calls = [], []
    for system in systems:
        with monkeypatch.context() as m:
            _count_calls(m, "smith_normal_form", calls)
            fast = outcome(*system)
        with monkeypatch.context() as m:
            _count_calls(m, "smith_normal_form", oracle_calls)
            slow = _every_block_reduced(m, lambda: outcome(*system))
        assert fast == slow, system
    assert len(calls) < len(oracle_calls)


def test_rank_lemma_dedup_matches_reducing_every_block(monkeypatch):
    calls, oracle_calls = [], []
    for disc in (-3, -4, -7, -8, -15):
        for p in range(5):
            for q in range(5):
                r = p + q
                rows = pel_modules._rank_relations(p, q, *pel_modules._omega_data(disc))
                for cols, _ in split_blocks(rows, 2 * r * r, [(2 * c, 2 * c + 1) for c in range(r * r)]):
                    # the probe reads a block as adjacent coordinate pairs of its classes
                    assert all(c % 2 == 0 for c in cols[::2]) and cols[1::2] == [c + 1 for c in cols[::2]]
                with monkeypatch.context() as m:
                    for name in ("integer_smith_normal_form", "integer_inverse", "integer_det"):
                        _count_calls(m, name, calls)
                    fast = global_rank_lemma(p, q, disc)
                with monkeypatch.context() as m:
                    for name in ("integer_smith_normal_form", "integer_inverse", "integer_det"):
                        _count_calls(m, name, oracle_calls)
                    slow = _every_block_reduced(m, lambda: global_rank_lemma(p, q, disc))
                assert fast == slow, (p, q, disc)
    for name in ("integer_smith_normal_form", "integer_inverse", "integer_det"):
        assert calls.count(name) < oracle_calls.count(name), name


def test_presolved_system_matches_the_presolve_of_the_full_rows():
    # relation_generators' columns against the complement of the killed
    # set, its rows, mapped back to flats, against the presolve of every
    # generated row, and its decomposition against the one the full rows
    # fed before they were presolved, symmetrized or not.  For n <= 2 both
    # ends of a u- or swap row survive or die together, so no place row
    # loses just one end
    places = list(_sweep_places((2, 3, 4, 5, 7, 8, 9), 8))
    assert {(d.n, kind) for d, _, kind in places} == {(1, "A"), (1, "C"), (2, "A"), (2, "C")}
    assert {d.residue_size for d, _, _ in places} == {2, 3, 4, 5, 7, 8, 9}
    for desc, signature, kind in places:
        letters = find_test_letters(desc, kind)
        columns, rows, swaps = relation_generators(desc, signature, letters)
        ncols, full_rows = _relation_rows(desc, signature, letters)
        full_swaps = _swap_rows(desc, signature)
        for symmetrized in (False, True):
            system = rows + swaps if symmetrized else rows
            full = full_rows + full_swaps if symmetrized else full_rows
            killed, presolved, _ = _presolve_rows(full)
            assert columns == tuple(c for c in range(ncols) if c not in killed), (desc, signature, kind)
            flats = [tuple((columns[t], a) for t, a in row) for row in system]
            assert flats == presolved, (desc, signature, kind, symmetrized)
            dec = pel_modules._Decomposition(desc.field, columns, system)
            oracle = _FullRowDecomposition(desc.field, full, ncols)
            assert (dec.free_rank, dec.torsion) == (oracle.free_rank, oracle.torsion)
            assert [dec.free_terms(c) for c in range(ncols)] == [oracle.free_terms(c) for c in range(ncols)]


def _presolve_systems():
    """(name, field, rows, ncols): hand-built systems with the rows that
    relation_generators leaves out of a place's system (a unit
    single-entry row: alone, repeated, or sharing its column with another
    row) next to rows it keeps, decomposed as they stand."""
    field = UNITARY.field
    z = field.generator

    def m(val, coeff=field.one):
        return coeff.shift(val)

    return [
        # column 1 dies by the unit row and also sits in a u-row, whose
        # other entry is left as pi-torsion
        ("unit row and u-row", field, [[(1, m(0, z))], [(0, m(1)), (1, m(0, -field.one))]], 3),
        ("duplicate unit rows", field, [[(0, m(0))], [(0, m(0, z))], [(1, m(1)), (2, m(0))]], 3),
        # pi . e_0 = 0 is torsion, not a kill
        ("valuation-1 single entry", field, [[(0, m(1))], [(1, m(1)), (2, m(1, z))]], 3),
        ("row left empty", field, [[(0, m(0))], [(1, m(0, z))], [(0, m(2)), (1, m(2))]], 3),
        ("no rows", field, [], 2),
    ]


@pytest.mark.parametrize("name,field,rows,ncols", _presolve_systems(), ids=[s[0] for s in _presolve_systems()])
def test_presolve_matches_the_dense_oracle(name, field, rows, ncols):
    dec = pel_modules._Decomposition(field, range(ncols), rows)
    oracle = _DenseDecomposition(field, rows, ncols)
    assert (dec.free_rank, dec.torsion) == (oracle.free_rank, oracle.torsion)
    # whether a class survives does not depend on the basis of the free part
    alive = [bool(dec.free_terms(c)) for c in range(ncols)]
    assert alive == [bool(oracle.free_terms(c)) for c in range(ncols)]


# -- image exponents ----------------------------------------------------------
# no violations means every chain profile read (multiplier, 0, ..., 0)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_quaternion_image_exponent(q):
    desc = CyclicAlgebraDescriptor(n=2, residue_size=q)
    computed, expected = image_exponent(desc, (1, 0), "C")
    assert computed == {"exponent": 1, "dim": 1, "multiplier": 1, "violations": []}
    assert expected == {"exponent": 1, "violations": []}


def test_unitary_image_exponents():
    computed, expected = image_exponent(UNITARY, (1, 1), "A")
    assert computed == {"exponent": 1, "dim": 1, "multiplier": 1, "violations": []}
    assert expected["exponent"] == 1

    computed, expected = image_exponent(UNITARY, (2, 2), "A")
    assert computed == {"exponent": 4, "dim": 4, "multiplier": 1, "violations": []}
    assert expected["exponent"] == 4


def test_split_place_exponent_vanishes():
    computed, expected = image_exponent(SPLIT, (1, 1), "A")
    assert computed == {"exponent": 0, "dim": 1, "multiplier": 0, "violations": []}
    assert expected["exponent"] == 0


def test_unbalanced_unitary_signature_is_rejected():
    with pytest.raises(SignatureMismatch):
        image_exponent(UNITARY, (2, 1), "A")


@pytest.mark.parametrize("signature,kind", [((0, 0), "C"), ((0, 0), "A"), ((-1, 2), "A"), ((2, -1), "C")])
def test_bad_signature_is_refused(signature, kind):
    with pytest.raises(ValueError, match="bad signature"):
        quotient_structure(UNITARY, signature, kind)
    with pytest.raises(ValueError, match="bad signature"):
        image_exponent(UNITARY, signature, kind)


def test_symplectic_rank_two_exponent():
    computed, expected = image_exponent(UNITARY, (2, 0), "C")
    assert computed == {"exponent": 3, "dim": 3, "multiplier": 1, "violations": []}  # r(r+1)/2 chains, one pi each
    assert expected["exponent"] == 3


# -- global rank lemma --------------------------------------------------------
# no violations means both probe exponents equal (q, p) when pq > 0


def test_global_rank_sweep_gaussian():
    for p in range(5):
        for q in range(5):
            computed, expected = global_rank_lemma(p, q, -4)
            assert computed == expected, (p, q)
            assert expected["free_rank"] == 2 * p * q
            assert expected["normalizer_exists"] == (p == q)


@pytest.mark.parametrize("disc", [-7, -3, -8])
def test_global_rank_other_discriminants(disc):
    computed, expected = global_rank_lemma(2, 2, disc)
    assert computed == expected
    assert computed["free_rank"] == 8 and computed["normalizer_exists"]
    assert computed["torsion_annihilated"] and computed["torsion_order_matches"]
    computed, expected = global_rank_lemma(1, 2, disc)
    assert computed == expected and not computed["normalizer_exists"]


def test_global_rank_degenerate_signatures():
    # the empty signature takes the general path: no relations, no torsion,
    # both probes trivial
    empty = {
        "free_rank": 0,
        "torsion_annihilated": True,
        "torsion_order_matches": True,
        "normalizer_exists": True,
        "violations": [],
    }
    for disc in (-3, -4, -7, -8, -15):
        assert global_rank_lemma(0, 0, disc) == (empty, empty)
    computed, expected = global_rank_lemma(3, 0, -4)
    assert computed == expected and not computed["normalizer_exists"]
    assert computed["free_rank"] == 0
    assert computed["torsion_order_matches"]  # 6 matched classes, each of order 4


def _dense_probe_oracle(p, q, disc):
    """Free rank and torsion divisors by one dense integer Smith normal form,
    then (exponent, preserved) of the left and right probes by the dense V^-1 A V.

    The relation rows are rebuilt from the definition in the docstring of
    global_rank_lemma: W = O_F^r with i(beta) = diag(beta 1_p, conj(beta) 1_q),
    and R spanned over O_F by i(beta)u (x) v - u (x) i(conj(beta))v and by
    u (x) v - v (x) u.  Class (i, j) of e_i (x) e_j has the Z-coordinates
    2(ir + j), 2(ir + j) + 1 of its coefficient in Z + Z omega.
    """
    t1 = disc % 4  # omega^2 = t0 + t1 omega
    t0 = (disc - t1) // 4
    r = p + q
    N = 2 * r * r

    def mul(a, b):
        return (a[0] * b[0] + a[1] * b[1] * t0, a[0] * b[1] + a[1] * b[0] + a[1] * b[1] * t1)

    def conj(a):
        return (a[0] + a[1] * t1, -a[1])

    def sigma(i, a):
        return a if i < p else conj(a)

    def row(*terms):
        out = [0] * N
        for cls, c in terms:
            out[2 * cls] += c[0]
            out[2 * cls + 1] += c[1]
        return out

    scalars = [(1, 0), (0, 1)]
    rows = []
    for i in range(r):
        for j in range(r):
            for lam in scalars:
                for beta in scalars:
                    left = mul(lam, sigma(i, beta))
                    right = mul(lam, sigma(j, conj(beta)))
                    rows.append(row((i * r + j, (left[0] - right[0], left[1] - right[1]))))
                rows.append(row((i * r + j, lam), (j * r + i, (-lam[0], -lam[1]))))
    rows = [x for x in rows if any(x)]
    dec = integer_smith_normal_form(rows)
    free = [t for t, d in enumerate(dec.divisors) if d == 0]
    free += list(range(len(dec.divisors), N))
    Vinv = integer_inverse(dec.V)
    norm = mul((1, 1), conj((1, 1)))[0]

    def matmul(A, B):
        return [[sum(a * b for a, b in zip(x, col)) for col in zip(*B)] for x in A]

    results = [(len(free), [d for d in dec.divisors if d > 1])]
    for special in (0 if p else None, p if q else None):
        entries = [(1, 1) if i == special else (1, 0) for i in range(r)]
        A = [[0] * N for _ in range(N)]
        for i in range(r):
            for j in range(r):
                cls = i * r + j
                lam = mul(entries[i], entries[j])
                A[2 * cls][2 * cls] = lam[0]
                A[2 * cls][2 * cls + 1] = lam[1]
                A[2 * cls + 1][2 * cls] = lam[1] * t0
                A[2 * cls + 1][2 * cls + 1] = lam[0] + lam[1] * t1
        M = matmul(matmul(Vinv, A), dec.V)
        preserved = not any(M[t][s] for t in range(N) if t not in free for s in free)
        d = abs(integer_det([[M[t][s] for s in free] for t in free])) if free else 1
        e = 0
        while d > 1 and d % norm == 0:
            d //= norm
            e += 1
        assert d == 1, (p, q, disc)
        results.append((e, preserved))
    return results


@pytest.mark.parametrize("disc", [-3, -4, -7])
def test_rank_lemma_probe_matches_the_dense_oracle(disc):
    for p in range(4):
        for q in range(4):
            if p + q == 0:
                continue
            computed, _ = global_rank_lemma(p, q, disc)
            (free_rank, torsion), (left, left_ok), (right, right_ok) = _dense_probe_oracle(p, q, disc)
            matched = p * (p + 1) // 2 + q * (q + 1) // 2
            assert computed["free_rank"] == free_rank, (p, q)
            assert computed["torsion_annihilated"] == all(-disc % d == 0 for d in torsion), (p, q)
            assert computed["torsion_order_matches"] == (prod(torsion) == (-disc) ** matched), (p, q)
            assert left_ok and right_ok, (p, q)
            assert computed["normalizer_exists"] == (left == right if p * q else p == q), (p, q)
            # the block probes report a violation unless they read (q, p)
            if p * q:
                assert (left, right) == (q, p), (p, q)
            assert computed["violations"] == [], (p, q)


def test_global_rank_input_validation():
    with pytest.raises(ValueError):
        global_rank_lemma(1, 1, 5)
    with pytest.raises(ValueError):
        global_rank_lemma(1, 1, -6)


# -- tensor bookkeeping -------------------------------------------------------


def test_tensor_index_roundtrip():
    n, r = UNITARY.n, 3
    flat = 0
    for i in range(n):
        for j in range(r):
            for l in range(n):
                for k in range(r):
                    assert flat_index(n, r, i, j, l, k) == flat
                    assert unflat_index(n, r, flat) == (i, j, l, k)
                    flat += 1
    assert flat == _relation_rows(UNITARY, (2, 1), find_test_letters(UNITARY, "A"))[0]
