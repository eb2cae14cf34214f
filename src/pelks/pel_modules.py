"""Twisted modules over a local cyclic algebra and their tensor quotients.

The local input is a cyclic algebra descriptor together with a signature
(p, q).  The plain module has O_E-basis e_{ij}, 1 <= i <= n and
1 <= j <= p + q, on which a residue element x and the generator u act by

    x . e_{ij} = tau^{i-1}(x) e_{ij}        (j <= p)
    x . e_{ij} = tau^{i-1}(xbar) e_{ij}     (j > p)
    u . e_{1j} = pi e_{nj},   u . e_{ij} = e_{(i-1)j}   (i >= 2),

and the dual module has basis e'_{ij} with the conjugate twisted action

    x . e'_{ij} = tau^{n+1-i}(xbar) e'_{ij}  (j <= p)
    x . e'_{ij} = tau^{n+1-i}(x) e'_{ij}     (j > p)

and the same u shift.  So a module is one table of eigenvalues
(`x_eigenvalues`, with dual=True for the dual one) and the shared shift
`u_image`, and the class e_{ij} (x) e'_{lk} is column
`flat_index(n, r, i, j, l, k)` of plain (x) dual.  Test elements are
taken at a place split in the top field, so x is a residue pair
(v1, v2) with xbar = (v2, v1); the unitary case needs v1, v2 with all
2n Galois translates distinct, the symplectic case uses v2 = v1 with a
full tau orbit.

The quotient of plain (x) dual by the relations x.m (x) m' - m (x) x.m'
and u.m (x) m' - m (x) u.m' (and, symmetrized, m (x) m' minus its swap)
is computed by Smith normal form.  The x-row of a class kills it when
its two eigenvalues differ, as most do, so each place's system lives on
its surviving classes only: their columns and the u- and swap rows that
reach them.  It is reduced one connected block at a time (for n <= 2 at
most four columns: a u-row joins e_{ij} (x) e'_{lk} to the class with i
and l flipped, a swap row (j, k) to (k, j)), each distinct block once
per call by `algebra.reduce_blocks`, which the rank lemma's integer
blocks go through as well.  The result is checked against its
predicted shape: one free line per eligible column pair, spanned by the
chain

    e_{1j} (x) e'_{1k} = pi e_{2j} (x) e'_{nk} = pi e_{ij} (x) e'_{(n+2-i)k},

whose pi-exponent profile (1, 0, ..., 0) is the local contribution to
the image ideal.  quotient_structure, image_exponent and
global_rank_lemma return the check catalog's (computed, expected) pair
themselves: the free rank, exponent or torsion next to its prediction,
and every failed audit as a line of `violations`.
"""

from functools import lru_cache, partial
from math import prod

from .algebra import (
    INF,
    DegenerateTestElement,
    RingMatrix,
    integer_det,
    integer_inverse,
    integer_smith_normal_form,
    reduce_blocks,
    smith_normal_form,
    split_blocks,
)


class SignatureMismatch(Exception):
    """Raised when an image-ideal count needs p = q but the signature differs."""


def x_eigenvalues(descriptor, signature, letters, dual=False):
    """n x (p + q) table of the eigenvalues of the pair (v1, v2), 0-based:
    row i, column j holds its eigenvalue on e_{ij}, or on e'_{ij} when
    `dual` (the two twisted actions of the module docstring)."""
    v1, v2 = letters
    p, q = signature
    n = descriptor.n
    if dual:
        return [[descriptor.tau(v2 if j < p else v1, n - i) for j in range(p + q)] for i in range(n)]
    return [[descriptor.tau(v1 if j < p else v2, i) for j in range(p + q)] for i in range(n)]


def u_image(n, i):
    """u . e_{ij} = pi^e e_{i'j} on both modules; returns (i', e), 0-based."""
    if i == 0:
        return n - 1, 1
    return i - 1, 0


def flat_index(n, r, i, j, l, k):
    """Flat column of e_{ij} (x) e'_{lk}, all indices 0-based."""
    return ((i * r + j) * n + l) * r + k


def unflat_index(n, r, flat):
    """(i, j, l, k) with flat_index(n, r, i, j, l, k) == flat."""
    flat, k = divmod(flat, r)
    flat, l = divmod(flat, n)
    i, j = divmod(flat, r)
    return i, j, l, k


def find_test_letters(descriptor, kind):
    """Smallest residue pair (v1, v2) separating the twisted actions.

    Kind "A": all 2n translates tau^a(v1), tau^a(v2) are distinct.
    Kind "C": v2 = v1 and the n translates tau^a(v1) are distinct.
    """
    field = descriptor.field
    n = descriptor.n
    zeta = field.generator
    steps = range(1, field.size - 1)
    if kind == "A":
        pairs = ((a, b) for a in steps for b in steps if a != b)
        width, missing = 2 * n, "separating residue pair with 2n distinct translates"
    else:
        pairs = ((a, a) for a in steps)
        width, missing = n, "residue element with a full tau orbit"
    for a, b in pairs:
        translates = {descriptor.tau(v, t) for v in (zeta**a, zeta**b) for t in range(n)}
        if len(translates) == width:
            return zeta**a, zeta**b
    raise DegenerateTestElement(f"no {missing} in GF({field.size})")


def relation_generators(descriptor, signature, letters):
    """The relation system of one place on its surviving classes:
    (columns, rows, swaps).

    A class whose two eigenvalues differ (by discrete log) is killed by
    its unit x-row, so `columns` are the other flat classes, ascending.
    `rows` and `swaps` are the u-rows and the swap rows (one per unordered
    pair of distinct classes) that reach a survivor, in flat order, as
    (position in columns, monomial) tuples in ascending position.  For
    n <= 2 (tau^2 = 1) both ends of such a row survive; a dead end raises.
    """
    n, r = descriptor.n, sum(signature)
    plain = x_eigenvalues(descriptor, signature, letters)
    dual = x_eigenvalues(descriptor, signature, letters, dual=True)
    duals = {}  # discrete log -> the dual positions (l, k) of that eigenvalue
    for l in range(n):
        for k in range(r):
            duals.setdefault(dual[l][k].log, []).append((l, k))
    cells = [(i, j, l, k) for i in range(n) for j in range(r) for l, k in duals.get(plain[i][j].log, ())]
    columns = sorted(flat_index(n, r, *cell) for cell in cells)
    position = {flat: t for t, flat in enumerate(columns)}
    one, rows = descriptor.field.one, []
    pis, minus = (one, one.shift(1)), (-one, -one.shift(1))  # +-pi^e
    # the u-row of (i, j, l, k) reaches (i - 1, j, l, k) and (i, j, l - 1, k);
    # when tau^2 = 1 the second end survives with the first, so the rows that
    # reach a survivor are those of the survivors' i-shifts; for n = 1 both
    # ends are the class itself and cancel, so no u-row is left
    sources = sorted({((i + 1) % n, j, l, k) for i, j, l, k in cells}) if n > 1 else ()
    for i, j, l, k in sources:  # flat order is the order of (i, j, l, k)
        (i2, e1), (l2, e2) = u_image(n, i), u_image(n, l)
        ends = [(flat_index(n, r, i2, j, l, k), pis[e1]), (flat_index(n, r, i, j, l2, k), minus[e2])]
        rows.append(tuple(sorted((position[flat], a) for flat, a in ends)))
    pairs = {(flat_index(n, r, i, j, l, k), flat_index(n, r, l, k, i, j)) for i, j, l, k in cells}
    pairs = sorted({(min(pair), max(pair)) for pair in pairs if pair[0] != pair[1]})
    swaps = [((position[a], one), (position[b], minus[0])) for a, b in pairs]
    return tuple(columns), tuple(rows), tuple(swaps)


@lru_cache(maxsize=16)
def _local_system(descriptor, signature, kind):
    """relation_generators at the test letters, once per place for both
    local checks; no caller mutates its rows."""
    return relation_generators(descriptor, signature, find_test_letters(descriptor, kind))


def _series_reduction(field, dense, width):
    """(V, positive finite exponents, free columns) of one dense block."""
    V, exponents = smith_normal_form(RingMatrix(field, dense), ncols=width)
    free = [t for t, e in enumerate(exponents) if e == INF] + list(range(len(exponents), width))
    return V, [e for e in exponents if 0 < e < INF], free


class _Decomposition:
    """Quotient coordinates of O^columns by a sparse system whose rows
    index positions in `columns` (the form of relation_generators).

    Each distinct connected block is reduced once (algebra.reduce_blocks),
    so V is block-diagonal and the blocks number the free slots in order.
    `torsion` holds the positive finite exponents, ascending.
    """

    def __init__(self, field, columns, rows):
        self.free_rank, self.torsion, self._terms = 0, [], {}
        reduce = partial(_series_reduction, field)
        for cols, (V, torsion, free) in reduce_blocks(rows, split_blocks(rows, len(columns)), reduce, field.zero):
            self.torsion += torsion
            slots = range(self.free_rank, self.free_rank + len(free))
            self.free_rank += len(free)
            for t, c in enumerate(cols):
                if terms := [(s, V[t][f]) for s, f in zip(slots, free) if V[t][f]]:
                    self._terms[columns[c]] = terms
        self.torsion.sort()

    def free_terms(self, flat):
        """Image of basis class `flat` in the free part of the quotient, as
        its nonzero (slot, coordinate) pairs in slot order."""
        return self._terms.get(flat, [])


def _chain_indices(n, r, j, k):
    """Flat indices of C_1, ..., C_n with C_i = e_{ij} (x) e'_{l(i)k},
    l(i) = n + 2 - i cyclically (0-based: l0 = (n - i0) mod n)."""
    return [flat_index(n, r, i0, j, (n - i0) % n, k) for i0 in range(n)]


def _eligible_pairs(signature, kind, symmetrized):
    """Column pairs (j, k) that keep a free line; one per unordered pair when symmetrized."""
    p, q = signature
    r = p + q
    if kind == "A":
        if symmetrized:
            return [(j, k) for j in range(p) for k in range(p, r)]
        return [(j, k) for j in range(r) for k in range(r) if (j < p) != (k < p)]
    if symmetrized:
        return [(j, k) for j in range(r) for k in range(j, r)]
    return [(j, k) for j in range(r) for k in range(r)]


def _relation_quotient(descriptor, signature, kind, symmetrized):
    """Shared start of quotient_structure and image_exponent.

    Validates the input, decomposes the quotient by the relations (with
    the swap relations when symmetrized) and records the free-rank and
    torsion violations.  Returns (decomposition, eligible pairs,
    violations).
    """
    if kind not in ("A", "C"):
        raise ValueError(f"kind must be 'A' or 'C', got {kind!r}")
    p, q = signature
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError(f"bad signature {signature}")
    if symmetrized and kind == "A" and p != q:
        raise SignatureMismatch(f"image-ideal count needs a balanced signature, got ({p},{q})")
    if kind == "C" and q != 0:
        raise ValueError("symplectic signature must be (r, 0)")
    # The dual table commutes with the u shift only when tau^2 = 1:
    # u.(x.e'_{ik}) carries tau^{n+3-i}(xbar) against tau^{n+1-i}(xbar).
    if descriptor.n > 2:
        raise ValueError(
            "dual action tables are compatible with the u shift only for n <= 2"
        )
    columns, rows, swaps = _local_system(descriptor, signature, kind)
    dec = _Decomposition(descriptor.field, columns, rows + swaps if symmetrized else rows)
    pairs = _eligible_pairs(signature, kind, symmetrized)

    violations = []
    if dec.free_rank != len(pairs):
        label = "symmetrized free rank" if symmetrized else "free rank"
        violations.append(f"{label} {dec.free_rank}, predicted {len(pairs)}")
    if dec.torsion:
        violations.append(f"unexpected torsion exponents {dec.torsion}")
    return dec, pairs, violations


def quotient_structure(descriptor, signature, kind):
    """Quotient of the tensor module by the x- and u-relations, as
    (computed, expected) free rank and violations.

    Validates the predicted structure: the quotient is O_E-free, one
    line per eligible (j, k) with the chain classes equal from C_2 on
    and C_1 = pi C_2, every other class zero, and the surviving lines
    independent.
    """
    dec, pairs, violations = _relation_quotient(
        descriptor, signature, kind, symmetrized=False
    )
    field = descriptor.field
    n, r = descriptor.n, sum(signature)

    last_classes = []
    survivor_flats = set()
    pi = field.one.shift(1)
    for (j, k) in pairs:
        chain = _chain_indices(n, r, j, k)
        survivor_flats.update(chain)
        terms = [dec.free_terms(flat) for flat in chain]
        for i0 in range(2, n):
            if terms[i0] != terms[1]:
                violations.append(f"chain ({j},{k}): class {i0 + 1} differs from class 2")
        tail = terms[1] if n > 1 else terms[0]
        if n > 1 and terms[0] != [(s, pi * a) for s, a in tail]:
            violations.append(f"chain ({j},{k}): twist C_1 = pi C_2 fails")
        if not tail:
            violations.append(f"chain ({j},{k}): surviving class vanishes")
        last_classes.append(chain[-1])

    for flat in range((n * r) ** 2):
        if flat not in survivor_flats and dec.free_terms(flat):
            i, j, l, k = unflat_index(n, r, flat)
            violations.append(
                f"class e_({i + 1}{j + 1}) (x) e'_({l + 1}{k + 1}) should die but survives"
            )

    if pairs and not violations:
        # a square system: the lines are a basis iff every exponent is 0
        audit = _Decomposition(field, range(dec.free_rank), [dec.free_terms(flat) for flat in last_classes])
        if audit.free_rank or audit.torsion:
            violations.append("surviving lines are not an O_E-basis of the quotient")

    computed = {"free_rank": dec.free_rank, "violations": violations}
    return computed, {"free_rank": len(pairs), "violations": []}


def image_exponent(descriptor, signature, kind):
    """pi-exponent of the image ideal after symmetrization, as
    (computed, expected).

    Adds the swap relations to the x- and u-relations, then reads off
    the valuation profile of each merged chain against its primitive
    class; each profile must be (multiplier, 0, ..., 0).  The expected
    total is (discriminant multiplier) x (number of unordered eligible
    pairs).
    """
    dec, reps, violations = _relation_quotient(
        descriptor, signature, kind, symmetrized=True
    )
    n, r = descriptor.n, sum(signature)
    dim = (r * r) // 4 if kind == "A" else r * (r + 1) // 2
    multiplier = int(descriptor.is_division)
    predicted = [multiplier] + [0] * (n - 1)

    zero = descriptor.field.zero
    exponent = 0
    for (j, k) in reps:
        chain = _chain_indices(n, r, j, k)
        terms = [dec.free_terms(flat) for flat in chain]
        vals = []
        for i0, y in enumerate(terms):
            if not y:
                violations.append(f"chain ({j},{k}): class {i0 + 1} vanishes")
                vals.append(None)
            else:
                vals.append(min(a.val for _, a in y))
        if any(v is None for v in vals):
            continue
        base = min(vals)
        profile = [v - base for v in vals]
        if profile != predicted:
            violations.append(f"chain ({j},{k}): pi-exponent profile {profile}, predicted {predicted}")
        # proportionality: consecutive classes span the same line; a
        # 2x2 minor with a slot outside both supports vanishes
        for i0 in range(1, len(terms)):
            y, z = dict(terms[i0 - 1]), dict(terms[i0])
            support = sorted(y.keys() | z.keys())
            if any(
                y.get(t, zero) * z.get(s, zero) != y.get(s, zero) * z.get(t, zero)
                for a, t in enumerate(support)
                for s in support[a + 1:]
            ):
                violations.append(f"chain ({j},{k}): classes {i0} and {i0 + 1} not proportional")
        exponent += sum(profile)

    computed = {"exponent": exponent, "dim": dim, "multiplier": multiplier, "violations": violations}
    return computed, {"exponent": multiplier * dim, "violations": []}


# -- global rank lemma --------------------------------------------------------


def _omega_data(discriminant):
    """Multiplication data for Z[omega] of the given discriminant:
    omega^2 = t0 + t1 omega."""
    if discriminant % 4 == 0:
        return discriminant // 4, 0
    if discriminant % 4 == 1:
        return (discriminant - 1) // 4, 1
    raise ValueError(f"{discriminant} is not a quadratic discriminant")


def _qmul(a, b, t0, t1):
    """(a0 + a1 omega)(b0 + b1 omega) in Z[omega]."""
    return (
        a[0] * b[0] + a[1] * b[1] * t0,
        a[0] * b[1] + a[1] * b[0] + a[1] * b[1] * t1,
    )


def _qconj(a, t1):
    """a0 + a1 omega -> a0 + a1 (t1 - omega)."""
    return (a[0] + a[1] * t1, -a[1])


def _qnorm(a, t0, t1):
    n = _qmul(a, _qconj(a, t1), t0, t1)
    assert n[1] == 0
    return n[0]


def global_rank_lemma(p, q, discriminant):
    """Rank and normalizer count for (W (x)_{O_F} W) / R over Z[omega].

    W = O_F^(p+q) with i(beta) = diag(beta 1_p, conj(beta) 1_q); R is
    the O_F-span of i(beta)u (x) v - u (x) i(conj(beta))v and of
    u (x) v - v (x) u.  The quotient is free of O_F-rank pq on the
    mismatched classes, with each matched class contributing torsion
    killed by the discriminant.  A determinant normalizer exists
    exactly for balanced signatures, probed by the action of
    diag(1 + omega, 1, ..., 1) on each block.  Returns (computed,
    expected) free rank, torsion, normalizer and violations.
    """
    if discriminant >= 0:
        raise ValueError("expected the discriminant of an imaginary quadratic order")
    if p < 0 or q < 0:
        raise ValueError("signature must be nonnegative")
    t0, t1 = _omega_data(discriminant)
    r = p + q
    N = 2 * r * r
    rows = _rank_relations(p, q, t0, t1)
    # the probe acts on each class by a 2x2 block, so a block must hold
    # both coordinates of its classes even where no relation row does
    links = [(2 * cls, 2 * cls + 1) for cls in range(r * r)]
    divisors = []
    probed = []  # (columns, V, V^-1, free slots, probe dict) of each block with free slots
    blocks = split_blocks(rows, N, links)
    for cols, (block_divisors, V, Vinv, free, probes) in reduce_blocks(rows, blocks, _integer_reduction, 0):
        divisors += block_divisors
        if free:
            probed.append((cols, V, Vinv, free, probes))
    free_rank = N - sum(1 for d in divisors if d)

    # the torsion is the sum of the Z/d over the block divisors d > 1: |D|
    # kills it when it kills each of them, and its order is their product
    torsion = [d for d in divisors if d > 1]
    absD = -discriminant
    matched_unordered = p * (p + 1) // 2 + q * (q + 1) // 2

    violations = []

    def probe(block):
        """|det| exponent of diag(1 + omega, 1, ...) on the given block."""
        entries = []
        for i in range(r):
            special = (i == 0 and p > 0) if block == "left" else (i == p and q > 0)
            entries.append((1, 1) if special else (1, 0))
        # the probe A is diagonal on classes: (i, j) scales by entries[i]*entries[j],
        # acting by the right-action 2x2 block of multiplication by lam on
        # Z + Z omega.  A keeps every relation block, so V^-1 A V is
        # block-diagonal and its free part has the product of the blocks'
        # determinants; only the free columns of A V are needed
        d, preserved = 1, True
        for cols, V, Vinv, free, probes in probed:
            classes = (divmod(c // 2, r) for c in cols[::2])
            lams = tuple(_qmul(entries[i], entries[j], t0, t1) for i, j in classes)
            if lams not in probes:
                AV = [None] * len(cols)
                for t, lam in zip(range(0, len(cols), 2), lams):
                    x, y = V[t], V[t + 1]
                    AV[t] = [lam[0] * x[s] + lam[1] * y[s] for s in free]
                    AV[t + 1] = [lam[1] * t0 * x[s] + (lam[0] + lam[1] * t1) * y[s] for s in free]
                # M = V^-1 A V restricted to the free columns
                M = _imatmul(Vinv, AV)
                probes[lams] = (
                    abs(integer_det([M[t] for t in free])),
                    not any(any(M[t]) for t in range(len(cols)) if t not in free),
                )
            block_det, block_preserved = probes[lams]
            preserved = preserved and block_preserved
            d *= block_det
        if not preserved:
            violations.append("probe does not preserve the free part")
        base = abs(_qnorm((1, 1), t0, t1))
        e = 0
        while d > 1 and d % base == 0:
            d //= base
            e += 1
        if d != 1:
            violations.append("probe determinant is not a power of N(1 + omega)")
            return -1
        return e

    a = probe("left")
    b = probe("right")
    if p * q and (a != q or b != p):
        violations.append(f"probe exponents ({a}, {b}) differ from ({q}, {p})")
    computed = {
        "free_rank": free_rank,
        "torsion_annihilated": all(absD % d == 0 for d in torsion),
        "torsion_order_matches": prod(torsion) == absD**matched_unordered,
        "normalizer_exists": (a == b) if p * q else (p == q),
        "violations": violations,
    }
    expected = {
        "free_rank": 2 * p * q,
        "torsion_annihilated": True,
        "torsion_order_matches": True,
        "normalizer_exists": p == q,
        "violations": [],
    }
    return computed, expected


def _integer_reduction(dense, width):
    """(divisors, V, V^-1 if any column is free, free columns, probe dict)
    of one dense block.  A block holds both coordinates of each of its
    classes, adjacent, so V and the class scalars fix the block's part of
    the probe: the dict keeps it per scalar tuple, for every block that
    shares this reduction."""
    dec = integer_smith_normal_form(dense, ncols=width)
    free = [t for t, d in enumerate(dec.divisors) if d == 0] + list(range(len(dec.divisors), width))
    return dec.divisors, dec.V, integer_inverse(dec.V) if free else None, free, {}


def _rank_relations(p, q, t0, t1):
    """Sparse Z-rows of R; class cls = i r + j has coordinates 2 cls, 2 cls + 1."""
    r = p + q
    omega = (0, 1)
    one = (1, 0)
    gamma = (-t1, 2)  # omega - conj(omega)

    def row(*terms):
        out = {}
        for cls, lam in terms:
            for c, x in ((2 * cls, lam[0]), (2 * cls + 1, lam[1])):
                out[c] = out.get(c, 0) + x
        return [(c, x) for c, x in sorted(out.items()) if x]

    rows = []
    for i in range(r):
        for j in range(r):
            cls = i * r + j
            matched = (i < p) == (j < p)
            if matched:
                lam = gamma if i < p else (-gamma[0], -gamma[1])
                for coeff in (lam, _qmul(omega, lam, t0, t1)):
                    rows.append(row((cls, coeff)))
            if i < j:
                for coeff in (one, omega):
                    rows.append(row((cls, coeff), (j * r + i, (-coeff[0], -coeff[1]))))
    return rows


def _imatmul(A, B):
    BT = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in BT] for row in A]
