"""The full relation system of a place, every row generated: the oracle for
`pel_modules.relation_generators`, which builds only what survives the
presolve.

`_relation_rows` yields, for every basis class m (x) m', the x-row
x.m (x) m' - m (x) x.m' (when nonzero) and the u-row
u.m (x) m' - m (x) u.m' (empty for n = 1, where the two u images
cancel); `_swap_rows` yields m (x) m' - swap(m (x) m') once per unordered
pair of distinct classes.  Rows are tuples of (column, monomial) pairs
in ascending column order.  `_presolve_rows` is the presolve that the
verdict path used to run on these rows, and `_FullRowDecomposition` the
decomposition it fed: split over every column, killed columns skipped,
blocks keyed by their dense monomial rows.  `_presolve_rows` also gives
the full system's row count, which `relation_generators` no longer
carries.

`reduce_every_block` is `algebra.reduce_blocks` without its dedup: the
double that the dedup tests swap in to reduce every block on its own.
"""

from pelks.algebra import INF, RingMatrix, smith_normal_form, split_blocks
from pelks.pel_modules import (
    find_test_letters,
    flat_index,
    u_image,
    unflat_index,
    x_eigenvalues,
)


def _relation_rows(descriptor, signature, letters):
    """(ncols, rows): the x- and u-rows of every class, in class order."""
    one = descriptor.field.one
    n, r = descriptor.n, sum(signature)
    plain = x_eigenvalues(descriptor, signature, letters)
    dual = x_eigenvalues(descriptor, signature, letters, dual=True)
    rows = []

    def row(*entries):
        out = {}
        for flat, term in entries:
            out[flat] = out[flat] + term if flat in out else term
        rows.append(tuple((flat, a) for flat, a in sorted(out.items()) if a))

    for i in range(n):
        for j in range(r):
            for l in range(n):
                for k in range(r):
                    flat = flat_index(n, r, i, j, l, k)
                    c = plain[i][j] - dual[l][k]
                    if c:
                        row((flat, c))
                    i2, e1 = u_image(n, i)
                    l2, e2 = u_image(n, l)
                    row(
                        (flat_index(n, r, i2, j, l, k), one.shift(e1)),
                        (flat_index(n, r, i, j, l2, k), -one.shift(e2)),
                    )
    return (n * r) ** 2, rows


def _swap_rows(descriptor, signature):
    """The rows m (x) m' - swap(m (x) m'), once per unordered pair of
    distinct classes."""
    n, r = descriptor.n, sum(signature)
    one = descriptor.field.one
    rows = []
    for flat in range((n * r) ** 2):
        i, j, l, k = unflat_index(n, r, flat)
        swapped = flat_index(n, r, l, k, i, j)
        if flat < swapped:
            rows.append(((flat, one), (swapped, -one)))
    return rows


def _relation_system(descriptor, signature, kind):
    """(ncols, x/u rows, swap rows) of one place, at its test letters."""
    letters = find_test_letters(descriptor, kind)
    ncols, rows = _relation_rows(descriptor, signature, letters)
    return ncols, rows, _swap_rows(descriptor, signature)


def _presolve_rows(rows):
    """(killed, rows less the killed columns with the empty ones left out,
    row count): every row with one entry, of valuation 0, kills its column."""
    killed = {row[0][0] for row in rows if len(row) == 1 and row[0][1].val == 0}
    rest = [[(c, a) for c, a in row if c not in killed] for row in rows]
    return killed, [tuple(row) for row in rest if row], len(rows)


class _FullRowDecomposition:
    """The decomposition of a full sparse system as the verdict path ran it
    before it built the presolved system directly: the presolve above, then
    split_blocks over every column, skipping the killed ones, and one
    Smith normal form per distinct dense block.  `torsion` holds the
    positive finite exponents, ascending."""

    def __init__(self, field, rows, ncols):
        killed = {row[0][0] for row in rows if len(row) == 1 and row[0][1].val == 0}
        rest = [[(c, a) for c, a in row if c not in killed] for row in rows]
        self.free_rank = 0
        self._terms = [[] for _ in range(ncols)]
        finite = []
        reduced = {}
        for cols, row_ids in split_blocks(rest, ncols):
            if cols[0] in killed:
                continue
            local = {c: t for t, c in enumerate(cols)}
            dense = []
            for i in row_ids:
                line = [field.zero] * len(cols)
                for c, a in rest[i]:
                    line[local[c]] = a
                dense.append(line)
            key = len(cols), tuple(map(tuple, dense))
            if key not in reduced:
                reduced[key] = smith_normal_form(RingMatrix(field, dense), ncols=len(cols))
            V, exponents = reduced[key]
            finite += [e for e in exponents if e != INF]
            free = [t for t, e in enumerate(exponents) if e == INF]
            free += range(len(exponents), len(cols))
            slots = range(self.free_rank, self.free_rank + len(free))
            self.free_rank += len(free)
            for t, c in enumerate(cols):
                self._terms[c] = [(s, V[t][f]) for s, f in zip(slots, free) if V[t][f]]
        self.torsion = sorted(e for e in finite if e > 0)

    def free_terms(self, flat):
        return self._terms[flat]


def reduce_every_block(rows, blocks, reduce, zero):
    """(columns, reduce(dense rows, width)) for every block, `reduce` run
    on each, so no block shares a reduction (or a probe dict in one)."""
    for cols, row_ids in blocks:
        local = {c: t for t, c in enumerate(cols)}
        dense = [[zero] * len(cols) for _ in row_ids]
        for line, i in zip(dense, row_ids):
            for c, a in rows[i]:
                line[local[c]] = a
        yield cols, reduce(dense, len(cols))
