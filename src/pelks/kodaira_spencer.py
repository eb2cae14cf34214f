"""The connecting morphism of the fiber embedding, made numerical.

The chain runs: cocycle of the period map (how fiber coordinates move
with the domain point), w-vectors (the cotangent vectors representing
coordinate functionals through the polarization form), the map phi
sending a fiber 1-form to a fiber-form-valued domain 1-form, and the
quadratic contraction psi whose block determinants multiply to a
constant c.  |c| times the canonical domain norm reproduces a power of
the lattice norm; that comparison is the whole point of the module.

Conventions repeated from the lattice layer: fiber coordinates flatten
an n x r matrix row-major, the column blocks j < r/2 and j >= r/2 of
the two-block model are the plain and conjugate embeddings, and all
form extensions are R-bilinear.  Domain coordinates are the full
(r/2) x (r/2) matrix Z for the two-block model and the upper triangle
of the symmetric r x r matrix for the classical model.

Each model's index map is stated once, by `_incidences`, as a table of
triples (fiber coordinate a, target functional tau, domain label t):
fiber coordinate a moves with domain coordinate t at the rate tau(x)
of the element x, and no other pair moves.

  two-block   (i r + j,       lin(i, k),  (k, j))   j, k < r/2
              (i r + r/2 + b, conj(i, k), (b, k))   b, k < r/2
  classical   (i r + j,       lin(i, c),  (min(c, j), max(c, j)))

A target is an integer row (i, k, conj): it reads entry (i, k) of a
label, conjugated when conj is 1 (only the two-block model has conj
rows; in the classical model k < r reads the m part of [m | n]).  The
table itself is three parallel index arrays: fiber coordinate, target
row and domain label position, one entry per triple, no (a, t) pair
twice.  The cocycle reads the targets off each element and scatters
them to (a, t).  phi is the (nr, nr, labels) array whose slot (a, :, t)
is the w-vector of the target at (a, t) and zero off the incidences,
so the w-vectors determine it: `assemble_phi` widens them into phi's
incidence rows, one w-vector per triple, for library users and tests.
The checks' readers never build those rows.  They read phi's slots
straight from the w-vectors, through index pairs built once per
embedding (`_row_index`) and already composed with the target map, so
each read is one gather: the psi block of label (a, b) pairs row
column b with column a + r/2 (two-block) or a (classical), and the
off-block, matched and mirrored slots are gathers of their own.

The defining equation of a w-vector: the antilinear part of
v -> 2 pi i E_mu(w, v) equals the antilinear part of the R-linear
extension of the target functional.  Both sides are determined by
their values on the standard complex basis, which is how the solver
sets up its square real system.

Every result is a plain array, or a pair with one.  Sampled ones carry
the leading sample axis of their points (`domains`): a lattice stack
gives w-vectors of shape (..., targets, nr), phi rows
(..., incidences, nr), and, read off the w-vectors, one psi value and
off-block defect per sample; the cocycle Jacobian is (elements, nr,
labels), and its numeric twin at a stack of points the (points - 1,
elements, nr) image differences from the first point.  The metric
identity takes a lattice stack and its w-vectors and returns one ratio
per sample, with the exponent k0.
"""

from functools import lru_cache, reduce
from math import pi
from operator import mul
from typing import NamedTuple

import numpy as np

from .domains import per_sample, petersson_norm
from .lattices import checked_inverse, embed_labels, faltings_norm, generator_labels


# largest condition number the w-solve accepts, read as the bound
# |M|_F |M^{-1}|_F of its pairing matrix M (`lattices.checked_inverse`)
COND_LIMIT = 1e12


class SingularPairing(Exception):
    """The pairing matrix of the w-solve is numerically singular."""


def domain_coordinates(emb):
    """Coordinate labels of the domain tangent directions.

    Two-block model: all (k, j) entries of the (r/2) x (r/2) matrix.
    Classical model: the pairs (a, b) with a <= b of the symmetric
    r x r matrix, lexicographic.
    """
    if emb.kind == "A":
        half = emb.r // 2
        return tuple((k, j) for k in range(half) for j in range(half))
    return tuple((a, b) for a in range(emb.r) for b in range(a, emb.r))


def domain_genus(emb):
    """Size of the domain's matrices: r/2 (two-block) or r (classical)."""
    return emb.r // 2 if emb.kind == "A" else emb.r


@lru_cache(maxsize=16)
def _incidences(emb):
    """The model's index map: (targets, fiber, target, label).

    `targets` holds the target functionals as (i, k, conj) rows, each
    once, in table order; `fiber`, `target` and `label` are parallel,
    one entry per incidence: the fiber coordinate, the row of
    `targets`, and the position of the domain label.  Built once per
    embedding (an embedding hashes by identity), so the arrays are
    read-only.
    """
    n, r = emb.n, emb.r
    if emb.kind == "A":
        half = r // 2
        cells = [(i, j, k) for i in range(n) for j in range(half) for k in range(half)]
        table = [(i * r + j, (i, k, 0), (k, j)) for i, j, k in cells]
        table += [(i * r + half + b, (i, k, 1), (b, k)) for i, b, k in cells]
    else:
        cells = [(i, j, c) for i in range(n) for j in range(r) for c in range(r)]
        table = [(i * r + j, (i, c, 0), (min(c, j), max(c, j))) for i, j, c in cells]
    fiber, functional, label = zip(*table)
    row = {tau: s for s, tau in enumerate(dict.fromkeys(functional))}
    position = {lab: t for t, lab in enumerate(domain_coordinates(emb))}
    out = (
        np.array(list(row)),
        np.array(fiber),
        np.array([row[tau] for tau in functional]),
        np.array([position[lab] for lab in label]),
    )
    for array in out:
        array.setflags(write=False)
    return out


class _RowIndex(NamedTuple):
    """Slots of phi as (row, column) index pairs into the w-vectors: slot
    (fiber[e], c, label[e]) is entry (target[e], c), and row
    len(targets) is a zero row appended below them."""

    block: tuple  # [t, l, i] reads slot (i r + b, l r + a + shift, t) of label t = (a, b)
    off: tuple  # the slots of every block's rows and columns at the other labels
    mirror: tuple  # [e, b] reads slot (b, fiber[e], label[e]), or the zero row
    matched: tuple  # the both-plain and both-conjugate slots; None in the classical model


@lru_cache(maxsize=16)
def _row_index(emb):
    """The index pairs of `_RowIndex` for one embedding, read-only, built
    once next to `_incidences`."""
    targets, fiber, target, label = _incidences(emb)
    n, r = emb.n, emb.r
    a, b = np.array(domain_coordinates(emb)).T
    shift = r // 2 if emb.kind == "A" else 0
    step = r * np.arange(n)
    slot = np.full((n * r, len(a)), len(targets))  # the w row of (fiber, label); the zero row where empty
    slot[fiber, label] = target
    labels = np.arange(len(a))
    block = (slot[b[:, None, None] + step, labels[:, None, None]], (a + shift)[:, None, None] + step[:, None])
    # incidence e lies in the block rows of every label (a, b) whose b is its fiber column
    e, t = np.nonzero(((fiber % r)[:, None] == b) & (label[:, None] != labels))
    off = (target[e, None], (a[t] + shift)[:, None] + step)
    mirror = (slot[:, label].T, fiber[:, None])
    matched = None
    if emb.kind == "A":
        # a target's incidences all sit on fibers of its own family, so its
        # conj flag picks the matched columns
        cols = (step[:, None] + np.arange(shift)).ravel()
        matched = (np.arange(len(targets))[:, None], shift * targets[:, 2:] + cols)
    index = _RowIndex(block, off, mirror, matched)
    for pair in index:
        for array in pair or ():
            array.setflags(write=False)
    return index


def _slots(ws, emb):
    """`_row_index(emb)`, once `ws` has the shape of w-vectors: read at
    those pairs, phi's incidence rows would give the wrong slots."""
    shape = (len(_incidences(emb)[0]), emb.n * emb.r)
    if np.shape(ws)[-2:] != shape:
        raise ValueError(f"expected w-vectors of shape (..., {shape[0]}, {shape[1]}), got {np.shape(ws)}")
    return _row_index(emb)


def target_values(targets, labels):
    """Every target read off a label stack: (..., n, w) labels give
    (..., targets) values."""
    i, k, conj = targets.T
    values = labels[..., i, k]
    return np.where(conj == 1, values.conj(), values)


def cocycle_jacobian(emb, elements=None):
    """Analytic Jacobian of the embedding coordinates per element.

    out[g, a, t] = d lambda_a(element g) / d (domain coordinate t).
    The embedding is affine in the domain point, so the array does not
    depend on where it is taken; the numeric twin below confirms that.
    """
    if elements is None:
        elements = generator_labels(emb)
    targets, fiber, target, label = _incidences(emb)
    values = target_values(targets, np.asarray(elements))
    out = np.zeros((len(values), emb.n * emb.r, len(domain_coordinates(emb))), dtype=complex)
    out[:, fiber, label] = values[:, target]
    return out


def numeric_cocycle_jacobian(emb, points, elements):
    """How the images of `elements` move across a point stack: the
    image at each point after the first minus the image at the first,
    shape (points - 1, elements, nr).

    The embedding is affine and holomorphic in the point, so each
    difference is the analytic Jacobian applied to Z_s - Z_0, exact up
    to rounding; the point differences are generic complex matrices, so
    a dependence on conj(Z) moves them too.
    """
    images = embed_labels(emb, points, elements)
    return images[1:] - images[0]


def _right_hand_sides(lattice):
    """The real right-hand side of every target's system, per sample:
    the antilinear part of the target's R-linear extension on the
    standard basis.  Formed before the pairing matrix, so the two sets of
    intermediates are never alive together."""
    dim = lattice.complex_dim
    # values[t, g] is target t read off generator g, every target at once
    values = target_values(_incidences(lattice.embedding)[0], lattice.labels).T
    f = values @ np.swapaxes(lattice.basis_real_inv, -1, -2)  # f[..., t, :] = B^{-1} values[t]
    gamma = 0.5 * (f[..., :dim] + 1j * f[..., dim:])
    return np.concatenate([gamma.real, gamma.imag], axis=-1)


def _pairing_matrix(lattice, form):
    """The real pairing matrix [Re mc; Im mc] of the w-solve, per sample,
    with mc = pi i (K^t[:d] + i K^t[d:]) for the extension K of `form`;
    mc is formed in place, so at most two arrays of the stack's size
    are alive at once."""
    dim = lattice.complex_dim
    kt = np.swapaxes(form.extension(lattice), -1, -2)
    mc = 1j * kt[..., dim:, :]
    mc += kt[..., :dim, :]
    del kt
    np.multiply(pi * 1j, mc, out=mc)
    return np.concatenate([mc.real, mc.imag], axis=-2)


def solve_w_vectors(lattice, form):
    """The w-vector of every target, in the row order of the targets:
    the w with anti(2 pi i E_mu(w, .)) matching anti of the target
    functional; shape (..., targets, nr) on a lattice stack.

    A target's values on the lattice generators determine its R-linear
    extension and the antilinear part of it.  Each system is square
    (2nr real unknowns against nr complex equations on the standard
    basis) and shares one pairing matrix, uniquely solvable when the
    form pairs the two antiholomorphic halves nondegenerately.  The
    pairing matrix is inverted once per sample, and every target's
    right-hand side goes through that inverse in one matrix product.
    One refused pairing refuses the whole stack.
    """
    dim = lattice.complex_dim
    rhs = _right_hand_sides(lattice)
    singular = SingularPairing(f"pairing condition number not below {COND_LIMIT:.3e}")
    m_inv = checked_inverse(_pairing_matrix(lattice, form), 1 / COND_LIMIT, singular, floor=0.0)
    sol = rhs @ np.swapaxes(m_inv, -1, -2)
    return sol[..., :dim] + 1j * sol[..., dim:]


def closed_form_w(form):
    """Predicted w of every target, in the row order of the targets:
    mu e_{i, k + r/2} / 2 pi i for the plain family of the two-block
    model, mu e_{ik} / 2 pi i for the conjugate family and for the
    classical model, for the mu of `form`."""
    emb, mu = form.emb, form.mu
    n, r = emb.n, emb.r
    i, k, conj = _incidences(emb)[0].T
    shift = r // 2 if emb.kind == "A" else 0
    w = np.zeros((len(i), n, r), dtype=complex)  # w[t, l, c] is entry l r + c
    w[np.arange(len(i)), :, k + shift * (1 - conj)] = (mu[:, i] / (2j * pi)).T
    return w.reshape(len(i), n * r)


def assemble_phi(emb, ws):
    """phi from the w-vectors, as its incidence rows: row e holds the dz_b
    coefficients, over b, of the dZ_{label[e]}-component of
    phi(dz_{fiber[e]}), shape (..., incidences, nr) on the w-vectors of
    a lattice stack.  Every slot of phi off the incidences is zero."""
    return ws[..., _incidences(emb)[2], :]


def matched_vanishing_defect(ws, emb):
    """Both-plain and both-conjugate phi slots must vanish: the largest
    of them over the whole stack, read off the w-vectors `ws`."""
    if emb.kind != "A":
        raise ValueError("matched vanishing concerns the two-block model")
    rows, cols = _slots(ws, emb).matched
    return float(np.abs(ws[..., rows, cols]).max())


def symmetry_defect(ws, emb):
    """phi must be symmetric in its two fiber slots: the largest
    |phi[a, b, t] - phi[b, a, t]| over the whole stack, read off the
    w-vectors `ws`.

    Each incidence (a, t) is compared with the slots (b, a, t) that
    mirror it, the zero row standing in where (b, t) is no incidence; a
    slot pair with neither (a, t) nor (b, t) an incidence is zero on both
    sides.
    """
    rows, cols = _slots(ws, emb).mirror
    padded = np.concatenate([ws, np.zeros_like(ws[..., :1, :])], axis=-2)
    return float(np.abs(ws[..., _incidences(emb)[2], :] - padded[..., rows, cols]).max())


def _block_product(ws, emb):
    """Product of psi's block determinants, one per sample of the
    w-vectors `ws`: the block of domain coordinate t = (a, b) pairs
    dz_{ib} against dz_{l, a + r/2} (two-block model) or dz_{la}
    (classical model) at t."""
    rows, cols = _slots(ws, emb).block
    per_label = np.linalg.det(ws[..., rows, cols])
    # the product in scalar complex arithmetic, sample by sample: numpy's
    # vectorised complex multiply can differ from the scalar one by one ULP
    value = np.array([reduce(mul, row, 1.0 + 0j) for row in per_label.reshape(-1, per_label.shape[-1])])
    return value.reshape(per_label.shape[:-1])[()]


def psi_constant(ws, emb):
    """Product of the block determinants of the contraction, as
    (value, off_block_defect), each one per sample of the w-vectors `ws`
    (`solve_w_vectors`).

    The blocks are `_block_product`'s.  Slots of phi in the rows of a
    block at other domain coordinates are reported as the off-block
    defect.
    """
    rows, cols = _slots(ws, emb).off
    off = np.abs(ws[..., rows, cols]).max(axis=(-2, -1), initial=0.0)
    return _block_product(ws, emb), off[()]


def psi_modulus_closed_form(form):
    """|psi| predicted for the mu of `form`: (|det mu| / (2 pi)^n)^blocks."""
    emb = form.emb
    return float((form.det_mu / (2 * pi) ** emb.n) ** len(domain_coordinates(emb)))


def metric_identity_check(lattice, ws):
    """Sample the identity |c| . ||d tau|| = (lattice norm)^{k0} on a
    lattice stack, from its w-vectors `ws` (`solve_w_vectors`), which
    carry the polarization.

    k0 is r/2 for the two-block model and r + 1 for the classical one.
    Returns (ratios, k0): the ratio of the two sides at every sample,
    which the identity sets to 1.
    """
    emb = lattice.embedding
    k0 = emb.r // 2 if emb.kind == "A" else emb.r + 1
    value = _block_product(ws, emb)
    lattice_side = per_sample(lambda f: float(f) ** k0, faltings_norm(lattice))
    return per_sample(abs, value) * petersson_norm(lattice.point, emb.n) / lattice_side, k0
