"""Period lattices of abelian fibers over the symmetric domains.

Rational skeleton: the module O_B^{r/n} is presented by an order basis of
n x n complex matrices (the sigma-images of a basis of O_B over the ring
of integers of the quadratic field, or over Z when the field is Q), placed
into r/n column blocks.  Every lattice generator carries a rational label,
an n x w matrix: w = r for the two-block model, where the label is a module
basis element X, and w = 2r for the classical model, where it is [m | n]
with one of the two parts zero.  The 2nr labels are kept stacked, as one
complex (2nr, n, w) array, and every kernel below works on that stack in
one batched numpy operation rather than label by label.

Embedding at a domain point Z, computed by `embed_labels` alone (the
lattice build and the numeric cocycle Jacobian both call it):

  two conjugate blocks      lambda(X) = (X . [Z; I], conj(X) . [Z^t; I])
  (n x r matrices, r even)

  classical mZ + n          lambda([m | n]) = m . Z + n
  (Z symmetric r x r)

Both land in C^{nr} (row-major flattening of an n x r matrix, so the
coordinate (i, j) sits at index i*r + j and the column blocks j < r/2,
j >= r/2 are contiguous); row k of the result is the image of label k.

Points carry a leading sample axis (`domains`): at a (..., g, g) stack
of points the images are a (..., 2nr, nr) stack, a `PeriodLattice`
holds one lattice per point, and its covolume, dual and closed forms
come out per sample, shape (...); one point is the case with no
sample axis.

Every invertibility guard is decided on the inverse the caller needs
anyway, from Frobenius-norm bounds on the singular values, so no guard
runs a singular value decomposition.  `checked_inverse` decides three of
them with numpy: the lattice rank, mu and the pairing of the w-solve,
each refusing a whole stack when one member fails.  The fourth guard,
the order closure, applies the same rule in plain Python to a
Gauss-Jordan inverse, so that building an `OrderEmbedding` runs no
numpy.

The Riemann form lives on the labels, so its Gram matrix depends on the
embedding and mu only:

  E_mu(X, X') = tr_{F/Q}( trace( mu^{-1} . X . J . conj(X')^t ) ),

with J the standard alternating block matrix of size w and
tr_{F/Q}(z) = z + conj(z) for an imaginary quadratic field, z for Q.
The same field-trace pairing, with mu = I and J = I, is the trace form of
`OrderEmbedding.trace_covolume`.  Only the extension of E_mu to C^{nr} and
its positivity need a point: the extension is R-bilinear along the
embedding, never the naive complex formula.
"""

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isfinite, isqrt, log, pi, prod, sqrt

import numpy as np

from .algebra import integer_det, integer_smith_normal_form, reduce_blocks, split_blocks
from .domains import POINT_TYPE, per_sample, positive_definite

# Thresholds that decide arch.self-dual-mu and arch.polarization-degree
# before any catalog tolerance applies: the largest |G - round(G)| of an
# integral Gram matrix, the relative defect H - H* of a Hermitian
# associated form, and the bound that the least eigenvalue of a positive
# one exceeds, tested as a Cholesky factor of H - POSITIVITY_TOL I.
INTEGRALITY_TOL = 1e-9
HERMITIAN_TOL = 1e-8
POSITIVITY_TOL = 1e-10
# Invertibility guards (`checked_inverse`): the least smallest singular
# value, relative to max(1, largest), of the real basis of a period
# lattice and of the polarization parameter mu.
RANK_TOL = 1e-10
MU_TOL = 1e-12


class RankDeficient(Exception):
    """The embedded generators do not span R^{2nr}."""


class NoSelfDualForm(Exception):
    """No admissible mu makes the Riemann form unimodular on the lattice."""


def _frobenius_norms(a):
    """The Frobenius norm of every matrix of a stack, summed in place:
    no temporary the size of the stack."""
    squares = np.einsum("...ij,...ij->...", a.real, a.real)
    if np.iscomplexobj(a):
        squares = squares + np.einsum("...ij,...ij->...", a.imag, a.imag)
    return np.sqrt(squares)


def checked_inverse(a, tol, refusal, floor=1.0):
    """The inverse of a matrix, or of every matrix of a stack; raises
    `refusal`, an exception instance, when any of them does not pass
    s_min >= tol * max(floor, s_max) on its singular values.

    The test reads Frobenius norms, which bound the singular values from
    the refusing side: s_max <= |a|_F and s_min >= 1 / |a^{-1}|_F.  It
    accepts only when tol * max(floor, |a|_F) * |a^{-1}|_F < 1, so it
    refuses every matrix the singular values refuse, and some more
    within a factor of the matrix size of the threshold.  An exactly
    singular matrix (where `inv` raises) and one holding a NaN or an inf
    are refused too.
    """
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise refusal from None
    with np.errstate(invalid="ignore", over="ignore"):
        size = np.maximum(floor, _frobenius_norms(a))
        margin = tol * size * _frobenius_norms(inv)
    if not (margin < 1).all():
        raise refusal
    return inv


def _as_matrix(m):
    """An order basis element as a tuple of rows of Python complex numbers."""
    try:
        return tuple(tuple(complex(z) for z in row) for row in m)
    except TypeError:
        raise ValueError("order basis entries must be matrices") from None


def _gauss_jordan_inverse(a, refusal):
    """The inverse of a square matrix of floats, given as rows, by
    Gauss-Jordan elimination with partial pivoting; raises `refusal` on
    an exactly zero pivot.  A NaN or an inf comes through to the inverse."""
    size = len(a)
    work = [list(row) + [float(i == j) for j in range(size)] for i, row in enumerate(a)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda i: abs(work[i][col]))
        work[col], work[pivot] = work[pivot], work[col]
        pivot_value = work[col][col]
        if pivot_value == 0:
            raise refusal
        top = work[col] = [x / pivot_value for x in work[col]]
        for i, row in enumerate(work):
            factor = row[col]
            if i != col and factor:
                work[i] = [x - factor * y for x, y in zip(row, top)]
    return [row[size:] for row in work]


def _frobenius(rows):
    return sqrt(sum(x * x for row in rows for x in row))


@dataclass(frozen=True, eq=False)
class OrderEmbedding:
    """An order in B = M_n(F) given by the sigma-images of a Z-basis.

    kind "A" keeps an imaginary quadratic field F (discriminant < 0),
    needs r even for its two blocks and expects 2n^2 basis matrices;
    kind "C" works over Q (discriminant 1) and expects n^2 real basis
    matrices.  The basis must be closed under matrix multiplication with
    integer coefficients: that is the whole ring structure this module
    ever uses.

    `matrices` holds the basis as a tuple of n x n tuples of Python
    complex numbers, and every check of `__post_init__` runs on them in
    plain Python, so building an embedding runs no numpy; the numpy
    stack of the module basis is built by the first `module_basis` call.
    """

    kind: str
    n: int
    r: int
    discriminant: int
    matrices: tuple

    def __post_init__(self):
        if self.kind not in ("A", "C"):
            raise ValueError("kind must be 'A' or 'C'")
        if self.n < 1 or self.r < 1 or self.r % self.n != 0:
            raise ValueError("need n >= 1 and n | r")
        if self.kind == "A":
            d = self.discriminant
            if d >= 0 or d % 4 not in (0, 1):
                raise ValueError("kind A needs a negative quadratic discriminant")
            if self.r % 2 != 0:
                raise ValueError("kind A needs r even")
            expected = 2 * self.n * self.n
        else:
            if self.discriminant != 1:
                raise ValueError("kind C works over Q (discriminant 1)")
            expected = self.n * self.n
        mats = tuple(_as_matrix(m) for m in self.matrices)
        object.__setattr__(self, "matrices", mats)
        if len(mats) != expected:
            raise ValueError(
                f"order basis needs {expected} matrices, got {len(mats)}"
            )
        for m in mats:
            if len(m) != self.n or any(len(row) != self.n for row in m):
                raise ValueError("order basis matrices must be n x n")
            # not <= also refuses a NaN or an inf imaginary part
            if self.kind == "C" and not all(abs(z.imag) <= 1e-12 for row in m for z in row):
                raise ValueError("kind C order basis must be real")
        self._check_closure(mats)

    def _check_closure(self, mats):
        # Products of basis elements must decompose over the basis with
        # integer coefficients; this is the structure-constant sanity check.
        # The basis has as many elements as M_n(C) (A) or M_n(R) (C) has
        # real dimensions, so its coordinate matrix is square.  Its inverse
        # passes `checked_inverse`'s rule at numpy's default rank tolerance
        # for 2n^2 coordinates, with floor 0, or the basis is dependent.
        # The coordinates of a matrix are its entries row-major, real parts
        # and then imaginary parts; kind C drops the imaginary parts, which
        # __post_init__ bounds by 1e-12.
        n, size = self.n, self.n * self.n
        flats = [[z for row in m for z in row] for m in mats]
        coords = [[z.real for z in f] + [z.imag for z in f if self.kind == "A"] for f in flats]
        cols = [list(c) for c in zip(*coords)]
        dependent = ValueError("order basis matrices are rationally dependent")
        inv = _gauss_jordan_inverse(cols, dependent)
        tol = 2 * size * sys.float_info.epsilon
        if not tol * _frobenius(cols) * _frobenius(inv) < 1:
            raise dependent
        # coefficient i of a product p is inv[i] . coordinates(p), that is
        # Re(sum_k w[i][k] p[k]) over the n^2 complex entries of p, with
        # w[i][k] = inv[i][k] - i inv[i][n^2 + k] (kind A) or inv[i][k]
        # (kind C).  Products run over the nonzero entries only, kept per
        # row, and only the nonzero entries of p add a term.
        if self.kind == "A":
            inv = [list(map(complex, row[:size], [-x for x in row[size:]])) for row in inv]
        w_cols = list(zip(*inv))
        entries = [[[(j, z) for j, z in enumerate(row) if z] for row in m] for m in mats]
        coeffs = []
        for x in entries:
            for y in entries:
                xy = {}
                for i, x_row in enumerate(x):
                    for l, a in x_row:
                        for j, b in y[l]:
                            xy[i * n + j] = xy.get(i * n + j, 0) + a * b
                terms = [[(w * p).real for w in w_cols[k]] for k, p in xy.items() if p]
                coeffs += map(sum, zip(*terms))
        if not all(isfinite(c) and abs(c - round(c)) <= 1e-9 for c in coeffs):
            raise ValueError("order basis products need integer coefficients")

    def module_basis(self):
        """Rational basis of O_B^{r/n} as a read-only stack of n x r
        matrices: one column block after the other, each taking the whole
        order basis."""
        return self._module_basis

    @cached_property
    def _module_basis(self):
        n, blocks = self.n, self.r // self.n
        out = np.zeros((blocks, len(self.matrices), n, self.r), dtype=complex)
        for c in range(blocks):
            out[c, :, :, c * n : (c + 1) * n] = self.matrices
        out = out.reshape(-1, n, self.r)
        out.setflags(write=False)
        return out

    def trace_covolume(self):
        """Covolume of the module basis under the trace pairing.

        The pairing is <x, y> = tr_{F/Q}(trace(x . conj(y)^t)); its Gram
        determinant measures the order lattice inside M_{n,r}(C) in the
        normalization that the self-dual form calibrates against.
        """
        basis = self.module_basis()
        sign, logdet = np.linalg.slogdet(_trace_pairing(basis, basis, self.kind))
        if sign <= 0:
            raise RankDeficient("trace pairing degenerate on the order basis")
        return float(np.exp(0.5 * logdet))


def _trace_pairing(left, right, kind):
    """tr_{F/Q}(trace(left[a] . conj(right[b])^t)) for every pair of the
    two stacks; an entry whose field trace is not real is an error."""
    z = np.einsum("anw,bnw->ab", left, right.conj())
    out = z + z.conj() if kind == "A" else z
    if (np.abs(out.imag) > 1e-9 * np.maximum(1.0, np.abs(out))).any():
        raise ValueError("field trace did not come out real")
    return out.real


def _real_rows(vectors):
    """The real rows [Re | Im] of a stack of 2nr vectors in C^{nr}."""
    vecs = np.asarray(vectors, dtype=complex)
    count, dim = vecs.shape[-2:]
    if count != 2 * dim:
        raise ValueError("a full lattice needs 2nr generators in C^{nr}")
    return np.concatenate([vecs.real, vecs.imag], axis=-1)


class PeriodLattice:
    """2nr embedded generators spanning C^{nr} over R, or a stack of such
    lattices, one per point of a point stack.

    labels stacks the rational labels of the generators (module
    docstring), shared by every lattice of a stack; vectors[..., k, :]
    is the flattened embedded image of labels[k].  The lattice keeps the
    vectors as basis_real, their real rows [Re | Im], made from `vectors`
    unless the caller passes them, next to its inverse basis_real_inv,
    computed and the rank checked unless the caller passes it too (the
    dual lattice has both from its primal); one refused lattice refuses
    the whole stack.
    """

    def __init__(self, embedding, point, vectors, labels, basis_real=None, basis_real_inv=None):
        self.embedding = embedding
        self.point = point
        self.labels = labels
        if basis_real is None:
            basis_real = _real_rows(vectors)
        if basis_real_inv is None:
            dependent = RankDeficient("embedded generators are real-linearly dependent")
            basis_real_inv = checked_inverse(basis_real, RANK_TOL, dependent)
        self.basis_real = basis_real
        self.basis_real_inv = basis_real_inv

    @property
    def complex_dim(self):
        return self.basis_real.shape[-1] // 2

    @property
    def vectors(self):
        dim = self.complex_dim
        return self.basis_real[..., :dim] + 1j * self.basis_real[..., dim:]

    def take(self, index, copy=False):
        """The lattices at `index` of the stack (a slice keeps the sample
        axis), not tested again; with `copy`, a copy that does not hold
        on to this stack."""
        basis, inverse = self.basis_real[index], self.basis_real_inv[index]
        return PeriodLattice(
            self.embedding, self.point.take(index, copy), None, self.labels,
            basis_real=basis.copy() if copy else basis,
            basis_real_inv=inverse.copy() if copy else inverse,
        )

    def covolume(self):
        sign, logdet = np.linalg.slogdet(self.basis_real)
        return per_sample(np.exp, logdet)

    def dual(self):
        """Euclidean dual lattice: real dual basis of the generators, the
        rows of B^{-T}, whose inverse is B^T exactly."""
        return PeriodLattice(
            self.embedding, self.point, None, self.labels,
            basis_real=np.swapaxes(self.basis_real_inv, -1, -2),
            basis_real_inv=np.swapaxes(self.basis_real, -1, -2),
        )


@lru_cache(maxsize=16)
def generator_labels(emb):
    """Rational labels of the 2nr lattice generators, one complex
    (2nr, n, w) stack, built once per embedding (an embedding hashes by
    identity), so the array is read-only.

    Two-block model: the module basis itself.  Classical model: the
    [x | 0], then the [0 | x], over the real module basis x.
    """
    labels = emb.module_basis()
    if emb.kind == "C":
        x = labels.real.astype(complex)
        zero = np.zeros_like(x)
        labels = np.concatenate(
            [np.concatenate([x, zero], axis=2), np.concatenate([zero, x], axis=2)]
        )
    labels.setflags(write=False)
    return labels


def _split_product(rows, z):
    """rows . [Z; I] for rows of width 2g: rows[:, :g] . Z + rows[:, g:],
    one product per point of a (..., g, g) stack."""
    g = z.shape[-1]
    out = rows[:, :g] @ z
    out += rows[:, g:]
    return out


def embed_labels(emb, point, labels):
    """Images in C^{nr} of a stack of rational labels at a domain point,
    one row each; (..., labels, nr) at a (..., g, g) point stack.

    The labels are flattened into (labels * n, w) rows, so each point
    takes all of its images in one product: rows . [Z; I] in the
    classical model, and rows . [Z; I] beside conj(rows) . [Z^t; I] in
    the two-block model."""
    x = np.asarray(labels, dtype=complex)
    rows = x.reshape(-1, x.shape[-1])
    z = point.matrix
    shape = z.shape[:-2] + (len(x), -1)
    if emb.kind == "A":
        plain = _split_product(rows, z)
        conj = _split_product(rows.conj(), np.swapaxes(z, -1, -2))
        return np.concatenate([plain, conj], axis=-1).reshape(shape)
    return _split_product(rows, z).reshape(shape)


def domain_genus(emb):
    """Size of the domain's matrices: r/2 (two-block) or r (classical)."""
    return emb.r // 2 if emb.kind == "A" else emb.r


def build_lattice(point, emb):
    """Period lattice at an interior domain point (a stack at a stack).

    Two-block model for kind A, the classical mZ + n model for kind C,
    at a point of the kind's type (`domains.POINT_TYPE`) and genus.
    """
    point_type, g = POINT_TYPE[emb.kind], domain_genus(emb)
    if not isinstance(point, point_type):
        raise TypeError(f"kind {emb.kind} embeds at a {point_type.__name__}")
    if point.matrix.shape[-2:] != (g, g):
        raise ValueError(f"domain point must be {g} x {g}")
    labels = generator_labels(emb)
    # the real rows alone go in, so the complex images are freed before the inverse is taken
    return PeriodLattice(emb, point, None, labels, basis_real=_real_rows(embed_labels(emb, point, labels)))


def _alternating_block(half):
    j = np.zeros((2 * half, 2 * half))
    j[:half, half:] = -np.eye(half)
    j[half:, :half] = np.eye(half)
    return j


class RiemannForm:
    """The alternating form E_mu on the rational labels, and its
    R-extension along a period lattice.

    The one holder of the polarization: mu as an n x n complex matrix (a
    scalar means mu . I_n), its inverse and det_mu = |det mu|.  A mu of
    the wrong shape, or one that fails the MU_TOL guard, is a ValueError.
    """

    def __init__(self, emb, mu):
        n = emb.n
        if np.isscalar(mu):
            m = complex(mu) * np.eye(n, dtype=complex)
        else:
            m = np.asarray(mu, dtype=complex)
        if m.shape != (n, n):
            raise ValueError("mu must be n x n")
        self.emb = emb
        self.mu = m
        self._mu_inv = checked_inverse(m, MU_TOL, ValueError("mu is singular"))
        self.det_mu = abs(np.linalg.det(m))
        self._gram = None

    @property
    def gram(self):
        if self._gram is None:
            labels = generator_labels(self.emb)
            j = _alternating_block(labels.shape[2] // 2)
            left = self._mu_inv @ labels @ j
            self._gram = _trace_pairing(left, labels, self.emb.kind)
        return self._gram

    @cached_property
    def _rounded(self):
        """(largest |G - round(G)|, round(G)), rounded once per form."""
        g = self.gram
        rounded = np.round(g)
        return float(np.abs(g - rounded).max()), rounded

    def integrality_defect(self):
        return self._rounded[0]

    def integer_gram(self):
        """The Gram matrix as integer rows; a defect above INTEGRALITY_TOL is an error."""
        defect, rounded = self._rounded
        if defect > INTEGRALITY_TOL:
            raise ValueError(f"form is not integral on the lattice ({defect:.3e})")
        return rounded.astype(int).tolist()

    @cached_property
    def _blocks(self):
        """The integer Gram matrix split into its connected blocks
        (`_split`), once per form; raises as `integer_gram` does."""
        return _split(self.integer_gram())

    @cached_property
    def gram_index(self):
        """|det G| of the integer Gram matrix, exactly, block by block;
        raises as `integer_gram` does."""
        return _measure_blocks(self._blocks, lambda block: abs(integer_det(block)))

    def extension(self, lattice):
        """E_mu in standard real coordinates of C^{nr} (2nr x 2nr)."""
        binv = lattice.basis_real_inv
        return binv @ self.gram @ np.swapaxes(binv, -1, -2)

    def hermitian_matrix(self, lattice):
        """H(v, w) = E(iv, w) + iE(v, w) on the standard complex basis."""
        k = self.extension(lattice)
        dim = lattice.complex_dim
        h = k[..., dim:, :dim] + 1j * k[..., :dim, :dim]
        h_star = np.swapaxes(h, -1, -2).conj()
        if np.abs(h - h_star).max() > HERMITIAN_TOL * max(1.0, np.abs(h).max()):
            raise ValueError("associated form is not Hermitian")
        return 0.5 * (h + h_star)

    def is_positive(self, lattice):
        """Whether H exceeds POSITIVITY_TOL: H - POSITIVITY_TOL I is
        positive definite (`domains.positive_definite`)."""
        h = self.hermitian_matrix(lattice)
        return positive_definite(h - POSITIVITY_TOL * np.eye(h.shape[-1]))


def solve_self_dual_mu(base, lattice):
    """Search the real scalar family mu = c . I_n for a unimodular form.

    The modulus is pinned by the Gram determinant of `base`, the basic
    form (mu = I): |c| = |det G_I|^{1/(2nr)}, with |det G_I| taken
    exactly from the integer Gram matrix, block by block
    (`RiemannForm.gram_index`), so c does not depend on the order basis.  A
    basic form that is not integral, or is singular, has no such c.  The
    sign is pinned by
    positive definiteness of H = E(i., .) + iE(., .) on `lattice`.
    Returns the accepted form, of mu = c . I_n.  Both candidates failing
    integrality or positivity is reported as NoSelfDualForm; that is an
    honest refusal, not a numerical fallback.
    """
    emb = base.emb
    try:
        det = base.gram_index
    except ValueError as exc:
        raise NoSelfDualForm(f"basic {exc}") from None
    if det == 0:
        raise NoSelfDualForm("basic form is degenerate on the lattice")
    two_nr = 2 * emb.n * emb.r
    c = float(np.exp(log(det) / two_nr))
    for sign in (-1, 1):
        form = RiemannForm(emb, sign * c)
        if form.integrality_defect() <= INTEGRALITY_TOL and form.is_positive(lattice):
            return form
    raise NoSelfDualForm(
        f"no real scalar mu with |c| = {c:.6g} is unimodular and positive"
    )


def covolume_closed_form(lattice, form):
    """Predicted covolume |det mu|^r det(Y)^{2n} (two-block model) or det Y,
    per sample, for the mu of `form`."""
    emb = lattice.embedding
    det_y = np.real(np.linalg.det(lattice.point.Y))
    if emb.kind == "A":
        return per_sample(lambda d: form.det_mu ** emb.r * float(d) ** (2 * emb.n), det_y)
    return per_sample(float, det_y)


def faltings_norm(lattice):
    """Norm of the wedge of all dz: square root of covolume / pi^{nr}."""
    nr = lattice.complex_dim
    return per_sample(np.sqrt, lattice.covolume() / pi**nr)


def _split(rows):
    """(sparse rows, connected blocks) of a square integer matrix, cut
    by `algebra.split_blocks`."""
    sparse = [[(c, x) for c, x in enumerate(row) if x] for row in rows]
    return sparse, split_blocks(sparse, len(rows))


def _measure_blocks(split, measure):
    """The product of `measure` over the blocks of a `_split`, each
    distinct block measured once, as its own matrix
    (`algebra.reduce_blocks`); 0, with nothing measured, when a block has
    more rows than columns or fewer, as the matrix is then singular."""
    sparse, blocks = split
    if any(len(ids) != len(cols) for cols, ids in blocks):
        return 0
    return prod(m for _, m in reduce_blocks(sparse, blocks, lambda block, width: measure(block), 0))


def polarization_degree(form):
    """Index [dual : lattice]^{1/2} of an integral alternating form.

    The index is |det| of the integer Gram matrix, taken block by block
    (`RiemannForm.gram_index`), and the degree is its exact integer
    square root; alternating integer forms in even rank always have a
    perfect-square determinant, so a failed isqrt means a real bug.
    """
    index = form.gram_index
    deg = isqrt(index)
    if deg * deg != index:
        raise ValueError("alternating Gram determinant is not a perfect square")
    return deg


def dual_index_oracle(form):
    """Independent route to [dual : lattice]: elementary divisors of Gram,
    block by block, on the form's own split of its integer Gram matrix."""
    return _measure_blocks(form._blocks, lambda block: prod(integer_smith_normal_form(block).divisors))
