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

Every invertibility guard (the lattice rank, mu, the order closure and
the pairing of the w-solve) is decided by `checked_inverse` on the
inverse the caller needs anyway, from Frobenius-norm bounds on the
singular values, so no guard runs a singular value decomposition.

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

from dataclasses import dataclass, field
from math import isqrt, pi

import numpy as np

from .algebra import integer_det, integer_smith_normal_form
from .domains import HermitianPoint, SiegelPoint, per_sample

# Thresholds that decide arch.self-dual-mu and arch.polarization-degree
# before any catalog tolerance applies: the largest |G - round(G)| of an
# integral Gram matrix, the relative defect H - H* of a Hermitian
# associated form, and the least eigenvalue of a positive one.
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


def checked_inverse(a, tol, refusal, floor=1.0):
    """The inverse of a matrix, or of every matrix of a stack, whose
    singular values pass s_min >= tol * max(floor, s_max); otherwise
    raises `refusal`, an exception instance.

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
        size = np.maximum(floor, np.linalg.norm(a, axis=(-2, -1)))
        margin = tol * size * np.linalg.norm(inv, axis=(-2, -1))
    if not (margin < 1).all():
        raise refusal
    return inv


def _as_complex(m):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("order basis entries must be matrices")
    return a


@dataclass(frozen=True, eq=False)
class OrderEmbedding:
    """An order in B = M_n(F) given by the sigma-images of a Z-basis.

    kind "A" keeps an imaginary quadratic field F (discriminant < 0),
    needs r even for its two blocks and expects 2n^2 basis matrices;
    kind "C" works over Q (discriminant 1) and expects n^2 real basis
    matrices.  The basis must be closed under matrix multiplication with
    integer coefficients: that is the whole ring structure this module
    ever uses.
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
        mats = tuple(_as_complex(m) for m in self.matrices)
        object.__setattr__(self, "matrices", mats)
        if len(mats) != expected:
            raise ValueError(
                f"order basis needs {expected} matrices, got {len(mats)}"
            )
        for m in mats:
            if m.shape != (self.n, self.n):
                raise ValueError("order basis matrices must be n x n")
            if self.kind == "C" and np.abs(m.imag).max() > 1e-12:
                raise ValueError("kind C order basis must be real")
        self._check_closure(mats)

    def _check_closure(self, mats):
        # Products of basis elements must decompose over the basis with
        # integer coefficients; this is the structure-constant sanity check.
        # The basis has as many elements as M_n(C) (A) or M_n(R) (C) has
        # real dimensions, so its coordinate matrix is square: kind C drops
        # the imaginary rows, which __post_init__ bounds by 1e-12.  The rank
        # tolerance is numpy's default one for 2n^2 coordinates.
        stack = np.stack(mats)
        prods = (stack[:, None] @ stack[None, :]).reshape(-1, self.n, self.n)
        cols, prod_cols = _real_rows(stack).T, _real_rows(prods).T
        if self.kind == "C":
            cols, prod_cols = cols[: len(mats)], prod_cols[: len(mats)]
        tol = 2 * self.n * self.n * np.finfo(float).eps
        dependent = ValueError("order basis matrices are rationally dependent")
        coeff = checked_inverse(cols, tol, dependent, floor=0.0) @ prod_cols
        if np.abs(coeff - np.round(coeff)).max() > 1e-9:
            raise ValueError("order basis products need integer coefficients")

    def module_basis(self):
        """Rational basis of O_B^{r/n} as a stack of n x r matrices: one
        column block after the other, each taking the whole order basis."""
        n, blocks = self.n, self.r // self.n
        out = np.zeros((blocks, len(self.matrices), n, self.r), dtype=complex)
        for c in range(blocks):
            out[c, :, :, c * n : (c + 1) * n] = self.matrices
        return out.reshape(-1, n, self.r)

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


def _real_rows(stack):
    """One real row per item of a complex stack: real parts, then imaginary."""
    flat = stack.reshape(len(stack), -1)
    return np.hstack([flat.real, flat.imag])


@dataclass(frozen=True, eq=False)
class PeriodLattice:
    """2nr embedded generators spanning C^{nr} over R, or a stack of such
    lattices, one per point of a point stack.

    labels stacks the rational labels of the generators (module
    docstring), shared by every lattice of a stack; vectors[..., k, :]
    is the flattened embedded image of labels[k].  basis_real holds the
    real rows [Re | Im] of the vectors and basis_real_inv its inverse;
    both are computed, and the rank checked, unless the caller passes
    them (the dual lattice has them from its primal).
    """

    embedding: OrderEmbedding
    point: object
    vectors: np.ndarray
    labels: np.ndarray
    basis_real: np.ndarray = field(default=None, repr=False)
    basis_real_inv: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=complex)
        object.__setattr__(self, "vectors", vecs)
        count, dim = vecs.shape[-2:]
        if count != 2 * dim:
            raise ValueError("a full lattice needs 2nr generators in C^{nr}")
        if self.basis_real_inv is not None:
            return
        b = np.concatenate([vecs.real, vecs.imag], axis=-1)
        dependent = RankDeficient("embedded generators are real-linearly dependent")
        object.__setattr__(self, "basis_real", b)
        object.__setattr__(self, "basis_real_inv", checked_inverse(b, RANK_TOL, dependent))

    @property
    def complex_dim(self):
        return self.vectors.shape[-1]

    def covolume(self):
        sign, logdet = np.linalg.slogdet(self.basis_real)
        return per_sample(np.exp, logdet)

    def dual(self):
        """Euclidean dual lattice: real dual basis of the generators, the
        rows of B^{-T}, whose inverse is B^T exactly."""
        dual_rows = np.swapaxes(self.basis_real_inv, -1, -2)
        dim = self.complex_dim
        vecs = dual_rows[..., :dim] + 1j * dual_rows[..., dim:]
        return PeriodLattice(
            self.embedding, self.point, vecs, self.labels,
            basis_real=dual_rows, basis_real_inv=np.swapaxes(self.basis_real, -1, -2),
        )


def generator_labels(emb):
    """Rational labels of the 2nr lattice generators, one complex
    (2nr, n, w) stack.

    Two-block model: the module basis itself.  Classical model: the
    [x | 0], then the [0 | x], over the real module basis x.
    """
    basis = emb.module_basis()
    if emb.kind == "A":
        return basis
    x = basis.real.astype(complex)
    zero = np.zeros_like(x)
    return np.concatenate(
        [np.concatenate([x, zero], axis=2), np.concatenate([zero, x], axis=2)]
    )


def embed_labels(emb, point, labels):
    """Images in C^{nr} of a stack of rational labels at a domain point,
    one row each; (..., labels, nr) at a (..., g, g) point stack."""
    x = np.asarray(labels, dtype=complex)
    z = point.matrix[..., None, :, :]  # broadcast over the labels
    shape = z.shape[:-3] + (len(x), -1)
    if emb.kind == "A":
        eye = np.broadcast_to(np.eye(emb.r // 2), z.shape)
        plain = x @ np.concatenate([z, eye], axis=-2)
        conj = x.conj() @ np.concatenate([np.swapaxes(z, -1, -2), eye], axis=-2)
        return np.concatenate([plain, conj], axis=-1).reshape(shape)
    r = emb.r
    return (x[..., :r] @ z + x[..., r:]).reshape(shape)


def build_lattice(point, emb):
    """Period lattice at an interior domain point (a stack at a stack).

    Two-block model for kind A (point is a HermitianPoint on r/2), the
    classical mZ + n model for kind C (SiegelPoint on r).
    """
    if emb.kind == "A":
        if not isinstance(point, HermitianPoint):
            raise TypeError("kind A embeds at a HermitianPoint")
        half = emb.r // 2
        if point.matrix.shape[-2:] != (half, half):
            raise ValueError("domain point must be (r/2) x (r/2)")
    else:
        if not isinstance(point, SiegelPoint):
            raise TypeError("kind C embeds at a SiegelPoint")
        if point.matrix.shape[-2:] != (emb.r, emb.r):
            raise ValueError("domain point must be r x r")
    labels = generator_labels(emb)
    return PeriodLattice(emb, point, embed_labels(emb, point, labels), labels)


def _mu_and_inverse(mu, n):
    """mu as an n x n complex matrix (a scalar means mu . I_n) and its
    inverse; a singular mu is a ValueError."""
    if np.isscalar(mu):
        m = complex(mu) * np.eye(n, dtype=complex)
    else:
        m = np.asarray(mu, dtype=complex)
    if m.shape != (n, n):
        raise ValueError("mu must be n x n")
    return m, checked_inverse(m, MU_TOL, ValueError("mu is singular"))


def normalize_mu(mu, n):
    """mu as an invertible n x n complex matrix; a scalar means mu . I_n."""
    return _mu_and_inverse(mu, n)[0]


def _alternating_block(half):
    j = np.zeros((2 * half, 2 * half))
    j[:half, half:] = -np.eye(half)
    j[half:, :half] = np.eye(half)
    return j


class RiemannForm:
    """The alternating form E_mu on the rational labels, and its
    R-extension along a period lattice."""

    def __init__(self, emb, mu):
        self.emb = emb
        self.mu, self._mu_inv = _mu_and_inverse(mu, emb.n)
        self._gram = None

    @property
    def gram(self):
        if self._gram is None:
            labels = generator_labels(self.emb)
            j = _alternating_block(labels.shape[2] // 2)
            left = self._mu_inv @ labels @ j
            self._gram = _trace_pairing(left, labels, self.emb.kind)
        return self._gram

    def integrality_defect(self):
        g = self.gram
        return float(np.abs(g - np.round(g)).max())

    def integer_gram(self):
        """The Gram matrix as integer rows; a defect above INTEGRALITY_TOL is an error."""
        defect = self.integrality_defect()
        if defect > INTEGRALITY_TOL:
            raise ValueError(f"form is not integral on the lattice ({defect:.3e})")
        return [[int(x) for x in row] for row in np.round(self.gram).astype(int)]

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
        eigs = np.linalg.eigvalsh(self.hermitian_matrix(lattice))
        return bool(eigs.min() > POSITIVITY_TOL)


def solve_self_dual_mu(lattice):
    """Search the real scalar family mu = c . I_n for a unimodular form.

    The modulus is pinned by the Gram determinant of the basic form
    (mu = I): |c| = |det G_I|^{1/(2nr)}.  The sign is pinned by positive
    definiteness of H = E(i., .) + iE(., .).  Returns the signed scalar
    c.  Both candidates failing integrality or positivity is reported as
    NoSelfDualForm; that is an honest refusal, not a numerical fallback.
    """
    emb = lattice.embedding
    base = RiemannForm(emb, 1.0)
    sign_det, logdet = np.linalg.slogdet(base.gram)
    if sign_det == 0:
        raise NoSelfDualForm("basic form is degenerate on the lattice")
    two_nr = 2 * emb.n * emb.r
    c = float(np.exp(logdet / two_nr))
    for sign in (-1, 1):
        form = RiemannForm(emb, sign * c)
        if form.integrality_defect() <= INTEGRALITY_TOL and form.is_positive(lattice):
            return sign * c
    raise NoSelfDualForm(
        f"no real scalar mu with |c| = {c:.6g} is unimodular and positive"
    )


def covolume_closed_form(lattice, mu):
    """Predicted covolume |det mu|^r det(Y)^{2n} (two-block model) or det Y,
    per sample."""
    emb = lattice.embedding
    mu = normalize_mu(mu, emb.n)
    det_mu = abs(np.linalg.det(mu))
    det_y = np.real(np.linalg.det(lattice.point.Y))
    if emb.kind == "A":
        return per_sample(lambda d: det_mu ** emb.r * float(d) ** (2 * emb.n), det_y)
    return per_sample(float, det_y)


def faltings_norm(lattice):
    """Norm of the wedge of all dz: square root of covolume / pi^{nr}."""
    nr = lattice.complex_dim
    return per_sample(np.sqrt, lattice.covolume() / pi**nr)


def polarization_degree(form):
    """Index [dual : lattice]^{1/2} of an integral alternating form.

    The index is |det| of the integer Gram matrix, and the degree is its
    exact integer square root; alternating integer forms in even rank
    always have a perfect-square determinant, so a failed isqrt means a
    real bug.
    """
    index = abs(integer_det(form.integer_gram()))
    deg = isqrt(index)
    if deg * deg != index:
        raise ValueError("alternating Gram determinant is not a perfect square")
    return deg


def dual_index_oracle(form):
    """Independent route to [dual : lattice]: elementary divisors of Gram."""
    index = 1
    for d in integer_smith_normal_form(form.integer_gram()).divisors:
        index *= d
    return abs(index)
