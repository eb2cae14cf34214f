"""Points of the unbounded realizations of the relevant symmetric domains.

Type C lives on the Siegel space of symmetric g x g complex Z with
Im Z positive definite; type A on the tube of complex g x g matrices
with Y = (Z - Z*)/2i positive definite.  Both are acted on through
Z -> (AZ + B)(CZ + D)^{-1} by the isometry group of
T = [[0, I], [-I, 0]] (so that [Z; I]* T [Z; I] = -2iY), which scales
det Y by |det(CZ + D)|^{-2}; the Petersson norm below is a power of
det Y and transforms by the matching power of that factor.

All matrices are numpy complex arrays.  A point holds a (..., g, g)
stack of them: the leading axes are sample axes, and one point is the
case with none.  The kernels here and in the lattice and Kodaira-Spencer
layers work on the whole stack at once; only the scalar finishing steps
go sample by sample (`per_sample`).  A stack is validated once, and
refused if any member is not a point, with the message a single bad
point gets.  A sample plan (`random_point` with one generator per
stream) is refused the same way; its caller then draws each stream
alone, so a bad member refuses only its own stream.
"""

from dataclasses import dataclass

import numpy as np

_ATOL = 1e-9
_SPREAD = 0.6  # scale of the normal entries of random_point


def _as_stack(m):
    a = np.array(m, dtype=complex)
    if a.ndim < 2:
        raise ValueError("expected a matrix")
    return a


def _conj_t(m):
    """Conjugate transpose of every matrix of a stack."""
    return np.swapaxes(m, -1, -2).conj()


def per_sample(f, values):
    """`f` of each per-sample scalar, one Python call per sample: a float
    for an unbatched value, else an array of the same shape.

    The scalar finishing steps (powers, exp, abs of a complex) run this
    way because their vectorised numpy forms can differ from the scalar
    ones by one ULP, and reports must not depend on the sample count.
    """
    values = np.asarray(values)
    out = np.array([f(x) for x in values.flat], dtype=float).reshape(values.shape)
    return float(out) if out.ndim == 0 else out


def positive_definite(m):
    """Whether every member of a stack of Hermitian (or real symmetric)
    matrices is finite and positive definite: whether it has a Cholesky
    factor, read, like LAPACK's eigensolvers, from the lower triangle.

    A NaN or an inf is refused first, as the factorization passes an inf
    on the diagonal.  The answer needs no eigenvalue, so no eigensolver
    runs.
    """
    if not np.isfinite(m).all():
        return False
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class _Point:
    """A point or a stack of points: `matrix`, tested once, member by
    member, at construction: each test runs on the whole stack, in
    order, and the first that a member fails refuses it."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_stack(self.matrix))
        self._validate()

    @classmethod
    def _owning(cls, matrix):
        """A point on `matrix`, a complex array that no caller holds:
        tested as at construction, but not copied."""
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", matrix)
        out._validate()
        return out

    def _validate(self):
        Z = self.matrix
        if Z.shape[-2] != Z.shape[-1]:
            raise ValueError(f"{self._name} must be square")
        self._test()

    @property
    def genus(self):
        return self.matrix.shape[-1]

    def take(self, index, copy=False):
        """The members at `index` (a slice keeps the sample axis), not
        tested again; with `copy`, a copy that does not hold on to this
        stack."""
        out = object.__new__(type(self))
        object.__setattr__(out, "matrix", self.matrix[index].copy() if copy else self.matrix[index])
        return out

    def _positive(self, what):
        if not positive_definite(self.Y):
            raise ValueError(f"{self._name} needs positive definite {what}")


@dataclass(frozen=True)
class SiegelPoint(_Point):
    """Symmetric g x g complex Z with Im Z positive definite (or a stack)."""

    _name = "Siegel point"

    def _test(self):
        Z = self.matrix
        # np.allclose(Z, Z.T, atol=_ATOL) written out: same points, a quarter
        # of the cost; the bound is formed in place
        zt = np.swapaxes(Z, -1, -2)
        defect = np.abs(Z - zt)
        bound = np.abs(zt)
        bound *= 1e-5
        bound += _ATOL
        if not (defect <= bound).all():
            raise ValueError("Siegel point must be symmetric")
        self._positive("imaginary part")

    @property
    def Y(self):
        return np.imag(self.matrix)


@dataclass(frozen=True)
class HermitianPoint(_Point):
    """g x g complex Z with Y = (Z - Z*)/2i positive definite (or a stack)."""

    _name = "tube point"

    def _test(self):
        self._positive("Y part")

    @property
    def Y(self):
        Z = self.matrix
        return (Z - _conj_t(Z)) / 2j


# each kind's domain: the tube (two-block model), the Siegel space (classical)
POINT_TYPE = {"A": HermitianPoint, "C": SiegelPoint}


def petersson_norm(point, n=1):
    """The canonical top-form norm ||d tau||^n at each point of the stack.

    Type C (Siegel, n = 1): 2^{r(r+1)/2} det(Y)^{(r+1)/2} with r = g.
    Type A (tube): 2^{r^2 n/4} det(Y)^{rn/2} with r = 2g.
    """
    det_y = np.linalg.det(point.Y).real
    if isinstance(point, SiegelPoint):
        if n != 1:
            raise ValueError("the symplectic normalization has n = 1")
        r = point.genus
        return per_sample(lambda d: 2.0 ** (r * (r + 1) / 2) * float(d) ** ((r + 1) / 2), det_y)
    r = 2 * point.genus
    return per_sample(lambda d: 2.0 ** (r * r * n / 4) * float(d) ** (r * n / 2), det_y)


def sample_count(count):
    """Refuse a request for no sample points."""
    if count < 1:
        raise ValueError(f"need at least one sample point, got {count}")


def random_point(kind, g, rng, count=None):
    """Deterministic random domain points for a seeded generator, Y >= I.

    One point, or a stack of `count`; the draws go sample by sample, so
    the stack is the same points drawn one at a time.

    A sample plan passes a list of generators and a list of counts, one
    stream each: every stream draws its count from its own generator, in
    that generator's order, and the streams are concatenated into one
    stack, tested once.
    """
    rngs, counts = (rng, count) if isinstance(rng, list) else ([rng], [count])
    for c in counts:
        if c is not None:
            sample_count(c)
    return POINT_TYPE[kind]._owning(_draw_matrices(kind, g, rngs, counts))


def _draw_matrices(kind, g, rngs, counts):
    """The matrices of `random_point`, built with few temporaries the
    size of the stack.

    Every stream draws its count of standard normals, in its generator's
    order, into its slice of one buffer, which is then scaled in place:
    normal(scale=s) is s times a standard normal, bit for bit.  Z is
    then assembled part by part in its own array, each part by the
    operations of (X + X^T) / 2 + i (I + A A^T) (kind C) or
    (H + H^*) / 2 + i (I + A A^*) (kind A), in their order, so the
    points are those of the formula, bit for bit.
    """
    sizes = [1 if c is None else c for c in counts]
    draws = np.empty((sum(sizes), 2 if kind == "C" else 4, g, g))
    stop = 0
    for r, size in zip(rngs, sizes):
        r.standard_normal(out=draws[stop : stop + size])
        stop += size
    draws *= _SPREAD
    if counts == [None]:
        draws = draws[0]
    draws = np.moveaxis(draws, -3, 0)
    if kind == "C":
        X, A = draws
        Z = np.empty(X.shape, dtype=complex)
        re, im = Z.real, Z.imag
        np.add(X, np.swapaxes(X, -1, -2), out=re)
        re /= 2
        square = A @ np.swapaxes(A, -1, -2)
        square += np.eye(g)
        im[...] = square
        return Z
    h_re, h_im, a_re, a_im = draws
    A = np.empty(a_re.shape, dtype=complex)
    A.real, A.imag = a_re, a_im
    square = A @ _conj_t(A)
    del A
    Z = np.empty(square.shape, dtype=complex)
    re, im = Z.real, Z.imag
    # i (I + A A^*) = -Im(A A^*) + i (I + Re(A A^*))
    np.add(h_re, np.swapaxes(h_re, -1, -2), out=re)
    re /= 2
    re -= square.imag
    np.subtract(h_im, np.swapaxes(h_im, -1, -2), out=im)
    im /= 2
    square_re = square.real
    square_re += np.eye(g)
    im += square_re
    return Z
