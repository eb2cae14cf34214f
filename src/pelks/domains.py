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
point gets.
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


@dataclass(frozen=True)
class SiegelPoint:
    """Symmetric g x g complex Z with Im Z positive definite (or a stack)."""

    matrix: np.ndarray

    def __post_init__(self):
        Z = _as_stack(self.matrix)
        object.__setattr__(self, "matrix", Z)
        if Z.shape[-2] != Z.shape[-1]:
            raise ValueError("Siegel point must be square")
        # np.allclose(Z, Z.T, atol=_ATOL) written out: same points, a quarter of the cost
        zt = np.swapaxes(Z, -1, -2)
        if not (np.abs(Z - zt) <= _ATOL + 1e-5 * np.abs(zt)).all():
            raise ValueError("Siegel point must be symmetric")
        if np.linalg.eigvalsh(self.Y).min() <= 0:
            raise ValueError("Siegel point needs positive definite imaginary part")

    @property
    def genus(self):
        return self.matrix.shape[-1]

    @property
    def Y(self):
        return np.imag(self.matrix)


@dataclass(frozen=True)
class HermitianPoint:
    """g x g complex Z with Y = (Z - Z*)/2i positive definite (or a stack)."""

    matrix: np.ndarray

    def __post_init__(self):
        Z = _as_stack(self.matrix)
        object.__setattr__(self, "matrix", Z)
        if Z.shape[-2] != Z.shape[-1]:
            raise ValueError("tube point must be square")
        if np.linalg.eigvalsh(self.Y).min() <= 0:
            raise ValueError("tube point needs positive definite Y part")

    @property
    def genus(self):
        return self.matrix.shape[-1]

    @property
    def Y(self):
        Z = self.matrix
        return (Z - _conj_t(Z)) / 2j


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


def random_point(kind, g, rng, count=None):
    """Deterministic random domain points for a seeded generator, Y >= I.

    One point, or a stack of `count`; the draws go sample by sample, so
    the stack is the same points drawn one at a time.
    """
    if count is not None and count < 1:
        raise ValueError(f"need at least one sample point, got {count}")
    shape = () if count is None else (count,)
    if kind == "C":
        X, A = np.moveaxis(rng.normal(scale=_SPREAD, size=shape + (2, g, g)), -3, 0)
        Z = (X + np.swapaxes(X, -1, -2)) / 2 + 1j * (np.eye(g) + A @ np.swapaxes(A, -1, -2))
        return SiegelPoint(Z)
    h_re, h_im, a_re, a_im = np.moveaxis(rng.normal(scale=_SPREAD, size=shape + (4, g, g)), -3, 0)
    H, A = h_re + 1j * h_im, a_re + 1j * a_im
    Z = (H + _conj_t(H)) / 2 + 1j * (np.eye(g) + A @ _conj_t(A))
    return HermitianPoint(Z)
