"""Points of the unbounded realizations of the relevant symmetric domains.

Type C lives on the Siegel space of symmetric g x g complex Z with
Im Z positive definite; type A on the tube of complex g x g matrices
with Y = (Z - Z*)/2i positive definite.  Both are acted on through
Z -> (AZ + B)(CZ + D)^{-1} by the isometry group of
T = [[0, I], [-I, 0]] (so that [Z; I]* T [Z; I] = -2iY), which scales
det Y by |det(CZ + D)|^{-2}; the Petersson norm below is a power of
det Y and transforms by the matching power of that factor.

All matrices are numpy complex arrays.
"""

from dataclasses import dataclass

import numpy as np

_ATOL = 1e-9
_SPREAD = 0.6  # scale of the normal entries of random_point


def _as_matrix(m):
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    return a


@dataclass(frozen=True)
class SiegelPoint:
    """Symmetric g x g complex Z with Im Z positive definite."""

    matrix: np.ndarray

    def __post_init__(self):
        Z = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", Z)
        if Z.shape[0] != Z.shape[1]:
            raise ValueError("Siegel point must be square")
        # np.allclose(Z, Z.T, atol=_ATOL) written out: same points, a quarter of the cost
        if not (np.abs(Z - Z.T) <= _ATOL + 1e-5 * np.abs(Z.T)).all():
            raise ValueError("Siegel point must be symmetric")
        if np.linalg.eigvalsh(self.Y).min() <= 0:
            raise ValueError("Siegel point needs positive definite imaginary part")

    @property
    def genus(self):
        return self.matrix.shape[0]

    @property
    def Y(self):
        return np.imag(self.matrix)


@dataclass(frozen=True)
class HermitianPoint:
    """g x g complex Z with Y = (Z - Z*)/2i positive definite."""

    matrix: np.ndarray

    def __post_init__(self):
        Z = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", Z)
        if Z.shape[0] != Z.shape[1]:
            raise ValueError("tube point must be square")
        if np.linalg.eigvalsh(self.Y).min() <= 0:
            raise ValueError("tube point needs positive definite Y part")

    @property
    def genus(self):
        return self.matrix.shape[0]

    @property
    def Y(self):
        Z = self.matrix
        return (Z - Z.conj().T) / 2j


def petersson_norm(point, n=1):
    """The canonical top-form norm ||d tau||^n at the point.

    Type C (Siegel, n = 1): 2^{r(r+1)/2} det(Y)^{(r+1)/2} with r = g.
    Type A (tube): 2^{r^2 n/4} det(Y)^{rn/2} with r = 2g.
    """
    detY = float(np.linalg.det(point.Y).real)
    if isinstance(point, SiegelPoint):
        if n != 1:
            raise ValueError("the symplectic normalization has n = 1")
        r = point.genus
        return 2.0 ** (r * (r + 1) / 2) * detY ** ((r + 1) / 2)
    r = 2 * point.genus
    return 2.0 ** (r * r * n / 4) * detY ** (r * n / 2)


def random_point(kind, g, rng):
    """Deterministic random domain point for a seeded generator, Y >= I."""
    if kind == "C":
        X = rng.normal(scale=_SPREAD, size=(g, g))
        A = rng.normal(scale=_SPREAD, size=(g, g))
        Z = (X + X.T) / 2 + 1j * (np.eye(g) + A @ A.T)
        return SiegelPoint(Z)
    H = rng.normal(scale=_SPREAD, size=(g, g)) + 1j * rng.normal(scale=_SPREAD, size=(g, g))
    A = rng.normal(scale=_SPREAD, size=(g, g)) + 1j * rng.normal(scale=_SPREAD, size=(g, g))
    Z = (H + H.conj().T) / 2 + 1j * (np.eye(g) + A @ A.conj().T)
    return HermitianPoint(Z)
