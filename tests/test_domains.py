from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pelks.domains import HermitianPoint, SiegelPoint, petersson_norm, random_point
from pelks.lattices import POSITIVITY_TOL, RiemannForm


def _form(g):
    return np.block([[np.zeros((g, g)), np.eye(g)], [-np.eye(g), np.zeros((g, g))]])


def _group_element(kind, g, rng):
    """A product of the explicit generators of the isometry group of T.

    Translations [[I, B], [0, I]] (B real symmetric for kind C, Hermitian
    for kind A), Levi elements [[A, 0], [0, A^{-*}]] and the inversion
    [[0, I], [-I, 0]]; the product has C and D both invertible.
    """
    def translation():
        b = rng.normal(scale=0.5, size=(g, g))
        if kind == "A":
            b = b + 1j * rng.normal(scale=0.5, size=(g, g))
        return np.block([[np.eye(g), (b + b.conj().T) / 2], [np.zeros((g, g)), np.eye(g)]])

    a = rng.normal(size=(g, g)) + 2 * np.eye(g)
    if kind == "A":
        a = a + 1j * rng.normal(size=(g, g))
    levi = np.block([[a, np.zeros((g, g))], [np.zeros((g, g)), np.linalg.inv(a).conj().T]])
    return translation() @ _form(g) @ levi @ translation()


def _act(el, Z):
    """(AZ + B)(CZ + D)^{-1}, validated as a point of the same domain."""
    g = Z.genus
    A, B, C, D = el[:g, :g], el[:g, g:], el[g:, :g], el[g:, g:]
    return type(Z)((A @ Z.matrix + B) @ np.linalg.inv(C @ Z.matrix + D))


@pytest.mark.parametrize("kind,g", [("C", 1), ("C", 2), ("A", 1), ("A", 2)])
def test_random_elements_preserve_the_form(kind, g):
    rng = np.random.default_rng(7)
    T = _form(g)
    for _ in range(5):
        el = _group_element(kind, g, rng)
        assert np.abs(el.conj().T @ T @ el - T).max() < 1e-10
        if kind == "C":
            assert np.abs(el.imag).max() == 0.0


@pytest.mark.parametrize("kind,g", [("C", 2), ("A", 2)])
def test_moebius_action_is_a_group_action(kind, g):
    rng = np.random.default_rng(11)
    Z = random_point(kind, g, rng)
    e1 = _group_element(kind, g, rng)
    e2 = _group_element(kind, g, rng)
    lhs = _act(e1, _act(e2, Z)).matrix
    rhs = _act(e1 @ e2, Z).matrix
    assert np.allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("kind,g", [("C", 1), ("C", 2), ("A", 1), ("A", 2)])
def test_det_y_transforms_by_the_denominator(kind, g):
    rng = np.random.default_rng(3)
    for _ in range(10):
        Z = random_point(kind, g, rng)
        el = _group_element(kind, g, rng)
        C, D = el[g:, :g], el[g:, g:]
        den = np.linalg.det(C @ Z.matrix + D)
        lhs = np.linalg.det(_act(el, Z).Y).real
        rhs = np.linalg.det(Z.Y).real / abs(den) ** 2
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_petersson_norm_values():
    y = 1.7
    assert petersson_norm(SiegelPoint(np.array([[1j * y]]))) == pytest.approx(2 * y)
    assert petersson_norm(SiegelPoint(1j * np.eye(2))) == pytest.approx(8.0)
    assert petersson_norm(HermitianPoint(np.array([[1j * y]]))) == pytest.approx(2 * y)
    # two tube variables, n = 2: r = 4 so the constant is 2^(16/4 * 2/2)... spelled out:
    # 2^(r^2 n / 4) det(Y)^(r n / 2) = 2^8 * det(Y)^4
    val = petersson_norm(HermitianPoint(1j * np.eye(2)), n=2)
    assert val == pytest.approx(2.0**8)
    with pytest.raises(ValueError):
        petersson_norm(SiegelPoint(1j * np.eye(1)), n=2)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_point_validation():
    with pytest.raises(ValueError):
        SiegelPoint(np.array([[1j, 0.5], [0.0, 1j]]))  # not symmetric
    with pytest.raises(ValueError):
        HermitianPoint(np.array([[-1j]]))  # negative Y
    # a NaN or an inf anywhere is no point: the finiteness test refuses it
    # before the Cholesky factorization, which passes an inf on the diagonal
    nan3 = 1j * np.eye(3)
    nan3[1, 2] = np.nan
    bad = [[[np.nan + 1j]], [[complex(0, np.nan)]], [[complex(0, np.inf)]], nan3]
    for matrix in bad:
        for point_type in (SiegelPoint, HermitianPoint):
            with pytest.raises(ValueError):
                point_type(np.array(matrix))


def _refusal(point_type, matrix):
    with pytest.raises(ValueError) as refused:
        point_type(matrix)
    return str(refused.value)


@pytest.mark.parametrize("kind", ["C", "A"])
def test_a_stack_with_one_bad_point_is_refused(kind):
    # the bad member is the last one, so a check of the first alone misses it
    point_type = SiegelPoint if kind == "C" else HermitianPoint
    good = random_point(kind, 2, np.random.default_rng(13), 4).matrix
    assert point_type(good).matrix.shape == (4, 2, 2)
    singular = good.copy()
    z = singular[-1]
    singular[-1] = z.real if kind == "C" else (z + z.conj().T) / 2  # Y = 0
    nan = good.copy()
    nan[-1, 1, 0] = np.nan
    bad = [singular, nan]
    if kind == "C":
        skew = good.copy()
        skew[-1, 0, 1] += 0.5
        bad.append(skew)
    for stack in bad:
        assert _refusal(point_type, stack) == _refusal(point_type, stack[-1])


# The eigenvalue rules that the Cholesky tests replaced, kept as oracles.


def _point_rule(y):
    return bool(np.isfinite(y).all() and (np.linalg.eigvalsh(y).min(axis=-1) > 0).all())


def _form_rule(h):
    return bool(np.linalg.eigvalsh(h).min() > POSITIVITY_TOL)


def _stack(g, count, seed, complex_, shift, scale):
    """`count` exactly Hermitian (real symmetric unless `complex_`) g x g
    matrices, scale (A A* / g + shift I) for normal A: their least
    eigenvalues lie near scale . shift."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, g, g)) + (1j * rng.normal(size=(count, g, g)) if complex_ else 0)
    m = scale * (a @ np.swapaxes(a, -1, -2).conj() / g + shift * np.eye(g))
    return (m + np.swapaxes(m, -1, -2).conj()) / 2


def _point_accepts(y):
    """Whether the point class of `y` accepts Z = iY, and the Y it reads
    (equal to `y` up to the rounding of its own formula)."""
    point_type = HermitianPoint if np.iscomplexobj(y) else SiegelPoint
    z = 1j * y
    try:
        point_type(z)
    except ValueError as exc:
        if np.isfinite(y).all():  # a Siegel point refuses a NaN or an inf as not symmetric
            assert str(exc).endswith("needs positive definite " + ("Y part" if np.iscomplexobj(y) else "imaginary part"))
        return False, point_type.Y.fget(SimpleNamespace(matrix=z))
    return True, point_type.Y.fget(SimpleNamespace(matrix=z))


def _form_accepts(h):
    """`RiemannForm.is_positive` on a form whose H is `h`."""
    return RiemannForm.is_positive(SimpleNamespace(hermitian_matrix=lambda lattice: h), None)


def _clear_of(lam, threshold):
    """Whether the least eigenvalue of a stack is at least
    1e-6 max(1, |lambda|max) away from `threshold`."""
    return abs(lam.min() - threshold) >= 1e-6 * max(1.0, np.abs(lam).max())


# 300 examples, about 0.6 s
@settings(max_examples=300, deadline=None)
@given(
    g=st.integers(1, 8),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    complex_=st.booleans(),
    shift=st.floats(-1.0, 1.0),
    scale=st.sampled_from([1e-12, 1e-10, 1e-8, 1e-4, 1.0, 1e4, 1e8]),
)
@example(g=1, count=1, seed=0, complex_=False, shift=2.0, scale=1e-10)  # 2e-10: above the tolerance
@example(g=1, count=1, seed=0, complex_=True, shift=0.5, scale=1e-10)  # 5e-11: below it
def test_cholesky_agrees_with_the_eigenvalue_rule(g, count, seed, complex_, shift, scale):
    m = _stack(g, count, seed, complex_, shift, scale)
    accepted, y = _point_accepts(m)
    lam = np.linalg.eigvalsh(y)
    if _clear_of(lam, 0.0):
        assert accepted == _point_rule(y)
    lam = np.linalg.eigvalsh(m)
    if _clear_of(lam, POSITIVITY_TOL) or g == 1:  # a 1 x 1 member is its own eigenvalue
        assert _form_accepts(m) == _form_rule(m)


# 150 examples, about 0.3 s
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    g=st.integers(1, 8),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    complex_=st.booleans(),
    bad=st.sampled_from([np.nan, np.inf, -np.inf, "singular", "indefinite"]),
    data=st.data(),
)
def test_a_bad_member_is_refused(g, count, seed, complex_, bad, data):
    # one member of a positive definite stack gets a NaN or an inf at a slot
    # and its mirror, or a zero row and column, where "indefinite" puts -1
    # on the diagonal: an exact eigenvalue 0 or -1
    m = _stack(g, count, seed, complex_, 1.0, 1.0)
    assert _point_accepts(m)[0] and _form_accepts(m)
    member = data.draw(st.integers(0, count - 1))
    i = data.draw(st.integers(0, g - 1))
    j = data.draw(st.integers(0, g - 1))
    if isinstance(bad, str):
        m[member, i, :] = m[member, :, i] = 0.0
        m[member, i, i] = -1.0 if bad == "indefinite" else 0.0
    else:
        m[member, i, j] = m[member, j, i] = bad
    assert not _point_accepts(m)[0]
    assert not _form_accepts(m)
