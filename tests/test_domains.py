import numpy as np
import pytest

from pelks.domains import HermitianPoint, SiegelPoint, petersson_norm, random_point


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
    # a NaN or an inf anywhere is no point; eigvalsh gives a NaN for the
    # 1 x 1 NaN and does not converge on the 3 x 3 one
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
