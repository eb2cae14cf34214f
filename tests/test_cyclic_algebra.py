import pytest
from hypothesis import given, settings, strategies as st

from pelks.cyclic_algebra import CyclicAlgebraDescriptor, CyclicAlgebraElement, discriminant_report

QUAT = CyclicAlgebraDescriptor(n=2, residue_size=2)
BC = CyclicAlgebraDescriptor(n=2, residue_size=3, conjugation_power=1)
CUBIC = CyclicAlgebraDescriptor(n=3, residue_size=2)
SPLIT = CyclicAlgebraDescriptor(n=1, residue_size=5, split=True)


def _scalar(desc, x):
    """x in E as the cyclic element x u^0."""
    return CyclicAlgebraElement(desc, [x] + [desc.field.zero] * (desc.n - 1))


def _u(desc):
    """The generator u as the cyclic element 1 u^1 (n >= 2)."""
    coeffs = [desc.field.zero] * desc.n
    coeffs[1] = desc.field.one
    return CyclicAlgebraElement(desc, coeffs)


def _terms(desc):
    """Elements x pi^v u^i with a single nonzero cyclic coordinate."""
    field = desc.field

    def build(data):
        code, v, i = data
        coeffs = [field.zero] * desc.n
        coeffs[i] = field(code).shift(v)
        return CyclicAlgebraElement(desc, coeffs)

    return st.tuples(
        st.integers(1, field.size - 1), st.integers(0, 2), st.integers(0, desc.n - 1)
    ).map(build)


# -- descriptor validation ----------------------------------------------------


def test_descriptor_rejects_bad_frobenius_power():
    with pytest.raises(ValueError):
        CyclicAlgebraDescriptor(n=2, residue_size=3, frobenius_power=2)


def test_descriptor_rejects_bad_conjugation_power():
    with pytest.raises(ValueError):
        CyclicAlgebraDescriptor(n=3, residue_size=2, conjugation_power=1)


@pytest.mark.parametrize("q", [1, 0, -8])
def test_descriptor_rejects_residue_size_below_two(q):
    with pytest.raises(ValueError, match="not a prime power"):
        CyclicAlgebraDescriptor(n=2, residue_size=q)


def test_descriptor_accepts_half_period_conjugation():
    CyclicAlgebraDescriptor(n=4, residue_size=3, conjugation_power=2)


def test_split_descriptor_needs_degree_one():
    with pytest.raises(ValueError):
        CyclicAlgebraDescriptor(n=2, residue_size=3, split=True)


# -- multiplication -----------------------------------------------------------


@given(_terms(BC), _terms(BC), _terms(BC))
@settings(max_examples=40, deadline=None)
def test_multiplication_is_associative(a, b, c):
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


def test_u_commutation_rule():
    for desc in (QUAT, BC, CUBIC):
        u = _u(desc)
        zeta = _scalar(desc, desc.field.generator)
        tau_zeta = _scalar(desc, desc.tau(zeta.coeffs[0]))
        assert (u * zeta).coeffs == (tau_zeta * u).coeffs


def test_u_power_is_uniformizer():
    for desc in (QUAT, BC, CUBIC):
        acc = _scalar(desc, desc.field.one)
        for _ in range(desc.n):
            acc = acc * _u(desc)
        assert acc.coeffs == _scalar(desc, desc.field.one.shift(1)).coeffs


# -- discriminant -------------------------------------------------------------


@pytest.mark.parametrize(
    "desc,expected",
    [(QUAT, 2), (BC, 2), (CUBIC, 6), (CyclicAlgebraDescriptor(n=2, residue_size=5), 2)],
)
def test_division_algebra_discriminant(desc, expected):
    computed, closed = discriminant_report(desc)
    assert desc.is_division
    assert computed == closed == {"disc_exponent": expected, "gram_exponent": expected, "multiplier": 1}


def test_split_discriminant_vanishes():
    computed, closed = discriminant_report(SPLIT)
    assert not SPLIT.is_division
    assert not CyclicAlgebraDescriptor(n=1, residue_size=5).is_division
    assert computed == closed == {"disc_exponent": 0, "gram_exponent": 0, "multiplier": 0}


def test_discriminant_check_fails_when_is_division_lies(monkeypatch):
    # a q = 3 division place whose is_division claims a split place: the
    # closed form moves to 0 and 0, the Gram matrix still ramifies, so
    # every key of the check disagrees
    desc = CyclicAlgebraDescriptor(n=2, residue_size=3)
    monkeypatch.setattr(CyclicAlgebraDescriptor, "is_division", property(lambda self: False))
    computed, closed = discriminant_report(desc)
    assert computed == {"disc_exponent": 2, "gram_exponent": 2, "multiplier": 1}
    assert all(computed[key] != want for key, want in closed.items())
