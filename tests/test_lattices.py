"""Period lattice oracles.

Hand-computed anchors for the Gaussian rank-one instance (F = Q(i),
n = 1, r = 2, domain coordinate z = x + iy):

  generator images     (z, z), (iz, -iz), (1, 1), (i, -i)
  basic Gram (mu = I)  [[0,0,-2,0],[0,0,0,-2],[2,0,0,0],[0,2,0,0]]
  covolume             4 y^2
  self-dual mu         -2  (positivity forces the sign)
  mu = I degree        4 = |d_F|, with dual index 16 = 4^2

Elliptic sanity (Z tau + Z): covolume Im tau, squared norm Im(tau)/pi.
The Cayley comparison is pinned at the center: right multiplication by
T = [[1, -i], [1, i]] (block columns) carries the order lattice into
itself with index 4^n, and lambda_{iI}(X T) equals 2i times the image of
X in the bounded realization at U = 0, which is the split columns
(X[:, r/2:], conj(X)[:, :r/2]).
"""

import importlib.util
from functools import lru_cache
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pelks import lattices
from pelks.algebra import integer_det, integer_smith_normal_form
from pelks.checks import COVOLUME_TOL, run_checks
from pelks.cli import resolve_config
from pelks.config import config_from_dict, config_to_dict, matrix_to_lists
from pelks.domains import HermitianPoint, SiegelPoint
from pelks.lattices import (
    NoSelfDualForm,
    OrderEmbedding,
    PeriodLattice,
    RankDeficient,
    RiemannForm,
    _blockwise,
    build_lattice,
    covolume_closed_form,
    embed_labels,
    dual_index_oracle,
    faltings_norm,
    generator_labels,
    polarization_degree,
    solve_self_dual_mu,
)
from embeddings import gaussian_unitary, matrix_basechange, rational_siegel
from relation_oracle import reduce_every_block


def eisenstein_unitary():
    omega = 0.5 + 0.5j * np.sqrt(3.0)
    return OrderEmbedding("A", 1, 2, -3, ([[1.0]], [[omega]]))


def _realify(v):
    v = np.asarray(v, dtype=complex).ravel()
    return np.concatenate([v.real, v.imag])


def _module_coordinates(emb, mats):
    """Integer coordinates of rational elements over the module basis."""
    basis = emb.module_basis()
    cols = np.stack([_realify(b) for b in basis], axis=1)
    rows = []
    for m in mats:
        c = np.linalg.solve(cols, _realify(m))
        assert np.abs(c - np.round(c)).max() < 1e-9
        rows.append([int(round(x)) for x in c])
    return rows


def _script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_order_embedding_rejects_wrong_count():
    with pytest.raises(ValueError, match="needs 2 matrices"):
        OrderEmbedding("A", 1, 2, -4, ([[1.0]],))


def test_order_embedding_rejects_unclosed_basis():
    with pytest.raises(ValueError, match="integer coefficients"):
        OrderEmbedding("A", 1, 2, -4, ([[1.0]], [[0.5j]]))


def test_order_embedding_rejects_dependent_basis():
    with pytest.raises(ValueError, match="rationally dependent"):
        OrderEmbedding("A", 1, 2, -4, ([[1.0]], [[1.0]]))


def test_order_embedding_rejects_odd_rank_for_kind_a():
    with pytest.raises(ValueError, match="r even"):
        OrderEmbedding("A", 1, 3, -4, ([[1.0]], [[1j]]))


def test_order_embedding_rejects_complex_entries_over_q():
    with pytest.raises(ValueError, match="must be real"):
        OrderEmbedding("C", 1, 2, 1, ([[1j]],))


@pytest.mark.parametrize("imag", [np.nan, np.inf, -np.inf])
def test_order_embedding_rejects_non_finite_imaginary_parts_over_q(imag):
    with pytest.raises(ValueError, match="kind C order basis must be real"):
        OrderEmbedding("C", 1, 2, 1, ([[complex(1, imag)]],))


# The closure check as it read with numpy, kept as the slow path that the
# plain-Python check in OrderEmbedding must agree with.


def _real_rows(stack):
    """One real row per item of a complex stack: real parts, then imaginary."""
    flat = stack.reshape(len(stack), -1)
    return np.hstack([flat.real, flat.imag])


def _numpy_closure(kind, n, mats):
    """The refusal of the numpy closure check, or None when it accepts."""
    stack = np.stack([np.asarray(m, dtype=complex) for m in mats])
    prods = (stack[:, None] @ stack[None, :]).reshape(-1, n, n)
    cols, prod_cols = _real_rows(stack).T, _real_rows(prods).T
    if kind == "C":
        cols, prod_cols = cols[: len(mats)], prod_cols[: len(mats)]
    tol = 2 * n * n * np.finfo(float).eps
    dependent = ValueError("order basis matrices are rationally dependent")
    try:
        coeff = lattices.checked_inverse(cols, tol, dependent, floor=0.0) @ prod_cols
    except ValueError as exc:
        return str(exc)
    if np.abs(coeff - np.round(coeff)).max() > 1e-9:
        return "order basis products need integer coefficients"
    return None


def _units(n, scales):
    return [s * np.eye(n * n)[k].reshape(n, n) for s in scales for k in range(n * n)]


# (kind, n, r, discriminant, basis): the orders of the shipped fixtures with
# archimedean data (Z[i], M_2(Z[i]), Z), the Eisenstein order and M_2(Z)
CLOSURE_ORDERS = {
    "gauss": ("A", 1, 2, -4, _units(1, (1, 1j))),
    "eisenstein": ("A", 1, 2, -3, _units(1, (1, 0.5 + 0.5j * np.sqrt(3.0)))),
    "basechange": ("A", 2, 2, -4, _units(2, (1, 1j))),
    "siegel": ("C", 1, 2, 1, _units(1, (1,))),
    "matrix-units": ("C", 2, 2, 1, _units(2, (1,))),
}


@st.composite
def _unimodular(draw, k):
    """U in GL_k(Z), a product of up to four elementary matrices: row i
    plus c times row j (i != j, c in -2..2), or row i negated."""
    u = np.eye(k, dtype=int)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i == j:
            u[i] = -u[i]
        else:
            u[i] = u[i] + draw(st.integers(-2, 2)) * u[j]
    return u


def _change_basis(u, basis):
    """U . basis: element a is the sum of U[a, b] basis[b]."""
    return list(np.einsum("ab,bij->aij", u, np.array(basis, dtype=complex)))


def _closure_verdict(kind, n, r, disc, mats):
    try:
        OrderEmbedding(kind, n, r, disc, tuple(mats))
    except ValueError as exc:
        return str(exc)
    return None


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_closure_check_agrees_with_the_numpy_oracle(data):
    name = data.draw(st.sampled_from(sorted(CLOSURE_ORDERS)))
    kind, n, r, disc, basis = CLOSURE_ORDERS[name]
    mats = _change_basis(data.draw(_unimodular(len(basis))), basis)
    mode = data.draw(st.sampled_from(("closed", "halved", "shifted", "dependent")))
    j = data.draw(st.integers(0, len(mats) - 1))
    if mode == "halved":
        mats[j] = mats[j] / 2
    elif mode == "shifted":
        mats[j] = mats[j] + 0.3 * np.eye(n)
    elif mode == "dependent":
        i = data.draw(st.integers(0, len(mats) - 1))
        # an exact copy, negation or double of another element, or zero
        mats[j] = data.draw(st.sampled_from((1, -1, 2))) * mats[i] if i != j else 0 * mats[j]
    expected = {
        "closed": None,
        "halved": "order basis products need integer coefficients",
        "shifted": "order basis products need integer coefficients",
        "dependent": "order basis matrices are rationally dependent",
    }[mode]
    assert _numpy_closure(kind, n, mats) == expected
    assert _closure_verdict(kind, n, r, disc, mats) == expected


@lru_cache(maxsize=None)
def _ladder_config(family, r):
    return _script("scale_ladder").family_config(family, r, 1)


def _assert_moved_within(before, after, tol, where):
    """after equals before, except that a float may move by less than tol."""
    if isinstance(before, float):
        assert isinstance(after, float) and abs(after - before) < tol, (where, before, after)
    elif isinstance(before, (list, dict)):
        assert type(after) is type(before) and len(after) == len(before), where
        keys = before if isinstance(before, dict) else range(len(before))
        for key in keys:
            _assert_moved_within(before[key], after[key], tol, f"{where}/{key}")
    else:
        assert after == before, (where, before, after)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_reports_do_not_see_a_change_of_order_basis(data):
    # U . basis spans the same order for U in GL(Z): every status and exact
    # value stays and a float moves by less than its row's tolerance.  The
    # solved mu is |det G|^(1/2nr) of the basic Gram matrix, which becomes
    # U^t G U with the same integer determinant, so mu stays exactly
    family = data.draw(st.sampled_from(("gauss", "basechange")))
    cfg = _ladder_config(family, data.draw(st.sampled_from((2, 4))))
    basis = cfg.archimedean.order_basis
    u = data.draw(_unimodular(len(basis)))
    changed = config_to_dict(cfg)
    changed["archimedean"]["order_basis"] = [matrix_to_lists(m) for m in _change_basis(u, basis)]
    before = run_checks(cfg)["checks"]
    after = run_checks(config_from_dict(changed))["checks"]
    assert [(e["name"], e["status"]) for e in after] == [(e["name"], e["status"]) for e in before]
    for old, new in zip(before, after):
        tol = 0.0 if old["tolerance"] == "exact" else old["tolerance"]
        for part in ("computed", "expected"):
            for key, value in old[part].items():
                if key == "mu":
                    assert new[part][key] == value, (old["name"], value, new[part][key])
                else:
                    _assert_moved_within(value, new[part][key], tol, f"{old['name']}/{part}/{key}")


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} was used")


def test_embedding_and_rank_lemma_run_no_numpy_in_lattices(monkeypatch):
    fixtures = [resolve_config(name) for name in ("unitary-A", "basechange-A", "siegel-C")]
    monkeypatch.setattr(lattices, "np", _NoNumpy())
    for cfg in fixtures:
        a = cfg.archimedean
        emb = OrderEmbedding(cfg.kind, cfg.n, cfg.r, a.discriminant, a.order_basis)
        assert emb.matrices == a.order_basis
    report = run_checks(resolve_config("unitary-A"), only="global.rank-lemma")
    assert [(e["name"], e["status"]) for e in report["checks"]] == [("global.rank-lemma", "pass")]


def test_gaussian_images_match_hand_values():
    z = 0.3 + 1.1j
    lat = build_lattice(HermitianPoint([[z]]), gaussian_unitary())
    expected = np.array(
        [[z, z], [1j * z, -1j * z], [1, 1], [1j, -1j]], dtype=complex
    )
    assert np.abs(lat.vectors - expected).max() < 1e-12


def test_embed_labels_hand_values_at_rank_four():
    # r/2 = 2 with the non-symmetric Z = [[i, 1], [0, 2i]], so the
    # conjugate block conj(X) . [Z^t; I] is not conj(X) . [Z; I]
    emb = OrderEmbedding("A", 1, 4, -4, ([[1.0]], [[1j]]))
    point = HermitianPoint([[1j, 1], [0, 2j]])
    labels = [[[1, 0, 0, 0]], [[0, 1j, 0, 0]], [[0, 0, 1, 0]], [[0, 0, 0, 1]]]
    expected = np.array(
        [[1j, 1, 1j, 0], [0, -2, -1j, 2], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=complex
    )
    assert np.abs(embed_labels(emb, point, labels) - expected).max() < 1e-12


def test_basic_gram_matches_hand_matrix():
    lat = build_lattice(HermitianPoint([[0.3 + 1.1j]]), gaussian_unitary())
    g = RiemannForm(lat.embedding, 1.0).gram
    hand = np.array(
        [
            [0, 0, -2, 0],
            [0, 0, 0, -2],
            [2, 0, 0, 0],
            [0, 2, 0, 0],
        ],
        dtype=float,
    )
    assert np.abs(g - hand).max() < 1e-12


def test_gram_alternating_and_integral():
    rng = np.random.default_rng(7)
    cases = [
        (build_lattice(HermitianPoint([[0.4 + 0.9j]]), gaussian_unitary()), 1.0),
        (
            build_lattice(
                HermitianPoint([[rng.normal() + (1.5 + rng.random()) * 1j]]),
                matrix_basechange(),
            ),
            -2.0 * np.eye(2),
        ),
        (
            build_lattice(
                SiegelPoint(
                    np.array([[0.2, 0.1], [0.1, -0.3]])
                    + 1j * np.array([[1.4, 0.2], [0.2, 1.1]])
                ),
                rational_siegel(2),
            ),
            1.0,
        ),
    ]
    for lat, mu in cases:
        g = RiemannForm(lat.embedding, mu).gram
        assert np.abs(g + g.T).max() < 1e-9
        assert np.abs(g - np.round(g)).max() < 1e-9


def test_covolume_hand_value():
    y = 1.1
    lat = build_lattice(HermitianPoint([[0.3 + y * 1j]]), gaussian_unitary())
    assert abs(lat.covolume() - 4 * y * y) < 1e-10


def test_covolume_closed_form_across_points():
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = rng.normal() + (0.5 + rng.random() * 2) * 1j
        lat = build_lattice(HermitianPoint([[z]]), gaussian_unitary())
        assert abs(lat.covolume() / covolume_closed_form(lat, RiemannForm(lat.embedding, -2.0)) - 1) < 1e-9
        lat = build_lattice(HermitianPoint([[z]]), matrix_basechange())
        form = RiemannForm(lat.embedding, -2.0 * np.eye(2))
        assert abs(lat.covolume() / covolume_closed_form(lat, form) - 1) < 1e-9
    for _ in range(5):
        x = rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) * 0.3
        zm = (x + x.T) / 2 + 1j * (y @ y.T + 1.2 * np.eye(2))
        lat = build_lattice(SiegelPoint(zm), rational_siegel(2))
        det_y = np.linalg.det(lat.point.Y)
        assert abs(lat.covolume() / det_y - 1) < 1e-9
        assert abs(covolume_closed_form(lat, RiemannForm(lat.embedding, -1.0)) / det_y - 1) < 1e-12


def test_covolume_scaling_homogeneity():
    lat = build_lattice(HermitianPoint([[0.2 + 1.3j]]), gaussian_unitary())
    base = lat.covolume()
    real_dim = 2 * lat.complex_dim

    def scaled(c):
        return PeriodLattice(lat.embedding, lat.point, c * lat.vectors, lat.labels)

    assert abs(scaled(1.3).covolume() / (base * 1.3**real_dim) - 1) < 1e-9
    # a unit-modulus complex scale is a rotation, covolume stays put
    assert abs(scaled(1j).covolume() / base - 1) < 1e-9


def test_duality_inverts_covolume():
    for emb, point in [
        (gaussian_unitary(), HermitianPoint([[0.5 + 0.8j]])),
        (rational_siegel(1), SiegelPoint([[0.25 + 1.7j]])),
    ]:
        lat = build_lattice(point, emb)
        dual = lat.dual()
        assert abs(lat.covolume() * dual.covolume() - 1) < 1e-10
        again = dual.dual()
        assert np.abs(again.vectors - lat.vectors).max() < 1e-9


def pair_vectors(form, lattice, v, w):
    """E_mu of two vectors of C^{nr}, through the form's real extension."""
    return float(_realify(v) @ form.extension(lattice) @ _realify(w))


def test_elliptic_covolume_and_norm():
    tau = 0.25 + 1.7j
    lat = build_lattice(SiegelPoint([[tau]]), rational_siegel(1))
    assert abs(lat.covolume() - tau.imag) < 1e-12
    assert abs(faltings_norm(lat) - np.sqrt(tau.imag / np.pi)) < 1e-12


def test_hand_value_of_associated_hermitian_form():
    # E_I(i v3, v3) = -2 / y for the third generator (1, 1)
    y = 1.1
    lat = build_lattice(HermitianPoint([[0.3 + y * 1j]]), gaussian_unitary())
    form = RiemannForm(lat.embedding, 1.0)
    v3 = lat.vectors[2]
    val = pair_vectors(form, lat, 1j * v3, v3)
    assert abs(val + 2 / y) < 1e-10
    assert not form.is_positive(lat)


def test_positivity_selects_the_sign():
    rng = np.random.default_rng(3)
    for _ in range(4):
        z = rng.normal() + (0.6 + rng.random()) * 1j
        lat = build_lattice(HermitianPoint([[z]]), gaussian_unitary())
        assert RiemannForm(lat.embedding, -2.0).is_positive(lat)
        assert not RiemannForm(lat.embedding, 2.0).is_positive(lat)
        h = RiemannForm(lat.embedding, -2.0).hermitian_matrix(lat)
        assert np.abs(h - h.conj().T).max() < 1e-10


def test_pair_vectors_matches_gram_and_alternates():
    lat = build_lattice(HermitianPoint([[0.7 + 1.2j]]), gaussian_unitary())
    form = RiemannForm(lat.embedding, -2.0)
    for a in range(4):
        for b in range(4):
            va, vb = lat.vectors[a], lat.vectors[b]
            assert abs(pair_vectors(form, lat, va, vb) - form.gram[a, b]) < 1e-10
            assert abs(pair_vectors(form, lat, va, vb) + pair_vectors(form, lat, vb, va)) < 1e-10


def _solve(lat):
    """The self-dual form on `lat`, solved from the basic form."""
    return solve_self_dual_mu(RiemannForm(lat.embedding, 1.0), lat)


def _assert_self_dual(form, c, trace_covolume):
    """The solved form has mu = c I_n, up to rounding of c, is unimodular,
    and |c|^{nr} is the trace-form covolume of the order."""
    emb = form.emb
    mu = form.mu[0, 0]
    assert abs(mu - c) < 1e-9
    assert np.array_equal(form.mu, mu * np.eye(emb.n))
    assert abs(abs(np.linalg.det(form.gram)) - 1.0) < 1e-9
    assert abs(emb.trace_covolume() - trace_covolume) < 1e-9
    assert abs(abs(mu) ** (emb.n * emb.r) / trace_covolume - 1.0) < COVOLUME_TOL


def test_solve_self_dual_gaussian():
    lat = build_lattice(HermitianPoint([[0.3 + 1.1j]]), gaussian_unitary())
    _assert_self_dual(_solve(lat), -2.0, 4.0)


def test_solve_self_dual_siegel():
    zm = np.array([[0.2 + 1.4j, 0.1 + 0.2j], [0.1 + 0.2j, -0.3 + 1.1j]])
    lat = build_lattice(SiegelPoint(zm), rational_siegel(2))
    _assert_self_dual(_solve(lat), -1.0, 1.0)


def test_solve_self_dual_basechange():
    lat = build_lattice(HermitianPoint([[0.4 + 0.9j]]), matrix_basechange())
    _assert_self_dual(_solve(lat), -2.0, 16.0)


def test_solve_self_dual_refuses_eisenstein():
    # |det G_I|^{1/4} = sqrt(3) there, and G_I / sqrt(3) is not integral
    lat = build_lattice(HermitianPoint([[0.2 + 1.0j]]), eisenstein_unitary())
    with pytest.raises(NoSelfDualForm):
        _solve(lat)


@pytest.mark.parametrize(
    "fixture,forms",
    [
        ("unitary-A", 2),  # the trace form, shared by the solve and the degree check, and the solved form
        ("siegel-C", 2),  # the trace form the solve starts from and the solved form
        ("basechange-A", 1),  # the explicit mu's form
    ],
)
def test_a_verdict_builds_each_riemann_form_once(monkeypatch, fixture, forms):
    built = []
    real = RiemannForm.__init__

    def counted(self, emb, mu):
        built.append(mu)
        real(self, emb, mu)

    monkeypatch.setattr(RiemannForm, "__init__", counted)
    report = run_checks(resolve_config(fixture), only="[ap]*")
    assert report["summary"]["fail"] == 0
    assert len(built) == forms


def test_polarization_degree_self_dual_is_one():
    cases = [
        (gaussian_unitary(), -2.0),
        (rational_siegel(1), -1.0),
        (matrix_basechange(), -2.0 * np.eye(2)),
    ]
    for emb, mu in cases:
        form = RiemannForm(emb, mu)
        assert polarization_degree(form) == 1
        assert dual_index_oracle(form) == 1


def test_polarization_degree_of_trace_form():
    form = RiemannForm(gaussian_unitary(), 1.0)
    deg = polarization_degree(form)
    assert deg == 4
    index = dual_index_oracle(form)
    assert index == 16
    assert deg * deg == index


def test_polarization_degree_rescaling():
    # mu -> mu / k multiplies E by k, hence the degree by k^{nr}
    assert polarization_degree(RiemannForm(gaussian_unitary(), -2.0 / 3.0)) == 9


def _dense_index(rows):
    """|det| and the product of the elementary divisors, on the whole matrix."""
    return abs(integer_det(rows)), prod(integer_smith_normal_form(rows).divisors)


def _block_index(rows):
    return (
        _blockwise(rows, lambda block: abs(integer_det(block))),
        _blockwise(rows, lambda block: prod(integer_smith_normal_form(block).divisors)),
    )


def _sparse_integer_matrices(rng):
    """Random sparse square integer matrices: block diagonal ones under a
    row and a column permutation, and ones made singular by a zero row, a
    zero column, a repeated row, or a block with one row fewer than its
    columns."""
    for _ in range(40):
        sizes = rng.integers(1, 4, size=rng.integers(1, 5))
        dim = int(sizes.sum())
        a = np.zeros((dim, dim), dtype=int)
        start = 0
        for size in sizes:
            block = rng.integers(-3, 4, size=(size, size)) * (rng.random((size, size)) < 0.7)
            a[start : start + size, start : start + size] = block
            start += size
        a = a[rng.permutation(dim)][:, rng.permutation(dim)]
        yield a
        if dim > 1:
            zero_row, zero_col, repeated = (a.copy() for _ in range(3))
            zero_row[rng.integers(dim)] = 0
            zero_col[:, rng.integers(dim)] = 0
            repeated[0] = repeated[1]
            yield from (zero_row, zero_col, repeated)
    # rows 0 and 1 share column 0 alone, column 1 sits in no row
    yield np.array([[2, 0, 0], [3, 0, 0], [0, 0, 5]])


def test_blockwise_index_equals_the_dense_path():
    rng = np.random.default_rng(43)
    singular = 0
    for a in _sparse_integer_matrices(rng):
        rows = a.tolist()
        dense = _dense_index(rows)
        assert _block_index(rows) == dense
        singular += dense[0] == 0
    assert singular > 20
    # a block with more rows than columns gives 0 before any block, even an
    # earlier square one, is measured
    measured = []
    assert _blockwise([[5, 0, 0], [0, 2, 0], [0, 3, 0]], lambda block: measured.append(block) or 1) == 0
    assert measured == []


def test_blockwise_index_on_ladder_forms():
    # the monomial Gram matrices of the benchmark's largest arch rungs, at
    # the trace form and at the self-dual (or explicit) mu
    basechange = matrix_basechange()
    cases = [
        (OrderEmbedding("A", 1, 8, -4, ([[1.0]], [[1j]])), HermitianPoint(np.eye(4) * 1j), None),
        (rational_siegel(8), SiegelPoint(np.eye(8) * 1j), None),
        (OrderEmbedding("A", 2, 6, -4, basechange.matrices), HermitianPoint(np.eye(3) * 1j), -2.0 * np.eye(2)),
    ]
    for emb, point, mu in cases:
        base = RiemannForm(emb, 1.0)
        form = solve_self_dual_mu(base, build_lattice(point, emb)) if mu is None else RiemannForm(emb, mu)
        for f in (base, form):
            dense = _dense_index(f.integer_gram())
            assert (polarization_degree(f) ** 2, dual_index_oracle(f)) == dense
        assert dense == (1, 1)


def _gram_matrices(monkeypatch, configs):
    """Every integer Gram matrix that arch.polarization-degree reduces on `configs`."""
    grams = []
    original = lattices._blockwise

    def recording(rows, measure):
        grams.append(rows)
        return original(rows, measure)

    with monkeypatch.context() as m:
        m.setattr(lattices, "_blockwise", recording)
        for cfg in configs:
            (entry,) = run_checks(cfg, only="arch.polarization-degree")["checks"]
            assert entry["status"] == "pass", cfg.name
    return grams


def test_blockwise_measures_each_distinct_block_once(monkeypatch):
    # the Gram matrices of every arch-ladder rung and of the fixtures, whose
    # blocks repeat: the dedup measures fewer blocks and gives the same product
    configs = [config_from_dict(cfg) for _, cfg, _ in _script("report_digests").workload_configs("arch-ladder")]
    configs += [resolve_config(name) for name in ("unitary-A", "basechange-A", "siegel-C")]
    grams = _gram_matrices(monkeypatch, configs)
    assert len(grams) >= 2 * len(configs)
    measures = (lambda block: abs(integer_det(block)), lambda block: prod(integer_smith_normal_form(block).divisors))
    deduped, every = [], []
    for rows in grams:
        for measure in measures:
            fast = _blockwise(rows, lambda block: deduped.append(block) or measure(block))
            with monkeypatch.context() as m:
                m.setattr(lattices, "reduce_blocks", reduce_every_block)
                slow = _blockwise(rows, lambda block: every.append(block) or measure(block))
            assert fast == slow
    assert len(deduped) < len(every) // 2


def test_generator_labels_are_cached_and_read_only():
    for emb in (gaussian_unitary(), rational_siegel(2), matrix_basechange()):
        labels = generator_labels(emb)
        assert generator_labels(emb) is labels
        with pytest.raises(ValueError, match="read-only"):
            labels[0, 0, 0] = 7


def test_polarization_rejects_non_integral_form():
    form = RiemannForm(gaussian_unitary(), 1.7)
    with pytest.raises(ValueError, match="not integral"):
        polarization_degree(form)
    with pytest.raises(ValueError, match="not integral"):
        dual_index_oracle(form)


def _bounded_center_lattice(emb):
    """Lattice of the bounded realization at U = 0: the split columns."""
    half = emb.r // 2
    basis = emb.module_basis()
    vecs = [np.hstack([x[:, half:], x.conj()[:, :half]]).ravel() for x in basis]
    return PeriodLattice(emb, None, np.stack(vecs), basis)


def test_bounded_hand_images_at_center():
    lat = _bounded_center_lattice(gaussian_unitary())
    expected = np.array(
        [[0, 1], [0, -1j], [1, 0], [1j, 0]], dtype=complex
    )
    assert np.abs(lat.vectors - expected).max() < 1e-12
    assert abs(lat.covolume() - 1.0) < 1e-12


def test_bounded_cayley_comparison():
    # lambda_{iI}(X T) = 2i lambda^b(X) at U = 0, with T integral over the
    # order of column-block index 4^n
    t_block = np.array([[1.0, -1j], [1.0, 1j]])
    for emb, index in [(gaussian_unitary(), 4), (matrix_basechange(), 16)]:
        half = emb.r // 2
        center = HermitianPoint(1j * np.eye(half))
        moved = [x @ t_block for x in emb.module_basis()]
        coords = _module_coordinates(emb, moved)
        assert abs(integer_det(coords)) == index
        bounded = _bounded_center_lattice(emb)
        lhs = embed_labels(emb, center, moved)
        assert np.abs(lhs - 2j * bounded.vectors).max() < 1e-12
        # index accounting: covol(bounded) = |1/2i|^{2nr} index covol(iI)
        unbounded = build_lattice(center, emb)
        n, r = emb.n, emb.r
        predicted = 0.5 ** (2 * n * r) * index * unbounded.covolume()
        assert abs(bounded.covolume() / predicted - 1) < 1e-10


def test_rank_deficient_rejected():
    lat = build_lattice(HermitianPoint([[0.3 + 1.1j]]), gaussian_unitary())
    bad = lat.vectors.copy()
    bad[1] = bad[0]
    with pytest.raises(RankDeficient):
        PeriodLattice(lat.embedding, lat.point, bad, lat.labels)


def test_build_rejects_wrong_point_types():
    with pytest.raises(TypeError):
        build_lattice(SiegelPoint([[1j]]), gaussian_unitary())
    with pytest.raises(TypeError):
        build_lattice(HermitianPoint([[1j]]), rational_siegel(1))
