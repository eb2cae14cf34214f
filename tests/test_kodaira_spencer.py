"""Pipeline oracles: cocycle, w-vectors, phi, psi, metric comparison.

Frozen hand values on the Gaussian rank-one instance (mu = -2):

  w for the plain target (0,0)       (0, i/pi)
  w for the conjugate target (0,0)   (i/pi, 0)
  psi constant                       i/pi, modulus 1/pi
  metric exponent                    1 (r/2)

Elliptic instance (mu = -1): w = (i/(2 pi)) e_0, psi modulus 1/(2 pi),
metric exponent 2.  The closed w form mu e_col / (2 pi i) was derived
once by hand for the classical model and is pinned here, sign included.

The Gaussian instance at r = 4 is the only two-block one with r/2 > 1,
where the domain labels (k, j) and (j, k) differ; it is what catches a
transposed incidence in the conjugate block.
"""

import re
import tracemalloc
from functools import reduce
from operator import mul

import numpy as np
import pytest

from pelks import kodaira_spencer
from pelks.checks import _METRIC, _ArchContext, run_checks
from pelks.cli import resolve_config
from pelks.config import config_from_dict
from pelks.domains import _SPREAD, HermitianPoint, SiegelPoint, per_sample, petersson_norm, random_point
from pelks.kodaira_spencer import (
    SingularPairing,
    _incidences,
    _row_index,
    assemble_phi,
    closed_form_w,
    cocycle_jacobian,
    domain_coordinates,
    domain_genus,
    matched_vanishing_defect,
    metric_identity_check,
    numeric_cocycle_jacobian,
    psi_constant,
    psi_modulus_closed_form,
    solve_w_vectors,
    symmetry_defect,
    target_values,
)
from pelks.lattices import (
    RiemannForm,
    _alternating_block,
    build_lattice,
    covolume_closed_form,
    embed_labels,
    generator_labels,
    solve_self_dual_mu,
)
from embeddings import gaussian_unitary, matrix_basechange, rational_siegel
from report_digests import arch_fixtures, named_config


def _metric(form, samples, seed):
    """The metric identity on its own stream: `samples` points from
    default_rng(seed), their lattices and their w-vectors."""
    emb = form.emb
    lat = build_lattice(random_point(emb.kind, domain_genus(emb), np.random.default_rng(seed), samples), emb)
    return metric_identity_check(lat, solve_w_vectors(lat, form))


def _instances():
    return [
        (gaussian_unitary(), HermitianPoint([[0.3 + 1.1j]]), -2.0),
        (rational_siegel(1), SiegelPoint([[0.25 + 1.7j]]), -1.0),
        (
            rational_siegel(2),
            SiegelPoint(
                np.array([[0.2 + 1.4j, 0.1 + 0.2j], [0.1 + 0.2j, -0.3 + 1.1j]])
            ),
            -1.0,
        ),
        (matrix_basechange(), HermitianPoint([[0.4 + 0.9j]]), -2.0 * np.eye(2)),
        (
            gaussian_unitary(4),
            HermitianPoint(
                np.array([[0.3 + 1.1j, 0.2 + 0.15j], [-0.1 + 0.25j, -0.4 + 0.9j]])
            ),
            -2.0,
        ),
    ]


def _realify(v):
    v = np.asarray(v, dtype=complex).ravel()
    return np.concatenate([v.real, v.imag])


def antilinear_defect(lattice, form, values, w, trials=8, seed=0):
    """Max deviation of anti(2 pi i E(w, .)) from anti(target) on random v."""
    dim = lattice.complex_dim
    f = lattice.basis_real_inv @ np.asarray(values, dtype=complex)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        # f extended R-linearly, then the antilinear half of both sides
        fv, fiv = _realify(v) @ f, _realify(1j * v) @ f
        ext = form.extension(lattice)
        gv = 2j * np.pi * (_realify(w) @ ext @ _realify(v))
        giv = 2j * np.pi * (_realify(w) @ ext @ _realify(1j * v))
        worst = max(worst, abs(0.5 * (gv + 1j * giv) - 0.5 * (fv + 1j * fiv)))
    return worst


def _target_value(target, label):
    """Target (i, k, conj) read off one label, entry by entry."""
    i, k, conj = target
    return np.conj(label[i, k]) if conj else label[i, k]


def _target_row(emb, target):
    """The row of `target` in the model's targets."""
    return [tuple(t) for t in _incidences(emb)[0]].index(target)


def test_domain_coordinate_order():
    assert domain_coordinates(gaussian_unitary()) == ((0, 0),)
    assert domain_coordinates(gaussian_unitary(4)) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert domain_coordinates(rational_siegel(2)) == ((0, 0), (0, 1), (1, 1))


def test_cocycle_hand_entries_two_block():
    emb = gaussian_unitary()
    jac = cocycle_jacobian(emb)
    # elements (1,0), (i,0), (0,1), (0,i); single domain coordinate
    expected = [
        [[1.0], [1.0]],
        [[1j], [-1j]],
        [[0.0], [0.0]],
        [[0.0], [0.0]],
    ]
    assert np.abs(jac - np.array(expected)).max() < 1e-12


def test_cocycle_hand_entries_classical():
    emb = rational_siegel(2)
    jac = cocycle_jacobian(emb)
    idx = {lab: t for t, lab in enumerate(domain_coordinates(emb))}
    # m-part (1, 0): lambda = (T00, T01)
    m0 = jac[0]
    assert abs(m0[0, idx[(0, 0)]] - 1) < 1e-12
    assert abs(m0[1, idx[(0, 1)]] - 1) < 1e-12
    assert abs(m0[0, idx[(0, 1)]]) < 1e-12
    # m-part (0, 1): lambda = (T01, T11), diagonal slot has no doubling
    m1 = jac[1]
    assert abs(m1[0, idx[(0, 1)]] - 1) < 1e-12
    assert abs(m1[1, idx[(1, 1)]] - 1) < 1e-12
    assert abs(m1[1, idx[(0, 1)]]) < 1e-12
    # n-parts are constant in the point
    assert np.abs(jac[2:]).max() == 0.0


def _cocycle_loop(emb, point, elements, rotate):
    """The coordinate central differences of the embedding, one offset
    point at a time, each validated and embedded on its own: the
    Jacobian at every domain coordinate along the step h = 0.5, or
    h = 0.5i when `rotate`, which also checks holomorphy."""
    labels = domain_coordinates(emb)
    h = 0.5j if rotate else 0.5
    out = np.zeros((len(elements), emb.n * emb.r, len(labels)), dtype=complex)
    for t, (a, b) in enumerate(labels):
        e = np.zeros(point.matrix.shape)
        e[a, b] = 1.0
        if emb.kind == "C":
            e[b, a] = 1.0
        plus = type(point)(point.matrix + h * e)
        minus = type(point)(point.matrix - h * e)
        out[:, :, t] = (embed_labels(emb, plus, elements) - embed_labels(emb, minus, elements)) / (2 * h)
    return out


def test_cocycle_matches_central_differences():
    rng = np.random.default_rng(17)
    for emb, _, _ in _instances():
        ana = cocycle_jacobian(emb)
        for _ in range(5):
            point = random_point(emb.kind, domain_genus(emb), rng)
            for rotate in (False, True):
                assert np.abs(ana - _cocycle_loop(emb, point, generator_labels(emb), rotate)).max() < 1e-12


def test_cocycle_on_random_integer_elements():
    rng = np.random.default_rng(23)
    emb = gaussian_unitary()
    basis = emb.module_basis()
    elements = []
    for _ in range(6):
        coeffs = rng.integers(-4, 5, size=len(basis))
        elements.append(sum(c * b for c, b in zip(coeffs, basis)))
    ana = cocycle_jacobian(emb, elements=elements)
    point = random_point("A", 1, rng)
    for rotate in (False, True):
        assert np.abs(ana - _cocycle_loop(emb, point, elements, rotate)).max() < 1e-12


def test_w_vectors_match_closed_forms():
    # each instance at its self-dual mu and at mu = identity; at the identity
    # the lin and conj w-vectors of (i, k) sum to the image of e_{i, k+r/2}
    # over 2 pi i, the rational trace identity of the two-block model
    for emb, point, mu in _instances():
        lat = build_lattice(point, emb)
        identity = np.eye(emb.n) if np.ndim(mu) else 1.0
        for m in (mu, identity):
            form = RiemannForm(emb, m)
            ws = solve_w_vectors(lat, form)
            assert ws.shape == (len(_incidences(emb)[0]), emb.n * emb.r)
            assert np.abs(ws - closed_form_w(form)).max() < 1e-10


def test_w_hand_values_gaussian():
    emb = gaussian_unitary()
    lat = build_lattice(HermitianPoint([[0.3 + 1.1j]]), emb)
    ws = solve_w_vectors(lat, RiemannForm(emb, -2.0))
    lin = ws[_target_row(emb, (0, 0, 0))]
    conj = ws[_target_row(emb, (0, 0, 1))]
    assert np.abs(lin - np.array([0, 1j / np.pi])).max() < 1e-12
    assert np.abs(conj - np.array([1j / np.pi, 0])).max() < 1e-12


def test_w_hand_value_elliptic():
    emb = rational_siegel(1)
    lat = build_lattice(SiegelPoint([[0.25 + 1.7j]]), emb)
    ws = solve_w_vectors(lat, RiemannForm(emb, -1.0))
    w = ws[_target_row(emb, (0, 0, 0))]
    assert np.abs(w - np.array([1j / (2 * np.pi)])).max() < 1e-12


def test_w_defining_equation_on_random_vectors():
    for emb, point, mu in _instances():
        lat = build_lattice(point, emb)
        form = RiemannForm(emb, mu)
        ws = solve_w_vectors(lat, form)
        for row, target in enumerate(_incidences(emb)[0][:2]):
            values = np.array([_target_value(target, lab) for lab in lat.labels], dtype=complex)
            assert antilinear_defect(lat, form, values, ws[row]) < 1e-10


def test_w_scales_inversely_with_form():
    # doubling mu halves E_mu, so w must double to keep the pairing
    emb = gaussian_unitary()
    lat = build_lattice(HermitianPoint([[0.3 + 1.1j]]), emb)
    row = _target_row(emb, (0, 0, 0))
    w2 = solve_w_vectors(lat, RiemannForm(emb, -2.0))[row]
    w4 = solve_w_vectors(lat, RiemannForm(emb, -4.0))[row]
    assert np.abs(w4 - 2 * w2).max() < 1e-12


def test_singular_pairing_guard(monkeypatch):
    emb = gaussian_unitary()
    lat = build_lattice(HermitianPoint([[0.3 + 1.1j]]), emb)
    form = RiemannForm(emb, -2.0)
    monkeypatch.setattr(kodaira_spencer, "COND_LIMIT", 1.0)
    with pytest.raises(SingularPairing, match="condition"):
        solve_w_vectors(lat, form)


def test_phi_matched_positions_vanish():
    for emb, point, mu in _instances():
        if emb.kind != "A":
            continue
        lat = build_lattice(point, emb)
        ws = solve_w_vectors(lat, RiemannForm(emb, mu))
        assert matched_vanishing_defect(ws, emb) < 1e-12
    with pytest.raises(ValueError, match="two-block"):
        emb = rational_siegel(1)
        lat = build_lattice(SiegelPoint([[0.25 + 1.7j]]), emb)
        matched_vanishing_defect(solve_w_vectors(lat, RiemannForm(emb, -1.0)), emb)


def test_phi_is_symmetric_in_its_fiber_slots():
    # every instance has a scalar mu, so phi(dz_a) has dz_b coefficient
    # equal to the dz_a coefficient of phi(dz_b); the conjugate-family rows
    # of the two-block model take part, so a lost conj incidence shows here
    for emb, point, mu in _instances():
        lat = build_lattice(point, emb)
        ws = solve_w_vectors(lat, RiemannForm(emb, mu))
        phi = assemble_phi(emb, ws)
        assert np.abs(phi).max() > 0.1
        assert symmetry_defect(ws, emb) < 1e-12
        tensor = _phi_dense(emb, phi)
        assert np.abs(tensor - tensor.transpose(1, 0, 2)).max() < 1e-12


def test_phi_is_point_independent():
    rng = np.random.default_rng(41)
    for emb, _, mu in _instances():
        tensors = []
        for _ in range(2):
            lat = build_lattice(random_point(emb.kind, domain_genus(emb), rng), emb)
            tensors.append(assemble_phi(emb, solve_w_vectors(lat, RiemannForm(emb, mu))))
        assert np.abs(tensors[0] - tensors[1]).max() < 1e-10


def test_psi_constant_and_closed_form():
    for emb, point, mu in _instances():
        lat = build_lattice(point, emb)
        form = RiemannForm(emb, mu)
        value, off_block_defect = psi_constant(solve_w_vectors(lat, form), emb)
        assert abs(abs(value) - psi_modulus_closed_form(form)) < 1e-9
        assert off_block_defect < 1e-9


def test_psi_off_block_defect_keeps_a_nan():
    emb, point, mu = _instances()[-1]  # r = 4: four domain coordinates
    ws = solve_w_vectors(build_lattice(point, emb), RiemannForm(emb, mu))
    # the w row of the incidence of fiber 0 at label (1, 0), read at column
    # 0 + r/2: a slot of the block of label (0, 0) at another label, and in
    # no block
    _, fiber, target, label = _incidences(emb)
    e = list(zip(fiber, label)).index((0, domain_coordinates(emb).index((1, 0))))
    ws[target[e], 2] = np.nan
    value, off_block_defect = psi_constant(ws, emb)
    assert np.isfinite(value)
    assert np.isnan(off_block_defect)


def test_psi_hand_value_gaussian():
    emb = gaussian_unitary()
    lat = build_lattice(HermitianPoint([[0.3 + 1.1j]]), emb)
    value, _ = psi_constant(solve_w_vectors(lat, RiemannForm(emb, -2.0)), emb)
    assert abs(value - 1j / np.pi) < 1e-12


def test_phi_chain_memory_at_siegel_rank_32():
    # the w-solve and psi at 20 samples stay within 32 MiB traced; the
    # dense (20, 32, 32, 528) phi tensor was 173 MB
    emb = rational_siegel(32)
    lat = build_lattice(random_point("C", 32, np.random.default_rng(1), 20), emb)
    tracemalloc.start()
    try:
        value, off_block_defect = psi_constant(solve_w_vectors(lat, RiemannForm(emb, -1.0)), emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value.shape == off_block_defect.shape == (20,)
    assert peak < 32 * 2**20


def test_metric_identity_all_instances():
    expected_exponent = {"gauss": 1, "sieg1": 2, "sieg2": 3, "bch": 1, "gauss4": 2}
    for name, (emb, _, mu) in zip(expected_exponent, _instances()):
        ratios, k0 = _metric(RiemannForm(emb, mu), samples=6, seed=3)
        assert k0 == expected_exponent[name]
        assert np.abs(ratios - 1).max() < 1e-10
        assert ratios.shape == (6,)


# The per-item loops that the batched kernels replaced, kept as oracles:
# the batched kernels must reproduce them bit for bit.


def _module_basis_loop(emb):
    out = []
    n = emb.n
    for c in range(emb.r // n):
        for m in emb.matrices:
            x = np.zeros((n, emb.r), dtype=complex)
            x[:, c * n : (c + 1) * n] = m
            out.append(x)
    return out


def _labels_loop(emb):
    """Labels one by one, real [x | 0] and [0 | x] in the classical model."""
    basis = _module_basis_loop(emb)
    if emb.kind == "A":
        return basis
    zero = np.zeros((emb.n, emb.r))
    return [np.hstack([x.real, zero]) for x in basis] + [
        np.hstack([zero, x.real]) for x in basis
    ]


def _embed_loop(emb, point, labels):
    z = point.matrix
    if emb.kind == "A":
        half = emb.r // 2
        top = np.vstack([z, np.eye(half)])
        top_c = np.vstack([z.T, np.eye(half)])
        rows = []
        for label in labels:
            x = np.asarray(label, dtype=complex)
            rows.append(np.hstack([x @ top, x.conj() @ top_c]).ravel())
        return np.stack(rows)
    r = emb.r
    return np.stack([(x[:, :r] @ z + x[:, r:]).ravel() for x in labels])


def _field_trace_loop(z, kind):
    out = z + np.conj(z) if kind == "A" else z
    assert abs(out.imag) <= 1e-9 * max(1.0, abs(out))
    return float(out.real)


def _mu_matrix(mu, n):
    """mu as an n x n complex matrix; a scalar means mu . I_n."""
    return complex(mu) * np.eye(n, dtype=complex) if np.isscalar(mu) else np.asarray(mu, dtype=complex)


def _gram_loop(emb, mu):
    labels = _labels_loop(emb)
    mu_inv = np.linalg.inv(_mu_matrix(mu, emb.n))
    j = _alternating_block(labels[0].shape[1] // 2)
    k = len(labels)
    g = np.empty((k, k))
    for a in range(k):
        left = mu_inv @ labels[a] @ j
        for b in range(k):
            g[a, b] = _field_trace_loop(np.trace(left @ labels[b].conj().T), emb.kind)
    return g


def _trace_covolume_loop(emb):
    basis = _module_basis_loop(emb)
    k = len(basis)
    g = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            g[a, b] = _field_trace_loop(np.trace(basis[a] @ basis[b].conj().T), emb.kind)
    return float(np.exp(0.5 * np.linalg.slogdet(g)[1]))


def _incidence_loop(emb):
    """The index map as triples (fiber coordinate, (i, k, conj) target,
    domain label), the table of the module docstring written out."""
    n, r = emb.n, emb.r
    if emb.kind == "A":
        half = r // 2
        cells = [(i, j, k) for i in range(n) for j in range(half) for k in range(half)]
        lin = [(i * r + j, (i, k, 0), (k, j)) for i, j, k in cells]
        conj = [(i * r + half + b, (i, k, 1), (b, k)) for i, b, k in cells]
        return lin + conj
    return [
        (i * r + j, (i, c, 0), (min(c, j), max(c, j)))
        for i in range(n)
        for j in range(r)
        for c in range(r)
    ]


def _target_loop(emb):
    """The targets of the incidence triples, each once, in table order."""
    return list(dict.fromkeys(target for _, target, _ in _incidence_loop(emb)))


def _cocycle_jacobian_loop(emb, elements):
    """The analytic Jacobian one incidence and one element at a time."""
    labels = domain_coordinates(emb)
    idx = {lab: t for t, lab in enumerate(labels)}
    out = np.zeros((len(elements), emb.n * emb.r, len(labels)), dtype=complex)
    for a, target, lab in _incidence_loop(emb):
        for g, x in enumerate(elements):
            out[g, a, idx[lab]] = _target_value(target, x)
    return out


def _phi_dense(emb, rows):
    """The dense phi tensor (..., nr, nr, labels) scattered from its
    incidence rows, whose [a, b, t] is the dz_b coefficient of the
    dZ_t-component of phi(dz_a); zero off the incidences."""
    _, fiber, _, label = _incidences(emb)
    dims = emb.n * emb.r
    phi = np.zeros(rows.shape[:-2] + (dims, dims, len(domain_coordinates(emb))), dtype=complex)
    # the two index arrays around the slice put the incidence axis first
    phi[..., fiber, :, label] += np.moveaxis(rows, -2, 0)
    return phi


def _phi_loop(emb, ws):
    """phi one incidence at a time, from w-vectors in target row order."""
    labels = domain_coordinates(emb)
    idx = {lab: t for t, lab in enumerate(labels)}
    row = {target: s for s, target in enumerate(_target_loop(emb))}
    dims = emb.n * emb.r
    phi = np.zeros(ws.shape[:-2] + (dims, dims, len(labels)), dtype=complex)
    for a, target, lab in _incidence_loop(emb):
        phi[..., a, :, idx[lab]] += ws[..., row[target], :]
    return phi


def _closed_form_w_loop(emb, mu):
    """The closed-form w-vectors one target and one fiber row at a time."""
    mu = _mu_matrix(mu, emb.n)
    n, r = emb.n, emb.r
    out = []
    for i, k, conj in _target_loop(emb):
        col = k + r // 2 if emb.kind == "A" and not conj else k
        w = np.zeros(n * r, dtype=complex)
        for l in range(n):
            w[l * r + col] = mu[l, i] / (2j * np.pi)
        out.append(w)
    return np.stack(out)


def _w_loop(lattice, form):
    dim = lattice.complex_dim
    k = form.extension(lattice)
    mc = (np.pi * 1j) * (k[:, :dim].T + 1j * k[:, dim:].T)
    m_real = np.vstack([mc.real, mc.imag])
    out = []
    for target in _target_loop(lattice.embedding):
        values = np.array([_target_value(target, lab) for lab in lattice.labels], dtype=complex)
        f = lattice.basis_real_inv @ values
        gamma = 0.5 * (f[:dim] + 1j * f[dim:])
        sol = np.linalg.solve(m_real, np.concatenate([gamma.real, gamma.imag]))
        out.append(sol[:dim] + 1j * sol[dim:])
    return np.stack(out)


def _matched_loop(phi, emb):
    n, r = emb.n, emb.r
    half = r // 2
    worst = 0.0
    for i in range(n):
        for j in range(half):
            for l in range(n):
                for m in range(half):
                    worst = max(worst, np.abs(phi[i * r + j, l * r + m, :]).max())
                    worst = max(worst, np.abs(phi[i * r + j + half, l * r + m + half, :]).max())
    return float(worst)


# The row readers that the w readers replaced, kept as oracles: they read
# phi's incidence rows (`assemble_phi`) through index pairs into those
# rows, which a pad row extends.


def _phi_row_index(emb):
    """(block, off, mirror, matched) index pairs into phi's incidence rows."""
    _, fiber, _, label = _incidences(emb)
    n, r = emb.n, emb.r
    count = len(fiber)
    a, b = np.array(domain_coordinates(emb)).T
    shift = r // 2 if emb.kind == "A" else 0
    step = r * np.arange(n)
    slot = np.full((n * r, len(a)), count)  # the row of (fiber, label); count where empty
    slot[fiber, label] = np.arange(count)
    labels = np.arange(len(a))
    block = (slot[b[:, None, None] + step, labels[:, None, None]], (a + shift)[:, None, None] + step[:, None])
    e, t = np.nonzero(((fiber % r)[:, None] == b) & (label[:, None] != labels))
    off = (e[:, None], (a[t] + shift)[:, None] + step)
    mirror = (slot[:, label].T, fiber[:, None])
    matched = None
    if emb.kind == "A":
        family = shift * ((fiber % r) >= shift)
        cols = (step[:, None] + np.arange(shift)).ravel()
        matched = (np.arange(count)[:, None], family[:, None] + cols)
    return block, off, mirror, matched


def _matched_rows(phi, emb):
    rows, cols = _phi_row_index(emb)[3]
    return float(np.abs(phi[..., rows, cols]).max())


def _symmetry_rows(phi, emb):
    rows, cols = _phi_row_index(emb)[2]
    padded = np.concatenate([phi, np.zeros_like(phi[..., :1, :])], axis=-2)
    return float(np.abs(phi - padded[..., rows, cols]).max())


def _psi_rows(phi, emb):
    """(value, off-block defect) per sample, the product in scalar complex arithmetic."""
    (rows, cols), (off_rows, off_cols) = _phi_row_index(emb)[:2]
    per_label = np.linalg.det(phi[..., rows, cols])
    off = np.abs(phi[..., off_rows, off_cols]).max(axis=(-2, -1), initial=0.0)
    value = np.array([reduce(mul, row, 1.0 + 0j) for row in per_label.reshape(-1, per_label.shape[-1])])
    return value.reshape(per_label.shape[:-1])[()], off[()]


def _oracle_sweep():
    """`_instances()` and two larger ladder shapes, each at its own point
    and mu, at a random point, at the self-dual mu of that point, and at
    mu = 1.7, whose Gram entries are not integers."""
    rng = np.random.default_rng(29)
    cases = [(emb, mu, point) for emb, point, mu in _instances()]
    cases += [(rational_siegel(8), -1.0, None), (matrix_basechange(6), -2.0 * np.eye(2), None)]
    for emb, mu, point in cases:
        for p in (point, random_point(emb.kind, domain_genus(emb), rng)):
            if p is not None:
                yield emb, p, mu
        p = random_point(emb.kind, domain_genus(emb), rng)
        yield emb, p, solve_self_dual_mu(RiemannForm(emb, 1.0), build_lattice(p, emb)).mu
        yield emb, p, 1.7


def test_batched_kernels_equal_their_loops():
    rng = np.random.default_rng(31)
    for emb, point, mu in _oracle_sweep():
        labels = generator_labels(emb)
        width = emb.r if emb.kind == "A" else 2 * emb.r
        assert labels.shape == (2 * emb.n * emb.r, emb.n, width)
        assert np.array_equal(labels, np.stack(_labels_loop(emb)))
        assert np.array_equal(
            embed_labels(emb, point, labels), _embed_loop(emb, point, _labels_loop(emb))
        )
        form = RiemannForm(emb, mu)
        assert np.array_equal(form.gram, _gram_loop(emb, mu))
        assert emb.trace_covolume() == _trace_covolume_loop(emb)
        lat = build_lattice(point, emb)
        ws = solve_w_vectors(lat, form)
        # the solve multiplies by the inverse of the pairing matrix, the
        # loop runs one LU solve per target: equal up to rounding
        assert np.abs(ws - _w_loop(lat, form)).max() <= 1e-13 * np.abs(ws).max()
        # the phi readers on w-vectors and on noise against the dense tensor
        noise = rng.normal(size=ws.shape) + 1j * rng.normal(size=ws.shape)
        for w in (ws, noise):
            tensor = _phi_dense(emb, assemble_phi(emb, w))
            if emb.kind == "A":
                assert matched_vanishing_defect(w, emb) == _matched_loop(tensor, emb)
            swapped = np.abs(tensor - tensor.transpose(1, 0, 2)).max()
            assert symmetry_defect(w, emb) == swapped
            value, off_block_defect = psi_constant(w, emb)
            assert (value, off_block_defect) == _psi_loop(tensor, emb)[::2]


# The per-sample loops that the sample axis replaced, kept as oracles:
# every kernel on a point stack must reproduce them bit for bit.  The
# scalar finishing steps are Python float arithmetic, as they were.


def _point_loop(kind, g, rng):
    """One point per call, drawn as `random_point` drew it sample by sample."""
    if kind == "C":
        X = rng.normal(scale=_SPREAD, size=(g, g))
        A = rng.normal(scale=_SPREAD, size=(g, g))
        return SiegelPoint((X + X.T) / 2 + 1j * (np.eye(g) + A @ A.T))
    H = rng.normal(scale=_SPREAD, size=(g, g)) + 1j * rng.normal(scale=_SPREAD, size=(g, g))
    A = rng.normal(scale=_SPREAD, size=(g, g)) + 1j * rng.normal(scale=_SPREAD, size=(g, g))
    return HermitianPoint((H + H.conj().T) / 2 + 1j * (np.eye(g) + A @ A.conj().T))


def _covolume_loop(lat):
    return float(np.exp(np.linalg.slogdet(lat.basis_real)[1]))


def _det_y_loop(point):
    return float(np.linalg.det(point.Y).real)


def _closed_form_loop(lat, mu):
    emb = lat.embedding
    det_mu = abs(np.linalg.det(_mu_matrix(mu, emb.n)))
    det_y = _det_y_loop(lat.point)
    return det_mu**emb.r * det_y ** (2 * emb.n) if emb.kind == "A" else det_y


def _petersson_loop(point, n):
    det_y = _det_y_loop(point)
    if isinstance(point, SiegelPoint):
        r = point.genus
        return 2.0 ** (r * (r + 1) / 2) * det_y ** ((r + 1) / 2)
    r = 2 * point.genus
    return 2.0 ** (r * r * n / 4) * det_y ** (r * n / 2)


def _psi_loop(phi, emb):
    """(value, modulus, off-block defect), one domain label after the other."""
    r = emb.r
    shift = r // 2 if emb.kind == "A" else 0
    value = 1.0 + 0j
    off = []
    for t, (a, b) in enumerate(domain_coordinates(emb)):
        rows = phi[b::r, a + shift :: r, :]
        value *= np.linalg.det(rows[:, :, t].T)
        off.append(np.abs(np.delete(rows, t, axis=2)).max(initial=0.0))
    return complex(value), float(abs(value)), float(np.max(off))


def _metric_loop(emb, mu, samples, seed):
    """The sampled ratios of the metric identity, one sample at a time."""
    rng = np.random.default_rng(seed)
    k0 = emb.r // 2 if emb.kind == "A" else emb.r + 1
    form = RiemannForm(emb, mu)
    ratios = []
    for _ in range(samples):
        point = _point_loop(emb.kind, domain_genus(emb), rng)
        lat = build_lattice(point, emb)
        _, modulus, _ = _psi_loop(_phi_loop(emb, solve_w_vectors(lat, form)), emb)
        fal = float(np.sqrt(_covolume_loop(lat) / np.pi**lat.complex_dim))
        ratios.append(modulus * _petersson_loop(point, emb.n) / fal**k0)
    return ratios


def _assert_stack_matches_loop(emb, mu, points):
    """Every sampled kernel at the stack of `points` against the same
    kernel one point at a time."""
    stack = type(points[0])(np.stack([p.matrix for p in points]))
    lat = build_lattice(stack, emb)
    singles = [build_lattice(p, emb) for p in points]
    assert np.array_equal(lat.basis_real_inv, np.stack([one.basis_real_inv for one in singles]))
    assert list(lat.covolume()) == [_covolume_loop(one) for one in singles]
    assert list(lat.dual().covolume()) == [_covolume_loop(one.dual()) for one in singles]
    form = RiemannForm(emb, mu)
    assert list(covolume_closed_form(lat, form)) == [_closed_form_loop(one, mu) for one in singles]
    assert list(petersson_norm(stack, emb.n)) == [_petersson_loop(p, emb.n) for p in points]
    ws = solve_w_vectors(lat, form)
    single_ws = [solve_w_vectors(one, form) for one in singles]
    assert np.array_equal(ws, np.stack(single_ws))
    phi = assemble_phi(emb, ws)
    single_phis = [assemble_phi(emb, one) for one in single_ws]
    assert np.array_equal(phi, np.stack(single_phis))
    value, off_block_defect = psi_constant(ws, emb)
    oracle = [_psi_loop(_phi_loop(emb, one), emb) for one in single_ws]
    assert list(value) == [v for v, _, _ in oracle]
    assert list(per_sample(abs, value)) == [m for _, m, _ in oracle]
    assert list(off_block_defect) == [o for _, _, o in oracle]
    elements = generator_labels(emb)
    images = [embed_labels(emb, p, elements) for p in points]
    num = numeric_cocycle_jacobian(emb, stack, elements)
    assert np.array_equal(num, np.stack([image - images[0] for image in images[1:]]))


def _fixture_cases():
    """(emb, mu, samples, seed) of the three archimedean fixtures."""
    for rung in arch_fixtures():
        cfg = config_from_dict(rung.config)
        ctx = _ArchContext(cfg)
        yield ctx.emb, ctx.form.mu, cfg.samples, cfg.seed


def test_sample_axis_equals_the_per_sample_loops():
    cases = [(emb, mu, 3, seed, point) for seed, (emb, point, mu) in enumerate(_oracle_sweep())]
    cases += [(emb, mu, samples, seed, None) for emb, mu, samples, seed in _fixture_cases()]
    for emb, mu, samples, seed, point in cases:
        g = domain_genus(emb)
        stack = random_point(emb.kind, g, np.random.default_rng([seed, 11]), samples)
        rng = np.random.default_rng([seed, 11])
        points = [_point_loop(emb.kind, g, rng) for _ in range(samples)]
        assert np.array_equal(stack.matrix, np.stack([p.matrix for p in points]))
        _assert_stack_matches_loop(emb, mu, points + ([point] if point is not None else []))
        ratios, _ = _metric(RiemannForm(emb, mu), samples=samples, seed=seed)
        assert list(ratios) == _metric_loop(emb, mu, samples, seed)


def test_index_arrays_equal_the_incidence_loops():
    # the cocycle, phi (also on a two-sample stack) and the closed-form w
    # read off the index arrays against the per-incidence loops they replaced
    cases = [(emb, mu, [point]) for emb, point, mu in _oracle_sweep()]
    for emb, mu, _, seed in _fixture_cases():
        stack = random_point(emb.kind, domain_genus(emb), np.random.default_rng(seed), 2)
        cases.append((emb, mu, [stack]))
    for emb, mu, points in cases:
        assert [tuple(t) for t in _incidences(emb)[0]] == _target_loop(emb)
        assert _row_index(emb) is _row_index(emb)
        assert not any(array.flags.writeable for pair in _row_index(emb) for array in pair or ())
        elements = generator_labels(emb)
        assert np.array_equal(cocycle_jacobian(emb), _cocycle_jacobian_loop(emb, elements))
        assert np.array_equal(
            cocycle_jacobian(emb, elements[::-3]), _cocycle_jacobian_loop(emb, elements[::-3])
        )
        form = RiemannForm(emb, mu)
        assert np.array_equal(closed_form_w(form), _closed_form_w_loop(emb, mu))
        for point in points:
            ws = solve_w_vectors(build_lattice(point, emb), form)
            assert np.array_equal(_phi_dense(emb, assemble_phi(emb, ws)), _phi_loop(emb, ws))
        values = target_values(_incidences(emb)[0], elements)
        assert np.array_equal(
            values, [[_target_value(t, x) for t in _target_loop(emb)] for x in elements]
        )


def test_w_readers_equal_the_row_readers():
    # every model of the sweep and the three archimedean fixtures, on one
    # point or a three-point stack, on the w-vectors and on noise
    rng = np.random.default_rng(37)
    cases = [(emb, mu, point) for emb, point, mu in _oracle_sweep()]
    for emb, mu, _, seed in _fixture_cases():
        cases.append((emb, mu, random_point(emb.kind, domain_genus(emb), np.random.default_rng(seed), 3)))
    for emb, mu, point in cases:
        ws = solve_w_vectors(build_lattice(point, emb), RiemannForm(emb, mu))
        noise = rng.normal(size=ws.shape) + 1j * rng.normal(size=ws.shape)
        for w in (ws, noise):
            rows = assemble_phi(emb, w)
            if emb.kind == "A":
                assert matched_vanishing_defect(w, emb) == _matched_rows(rows, emb)
            assert symmetry_defect(w, emb) == _symmetry_rows(rows, emb)
            value, off_block_defect = psi_constant(w, emb)
            expected_value, expected_off = _psi_rows(rows, emb)
            assert np.array_equal(value, expected_value)
            assert np.array_equal(off_block_defect, expected_off)


def test_the_phi_readers_refuse_phi_rows():
    # the readers once took phi's incidence rows; read at the w-vectors'
    # index pairs those would give the wrong slots, so any other shape than
    # the w-vectors' is refused.  With one domain coordinate the rows are
    # the w-vectors themselves.
    refused = 0
    for emb, point, mu in _instances():
        lat = build_lattice(point, emb)
        ws = solve_w_vectors(lat, RiemannForm(emb, mu))
        rows = assemble_phi(emb, ws)
        if len(domain_coordinates(emb)) == 1:
            assert np.array_equal(rows, ws)
            continue
        expected = re.escape(f"expected w-vectors of shape (..., {ws.shape[-2]}, {ws.shape[-1]}), got {rows.shape}")
        readers = [psi_constant, symmetry_defect] + [matched_vanishing_defect] * (emb.kind == "A")
        for reader in readers:
            with pytest.raises(ValueError, match=expected):
                reader(rows, emb)
        with pytest.raises(ValueError, match=expected):
            metric_identity_check(lat, rows)
        with pytest.raises(ValueError, match="expected w-vectors"):
            psi_constant(ws[..., :-1], emb)
        refused += 1
    assert refused == 2  # rational_siegel(2) and gaussian_unitary(4)


def test_the_metric_check_allocates_at_most_twice_its_w_vectors():
    # the metric check gathers psi's blocks straight from the w-vectors:
    # at siegel-r8 with 200 samples its traced peak is 1.2 times their
    # size; widened into phi's incidence rows first, it was 14.5 times.
    # About 0.05 s.
    lat, ws = _ArchContext(config_from_dict(named_config("siegel-r8", samples=200))).read(_METRIC)
    tracemalloc.start()
    try:
        ratios, _ = metric_identity_check(lat, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ratios.shape == (200,)
    assert peak <= 2 * ws.nbytes


def test_cocycle_check_fails_on_a_nonlinear_embedding(monkeypatch):
    # the numeric twin reads the real embedding, so a term quadratic in Z
    # moves its point differences off the analytic Jacobian
    cfg = resolve_config("siegel-C")
    assert run_checks(cfg, only="pipeline.cocycle-jacobian")["checks"][0]["status"] == "pass"

    def bent(emb, point, labels):
        square = point.matrix[..., 0, 0] ** 2  # one per point of the stack
        return embed_labels(emb, point, labels) + 1e-6 * square[..., None, None]

    monkeypatch.setattr(kodaira_spencer, "embed_labels", bent)
    checks = run_checks(cfg, only="pipeline.cocycle-jacobian")["checks"]
    assert [(c["status"], c["detail"]) for c in checks] == [("fail", "")]
    assert checks[0]["computed"]["max_defect"] > 1e-7


def _conj_column_zeroed(real):
    """`real` with every target read unconjugated."""

    def broken(emb):
        targets, fiber, target, label = real(emb)
        return targets * [1, 1, 0], fiber, target, label

    return broken


def _plain_labels_transposed(real):
    """`real` with the plain family scattered to label (j, k) instead of (k, j)."""

    def broken(emb):
        targets, fiber, target, label = real(emb)
        labels = domain_coordinates(emb)
        transpose = np.array([labels.index((j, k)) for k, j in labels])
        plain = targets[target, 2] == 0
        return targets, fiber, target, np.where(plain, transpose[label], label)

    return broken


def _plus(term):
    """A breaker adding 1e-6 term(Z[0, 0]) to every image."""

    def breaker(real):
        def broken(emb, point, labels):
            return real(emb, point, labels) + 1e-6 * term(point.matrix[..., 0, 0])[..., None, None]

        return broken

    return breaker


@pytest.mark.parametrize(
    "attr,breaker,config",
    [
        ("_incidences", _conj_column_zeroed, lambda: resolve_config("unitary-A")),
        ("_incidences", _plain_labels_transposed, lambda: config_from_dict(named_config("gauss-r4"))),
        ("embed_labels", _plus(np.conj), lambda: resolve_config("unitary-A")),
        # Im Z is constant along a real coordinate step: of the central
        # differences, only the rotated one sees this term
        ("embed_labels", _plus(np.imag), lambda: resolve_config("unitary-A")),
    ],
    ids=["conj-column-zeroed", "plain-labels-transposed", "plus-conj-z", "plus-im-z"],
)
def test_cocycle_check_fails_on_a_wrong_index_map_or_embedding(monkeypatch, attr, breaker, config):
    cfg = config()
    assert run_checks(cfg, only="pipeline.cocycle-jacobian")["checks"][0]["status"] == "pass"
    monkeypatch.setattr(kodaira_spencer, attr, breaker(getattr(kodaira_spencer, attr)))
    checks = run_checks(cfg, only="pipeline.cocycle-jacobian")["checks"]
    assert [(c["status"], c["detail"]) for c in checks] == [("fail", "")]
    assert checks[0]["computed"]["max_defect"] > 1e-8
