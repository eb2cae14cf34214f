"""The invertibility guards against the singular-value tests they replaced.

Four guards decide on the inverse the pipeline needs anyway, by the
Frobenius-norm rule of `lattices.checked_inverse`: the rank of a period
lattice, the singularity of mu and the condition of the w-solve's
pairing matrix go through `checked_inverse` itself, which refuses a
whole stack when one member fails, and the dependence of an order basis
(the closure check) applies the rule in plain Python to its own
Gauss-Jordan inverse.  Each singular-value
test they replaced stays here as an oracle.  On matrices with prescribed
singular values on both sides of each threshold, every site must refuse
whatever its oracle refuses, and accept once the smallest singular value
clears the threshold by the matrix size; NaN, inf and an exactly singular
matrix get the site's own refusal.  The SVD test runs whole reports with
numpy's SVD-based routines disabled; the last test runs the local reports
with the full-row relation builders disabled.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import relation_oracle
from pelks import kodaira_spencer, pel_modules
from pelks.checks import run_checks
from pelks.cli import resolve_config
from pelks.config import config_from_dict
from pelks.domains import HermitianPoint
from pelks.kodaira_spencer import SingularPairing, solve_w_vectors
from pelks.lattices import (
    MU_TOL,
    RANK_TOL,
    OrderEmbedding,
    PeriodLattice,
    RankDeficient,
    RiemannForm,
    build_lattice,
    checked_inverse,
)
from report_digests import digest, workload_configs

ROOT = Path(__file__).resolve().parent.parent
EPS = np.finfo(float).eps


def _singular_values(a):
    return np.linalg.svd(a, compute_uv=False)


# The replaced tests, each as it read at its site.


def _lattice_oracle(b):
    s = _singular_values(b)
    return s.min() < RANK_TOL * max(1.0, s.max())


def _mu_oracle(m):
    s = _singular_values(m)
    return s.min() < MU_TOL * max(1.0, s.max())


def _closure_oracle(cols):
    return np.linalg.matrix_rank(cols) < cols.shape[1]


def _pairing_oracle(m_real):
    s = _singular_values(m_real)
    cond = s.max() / max(s.min(), 1e-300)
    return s.min() <= 0 or cond > kodaira_spencer.COND_LIMIT


# Each site, fed one matrix: True when it refuses with its own refusal.


def _lattice_site(b):
    dim = len(b) // 2
    try:
        PeriodLattice(None, None, b[:, :dim] + 1j * b[:, dim:], None)
    except RankDeficient:
        return True
    return False


def _matrix_units(n):
    """M_n(Z) inside M_n(Q): kind C with r = n, whose forms take an n x n mu."""
    return OrderEmbedding("C", n, n, 1, tuple(np.eye(n * n).reshape(n * n, n, n)))


def _mu_site(m):
    try:
        RiemannForm(_matrix_units(len(m)), m)
    except ValueError as exc:
        assert str(exc) == "mu is singular"
        return True
    return False


# coordinate count of an order basis: (kind, n)
_CLOSURE_SHAPES = {2: ("A", 1), 4: ("C", 2), 8: ("A", 2), 9: ("C", 3)}


def _closure_site(cols):
    """The order basis whose coordinate columns are `cols`: 2n^2 complex
    matrices (kind A) or n^2 real ones (kind C)."""
    size = len(cols)
    kind, n = _CLOSURE_SHAPES[size]
    if kind == "A":
        flat = cols[: n * n].T + 1j * cols[n * n :].T
        r, disc = 2 * n, -4
    else:
        flat = cols.T.astype(complex)
        r, disc = n, 1
    try:
        OrderEmbedding(kind, n, r, disc, tuple(flat.reshape(size, n, n)))
    except ValueError as exc:
        if "rationally dependent" in str(exc):
            return True
        # a random basis is not closed: the check got past the guard
        assert "integer coefficients" in str(exc)
    return False


class _PairingForm:
    """A stand-in form whose extension makes the w-solve's pairing
    matrix equal to a given real matrix M: the solve reads
    M = [Re mc; Im mc] with mc = pi i (K^t[:d] + i K^t[d:])."""

    def __init__(self, m_real):
        dim = len(m_real) // 2
        kt = np.concatenate([m_real[dim:], -m_real[:dim]]) / np.pi
        self.k = kt.T

    def extension(self, lattice):
        return self.k


def _pairing_site(m_real):
    r = len(m_real) // 2  # a Gaussian lattice has complex dimension r
    emb = OrderEmbedding("A", 1, r, -4, ([[1.0]], [[1j]]))
    lat = build_lattice(HermitianPoint(0.1 * np.eye(r // 2) + 1.3j * np.eye(r // 2)), emb)
    try:
        solve_w_vectors(lat, _PairingForm(m_real))
    except SingularPairing:
        return True
    return False


def _with_spectrum(s, rng, complex_=False):
    """U diag(s) V^* for random orthogonal (unitary) U and V."""
    size = len(s)

    def orthogonal():
        g = rng.normal(size=(size, size))
        if complex_:
            g = g + 1j * rng.normal(size=(size, size))
        return np.linalg.qr(g)[0]

    return (orthogonal() * s) @ orthogonal().conj().T


def _rank_limit(top, size):
    """matrix_rank's default tolerance for the 2n^2 real coordinates."""
    return 2 * _CLOSURE_SHAPES[size][1] ** 2 * EPS * top


# (site, its oracle, sizes, the oracle's least accepted s_min as a
# function of (s_max, size), complex matrices)
SITES = {
    "lattice": (_lattice_site, _lattice_oracle, (4, 8, 16), lambda top, _: RANK_TOL * max(1.0, top), False),
    "mu": (_mu_site, _mu_oracle, (2, 3), lambda top, _: MU_TOL * max(1.0, top), True),
    "closure": (_closure_site, _closure_oracle, tuple(_CLOSURE_SHAPES), _rank_limit, False),
    "pairing": (_pairing_site, _pairing_oracle, (4, 8), lambda top, _: top / kodaira_spencer.COND_LIMIT, False),
}


@pytest.mark.parametrize("name", sorted(SITES))
def test_guard_refuses_what_the_singular_values_refuse(name):
    site, oracle, sizes, threshold, complex_ = SITES[name]
    rng = np.random.default_rng(7)
    counts = Counter()  # (oracle refuses, site refuses)
    for size in sizes:
        for top in (1e-3, 1.0, 1e3):
            limit = threshold(top, size)
            factors = (0.0, 0.5, 0.9, 1.1, 2.0, 4.0 * size, 20.0 * size)
            if name == "closure":  # rounding is eps * top, near this threshold
                factors = (0.0, 0.1, 10.0, 4.0 * size, 20.0 * size)
            for factor in factors:
                spectrum = np.geomspace(max(factor * limit, 1e-300), top, size)
                spectrum[0] = factor * limit
                a = _with_spectrum(spectrum, rng, complex_)
                refused, expected = site(a), oracle(a)
                assert refused or not expected, (name, size, top, factor)
                counts[(expected, refused)] += 1
                if factor > size:  # clear of the threshold by the Frobenius slack
                    assert not refused, (name, size, top, factor)
    # both sides of every threshold were reached
    assert counts[(True, True)] > 0 and counts[(False, False)] > 0


@pytest.mark.parametrize("name", sorted(SITES))
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_guard_refuses_nan_inf_and_singular(name):
    site, _, sizes, _, complex_ = SITES[name]
    size = sizes[-1]
    rng = np.random.default_rng(11)
    good = _with_spectrum(np.linspace(1.0, 2.0, size), rng, complex_)
    assert not site(good)
    singular = good.copy()
    singular[:, -1] = singular[:, 0]
    for bad in (np.nan, np.inf, -np.inf):
        broken = good.copy()
        broken[0, -1] = bad
        assert site(broken), (name, bad)
    assert site(singular)
    assert site(np.zeros_like(good))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_checked_inverse_refuses_a_stack_with_one_bad_member():
    # an exactly singular member makes numpy's stacked inverse raise, a NaN
    # member does not; both refuse the stack, and a clean stack is inverted
    # member for member
    rng = np.random.default_rng(5)
    good = [_with_spectrum(np.linspace(1.0, 2.0, 4), rng) for _ in range(3)]
    singular = good[0].copy()
    singular[:, -1] = singular[:, 0]
    nan = good[1].copy()
    nan[0, 0] = np.nan
    for bad in (singular, nan):
        for position in range(len(good) + 1):
            stack = np.stack(good[:position] + [bad] + good[position:])
            with pytest.raises(RankDeficient, match="^refused$"):
                checked_inverse(stack, RANK_TOL, RankDeficient("refused"))
    inv = checked_inverse(np.stack(good), RANK_TOL, RankDeficient("refused"))
    for member, one in zip(inv, good):
        assert np.array_equal(member, np.linalg.inv(one))


def _ladder_configs():
    shapes = ("gauss-r4", "basechange-r4", "siegel-r4")
    return [(cfg, only) for rung, cfg, only in workload_configs("arch-ladder") if rung in shapes]


def test_reports_need_no_singular_value_decomposition(monkeypatch):
    cases = [(resolve_config(name), None) for name in ("unitary-A", "basechange-A", "siegel-C", "quaternion-C")]
    cases += [(config_from_dict(cfg), only) for cfg, only in _ladder_configs()]
    assert len(cases) == 7

    def strip(report):
        report.pop("timing")
        return report

    before = [strip(run_checks(cfg, only=only)) for cfg, only in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a singular value decomposition ran")

    for name in ("svd", "lstsq", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, refuse)
    after = [strip(run_checks(cfg, only=only)) for cfg, only in cases]
    assert after == before
    assert all(report["summary"]["fail"] == 0 for report in after)


def test_local_reports_never_build_the_full_relation_rows(monkeypatch):
    # the 35 local configs pinned in local_report_digests.txt keep their
    # digests with every full-row builder refusing to run, and every system
    # the verdicts build is presolved: it has fewer columns and rows than
    # the full system, and no row is empty or reaches past its columns
    pinned = dict(line.split() for line in (ROOT / "tests" / "local_report_digests.txt").read_text().splitlines())
    configs = {
        f"{name}/{rung}/{cfg.get('seed', 0)}": (cfg, only)
        for name in ("local-ladder", "edge")
        for rung, cfg, only in workload_configs(name)
        if f"{name}/{rung}/{cfg.get('seed', 0)}" in pinned
    }
    assert sorted(configs) == sorted(pinned) and len(configs) == 35

    def refuse(*args, **kwargs):
        raise AssertionError("the full relation rows were generated")

    full_rows, full_swaps = relation_oracle._relation_rows, relation_oracle._swap_rows
    for name in ("_relation_rows", "_swap_rows", "_relation_system"):
        monkeypatch.setattr(relation_oracle, name, refuse)
    built = []
    generators = pel_modules.relation_generators

    def presolved(descriptor, signature, letters):
        system = generators(descriptor, signature, letters)
        built.append(((descriptor, signature, letters), system))
        return system

    monkeypatch.setattr(pel_modules, "relation_generators", presolved)
    pel_modules._local_system.cache_clear()
    try:
        digests = {key: digest(cfg, only) for key, (cfg, only) in configs.items()}
    finally:
        pel_modules._local_system.cache_clear()
    assert digests == pinned
    assert len(built) > 20
    for (descriptor, signature, letters), (columns, rows, swaps) in built:
        ncols, full = full_rows(descriptor, signature, letters)
        assert all(row and all(0 <= t < len(columns) for t, _ in row) for row in rows + swaps)
        assert len(columns) < ncols
        assert len(rows) + len(swaps) < len(full) + len(full_swaps(descriptor, signature))
