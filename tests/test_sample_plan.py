"""The sample plan of a verdict against the per-stream path it replaced.

`run_checks` draws the points of every sampled check as one stack, builds
one lattice stack on the streams that read lattices only and, at the
first w read, one on the streams that read w, and solves their w-vectors
once.  The per-stream path stays here as the oracle: `random_point` from
the stream's own generator, then `build_lattice`, then `solve_w_vectors`,
one stream at a time.  The stacks must reproduce it bit for bit.  What a
stream reads is handed out once, so a stack is freed with the last view
of it outside the context.  A stack with one refused sample is refused
whole, and the verdict then takes the per-stream path for every stream
left; so a refusal in one stream must fail the checks that read that
stream, with the message the stream alone raises, and no other check.
`--only` must plan only the streams of the checks that run."""

import weakref

import numpy as np
import pytest

from pelks import checks, kodaira_spencer
from pelks.checks import _BASE, CATALOG, _ArchContext, _describe, run_checks
from pelks.cli import resolve_config
from pelks.config import config_from_dict, with_overrides
from pelks.domains import random_point
from pelks.kodaira_spencer import assemble_phi, domain_genus, solve_w_vectors
from pelks.lattices import build_lattice
from report_digests import arch_fixtures, named_config, workload_configs

ARCH_FIXTURES = [rung.name for rung in arch_fixtures()]


def _rng(cfg, stream):
    return np.random.default_rng(cfg.seed if stream.salt is None else [cfg.seed, stream.salt])


def _stream_points(cfg, emb, stream, count):
    """`count` points of the stream drawn alone, from its own generator."""
    return random_point(cfg.kind, domain_genus(emb), _rng(cfg, stream), count)


def _read_order(ctx):
    """The planned streams, lattice-only and points-only ones first, as
    `run_checks` reads them."""
    return sorted(ctx.slices, key=lambda s: s.reads == "w")


@pytest.mark.parametrize("seed", [0, 7])
def test_the_sample_stack_equals_the_per_stream_path(seed):
    cases = [config_from_dict(cfg | {"seed": seed}) for _, cfg, _ in workload_configs("arch-ladder")]
    cases += [with_overrides(resolve_config(name), seed=seed) for name in ARCH_FIXTURES]
    for cfg in cases:
        ctx = _ArchContext(cfg)
        emb = ctx.emb
        # the base point is drawn alone as one point, with no sample axis
        base = build_lattice(_stream_points(cfg, emb, _BASE, None), emb)
        assert np.array_equal(ctx.base_lattice.point.matrix, base.point.matrix[None])
        assert np.array_equal(ctx.base_lattice.basis_real_inv, base.basis_real_inv[None])
        handed_out = []
        for stream in _read_order(ctx):
            if stream != _BASE:
                handed_out += _compare_read(cfg, ctx, stream)
        # every stream has been read and dropped, so the context holds no stream data
        assert all(ref() is None for ref in handed_out), cfg.name


def _owner(array):
    """A weak reference to the array that owns the memory of `array`."""
    return weakref.ref(array if array.base is None else array.base)


def _compare_read(cfg, ctx, stream):
    """Compare `ctx.read(stream)` with the stream's per-stream path; weak
    references to the arrays it handed out."""
    emb = ctx.emb
    points = _stream_points(cfg, emb, stream, stream.count(cfg))
    if stream.reads == "points":
        got = ctx.read(stream)
        assert np.array_equal(got.matrix, points.matrix), (cfg.name, stream)
        return [_owner(got.matrix)]
    lattices = build_lattice(points, emb)
    arrays = []
    if stream.reads == "lattice":
        got = ctx.read(stream)
    else:
        got, ws = ctx.read(stream)
        expected = solve_w_vectors(lattices, ctx.form)
        assert np.array_equal(ws, expected), (cfg.name, stream)
        assert np.array_equal(assemble_phi(emb, ws), assemble_phi(emb, expected))
        arrays.append(ws)
    assert np.array_equal(got.point.matrix, points.matrix), (cfg.name, stream)
    assert np.array_equal(got.basis_real_inv, lattices.basis_real_inv), (cfg.name, stream)
    assert np.array_equal(got.covolume(), lattices.covolume()), (cfg.name, stream)
    arrays += [got.point.matrix, got.basis_real, got.basis_real_inv]
    return [_owner(array) for array in arrays]


def test_a_stack_is_freed_once_its_streams_are_read():
    # unitary-A solves its mu, so the base point shares the lattice-only stack
    ctx = _ArchContext(resolve_config("unitary-A"))
    assert ctx.form is not None
    covolume = ctx.read(checks._COVOLUME)
    stack = weakref.ref(covolume.basis_real.base)
    del covolume
    ctx.read(checks._DUALITY)
    ctx.read(checks._COCYCLE)
    # before any w stream is read: the base lattice is a copy, and the w
    # streams' lattices are built on their own points
    assert stack() is None


def _fault_in(cfg, stream, fault, monkeypatch):
    """Make the first point of `stream` refuse as `fault` says, wherever
    that point is drawn: alone or in the sample stack."""
    target = _stream_points(cfg, _ArchContext(cfg, ()).emb, stream, 1).matrix[0]
    g = target.shape[-1]
    if fault == "pairing":
        real = kodaira_spencer._pairing_matrix

        def singular(lattice, form):
            m = real(lattice, form)
            m[(lattice.point.matrix == target).all(axis=(-2, -1))] = 0.0
            return m

        monkeypatch.setattr(kodaira_spencer, "_pairing_matrix", singular)
        return
    # Y = -I is no point; a real part of 1e7 leaves Y = I but embeds real-dependently
    bad = -1j * np.eye(g) if fault == "point" else 1e7 * np.ones((g, g)) + 1j * np.eye(g)
    real = checks.random_point

    def faulty(kind, g, rng, count=None):
        points = real(kind, g, rng, count)
        matrix = points.matrix.copy()
        matrix[(matrix == target).all(axis=(-2, -1))] = bad
        return type(points)(matrix)

    monkeypatch.setattr(checks, "random_point", faulty)


def _alone(cfg, stream, form):
    """The detail the stream alone raises, on the per-stream path."""
    emb = _ArchContext(cfg, ()).emb
    try:
        points = checks.random_point(cfg.kind, domain_genus(emb), _rng(cfg, stream), stream.count(cfg))
        if stream.reads != "points":
            lattices = build_lattice(points, emb)
        if stream.reads == "w":
            solve_w_vectors(lattices, form)
    except Exception as exc:
        return _describe(exc)
    return None


@pytest.mark.parametrize("name", ARCH_FIXTURES)
def test_a_refusal_fails_only_the_checks_that_read_its_stream(name, monkeypatch):
    cfg = resolve_config(name)
    clean = {entry["name"]: entry for entry in run_checks(cfg)["checks"]}
    form = _ArchContext(cfg).form
    solved = cfg.archimedean.mu is None
    layers = {"point": ("points", "lattice", "w"), "rank": ("lattice", "w"), "pairing": ("w",)}
    streams = {row.stream for row in CATALOG if row.stream is not None}
    needs_mu = {row.name for row in CATALOG if row.needs == "mu"}
    for fault, reads in layers.items():
        for stream in (s for s in streams if s.reads in reads):
            with monkeypatch.context() as patch:
                _fault_in(cfg, stream, fault, patch)
                detail = _alone(cfg, stream, form)
                report = run_checks(cfg)["checks"]
            assert detail is not None, (fault, stream)
            readers = {row.name for row in CATALOG if row.stream == stream}
            for entry in report:
                where = (name, fault, stream.salt, entry["name"])
                if entry["name"] in readers:
                    assert (entry["status"], entry["detail"]) == ("fail", detail), where
                elif stream == _BASE and solved and entry["name"] in needs_mu:
                    assert entry["status"] == "skip", where
                    assert entry["detail"] == f"no resolved polarization: {detail}", where
                else:
                    assert entry == clean[entry["name"]], where


def test_only_plans_the_streams_of_the_checks_that_run(monkeypatch):
    drawn = []
    real = checks.random_point

    def recording(kind, g, rng, count=None):
        drawn.append(count)
        return real(kind, g, rng, count)

    monkeypatch.setattr(checks, "random_point", recording)
    plans = [
        # explicit mu: the check's own 2-point stream and nothing else
        ("basechange-A", "pipeline.w-closed-form", [[2]]),
        # a solved mu adds the base point it is solved at
        ("unitary-A", "pipeline.w-closed-form", [[2, 1]]),
        ("unitary-A", "arch.covolume-duality", [[20]]),
        ("unitary-A", "pipeline.cocycle-jacobian", [[5]]),
        ("unitary-A", "global.rank-lemma", []),
        ("unitary-A", "local.*", []),
        # every stream: w, then lattice, then points only
        ("unitary-A", "[ap]*", [[2, 3, 2, 20, 1, 20, 20, 5]]),
    ]
    for name, only, expected in plans:
        drawn.clear()
        report = run_checks(resolve_config(name), only=only)
        assert drawn == expected, (name, only)
        assert all(entry["status"] != "fail" for entry in report["checks"]), (name, only)
    # a stack that refuses is drawn once; then each stream is drawn alone as it
    # is read: the base point, then the duality and cocycle streams
    drawn.clear()
    report = run_checks(config_from_dict(named_config("unresolvable-lattice")))
    assert drawn == [[2, 3, 2, 20, 1, 20, 20, 5], [1], [20], [5]]
    rank_deficient = "RankDeficient: embedded generators are real-linearly dependent"
    failed = {entry["name"]: entry["detail"] for entry in report["checks"] if entry["status"] == "fail"}
    assert failed == {"arch.covolume-duality": rank_deficient, "arch.self-dual-mu": rank_deficient}
    status = {entry["name"]: entry["status"] for entry in report["checks"]}
    assert status["pipeline.cocycle-jacobian"] == "pass"
    assert {status[row.name] for row in CATALOG if row.needs == "mu"} == {"skip"}
