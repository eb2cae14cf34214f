"""The check catalog: every recomputable constant, one named check each.

A run never aborts on a failing check; each one reports pass, fail, or
skip with the computed and expected values side by side.  Provenance
tags say where the expected value comes from: "closed_form" for a
formula recomputed independently, "derived" for a structural fact
validated through a second route, "trivial" for identities that are
definitional once the objects exist.

A check only computes: it returns (computed, expected), raises Skip
when it does not apply, and any other exception fails it.  The local
audits (quotient_structure, image_exponent, discriminant_report,
global_rank_lemma) return that pair themselves; their rows add only
the place and the skip rules.  The verdict
rule, the one pass/fail decision in the package: a check passes when
every expected key is present in `computed`, each float expected value
lies strictly within the row's tolerance, and every other value (every
value, on an `exact` row) is equal.  Every catalog tolerance is a
module constant here and is shown in each report entry's `tolerance`.
Before it applies, three thresholds of `lattices` decide
arch.self-dual-mu and arch.polarization-degree: INTEGRALITY_TOL (a Gram
matrix is integral), HERMITIAN_TOL and POSITIVITY_TOL (the associated
form is Hermitian and positive).  Four invertibility guards refuse
before any check computes: RANK_TOL (a period lattice, `RankDeficient`),
MU_TOL (a singular mu), the rank tolerance of an order basis (a config
error) and `kodaira_spencer.COND_LIMIT` (the w-solve's pairing,
`SingularPairing`).  Each is decided from the Frobenius norms of the
matrix and of its inverse, which bound the singular values from the
refusing side: it refuses whatever a singular-value test at the same
threshold refuses, and some matrices within a factor of their size of
it.  `lattices.checked_inverse` applies that rule with numpy, to a whole
stack at once; the order basis applies it in plain Python
(`lattices.OrderEmbedding`), so the embedding that every verdict with
archimedean data builds runs no numpy.

A sampled check names its stream (`_Stream`): how many points it reads,
the salt of their seeded generator and the deepest layer it reads of
them.  One verdict draws every stream its selected checks name with one
`random_point` call (`_ArchContext`), and builds two lattice stacks: one
`build_lattice` on the streams that read lattices only, at once, and one
on the streams that read w, at the first w read, with one
`solve_w_vectors`.  numpy's kernels act matrix by matrix, so each check
reads the same numbers it would read from its stream alone.  A stack is
refused whole when one sample refuses; the verdict then replays: it
builds each stream it has yet to read alone, as a plan of that one
stream, so a refusal fails only the checks whose stream holds it, with
the message that stream alone raises.  A sampled check reports the
worst per-sample defect through `_worst`, which keeps a NaN, so a NaN
defect fails; `--report` writes it as the `NaN` token of Python's json,
which `json.loads` reads back.

Report shape (schema_version 5): name, config digest, seed, summary
counts, the checks sorted by name, and a timing block (the total, the
seconds spent building the sample stacks, and the seconds per check name
beyond that) that callers must ignore when comparing runs for
determinism.
"""

import re
import time
from collections.abc import Callable
from fnmatch import fnmatch
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from .config import build_embedding, config_digest, matrix_to_lists
from .cyclic_algebra import discriminant_report
from .domains import per_sample, random_point, sample_count
from .kodaira_spencer import (
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
)
from .lattices import (
    RiemannForm,
    build_lattice,
    covolume_closed_form,
    dual_index_oracle,
    generator_labels,
    polarization_degree,
    solve_self_dual_mu,
)
from .pel_modules import global_rank_lemma, image_exponent, quotient_structure

SCHEMA_VERSION = 5

EPSILON = 1e-9
# |mu|^{nr} against the trace-form covolume of the order: one float
# comparison, reported as the bool `covolume_matched`
COVOLUME_TOL = 1e-6
COCYCLE_TOL = 1e-12
W_TOL = 1e-10
PHI_TOL = 1e-10
PSI_TOL = 1e-9
METRIC_TOL = 1e-8


class Skip(Exception):
    """The check does not apply to this instance; the message says why."""


def _worst(defects):
    """The largest of the per-sample defects (an array or a list); NaN if
    any of them is NaN."""
    return float(np.max(defects))


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


class _Stream(NamedTuple):
    """The sample points of one sampled check: `count(cfg)` of them,
    drawn from default_rng([seed, salt]), or from default_rng(seed) when
    `salt` is None, and the deepest layer the check reads of them:
    "points", "lattice" or "w" (the w-vectors on their lattices)."""

    count: Callable
    salt: int | None
    reads: str


_LAYERS = ("w", "lattice", "points")  # the order of the streams in the point stack
_BASE = _Stream(lambda cfg: 1, 97, "lattice")  # the base point, where mu is solved
_COVOLUME = _Stream(lambda cfg: cfg.samples, 11, "lattice")
_DUALITY = _Stream(lambda cfg: cfg.samples, 13, "lattice")
_COCYCLE = _Stream(lambda cfg: max(2, cfg.samples // 4), 19, "points")
_W = _Stream(lambda cfg: 2, 23, "w")
_PHI = _Stream(lambda cfg: 3, 29, "w")
_PSI = _Stream(lambda cfg: 2, 31, "w")
_METRIC = _Stream(lambda cfg: cfg.samples, None, "w")


def _layout(streams, cfg):
    """The slice of each stream in a point stack of `streams`: w, then
    lattice, then points only, so that the streams of a layer are adjacent."""
    slices, start = {}, 0
    for stream in sorted(dict.fromkeys(streams), key=lambda s: _LAYERS.index(s.reads)):
        count = max(0, stream.count(cfg))  # an empty stream is refused on read
        slices[stream] = slice(start, start + count)
        start += count
    return slices


def _span(plan, reads):
    """The slice of a plan's point stack that its streams reading `reads`
    span; None when it has none."""
    slices = [sl for s, sl in plan.items() if s.reads == reads]
    return slice(slices[0].start, slices[-1].stop) if slices else None


def _cut(take, plan, reads, at=0):
    """Each stream of a plan that reads `reads` -> `take` of its slice of
    a stack that starts at `at` of the plan's point stack."""
    return {s: take(slice(sl.start - at, sl.stop - at)) for s, sl in plan.items() if s.reads == reads}


class _ArchContext:
    """Embedding, resolved polarization and sample stacks shared across
    arch checks.

    The embedding is built at once, so a bad order basis is a config
    error whatever `only` selects.  The sample plan (`slices`) holds the
    streams that `rows` name, and the base point when a mu is solved for
    them, laid out by `_layout`.  On first use every stream is drawn
    from its own generator into one point stack, and one lattice stack
    is built on the streams that read lattices only; the streams that
    read w keep a copy of their points, and their first read builds
    their lattices and solves their w-vectors, in one stack each.  The
    context holds what each stream reads until `read` hands it out, and
    then forgets it: a stack is freed with the last view of it that a
    stream or a running check holds.

    When building a stack raises (a point, a lattice or a pairing
    refused), `replay` is set and the unread streams are forgotten: from
    then on each stream is built by the same builder as a plan of its
    own, the path it would take alone, so a refusal fails only the
    checks whose stream holds it.  The trace form and the polarization's
    Riemann form are built on first use, once each; `samples_seconds` is
    the time spent building the stacks.
    """

    def __init__(self, cfg, rows=None):
        self.cfg = cfg
        self.emb = build_embedding(cfg)
        self.form_error = None  # what the solve of mu raised, if it did
        self.samples_seconds = 0.0
        self.replay = False
        self.slices = {}  # planned stream -> its slice of the point stack
        self._held = None  # planned stream -> what it reads, until it is read; None until drawn
        self._w_points = None  # the w streams' points, until their first read
        if self.emb is None:
            return
        rows = CATALOG if rows is None else rows
        streams = [row.stream for row in rows if row.stream is not None]
        if cfg.archimedean.mu is None and any(row.needs == "mu" for row in rows):
            streams.append(_BASE)
        self.slices = _layout(streams, cfg)

    def _build(self, plan):
        """(held, w points) of a plan, a `_layout` of streams: every stream
        is drawn from its own generator into one point stack, and one
        lattice stack is built on the streams that read lattices only;
        `held` maps each of those streams and each points-only stream to
        its cut of the stacks, and the w streams' points are copied out."""
        start = time.perf_counter()
        seed = self.cfg.seed
        drawn = {s: sl.stop - sl.start for s, sl in plan.items() if sl.stop > sl.start}
        rngs = [default_rng(seed if s.salt is None else [seed, s.salt]) for s in drawn]
        points = random_point(self.cfg.kind, domain_genus(self.emb), rngs, list(drawn.values()))
        lattice, w = _span(plan, "lattice"), _span(plan, "w")
        w_points = None if w is None else points.take(w, copy=True)
        held = _cut(points.take, plan, "points")
        if lattice is not None:
            held |= _cut(build_lattice(points.take(lattice), self.emb).take, plan, "lattice", lattice.start)
        self.samples_seconds += time.perf_counter() - start
        return held, w_points

    def _solve(self, plan, points):
        """Each w stream of a plan -> (its lattice stack, the w-vectors on
        them), cut from one lattice stack built on the w streams' points
        and one solve for `form`."""
        start = time.perf_counter()
        lattices = build_lattice(points, self.emb)
        ws = solve_w_vectors(lattices, self.form)
        self.samples_seconds += time.perf_counter() - start
        return _cut(lambda rows: (lattices.take(rows), ws[rows]), plan, "w")

    def read(self, stream):
        """What a planned stream reads, as `stream.reads` names it: its
        point stack, its lattice stack, or (its lattice stack, the
        w-vectors on them), cut from the sample stacks, or built alone on
        replay.  It is handed out once: the context forgets it.  A stream
        of no points is refused here, before anything is drawn."""
        sample_count(stream.count(self.cfg))
        if not self.replay:
            try:
                if self._held is None:
                    self._held, self._w_points = self._build(self.slices)
                if stream.reads == "w" and self._w_points is not None:
                    self._held |= self._solve(self.slices, self._w_points)
                    self._w_points = None
            except Exception:  # a sample refused: every stream is built alone from now on
                self.replay = True
                self._held, self._w_points = {}, None
            else:
                return self._held.pop(stream)
        plan = _layout([stream], self.cfg)
        held, points = self._build(plan)
        return self._solve(plan, points)[stream] if stream.reads == "w" else held[stream]

    def phis(self, stream):
        """The stack of phi's incidence rows assembled on the w-vectors of `read(stream)`."""
        return assemble_phi(self.emb, self.read(stream)[1])

    @cached_property
    def base_lattice(self):
        """The lattice at the base point, copied out, as it outlives the stacks."""
        return self.read(_BASE).take(slice(None), copy=True)

    @cached_property
    def trace_form(self):
        """The basic form, mu = 1: where the solve starts, and the trace
        form of the kind-A n = 1 degree check."""
        return RiemannForm(self.emb, 1.0)

    @cached_property
    def form(self):
        """The Riemann form of the explicit mu, which raises when that mu
        is singular, or of the mu solved on the base lattice; None, with
        the exception in `form_error`, when the solve raised."""
        explicit = self.cfg.archimedean.mu
        if explicit is not None:
            return RiemannForm(self.emb, explicit)
        try:
            return solve_self_dual_mu(self.trace_form, self.base_lattice)
        except Exception as exc:  # fails arch.self-dual-mu, skips its dependents
            self.form_error = exc
            return None


def _check_quotient(cfg, place):
    return quotient_structure(place, cfg.signature, cfg.kind)


def _check_exponent(cfg, place):
    return image_exponent(place, cfg.signature, cfg.kind)


def _check_discriminant(cfg, place):
    return discriminant_report(place)


def _check_rank_lemma(cfg, ctx):
    if cfg.archimedean is None:
        raise Skip("needs an imaginary quadratic field (no archimedean data)")
    if cfg.kind != "A":
        raise Skip("the rank lemma is stated over an imaginary quadratic field")
    p, q = cfg.signature
    return global_rank_lemma(p, q, cfg.archimedean.discriminant)


def _check_self_dual_mu(cfg, ctx):
    form = ctx.form
    if form is None:
        raise ctx.form_error
    gram_det = abs(float(np.linalg.det(form.gram)))
    if cfg.archimedean.mu is None:  # solved on the base lattice
        trace_covolume = ctx.emb.trace_covolume()
        det_mu_power = abs(complex(form.mu[0, 0])) ** (cfg.n * cfg.r)  # mu = c I_n
        computed = {
            "mu": matrix_to_lists(form.mu),
            "gram_det": gram_det,
            "trace_covolume": trace_covolume,
            "covolume_matched": abs(det_mu_power / trace_covolume - 1.0) < COVOLUME_TOL,
        }
        return computed, {"gram_det": 1.0, "covolume_matched": True}
    computed = {
        "mu": matrix_to_lists(form.mu),
        "integrality_defect": form.integrality_defect(),
        "positive": form.is_positive(ctx.base_lattice),
        "gram_det": gram_det,
    }
    return computed, {"integrality_defect": 0.0, "positive": True, "gram_det": 1.0}


def _check_covolume(cfg, ctx):
    lat = ctx.read(_COVOLUME)
    defect = _worst(np.abs(lat.covolume() / covolume_closed_form(lat, ctx.form) - 1.0))
    return {"max_ratio_defect": defect}, {"max_ratio_defect": 0.0}


def _check_duality(cfg, ctx):
    lat = ctx.read(_DUALITY)
    defect = _worst(np.abs(lat.covolume() * lat.dual().covolume() - 1.0))
    return {"max_product_defect": defect}, {"max_product_defect": 0.0}


def _check_polarization_degree(cfg, ctx):
    computed = {"degree": polarization_degree(ctx.form), "dual_index": dual_index_oracle(ctx.form)}
    expected = {"degree": 1, "dual_index": 1}
    if cfg.kind == "A" and cfg.n == 1:
        d_abs = abs(cfg.archimedean.discriminant)
        computed["trace_form_degree"] = polarization_degree(ctx.trace_form)
        computed["trace_form_dual_index"] = dual_index_oracle(ctx.trace_form)
        expected["trace_form_degree"] = d_abs ** (cfg.r // 2)
        expected["trace_form_dual_index"] = d_abs**cfg.r
    return computed, expected


def _check_cocycle(cfg, ctx):
    emb = ctx.emb
    elements = generator_labels(emb)
    if cfg.kind == "A":
        rng = default_rng([cfg.seed, 17])
        basis = emb.module_basis()
        extra = [
            sum(c * b for c, b in zip(rng.integers(-3, 4, size=len(basis)), basis))
            for _ in range(3)
        ]
        elements = np.concatenate([elements, extra])
    ana = cocycle_jacobian(emb, elements=elements)
    points = ctx.read(_COCYCLE)
    # domain coordinate (a, b) reads Z[a, b] in both models
    rows, cols = np.array(domain_coordinates(emb)).T
    coords = points.matrix[..., rows, cols]
    predicted = np.einsum("gat,st->sga", ana, coords[1:] - coords[0])
    defect = _worst(np.abs(numeric_cocycle_jacobian(emb, points, elements) - predicted))
    return {"max_defect": defect}, {"max_defect": 0.0}


def _check_w_closed_form(cfg, ctx):
    _, ws = ctx.read(_W)  # (sample, target, nr)
    computed = {"max_defect": _worst(np.abs(ws - closed_form_w(ctx.form))), "targets": ws.shape[-2]}
    return computed, {"max_defect": 0.0}


def _check_phi_independence(cfg, ctx):
    phis = ctx.phis(_PHI)  # (sample, incidence, nr)
    computed = {
        "max_pairwise_defect": _worst([np.abs(a - b).max() for a, b in combinations(phis, 2)]),
        "symmetry_defect": symmetry_defect(phis, ctx.emb),
    }
    return computed, {"max_pairwise_defect": 0.0, "symmetry_defect": 0.0}


def _check_psi(cfg, ctx):
    closed = psi_modulus_closed_form(ctx.form)
    phis = ctx.phis(_PSI)
    value, off_block_defect = psi_constant(phis, ctx.emb)
    computed = {
        "modulus_defect": _worst(np.abs(per_sample(abs, value) - closed)),
        "off_block_defect": _worst(off_block_defect),
        "matched_defect": matched_vanishing_defect(phis, ctx.emb) if cfg.kind == "A" else 0.0,
        "closed_form_modulus": closed,
    }
    return computed, {"modulus_defect": 0.0, "off_block_defect": 0.0, "matched_defect": 0.0}


def _check_metric(cfg, ctx):
    ratios, k0 = metric_identity_check(*ctx.read(_METRIC))
    computed = {
        "max_defect": _worst(np.abs(ratios - 1)),
        "exponent": k0,
        "first_ratio": float(ratios[0]),
    }
    return computed, {"max_defect": 0.0, "first_ratio": 1.0}


class _Row(NamedTuple):
    """One catalog row; `check` returns (computed, expected).

    `needs` is "place" (one row per finite place, named .q{q}, with
    `check(cfg, place)`), or else `check(cfg, ctx)` with the prerequisite
    None, "emb" (archimedean data) or "mu" (a resolved polarization).
    `stream` names the sample points the check reads, if any.
    """

    name: str
    provenance: str
    tolerance: float | str
    needs: str | None
    check: Callable
    explanation: str
    stream: _Stream | None = None


CATALOG = (
    _Row("local.quotient-structure", "derived", "exact", "place", _check_quotient,
         "Quotient of the tensor module by the twisted-action and shift "
         "relations at one finite place: recomputes the surviving basis "
         "classes, the free rank, and the shift-twist profile, and compares "
         "against the predicted structure."),
    _Row("local.image-exponent", "closed_form", "exact", "place", _check_exponent,
         "Valuation of the image ideal after symmetrization at one finite "
         "place: elementary divisors of the relation matrix over the series "
         "ring, summed, against multiplier times block count."),
    _Row("local.discriminant", "closed_form", "exact", "place", _check_discriminant,
         "Discriminant exponent of the maximal order, recomputed from the "
         "reduced trace Gram matrix and compared with n(n-1) in the division "
         "case, 0 in the split case."),
    _Row("global.rank-lemma", "derived", "exact", None, _check_rank_lemma,
         "Free rank and torsion of the global tensor construction over the "
         "quadratic order: rank 2pq, torsion annihilated by the discriminant "
         "and of the predicted order, and the normalizing element exists "
         "exactly in balanced signature."),
    _Row("arch.self-dual-mu", "derived", EPSILON, "emb", _check_self_dual_mu,
         "Finds (or verifies) the scalar polarization parameter making the "
         "Riemann form unimodular on the period lattice, with the sign pinned "
         "by positivity and the modulus cross-checked against the trace-form "
         "covolume of the order.", _BASE),
    _Row("arch.lattice-covolume", "closed_form", EPSILON, "mu", _check_covolume,
         "Euclidean covolume of the period lattice against the closed form "
         "|det mu|^r det(Y)^{2n} (two-block model) or det Y (classical), over "
         "sampled domain points.", _COVOLUME),
    _Row("arch.covolume-duality", "trivial", EPSILON, "emb", _check_duality,
         "The Euclidean dual lattice has reciprocal covolume; the product "
         "must be 1 at every sampled point.", _DUALITY),
    _Row("arch.polarization-degree", "derived", "exact", "mu", _check_polarization_degree,
         "Degree of the resolved polarization (expected 1, i.e. principal), "
         "via the integer determinant of the Gram matrix with the elementary"
         "-divisor index as an independent oracle; over a rank-one quadratic "
         "order the basic trace form must have degree |discriminant|^(r/2) "
         "and dual index |discriminant|^r."),
    _Row("pipeline.cocycle-jacobian", "derived", COCYCLE_TOL, "emb", _check_cocycle,
         "Analytic Jacobian of the embedding coordinates against the "
         "actual embedding: between sampled domain points Z_0 and Z_s the "
         "images must move by the Jacobian applied to Z_s - Z_0, up to "
         "rounding, as the map is affine and holomorphic.", _COCYCLE),
    # closed_form for kind A; the symplectic sign is derived (see _expand)
    _Row("pipeline.w-closed-form", "closed_form", W_TOL, "mu", _check_w_closed_form,
         "The numerically solved w-vectors (antilinear matching through the "
         "polarization form) against the closed form mu e / 2 pi i.", _W),
    _Row("pipeline.phi-z-independence", "derived", PHI_TOL, "mu", _check_phi_independence,
         "The assembled phi tensor must not depend on the domain point; it "
         "is recomputed from scratch at independently sampled points.  Each "
         "sample must also be symmetric in its two fiber slots, as the "
         "Kodaira-Spencer map factors through Sym^2 omega; this ties the "
         "conjugate-family rows of phi to the plain ones.", _PHI),
    _Row("pipeline.psi-constant", "closed_form", PSI_TOL, "mu", _check_psi,
         "Block determinants of the quadratic contraction: product modulus "
         "against (|det mu| / (2 pi)^n)^{blocks}, off-block and matched-slot "
         "entries against zero.", _PSI),
    _Row("pipeline.metric-identity", "closed_form", METRIC_TOL, "mu", _check_metric,
         "The headline comparison: |psi| times the canonical domain norm "
         "equals the lattice norm to the power r/2 (two-block) or r+1 "
         "(classical), sampled over random domain points.", _METRIC),
)

EXPLANATIONS = {row.name: row.explanation for row in CATALOG}


def verdict(computed, expected, tolerance):
    """The verdict rule: "pass" or "fail" for one check's (computed, expected)."""

    def agrees(got, want):
        if isinstance(want, float) and tolerance != "exact":
            return abs(got - want) < tolerance
        return got == want

    ok = all(key in computed and agrees(computed[key], want) for key, want in expected.items())
    return "pass" if ok else "fail"


def _expand(cfg):
    """(row, place) for every catalog row of one config: a place row once
    per place, renamed per place, every other row once, with None."""
    for row in CATALOG:
        if row.needs == "place":
            for place in cfg.local_places:
                yield row._replace(name=f"{row.name}.q{place.residue_size}"), place
        elif row.name == "pipeline.w-closed-form" and cfg.kind != "A":
            yield row._replace(provenance="derived"), None
        else:
            yield row, None


def _prerequisite(needs, ctx):
    if needs in ("emb", "mu") and ctx.emb is None:
        raise Skip("no archimedean data")
    if needs == "mu" and ctx.form is None:
        raise Skip(f"no resolved polarization: {_describe(ctx.form_error)}")


def run_checks(cfg, only=None):
    """Run the catalog for one instance and assemble the report dict."""
    t0 = time.perf_counter()
    rows = [(row, place) for row, place in _expand(cfg) if only is None or fnmatch(row.name, only)]
    ctx = _ArchContext(cfg, [row for row, _ in rows])
    checks, seconds = [], {}
    for row, place in rows:
        start, shared = time.perf_counter(), ctx.samples_seconds
        computed = expected = None
        try:
            _prerequisite(row.needs, ctx)
            computed, expected = row.check(cfg, ctx if place is None else place)
            status, detail = verdict(computed, expected, row.tolerance), ""
        except Skip as skip:
            status, detail = "skip", str(skip)
        except Exception as exc:  # a broken check must not abort the others
            status, detail = "fail", _describe(exc)
        spent = time.perf_counter() - start - (ctx.samples_seconds - shared)
        seconds[row.name] = seconds.get(row.name, 0.0) + spent
        checks.append(
            {
                "name": row.name,
                "status": status,
                "provenance": row.provenance,
                "tolerance": row.tolerance,
                "computed": computed,
                "expected": expected,
                "detail": detail,
            }
        )
    checks.sort(key=lambda res: res["name"])
    summary = {s: sum(1 for res in checks if res["status"] == s) for s in ("pass", "fail", "skip")}
    timing = {
        "total_seconds": time.perf_counter() - t0,
        "samples_seconds": ctx.samples_seconds,
        "checks": dict(sorted(seconds.items())),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "name": cfg.name,
        "config_digest": config_digest(cfg),
        "seed": cfg.seed,
        "samples": cfg.samples,
        "summary": summary | {"total": len(checks)},
        "checks": checks,
        "timing": timing,
    }


def explain(name):
    """Explanation text for a check name; a place row also answers to its
    per-place name, the row name with a .q{q} suffix."""
    if name in EXPLANATIONS:
        return EXPLANATIONS[name]
    place = re.fullmatch(r"(.+)\.q[0-9]+", name)
    if place and any(row.needs == "place" and row.name == place[1] for row in CATALOG):
        return EXPLANATIONS[place[1]]
    return None
