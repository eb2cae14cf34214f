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
it.  `lattices.checked_inverse` applies that rule with numpy; the order
basis applies it in plain Python (`lattices.OrderEmbedding`), so the
embedding that every verdict with archimedean data builds runs no numpy.

A sampled check reports the worst per-sample defect through `_worst`,
which keeps a NaN, so a NaN defect fails; `--report` writes it as the
`NaN` token of Python's json, which `json.loads` reads back.

Report shape (schema_version 5): name, config digest, seed, summary
counts, the checks sorted by name, and a timing block (the total and
the seconds per check name) that callers must ignore when comparing runs
for determinism.
"""

import re
import time
from collections.abc import Callable
from fnmatch import fnmatch
from functools import cached_property, partial
from itertools import combinations
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from .config import build_embedding, config_digest, matrix_to_lists
from .cyclic_algebra import discriminant_report
from .domains import per_sample, random_point
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


class _ArchContext:
    """Embedding and resolved polarization shared across arch checks.

    The embedding is built at once, so a bad order basis is a config
    error whatever `only` selects; the base lattice (at a seeded point),
    the trace form and the polarization's Riemann form are built on
    first use, once each.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.emb = build_embedding(cfg)
        self.form_error = None  # what the solve of mu raised, if it did

    @cached_property
    def base_lattice(self):
        point = random_point(self.cfg.kind, domain_genus(self.emb), default_rng([self.cfg.seed, 97]))
        return build_lattice(point, self.emb)

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

    def sample_points(self, count, salt):
        """A stack of `count` domain points from the stream (seed, salt)."""
        rng = default_rng([self.cfg.seed, salt])
        return random_point(self.cfg.kind, domain_genus(self.emb), rng, count)

    def lattices(self, count, salt):
        """The period lattice stack at `sample_points(count, salt)`."""
        return build_lattice(self.sample_points(count, salt), self.emb)

    def phis(self, count, salt):
        """The stack of phi's incidence rows assembled on `lattices(count, salt)`."""
        return assemble_phi(self.emb, solve_w_vectors(self.lattices(count, salt), self.form))


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
    lat = ctx.lattices(cfg.samples, 11)
    defect = _worst(np.abs(lat.covolume() / covolume_closed_form(lat, ctx.form) - 1.0))
    return {"max_ratio_defect": defect}, {"max_ratio_defect": 0.0}


def _check_duality(cfg, ctx):
    lat = ctx.lattices(cfg.samples, 13)
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
    points = ctx.sample_points(max(2, cfg.samples // 4), 19)
    # domain coordinate (a, b) reads Z[a, b] in both models
    rows, cols = np.array(domain_coordinates(emb)).T
    coords = points.matrix[..., rows, cols]
    predicted = np.einsum("gat,st->sga", ana, coords[1:] - coords[0])
    defect = _worst(np.abs(numeric_cocycle_jacobian(emb, points, elements) - predicted))
    return {"max_defect": defect}, {"max_defect": 0.0}


def _check_w_closed_form(cfg, ctx):
    ws = solve_w_vectors(ctx.lattices(2, 23), ctx.form)  # (sample, target, nr)
    computed = {"max_defect": _worst(np.abs(ws - closed_form_w(ctx.form))), "targets": ws.shape[-2]}
    return computed, {"max_defect": 0.0}


def _check_phi_independence(cfg, ctx):
    phis = ctx.phis(3, 29)  # (sample, incidence, nr)
    computed = {
        "max_pairwise_defect": _worst([np.abs(a - b).max() for a, b in combinations(phis, 2)]),
        "symmetry_defect": symmetry_defect(phis, ctx.emb),
    }
    return computed, {"max_pairwise_defect": 0.0, "symmetry_defect": 0.0}


def _check_psi(cfg, ctx):
    closed = psi_modulus_closed_form(ctx.form)
    phis = ctx.phis(2, 31)
    value, off_block_defect = psi_constant(phis, ctx.emb)
    computed = {
        "modulus_defect": _worst(np.abs(per_sample(abs, value) - closed)),
        "off_block_defect": _worst(off_block_defect),
        "matched_defect": matched_vanishing_defect(phis, ctx.emb) if cfg.kind == "A" else 0.0,
        "closed_form_modulus": closed,
    }
    return computed, {"modulus_defect": 0.0, "off_block_defect": 0.0, "matched_defect": 0.0}


def _check_metric(cfg, ctx):
    ratios, k0 = metric_identity_check(ctx.form, samples=cfg.samples, seed=cfg.seed)
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
    """

    name: str
    provenance: str
    tolerance: float | str
    needs: str | None
    check: Callable
    explanation: str


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
         "covolume of the order."),
    _Row("arch.lattice-covolume", "closed_form", EPSILON, "mu", _check_covolume,
         "Euclidean covolume of the period lattice against the closed form "
         "|det mu|^r det(Y)^{2n} (two-block model) or det Y (classical), over "
         "sampled domain points."),
    _Row("arch.covolume-duality", "trivial", EPSILON, "emb", _check_duality,
         "The Euclidean dual lattice has reciprocal covolume; the product "
         "must be 1 at every sampled point."),
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
         "rounding, as the map is affine and holomorphic."),
    # closed_form for kind A; the symplectic sign is derived (see _expand)
    _Row("pipeline.w-closed-form", "closed_form", W_TOL, "mu", _check_w_closed_form,
         "The numerically solved w-vectors (antilinear matching through the "
         "polarization form) against the closed form mu e / 2 pi i."),
    _Row("pipeline.phi-z-independence", "derived", PHI_TOL, "mu", _check_phi_independence,
         "The assembled phi tensor must not depend on the domain point; it "
         "is recomputed from scratch at independently sampled points.  Each "
         "sample must also be symmetric in its two fiber slots, as the "
         "Kodaira-Spencer map factors through Sym^2 omega; this ties the "
         "conjugate-family rows of phi to the plain ones."),
    _Row("pipeline.psi-constant", "closed_form", PSI_TOL, "mu", _check_psi,
         "Block determinants of the quadratic contraction: product modulus "
         "against (|det mu| / (2 pi)^n)^{blocks}, off-block and matched-slot "
         "entries against zero."),
    _Row("pipeline.metric-identity", "closed_form", METRIC_TOL, "mu", _check_metric,
         "The headline comparison: |psi| times the canonical domain norm "
         "equals the lattice norm to the power r/2 (two-block) or r+1 "
         "(classical), sampled over random domain points."),
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


def _expand(cfg, ctx):
    """(row, check thunk) for every catalog row of one config, place rows
    renamed per place."""
    for row in CATALOG:
        if row.needs == "place":
            for place in cfg.local_places:
                named = row._replace(name=f"{row.name}.q{place.residue_size}")
                yield named, partial(row.check, cfg, place)
        elif row.name == "pipeline.w-closed-form" and cfg.kind != "A":
            yield row._replace(provenance="derived"), partial(row.check, cfg, ctx)
        else:
            yield row, partial(row.check, cfg, ctx)


def _prerequisite(needs, ctx):
    if needs in ("emb", "mu") and ctx.emb is None:
        raise Skip("no archimedean data")
    if needs == "mu" and ctx.form is None:
        raise Skip(f"no resolved polarization: {_describe(ctx.form_error)}")


def run_checks(cfg, only=None):
    """Run the catalog for one instance and assemble the report dict."""
    t0 = time.perf_counter()
    ctx = _ArchContext(cfg)
    checks, seconds = [], {}
    for row, check in _expand(cfg, ctx):
        if only is not None and not fnmatch(row.name, only):
            continue
        start = time.perf_counter()
        computed = expected = None
        try:
            _prerequisite(row.needs, ctx)
            computed, expected = check()
            status, detail = verdict(computed, expected, row.tolerance), ""
        except Skip as skip:
            status, detail = "skip", str(skip)
        except Exception as exc:  # a broken check must not abort the others
            status, detail = "fail", _describe(exc)
        seconds[row.name] = seconds.get(row.name, 0.0) + time.perf_counter() - start
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
    return {
        "schema_version": SCHEMA_VERSION,
        "name": cfg.name,
        "config_digest": config_digest(cfg),
        "seed": cfg.seed,
        "samples": cfg.samples,
        "summary": summary | {"total": len(checks)},
        "checks": checks,
        "timing": {"total_seconds": time.perf_counter() - t0, "checks": dict(sorted(seconds.items()))},
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
