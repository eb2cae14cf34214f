"""The check catalog: every recomputable constant, one named check each.

A run never aborts on a failing check; each one reports pass, fail, or
skip with the computed and expected values side by side.  Provenance
tags say where the expected value comes from: "closed_form" for a
formula recomputed independently, "derived" for a structural fact
validated through a second route, "trivial" for identities that are
definitional once the objects exist.

Every tolerance a check compares against is a module constant here and
is shown in each report entry's `tolerance`.

Report shape (schema_version 3): name, config digest, seed, summary
counts, the checks sorted by name, and a timing block that callers
must ignore when comparing runs for determinism.
"""

import time
from fnmatch import fnmatch
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from .config import build_embedding, config_digest, explicit_mu
from .cyclic_algebra import discriminant_report
from .domains import random_point
from .kodaira_spencer import (
    assemble_phi,
    closed_form_w,
    cocycle_jacobian,
    coordinate_targets,
    matched_vanishing_defect,
    metric_identity_check,
    numeric_cocycle_jacobian,
    psi_constant,
    psi_modulus_closed_form,
    solve_w_vectors,
)
from .lattices import (
    RiemannForm,
    SelfDualMu,
    build_lattice,
    covolume_closed_form,
    dual_index_oracle,
    generator_labels,
    polarization_degree,
    solve_self_dual_mu,
)
from .pel_modules import global_rank_lemma, image_exponent, quotient_structure

SCHEMA_VERSION = 3

EPSILON = 1e-9
COCYCLE_TOL = 1e-12
W_TOL = 1e-10
PHI_TOL = 1e-10
PSI_TOL = 1e-9
METRIC_TOL = 1e-8


class _Polarization(NamedTuple):
    mu: np.ndarray | None  # None when the solve failed
    solved: SelfDualMu | None  # None for an explicit mu
    error: str


class _ArchContext:
    """Embedding and resolved polarization shared across arch checks.

    The embedding is built at once, so a bad order basis is a config
    error whatever `only` selects; the base lattice (at a seeded point),
    mu and its Riemann form are built on first use, once each.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.emb = build_embedding(cfg)

    @cached_property
    def base_lattice(self):
        point = random_point(self.cfg.kind, self.genus(), default_rng([self.cfg.seed, 97]))
        return build_lattice(point, self.emb)

    @cached_property
    def polarization(self):
        """The explicit mu, or the one solved on the base lattice."""
        explicit = explicit_mu(self.cfg)
        if explicit is not None:
            return _Polarization(explicit, None, "")
        try:
            solved = solve_self_dual_mu(self.base_lattice, tol=EPSILON)
        except Exception as exc:  # as in run_checks: fail arch.self-dual-mu, skip its dependents
            return _Polarization(None, None, f"{type(exc).__name__}: {exc}")
        return _Polarization(solved.matrix(self.cfg.n), solved, "")

    @property
    def mu(self):
        return self.polarization.mu

    @cached_property
    def form(self):
        return RiemannForm(self.emb, self.mu)

    def genus(self):
        return self.cfg.r // 2 if self.cfg.kind == "A" else self.cfg.r

    def sample_points(self, count, salt):
        if count < 1:
            raise ValueError(f"need at least one sample point, got {count}")
        rng = default_rng([self.cfg.seed, salt])
        return [random_point(self.cfg.kind, self.genus(), rng) for _ in range(count)]


def _skip(reason):
    return "skip", None, None, reason


def _check_quotient(cfg, place):
    qs = quotient_structure(place, cfg.signature, cfg.kind)
    computed = {
        "free_rank": qs.free_rank,
        "violations": [str(v) for v in qs.violations],
    }
    expected = {"free_rank": qs.expected_free_rank, "violations": []}
    ok = qs.consistent and qs.free_rank == qs.expected_free_rank
    return ("pass" if ok else "fail"), computed, expected, ""


def _check_exponent(cfg, place):
    rep = image_exponent(place, cfg.signature, cfg.kind)
    computed = {
        "exponent": rep.exponent,
        "dim": rep.dim,
        "multiplier": rep.multiplier,
        "violations": [str(v) for v in rep.violations],
    }
    expected = {"exponent": rep.expected, "violations": []}
    return ("pass" if rep.consistent else "fail"), computed, expected, ""


def _check_discriminant(cfg, place):
    rep = discriminant_report(place)
    closed = cfg.n * (cfg.n - 1) if rep.is_division else 0
    computed = {
        "disc_exponent": rep.disc_exponent,
        "gram_exponent": rep.gram_exponent,
        "multiplier": rep.multiplier,
    }
    expected = {
        "disc_exponent": closed,
        "gram_exponent": closed,
        "multiplier": 1 if rep.is_division else 0,
    }
    ok = (
        rep.consistent
        and rep.disc_exponent == closed
        and rep.multiplier == expected["multiplier"]
    )
    return ("pass" if ok else "fail"), computed, expected, ""


def _check_rank_lemma(cfg):
    if cfg.archimedean is None:
        return _skip("needs an imaginary quadratic field (no archimedean data)")
    if cfg.kind != "A":
        return _skip("the rank lemma is stated over an imaginary quadratic field")
    p, q = cfg.signature
    rep = global_rank_lemma(p, q, cfg.archimedean.discriminant)
    computed = {
        "free_rank": rep.free_rank,
        "torsion_annihilated": rep.torsion_annihilated,
        "normalizer_exists": rep.normalizer_exists,
    }
    expected = {
        "free_rank": rep.expected_free_rank,
        "torsion_annihilated": True,
        "normalizer_exists": rep.expected_normalizer,
    }
    return ("pass" if rep.consistent else "fail"), computed, expected, ""


def _mu_to_lists(mu):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(mu, dtype=complex)]


def _check_self_dual_mu(cfg, ctx):
    mu, sd, error = ctx.polarization
    if mu is None:
        return "fail", {"error": error}, {"unimodular": True}, error
    if sd is not None:
        computed = {
            "mu": _mu_to_lists(mu),
            "gram_det": sd.gram_det,
            "trace_covolume": sd.trace_covolume,
            "covolume_matched": sd.covolume_matched,
        }
        expected = {"gram_det": 1.0, "covolume_matched": True}
        ok = abs(sd.gram_det - 1.0) < EPSILON and sd.covolume_matched
        return ("pass" if ok else "fail"), computed, expected, ""
    form = ctx.form
    defect = form.integrality_defect()
    positive = form.is_positive(ctx.base_lattice)
    gdet = abs(float(np.linalg.det(form.gram)))
    computed = {
        "mu": _mu_to_lists(mu),
        "integrality_defect": defect,
        "positive": positive,
        "gram_det": gdet,
    }
    expected = {"integrality_defect": 0.0, "positive": True, "gram_det": 1.0}
    ok = defect < EPSILON and positive and abs(gdet - 1.0) < EPSILON
    return ("pass" if ok else "fail"), computed, expected, ""


def _check_covolume(cfg, ctx):
    worst = 0.0
    for point in ctx.sample_points(cfg.samples, 11):
        lat = build_lattice(point, ctx.emb)
        predicted = covolume_closed_form(lat, ctx.mu)
        worst = max(worst, abs(lat.covolume() / predicted - 1.0))
    computed = {"max_ratio_defect": worst}
    expected = {"max_ratio_defect": 0.0}
    return ("pass" if worst < EPSILON else "fail"), computed, expected, ""


def _check_duality(cfg, ctx):
    worst = 0.0
    for point in ctx.sample_points(cfg.samples, 13):
        lat = build_lattice(point, ctx.emb)
        worst = max(worst, abs(lat.covolume() * lat.dual().covolume() - 1.0))
    return (
        "pass" if worst < EPSILON else "fail",
        {"max_product_defect": worst},
        {"max_product_defect": 0.0},
        "",
    )


def _check_polarization_degree(cfg, ctx):
    deg = polarization_degree(ctx.form)
    index = dual_index_oracle(ctx.form)
    computed = {"degree": deg, "dual_index": index}
    expected = {"degree": 1, "dual_index": 1}
    ok = deg == 1 and index == 1
    if cfg.kind == "A" and cfg.n == 1:
        d_abs = abs(cfg.archimedean.discriminant)
        trace_form = RiemannForm(ctx.emb, 1.0)
        trace_deg = polarization_degree(trace_form)
        trace_index = dual_index_oracle(trace_form)
        computed["trace_form_degree"] = trace_deg
        computed["trace_form_dual_index"] = trace_index
        expected["trace_form_degree"] = d_abs ** (cfg.r // 2)
        expected["trace_form_dual_index"] = d_abs**cfg.r
        ok = (
            ok
            and trace_deg == expected["trace_form_degree"]
            and trace_index == expected["trace_form_dual_index"]
        )
    return ("pass" if ok else "fail"), computed, expected, ""


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
    worst = 0.0
    for point in ctx.sample_points(max(2, cfg.samples // 4), 19):
        for rotate in (False, True):
            num = numeric_cocycle_jacobian(emb, point, elements=elements, rotate=rotate)
            worst = max(worst, float(np.abs(ana.tensor - num.tensor).max()))
    return (
        "pass" if worst < COCYCLE_TOL else "fail",
        {"max_defect": worst},
        {"max_defect": 0.0},
        "",
    )


def _check_w_closed_form(cfg, ctx):
    worst = 0.0
    for point in ctx.sample_points(2, 23):
        lat = build_lattice(point, ctx.emb)
        ws = solve_w_vectors(lat, ctx.form)
        for target, w in ws.items():
            predicted = closed_form_w(ctx.emb, ctx.mu, target)
            worst = max(worst, float(np.abs(w - predicted).max()))
    return (
        "pass" if worst < W_TOL else "fail",
        {"max_defect": worst, "targets": len(coordinate_targets(ctx.emb))},
        {"max_defect": 0.0},
        "",
    )


def _check_phi_independence(cfg, ctx):
    tensors = []
    for point in ctx.sample_points(3, 29):
        lat = build_lattice(point, ctx.emb)
        phi = assemble_phi(ctx.emb, solve_w_vectors(lat, ctx.form))
        tensors.append(phi.tensor)
    worst = 0.0
    for a in range(len(tensors)):
        for b in range(a + 1, len(tensors)):
            worst = max(worst, float(np.abs(tensors[a] - tensors[b]).max()))
    return (
        "pass" if worst < PHI_TOL else "fail",
        {"max_pairwise_defect": worst},
        {"max_pairwise_defect": 0.0},
        "",
    )


def _check_psi(cfg, ctx):
    closed = psi_modulus_closed_form(ctx.emb, ctx.mu)
    worst = 0.0
    off = 0.0
    matched = 0.0
    for point in ctx.sample_points(2, 31):
        lat = build_lattice(point, ctx.emb)
        phi = assemble_phi(ctx.emb, solve_w_vectors(lat, ctx.form))
        psi = psi_constant(phi, ctx.emb)
        worst = max(worst, abs(psi.modulus - closed))
        off = max(off, psi.off_block_defect)
        if cfg.kind == "A":
            matched = max(matched, matched_vanishing_defect(phi))
    computed = {
        "modulus_defect": worst,
        "off_block_defect": off,
        "matched_defect": matched,
        "closed_form_modulus": closed,
    }
    expected = {"modulus_defect": 0.0, "off_block_defect": 0.0, "matched_defect": 0.0}
    ok = worst < PSI_TOL and off < PSI_TOL and matched < PSI_TOL
    return ("pass" if ok else "fail"), computed, expected, ""


def _check_metric(cfg, ctx):
    report = metric_identity_check(ctx.emb, ctx.mu, samples=cfg.samples, seed=cfg.seed)
    computed = {
        "max_defect": report.max_defect,
        "exponent": report.exponent,
        "first_ratio": report.ratios[0],
    }
    expected = {"max_defect": 0.0, "first_ratio": 1.0}
    return (
        "pass" if report.max_defect < METRIC_TOL else "fail",
        computed,
        expected,
        "",
    )


def build_specs(cfg, ctx):
    """The catalog rows (name, provenance, tolerance, prerequisite, check).

    The prerequisite is None, "emb" (archimedean data) or "mu" (a resolved
    polarization); run_checks skips a row whose prerequisite is missing.
    `check` takes no arguments and returns (status, computed, expected,
    detail).
    """
    specs = []
    for place in cfg.local_places:
        q = place.residue_size
        for name, provenance, check in (
            (f"local.quotient-structure.q{q}", "derived", _check_quotient),
            (f"local.image-exponent.q{q}", "closed_form", _check_exponent),
            (f"local.discriminant.q{q}", "closed_form", _check_discriminant),
        ):
            specs.append((name, provenance, "exact", None, partial(check, cfg, place)))
    w_provenance = "closed_form" if cfg.kind == "A" else "derived"
    specs.append(("global.rank-lemma", "derived", "exact", None, partial(_check_rank_lemma, cfg)))
    for name, provenance, tolerance, needs, check in (
        ("arch.self-dual-mu", "derived", EPSILON, "emb", _check_self_dual_mu),
        ("arch.lattice-covolume", "closed_form", EPSILON, "mu", _check_covolume),
        ("arch.covolume-duality", "trivial", EPSILON, "emb", _check_duality),
        ("arch.polarization-degree", "derived", "exact", "mu", _check_polarization_degree),
        ("pipeline.cocycle-jacobian", "derived", COCYCLE_TOL, "emb", _check_cocycle),
        ("pipeline.w-closed-form", w_provenance, W_TOL, "mu", _check_w_closed_form),
        ("pipeline.phi-z-independence", "derived", PHI_TOL, "mu", _check_phi_independence),
        ("pipeline.psi-constant", "closed_form", PSI_TOL, "mu", _check_psi),
        ("pipeline.metric-identity", "closed_form", METRIC_TOL, "mu", _check_metric),
    ):
        specs.append((name, provenance, tolerance, needs, partial(check, cfg, ctx)))
    return specs


def run_checks(cfg, only=None):
    """Run the catalog for one instance and assemble the report dict."""
    t0 = time.perf_counter()
    ctx = _ArchContext(cfg)
    checks = []
    for name, provenance, tolerance, needs, check in build_specs(cfg, ctx):
        if only is not None and not fnmatch(name, only):
            continue
        if needs and ctx.emb is None:
            outcome = _skip("no archimedean data")
        elif needs == "mu" and ctx.mu is None:
            outcome = _skip(f"no resolved polarization: {ctx.polarization.error}")
        else:
            try:
                outcome = check()
            except Exception as exc:  # a broken check must not abort the others
                outcome = "fail", None, None, f"{type(exc).__name__}: {exc}"
        status, computed, expected, detail = outcome
        checks.append(
            {
                "name": name,
                "status": status,
                "provenance": provenance,
                "tolerance": tolerance,
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
        "timing": {"total_seconds": time.perf_counter() - t0},
    }


EXPLANATIONS = {
    "local.quotient-structure": (
        "Quotient of the tensor module by the twisted-action and shift "
        "relations at one finite place: recomputes the surviving basis "
        "classes, the free rank, and the shift-twist profile, and compares "
        "against the predicted structure."
    ),
    "local.image-exponent": (
        "Valuation of the image ideal after symmetrization at one finite "
        "place: elementary divisors of the relation matrix over the series "
        "ring, summed, against multiplier times block count."
    ),
    "local.discriminant": (
        "Discriminant exponent of the maximal order, recomputed from the "
        "reduced trace Gram matrix and compared with n(n-1) in the division "
        "case, 0 in the split case."
    ),
    "global.rank-lemma": (
        "Free rank and torsion of the global tensor construction over the "
        "quadratic order: rank 2pq, torsion annihilated by the discriminant, "
        "and the normalizing element exists exactly in balanced signature."
    ),
    "arch.self-dual-mu": (
        "Finds (or verifies) the scalar polarization parameter making the "
        "Riemann form unimodular on the period lattice, with the sign pinned "
        "by positivity and the modulus cross-checked against the trace-form "
        "covolume of the order."
    ),
    "arch.lattice-covolume": (
        "Euclidean covolume of the period lattice against the closed form "
        "|det mu|^r det(Y)^{2n} (two-block model) or det Y (classical), over "
        "sampled domain points."
    ),
    "arch.covolume-duality": (
        "The Euclidean dual lattice has reciprocal covolume; the product "
        "must be 1 at every sampled point."
    ),
    "arch.polarization-degree": (
        "Degree of the resolved polarization (expected 1, i.e. principal), "
        "via the integer determinant of the Gram matrix with the elementary"
        "-divisor index as an independent oracle; over a rank-one quadratic "
        "order the basic trace form must have degree |discriminant|^(r/2) "
        "and dual index |discriminant|^r."
    ),
    "pipeline.cocycle-jacobian": (
        "Analytic Jacobian of the embedding coordinates against central "
        "differences through the actual embedding, in two independent "
        "complex directions; the map is affine so agreement is exact up to "
        "rounding."
    ),
    "pipeline.w-closed-form": (
        "The numerically solved w-vectors (antilinear matching through the "
        "polarization form) against the closed form mu e / 2 pi i."
    ),
    "pipeline.phi-z-independence": (
        "The assembled phi tensor must not depend on the domain point; it "
        "is recomputed from scratch at independently sampled points."
    ),
    "pipeline.psi-constant": (
        "Block determinants of the quadratic contraction: product modulus "
        "against (|det mu| / (2 pi)^n)^{blocks}, off-block and matched-slot "
        "entries against zero."
    ),
    "pipeline.metric-identity": (
        "The headline comparison: |psi| times the canonical domain norm "
        "equals the lattice norm to the power r/2 (two-block) or r+1 "
        "(classical), sampled over random domain points."
    ),
}


def explain(name):
    """Explanation text for a check name, tolerating the .q{q} suffix."""
    if name in EXPLANATIONS:
        return EXPLANATIONS[name]
    parts = name.rsplit(".", 1)
    if len(parts) == 2 and parts[0] in EXPLANATIONS:
        return EXPLANATIONS[parts[0]]
    return None
