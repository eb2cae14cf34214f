"""Closed-form oracle for benchmark verdicts.

The oracle never calls pelks.  From a config alone it lists the checks
the catalog must report, the status each must have, and the values the
paper's closed forms give:

- image exponent = multiplier x (r^2/4 unitary, r(r+1)/2 symplectic),
  multiplier 1 at a division place and 0 at a split one;
- quotient free rank 2pq (unitary) or r^2 (symplectic);
- discriminant exponent n(n-1) at a division place, 0 otherwise;
- rank-lemma free rank 2pq, a normalizer exactly when p = q;
- polarization degree 1, and trace-form degree |D|^{r/2} with dual
  index |D|^r for the rank-one quadratic order;
- metric exponent k0 = r/2 (unitary) or r+1 (symplectic);
- numeric defects below the tolerances the package documents.

A verdict is judged on two levels.  A *value* error means a computed
constant contradicts its closed form (or the check crashed).  A
*status* error means the check's own pass/fail/skip disagrees with the
oracle although every computed value is right, i.e. the check compares
against a wrong expectation.  Both make the verdict wrong.  A status
error listed in KNOWN_WRONG_STATUS is kept apart as a *known* error: it
still makes the verdict wrong, but it is a defect pelks has today, not
news.
"""

from dataclasses import dataclass, field
from fnmatch import fnmatch

DEFAULT_EPSILON = 1e-9

# Tolerances stated for the archimedean pipeline checks.
PIPELINE_TOL = {
    "pipeline.cocycle-jacobian": 1e-12,
    "pipeline.w-closed-form": 1e-10,
    "pipeline.phi-z-independence": 1e-10,
    "pipeline.psi-constant": 1e-9,
    "pipeline.metric-identity": 1e-8,
}

ARCH_CHECKS = (
    "arch.self-dual-mu",
    "arch.lattice-covolume",
    "arch.covolume-duality",
    "arch.polarization-degree",
)

# Wrong statuses pelks gives at the seed: (config name, check, reported status).
# The Gaussian polarization-degree check expects the rank-one trace-form
# degree |D| at every r, but computes |D|^{r/2}; the fix belongs in checks.py.
KNOWN_WRONG_STATUS = frozenset(
    (f"gauss-r{r}", "arch.polarization-degree", "fail") for r in (4, 6, 8)
)


@dataclass(frozen=True)
class Below:
    """A computed defect that must be smaller than `tol`."""

    tol: float


@dataclass
class Judgement:
    value_errors: list = field(default_factory=list)
    status_errors: list = field(default_factory=list)
    known_errors: list = field(default_factory=list)

    @property
    def wrong(self):
        return bool(self.value_errors or self.status_errors or self.known_errors)

    @property
    def unexpected(self):
        """Wrong in a way that KNOWN_WRONG_STATUS does not list."""
        return bool(self.value_errors or self.status_errors)

    def reasons(self):
        return self.value_errors + self.status_errors + [f"{e} (known)" for e in self.known_errors]


def _division_place(cfg, place):
    return cfg["n"] > 1 and not place.get("split", False)


def _epsilon(cfg):
    return (cfg.get("tolerances") or {}).get("epsilon", DEFAULT_EPSILON)


def expected_checks(cfg, only=None):
    """Map check name -> (status, {field: expected value or Below}) for a config."""
    kind, n, r = cfg["type"], cfg["n"], cfg["r"]
    p, q = cfg["signature"]
    arch = cfg.get("archimedean")
    out = {}
    for place in cfg.get("local_places", []):
        qq = place["residue_size"]
        mult = 1 if _division_place(cfg, place) else 0
        dim = r * r // 4 if kind == "A" else r * (r + 1) // 2
        free = 2 * p * q if kind == "A" else r * r
        out[f"local.quotient-structure.q{qq}"] = (
            "pass",
            {"free_rank": free, "violations": []},
        )
        out[f"local.image-exponent.q{qq}"] = (
            "pass",
            {"exponent": mult * dim, "dim": dim, "multiplier": mult, "violations": []},
        )
        disc = n * (n - 1) if mult else 0
        out[f"local.discriminant.q{qq}"] = (
            "pass",
            {"disc_exponent": disc, "gram_exponent": disc, "multiplier": mult},
        )
    if arch is not None and kind == "A":
        out["global.rank-lemma"] = (
            "pass",
            {"free_rank": 2 * p * q, "torsion_annihilated": True, "normalizer_exists": p == q},
        )
    else:
        out["global.rank-lemma"] = ("skip", {})
    if arch is None:
        for name in ARCH_CHECKS + tuple(PIPELINE_TOL):
            out[name] = ("skip", {})
    else:
        eps = _epsilon(cfg)
        if arch["mu_mode"] == "explicit":
            mu_values = {"integrality_defect": Below(eps), "positive": True, "gram_det_defect": Below(eps)}
        else:
            mu_values = {"gram_det_defect": Below(eps), "covolume_matched": True}
        out["arch.self-dual-mu"] = ("pass", mu_values)
        out["arch.lattice-covolume"] = ("pass", {"max_ratio_defect": Below(eps)})
        out["arch.covolume-duality"] = ("pass", {"max_product_defect": Below(eps)})
        degree = {"degree": 1, "dual_index": 1}
        if kind == "A" and n == 1:
            d_abs = abs(arch["discriminant"])
            degree["trace_form_degree"] = d_abs ** (r // 2)
            degree["trace_form_dual_index"] = d_abs**r
        out["arch.polarization-degree"] = ("pass", degree)
        out["pipeline.cocycle-jacobian"] = (
            "pass",
            {"max_defect": Below(PIPELINE_TOL["pipeline.cocycle-jacobian"])},
        )
        out["pipeline.w-closed-form"] = (
            "pass",
            {"max_defect": Below(PIPELINE_TOL["pipeline.w-closed-form"])},
        )
        out["pipeline.phi-z-independence"] = (
            "pass",
            {"max_pairwise_defect": Below(PIPELINE_TOL["pipeline.phi-z-independence"])},
        )
        psi_tol = PIPELINE_TOL["pipeline.psi-constant"]
        out["pipeline.psi-constant"] = (
            "pass",
            {
                "modulus_defect": Below(psi_tol),
                "off_block_defect": Below(psi_tol),
                "matched_defect": Below(psi_tol),
            },
        )
        k0 = r // 2 if kind == "A" else r + 1
        out["pipeline.metric-identity"] = (
            "pass",
            {"exponent": k0, "max_defect": Below(PIPELINE_TOL["pipeline.metric-identity"])},
        )
    if only is not None:
        out = {name: exp for name, exp in out.items() if fnmatch(name, only)}
    return out


def _computed_fields(computed):
    """Computed values, with the self-dual Gram determinant turned into a defect."""
    values = dict(computed)
    if "gram_det" in values:
        values["gram_det_defect"] = abs(values["gram_det"] - 1.0)
    return values


def _matches(value, expected):
    if isinstance(expected, Below):
        return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < expected.tol
    if isinstance(expected, bool):
        return value is expected
    return value == expected and not isinstance(value, bool)


def judge(cfg, only, report):
    """Compare one report (timing removed) with the oracle."""
    verdict = Judgement()

    def wrong_status(name, got, want):
        errors = verdict.known_errors if (cfg.get("name"), name, got) in KNOWN_WRONG_STATUS else verdict.status_errors
        errors.append(f"{name}: status {got}, oracle expects {want}")

    expected = expected_checks(cfg, only)
    checks = {chk["name"]: chk for chk in report["checks"]}
    for name in sorted(set(checks) - set(expected)):
        verdict.value_errors.append(f"{name}: reported but not in the catalog for this config")
    for name, (status, values) in sorted(expected.items()):
        chk = checks.get(name)
        if chk is None:
            verdict.value_errors.append(f"{name}: missing from the report")
            continue
        if status == "skip":
            if chk["status"] != "skip":
                wrong_status(name, chk["status"], "skip")
            continue
        computed = chk["computed"]
        if not isinstance(computed, dict):
            verdict.value_errors.append(f"{name}: no computed values ({chk['detail'] or chk['status']})")
            continue
        got = _computed_fields(computed)
        bad = [key for key, exp in values.items() if key not in got or not _matches(got[key], exp)]
        for key in bad:
            exp = values[key]
            want = f"< {exp.tol:g}" if isinstance(exp, Below) else repr(exp)
            verdict.value_errors.append(f"{name}: {key} = {got.get(key)!r}, closed form {want}")
        if not bad and chk["status"] != status:
            wrong_status(name, chk["status"], status)
    return verdict
