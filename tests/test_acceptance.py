"""End-to-end acceptance checks.

One test per headline claim, ordered roughly local -> global ->
archimedean -> end-to-end, each at its stated tolerance.  These
duplicate a few unit tests on purpose: this file is the short list a
referee would run first.
"""

import contextlib
import io
import json
import re
import time
from pathlib import Path

import numpy as np

from pelks.checks import run_checks
from pelks.cli import resolve_config
from pelks.config import config_from_dict, with_overrides
from pelks.cyclic_algebra import CyclicAlgebraDescriptor
from pelks.domains import random_point
from pelks.kodaira_spencer import (
    assemble_phi,
    closed_form_w,
    cocycle_jacobian,
    domain_coordinates,
    metric_identity_check,
    psi_constant,
    psi_modulus_closed_form,
    solve_w_vectors,
)
from pelks.lattices import (
    RiemannForm,
    build_lattice,
    covolume_closed_form,
    dual_index_oracle,
    embed_labels,
    polarization_degree,
)
from pelks.pel_modules import (
    find_test_letters,
    global_rank_lemma,
    image_exponent,
    quotient_structure,
)
from embeddings import gaussian_unitary, matrix_basechange, rational_siegel
from relation_oracle import _relation_rows


def test_quaternion_image_exponent_and_generators():
    start = time.perf_counter()
    for q in (2, 3, 5):
        desc = CyclicAlgebraDescriptor(n=2, residue_size=q)
        computed, expected = image_exponent(desc, (1, 0), "C")
        assert computed == {"exponent": 1, "dim": 1, "multiplier": 1, "violations": []}
        assert expected["exponent"] == 1
        # relation generators: with basis x(x)x', x(x)y', y(x)x', y(x)y'
        # at flats 0..3, the mixed flats 1 and 2 die by unit rows and
        # the only surviving constraint is the pi-twist tying flat 0 to
        # pi times flat 3
        letters = find_test_letters(desc, "C")
        ncols, sparse = _relation_rows(desc, (1, 0), letters)
        zero = desc.field.zero
        rows = [[dict(row).get(flat, zero) for flat in range(ncols)] for row in sparse]
        pi = desc.field.one.shift(1)
        dead, twisted = set(), False
        for c in rows:
            assert c[3] == -(c[0] * pi)
            for flat in (1, 2):
                others = [t for t in range(4) if t != flat]
                if c[flat] and not any(c[t] for t in others):
                    if c[flat].val == 0:
                        dead.add(flat)
            if c[0]:
                twisted = True
        assert dead == {1, 2}
        assert twisted
    assert time.perf_counter() - start < 1.0


def test_unitary_image_exponents_and_quotient_shape():
    start = time.perf_counter()
    desc = CyclicAlgebraDescriptor(n=2, residue_size=3, conjugation_power=1)

    # no violations means every chain profile read (1, 0)
    for signature, exponent in (((1, 1), 1), ((2, 2), 4)):
        computed, expected = image_exponent(desc, signature, "A")
        assert (computed["exponent"], computed["violations"]) == (exponent, [])
        assert expected["exponent"] == exponent

    # quotient survivors and the pi-twist C_1 = pi C_2 are audited
    # inside quotient_structure; no violations means every chain passed,
    # so the free rank counts the eligible pairs
    for signature, rank in (((1, 1), 2), ((2, 2), 8)):
        computed, expected = quotient_structure(desc, signature, "A")
        assert computed == expected == {"free_rank": rank, "violations": []}
    assert time.perf_counter() - start < 5.0


def test_global_rank_lemma_sweep():
    for p in range(5):
        for q in range(5):
            computed, _ = global_rank_lemma(p, q, -4)
            # no violations: at pq > 0 the probe exponents are (q, p)
            assert (computed["torsion_annihilated"], computed["torsion_order_matches"], computed["violations"]) == (
                True, True, []
            ), (p, q)
            # free rank pq over the quadratic order, 2pq over the integers
            assert computed["free_rank"] == 2 * p * q
            assert computed["normalizer_exists"] == (p == q)
    for disc in (-3, -7, -8):
        computed, expected = global_rank_lemma(2, 2, disc)
        assert computed == expected


def test_cocycle_jacobian_against_central_differences():
    rng = np.random.default_rng(2024)
    embeddings = [
        (gaussian_unitary(), 1),
        (rational_siegel(2), 2),
        (matrix_basechange(), 1),
    ]
    trials = 0
    while trials < 100:
        emb, g = embeddings[trials % len(embeddings)]
        basis = emb.module_basis()
        coeffs = rng.integers(-4, 5, size=len(basis))
        combo = sum(c * b for c, b in zip(coeffs, basis))
        if emb.kind == "A":
            elements = [combo]
        else:
            zero = np.zeros_like(combo.real)
            parts = [combo.real, zero] if trials % 2 else [zero, combo.real]
            elements = [np.hstack(parts)]
        point = random_point(emb.kind, g, rng)
        ana = cocycle_jacobian(emb, elements=elements)
        # the embedding is affine in the point, so a central difference
        # along a real or an imaginary step reads the Jacobian off exactly
        for h in (0.5, 0.5j):
            for t, (a, b) in enumerate(domain_coordinates(emb)):
                step = np.zeros((g, g))
                step[a, b] = 1.0
                if emb.kind == "C":
                    step[b, a] = 1.0  # the classical domain is symmetric
                plus = embed_labels(emb, type(point)(point.matrix + h * step), elements)
                minus = embed_labels(emb, type(point)(point.matrix - h * step), elements)
                assert np.abs(ana[..., t] - (plus - minus) / (2 * h)).max() < 1e-12, (emb.kind, trials)
        trials += 1


def test_w_vector_closed_form():
    rng = np.random.default_rng(5)
    emb = gaussian_unitary()
    for _ in range(10):
        lat = build_lattice(random_point("A", 1, rng), emb)
        form = RiemannForm(emb, -2.0)
        ws = solve_w_vectors(lat, form)
        expected = closed_form_w(form)
        assert ws.shape == expected.shape == (2, 2)  # the lin and conj targets of (0, 0)
        assert np.abs(ws - expected).max() < 1e-10


def test_psi_modulus_and_phi_independence():
    rng = np.random.default_rng(6)
    for emb, mu in ((gaussian_unitary(), -2.0), (matrix_basechange(), -2.0 * np.eye(2))):
        form = RiemannForm(emb, mu)
        tensors = []
        for _ in range(2):
            lat = build_lattice(random_point("A", emb.r // 2, rng), emb)
            phi = assemble_phi(emb, solve_w_vectors(lat, form))
            tensors.append(phi)
        assert np.abs(tensors[0] - tensors[1]).max() < 1e-10
        value, off_block_defect = psi_constant(phi, emb)
        assert abs(abs(value) - psi_modulus_closed_form(form)) < 1e-9
        assert off_block_defect < 1e-9


def test_covolume_formula_and_duality():
    rng = np.random.default_rng(7)
    for emb, mu in ((gaussian_unitary(), -2.0), (matrix_basechange(), -2.0 * np.eye(2))):
        form = RiemannForm(emb, mu)
        for _ in range(20):
            lat = build_lattice(random_point("A", emb.r // 2, rng), emb)
            assert abs(lat.covolume() / covolume_closed_form(lat, form) - 1) < 1e-9
    instances = [
        (gaussian_unitary(), "A", 1),
        (rational_siegel(1), "C", 1),
        (rational_siegel(2), "C", 2),
        (matrix_basechange(), "A", 1),
    ]
    for emb, kind, g in instances:
        lat = build_lattice(random_point(kind, g, rng), emb)
        assert abs(lat.covolume() * lat.dual().covolume() - 1) < 1e-9


def test_metric_identity_end_to_end():
    for name in ("unitary-A", "siegel-C"):
        cfg = with_overrides(resolve_config(name), samples=20)
        report = run_checks(cfg, only="pipeline.metric-identity")
        (check,) = report["checks"]
        assert check["status"] == "pass", check["detail"]
        assert check["computed"]["max_defect"] < 1e-8
    # the classical family covers both ranks; rerun the small one directly
    emb = rational_siegel(1)
    lat = build_lattice(random_point("C", 1, np.random.default_rng(0), 20), emb)
    ratios, k0 = metric_identity_check(lat, solve_w_vectors(lat, RiemannForm(emb, -1.0)))
    assert np.abs(ratios - 1).max() < 1e-8
    assert (ratios.shape, k0) == ((20,), 2)


def test_polarization_degrees():
    for emb, mu in ((gaussian_unitary(), -2.0), (matrix_basechange(), -2.0 * np.eye(2))):
        form = RiemannForm(emb, mu)
        assert polarization_degree(form) == 1
        assert dual_index_oracle(form) == 1
    # the plain trace form on the Gaussian order: degree = |field
    # discriminant| = 4, dual index its square
    trace_form = RiemannForm(gaussian_unitary(), 1.0)
    deg = polarization_degree(trace_form)
    index = dual_index_oracle(trace_form)
    assert deg == 4
    assert index == 16 == deg * deg


def test_gaussian_trace_form_degree_at_rank_four():
    # on r = 4 the trace form sees two Gaussian blocks: degree |D|^(r/2)
    # = 16 and dual index |D|^r = 256
    cfg = config_from_dict(
        {
            "name": "gauss-r4",
            "type": "A",
            "n": 1,
            "r": 4,
            "signature": [2, 2],
            "archimedean": {
                "discriminant": -4,
                "order_basis": [[[[1, 0]]], [[[0, 1]]]],
                "mu_mode": "self-dual-auto",
            },
            "samples": 2,
        }
    )
    (chk,) = run_checks(cfg, only="arch.polarization-degree")["checks"]
    assert chk["status"] == "pass"
    assert chk["computed"]["trace_form_degree"] == 16
    assert chk["computed"]["trace_form_dual_index"] == 256


def test_reports_are_reproducible():
    for name in ("quaternion-C", "unitary-A"):
        cfg = with_overrides(resolve_config(name), samples=4)
        first = run_checks(cfg)
        second = run_checks(cfg)
        first.pop("timing")
        second.pop("timing")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_timing_gives_seconds_per_check():
    # the shared sample stack is timed apart from the checks that read it
    cfg = with_overrides(resolve_config("unitary-A"), samples=4)
    for only, sampled in ((None, True), ("local.*", False)):
        report = run_checks(cfg, only=only)
        seconds = report["timing"]["checks"]
        assert seconds and list(seconds) == [chk["name"] for chk in report["checks"]]
        assert all(s >= 0 for s in seconds.values())
        assert (report["timing"]["samples_seconds"] > 0) == sampled
        assert report["timing"]["total_seconds"] >= report["timing"]["samples_seconds"] + sum(seconds.values())


def test_readme_library_example_runs():
    # the README's "Library use" block, run as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"## Library use\n\n```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    k0, defect = out.getvalue().split()
    assert k0 == "1"
    assert float(defect) < 1e-12
