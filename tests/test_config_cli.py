"""Config parsing, check reports, CLI behavior, determinism."""

import contextlib
import copy
import dataclasses
import importlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ab_trees
import pelks.checks
import scale_ladder
import pelks.kodaira_spencer
from pelks.checks import EXPLANATIONS, explain, run_checks, verdict
from pelks.cli import main, resolve_config
from pelks.config import (
    MAX_R,
    MAX_SAMPLES,
    ConfigInvalid,
    build_embedding,
    config_digest,
    config_from_dict,
    config_to_dict,
    with_overrides,
)
from pelks.kodaira_spencer import _incidences
from pelks.lattices import OrderEmbedding, PeriodLattice
from report_digests import named_config

FIXTURES = ["quaternion-C", "unitary-A", "siegel-C", "basechange-A"]
REPO = Path(__file__).resolve().parents[1]


def _run(*argv):
    """Run a Python entry point in a fresh interpreter, importing pelks from src/."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def minimal_unitary(**over):
    base = {
        "name": "unit-test",
        "type": "A",
        "n": 1,
        "r": 2,
        "signature": [1, 1],
        "local_places": [],
        "archimedean": {
            "discriminant": -4,
            "order_basis": [[[[1, 0]]], [[[0, 1]]]],
            "mu_mode": "self-dual-auto",
            "mu": None,
        },
        "samples": 3,
        "seed": 0,
    }
    base.update(over)
    return base


def test_fixture_configs_parse():
    for name in FIXTURES:
        cfg = resolve_config(name)
        assert cfg.name == name
        assert cfg.kind in ("A", "C")
        assert sum(cfg.signature) == cfg.r


def test_unknown_keys_rejected():
    with pytest.raises(ConfigInvalid, match="unknown keys"):
        config_from_dict(minimal_unitary(extra=1))
    bad = minimal_unitary()
    bad["archimedean"] = dict(bad["archimedean"], surplus=2)
    with pytest.raises(ConfigInvalid, match="unknown keys"):
        config_from_dict(bad)
    with pytest.raises(ConfigInvalid, match="unknown keys"):
        config_from_dict(minimal_unitary(tolerances={"epsilonn": 1e-9}))
    with pytest.raises(ConfigInvalid, match="unknown keys"):
        config_from_dict(minimal_unitary(tolerances={"local_precision": 16}))
    # tolerances are fixed per check, so the whole section is gone
    with pytest.raises(ConfigInvalid, match="unknown keys"):
        config_from_dict(minimal_unitary(tolerances={"epsilon": 1e-9}))


def test_type_strictness():
    with pytest.raises(ConfigInvalid, match="integer"):
        config_from_dict(minimal_unitary(n=True))
    with pytest.raises(ConfigInvalid, match="integer"):
        config_from_dict(minimal_unitary(samples="many"))
    with pytest.raises(ConfigInvalid, match="string"):
        config_from_dict(minimal_unitary(name=7))


def test_sample_count_is_capped():
    # refused at parse time, before any sample is drawn
    assert config_from_dict(minimal_unitary(samples=MAX_SAMPLES)).samples == MAX_SAMPLES
    for samples in (MAX_SAMPLES + 1, 10**23):
        with pytest.raises(ConfigInvalid, match=f"samples must be at most {MAX_SAMPLES}$"):
            config_from_dict(minimal_unitary(samples=samples))
        with pytest.raises(ConfigInvalid, match=f"samples must be at most {MAX_SAMPLES}$"):
            with_overrides(resolve_config("unitary-A"), samples=samples)


def _local_only_c2(r):
    return {"name": "local-c2", "type": "C", "n": 2, "r": r, "signature": [r, 0], "local_places": [{"residue_size": 5}]}


def test_a_config_at_the_rank_cap_parses():
    assert config_from_dict(_local_only_c2(MAX_R)).r == MAX_R


def test_a_rank_past_the_cap_is_a_config_error(tmp_path, capsys):
    # refused at parse time, before the local checks build anything
    path = tmp_path / "big-r.json"
    path.write_text(json.dumps(_local_only_c2(MAX_R + 1)))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: r must be at most {MAX_R}\n")


def test_invariants_enforced():
    with pytest.raises(ConfigInvalid, match="signature"):
        config_from_dict(minimal_unitary(signature=[2, 1]))
    with pytest.raises(ConfigInvalid, match=r"kind C signature"):
        config_from_dict(
            {
                "name": "x",
                "type": "C",
                "n": 1,
                "r": 2,
                "signature": [1, 1],
            }
        )
    with pytest.raises(ConfigInvalid, match="balanced"):
        config_from_dict(minimal_unitary(signature=[2, 0]))
    with pytest.raises(ConfigInvalid, match="negative quadratic"):
        bad = minimal_unitary()
        bad["archimedean"] = dict(bad["archimedean"], discriminant=5)
        config_from_dict(bad)
    with pytest.raises(ConfigInvalid, match="explicit mu_mode needs"):
        bad = minimal_unitary()
        bad["archimedean"] = dict(bad["archimedean"], mu_mode="explicit")
        config_from_dict(bad)
    with pytest.raises(ConfigInvalid, match="forbids"):
        bad = minimal_unitary()
        bad["archimedean"] = dict(bad["archimedean"], mu=[[[1, 0]]])
        config_from_dict(bad)
    with pytest.raises(ConfigInvalid, match="split places"):
        config_from_dict(
            {
                "name": "x",
                "type": "A",
                "n": 2,
                "r": 2,
                "signature": [1, 1],
                "local_places": [{"residue_size": 5, "split": True}],
            }
        )
    # the descriptor's own rules: q a prime power, f prime to n
    for place, message in (
        ({"residue_size": 6}, "not a prime power"),
        ({"residue_size": 1}, "not a prime power"),
        ({"residue_size": 5, "frobenius_power": 2}, "prime to n=2"),
    ):
        with pytest.raises(ConfigInvalid, match=message):
            config_from_dict(dict(minimal_unitary(n=2, archimedean=None), local_places=[place]))
    for places in (None, 3, {"residue_size": 3}):
        with pytest.raises(ConfigInvalid, match="local_places must be a list"):
            config_from_dict(dict(minimal_unitary(n=2, archimedean=None), local_places=places))
    # n must divide r only once archimedean data enters
    config_from_dict(
        {
            "name": "x",
            "type": "C",
            "n": 2,
            "r": 1,
            "signature": [1, 0],
            "local_places": [{"residue_size": 3}],
        }
    )


def test_digest_stable_and_sensitive():
    a = config_from_dict(minimal_unitary())
    b = config_from_dict(minimal_unitary())
    assert config_digest(a) == config_digest(b)
    c = with_overrides(a, seed=5)
    assert config_digest(a) != config_digest(c)
    assert with_overrides(a).seed == a.seed


def test_reports_are_deterministic():
    cfg = resolve_config("unitary-A")
    cfg = with_overrides(cfg, samples=3)
    first = run_checks(cfg)
    second = run_checks(cfg)
    for rep in (first, second):
        rep.pop("timing")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    names = [c["name"] for c in first["checks"]]
    assert names == sorted(names)
    assert first["schema_version"] == 5
    assert first["summary"]["fail"] == 0


def test_seed_changes_the_digest_not_the_verdict():
    cfg = with_overrides(resolve_config("siegel-C"), samples=3)
    r0 = run_checks(cfg)
    r1 = run_checks(with_overrides(cfg, seed=9))
    assert r0["config_digest"] != r1["config_digest"]
    assert r0["summary"]["fail"] == 0 and r1["summary"]["fail"] == 0


def test_only_filter():
    cfg = with_overrides(resolve_config("quaternion-C"), samples=2)
    rep = run_checks(cfg, only="local.image-exponent.*")
    assert [c["name"] for c in rep["checks"]] == [
        "local.image-exponent.q2",
        "local.image-exponent.q3",
        "local.image-exponent.q5",
    ]
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", "--config", "no-such-instance"]) == 2
    assert "config error" in capsys.readouterr().err
    for tolerances in ({"local_precision": 16}, {"epsilon": 1e-9}):
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(minimal_unitary(tolerances=tolerances)))
        assert main(["run", "--config", str(stale)]) == 2
        assert "config error" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path)]) == 2  # a directory
    assert "config error" in capsys.readouterr().err
    latin = tmp_path / "latin.json"
    text = json.dumps(minimal_unitary(name="caf\u00e9"), ensure_ascii=False)
    latin.write_bytes(text.encode("latin-1"))  # not UTF-8
    assert main(["run", "--config", str(latin)]) == 2
    assert "config error" in capsys.readouterr().err
    for place in (
        {"residue_size": 6},
        {"residue_size": 5, "frobenius_power": 2},
        {"residue_size": 1},
    ):
        bad = tmp_path / "bad-place.json"
        bad.write_text(json.dumps(minimal_unitary(n=2, archimedean=None, local_places=[place])))
        assert main(["run", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
    # kind C: a division place of degree n > 2 carries no involution of
    # the first kind; kind A at n = 3 is refused only by the local checks
    cubic = {"name": "x", "type": "C", "n": 3, "r": 3, "signature": [3, 0]}
    bad = tmp_path / "cubic-C.json"
    bad.write_text(json.dumps(dict(cubic, local_places=[{"residue_size": 2}])))
    assert main(["run", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("config error: local_places[0]: kind C admits no division place")
    for places in (None, 3, {"residue_size": 3}):
        bad = tmp_path / "bad-places.json"
        bad.write_text(json.dumps(minimal_unitary(n=2, archimedean=None, local_places=places)))
        assert main(["run", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("config error: local_places must be a list")
    assert main(["run", "--config", "quaternion-C", "--only", "nothing*"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["explain", "not-a-check"]) == 2
    capsys.readouterr()
    assert main(["explain", "pipeline.metric-identity"]) == 0
    out = capsys.readouterr().out
    assert "lattice norm" in out
    assert main(["fixtures", "list"]) == 0
    out = capsys.readouterr().out
    for name in FIXTURES:
        assert name in out
    unwritable = tmp_path / "no" / "such" / "dir" / "x.json"
    proc = _run("-m", "pelks.cli", "run", "--config", "unitary-A", "--report", str(unwritable))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("report error:")


def test_cli_run_and_report(tmp_path, capsys):
    report_path = tmp_path / "out.json"
    code = main(
        [
            "run",
            "--config",
            "unitary-A",
            "--samples",
            "3",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pipeline.metric-identity" in out
    assert "0 failed" in out
    data = json.loads(report_path.read_text())
    assert data["schema_version"] == 5
    assert data["samples"] == 3
    statuses = {c["name"]: c["status"] for c in data["checks"]}
    assert statuses["pipeline.metric-identity"] == "pass"


def test_cli_config_from_path(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(minimal_unitary()))
    cfg = resolve_config(str(path))
    assert cfg.name == "unit-test"


def test_honest_failure_exits_one(tmp_path, capsys):
    # an explicit mu that is not unimodular must fail loudly, not abort
    bad = minimal_unitary(name="bad-mu")
    bad["archimedean"]["mu_mode"] = "explicit"
    bad["archimedean"]["mu"] = [[[-4, 0]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["run", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "arch.self-dual-mu" in out
    # the metric identity needs the self-dual normalization, so it fails too
    assert any(
        line.startswith("FAIL") and "metric-identity" in line
        for line in out.splitlines()
    )


def test_sampled_checks_fail_at_zero_samples():
    # config parsing refuses samples < 1; the library must refuse them too
    # with the whole catalog, and alone, where the empty stream is all the
    # explicit-mu sample plan holds
    for fixture in ("unitary-A", "basechange-A"):
        cfg = dataclasses.replace(resolve_config(fixture), samples=0)
        statuses = {c["name"]: (c["status"], c["detail"]) for c in run_checks(cfg)["checks"]}
        for name in ("arch.lattice-covolume", "arch.covolume-duality", "pipeline.metric-identity"):
            (alone,) = run_checks(cfg, only=name)["checks"]
            for status, detail in (statuses[name], (alone["status"], alone["detail"])):
                assert (status, detail) == ("fail", "ValueError: need at least one sample point, got 0"), name


def _returns_nan(real):
    return lambda *args, **kwargs: float("nan")


def _nan_at(real, index):
    """`real` with entry `index` of its flattened array result set to NaN."""

    def broken(*args, **kwargs):
        array = np.array(real(*args, **kwargs))
        array.flat[index] = np.nan
        return array

    return broken


def _one_nan_entry(real):
    """NaN in the first entry: on a sample stack, in the first sample."""
    return _nan_at(real, 0)


def _last_nan_entry(real):
    """NaN in the last entry: on a sample stack, in the last sample only."""
    return _nan_at(real, -1)


@pytest.mark.parametrize(
    "owner,attr,breaker,check,key",
    [
        (pelks.checks, "covolume_closed_form", _returns_nan, "arch.lattice-covolume", "max_ratio_defect"),
        (PeriodLattice, "covolume", _returns_nan, "arch.covolume-duality", "max_product_defect"),
        (pelks.checks, "numeric_cocycle_jacobian", _one_nan_entry, "pipeline.cocycle-jacobian", "max_defect"),
        (pelks.checks, "closed_form_w", _one_nan_entry, "pipeline.w-closed-form", "max_defect"),
        # the w-vectors of the check's own stream: the pairwise and symmetry
        # readers read every entry, and the matched one reads the first
        # (plain target, plain column) and the last (conjugate, conjugate)
        (pelks.checks, "solve_w_vectors", _one_nan_entry, "pipeline.phi-z-independence", "max_pairwise_defect"),
        (pelks.checks, "solve_w_vectors", _one_nan_entry, "pipeline.phi-z-independence", "symmetry_defect"),
        (pelks.checks, "solve_w_vectors", _one_nan_entry, "pipeline.psi-constant", "matched_defect"),
        (pelks.checks, "psi_modulus_closed_form", _returns_nan, "pipeline.psi-constant", "modulus_defect"),
        (pelks.kodaira_spencer, "petersson_norm", _returns_nan, "pipeline.metric-identity", "max_defect"),
        # the same checks with the NaN in the last sample of the stack only
        (pelks.checks, "covolume_closed_form", _last_nan_entry, "arch.lattice-covolume", "max_ratio_defect"),
        (PeriodLattice, "covolume", _last_nan_entry, "arch.covolume-duality", "max_product_defect"),
        (pelks.checks, "numeric_cocycle_jacobian", _last_nan_entry, "pipeline.cocycle-jacobian", "max_defect"),
        (pelks.checks, "solve_w_vectors", _last_nan_entry, "pipeline.phi-z-independence", "max_pairwise_defect"),
        (pelks.checks, "solve_w_vectors", _last_nan_entry, "pipeline.psi-constant", "matched_defect"),
        (pelks.kodaira_spencer, "petersson_norm", _last_nan_entry, "pipeline.metric-identity", "max_defect"),
    ],
)
def test_a_nan_defect_fails_its_check(monkeypatch, owner, attr, breaker, check, key):
    monkeypatch.setattr(owner, attr, breaker(getattr(owner, attr)))
    cfg = with_overrides(resolve_config("unitary-A"), samples=2)
    (entry,) = run_checks(cfg, only=check)["checks"]
    assert entry["status"] == "fail"
    assert math.isnan(entry["computed"][key])
    # --report writes the NaN as json's NaN token, which reads back as NaN
    assert math.isnan(json.loads(json.dumps(entry))["computed"][key])


def _without_conj_rows(real):
    """`real` returning zero w-vectors at every conjugate-family target,
    so phi loses its conjugate rows."""

    def broken(lattice, form):
        conj = _incidences(lattice.embedding)[0][:, 2] == 1
        return np.where(conj[:, None], 0.0, real(lattice, form))

    return broken


@pytest.mark.parametrize("fixture", ["unitary-A", "basechange-A"])
def test_a_phi_without_its_conjugate_rows_fails_the_symmetry_claim(monkeypatch, fixture):
    monkeypatch.setattr(pelks.checks, "solve_w_vectors", _without_conj_rows(pelks.checks.solve_w_vectors))
    cfg = with_overrides(resolve_config(fixture), samples=2)
    (entry,) = run_checks(cfg, only="pipeline.phi-z-independence")["checks"]
    assert entry["status"] == "fail"
    assert entry["computed"]["max_pairwise_defect"] < 1e-10  # still point-independent
    assert entry["computed"]["symmetry_defect"] > 0.1


def test_every_reported_check_has_an_explanation():
    # the catalog and EXPLANATIONS name the same checks, up to the .q{q} place suffix
    reported = set()
    for name in FIXTURES:
        for check in run_checks(with_overrides(resolve_config(name), samples=2))["checks"]:
            reported.add(re.sub(r"\.q\d+$", "", check["name"]))
    assert reported == set(EXPLANATIONS)


def test_explain_accepts_place_suffix():
    assert explain("local.image-exponent.q7") == explain("local.image-exponent")
    assert explain("unknown.thing") is None
    # only a .q<digits> suffix, and only on a per-place row
    for name in ("arch.covolume-duality.q7", "local.image-exponent.banana", "local.image-exponent.q"):
        assert explain(name) is None
        assert main(["explain", name]) == 2


@pytest.mark.parametrize(
    "flag,value,valid",
    [
        ("--seed", "-1", False),
        ("--seed", "3", True),
        ("--samples", "0", False),
        ("--samples", "-3", False),
        ("--samples", "2", True),
        ("--samples", "100000000000000000000000", False),
    ],
)
def test_cli_overrides_are_validated(flag, value, valid):
    proc = _run("-m", "pelks.cli", "run", "--config", "unitary-A", flag, value)
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr
    if not valid:
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")


def _slots(value):
    """Every (container, key) pair of a parsed JSON value, depth first."""
    pairs = []
    keys = value if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else ()
    for key in keys:
        pairs.append((value, key))
        pairs += _slots(value[key])
    return pairs


def _mutate(cfg, mutation):
    """Apply one (kind, slot, value) mutation to a config dict in place:
    drop the slot's key, set it to `value`, or nest it `value` lists deep."""
    kind, slot, value = mutation
    slots = _slots(cfg)
    if not slots:
        return
    container, key = slots[slot % len(slots)]
    if kind == "drop":
        del container[key]
    elif kind == "set":
        container[key] = copy.deepcopy(value)  # the strategy hands out one object
    else:
        for _ in range(value):
            container[key] = [container[key]]


_JUNK = [None, True, "x", [], {}, {"x": 1}, -7, 0, 1, 2, 3, 65, 10**30, 0.5, math.nan, math.inf, -math.inf]
_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 10**4), st.none()),
    st.tuples(st.just("set"), st.integers(0, 10**4), st.sampled_from(_JUNK)),
    st.tuples(st.just("nest"), st.integers(0, 10**4), st.sampled_from([1, 4])),
)
_SEEDS = st.one_of(st.none(), st.integers(0, 3), st.sampled_from([-1, 10**23]))
_SAMPLES = st.one_of(st.none(), st.integers(1, 4), st.sampled_from([0, -3, 10**23]))


# the first examples are the overrides that test_cli_overrides_are_validated
# refuses; 80 examples, each a parse and at most one fixture-sized verdict,
# take about 0.65 s on 2 shared vCPUs
@example(fixture="unitary-A", mutations=[], seed=-1, samples=None, only=None)
@example(fixture="unitary-A", mutations=[], seed=None, samples=0, only=None)
@example(fixture="unitary-A", mutations=[], seed=None, samples=-3, only=None)
@example(fixture="unitary-A", mutations=[], seed=None, samples=10**23, only=None)
@given(
    fixture=st.sampled_from(FIXTURES),
    mutations=st.lists(_MUTATIONS, max_size=2),
    seed=_SEEDS,
    samples=_SAMPLES,
    only=st.sampled_from([None, "*", "arch.*", "local.*", "global.rank-lemma", "pipeline.*", "no-such-check"]),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_fuzzed_configs_and_overrides_keep_the_exit_code_contract(fixture, mutations, seed, samples, only):
    cfg = named_config(fixture)
    for mutation in mutations:
        _mutate(cfg, mutation)
    text = json.dumps(cfg)  # NaN and Infinity are written as json tokens
    try:
        parsed = with_overrides(config_from_dict(json.loads(text)), seed=seed, samples=samples)
    except ConfigInvalid:
        parsed = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.json"
        path.write_text(text)
        argv = ["run", "--config", str(path)]
        for flag, value in (("--seed", seed), ("--samples", samples), ("--only", only)):
            argv += [] if value is None else [flag, str(value)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    # a config that parses gets a verdict: no config error comes from run_checks
    if parsed is None:
        assert code == 2 and err.getvalue().startswith("config error:")
    else:
        assert code in (0, 1) or (code == 2 and err.getvalue().startswith("no checks match"))


def test_unresolvable_base_lattice_fails_without_traceback(tmp_path):
    # 1e-13 i passes the order checks but embeds real-dependently
    cfg = minimal_unitary(name="rank-deficient")
    cfg["archimedean"]["order_basis"] = [[[[1, 0]]], [[[0, 1e-13]]]]
    path = tmp_path / "rank.json"
    path.write_text(json.dumps(cfg))
    proc = _run("-m", "pelks.cli", "run", "--config", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = {
        line.split()[1]: line
        for line in proc.stdout.splitlines()
        if line[:4] in ("PASS", "FAIL", "SKIP")
    }
    assert lines["arch.self-dual-mu"].startswith("FAIL")
    assert "RankDeficient:" in lines["arch.self-dual-mu"]
    assert lines["pipeline.metric-identity"].startswith("SKIP")
    entries = {c["name"]: c for c in run_checks(config_from_dict(cfg))["checks"]}
    failed = entries["arch.self-dual-mu"]
    assert (failed["computed"], failed["expected"]) == (None, None)
    assert failed["detail"].startswith("RankDeficient: ")
    assert entries["pipeline.metric-identity"]["detail"] == f"no resolved polarization: {failed['detail']}"


def _unitary_with(**arch):
    """The unitary-A fixture as a dict, its archimedean block updated."""
    cfg = config_to_dict(resolve_config("unitary-A"))
    cfg["archimedean"] |= arch
    return cfg


@pytest.mark.parametrize(
    "arch,key",
    [
        ({"order_basis": [[[[math.nan, 0]]], [[[0, 1]]]]}, "order_basis[0][0][0][0]"),
        ({"mu_mode": "explicit", "mu": [[[math.nan, 0]]]}, "mu[0][0][0]"),
        ({"mu_mode": "explicit", "mu": [[[-2, math.inf]]]}, "mu[0][0][1]"),
        ({"mu_mode": "explicit", "mu": [[[10**400, 0]]]}, "mu[0][0][0]"),  # past the float range
    ],
)
def test_a_non_finite_config_number_is_a_config_error(tmp_path, arch, key):
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(_unitary_with(**arch)))  # json writes NaN and Infinity tokens
    proc = _run("-m", "pelks.cli", "run", "--config", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"config error: {key} must be a finite number")


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,  # json.load recurses once per level
        '{"seed": ' + "7" * 5000 + "}",  # past Python's 4300-digit int limit
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_json_the_decoder_refuses_is_a_config_error(tmp_path, text):
    path = tmp_path / "refused.json"
    path.write_text(text)
    proc = _run("-m", "pelks.cli", "run", "--config", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:")


def test_a_singular_explicit_mu_fails_every_check_that_needs_mu():
    cfg = config_from_dict(_unitary_with(mu_mode="explicit", mu=[[[0, 0]]]))
    entries = {c["name"]: c for c in run_checks(cfg, only="[ap]*")["checks"]}
    passing = {"arch.covolume-duality", "pipeline.cocycle-jacobian"}
    assert {name for name, c in entries.items() if c["status"] == "pass"} == passing
    failed = {name: c["detail"] for name, c in entries.items() if name not in passing}
    assert len(failed) == 7
    assert set(failed.values()) == {"ValueError: mu is singular"}


def test_verdict_rule():
    expected = {"defect": 0.0, "ok": True, "violations": []}
    computed = {"defect": 1e-10, "ok": True, "violations": [], "extra": "not judged"}
    assert verdict(computed, expected, 1e-9) == "pass"
    assert verdict({"defect": 1e-10, "ok": True}, expected, 1e-9) == "fail"  # a missing key
    assert verdict(dict(computed, defect=1e-9), expected, 1e-9) == "fail"  # strict <
    assert verdict(dict(computed, defect=-1e-10), expected, 1e-9) == "pass"
    assert verdict(dict(computed, defect=float("nan")), expected, 1e-9) == "fail"
    assert verdict(dict(computed, ok=False), expected, 1e-9) == "fail"
    assert verdict(dict(computed, violations=["x"]), expected, 1e-9) == "fail"
    # an exact row compares floats by equality; ints are always exact
    assert verdict(computed, expected, "exact") == "fail"
    assert verdict(dict(computed, defect=0.0), expected, "exact") == "pass"
    assert verdict({"degree": 2}, {"degree": 1}, 1e-9) == "fail"
    assert verdict({}, {}, "exact") == "pass"


@pytest.mark.parametrize("field,value", [("torsion_order_matches", False), ("violations", ["probe"])])
def test_rank_lemma_fails_on_every_field_it_judges(monkeypatch, field, value):
    real = pelks.checks.global_rank_lemma

    def broken(p, q, discriminant):
        computed, expected = real(p, q, discriminant)
        return computed | {field: value}, expected

    monkeypatch.setattr(pelks.checks, "global_rank_lemma", broken)
    (entry,) = run_checks(resolve_config("unitary-A"), only="global.rank-lemma")["checks"]
    assert entry["status"] == "fail"
    assert entry["computed"][field] == value
    assert entry["computed"]["free_rank"] == entry["expected"]["free_rank"]


def test_rank_lemma_alone_builds_no_lattice(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the rank lemma needs no lattice, mu or domain point")

    for name in ("build_lattice", "solve_self_dual_mu", "random_point"):
        monkeypatch.setattr(f"pelks.checks.{name}", refuse)
    report = run_checks(resolve_config("unitary-A"), only="global.rank-lemma")
    assert [(c["name"], c["status"]) for c in report["checks"]] == [("global.rank-lemma", "pass")]


def test_bad_order_basis_is_a_config_error_under_any_only(tmp_path):
    cfg = minimal_unitary()
    cfg["archimedean"]["order_basis"] = [[[[1, 0]]], [[[0, 0.5]]]]  # i/2 squares to -1/4
    path = tmp_path / "open.json"
    path.write_text(json.dumps(cfg))
    proc = _run("-m", "pelks.cli", "run", "--config", str(path), "--only", "global.rank-lemma")
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: order basis rejected")


def test_kind_c_archimedean_data_past_n_one_is_a_config_error(tmp_path):
    # the classical closed forms hold at n = 1 only (ROADMAP item 17)
    path = tmp_path / "siegel-n2.json"
    path.write_text(json.dumps(named_config("siegel-n2-refused")))
    proc = _run("-m", "pelks.cli", "run", "--config", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "config error: kind C archimedean data needs n = 1\n"


def test_a_config_builds_its_embedding_once_when_parsed(monkeypatch):
    built = []
    post_init = OrderEmbedding.__post_init__
    monkeypatch.setattr(OrderEmbedding, "__post_init__", lambda emb: built.append(emb) or post_init(emb))
    cfg = resolve_config("basechange-A")
    assert built == [cfg.embedding] and build_embedding(cfg) is cfg.embedding
    assert with_overrides(cfg) is cfg
    assert run_checks(cfg)["summary"]["fail"] == 0
    assert len(built) == 1
    assert resolve_config("quaternion-C").embedding is None
    # the embedding takes no part in equality
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_field_cap_fails_the_local_checks_without_traceback(tmp_path):
    cfg = {"name": "cap", "type": "C", "n": 2, "r": 1, "signature": [1, 0]}
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(dict(cfg, local_places=[{"residue_size": 67}])))
    proc = _run("-m", "pelks.cli", "run", "--config", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    local = [line for line in proc.stdout.splitlines() if " local." in line]
    assert len(local) == 3
    for line in local:
        assert line.startswith("FAIL") and "field GF(67^2) too large" in line


def test_residue_size_past_the_field_cap_is_a_config_error(tmp_path, capsys):
    # 2^89 - 1 is prime: trial division up to its square root would not finish
    cfg = {"name": "big", "type": "C", "n": 2, "r": 1, "signature": [1, 0]}
    config_from_dict(dict(cfg, local_places=[{"residue_size": 4096}]))  # the cap itself is a residue size
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(cfg, local_places=[{"residue_size": 2**89 - 1}])))
    start = time.perf_counter()
    assert main(["run", "--config", str(path)]) == 2
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err.startswith("config error: local_places[0]: residue size")


def test_a_bad_place_field_names_its_key_path(tmp_path):
    cfg = {"name": "places", "type": "C", "n": 2, "r": 1, "signature": [1, 0]}
    places = [{"residue_size": 3}, {"residue_size": 5}, {"residue_size": 7}]
    for key, value in (("frobenius_power", "1"), ("conjugation_power", 0.0), ("split", 1)):
        bad = [dict(pl) for pl in places]
        bad[2][key] = value
        with pytest.raises(ConfigInvalid, match=rf"^local_places\[2\]\.{key} must be"):
            config_from_dict(dict(cfg, local_places=bad))
    places[1]["residue_size"] = "5"
    path = tmp_path / "places.json"
    path.write_text(json.dumps(dict(cfg, local_places=places)))
    proc = _run("-m", "pelks.cli", "run", "--config", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: local_places[1].residue_size must be an integer")


def test_a_repeated_residue_size_is_a_config_error(tmp_path):
    # a place's checks are named .q<residue_size>, so two places with one
    # residue size would give report entries that --only cannot tell apart
    cfg = {"name": "places", "type": "C", "n": 2, "r": 1, "signature": [1, 0]}
    places = [{"residue_size": 3}, {"residue_size": 3, "frobenius_power": 3}]
    with pytest.raises(ConfigInvalid, match=r"^local_places\[1\]\.residue_size 3 repeats"):
        config_from_dict(dict(cfg, local_places=places))
    path = tmp_path / "places.json"
    path.write_text(json.dumps(dict(cfg, local_places=[{"residue_size": 5}, {"residue_size": 3}, places[0]])))
    proc = _run("-m", "pelks.cli", "run", "--config", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: local_places[2].residue_size 3 repeats an earlier place's")
    assert "Traceback" not in proc.stdout + proc.stderr


def test_import_loads_no_scipy():
    proc = _run(
        "-c",
        "import sys, pelks, pelks.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "script,args",
    [
        ("exponent_sweep.py", ["--residue-sizes", "3", "5"]),
        ("exponent_sweep.py", ["--residue-sizes", "17", "31"]),
        ("report_digests.py", ["--workload", "fixtures"]),
        ("scale_ladder.py", ["--max-r", "4"]),
        ("scale_ladder.py", ["--max-r", "8", "--family", "rank", "--family", "C2"]),
        ("ab_trees.py", [str(REPO / "src"), str(REPO / "src"), "--rounds", "2"]),
    ],
)
def test_scripts_run_clean(script, args):
    proc = _run(str(REPO / "scripts" / script), *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "INCONSISTENT" not in proc.stdout
    if script == "report_digests.py":
        lines = proc.stdout.splitlines()
        assert len(lines) == 16  # four fixtures at four pool seeds
        assert all(re.fullmatch(r"fixtures/[\w-]+/\d+ [0-9a-f]{64}", line) for line in lines)
    if script == "scale_ladder.py":
        rows = [line.split() for line in proc.stdout.splitlines()[1:]]
        assert all(row[2] == "PASS" and len(row) == 6 for row in rows)
        if "--family" in args:
            # C2 before rank, as the families are listed, at r = 2, 4, 8
            rungs = [f"C2-r{r}" for r in (2, 4, 8) for _ in range(3)] + ["rank-r2", "rank-r4", "rank-r8"]
            assert [row[0] for row in rows] == rungs
        else:
            # three arch families at r = 2, 4 with nine checks each, A2 and C2 with
            # three local checks each, and the rank lemma
            assert len(rows) == 3 * 2 * 9 + 2 * 2 * 3 + 2
    if script == "ab_trees.py":
        # one tree against itself: the results agree, and each table has a row per side
        lines = proc.stdout.splitlines()
        assert len(lines) == 10
        for table, (title, header, parent, change, wins) in zip(("local", "arch"), (lines[:5], lines[5:])):
            assert title == table
            assert header.split() == ["side", "min_ms", "p25_ms", "median_ms"]
            assert [parent.split()[0], change.split()[0]] == ["parent", "change"]
            assert re.fullmatch(r"change faster in \d of 2 rounds, parent in \d", wins)


@pytest.mark.parametrize(
    "old,new,code",
    [
        # every sampled defect moves by about 1e-18: only numbers move
        ("    return float(np.max(defects))\n", "    return float(np.max(defects)) + 1e-18\n", 0),
        # every check fails: a status changes
        ('    return "pass" if ok else "fail"\n', '    return "fail"\n', 1),
    ],
    ids=["moved-numbers", "changed-verdicts"],
)
def test_ab_trees_times_moved_numbers_and_stops_on_changed_verdicts(tmp_path, old, new, code):
    # 0.7 s for the timed case, 0.4 s for the other
    shutil.copytree(REPO / "src" / "pelks", tmp_path / "pelks", ignore=shutil.ignore_patterns("__pycache__"))
    checks = tmp_path / "pelks" / "checks.py"
    text = checks.read_text()
    assert old in text
    checks.write_text(text.replace(old, new))
    proc = _run(str(REPO / "scripts" / "ab_trees.py"), str(REPO / "src"), str(tmp_path), "--rounds", "2")
    assert proc.returncode == code, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    if code == 1:
        assert lines == []
        assert proc.stderr.startswith("the two trees return different arch reports:\n")
        assert "status 'pass' -> 'fail'" in proc.stderr
        return
    moved, tables = lines[:-10], lines[-10:]
    assert moved[0] == "only numbers moved in the arch reports:"
    assert all(re.fullmatch(r"largest change [\w.-]+ \w+: [0-9.e-]+ at [\w-]+", line) for line in moved[1:-1])
    assert len(moved) > 3
    assert re.fullmatch(r"14 configs in both dumps, 0 status, detail or other non-numeric changes, \d+ of \d+ "
                        r"\(check, computed key\) pairs moved", moved[-1])
    assert [tables[0], tables[5]] == ["local", "arch"]
    assert all(re.fullmatch(r"change faster in \d of 2 rounds, parent in \d", line) for line in (tables[4], tables[9]))


def test_ab_trees_starts_every_timed_run_cold(tmp_path, monkeypatch):
    # two timed rounds of one side build the same field tables: the local
    # table's 32 verdicts miss the finite_field cache as often each round;
    # 0.1 s
    monkeypatch.syspath_prepend(str(tmp_path))
    cases = ab_trees.verdicts(ab_trees.load(REPO / "src", "pelks_cold", tmp_path))["local"]
    assert len(cases) == 32
    run = ab_trees.runner("pelks_cold", cases)
    finite_field = importlib.import_module("pelks_cold.algebra").finite_field
    misses = []

    def counted():
        before = finite_field.cache_info().misses
        run()
        misses.append(finite_field.cache_info().misses - before)

    cold = {"parent": lambda: ab_trees.clear_caches("pelks_cold"), "change": lambda: None}
    ab_trees.compare("local", {"parent": counted, "change": lambda: None}, 2, cold)
    assert len(misses) == 2 and misses[0] == misses[1] > 0


def test_scale_ladder_prints_the_exception_of_a_child(monkeypatch, capsys):
    # the forked child reports what run_checks raised; 0.01 s
    def broken(cfg, only=None):
        raise RuntimeError(f"no verdict for {only}")

    monkeypatch.setattr(scale_ladder, "run_checks", broken)
    assert scale_ladder.main(["--max-r", "2", "--family", "rank"]) == 1
    (row,) = capsys.readouterr().out.splitlines()[1:]
    assert row.split()[:3] == ["rank-r2", "global.rank-lemma", "CRASH"]
    assert row.endswith("  RuntimeError: no verdict for global.rank-lemma")
