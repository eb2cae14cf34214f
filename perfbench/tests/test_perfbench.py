"""Tests of the benchmark's own machinery: generator, oracle, pass accounting, host-speed scaling, tracing."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import pelks  # noqa: E402
import pelks.algebra  # noqa: E402
import pelks.lattices  # noqa: E402
import pelks.pel_modules  # noqa: E402
from pelks.config import config_from_dict  # noqa: E402

FIXTURES = SRC / "pelks" / "fixtures"


def _all_rungs(seed=1):
    for name in workloads.WORKLOADS:
        yield from workloads.build_workload(name, seed, FIXTURES).rungs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name):
    a = workloads.build_workload(name, 7, FIXTURES)
    b = workloads.build_workload(name, 7, FIXTURES)
    assert a == b
    assert [a.pass_configs(i) for i in range(12)] == [b.pass_configs(i) for i in range(12)]
    other = workloads.build_workload(name, 8, FIXTURES)
    assert other.rungs == a.rungs
    assert other.seed_pool != a.seed_pool
    for rung in a.rungs:
        config_from_dict(rung.config)


def test_ladder_sizes_match_the_workload_definition():
    sizes = {name: len(workloads.build_workload(name, 1, FIXTURES).rungs) for name in workloads.WORKLOADS}
    assert sizes == {"fixtures": 4, "local-ladder": 32, "arch-ladder": 11}


def _satisfying(expected):
    """A computed dict that meets every closed form in `expected`."""
    out = {}
    for key, exp in expected.items():
        if key == "gram_det_defect":
            out["gram_det"] = 1.0
        else:
            out[key] = 0.0 if isinstance(exp, oracle.Below) else exp
    return out


def _broken(computed, key, exp):
    computed = dict(computed)
    if key == "gram_det_defect":
        computed["gram_det"] = 1.0 + 2 * exp.tol
    elif isinstance(exp, oracle.Below):
        computed[key] = 2 * exp.tol
    elif isinstance(exp, bool):
        computed[key] = not exp
    elif isinstance(exp, list):
        computed[key] = exp + ["violation"]
    else:
        computed[key] = exp + 1
    return computed


def _synthetic_report(cfg, only):
    checks = []
    for name, (status, values) in oracle.expected_checks(cfg, only).items():
        computed = _satisfying(values) if status == "pass" else None
        checks.append({"name": name, "status": status, "computed": computed, "detail": ""})
    return {"checks": checks}


def test_oracle_accepts_reports_that_meet_every_closed_form():
    for rung in _all_rungs():
        report = _synthetic_report(rung.config, rung.only)
        assert report["checks"]
        assert not oracle.judge(rung.config, rung.only, report).wrong, rung.name


def test_oracle_flags_every_comparison_it_makes():
    compared = 0
    for rung in _all_rungs():
        report = _synthetic_report(rung.config, rung.only)
        for idx, chk in enumerate(report["checks"]):
            status, values = oracle.expected_checks(rung.config, rung.only)[chk["name"]]
            for key, exp in values.items():
                bad = json.loads(json.dumps(report))
                bad["checks"][idx]["computed"] = _broken(chk["computed"], key, exp)
                verdict = oracle.judge(rung.config, rung.only, bad)
                assert any(chk["name"] in e and key in e for e in verdict.value_errors), (rung.name, key)
                compared += 1
    assert compared > 100


def test_oracle_flags_a_wrong_expected_exponent():
    cfg = workloads.build_workload("local-ladder", 1, FIXTURES).rungs[2].config
    report = _synthetic_report(cfg, None)
    name = "local.image-exponent.q3"
    chk = next(c for c in report["checks"] if c["name"] == name)
    assert chk["computed"]["exponent"] == 9
    chk["computed"]["exponent"] = 8
    verdict = oracle.judge(cfg, None, report)
    assert verdict.value_errors == [f"{name}: exponent = 8, closed form 9"]


def test_a_wrong_expected_exponent_fails_a_real_report(monkeypatch):
    rung = next(r for r in _all_rungs() if r.name == "C2-r2-q3")
    report = pelks.run_checks(config_from_dict(rung.config))
    assert not oracle.judge(rung.config, None, report).wrong
    honest = oracle.expected_checks

    def off_by_one(cfg, only=None):
        out = honest(cfg, only)
        status, values = out["local.image-exponent.q3"]
        out["local.image-exponent.q3"] = (status, dict(values, exponent=values["exponent"] + 1))
        return out

    monkeypatch.setattr(oracle, "expected_checks", off_by_one)
    assert oracle.judge(rung.config, None, report).value_errors == [
        "local.image-exponent.q3: exponent = 3, closed form 4"
    ]


def test_oracle_flags_a_wrong_status_missing_check_and_crash():
    cfg = workloads.build_workload("arch-ladder", 1, FIXTURES).rungs[0].config
    report = _synthetic_report(cfg, "[ap]*")
    report["checks"][0]["status"] = "fail"
    assert oracle.judge(cfg, "[ap]*", report).status_errors
    report = _synthetic_report(cfg, "[ap]*")
    report["checks"].pop()
    assert oracle.judge(cfg, "[ap]*", report).value_errors
    report = _synthetic_report(cfg, "[ap]*")
    report["checks"][1].update(status="fail", computed=None, detail="ValueError: boom")
    assert oracle.judge(cfg, "[ap]*", report).value_errors


def test_only_listed_wrong_statuses_count_as_known():
    rungs = {r.name: r for r in workloads.build_workload("arch-ladder", 1, FIXTURES).rungs}
    for name, expect_known in (("gauss-r4", True), ("gauss-r2", False), ("siegel-r4", False)):
        cfg = rungs[name].config
        report = _synthetic_report(cfg, "[ap]*")
        chk = next(c for c in report["checks"] if c["name"] == "arch.polarization-degree")
        chk["status"] = "fail"
        verdict = oracle.judge(cfg, "[ap]*", report)
        assert verdict.wrong
        assert verdict.unexpected is not expect_known, name
        assert bool(verdict.known_errors) is expect_known, name


def test_oracle_accepts_a_real_fixture_report():
    cfg = json.loads((FIXTURES / "unitary-A.json").read_text())
    report = pelks.run_checks(config_from_dict(cfg))
    assert not oracle.judge(cfg, None, report).wrong


def test_a_pass_with_zero_verdicts_is_an_error():
    with pytest.raises(run.BenchError):
        run.pass_seconds([])
    one = run.Verdict("r", 0, 0.5, 0.4, 40.0)
    with pytest.raises(run.BenchError):
        run.end_to_end_metrics([{"setup_s": 1.0}], [[one] * 200, []])


def test_forked_verdict_is_judged_and_timed():
    wl = workloads.build_workload("fixtures", 1, FIXTURES)
    client = run.Client(pelks, wl)
    verdicts = client.run_pass(0) + client.run_pass(0)
    assert len(verdicts) == 8
    assert all(v.seconds > 0 and v.cpu_s > 0 and v.rss_mb > 0 and v.scale > 0 for v in verdicts)
    assert not any(v.judgement.wrong for v in verdicts)


def test_end_to_end_times_are_scaled_by_host_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(ref) == 1.0
    assert hostspeed.scale(2 * ref) == 0.5
    assert hostspeed.scale(ref, 3 * ref) == 0.5
    assert hostspeed.calibrate() > 0
    # the same work measured in a phase twice as slow reads the same once scaled
    fast = [run.Verdict("a", 0, 0.1, 0.1, 40.0, 1.0), run.Verdict("b", 0, 0.3, 0.3, 40.0, 1.0)]
    slow = [run.Verdict("a", 0, 0.2, 0.2, 40.0, 0.5), run.Verdict("b", 0, 0.6, 0.6, 40.0, 0.5)]
    metrics = run.end_to_end_metrics([{"setup_s": 1.0}], [fast, slow, slow])
    assert metrics["pass_s"]["value"] == pytest.approx(0.4)
    assert metrics["cpu_s"]["value"] == pytest.approx(0.4)


def test_wrapped_calls_return_what_unwrapped_calls_return():
    rows = [[2, 4, 0], [6, 8, 10], [0, 3, 9]]
    original_isnf = pelks.algebra.integer_smith_normal_form
    desc = pelks.CyclicAlgebraDescriptor(2, 3, 1, 1)
    plain = {
        "isnf": original_isnf(rows),
        "exponent": pelks.image_exponent(desc, (1, 1), "A"),
        "rank": pelks.global_rank_lemma(2, 2, -4),
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pelks.lattices.integer_smith_normal_form is not original_isnf
        wrapped = {
            "isnf": pelks.lattices.integer_smith_normal_form(rows),
            "exponent": pelks.image_exponent(desc, (1, 1), "A"),
            "rank": pelks.global_rank_lemma(2, 2, -4),
        }
    finally:
        tracer.uninstall()
    assert pelks.lattices.integer_smith_normal_form is original_isnf
    assert pelks.algebra.integer_smith_normal_form is original_isnf
    for key in ("U", "D", "V", "divisors"):
        assert getattr(wrapped["isnf"], key) == getattr(plain["isnf"], key)
    assert wrapped["exponent"] == plain["exponent"]
    assert wrapped["rank"] == plain["rank"]
    names = {span[0] for span in tracer.spans}
    assert {"algebra.integer_smith_normal_form", "pel_modules.image_exponent", "algebra.smith_normal_form",
            "pel_modules.global_rank_lemma", "algebra.integer_inverse"} <= names
    snf = next(s for s in tracer.spans if s[0] == "algebra.integer_smith_normal_form")
    assert snf[5] == {"entries": 9, "nonzero": 7}


def _traced_span_names(rung):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pelks.run_checks(config_from_dict(rung.config), only=rung.only)
    finally:
        tracer.uninstall()
    return {span[0] for span in tracer.spans}


def test_ladders_isolate_their_layers():
    rungs = {r.name: r for r in _all_rungs()}
    arch = _traced_span_names(rungs["gauss-r2"]) | _traced_span_names(rungs["siegel-r2"])
    assert "kodaira_spencer.metric_identity_check" in arch
    assert not {n for n in arch if n.startswith("pel_modules.")}
    assert not arch & {"algebra.smith_normal_form", "algebra.finite_field"}
    local = _traced_span_names(rungs["C2-r1-q2"]) | _traced_span_names(rungs["rank-D4-p1"])
    assert {"algebra.smith_normal_form", "pel_modules.global_rank_lemma"} <= local
    assert not {n for n in local if n.startswith("kodaira_spencer.")}


def test_benchmark_json_lists_the_metrics_the_runs_report():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_excludes_children_and_counting():
    spans = [
        ["outer", 0.0, 10.0, -1, 0.0, None],
        ["inner", 1.0, 4.0, 0, 0.5, None],
        ["inner", 5.0, 6.0, 0, 0.0, None],
        ["leaf", 2.0, 3.0, 1, 0.0, None],
    ]
    assert tracing.self_times(spans) == [6.0, 1.5, 1.0, 1.0]
