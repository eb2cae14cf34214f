"""The exact half's reports, pinned by digest.

`local_report_digests.txt` holds the `scripts/report_digests.py` lines
of every local-ladder rung and of the three local-only edge configs.
Those reports hold only integers, strings and bools, so their digests
do not depend on BLAS or the CPU; the archimedean and fixture reports
carry floats, and `--dump` / `--compare` say what moved between two
trees.  A change that
alters a local report on purpose regenerates the file:

    PYTHONPATH=src python3 scripts/report_digests.py --workload local-ladder > tests/local_report_digests.txt
    PYTHONPATH=src python3 scripts/report_digests.py --workload edge \\
        | grep -E 'gf67-over-cap|unbalanced-local-only|cubic-local-only' >> tests/local_report_digests.txt
"""

from pathlib import Path

import report_digests as script

PINNED = Path(__file__).resolve().parent / "local_report_digests.txt"
LOCAL_EDGES = ("gf67-over-cap", "unbalanced-local-only", "cubic-local-only")


def test_local_reports_match_their_pinned_digests():
    pinned = dict(line.split() for line in PINNED.read_text().splitlines())
    configs = {
        f"{name}/{rung}/{cfg.get('seed', 0)}": (cfg, only)
        for name in ("local-ladder", "edge")
        for rung, cfg, only in script.workload_configs(name)
        if name != "edge" or rung in LOCAL_EDGES
    }
    assert sorted(pinned) == sorted(configs)
    changed = [key for key, (cfg, only) in configs.items() if script.digest(cfg, only) != pinned[key]]
    assert changed == []


def test_compare_tells_moved_numbers_from_changed_verdicts():
    check = {"name": "arch.x", "status": "pass", "provenance": "derived", "tolerance": 1e-9,
             "computed": {"max_defect": 1e-16, "mu": [[-2.0, 0.0]]}, "expected": {"max_defect": 0.0}, "detail": ""}
    report = {"name": "c", "summary": {"pass": 1}, "checks": [check]}
    before = {"w/c/1": report, "w/e/1": "config error: x"}
    moved = {"w/c/1": report | {"checks": [check | {"computed": {"max_defect": 3e-16, "mu": [[-2.0, 0.0]]}}]},
             "w/e/1": "config error: x"}
    lines, code = script.compare(before, moved)
    assert code == 0
    assert lines[0] == "largest change arch.x max_defect: 2e-16 at w/c/1"
    assert lines[-1].endswith("0 status, detail or other non-numeric changes, 1 of 2 (check, computed key) pairs moved")
    failed = {"w/c/1": report | {"checks": [check | {"status": "fail", "detail": "ValueError: y"}]}}
    lines, code = script.compare(before, failed)
    assert code == 1
    assert "w/c/1 arch.x: status 'pass' -> 'fail'" in lines
    assert "w/c/1 arch.x: detail '' -> 'ValueError: y'" in lines
    assert "w/e/1: only in before" in lines
    lines, code = script.compare(before, {"w/c/1": report, "w/e/1": report})
    assert (code, lines[0]) == (1, "w/e/1: config error: x -> report")
