"""The exact half's reports, pinned by digest.

`local_report_digests.txt` holds the `scripts/report_digests.py` lines
of every local-ladder rung and of the three local-only edge configs.
Those reports hold only integers, strings and bools, so their digests
do not depend on BLAS or the CPU; the archimedean and fixture digests
carry floats and stay a manual diff between two trees.  A change that
alters a local report on purpose regenerates the file:

    PYTHONPATH=src python3 scripts/report_digests.py --workload local-ladder > tests/local_report_digests.txt
    PYTHONPATH=src python3 scripts/report_digests.py --workload edge \\
        | grep -E 'gf67-over-cap|unbalanced-local-only|cubic-local-only' >> tests/local_report_digests.txt
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "local_report_digests.txt"
LOCAL_EDGES = ("gf67-over-cap", "unbalanced-local-only", "cubic-local-only")


def _report_digests():
    spec = importlib.util.spec_from_file_location("report_digests", ROOT / "scripts" / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_local_reports_match_their_pinned_digests():
    script = _report_digests()
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
