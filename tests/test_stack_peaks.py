"""`scripts/stack_peaks.py`: each row names a config, and one small row
runs through the script's own two functions, untraced and traced, in
this process."""

import importlib
import time
from pathlib import Path

from pelks.config import config_from_dict

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_a_small_row_reports_its_growth_and_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    script = importlib.import_module("stack_peaks")
    digests = importlib.import_module("report_digests")
    for name, samples in script.ROWS:
        assert config_from_dict(script.row_config(name, samples)).samples == samples
    cfg = script.row_config("unitary-A", 20)
    start = time.perf_counter()
    growth, digest = script.row_peak(cfg)
    assert time.perf_counter() - start < 0.5
    assert growth is None or growth >= 0.0
    assert digest == digests.digest(cfg, script.ONLY)
    start = time.perf_counter()
    traced, traced_digest = script.row_traced(cfg)
    assert time.perf_counter() - start < 0.5
    assert traced > 0.0
    assert traced_digest == digest
