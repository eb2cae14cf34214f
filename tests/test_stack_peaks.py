"""`scripts/stack_peaks.py`: each row names a config, and one small row
runs through the script's own two functions, untraced and traced, in
this process."""

import time

import report_digests
import stack_peaks as script
from pelks.config import config_from_dict
from report_digests import named_config


def test_a_small_row_reports_its_growth_and_digest():
    for name, samples in script.ROWS:
        assert config_from_dict(named_config(name, samples=samples)).samples == samples
    cfg = named_config("unitary-A", samples=20)
    start = time.perf_counter()
    growth, digest = script.row_peak(cfg)
    assert time.perf_counter() - start < 0.5
    assert growth is None or growth >= 0.0
    assert digest == report_digests.digest(cfg, script.ONLY)
    start = time.perf_counter()
    traced, traced_digest = script.row_traced(cfg)
    assert time.perf_counter() - start < 0.5
    assert traced > 0.0
    assert traced_digest == digest
