"""Puts `scripts/` and `perfbench/` on the import path, so that tests
import the scripts and the benchmark's workloads by name."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path += [str(ROOT / "scripts"), str(ROOT / "perfbench")]
