#!/usr/bin/env python3
"""Print the peak memory that the sampled checks add, on a fixed table of configs.

Each line reads `<row> <samples> <growth MB> <traced MB> <sha256>`.
For every row a fresh interpreter imports pelks and runs
`run_checks(cfg, only="[ap]*")`; the growth is the VmHWM of
/proc/self/status after the run less the VmRSS just before it, `-`
where that file is absent, and the sha256 is the report minus
`timing`, hashed as `scripts/report_digests.py` hashes it.  The growth
also moves with how much freed heap glibc keeps, so a second fresh
interpreter runs the same call under `tracemalloc`, and the traced
column is the largest total that Python and numpy held during it.  The
first interpreter runs untraced, so tracing cannot inflate its growth;
the two must give the same digest, or the script stops with exit 1.  The rows are the fixtures
basechange-A, siegel-C and unitary-A and the arch-ladder rung gauss-r2
at 10000 samples, the rungs siegel-r8 and basechange-r6 at 2000, and
gauss-r8 at 5000, each at the seed its config names (perfbench/workloads.py,
imported read-only).

Two source trees are compared through PYTHONPATH:

    PYTHONPATH=src python3 scripts/stack_peaks.py > after.txt
    PYTHONPATH=/path/to/parent/src python3 scripts/stack_peaks.py > before.txt
    diff before.txt after.txt
"""

import multiprocessing
import tracemalloc

import pelks.checks  # noqa: F401  (imported before any row runs, so neither column counts the import)
from report_digests import hashed, named_config, report

ONLY = "[ap]*"
ROWS = (
    ("basechange-A", 10_000),
    ("siegel-C", 10_000),
    ("unitary-A", 10_000),
    ("gauss-r2", 10_000),
    ("siegel-r8", 2000),
    ("basechange-r6", 2000),
    ("gauss-r8", 5000),
)


def status_mb(key):
    """A field of /proc/self/status in MB, or None where that file is absent."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            fields = dict(line.split(":", 1) for line in status)
    except OSError:
        return None
    return int(fields[key].split()[0]) / 1024


def row_peak(cfg):
    """(VmHWM growth in MB or None, report digest) of the sampled checks
    of `cfg`, run in this process."""
    before = status_mb("VmRSS")
    out = report(cfg, ONLY)
    after = status_mb("VmHWM")
    return None if before is None or after is None else after - before, hashed(out)


def row_traced(cfg):
    """(traced peak in MB, report digest) of the sampled checks of `cfg`,
    run in this process under tracemalloc."""
    tracemalloc.start()
    try:
        out = report(cfg, ONLY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, hashed(out)


def fresh(run, cfg):
    """`run(cfg)` in a fresh interpreter."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(run, (cfg,))


def main():
    for name, samples in ROWS:
        cfg = named_config(name, samples=samples)
        growth, digest = fresh(row_peak, cfg)
        traced, traced_digest = fresh(row_traced, cfg)
        if traced_digest != digest:
            raise SystemExit(f"{name}: the traced run gives another report")
        print(f"{name} {samples} {'-' if growth is None else f'{growth:.1f}'} {traced:.1f} {digest}", flush=True)


if __name__ == "__main__":
    main()
