#!/usr/bin/env python3
"""Time and peak memory of every check alone, up the rank ladder.

Each family grows from one benchmark rung (perfbench/workloads.py,
imported read-only), whose name, r, signature and seed it replaces.
gauss (gauss-r2), basechange (basechange-r2) and siegel (siegel-r2) run
each arch.* and pipeline.* check alone, A2 (A2-p1-q7, signature
(r/2, r/2)) and C2 (C2-r2-q5, signature (r, 0)) each local.* check of
their place, and rank (rank-D4-p1, the gauss config) the
global.rank-lemma check.  Every family runs at r = 2, 4, 8, 16, 24, 32
up to `--max-r`, each check alone in a forked child at its rung's 20
samples.  One line per (rung, check) gives the check's status, the
milliseconds `run_checks` took in the child, the child's peak RSS in MB,
read from wait4, and the child's RSS growth over `run_checks` in MB
(RssAnon + RssFile of /proc/self/status after less before, `-` where
that file is absent); the child starts from this process, which has
imported numpy and pelks and parsed the rung's config, so the peak
includes what the child inherits and the growth is what the check
itself touches.  Parsing builds the config's order embedding
(`InstanceConfig.embedding`), so a child's ms and growth do not
include that build.

    PYTHONPATH=src python3 scripts/scale_ladder.py --max-r 32 --seed 1

`--family NAME`, repeatable, runs only the named families, in the
order above (`--family A2 --family C2 --family rank` measures the local
half alone).  A child that raises is printed as CRASH with its
exception, `<Type>: <message>`; the script exits 1 when a child raised
or ended without reporting, and 0 otherwise.  A failing check is a
finding, printed as FAIL with its detail.
"""

import argparse
import json
import os
import sys
import time

from pelks.checks import CATALOG, run_checks
from pelks.config import config_from_dict
from report_digests import named_config

RANKS = (2, 4, 8, 16, 24, 32)
ARCH_CHECKS = tuple(row.name for row in CATALOG if row.name.startswith(("arch.", "pipeline.")))
LOCAL_CHECKS = tuple(row.name for row in CATALOG if row.needs == "place")
# the benchmark rung (perfbench/workloads.py) that each family grows from
FAMILIES = {"gauss": "gauss-r2", "basechange": "basechange-r2", "siegel": "siegel-r2",
            "A2": "A2-p1-q7", "C2": "C2-r2-q5", "rank": "rank-D4-p1"}


def family_checks(family, cfg):
    """Names of the checks that `family` runs on `cfg`, one forked child each."""
    if cfg.local_places:
        return tuple(f"{name}.q{place.residue_size}" for place in cfg.local_places for name in LOCAL_CHECKS)
    if family == "rank":
        return ("global.rank-lemma",)
    return ARCH_CHECKS


def family_config(family, r, seed):
    """The config of one rung: `family`'s benchmark rung at rank r."""
    rung = named_config(FAMILIES[family])
    signature = [r // 2, r // 2] if rung["type"] == "A" else [r, 0]
    return config_from_dict(rung | {"name": f"{family}-r{r}", "r": r, "signature": signature, "seed": seed})


def resident_kb():
    """RssAnon + RssFile of this process in kB, or None where
    /proc/self/status is absent or lacks them."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            fields = dict(line.split(":", 1) for line in status)
        return sum(int(fields[key].split()[0]) for key in ("RssAnon", "RssFile"))
    except (OSError, KeyError, ValueError):
        return None


def forked_check(cfg, name):
    """(status, detail, ms, peak RSS MB, RSS growth MB or None) of check
    `name` run alone in a forked child; status "crash" when the child
    raised, with the exception as `<Type>: <message>` for detail, or
    reported nothing."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            before = resident_kb()
            start = time.perf_counter()
            (entry,) = run_checks(cfg, only=name)["checks"]
            ms = 1e3 * (time.perf_counter() - start)
            after = resident_kb()
            growth = None if before is None or after is None else (after - before) / 1024
            out = [entry["status"], entry["detail"], ms, growth]
        except BaseException as exc:  # the child reports every failure and exits
            out = f"{type(exc).__name__}: {exc}"
        try:
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(out))
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024
    out = json.loads(data) if status == 0 and data else f"wait status {status}"
    if isinstance(out, str):
        return "crash", out, float("nan"), rss_mb, None
    check_status, detail, ms, growth = out
    return check_status, detail, ms, rss_mb, growth


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-r", type=int, default=32, help="largest rank to run (default 32)")
    parser.add_argument("--seed", type=int, default=1, help="config seed of every rung (default 1)")
    parser.add_argument(
        "--family", action="append", choices=FAMILIES, metavar="NAME",
        help=f"run only this family; repeatable (default: all of {', '.join(FAMILIES)})",
    )
    args = parser.parse_args(argv)
    crashed = False
    print(f"{'rung':<16} {'check':<30} {'status':<6} {'ms':>8} {'MB':>7} {'dMB':>6}")
    for family in (f for f in FAMILIES if args.family is None or f in args.family):
        for r in (r for r in RANKS if r <= args.max_r):
            cfg = family_config(family, r, args.seed)
            for name in family_checks(family, cfg):
                status, detail, ms, rss_mb, growth = forked_check(cfg, name)
                crashed |= status == "crash"
                grown = "-" if growth is None else f"{growth:.2f}"
                line = f"{cfg.name:<16} {name:<30} {status.upper():<6} {ms:8.1f} {rss_mb:7.1f} {grown:>6}"
                print(f"{line}  {detail}" if detail else line, flush=True)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
