#!/usr/bin/env python3
"""Time and peak memory of every check alone, up the rank ladder.

For the gauss (kind A, n = 1, the Gaussian order), basechange (kind A,
n = 2, matrix units over the Gaussian integers, explicit mu = -2) and
siegel (kind C, n = 1, over Z) families, each arch.* and pipeline.*
check runs alone; for the local families A2 (kind A, n = 2, q = 7,
signature (r/2, r/2)) and C2 (kind C, n = 2, q = 5, signature (r, 0)),
each local.* check of the place; for rank (the gauss config), the
global.rank-lemma check over the Gaussian order.  Every family runs at
r = 2, 4, 8, 16, 24, 32 up to `--max-r`, each check alone in a forked
child at 20 samples.  One line per (rung, check) gives the check's
status, the milliseconds `run_checks` took in the child, the child's
peak RSS in MB, read from wait4, and the child's RSS growth over
`run_checks` in MB (RssAnon + RssFile of /proc/self/status after less
before, `-` where that file is absent); the child starts from this
process, which has imported numpy and pelks and built nothing else, so
the peak includes what the child inherits and the growth is what the
check itself touches.

    PYTHONPATH=src python3 scripts/scale_ladder.py --max-r 32 --seed 1

`--family NAME`, repeatable, runs only the named families, in the
order above (`--family A2 --family C2 --family rank` measures the local
half alone).  It exits 1 when a child ends without reporting, and 0
otherwise; a failing check is a finding, printed as FAIL with its
detail.
"""

import argparse
import json
import os
import sys
import time

from pelks.checks import CATALOG, run_checks
from pelks.config import config_from_dict

RANKS = (2, 4, 8, 16, 24, 32)
SAMPLES = 20
ARCH_CHECKS = tuple(row.name for row in CATALOG if row.name.startswith(("arch.", "pipeline.")))
LOCAL_CHECKS = tuple(row.name for row in CATALOG if row.needs == "place")
PLACES = {"A2": ("A", 7), "C2": ("C", 5)}  # kind and residue size of the n = 2 place
FAMILIES = ("gauss", "basechange", "siegel", "A2", "C2", "rank")


def _cx(z):
    return [complex(z).real, complex(z).imag]


def family_checks(family):
    """Names of the checks that `family` runs, one forked child each."""
    if family in PLACES:
        return tuple(f"{name}.q{PLACES[family][1]}" for name in LOCAL_CHECKS)
    if family == "rank":
        return ("global.rank-lemma",)
    return ARCH_CHECKS


def family_config(family, r, seed):
    """The config of one rung: `family` at rank r."""
    if family in PLACES:
        kind, q = PLACES[family]
        place = {"residue_size": q, "conjugation_power": int(kind == "A")}
        signature = [r // 2, r // 2] if kind == "A" else [r, 0]
        return config_from_dict(
            {"name": f"{family}-r{r}", "type": kind, "n": 2, "r": r, "signature": signature,
             "local_places": [place], "samples": SAMPLES, "seed": seed}
        )
    if family == "basechange":
        units = [[[_cx(s if (k, l) == (i, j) else 0) for l in range(2)] for k in range(2)]
                 for s in (1, 1j) for i in range(2) for j in range(2)]
        kind, n, disc, basis, mu = "A", 2, -4, units, [[_cx(-2), _cx(0)], [_cx(0), _cx(-2)]]
    elif family in ("gauss", "rank"):
        kind, n, disc, basis, mu = "A", 1, -4, [[[_cx(1)]], [[_cx(1j)]]], None
    else:
        kind, n, disc, basis, mu = "C", 1, 1, [[[_cx(1)]]], None
    arch = {
        "discriminant": disc,
        "order_basis": basis,
        "mu_mode": "explicit" if mu is not None else "self-dual-auto",
        "mu": mu,
    }
    signature = [r // 2, r // 2] if kind == "A" else [r, 0]
    return config_from_dict(
        {"name": f"{family}-r{r}", "type": kind, "n": n, "r": r, "signature": signature,
         "archimedean": arch, "samples": SAMPLES, "seed": seed}
    )


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
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(out))
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024
    if status != 0 or not data:
        return "crash", f"wait status {status}", float("nan"), rss_mb, None
    check_status, detail, ms, growth = json.loads(data)
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
            for name in family_checks(family):
                status, detail, ms, rss_mb, growth = forked_check(cfg, name)
                crashed |= status == "crash"
                grown = "-" if growth is None else f"{growth:.2f}"
                line = f"{cfg.name:<16} {name:<30} {status.upper():<6} {ms:8.1f} {rss_mb:7.1f} {grown:>6}"
                print(f"{line}  {detail}" if detail else line, flush=True)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
