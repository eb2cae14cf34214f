#!/usr/bin/env python3
"""Time two pelks source trees against each other, in one process.

    python3 scripts/ab_trees.py PARENT_SRC CHANGE_SRC [--rounds N]

Each SRC is a directory holding a `pelks` package (a checkout's `src`).
Both packages are copied into a temporary directory as `pelks_parent`
and `pelks_change`, each with an empty `__init__.py`: the modules import
each other relatively, so the two copies load side by side, without the
CLI.

Two tables time the verdicts the benchmark runs (perfbench/workloads.py,
imported read-only), each `config_from_dict` and then `run_checks` with
the rung's `--only`: local, every local-ladder rung; arch, every
arch-ladder rung and the archimedean fixtures, which each side reads
from its own package.  The rungs run at the config seed of the
benchmark's first pass at benchmark seed 1.  Each run starts cold, with
every `lru_cache` of its side cleared, so it builds its field tables and
relation systems again, as a forked verdict does.

An untimed first round compares the two sides.  The arch reports (minus
`timing`) go through `scripts/report_digests.py`'s `compare`: a status,
detail or other non-numeric difference exits 1, and when only numbers
moved, the largest move of each (check, computed key) is printed and
the timing goes on.  The local reports must be equal.  Each timed round
then runs each side once, the order alternating.  Separate processes on
a shared machine can differ by tens of percent on the same code, so
both sides run in one process, round by round, and are compared
pairwise.  Prints, per table, min, p25 and median of the round times
per side, in ms, and in how many rounds each side was the faster.
"""

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

from report_digests import arch_fixtures, build_workload, compare as compare_reports

SIDES = ("parent", "change")


def load(src, name, tmp):
    """The `pelks` package under `src`, imported as `name`."""
    target = Path(tmp) / name
    shutil.copytree(Path(src) / "pelks", target, ignore=shutil.ignore_patterns("__pycache__"))
    (target / "__init__.py").write_text("")
    return target


def verdicts(package):
    """{table: [(config, only)]}: the local-ladder rungs, and the
    arch-ladder rungs with the archimedean fixtures of `package`."""

    def ladder(name):
        return [(cfg, rung.only) for rung, cfg in build_workload(name, seed=1, fixture_dir=None).pass_configs(0)]

    fixtures = [(rung.config, rung.only) for rung in arch_fixtures(package / "fixtures")]
    return {"local": ladder("local-ladder"), "arch": ladder("arch-ladder") + fixtures}


def runner(name, cases):
    """A function running every (config, only) of `cases` as a verdict of
    the package `name`, returning the reports minus `timing`, keyed by
    config name."""
    checks = importlib.import_module(f"{name}.checks")
    config = importlib.import_module(f"{name}.config")

    def run():
        out = {}
        for cfg, only in cases:
            report = checks.run_checks(config.config_from_dict(cfg), only=only)
            report.pop("timing")
            out[cfg["name"]] = report
        return out

    return run


def clear_caches(name):
    """Clear every `lru_cache` in the modules of the package `name`."""
    for module in [module for key, module in sys.modules.items() if key.startswith(f"{name}.")]:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def differences(tables, cold):
    """(lines, exit code) of the untimed round: the arch reports are
    compared as `report_digests.compare` compares two dumps, where moved
    numbers alone exit 0; the local reports must be equal.  No lines when
    the two sides agree exactly."""
    reports = {title: {} for title in tables}
    for title, work in tables.items():
        for side in SIDES:
            cold[side]()
            reports[title][side] = work[side]()
    lines, code = compare_reports(reports["arch"]["parent"], reports["arch"]["change"])
    if code:
        return ["the two trees return different arch reports:", *lines], 1
    if reports["local"]["parent"] != reports["local"]["change"]:
        local, _ = compare_reports(reports["local"]["parent"], reports["local"]["change"])
        return ["the two trees return different local reports:", *local], 1
    # the last line only counts; any line before it names a number that moved
    return (["only numbers moved in the arch reports:", *lines] if len(lines) > 1 else []), 0


def compare(title, work, rounds, cold):
    """Time `work[side]` for `rounds` alternating rounds, each run after
    `cold[side]`, and print the table."""
    times = {side: [] for side in SIDES}
    for k in range(rounds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            cold[side]()
            start = time.perf_counter()
            work[side]()
            times[side].append(time.perf_counter() - start)
    print(title)
    print(f"{'side':8s} {'min_ms':>8s} {'p25_ms':>8s} {'median_ms':>10s}")
    for side in SIDES:
        t = times[side]
        p25 = statistics.quantiles(t, n=4, method="inclusive")[0]
        print(f"{side:8s} {1e3 * min(t):8.2f} {1e3 * p25:8.2f} {1e3 * statistics.median(t):10.2f}")
    pairs = list(zip(times["parent"], times["change"]))
    print(f"change faster in {sum(b < a for a, b in pairs)} of {rounds} rounds, parent in {sum(a < b for a, b in pairs)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src", help="src directory of the parent tree")
    parser.add_argument("change_src", help="src directory of the changed tree")
    parser.add_argument("--rounds", type=int, default=50, help="timed rounds per table (at least 2)")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds needs at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        tables, cold = {"local": {}, "arch": {}}, {}
        for side, src in zip(SIDES, (args.parent_src, args.change_src)):
            name = f"pelks_{side}"
            package = load(src, name, tmp)
            for title, cases in verdicts(package).items():
                tables[title][side] = runner(name, cases)
            cold[side] = partial(clear_caches, name)
        lines, code = differences(tables, cold)
        for line in lines:
            print(line, file=sys.stderr if code else sys.stdout)
        if code:
            return 1
        for title, work in tables.items():
            compare(title, work, args.rounds, cold)
    return 0


if __name__ == "__main__":
    sys.exit(main())
