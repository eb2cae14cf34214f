#!/usr/bin/env python3
"""Time the local checks of two pelks source trees against each other, in one process.

    python3 scripts/ab_local.py PARENT_SRC CHANGE_SRC [--rounds N]

Each SRC is a directory holding a `pelks` package (a checkout's `src`).
Both packages are copied into a temporary directory as `pelks_parent`
and `pelks_change`, each with an empty `__init__.py`: the modules import
each other relatively, so the two copies load side by side, without the
CLI or the check catalog.

The work is the local half of the benchmark's local-ladder
(perfbench/workloads.py): quotient_structure and image_exponent on its
21 A2/C2 places, and global_rank_lemma on its 8 rank-lemma rungs.  An
untimed first round builds the fields and checks that both sides
return the same results; a difference exits 1.  Each timed round then
runs each side once, the order alternating, with the relation cache
cleared.  Separate processes on a shared machine can differ by tens of
percent on the same code, so both sides run in one process, round by
round, and are compared pairwise.  Prints min, p25 and median of the
round times per side, in ms, and in how many rounds each side was the
faster.
"""

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
PLACES = (
    [("A", 2, q, (p, p), 1) for q in (3, 5, 7) for p in (1, 2, 3)]
    + [("C", 2, q, (r, 0), 0) for q in (2, 3, 5) for r in (1, 2, 3, 4)]
)  # (kind, n, residue size, signature, conjugation power)
RANK_RUNGS = [(p, p, d) for d in (-3, -4) for p in (1, 2, 3, 4)]


def load(src, name, tmp):
    """(pel_modules, cyclic_algebra) of the `pelks` package under `src`, imported as `name`."""
    target = Path(tmp) / name
    shutil.copytree(Path(src) / "pelks", target, ignore=shutil.ignore_patterns("__pycache__", "fixtures"))
    (target / "__init__.py").write_text("")
    return importlib.import_module(f"{name}.pel_modules"), importlib.import_module(f"{name}.cyclic_algebra")


def local_work(pel_modules, cyclic_algebra):
    """A function running both local checks on every place and the rank
    lemma on every rung, returning their results."""
    places = [
        (cyclic_algebra.CyclicAlgebraDescriptor(n=n, residue_size=q, conjugation_power=s), signature, kind)
        for kind, n, q, signature, s in PLACES
    ]
    cache = getattr(pel_modules, "_local_system", None)

    def run():
        if cache is not None:
            cache.cache_clear()
        out = []
        for desc, signature, kind in places:
            out.append(pel_modules.quotient_structure(desc, signature, kind))
            out.append(pel_modules.image_exponent(desc, signature, kind))
        out += [pel_modules.global_rank_lemma(*rung) for rung in RANK_RUNGS]
        return out

    return run


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src", help="src directory of the parent tree")
    parser.add_argument("change_src", help="src directory of the changed tree")
    parser.add_argument("--rounds", type=int, default=50, help="timed rounds (at least 2)")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds needs at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        work = {}
        for side, src in zip(SIDES, (args.parent_src, args.change_src)):
            work[side] = local_work(*load(src, f"pelks_{side}", tmp))
        if work["parent"]() != work["change"]():
            print("the two trees return different local results", file=sys.stderr)
            return 1
        times = {side: [] for side in SIDES}
        for k in range(args.rounds):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                start = time.perf_counter()
                work[side]()
                times[side].append(time.perf_counter() - start)
    print(f"{'side':8s} {'min_ms':>8s} {'p25_ms':>8s} {'median_ms':>10s}")
    for side in SIDES:
        t = times[side]
        p25 = statistics.quantiles(t, n=4, method="inclusive")[0]
        print(f"{side:8s} {1e3 * min(t):8.2f} {1e3 * p25:8.2f} {1e3 * statistics.median(t):10.2f}")
    pairs = list(zip(times["parent"], times["change"]))
    print(f"change faster in {sum(b < a for a, b in pairs)} of {args.rounds} rounds, parent in {sum(a < b for a, b in pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
