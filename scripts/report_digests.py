#!/usr/bin/env python3
"""Print one sha256 per benchmark config: the report minus its `timing`.

Each line reads `<workload>/<rung>/<seed> <sha256>`.  The configs are
the benchmark's (perfbench/workloads.py, imported read-only): the four
fixtures at each of their pool seeds and every local-ladder and
arch-ladder rung with its `--only` glob, at benchmark seed 1.  The
`edge` workload adds seven configs off the happy path: an unresolvable
base lattice, a non-unimodular explicit mu, a singular explicit mu,
GF(67^2) over the field cap, an unbalanced local-only instance, a
kind-A n = 3 local-only instance at q = 2, and kind-C archimedean data
at n = 2.  A config error is hashed as its `config error:`
message.  `named_config` looks up any of these configs by name (a
fixture, a rung or an edge config) for the other scripts and the tests,
which keep no copies of them.

Reports are deterministic up to `timing`, so two source trees give the
same reports exactly when their outputs match:

    PYTHONPATH=src python3 scripts/report_digests.py > after.txt
    PYTHONPATH=/path/to/parent/src python3 scripts/report_digests.py > before.txt
    diff before.txt after.txt

When they do not, `--dump FILE` writes the reports themselves (minus
`timing`; a config error as its message), keyed like the digest lines,
and `--compare BEFORE AFTER` says what moved between two dumps: every
status or detail change, every config in only one dump, and the largest
absolute change of each (check, computed key) over all configs.  It
exits 1 when a status, a detail, a non-numeric value or the config set
changed, and 0 when at most numbers moved:

    PYTHONPATH=/path/to/parent/src python3 scripts/report_digests.py --dump before.json
    PYTHONPATH=src python3 scripts/report_digests.py --dump after.json
    PYTHONPATH=src python3 scripts/report_digests.py --compare before.json after.json
"""

import argparse
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, build_workload  # noqa: E402


def _fixture_dir():
    return resources.files("pelks") / "fixtures"


def arch_fixtures(fixture_dir=None):
    """The fixture rungs with archimedean data, from `fixture_dir` or the packaged fixtures."""
    fixtures = build_workload("fixtures", seed=1, fixture_dir=fixture_dir or _fixture_dir()).rungs
    return [rung for rung in fixtures if rung.config.get("archimedean")]


def named_config(name, **over):
    """The config of the fixture, benchmark rung or edge config `name`, with `over` replacing fields."""
    configs = {rung.name: rung.config for w in WORKLOADS for rung in build_workload(w, seed=1, fixture_dir=_fixture_dir()).rungs}
    return (configs.get(name) or dict(edge_configs())[name]) | over


def _unitary(**over):
    return named_config("unitary-A", **over)


def edge_configs():
    """(name, config) pairs that take the refusal and failure paths."""
    arch = _unitary()["archimedean"]
    # kind-C archimedean data over the matrix units of M_2(Z)
    units = [[[[float(i == a and j == b), 0] for j in range(2)] for i in range(2)] for a in range(2) for b in range(2)]
    return [
        # 1e-13 i passes the order checks but embeds real-dependently
        ("unresolvable-lattice", _unitary(archimedean=arch | {"order_basis": [[[[1, 0]]], [[[0, 1e-13]]]]})),
        ("explicit-mu-not-unimodular", _unitary(archimedean=arch | {"mu_mode": "explicit", "mu": [[[-1, 0]]]})),
        # the mu-dependent checks fail on the refusal; they are not skipped
        ("explicit-mu-singular", _unitary(archimedean=arch | {"mu_mode": "explicit", "mu": [[[0, 0]]]})),
        ("gf67-over-cap", _unitary(type="C", n=2, signature=[2, 0], local_places=[{"residue_size": 67}], archimedean=None)),
        ("unbalanced-local-only", _unitary(r=3, signature=[2, 1], local_places=[{"residue_size": 5, "conjugation_power": 1}], archimedean=None)),
        # pins the n > 2 refusal of the local quotient (ROADMAP item 7)
        ("cubic-local-only", _unitary(n=3, local_places=[{"residue_size": 2}], archimedean=None)),
        # pins the config-time refusal of kind C at n > 1 (ROADMAP item 17)
        ("siegel-n2-refused", _unitary(type="C", n=2, signature=[2, 0], local_places=[], archimedean=arch | {"discriminant": 1, "order_basis": units})),
    ]


def workload_configs(name):
    """(rung, config, only) triples of one workload at benchmark seed 1."""
    if name == "edge":
        return [(rung, cfg, None) for rung, cfg in edge_configs()]
    workload = build_workload(name, seed=1, fixture_dir=_fixture_dir())
    return [
        (rung.name, dict(rung.config, seed=config_seed), rung.only)
        for config_seed in workload.seed_pool
        for rung in workload.rungs
    ]


def report(cfg, only):
    """The report minus `timing`, or the `config error:` message."""
    # imported here, so that `compare` runs without pelks on the path
    from pelks.checks import run_checks
    from pelks.config import ConfigInvalid, config_from_dict

    try:
        out = run_checks(config_from_dict(cfg), only=only)
    except ConfigInvalid as exc:
        return f"config error: {exc}"
    out.pop("timing")
    return out


def hashed(out):
    """The sha256 of a `report`: of the report's json, or of the message."""
    text = out if isinstance(out, str) else json.dumps(out, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest(cfg, only):
    return hashed(report(cfg, only))


def _leaves(value, path=""):
    """{path: leaf} of a computed value, its lists unrolled by index."""
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value) for k, v in _leaves(item, f"{path}[{i}]").items()}
    return {path: value}


def _moved(before, after):
    """|after - before| of two leaves, 0.0 when they are equal (a NaN
    equals a NaN); None when they differ and are not both numbers."""
    if before == after or (before != before and after != after):
        return 0.0
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (before, after)):
        return abs(after - before)
    return None


def compare(before, after):
    """The lines `--compare` prints for two dumps, and its exit code."""
    changes, largest = [], {}
    for key in sorted(before.keys() | after.keys()):
        if key not in before or key not in after:
            changes.append(f"{key}: only in {'before' if key in before else 'after'}")
            continue
        old, new = before[key], after[key]
        if isinstance(old, str) or isinstance(new, str):  # a config error
            if old != new:
                changes.append(f"{key}: {old if isinstance(old, str) else 'report'} -> {new if isinstance(new, str) else 'report'}")
            continue
        if {k: v for k, v in old.items() if k != "checks"} != {k: v for k, v in new.items() if k != "checks"}:
            changes.append(f"{key}: summary or header changed")
        old_checks = {c["name"]: c for c in old["checks"]}
        new_checks = {c["name"]: c for c in new["checks"]}
        for name in sorted(old_checks.keys() | new_checks.keys()):
            a, b = old_checks.get(name, {}), new_checks.get(name, {})
            for field in ("status", "detail", "provenance", "tolerance", "expected"):
                if a.get(field) != b.get(field):
                    changes.append(f"{key} {name}: {field} {a.get(field)!r} -> {b.get(field)!r}")
            computed_a, computed_b = a.get("computed") or {}, b.get("computed") or {}
            for item in sorted(computed_a.keys() | computed_b.keys()):
                leaves_a, leaves_b = _leaves(computed_a.get(item)), _leaves(computed_b.get(item))
                moved = [_moved(leaves_a[k], leaves_b[k]) for k in leaves_a if k in leaves_b]
                if leaves_a.keys() != leaves_b.keys() or None in moved:
                    changes.append(f"{key} {name}: computed {item} {computed_a.get(item)!r} -> {computed_b.get(item)!r}")
                    continue
                worst = max(moved, default=0.0)
                if (name, item) not in largest or worst > largest[(name, item)][0]:
                    largest[(name, item)] = (worst, key)
    lines = changes + [
        f"largest change {name} {item}: {worst:.3g} at {key}"
        for (name, item), (worst, key) in sorted(largest.items())
        if worst
    ]
    moved = sum(1 for worst, _ in largest.values() if worst)
    lines.append(
        f"{len(before.keys() & after.keys())} configs in both dumps, {len(changes)} status, detail or "
        f"other non-numeric changes, {moved} of {len(largest)} (check, computed key) pairs moved"
    )
    return lines, 1 if changes else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "edge", "all"), default="all")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--dump", metavar="FILE", help="write the reports of the selected configs to FILE")
    mode.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two dumps")
    args = parser.parse_args()
    if args.compare:
        before, after = (json.loads(Path(path).read_text()) for path in args.compare)
        lines, code = compare(before, after)
        print("\n".join(lines))
        return code
    names = (*WORKLOADS, "edge") if args.workload == "all" else (args.workload,)
    configs = [(f"{name}/{rung}/{cfg.get('seed', 0)}", cfg, only) for name in names for rung, cfg, only in workload_configs(name)]
    if args.dump:
        Path(args.dump).write_text(json.dumps({key: report(cfg, only) for key, cfg, only in configs}, sort_keys=True, indent=1))
        return 0
    for key, cfg, only in configs:
        print(f"{key} {digest(cfg, only)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
