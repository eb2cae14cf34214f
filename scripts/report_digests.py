#!/usr/bin/env python3
"""Print one sha256 per benchmark config: the report minus its `timing`.

Each line reads `<workload>/<rung>/<seed> <sha256>`.  The configs are
the benchmark's (perfbench/workloads.py, imported read-only): the four
fixtures at each of their pool seeds and every local-ladder and
arch-ladder rung with its `--only` glob, at benchmark seed 1.  The
`edge` workload adds five configs off the happy path: an unresolvable
base lattice, a non-unimodular explicit mu, GF(67^2) over the field
cap, an unbalanced local-only instance, and a kind-A n = 3 local-only
instance at q = 2.  A config error is hashed as its `config error:`
message.

Reports are deterministic up to `timing`, so two source trees give the
same reports exactly when their outputs match:

    PYTHONPATH=src python3 scripts/report_digests.py > after.txt
    PYTHONPATH=/path/to/parent/src python3 scripts/report_digests.py > before.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, build_workload  # noqa: E402

from pelks.checks import run_checks  # noqa: E402
from pelks.config import ConfigInvalid, config_from_dict  # noqa: E402


def _unitary(**over):
    cfg = json.loads((resources.files("pelks") / "fixtures" / "unitary-A.json").read_text())
    return cfg | over


def edge_configs():
    """(name, config) pairs that take the refusal and failure paths."""
    arch = _unitary()["archimedean"]
    return [
        # 1e-13 i passes the order checks but embeds real-dependently
        ("unresolvable-lattice", _unitary(archimedean=arch | {"order_basis": [[[[1, 0]]], [[[0, 1e-13]]]]})),
        ("explicit-mu-not-unimodular", _unitary(archimedean=arch | {"mu_mode": "explicit", "mu": [[[-1, 0]]]})),
        ("gf67-over-cap", _unitary(type="C", n=2, signature=[2, 0], local_places=[{"residue_size": 67}], archimedean=None)),
        ("unbalanced-local-only", _unitary(r=3, signature=[2, 1], local_places=[{"residue_size": 5, "conjugation_power": 1}], archimedean=None)),
        # pins the n > 2 refusal of the local quotient (ROADMAP item 7)
        ("cubic-local-only", _unitary(n=3, local_places=[{"residue_size": 2}], archimedean=None)),
    ]


def workload_configs(name):
    """(rung, config, only) triples of one workload at benchmark seed 1."""
    if name == "edge":
        return [(rung, cfg, None) for rung, cfg in edge_configs()]
    workload = build_workload(name, seed=1, fixture_dir=resources.files("pelks") / "fixtures")
    return [
        (rung.name, dict(rung.config, seed=config_seed), rung.only)
        for config_seed in workload.seed_pool
        for rung in workload.rungs
    ]


def digest(cfg, only):
    try:
        report = run_checks(config_from_dict(cfg), only=only)
    except ConfigInvalid as exc:
        return hashlib.sha256(f"config error: {exc}".encode()).hexdigest()
    report.pop("timing")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "edge", "all"), default="all")
    args = parser.parse_args()
    names = (*WORKLOADS, "edge") if args.workload == "all" else (args.workload,)
    for name in names:
        for rung, cfg, only in workload_configs(name):
            print(f"{name}/{rung}/{cfg.get('seed', 0)} {digest(cfg, only)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
