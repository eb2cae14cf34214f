#!/usr/bin/env python3
"""Run every packaged fixture and print one summary line each.

The fixtures are the JSON files in the installed `pelks/fixtures`
directory, the same ones `pelks fixtures list` shows.

Handy before a release: `python3 scripts/run_all_fixtures.py --report-dir
/tmp/reports` leaves one JSON report per fixture next to the console
summary.  Exits 1 if any check failed anywhere.
"""

import argparse
import json
import pathlib
import sys
from importlib import resources

from pelks.checks import run_checks
from pelks.config import config_from_dict, with_overrides


def fixture_configs():
    """The packaged fixture configs, in file-name order."""
    entries = sorted((resources.files("pelks") / "fixtures").iterdir(), key=lambda e: e.name)
    return [
        config_from_dict(json.loads(e.read_text())) for e in entries if e.name.endswith(".json")
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--report-dir", default=None)
    args = parser.parse_args()

    failures = 0
    for cfg in fixture_configs():
        name = cfg.name
        cfg = with_overrides(cfg, seed=args.seed, samples=args.samples)
        report = run_checks(cfg)
        s = report["summary"]
        failures += s["fail"]
        print(
            f"{name:14s} {s['pass']:3d} pass {s['fail']:3d} fail "
            f"{s['skip']:3d} skip   {report['timing']['total_seconds']:.2f}s"
        )
        for check in report["checks"]:
            if check["status"] == "fail":
                print(f"    FAIL {check['name']}: {check['detail']}")
        if args.report_dir:
            out = pathlib.Path(args.report_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{name}.json"
            path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
