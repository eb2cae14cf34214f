"""Command line front end.

  pelks run --config <path or fixture name> [--report out.json]
            [--seed N] [--samples N] [--only GLOB]
  pelks fixtures list
  pelks explain <check-name>

Exit codes: 0 when every executed check passes (skips are fine), 1 when
at least one check fails, 2 on configuration or usage errors, including a
report path that cannot be written.
"""

import argparse
import json
import sys
import textwrap
from importlib import resources
from pathlib import Path

from .checks import EXPLANATIONS, explain, run_checks
from .config import ConfigInvalid, config_from_dict, load_config, with_overrides


def _fixture_dir():
    return resources.files("pelks") / "fixtures"


def resolve_config(spec):
    """A filesystem path, or the name of a packaged fixture."""
    path = Path(spec)
    if path.exists():
        return load_config(path)
    name = spec if spec.endswith(".json") else spec + ".json"
    candidate = _fixture_dir() / name
    if candidate.is_file():
        return config_from_dict(json.loads(candidate.read_text()))
    raise ConfigInvalid(f"no such config file or fixture: {spec}")


def _fmt_num(v):
    if isinstance(v, int):  # bool included
        return str(v)
    if v == 0:
        return "0"
    return f"{v:.6g}" if 1e-3 <= abs(v) < 1e6 else f"{v:.3e}"


def _brief(chk):
    if chk["status"] == "skip":
        return chk["detail"]
    bits = []
    for key, val in (chk["computed"] or {}).items():
        if isinstance(val, (bool, int, float)):
            bits.append(f"{key}={_fmt_num(val)}")
        if len(bits) == 3:
            break
    text = " ".join(bits)
    if chk["status"] == "fail" and chk["detail"]:
        text = f"{text} {chk['detail']}".strip()
    return text


def _cmd_run(args):
    try:
        cfg = resolve_config(args.config)
        cfg = with_overrides(cfg, seed=args.seed, samples=args.samples)
        report = run_checks(cfg, only=args.only)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not report["checks"]:
        print(f"no checks match --only {args.only!r}", file=sys.stderr)
        return 2
    for chk in report["checks"]:
        tag = "" if chk["status"] == "skip" else f" [{chk['provenance']}]"
        print(f"{chk['status'].upper():<5} {chk['name']:<32} {_brief(chk)}{tag}")
    s = report["summary"]
    print(
        f"{s['pass']} passed, {s['fail']} failed, {s['skip']} skipped "
        f"({cfg.name}, seed {cfg.seed}, samples {cfg.samples})"
    )
    if args.report:
        try:
            Path(args.report).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
        except OSError as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 2
        print(f"report written to {args.report}")
    return 1 if s["fail"] else 0


def _cmd_fixtures(args):
    rows = []
    for entry in sorted(_fixture_dir().iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        data = json.loads(entry.read_text())
        rows.append(
            (
                data.get("name", entry.name),
                f"{data.get('type', '?')} n={data.get('n', '?')} r={data.get('r', '?')}",
                data.get("description", ""),
            )
        )
    for name, shape, desc in rows:
        print(f"{name:<14} {shape:<12} {desc}")
    return 0


def _cmd_explain(args):
    text = explain(args.check)
    if text is None:
        known = ", ".join(sorted(EXPLANATIONS))
        print(f"unknown check '{args.check}'; known: {known}", file=sys.stderr)
        return 2
    print(textwrap.fill(text, width=78))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pelks",
        description=(
            "Recompute, at desk scale, the explicit constants of a PEL "
            "instance: image-ideal exponents at finite places and the "
            "archimedean metric comparison through the period lattice."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run the check catalog for one instance")
    run_p.add_argument("--config", required=True, help="config path or fixture name")
    run_p.add_argument("--report", help="write the JSON report here")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--samples", type=int, help="override the sample count")
    run_p.add_argument("--only", help="glob filter on check names")

    fix_p = sub.add_parser("fixtures", help="packaged example instances")
    fix_p.add_argument("action", choices=["list"])

    exp_p = sub.add_parser("explain", help="what a check verifies")
    exp_p.add_argument("check")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "fixtures":
        return _cmd_fixtures(args)
    if args.command == "explain":
        return _cmd_explain(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
