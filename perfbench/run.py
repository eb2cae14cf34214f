"""pelks benchmark: the time from a config to a checked verdict.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads are described in workloads.py.  One client process imports
pelks and sends the workload's configs in a closed loop, one verdict
at a time.  Each verdict is forked from that client, so it pays what a
fresh `pelks run` of its config pays after import: no field table,
descriptor or other pelks state survives from an earlier verdict.  The
child times `config_from_dict` + `run_checks` and sends the report back;
the client checks it against the closed-form oracle (oracle.py) and
takes the child's CPU time and peak RSS from wait4.  Forking costs a
few milliseconds per verdict, outside the verdict time.

Passes over the workload's instance list repeat until --seconds have
passed.  The set-up probes (fresh interpreters up to `import pelks`) run
between verdicts, spread evenly over the run.  Every end-to-end time is
in reference seconds: the measured time scaled by how fast the host ran
hostspeed's fixed loop just before and just after it (hostspeed.py).
Each rung counts with its median repeat in the run (see rung_medians):
pass_s and cpu_s sum the rungs, verdict_s.p50 and .p90 are percentiles
over them.  The measured, unscaled sum of every pass is printed as well.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports only per-layer metrics (tracing.py) plus
the set-up breakdown and the tracing overhead; it never reports an
end-to-end number.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  `failed` counts wrong
verdicts: a value that contradicts its closed form, a check status the
oracle disagrees with, a crash, or a report that differs between repeats
of one config seed.  `correct` is false when any verdict is wrong,
except for the wrong statuses oracle.KNOWN_WRONG_STATUS lists; those are
counted in `failed` and listed like every other wrong verdict.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from oracle import Judgement, judge
from tracing import SPAN_NAMES, Tracer, self_times
from workloads import WORKLOADS, build_workload, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
VERDICT_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

COUNTER_UNITS = {
    "algebra.smith_normal_form.entries": "count",
    "algebra.smith_normal_form.nonzero_ratio": "ratio",
    "algebra.integer_smith_normal_form.entries": "count",
    "algebra.integer_smith_normal_form.nonzero_ratio": "ratio",
    "algebra.finite_field.built": "count",
    "algebra.finite_field.table_entries": "count",
    "pel_modules.relation_generators.rows": "count",
}


def per_layer_units():
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTER_UNITS)
    for part in ("numpy", "scipy", "pelks"):
        units[f"setup.{part}_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


@dataclass
class Verdict:
    rung: str
    seed: int
    seconds: float
    cpu_s: float
    rss_mb: float
    scale: float = 1.0  # hostspeed.scale() of the loops that frame the verdict
    judgement: Judgement = field(default_factory=Judgement)


# -- set-up -------------------------------------------------------------------


class SetupProbes:
    """Fresh interpreters up to `import pelks` done and the configs parsed.

    The probes are spread evenly over a run of `seconds`, so that they meet
    the same slow and fast phases of a shared host as the verdicts do.  The
    first one, run at once, is discarded: it writes the bytecode caches.
    Every time is scaled to reference seconds by the host-speed loop that
    the probe runs when it is done and the one this process runs after it.
    """

    def __init__(self, config_paths, seconds, repeats=SETUP_REPEATS):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, config_paths)]
        self.interval = seconds / repeats
        self.repeats = repeats
        self.samples = []
        self._probe()

    def _probe(self):
        start = time.monotonic()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr.strip()[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(probe["pelks_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"set-up imported pelks from {probe['pelks_file']}, not {SRC}")
        probe["setup_s"] = probe["done"] - start
        factor = hostspeed.scale(probe["loop_s"], hostspeed.calibrate())
        for key in ("setup_s", "numpy_s", "scipy_s", "pelks_s"):
            probe[key] *= factor
        return probe

    def due(self, elapsed):
        """Run the probes whose turn has come `elapsed` seconds into the run."""
        while len(self.samples) < self.repeats and elapsed >= len(self.samples) * self.interval:
            self.samples.append(self._probe())

    def finish(self):
        self.due(float("inf"))
        return self.samples


def import_pelks():
    sys.path.insert(0, str(SRC))
    import pelks
    import pelks.checks
    import pelks.config

    if not Path(pelks.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported pelks from {pelks.__file__}, not {SRC}")
    return pelks


# -- one verdict ----------------------------------------------------------------


def _child(write_fd, pelks, cfg, only, tracer):
    """Body of a forked verdict; never returns into the client's code."""
    out = {}
    try:
        signal.alarm(VERDICT_TIMEOUT_S)
        if tracer is not None:
            tracer.reset()
        out["loop_s"] = hostspeed.calibrate()
        start = time.perf_counter()
        report = pelks.checks.run_checks(pelks.config.config_from_dict(cfg), only=only)
        out["seconds"] = time.perf_counter() - start
        report.pop("timing", None)
        out["report"] = report
        if tracer is not None:
            out["spans"] = tracer.spans
    except BaseException as exc:  # the child reports every failure and exits
        out["error"] = f"{type(exc).__name__}: {exc}"
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(json.dumps(out).encode())
    finally:
        os._exit(0)


def fork_verdict(pelks, cfg, only, tracer=None):
    """Run one verdict in a forked child.

    Returns (child output, CPU seconds, peak RSS MB, wall seconds, scale), where
    scale is hostspeed.scale() of the loop the child runs just before the verdict
    and the one this process runs just after the child has ended.
    """
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(write_fd, pelks, cfg, only, tracer)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    loops = [hostspeed.calibrate()]
    cpu = usage.ru_utime + usage.ru_stime
    rss_mb = usage.ru_maxrss / 1024
    result = json.loads(data) if status == 0 and data else {"error": f"verdict process ended with wait status {status}"}
    if "loop_s" in result:
        loops.append(result["loop_s"])
    return result, cpu, rss_mb, wall, hostspeed.scale(*loops)


def _digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


# -- passes ---------------------------------------------------------------------


@dataclass
class Layers:
    """Per-layer totals over the traced passes."""

    passes: int = 0
    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def add(self, verdict_id, rung, spans):
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            for key, value in (span[5] or {}).items():
                slot = f"{name}.{key}"
                self.counts[slot] = self.counts.get(slot, 0) + value
        # kept as bytes so the client's heap, which every child inherits, stays small
        self.spans.append(json.dumps({"verdict": verdict_id, "rung": rung, "spans": spans}).encode())


class Client:
    """The closed-loop client of one workload run."""

    def __init__(self, pelks, workload):
        self.pelks = pelks
        self.workload = workload
        self.digests = {}
        self.verdicts = 0

    def run_pass(self, index, tracer=None, layers=None, before_verdict=None):
        out = []
        for rung, cfg in self.workload.pass_configs(index):
            if before_verdict is not None:
                before_verdict()
            result, cpu, rss_mb, wall, scale = fork_verdict(self.pelks, cfg, rung.only, tracer)
            self.verdicts += 1
            verdict = Verdict(rung.name, cfg["seed"], result.get("seconds", wall), cpu, rss_mb, scale)
            if "error" in result:
                verdict.judgement.value_errors.append(f"verdict crashed: {result['error']}")
            else:
                report = result["report"]
                verdict.judgement = judge(cfg, rung.only, report)
                key = (rung.name, cfg["seed"])
                digest = self.digests.setdefault(key, _digest(report))
                if digest != _digest(report):
                    verdict.judgement.value_errors.append("report differs from an earlier run of the same config seed")
                if layers is not None:
                    layers.add(self.verdicts, rung.name, result["spans"])
            out.append(verdict)
        return out


def pass_seconds(verdicts, scaled=False):
    """Summed verdict seconds of one pass, as measured or scaled; a pass with zero verdicts is an error."""
    if not verdicts:
        raise BenchError("a pass with zero verdicts measures nothing")
    return sum(v.seconds * (v.scale if scaled else 1.0) for v in verdicts)


def rung_medians(passes):
    """Each rung's median verdict seconds and CPU seconds over the run's passes, in reference seconds.

    Other tenants of a shared host slow every verdict down by up to 2x, in
    phases of seconds to minutes, so measured times swing with the phases a
    run happened to catch.  Scaled to reference seconds by the host-speed
    loops around each verdict, they do not: on 2 vCPUs, the summed pass
    time of arch-ladder spread 0.27 (quartile distance over median) over
    60 passes as measured and 0.08 scaled, and the best repeat of each rung,
    taken per 40 s run, still spread 0.25-0.6 over ten runs.
    """
    for p in passes:
        pass_seconds(p)
    seconds, cpu = {}, {}
    for v in (v for p in passes for v in p):
        seconds.setdefault(v.rung, []).append(v.seconds * v.scale)
        cpu.setdefault(v.rung, []).append(v.cpu_s * v.scale)
    return ({rung: statistics.median(xs) for rung, xs in seconds.items()},
            {rung: statistics.median(xs) for rung, xs in cpu.items()})


def measure(client, seconds, traced, probes):
    """Run passes for `seconds`; return (plain passes, traced passes, layers)."""
    plain, traced_passes = [], []
    layers = Layers() if traced else None
    tracer = Tracer() if traced else None
    start = time.monotonic()

    def before_verdict():
        probes.due(time.monotonic() - start)

    index = 0
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= seconds and plain and (traced_passes or not traced):
            break
        pair = index // 2
        if traced and (index + pair) % 2:  # alternate which of a pair goes first
            tracer.install()
            try:
                traced_passes.append(client.run_pass(pair, tracer, layers, before_verdict))
            finally:
                tracer.uninstall()
            layers.passes += 1
        else:
            plain.append(client.run_pass(pair if traced else index, before_verdict=before_verdict))
        index += 1
    return plain, traced_passes, layers


# -- metrics --------------------------------------------------------------------


def end_to_end_metrics(setup, passes):
    rung_s, rung_cpu = rung_medians(passes)
    times = list(rung_s.values())
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "pass_s": sum(times),
        "verdict_s.p50": statistics.median(times),
        "verdict_s.p90": statistics.quantiles(times, n=10, method="inclusive")[-1],
        "cpu_s": sum(rung_cpu.values()),
        "peak_rss_mb": max(v.rss_mb for p in passes for v in p),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}


def per_layer_metrics(setup, plain, traced, layers):
    units = per_layer_units()
    n = layers.passes
    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = layers.calls.get(name, 0) / n
        values[f"{name}.self_s"] = layers.self_s.get(name, 0.0) / n
    for prefix in ("algebra.smith_normal_form", "algebra.integer_smith_normal_form"):
        entries = layers.counts.get(f"{prefix}.entries", 0)
        nonzero = layers.counts.get(f"{prefix}.nonzero", 0)
        values[f"{prefix}.entries"] = entries / n
        values[f"{prefix}.nonzero_ratio"] = nonzero / entries if entries else 0.0
    for slot in ("algebra.finite_field.built", "algebra.finite_field.table_entries", "pel_modules.relation_generators.rows"):
        values[slot] = layers.counts.get(slot, 0) / n
    for part in ("numpy", "scipy", "pelks"):
        values[f"setup.{part}_s"] = statistics.median(s[f"{part}_s"] for s in setup)
    # A traced pass and the untraced pass of the same configs run back to back.
    values["trace.overhead_ratio"] = statistics.median(
        pass_seconds(t, scaled=True) / pass_seconds(p, scaled=True) for p, t in zip(plain, traced))
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def wrong_verdicts(passes):
    """Wrong verdicts grouped by rung, seed and reason, with their counts."""
    groups = {}
    for v in (v for p in passes for v in p):
        for reason in v.judgement.reasons():
            groups[(v.rung, v.seed, reason)] = groups.get((v.rung, v.seed, reason), 0) + 1
    return groups


# -- one workload -----------------------------------------------------------------


def run_workload(name, seed, seconds, trace, pelks):
    workload = build_workload(name, seed, SRC / "pelks" / "fixtures")
    out_dir = OUT / f"{name}-s{seed}"
    config_paths = write_configs(workload, out_dir)
    probes = SetupProbes(config_paths.values(), seconds)
    client = Client(pelks, workload)
    plain, traced, layers = measure(client, seconds, trace, probes)
    setup = probes.finish()
    passes = plain + traced
    verdicts = [v for p in passes for v in p]
    wrong = [v for v in verdicts if v.judgement.wrong]
    correct = not any(v.judgement.unexpected for v in verdicts)
    if trace:
        metrics = per_layer_metrics(setup, plain, traced, layers)
        spans_path = out_dir / "spans.jsonl"
        spans_path.write_bytes(b"\n".join(layers.spans) + b"\n")
    else:
        metrics = end_to_end_metrics(setup, passes)
    print(f"== {name}  seed {seed}  {len(workload.rungs)} rungs  {len(passes)} passes  {len(verdicts)} verdicts"
          f"{'  (traced run: per-layer metrics only)' if trace else ''}")
    for metric, entry in metrics.items():
        print(f"  {metric:<48} {entry['value']:<14.6g} {entry['unit']}")
    if not trace:
        parts = " ".join(f"{part} {statistics.median(s[f'{part}_s'] for s in setup):.4g} s" for part in ("numpy", "scipy", "pelks"))
        print(f"  {'setup_s imports (medians)':<48} {parts}")
        loop_ms = statistics.median(1000 * hostspeed.REFERENCE_S / v.scale for v in verdicts)
        print(f"  {'host-speed loop (median; reference)':<48} {loop_ms:.4g} ms  ({1000 * hostspeed.REFERENCE_S:g} ms)")
    print(f"  {'pass_s of each pass, as measured':<48} {' '.join(f'{pass_seconds(p):.4g}' for p in passes)}")
    print(f"  {'error_rate':<48} {len(wrong) / len(verdicts):<14.6g} ratio  ({len(wrong)} wrong of {len(verdicts)} attempted)")
    groups = wrong_verdicts(passes)
    if groups:
        print("  wrong verdicts (rung, config seed, times, reason; replay from the repository root):")
    for (rung, cfg_seed, reason), count in sorted(groups.items()):
        only = next(r.only for r in workload.rungs if r.name == rung)
        replay = f"PYTHONPATH=src python3 -m pelks.cli run --config {config_paths[rung].relative_to(ROOT)} --seed {cfg_seed}"
        if only:
            replay += f" --only '{only}'"
        print(f"    {rung}  seed {cfg_seed}  x{count}  {reason}\n      {replay}")
    if trace:
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": len(verdicts), "failed": len(wrong), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pelks" / "__init__.py").is_file():
        print(f"benchmark error: no pelks sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        pelks = import_pelks()
        results = {name: run_workload(name, args.seed, args.seconds, args.trace, pelks) for name in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
