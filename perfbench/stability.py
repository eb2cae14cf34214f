"""Run-to-run spread of the benchmark: two sets of runs of the same code.

    python3 perfbench/stability.py [--record perfbench/BENCH_seed.json]

For each of SEEDS seeds and every workload, run.py runs once in each of
two sets, alternating which set goes first.  For each workload and
end-to-end metric this prints the median and quartiles of each set (as
`statistics.quantiles(values, n=4)` gives them), the spread (q3 - q1) /
median, and the drift of the second set's median from the first set's
in the worse direction.  A metric is flagged when a spread or the drift
exceeds its bound in BENCHMARK.json.  The target is a spread below a
third of the bound.

--record also makes one traced run per workload and writes every run,
the summary and the machine (nproc, Python, numpy and scipy versions)
to a BENCH file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def drift(first, later, better):
    change = (later - first) / first
    return change if better == "lower" else -change


def machine():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    runs = {w: ([], []) for w in workloads}
    started = time.time()
    for seed in range(1, SEEDS + 1):
        for workload in workloads:
            for s in (0, 1) if seed % 2 else (1, 0):
                result = run_once(workload, seed, seconds)
                result["seed"] = seed
                runs[workload][s].append(result)
                print(f"[{time.time() - started:7.0f} s] {workload} seed {seed} set {s}: "
                      f"correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    flagged = []
    for workload in workloads:
        summary[workload] = {}
        print(f"\n== {workload}: {SEEDS} seeds x 2 sets, {seconds} s a run")
        print(f"  {'metric':<15} {'bound':>6}  " + "  ".join(f"{'set ' + str(s) + ' median [q1, q3] spread':<40}" for s in (0, 1)) + "  drift")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [summarise([r["metrics"][name]["value"] for r in runs[workload][s]]) for s in (0, 1)]
            change = drift(sets[0]["median"], sets[1]["median"], metric["better"])
            summary[workload][name] = {"unit": metric["unit"], "bound": bound, "sets": sets, "drift": change}
            marks = []
            if any(st["spread"] > bound for st in sets):
                marks.append("SPREAD > BOUND")
            elif any(st["spread"] > bound / 3 for st in sets):
                marks.append("spread > bound/3")
            if change > bound:
                marks.append("DRIFT > BOUND")
            if marks and marks != ["spread > bound/3"]:
                flagged.append((workload, name))
            cells = "  ".join(f"{st['median']:<10.5g} [{st['q1']:.5g}, {st['q3']:.5g}] {st['spread']:6.3f}".ljust(40) for st in sets)
            print(f"  {name:<15} {bound:>6}  {cells}  {change:+.3f}  {' '.join(marks)}")
            for s in (0, 1):
                print(f"  {'':<15} set {s} runs: " + " ".join(f"{r['metrics'][name]['value']:.4g}" for r in runs[workload][s]))
        wrong = sum(r["failed"] for s in runs[workload] for r in s)
        total = sum(r["attempted"] for s in runs[workload] for r in s)
        incorrect = sum(not r["correct"] for s in runs[workload] for r in s)
        print(f"  error_rate {wrong}/{total} = {wrong / total:.4f}; runs with correct=false: {incorrect}")

    if args.record:
        traced = {w: run_once(w, 1, seconds, trace=1) for w in workloads}
        record = {
            "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
            "machine": machine(),
            "run_seconds": seconds,
            "seeds": list(range(1, SEEDS + 1)),
            "summary": summary,
            "traced_seed_1": traced,
            "runs": runs,
        }
        args.record.write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nrecorded to {args.record}")
    if flagged:
        print("\nflagged: " + ", ".join(f"{w}/{m}" for w, m in flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
