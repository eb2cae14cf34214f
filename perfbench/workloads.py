"""Seeded instance generator for the benchmark workloads.

A workload is a list of rungs.  Each rung is one `pelks run` config (the
JSON dict `config_from_dict` reads) plus the `--only` glob it runs with.
The benchmark seed picks the config seeds; pelks only ever sees the
generated configs.  The same (workload, seed) always gives the same
rungs and the same per-pass config seeds.

Why these workloads:

- fixtures: the four shipped fixtures, today's real traffic.  Verdicts
  take 10-90 ms, so start-up and per-check overhead dominate, and the
  series SNF and the field tables are almost idle.
- local-ladder: local-only instances large enough that the series SNF,
  the integer SNF with its determinant probe and the finite-field
  tables do nearly all the work; kodaira_spencer does none.
- arch-ladder: full archimedean pipelines (`[ap]*`), where lattices,
  kodaira_spencer and domains do the work and the integer SNF sees
  dense Gram matrices instead of sparse relation rows.
"""

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("fixtures", "local-ladder", "arch-ladder")

# Per-pass config seeds of the fixtures workload come from a small pool,
# so every (fixture, seed) repeats within a run and determinism is checked.
FIXTURE_SEED_POOL = 4

ARCH_SAMPLES = 20


@dataclass(frozen=True)
class Rung:
    name: str
    config: dict
    only: str = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    rungs: tuple
    seed_pool: tuple

    def pass_seed(self, index):
        """Config seed of every rung in pass `index`."""
        pick = random.Random(f"{self.name}/{self.seed}/{index}").randrange(len(self.seed_pool))
        return self.seed_pool[pick]

    def pass_configs(self, index):
        seed = self.pass_seed(index)
        return [(rung, dict(rung.config, seed=seed)) for rung in self.rungs]


def _cx(z):
    return [float(z.real), float(z.imag)]


def _scalar_basis(values):
    return [[[_cx(v)]] for v in values]


def _matrix_units(n, scalars):
    basis = []
    for s in scalars:
        for i in range(n):
            for j in range(n):
                m = [[_cx(0) for _ in range(n)] for _ in range(n)]
                m[i][j] = _cx(s)
                basis.append(m)
    return basis


def _omega(discriminant):
    """Generator of the maximal order of Q(sqrt(discriminant))."""
    if discriminant % 4 == 0:
        return complex(0, math.sqrt(-discriminant) / 2)
    return complex(0.5, math.sqrt(-discriminant) / 2)


def _config(name, kind, n, r, signature, places=(), arch=None, samples=20):
    return {
        "name": name,
        "type": kind,
        "n": n,
        "r": r,
        "signature": list(signature),
        "local_places": [dict(pl) for pl in places],
        "archimedean": arch,
        "samples": samples,
        "seed": 0,
    }


def _rung(cfg, only=None):
    return Rung(cfg["name"], cfg, only)


def _local_ladder():
    rungs = []
    for q in (3, 5, 7):
        for p in (1, 2, 3):
            place = {"residue_size": q, "conjugation_power": 1}
            rungs.append(_rung(_config(f"A2-p{p}-q{q}", "A", 2, 2 * p, (p, p), [place])))
    for q in (2, 3, 5):
        for r in (1, 2, 3, 4):
            place = {"residue_size": q}
            rungs.append(_rung(_config(f"C2-r{r}-q{q}", "C", 2, r, (r, 0), [place])))
    # These residue sizes occur in no other rung, so the table cost is attributable.
    for q in (11, 13, 17):
        place = {"residue_size": q}
        rungs.append(_rung(_config(f"field-q{q}", "C", 2, 1, (1, 0), [place])))
    for d in (-3, -4):
        for p in (1, 2, 3, 4):
            arch = {
                "discriminant": d,
                "order_basis": _scalar_basis([1, _omega(d)]),
                "mu_mode": "self-dual-auto",
                "mu": None,
            }
            cfg = _config(f"rank-D{-d}-p{p}", "A", 1, 2 * p, (p, p), arch=arch)
            rungs.append(_rung(cfg, "global.rank-lemma"))
    return rungs


def _arch_ladder():
    rungs = []
    only = "[ap]*"
    for r in (2, 4, 6, 8):
        arch = {
            "discriminant": -4,
            "order_basis": _scalar_basis([1, 1j]),
            "mu_mode": "self-dual-auto",
            "mu": None,
        }
        cfg = _config(f"gauss-r{r}", "A", 1, r, (r // 2, r // 2), arch=arch, samples=ARCH_SAMPLES)
        rungs.append(_rung(cfg, only))
    for r in (2, 4, 6):
        arch = {
            "discriminant": -4,
            "order_basis": _matrix_units(2, [1, 1j]),
            "mu_mode": "explicit",
            "mu": [[_cx(-2), _cx(0)], [_cx(0), _cx(-2)]],
        }
        cfg = _config(f"basechange-r{r}", "A", 2, r, (r // 2, r // 2), arch=arch, samples=ARCH_SAMPLES)
        rungs.append(_rung(cfg, only))
    for r in (2, 4, 6, 8):
        arch = {
            "discriminant": 1,
            "order_basis": _scalar_basis([1]),
            "mu_mode": "self-dual-auto",
            "mu": None,
        }
        cfg = _config(f"siegel-r{r}", "C", 1, r, (r, 0), arch=arch, samples=ARCH_SAMPLES)
        rungs.append(_rung(cfg, only))
    return rungs


def _fixtures(fixture_dir):
    rungs = []
    for path in sorted(Path(fixture_dir).glob("*.json")):
        rungs.append(_rung(json.loads(path.read_text())))
    return rungs


def build_workload(name, seed, fixture_dir):
    """The rungs and config seeds of one workload for one benchmark seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "fixtures":
        rungs = _fixtures(fixture_dir)
        pool = tuple(rng.randrange(2**16) for _ in range(FIXTURE_SEED_POOL))
    elif name == "local-ladder":
        rungs = _local_ladder()
        pool = (rng.randrange(2**16),)
    elif name == "arch-ladder":
        rungs = _arch_ladder()
        pool = (rng.randrange(2**16),)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    if not rungs:
        raise ValueError(f"workload {name!r} has no instances")
    return Workload(name, seed, tuple(rungs), pool)


def write_configs(workload, out_dir):
    """One replayable config file per rung, at the workload's first pass seed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for rung, cfg in workload.pass_configs(0):
        path = out_dir / f"{rung.name}.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
        paths[rung.name] = path
    return paths
