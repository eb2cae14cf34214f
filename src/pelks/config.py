"""Instance configuration: strict JSON in, frozen dataclasses out.

A config names one PEL instance: the algebra shape (kind, n, r,
signature), the finite places to test (each a CyclicAlgebraDescriptor),
and the archimedean data (field discriminant, order basis, polarization
mode).  Parsing is strict on purpose: unknown keys, wrong types, or
broken invariants raise ConfigInvalid rather than guessing, because a
silently coerced config would defeat the point of a verification run.
A place's rules are its descriptor's, and the order basis rules are
`OrderEmbedding`'s, built once per config as `embedding`; parsing turns
their refusals into ConfigInvalid, so every config error comes from it.

Complex numbers are encoded as [re, im] pairs, matrices as row lists.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

from .cyclic_algebra import CyclicAlgebraDescriptor
from .lattices import OrderEmbedding


# a sampled check holds every sample of its stream at once, a few (2nr)^2
# float arrays each: at 10^4 samples the sampled checks grow the peak RSS
# by about 29 MB on basechange-A (nr = 4) and 11 MB on siegel-C (nr = 2)
# (scripts/stack_peaks.py)
MAX_SAMPLES = 10_000

# the local checks grow about as r^2.4: on one Xeon core a local-only C2
# place at q = 5 takes 0.2 s and 42 MB of peak RSS at r = 64, 1.0 s and
# 65 MB at r = 128, 5.8 s and 152 MB at r = 256, so a mistyped r could
# exhaust memory before the run ends with an exit code
MAX_R = 64


class ConfigInvalid(Exception):
    """The configuration is malformed or violates an instance invariant."""


def _expect(cond, msg):
    if not cond:
        raise ConfigInvalid(msg)


def _as_int(value, label):
    _expect(isinstance(value, int) and not isinstance(value, bool), f"{label} must be an integer")
    return value


def _as_number(value, label):
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{label} must be a number",
    )
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    _expect(math.isfinite(number), f"{label} must be a finite number")
    return number


def _as_bool(value, label):
    _expect(isinstance(value, bool), f"{label} must be a boolean")
    return value


def _as_str(value, label):
    _expect(isinstance(value, str), f"{label} must be a string")
    return value


def _check_keys(d, allowed, label):
    _expect(isinstance(d, dict), f"{label} must be an object")
    extra = set(d) - allowed
    _expect(not extra, f"{label} has unknown keys: {sorted(extra)}")


def _parse_complex(value, label):
    _expect(
        isinstance(value, list) and len(value) == 2,
        f"{label} must be a [re, im] pair",
    )
    re = _as_number(value[0], f"{label}[0]")
    im = _as_number(value[1], f"{label}[1]")
    return complex(re, im)


def _parse_matrix(value, n, label):
    _expect(
        isinstance(value, list) and len(value) == n,
        f"{label} must be an {n} x {n} matrix",
    )
    rows = []
    for i, row in enumerate(value):
        _expect(
            isinstance(row, list) and len(row) == n,
            f"{label} row {i} must have {n} entries",
        )
        rows.append(tuple(_parse_complex(e, f"{label}[{i}][{j}]") for j, e in enumerate(row)))
    return tuple(rows)


def matrix_to_lists(m):
    return [[[z.real, z.imag] for z in row] for row in m]


@dataclass(frozen=True)
class ArchimedeanData:
    discriminant: int
    order_basis: tuple
    mu: tuple = None  # None in self-dual-auto mode, where mu is solved


@dataclass(frozen=True)
class InstanceConfig:
    name: str
    kind: str
    n: int
    r: int
    signature: tuple
    local_places: tuple
    archimedean: ArchimedeanData
    samples: int = 20
    seed: int = 0
    description: str = ""
    embedding: OrderEmbedding = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        a = self.archimedean
        emb = None if a is None else OrderEmbedding(self.kind, self.n, self.r, a.discriminant, a.order_basis)
        object.__setattr__(self, "embedding", emb)


_TOP_KEYS = {
    "name",
    "type",
    "n",
    "r",
    "signature",
    "local_places",
    "archimedean",
    "samples",
    "seed",
    "description",
}
_PLACE_KEYS = {"residue_size", "frobenius_power", "conjugation_power", "split"}
_ARCH_KEYS = {"discriminant", "order_basis", "mu_mode", "mu"}


def config_from_dict(d):
    _check_keys(d, _TOP_KEYS, "config")
    for key in ("name", "type", "n", "r", "signature"):
        _expect(key in d, f"config is missing '{key}'")
    name = _as_str(d["name"], "name")
    kind = _as_str(d["type"], "type")
    _expect(kind in ("A", "C"), "type must be 'A' or 'C'")
    n = _as_int(d["n"], "n")
    r = _as_int(d["r"], "r")
    _expect(n >= 1 and r >= 1, "n and r must be positive")
    _expect(r <= MAX_R, f"r must be at most {MAX_R}")

    sig = d["signature"]
    _expect(
        isinstance(sig, list) and len(sig) == 2,
        "signature must be a [p, q] pair",
    )
    p = _as_int(sig[0], "signature[0]")
    q = _as_int(sig[1], "signature[1]")
    _expect(p >= 0 and q >= 0 and p + q == r, "signature must be nonnegative with p + q = r")
    if kind == "C":
        _expect(q == 0, "kind C signature must be [r, 0]")

    places = []
    places_raw = d.get("local_places", [])
    _expect(isinstance(places_raw, list), "local_places must be a list")
    for i, entry in enumerate(places_raw):
        _check_keys(entry, _PLACE_KEYS, f"local_places[{i}]")
        _expect("residue_size" in entry, f"local_places[{i}] needs residue_size")
        fields = (
            _as_int(entry["residue_size"], f"local_places[{i}].residue_size"),
            _as_int(entry.get("frobenius_power", 1), f"local_places[{i}].frobenius_power"),
            _as_int(entry.get("conjugation_power", 0), f"local_places[{i}].conjugation_power"),
            _as_bool(entry.get("split", False), f"local_places[{i}].split"),
        )
        try:
            place = CyclicAlgebraDescriptor(n, *fields)
        except ValueError as exc:
            raise ConfigInvalid(f"local_places[{i}]: {exc}") from exc
        # Albert: an involution of the first kind needs Brauer order <= 2,
        # and a local division algebra of degree n has order n
        _expect(
            kind == "A" or not place.is_division or n <= 2,
            f"local_places[{i}]: kind C admits no division place of degree n={n} > 2",
        )
        _expect(
            all(pl.residue_size != place.residue_size for pl in places),
            f"local_places[{i}].residue_size {place.residue_size} repeats an earlier place's",
        )
        places.append(place)

    arch = None
    if d.get("archimedean") is not None:
        a = d["archimedean"]
        _check_keys(a, _ARCH_KEYS, "archimedean")
        for key in ("discriminant", "order_basis", "mu_mode"):
            _expect(key in a, f"archimedean is missing '{key}'")
        disc = _as_int(a["discriminant"], "discriminant")
        mu_mode = _as_str(a["mu_mode"], "mu_mode")
        _expect(
            mu_mode in ("self-dual-auto", "explicit"),
            "mu_mode must be 'self-dual-auto' or 'explicit'",
        )
        _expect(kind == "C" or p == q, "archimedean checks need a balanced signature")
        # until the classical model's closed forms are derived at n > 1 (ROADMAP item 17)
        _expect(kind == "A" or n == 1, "kind C archimedean data needs n = 1")
        basis_raw = a["order_basis"]
        _expect(isinstance(basis_raw, list), "order_basis must be a list")
        basis = tuple(
            _parse_matrix(m, n, f"order_basis[{i}]") for i, m in enumerate(basis_raw)
        )
        mu = None
        if mu_mode == "explicit":
            _expect(a.get("mu") is not None, "explicit mu_mode needs a mu matrix")
            mu = _parse_matrix(a["mu"], n, "mu")
        else:
            _expect(a.get("mu") is None, "self-dual-auto forbids an explicit mu")
        arch = ArchimedeanData(disc, basis, mu)

    samples = _as_int(d.get("samples", 20), "samples")
    _expect(samples >= 1, "samples must be positive")
    _expect(samples <= MAX_SAMPLES, f"samples must be at most {MAX_SAMPLES}")
    seed = _as_int(d.get("seed", 0), "seed")
    _expect(seed >= 0, "seed must be nonnegative")
    description = _as_str(d.get("description", ""), "description")

    try:
        return InstanceConfig(
            name=name,
            kind=kind,
            n=n,
            r=r,
            signature=(p, q),
            local_places=tuple(places),
            archimedean=arch,
            samples=samples,
            seed=seed,
            description=description,
        )
    except ValueError as exc:  # the order basis, refused by its embedding
        raise ConfigInvalid(f"order basis rejected: {exc}") from exc


def load_config(path):
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise ConfigInvalid(f"not readable JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigInvalid(f"JSON nested too deeply: {exc}") from exc
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc.strerror or exc}") from exc
    return config_from_dict(raw)


def config_to_dict(cfg):
    """Canonical plain-dict form, inverse of config_from_dict."""
    out = {
        "name": cfg.name,
        "type": cfg.kind,
        "n": cfg.n,
        "r": cfg.r,
        "signature": list(cfg.signature),
        "local_places": [
            {
                "residue_size": pl.residue_size,
                "frobenius_power": pl.frobenius_power,
                "conjugation_power": pl.conjugation_power,
                "split": pl.split,
            }
            for pl in cfg.local_places
        ],
        "archimedean": None,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "description": cfg.description,
    }
    if cfg.archimedean is not None:
        a = cfg.archimedean
        out["archimedean"] = {
            "discriminant": a.discriminant,
            "order_basis": [matrix_to_lists(m) for m in a.order_basis],
            "mu_mode": "self-dual-auto" if a.mu is None else "explicit",
            "mu": matrix_to_lists(a.mu) if a.mu is not None else None,
        }
    return out


def config_digest(cfg):
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def with_overrides(cfg, seed=None, samples=None):
    """cfg with the given fields replaced, validated like a loaded config; cfg itself without any."""
    overrides = {k: v for k, v in {"seed": seed, "samples": samples}.items() if v is not None}
    return config_from_dict(config_to_dict(cfg) | overrides) if overrides else cfg


def build_embedding(cfg):
    """The config's OrderEmbedding, built when it was parsed; None without
    archimedean data."""
    return cfg.embedding
