"""Seeded request lists for the four benchmark workloads.

A request is one ``qastates`` command line plus what the checker needs to
judge its answer.  Every list is a pure function of (workload, seed): the
same pair always yields the same bytes from :func:`encode`.  Each workload
draws its input classes in fixed proportions and lets the seed pick the
order and the free parameters (directions, sampler seeds, answers, model
variants), so one run's mix of cheap and expensive requests does not
depend on the seed while the inputs themselves do.  The proportions are
chosen so that the median and the 90th percentile each fall well inside
one class of requests rather than on the border between two.

This module imports neither numpy nor qastates.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Where the benchmark writes (run logs, spans, generated model files),
# relative to the checkout root.
WORK_DIR = ".bench_build/perfbench"
MODEL_DIR = f"{WORK_DIR}/models"

BUNDLED_MODELS = ("structural_example", "designed_failure")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _schedule(rng: random.Random, counts: list[tuple[object, int]]) -> list:
    """Each class repeated its count, in seeded order."""
    out = [cls for cls, n in counts for _ in range(n)]
    rng.shuffle(out)
    return out


def _stratified(rng: random.Random, count: int, values: list) -> list:
    """``count`` draws spread evenly over ``values``, one per stratum."""
    return [values[int((i + rng.random()) / count * len(values))] for i in range(count)]


def _direction(rng: random.Random) -> str:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in v))
        if n > 1e-3:
            return ",".join(repr(c / n) for c in v)


def _half_integers(low: float, high: float) -> list[str]:
    return [f"{k / 2:g}" for k in range(round(2 * low), round(2 * high) + 1)]


def _sampler_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**32))


def _request(kind: str, argv: list[str], **expect) -> dict:
    return {"kind": kind, "argv": argv, "expect": expect}


# ---------------------------------------------------------------------------
# spin-verify


# (j, samples) -> requests per pass.  Sorted by cost at the parent commit the
# classes run 2.5/1 < 3/1 ~ 2.5/2 < 3.5/1 < 3/2 < 4/1 < 3.5/2 < 4/2; the
# median falls inside the 3.5/1 block and the 90th percentile inside 3.5/2.
_VERIFY_MIX = [
    (("2.5", 1), 18),
    (("3", 1), 14),
    (("2.5", 2), 14),
    (("3.5", 1), 30),
    (("3", 2), 8),
    (("4", 1), 8),
    (("3.5", 2), 22),
    (("4", 2), 6),
]


def _spin_verify(rng: random.Random, j: str, samples: int) -> dict:
    argv = ["spin", "verify", "--j", j, "--samples", str(samples), "--seed", _sampler_seed(rng)]
    return _request("spin-verify", argv, exit=0)


def spin_verify(seed: int) -> tuple[dict, list[dict]]:
    rng = _rng("spin-verify", seed)
    warmup = _spin_verify(rng, "2.5", 1)
    return warmup, [_spin_verify(rng, j, s) for j, s in _schedule(rng, _VERIFY_MIX)]


# ---------------------------------------------------------------------------
# spin-catalog


_CATALOG_REQUESTS = 84
_OVERLAP_REQUESTS = 36
_LARGE_J = _half_integers(10, 25)
# Catalog answers per request compared against an independent eigensolver.
_CATALOG_SPOT_CHECKS = 2


def _spin_catalog(rng: random.Random, j: str) -> dict:
    dim = round(2 * float(j)) + 1
    spots = sorted(rng.sample(range(dim), _CATALOG_SPOT_CHECKS))
    argv = ["spin", "catalog", "--j", j, f"--dir={_direction(rng)}"]
    return _request("spin-catalog", argv, exit=0, spot_checks=spots)


def spin_catalog(seed: int) -> tuple[dict, list[dict]]:
    rng = _rng("spin-catalog", seed)
    warmup = _spin_catalog(rng, "10")
    kinds = _schedule(rng, [("catalog", _CATALOG_REQUESTS), ("overlap", _OVERLAP_REQUESTS)])
    catalog_j = iter(_stratified(rng, _CATALOG_REQUESTS, _LARGE_J))
    overlap_j = iter(_stratified(rng, _OVERLAP_REQUESTS, _LARGE_J))
    requests = []
    for kind in kinds:
        if kind == "catalog":
            requests.append(_spin_catalog(rng, next(catalog_j)))
        else:
            argv = ["spin", "overlap", "--j", next(overlap_j), "--samples", "8",
                    "--seed", _sampler_seed(rng)]
            requests.append(_request("spin-overlap", argv, exit=0))
    return warmup, requests


# ---------------------------------------------------------------------------
# symmetry-family


def _dihedral_product(n: int, a: int, b: int) -> int:
    """Product in D_n, element ``t + n*f`` standing for r^t s^f."""
    t1, f1 = a % n, a // n
    t2, f2 = b % n, b // n
    return (t1 + (t2 if f1 == 0 else -t2)) % n + n * ((f1 + f2) % 2)


def dihedral_model(n: int, reflection: int, rotation: int) -> dict:
    """Model file for left translations of D_n on 2|D_n| points.

    Built like the bundled ``structural_example`` (which is the n=3 case up
    to relabeling): point ``2g + c`` carries group element ``g`` and a copy
    bit ``c``; variable "0" reads off ``g``, and variables "1" and "2" are
    its transfers by a reflection ``s r^reflection`` and a rotation
    ``r^rotation`` of order n.  Every subgroup is all of D_n.  Choosing
    another reflection or generating rotation is an automorphism of D_n,
    so every variant of one n has the same verdicts and word counts.
    """
    if n < 3 or math.gcd(rotation, n) != 1:
        raise ValueError(f"need n >= 3 and a rotation generating C_n, got n={n}, u={rotation}")
    order = 2 * n
    points = 2 * order

    def left(a: int) -> list[int]:
        return [2 * _dihedral_product(n, a, p // 2) + p % 2 for p in range(points)]

    refl = reflection % n + n
    rot = rotation % n
    theta0 = [p // 2 for p in range(points)]
    k01, k02 = left(refl), left(rot)
    k12 = left(_dihedral_product(n, refl, rot))  # reflections are involutions
    generators = [left(1), left(n)]
    return {
        "phi_size": points,
        "distinguished": 0,
        "variables": [
            {"label": "0", "theta": theta0},
            {"label": "1", "theta": [theta0[k01[p]] for p in range(points)]},
            {"label": "2", "theta": [theta0[k02[p]] for p in range(points)]},
        ],
        "subgroups": {"0": generators, "1": generators, "2": generators},
        "transfer": {"01": k01, "02": k02, "12": k12},
    }


def model_path(n: int, reflection: int, rotation: int) -> str:
    return f"{MODEL_DIR}/dihedral_n{n}_v{reflection}_u{rotation}.json"


# Requests per pass.  Costs at the parent commit: designed_failure about
# 5 ms, structural_example and n=3 about 50 ms, n=4 about 70 ms, n=6 about
# 235 ms and n=5 about 255 ms.  Sorted by cost, ranks 39-102 are n=4 and
# ranks 103-114 are n=6, so the median sits inside the n=4 block and the
# 90th percentile inside the n=6 block.
_FAMILY_MIX = [
    ("structural_example", 4),
    ("designed_failure", 4),
    (3, 30),
    (4, 64),
    (6, 12),
    (5, 6),
]


def _symmetry_check(rng: random.Random, member) -> dict:
    if member in BUNDLED_MODELS:
        return _request("symmetry-bundled", ["symmetry", "check", "--model", member], model=member)
    units = [u for u in range(1, member) if math.gcd(u, member) == 1]
    reflection, rotation = rng.randrange(member), rng.choice(units)
    path = model_path(member, reflection, rotation)
    return _request("symmetry-family", ["symmetry", "check", "--model", path],
                    n=member, reflection=reflection, rotation=rotation)


def symmetry_family(seed: int) -> tuple[dict, list[dict]]:
    rng = _rng("symmetry-family", seed)
    warmup = _symmetry_check(rng, "structural_example")
    return warmup, [_symmetry_check(rng, m) for m in _schedule(rng, _FAMILY_MIX)]


# ---------------------------------------------------------------------------
# cli-mix


_SMALL_J = _half_integers(0.5, 2)
_STATE_J = _half_integers(0.5, 25)
_STATES = 44

# Requests per pass.  At the parent commit the 150 cheap requests (state,
# bloch, evar, designed_failure) take 3 to 6 ms, mostly argument parsing,
# so the median sits two thirds into that block, away from its slower tail
# (large-j states, designed_failure).  Spin verify with one sampled
# direction (10 to 25 ms) and structural_example (about 50 ms) fill ranks
# 151-170, qubit prop2 (about 40 ms) ranks 171-198, which puts the 90th
# percentile nine requests inside the prop2 block; the golden battery is
# the slowest request, one per pass so that it does not dominate the pass.
_MIX = [
    ("state", _STATES),
    ("bloch", 30),
    ("coarse-grain", 30),
    ("maximal", 30),
    ("designed_failure", 16),
    *((("verify", j), 3) for j in _SMALL_J),
    ("structural_example", 8),
    ("prop2", 28),
    ("golden", 1),
]


def _evar_values(rng: random.Random) -> tuple[list[str], list[str]]:
    """Strictly increasing outcome values and a map merging some of them."""
    dim = rng.randint(2, 8)
    values, v = [], 0
    for _ in range(dim):
        v += rng.randint(1, 5)
        values.append(str(v))
    classes = rng.randint(1, dim)
    mapped = [str(10 * rng.randrange(classes)) for _ in range(dim)]
    return values, mapped


def _mix_request(rng: random.Random, kind, state_j) -> dict:
    if kind == "state":
        j = next(state_j)
        dim = round(2 * float(j)) + 1
        h = f"{rng.randrange(dim) - float(j):g}"
        argv = ["spin", "state", "--j", j, f"--dir={_direction(rng)}", "--h", h]
        return _request("spin-state", argv, exit=0)
    if kind == "bloch":
        return _request("qubit-bloch", ["qubit", "bloch", f"--dir={_direction(rng)}"], exit=0)
    if kind == "prop2":
        argv = ["qubit", "prop2", "--samples", "50", "--seed", _sampler_seed(rng)]
        return _request("qubit-prop2", argv, exit=0)
    if kind == "coarse-grain":
        values, mapped = _evar_values(rng)
        argv = ["evar", "coarse-grain", "--values", ",".join(values), "--map", ",".join(mapped)]
        return _request("evar-coarse-grain", argv, exit=0)
    if kind == "maximal":
        values, mapped = _evar_values(rng)
        argv = ["evar", "maximal", "--values", ",".join(values)]
        if rng.random() < 0.5:
            argv += ["--map", ",".join(mapped)]
        return _request("evar-maximal", argv, exit=0)
    if isinstance(kind, tuple):
        return _spin_verify(rng, kind[1], 1)
    if kind == "golden":
        return _request("golden", ["report", "--golden"])
    return _request("symmetry-bundled", ["symmetry", "check", "--model", kind], model=kind)


def cli_mix(seed: int) -> tuple[dict, list[dict]]:
    rng = _rng("cli-mix", seed)
    state_j = iter(["1", *_stratified(rng, _STATES, _STATE_J)])
    warmup = _mix_request(rng, "state", state_j)
    return warmup, [_mix_request(rng, kind, state_j) for kind in _schedule(rng, _MIX)]


# ---------------------------------------------------------------------------


_BUILDERS = {
    "spin-verify": spin_verify,
    "spin-catalog": spin_catalog,
    "symmetry-family": symmetry_family,
    "cli-mix": cli_mix,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """(warm-up request, one pass of timed requests) for a workload."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")
    return _BUILDERS[workload](seed)


def encode(warmup: dict, requests: list[dict]) -> bytes:
    """Canonical bytes of a request list, for reproducibility checks."""
    return json.dumps({"warmup": warmup, "requests": requests}, sort_keys=True).encode()


def write_models(root: Path, requests: list[dict]) -> None:
    """Write every generated model file the requests name, under ``root``."""
    for req in requests:
        if req["kind"] != "symmetry-family":
            continue
        e = req["expect"]
        target = root / model_path(e["n"], e["reflection"], e["rotation"])
        if target.exists():
            continue
        target.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(dihedral_model(e["n"], e["reflection"], e["rotation"]))
        tmp = target.with_suffix(".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(target)
