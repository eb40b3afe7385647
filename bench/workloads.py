"""Workload inputs drawn from a seed, and the checks on their outputs.

Each workload is one ``edgrow`` CLI invocation on a generated JSON config.
Seed 0 reproduces the documented configs exactly; other seeds draw inputs of
the same shape, so the cost of a run stays comparable across seeds.  A check
returns a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
STIFF_REFERENCE = os.path.join(HERE, "reference", "stiff-additive-seed0.json")

DRIFT_BOUND = 1e-9
F_RISE_BOUND = 1e-10
F_LIMIT_RHO1 = -2.0 * math.log(2.0)  # constant kernel at unit density
F_LIMIT_BOUND = 1e-4
STRONG_DISTANCE_BOUND = 1e-3
REFERENCE_BOUND = 1e-6
STIFF_SAMPLES = 201


@dataclass
class Workload:
    """One generated workload: the CLI subcommand, its config document, the
    sweep's worker count and the inputs the checks need."""

    name: str
    seed: int
    subcommand: str
    config: dict
    parallel: Optional[int] = None
    densities: list = field(default_factory=list)

    def argv(self, config_path: str, out_dir: str, serial: bool = False) -> list:
        """CLI arguments; ``serial`` runs sweep rows in process (for tracing)."""
        args = [self.subcommand, "--config", config_path, "--out", out_dir]
        if self.parallel is not None:
            args += ["--parallel", str(1 if serial else self.parallel)]
        return args

    @property
    def kernel_spec(self) -> dict:
        return self.config["kernel"]

    @property
    def setup_k_max(self):
        """Chemical-potential range the run builds, or None when it builds none."""
        analysis = self.config.get("analysis", {})
        if self.subcommand == "simulate" and not (
            analysis.get("thermo", True) or analysis.get("classify", True)
        ):
            return None
        return int(analysis.get("equilibrium_k_max", 10**6))


def _explicit_profile(rng: random.Random, n_trunc: int, sizes: int = 9) -> list:
    """Random profile, positive on sizes ``0..sizes-1`` and zero up to
    ``n_trunc``, with ``M0 = 1`` and ``rho = 1``.

    A normalized random vector is mixed with a point mass at size 0 (mean
    above 1) or at the largest size (mean below 1) so the mean is exactly 1.
    """
    weights = [rng.uniform(0.05, 1.0) for _ in range(sizes)]
    total = sum(weights)
    p = [w / total for w in weights]
    mean = sum(k * x for k, x in enumerate(p))
    top = sizes - 1
    if mean >= 1.0:
        lam = 1.0 / mean
        c = [lam * x for x in p]
        c[0] += 1.0 - lam
    else:
        lam = (top - 1.0) / (top - mean)
        c = [lam * x for x in p]
        c[top] += 1.0 - lam
    return c + [0.0] * (n_trunc + 1 - sizes)


def _distinct(rng: random.Random, lo: float, hi: float, count: int = 3) -> list:
    """``count`` distinct sorted draws from ``[lo, hi]`` (the sweep rejects repeats)."""
    values: set = set()
    while len(values) < count:
        values.add(round(rng.uniform(lo, hi), 6))
    return sorted(values)


def phase_sweep(seed: int) -> Workload:
    if seed == 0:
        densities = [0.25, 0.5, 0.75, 1.5, 2.0, 3.0]
    else:
        rng = random.Random(seed)
        densities = _distinct(rng, 0.2, 0.9) + _distinct(rng, 1.2, 3.0)
    config = {
        "kernel": {"family": "condensing", "c": 3.0},
        "n_trunc": 256,
        "initial_condition": {"type": "monodisperse"},
        "integrator": {"t_end": 50.0, "record_every": 0.5, "rtol": 1e-8, "atol": 1e-12},
        "analysis": {"equilibrium_k_max": 10**6, "checkpoint_every": 10.0},
        "densities": densities,
    }
    return Workload("phase-sweep", seed, "sweep", config, parallel=2, densities=densities)


def relax_thermo(seed: int) -> Workload:
    if seed == 0:
        initial = {"type": "monodisperse", "rho": 1.0, "m": 1}
    else:
        initial = {"type": "explicit", "values": _explicit_profile(random.Random(seed), 256)}
    config = {
        "kernel": {"family": "constant", "value": 1.0},
        "n_trunc": 256,
        "initial_condition": initial,
        "integrator": {"t_end": 200.0, "record_every": 0.1},
        "analysis": {"equilibrium_k_max": 2000, "checkpoint_every": 10.0},
    }
    return Workload("relax-thermo", seed, "simulate", config)


def stiff_additive(seed: int) -> Workload:
    if seed == 0:
        initial = {"type": "monodisperse", "rho": 1.0, "m": 1}
    else:
        initial = {"type": "explicit", "values": _explicit_profile(random.Random(seed), 512)}
    config = {
        "kernel": {"family": "additive", "donor_coeff": 1.0, "acceptor_coeff": 2.0},
        "n_trunc": 512,
        "initial_condition": initial,
        "integrator": {"t_end": 5.0},
        "analysis": {"thermo": False, "classify": False},
    }
    return Workload("stiff-additive", seed, "simulate", config)


GENERATORS = {
    "phase-sweep": phase_sweep,
    "relax-thermo": relax_thermo,
    "stiff-additive": stiff_additive,
}


def build(name: str, seed: int) -> Workload:
    if name not in GENERATORS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(GENERATORS)}")
    return GENERATORS[name](seed)


# ---------------------------------------------------------------- checks


def csv_digests(out_dir: str) -> dict:
    """SHA-256 of every CSV the run wrote, keyed by file name."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            digest = hashlib.sha256()
            with open(os.path.join(out_dir, name), "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            digests[name] = digest.hexdigest()
    return digests


def csv_bytes(out_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(out_dir, name))
        for name in os.listdir(out_dir)
        if name.endswith(".csv")
    )


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _final_state(out_dir: str) -> list:
    """Last recorded state from ``trajectory.csv`` (long format ``t,k,c_k``)."""
    rows = {}
    last_t = None
    with open(os.path.join(out_dir, "trajectory.csv"), "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t, k, c in reader:
            if t != last_t:
                rows = {}
                last_t = t
            rows[int(k)] = float(c)
    return [rows[k] for k in range(len(rows))]


def _check_drift(report: dict) -> list:
    """Moment drift beyond what the positivity-clamp ledger accounts for.

    Clamping a tiny negative component to zero adds its magnitude to the
    moments and to the ledger, so ``drift - ledger`` is the drift the
    integrator cannot explain.
    """
    drift = report["moment_drift"]
    clamped = report["clamped_mass"]
    worst = max(drift[key] - clamped[key] for key in ("count", "mass"))
    if worst <= DRIFT_BOUND:
        return []
    return [f"unaccounted moment drift {worst:.3g} > {DRIFT_BOUND}"]


def check_phase_sweep(work: Workload, out_dir: str) -> list:
    problems = []
    with open(os.path.join(out_dir, "sweep.csv"), "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [float(r["rho"]) for r in rows] != [float(x) for x in work.densities]:
        problems.append("sweep rows are not in input order")
    for row in rows:
        rho = float(row["rho"])
        if row["status"] != "ok":
            problems.append(f"rho={rho}: status {row['status']!r}")
            continue
        # rho_c = 1 for the condensing kernel with c = 3
        expected = "subcritical" if rho < 1.0 else "supercritical"
        if row["regime"] != expected:
            problems.append(f"rho={rho}: regime {row['regime']!r}, expected {expected!r}")
    return problems


def check_relax_thermo(work: Workload, out_dir: str) -> list:
    problems = _check_drift(_read_json(os.path.join(out_dir, "run_report.json")))
    with open(os.path.join(out_dir, "summary.csv"), "r", encoding="utf-8") as fh:
        f_values = [float(r["F"]) for r in csv.DictReader(fh)]
    rise = max((b - a for a, b in zip(f_values, f_values[1:])), default=0.0)
    if not rise <= F_RISE_BOUND:
        problems.append(f"free energy rose by {rise:.3g}")
    gap = abs(f_values[-1] - F_LIMIT_RHO1)
    if not gap <= F_LIMIT_BOUND:
        problems.append(f"|F_final + 2 log 2| = {gap:.3g}")
    convergence = _read_json(os.path.join(out_dir, "convergence.json"))
    strong = convergence.get("final_strong_distance")
    if strong is None or not strong <= STRONG_DISTANCE_BOUND:
        problems.append(f"final strong distance {strong!r}")
    return problems


def strong_distance(a: list, b: list) -> float:
    n = max(len(a), len(b))
    a = list(a) + [0.0] * (n - len(a))
    b = list(b) + [0.0] * (n - len(b))
    return sum((1.0 + l) * abs(x - y) for l, (x, y) in enumerate(zip(a, b)))


def check_stiff_additive(work: Workload, out_dir: str) -> list:
    report = _read_json(os.path.join(out_dir, "run_report.json"))
    problems = _check_drift(report)
    if report["samples"] != STIFF_SAMPLES:
        problems.append(f"{report['samples']} samples, expected {STIFF_SAMPLES}")
    final = _final_state(out_dir)
    if min(final) < 0.0:
        problems.append(f"final state has a negative entry {min(final):.3g}")
    if work.seed == 0:
        reference = [float(x) for x in _read_json(STIFF_REFERENCE)["c"]]
        distance = strong_distance(final, reference)
        if not distance <= REFERENCE_BOUND:
            problems.append(f"final state is {distance:.3g} from the reference")
    return problems


CHECKS = {
    "phase-sweep": check_phase_sweep,
    "relax-thermo": check_relax_thermo,
    "stiff-additive": check_stiff_additive,
}


def check(work: Workload, out_dir: str) -> list:
    """Problems with one run's outputs; exceptions while reading count too."""
    try:
        return CHECKS[work.name](work, out_dir)
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        return [f"unreadable outputs: {type(exc).__name__}: {exc}"]
