"""Long-time behavior: metrics, regime classification, tail weights.

The density is an order parameter: starting below the critical density the
state converges to its equilibrium profile in the mass-weighted norm, while
above it only the low sizes equilibrate (at the critical profile) and the
excess mass drifts to ever larger clusters.  At a finite truncation that
drift parks mass near the boundary, so the classifier reports both the
excess band and the boundary band instead of claiming the infinite-system
limit.

Also implemented: the construction of a positive increasing superlinear
weight sequence with ``(k+1)(g_{k+1} - g_k) <= 2 g_k`` adapted to a given
profile (a de la Vallee-Poussin-type argument), which is what makes
uniform-integrability arguments quantitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import _csv
from .dynamics import ConcentrationProfile, TrajectoryRecord, state_from_profile, strong_norm
from .equilibrium import (
    ChemicalPotential,
    InconclusiveDensityError,
    critical_density,
    equilibrium_free_energy,
    equilibrium_profile,
)
from .thermo import BLOCK_ROWS, thermo_series

__all__ = [
    "AnalysisConfig",
    "ConvergenceReport",
    "SuperlinearWeights",
    "NotIntegrableError",
    "RhoCUnavailableError",
    "tail_mass",
    "weak_distance",
    "strong_norm_distance",
    "classify_longtime",
    "superlinear_weights",
    "write_convergence_series_csv",
]

StateLike = Union[ConcentrationProfile, np.ndarray, Sequence[float]]
# Densities within this of rho_c classify as critical.
_DEAD_BAND = 1e-6


class NotIntegrableError(ValueError):
    """The provided tails do not decay, no superlinear weight exists."""


class RhoCUnavailableError(RuntimeError):
    """Classification needs a critical density but it was inconclusive."""


def _coefficients(state: StateLike) -> np.ndarray:
    if isinstance(state, ConcentrationProfile):
        return state.c
    return np.asarray(state, dtype=float)


def tail_mass(state: StateLike, l: int) -> float:
    """Mass carried by clusters of size ``l`` and larger."""
    c = _coefficients(state)
    if not 0 <= l <= len(c) - 1:
        raise ValueError("tail start must lie inside the truncation range")
    ks = np.arange(l, len(c), dtype=float)
    return float(np.dot(ks, c[l:]))


def _difference(a: StateLike, b: StateLike) -> np.ndarray:
    """``a - b`` with the shorter sequence padded by zeros."""
    ca, cb = _coefficients(a), _coefficients(b)
    n = max(len(ca), len(cb))
    if len(ca) < n:
        ca = np.concatenate([ca, np.zeros(n - len(ca))])
    if len(cb) < n:
        cb = np.concatenate([cb, np.zeros(n - len(cb))])
    return ca - cb


def weak_distance(a: StateLike, b: StateLike) -> float:
    """Plain l1 distance of coefficient sequences (metrizes weak-* on balls)."""
    return float(np.sum(np.abs(_difference(a, b))))


def strong_norm_distance(a: StateLike, b: StateLike) -> float:
    """Mass-weighted distance ``sum (1+l) |a_l - b_l|``."""
    return strong_norm(_difference(a, b))


@dataclass(frozen=True)
class AnalysisConfig:
    """The ``analysis`` block of a config: the long-time classifier's bands,
    then the switches, sizes and checkpoint cadence the CLI reads.  An int
    field's ``least`` metadata is the least value its consumer takes (else 0)."""

    excess_band_start: int = 64
    low_band: int = 10
    thermo: bool = True
    classify: bool = True
    checkpoint_every: Optional[float] = None
    equilibrium_k_max: int = field(default=10**6, metadata={"least": 1})
    profile_k_max: int = 1024
    audit_k_max: int = field(default=100, metadata={"least": 2})
    audit_l_max: int = field(default=100, metadata={"least": 2})


@dataclass
class ConvergenceReport:
    """Outcome of comparing a trajectory against its limiting profile.

    ``regime`` is decided by the sign of ``rho - rho_c`` inside a dead band;
    the distance series are taken against the equilibrium at density
    ``min(rho, rho_c)``.  Supercritical runs also carry the mass in the
    configured excess band and the gap of the free energy to its predicted
    limit (which for condensing runs includes the escaped-mass term).
    """

    target_density: float
    rho_c: float
    regime: str
    times: np.ndarray
    weak_distance_series: np.ndarray
    strong_distance_series: np.ndarray
    low_band_distance_series: np.ndarray
    excess_mass_series: np.ndarray
    free_energy_series: np.ndarray
    free_energy_limit: float
    free_energy_limit_gap: float
    boundary_mass_series: np.ndarray
    truncation_contaminated_from: Optional[float]
    config: AnalysisConfig = field(default_factory=AnalysisConfig)

    def as_dict(self) -> dict:
        from .equilibrium import tagged_value

        return {
            "target_density": self.target_density,
            "rho_c": tagged_value(self.rho_c),
            "regime": self.regime,
            "free_energy_limit": self.free_energy_limit,
            "free_energy_limit_gap": self.free_energy_limit_gap,
            "final_weak_distance": float(self.weak_distance_series[-1]),
            "final_strong_distance": float(self.strong_distance_series[-1]),
            "final_low_band_distance": float(self.low_band_distance_series[-1]),
            "final_excess_mass": float(self.excess_mass_series[-1]),
            "final_boundary_mass": float(self.boundary_mass_series[-1]),
            "truncation_contaminated_from": self.truncation_contaminated_from,
            "excess_band_start": self.config.excess_band_start,
            "low_band": self.config.low_band,
            "samples": int(len(self.times)),
        }


def classify_longtime(
    traj: TrajectoryRecord,
    cp: ChemicalPotential,
    cfg: AnalysisConfig = AnalysisConfig(),
    free_energy_series: Optional[np.ndarray] = None,
) -> ConvergenceReport:
    """Compare a recorded run against the phase diagram of its kernel; the
    run's free energy per sample (from ``cp``) is computed unless given."""
    if traj.sample_count < 10:
        raise ValueError("need at least 10 recorded samples to classify")
    rho = float(traj.first_moments[0])
    try:
        rho_c = critical_density(cp)
    except InconclusiveDensityError as exc:
        raise RhoCUnavailableError("rho_c unavailable") from exc

    if rho > rho_c + _DEAD_BAND:
        regime = "supercritical"
    elif math.isfinite(rho_c) and rho >= rho_c - _DEAD_BAND:
        regime = "critical"
    else:
        regime = "subcritical"

    target = min(rho, rho_c)
    profile = equilibrium_profile(cp, rho=target, k_max=max(traj.n_trunc, cfg.low_band))
    omega = state_from_profile(profile, traj.n_trunc).c
    weak, strong, low, excess = _distance_series(
        traj.states, omega, cfg.low_band, min(cfg.excess_band_start, traj.n_trunc)
    )
    if free_energy_series is None:
        free_energy_series = thermo_series(traj.states, cp=cp).free_energy

    f_limit = equilibrium_free_energy(profile)
    if regime == "supercritical":
        f_limit += (rho - rho_c) * math.log(cp.phi_c_estimate)
    gap = float(free_energy_series[-1] - f_limit)

    return ConvergenceReport(
        target_density=rho,
        rho_c=rho_c,
        regime=regime,
        times=traj.times.copy(),
        weak_distance_series=weak,
        strong_distance_series=strong,
        low_band_distance_series=low,
        excess_mass_series=excess,
        free_energy_series=free_energy_series,
        free_energy_limit=f_limit,
        free_energy_limit_gap=gap,
        boundary_mass_series=traj.boundary_mass.copy(),
        truncation_contaminated_from=traj.boundary_contaminated_from,
        config=cfg,
    )


def _distance_series(states: np.ndarray, omega: np.ndarray, band: int, tail_start: int) -> tuple:
    """Weak, strong, low-band (``0..band``) distances to ``omega`` and tail mass from
    ``tail_start`` of every row, with the per-sample bits (as in ``thermo_series``)."""
    weak, strong, low = np.empty(len(states)), np.empty(len(states)), np.empty(len(states))
    weights = 1.0 + np.arange(len(omega), dtype=float)
    for start in range(0, len(states), BLOCK_ROWS):
        gap = np.abs(states[start : start + BLOCK_ROWS] - omega)
        at = slice(start, start + len(gap))
        weak[at] = np.sum(gap, axis=1)
        low[at] = np.sum(gap[:, : band + 1], axis=1)
        strong[at] = np.vecdot(weights, gap)
    sizes = np.arange(tail_start, len(omega), dtype=float)
    return weak, strong, low, np.vecdot(sizes, states[:, tail_start:])


def write_convergence_series_csv(report: ConvergenceReport, path) -> None:
    """Distance/excess series as ``t, weak_d, strong_d, excess_mass, F_gap``,
    every cell ``%.17g``."""
    gap = report.free_energy_series - report.free_energy_limit
    distances = (report.weak_distance_series, report.strong_distance_series, report.excess_mass_series)
    _csv.write(path, "t,weak_d,strong_d,excess_mass,F_gap", report.times, *distances, gap)


@dataclass(frozen=True)
class SuperlinearWeights:
    """Weights ``g_k = Phi_k (k+1) + 1`` from the piecewise-linear ramp ``Phi``.

    ``ell`` are the ramp breakpoints and ``d_slopes`` the slopes chosen on
    each stretch; the construction guarantees ``g`` positive, strictly
    increasing and ``(k+1)(g_{k+1} - g_k) <= 2 g_k`` at every index.
    """

    g: np.ndarray
    phi_steps: np.ndarray
    ell: Tuple[int, ...]
    d_slopes: Tuple[float, ...]

    def __post_init__(self):
        g = self.g
        if np.any(g <= 0.0):
            raise ValueError("weights must be positive")
        diffs = np.diff(g)
        if np.any(diffs < 0.0):
            raise ValueError("weights must be nondecreasing")
        ks = np.arange(len(g) - 1, dtype=float)
        if np.any((ks + 1.0) * diffs > 2.0 * g[:-1] * (1.0 + 1e-12)):
            raise ValueError("growth bound (k+1)(g_{k+1}-g_k) <= 2 g_k violated")


def _weighted_tails(source: StateLike, is_tail_sequence: bool) -> np.ndarray:
    if is_tail_sequence:
        tails = np.asarray(_coefficients(source), dtype=float)
        if np.any(np.diff(tails) > 1e-15):
            raise ValueError("tail sequence must be nonincreasing")
        if np.any(tails < 0.0):
            raise ValueError("tail sequence must be nonnegative")
        return tails
    c = _coefficients(source)
    weighted = (np.arange(len(c), dtype=float) + 1.0) * c
    return np.cumsum(weighted[::-1])[::-1]


def superlinear_weights(
    source: StateLike, k_max: int, is_tail_sequence: bool = False
) -> SuperlinearWeights:
    """Build adapted superlinear weights for a profile (or its weighted tails).

    The breakpoints follow the decay of the tails ``C_k = sum_{l>=k} (l+1) c_l``:
    ``a_n`` is the first index with ``C_k <= 1/n^2``, the breakpoints advance by
    ``ell_{n+1} = max(ell_n + 1, a_{n+1} + 1)``, and the ramp slope on
    ``[ell_n, ell_{n+1})`` is ``d_{n+1} = min(d_n, (n+1 - Phi_{ell_n}) /
    (ell_{n+1} - ell_n), 1/ell_{n+1})``.  Using the *new* slope on the stretch
    keeps the ramp below the step function ``n+1`` on ``[ell_n, ell_{n+1})``,
    which is what the growth bound needs.

    Raises :class:`NotIntegrableError` when the tails do not decay far enough
    to place the required breakpoints.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    tails = _weighted_tails(source, is_tail_sequence)
    if tails.size == 0:
        raise ValueError("empty input")
    floor = float(tails[-1]) if is_tail_sequence else 0.0

    phi_ramp = np.zeros(k_max + 2)
    ell = [0]
    slopes = [1.0]
    pointer = 0
    n = 0
    while ell[-1] <= k_max:
        n += 1
        threshold = 1.0 / n**2
        if floor > threshold and is_tail_sequence:
            raise NotIntegrableError(
                "not integrable: tails plateau above the next breakpoint threshold"
            )
        while pointer < len(tails) and tails[pointer] > threshold:
            pointer += 1
        a_n = pointer  # beyond the stored range the tails are `floor`
        ell_next = max(ell[-1] + 1, a_n + 1)
        d_next = min(
            slopes[-1],
            (n - phi_ramp[ell[-1]]) / (ell_next - ell[-1]),
            1.0 / ell_next,
        )
        hi = min(ell_next, k_max + 1)
        ks = np.arange(ell[-1], hi + 1)
        phi_ramp[ks] = phi_ramp[ell[-1]] + d_next * (ks - ell[-1])
        slopes.append(d_next)
        ell.append(ell_next)

    ks = np.arange(k_max + 1, dtype=float)
    g = phi_ramp[: k_max + 1] * (ks + 1.0) + 1.0
    return SuperlinearWeights(
        g=g,
        phi_steps=phi_ramp[: k_max + 1],
        ell=tuple(int(l) for l in ell),
        d_slopes=tuple(float(d) for d in slopes),
    )
