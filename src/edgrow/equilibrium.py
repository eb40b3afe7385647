"""Equilibrium family of the exchange dynamics under the curl-free condition.

Product-form stationary states are indexed by a fugacity ``phi``: the weight
of size ``l`` is ``phi**l * Q_l / Z(phi)`` where ``Q_l`` multiplies the
forward/backward rate ratios of successive monomer attachments and
``Z(phi)`` is the normalizing power series.  The radius of convergence
``phi_c`` and the density reachable at it, ``rho_c``, organize the phase
diagram: densities up to ``rho_c`` are carried by a normalizable state,
anything beyond condenses.

Everything is computed in log space: the weights ``Q_l`` span hundreds of
orders of magnitude already for geometric-type kernels.  Every quantity at
a fugacity comes from one evaluator, ``_series``, which forms and log-sums
only the prefix of the series that can pass the log-sum cutoff.

What is derived once from a chemical potential (the suffix peaks that size
the cut, the sums at ``phi_c``, the ``rho_c`` decision) is kept on that
object, so it is freed with it.  :func:`critical_density_info` is the one
``rho_c`` ladder walk; it stops at the first rung that confirms the
direct tail at ``phi_c``, so a process walks the ladder at most once per
chemical potential.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .kernels import Kernel, ZeroRateError

__all__ = [
    "ChemicalPotential",
    "EquilibriumProfile",
    "PhiCEstimate",
    "CriticalDensityInfo",
    "DivergentSeriesError",
    "SupercriticalDensityError",
    "InconclusiveDensityError",
    "estimate_critical_fugacity",
    "chemical_potential",
    "partition_sum",
    "density_at_fugacity",
    "fugacity_for_density",
    "critical_density",
    "critical_density_info",
    "equilibrium_profile",
    "equilibrium_free_energy",
    "profile_to_csv",
    "profile_summary",
    "tagged_value",
]


class DivergentSeriesError(ValueError):
    """Requested fugacity lies outside the radius of convergence."""


class SupercriticalDensityError(ValueError):
    """Requested density exceeds the critical density."""

    def __init__(self, rho: float, rho_c: float):
        super().__init__(f"supercritical: rho={rho!r} exceeds rho_c={rho_c!r}")
        self.rho = rho
        self.rho_c = rho_c


class InconclusiveDensityError(RuntimeError):
    """The critical-density extrapolation did not stabilize."""


class PhiCEstimate(NamedTuple):
    value: float
    converged: bool
    tail_deviation: float


@dataclass(frozen=True, eq=False)
class ChemicalPotential:
    """Log-space prefix products of attachment-rate ratios.

    ``log_q[l]`` is the log weight of size ``l`` with ``log_q[0] = 0`` and
    increments ``log K(1, l-1) - log K(l, 0)``.  ``phi_c_estimate`` is the
    sampled radius of convergence of the associated power series (may be
    ``inf``).  ``_memo`` holds what this module derives from the instance
    (suffix peaks, phi_c sums, the critical density).
    """

    log_q: np.ndarray
    phi_c_estimate: float
    phi_c_converged: bool
    k_max: int
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.log_q[0] != 0.0:
            raise ValueError("log_q[0] must be 0 (unit weight at size 0)")
        if len(self.log_q) != self.k_max + 1:
            raise ValueError("log_q must cover sizes 0..k_max")


@dataclass(frozen=True)
class EquilibriumProfile:
    """Normalized equilibrium state truncated at ``k_max``.

    ``omega[l] = exp(l log phi + log_q[l] - log Z)`` against the full-range
    partition value, so the truncated entries sum to at most 1 and the defect
    is bounded by ``truncation_tail_bound``.  ``density`` is the full-series
    mean cluster mass at this fugacity.
    """

    omega: np.ndarray
    phi: float
    z_value: float
    log_z: float
    density: float
    truncation_tail_bound: float
    k_max: int


def estimate_critical_fugacity(
    kernel: Kernel, k_probe: int = 1 << 16, rel_tol: float = 1e-6
) -> PhiCEstimate:
    """Estimate the limiting detachment/attachment rate ratio.

    The ratio ``r_k = K(k, 0) / K(1, k-1)`` is sampled on a dyadic ladder up
    to ``k_probe`` and extrapolated to ``k -> infinity`` by Richardson steps
    (rate families built from rational expressions have exact expansions in
    ``1/k``, so the extrapolation reaches machine precision).  A plain tail
    average cannot resolve ``1/k`` corrections to the accuracy the critical
    constants need, which is why the ladder is extrapolated instead of
    averaged; the tail window deviation is still reported.  A ratio that
    grows monotonically and substantially across the ladder is flagged as a
    divergent (infinite) radius.
    """
    if k_probe < 16:
        raise ValueError("k_probe must be at least 16")
    k0 = 1 << int(math.floor(math.log2(k_probe)))
    levels = 1
    while levels < 7 and (k0 >> levels) >= 16:
        levels += 1
    nodes = np.array([k0 >> (levels - 1 - i) for i in range(levels)], dtype=float)
    r = np.array(
        [kernel(int(k), 0) / kernel(1, int(k) - 1) for k in nodes], dtype=float
    )

    window = np.unique(np.linspace(k0 // 2, k0, 9, dtype=int))
    r_window = np.array([kernel(int(k), 0) / kernel(1, int(k) - 1) for k in window])
    mean = float(np.mean(r_window))
    tail_dev = float(np.max(np.abs(r_window - mean)) / max(abs(mean), 1e-300))

    increasing = bool(np.all(np.diff(r) > 0))
    if r[-1] > 1e12 or (increasing and r[-1] >= 8.0 * max(r[0], 1e-300)):
        return PhiCEstimate(math.inf, True, tail_dev)

    # Richardson table for nodes doubling toward k0 (h = 1/k halving).
    table = [r.copy()]
    for m in range(1, levels):
        prev = table[-1]
        factor = 2.0**m
        table.append((factor * prev[1:] - prev[:-1]) / (factor - 1.0))
    value = float(table[-1][-1])
    increment = abs(value - float(table[-2][-1])) if levels >= 2 else math.inf
    converged = increment <= rel_tol * max(abs(value), 1e-300)
    return PhiCEstimate(max(value, 0.0), bool(converged), tail_dev)


def chemical_potential(
    kernel: Kernel, k_max: int, phi_c: Optional[float] = None
) -> ChemicalPotential:
    """Accumulate ``log_q`` for sizes ``0..k_max`` and attach a ``phi_c`` estimate."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ls = np.arange(1, k_max + 1, dtype=float)
    attach = kernel(np.ones(1), ls - 1.0)  # K(1, l-1)
    detach = kernel(ls, np.zeros(1))  # K(l, 0)
    bad = np.nonzero((attach <= 0.0) | (detach <= 0.0))[0]
    if bad.size:
        l = int(bad[0]) + 1
        raise ZeroRateError(
            f"zero-rate: K(1,{l - 1}) or K({l},0) vanishes; chemical potential undefined"
        )
    increments = np.log(attach) - np.log(detach)
    log_q = np.concatenate(([0.0], np.cumsum(increments)))
    if phi_c is None:
        estimate = estimate_critical_fugacity(kernel)
        phi_c_value, converged = estimate.value, estimate.converged
    else:
        phi_c_value, converged = float(phi_c), True
    return ChemicalPotential(
        log_q=log_q, phi_c_estimate=phi_c_value, phi_c_converged=converged, k_max=int(k_max)
    )


def _check_fugacity(cp: ChemicalPotential, phi: float) -> None:
    if phi < 0.0:
        raise ValueError("fugacity must be nonnegative")
    if math.isfinite(cp.phi_c_estimate) and phi > cp.phi_c_estimate * (1.0 + 1e-9):
        raise DivergentSeriesError(
            f"divergent: phi={phi!r} exceeds phi_c={cp.phi_c_estimate!r}"
        )


def partition_sum(cp: ChemicalPotential, phi: float) -> Tuple[float, float]:
    """Normalizing series and a tail bound for its truncation.

    Returns ``(z_value, tail_bound)``.  The bound is geometric, computed from
    the largest term ratio seen on the top decile of the range together with
    ``phi/phi_c``; when that ratio reaches 1 (e.g. exactly at the critical
    fugacity) the remainder has no geometric majorant and the bound is
    reported as ``inf`` rather than invented.
    """
    _check_fugacity(cp, phi)
    if phi == 0.0:
        return 1.0, 0.0
    _, log_z, _ = _series(cp, math.log(phi), weighted=False)
    z = math.exp(log_z) if log_z < 709.0 else math.inf
    return z, _geometric_tail(cp, phi)


def _geometric_tail(cp: ChemicalPotential, phi: float) -> float:
    """Geometric majorant of the series beyond ``k_max``, from the terms of
    the top decile of the range only."""
    start = int(0.9 * cp.k_max)
    t = np.arange(start, cp.k_max + 1, dtype=float) * math.log(phi) + cp.log_q[start:]
    ratios = np.exp(np.diff(t))
    q = float(np.max(ratios))
    if math.isfinite(cp.phi_c_estimate) and cp.phi_c_estimate > 0.0:
        q = max(q, phi / cp.phi_c_estimate)
    if q >= 1.0 - 1e-12:
        return math.inf
    last = math.exp(t[-1])
    return last * q / (1.0 - q)


# Series terms below this fraction of the peak cannot move the sum by an ulp,
# so _log_sum drops them.  _series goes one step further and does not
# evaluate a suffix of the series whose every term is certain to be
# dropped: for 0 < phi < phi_c the terms are ``t_l = s_l + l log(phi/phi_c)``
# with ``s_l = log_q[l] + l log phi_c``, so ``max_{l >= L} s_l + L log(phi/phi_c)``
# bounds every term from size L on.  A suffix is skipped when that bound lies
# _CUT_MARGIN nats below ``peak bound + _LOG_CUTOFF``; the peak is at least
# t_0 = 0 for the normalization and its first term t_1 for the size-weighted
# sum.  The margin covers the rounding of ``l log phi + log_q[l]`` and
# ``l log phi_c + log_q[l]``, a few ulps of their magnitude (under 1e-6 nats
# for k_max <= 10**6 and |log_q| < 1e9), so every skipped term is one
# _log_sum would drop, and the kept terms, their order and their sum are
# bit-identical to the full range.
_LOG_CUTOFF = math.log(1e-18)
_CUT_MARGIN = 2.0


def _log_sum(values: np.ndarray, overwrite: bool = False) -> float:
    """Log of a sum of exponentials over the terms that can contribute;
    ``overwrite`` lets it use ``values`` as its scratch."""
    m = float(np.max(values))
    if not math.isfinite(m):
        return -math.inf
    floor = m + _LOG_CUTOFF
    if float(np.min(values)) < floor:
        kept = values[values >= floor]
        kept -= m  # in place: no further full-length temporaries
    else:  # every term counts: no mask and no gathered copy
        kept = np.subtract(values, m, out=values if overwrite else None)
    return m + math.log(float(np.sum(np.exp(kept, out=kept))))


def _suffix_peaks(cp: ChemicalPotential) -> Tuple[Tuple[int, float, float], ...]:
    """``(L, max_{l >= L} s_l, max_{l >= L} (s_l + log l))`` on the dyadic
    ladder ``L = 2, 4, ... <= k_max``, with ``s_l = log_q[l] + l log phi_c``.

    Needs a finite positive ``phi_c``.  Built once per chemical potential and
    kept on it; only O(log k_max) floats are kept.
    """
    if "suffix_peaks" not in cp._memo:
        starts = [1 << j for j in range(1, cp.k_max.bit_length())]
        ls = np.arange(cp.k_max + 1, dtype=float)
        s = ls * math.log(cp.phi_c_estimate) + cp.log_q
        with np.errstate(divide="ignore"):
            s_num = s + np.log(ls)
        peaks = [
            np.maximum.accumulate(np.maximum.reduceat(v, starts)[::-1])[::-1].tolist()
            for v in (s, s_num)
        ]
        cp._memo["suffix_peaks"] = tuple(zip(starts, *peaks))
    return cp._memo["suffix_peaks"]


def _series_length(cp: ChemicalPotential, log_phi: float) -> int:
    """Number of leading terms of the series at ``log phi`` that can survive
    the cutoff of :func:`_log_sum` (see ``_LOG_CUTOFF``)."""
    full = cp.k_max + 1
    step = log_phi - _log_phi_c(cp)
    if not step < 0.0:  # also NaN: no finite positive phi_c
        return full
    # The peaks are at least t_0 = 0 (denominator) and t_1 (numerator).
    floor_den = _LOG_CUTOFF - _CUT_MARGIN
    floor_num = log_phi + float(cp.log_q[1]) + floor_den
    for length, peak, peak_num in _suffix_peaks(cp):
        if peak + length * step < floor_den and peak_num + length * step < floor_num:
            return length
    return full


def _log_phi_c(cp: ChemicalPotential) -> float:
    """``log phi_c``, or NaN unless ``phi_c`` is finite and positive."""
    phi_c = cp.phi_c_estimate
    return math.log(phi_c) if math.isfinite(phi_c) and phi_c > 0.0 else math.nan


def _series(
    cp: ChemicalPotential, log_phi: float, n_terms: int = 0, weighted: bool = True
) -> Tuple[np.ndarray, float, float]:
    """Leading terms ``t_l = l log phi + log_q[l]`` at ``phi = exp(log_phi) > 0``
    with the logs of ``sum exp(t_l)`` and (if ``weighted``, else NaN) of
    ``sum l exp(t_l)``.

    Returns at least ``n_terms`` terms.  Both sums are bit-identical to
    summing all ``k_max + 1`` terms: they run over every term that can pass
    the cutoff of the log-sum (see ``_LOG_CUTOFF``), and at ``phi_c``, where
    that is the full range, they come from :func:`_phi_c_sums`, so only the
    ``n_terms`` requested terms are formed.
    """
    n = max(_series_length(cp, log_phi), n_terms)
    if n > cp.k_max and log_phi == _log_phi_c(cp):
        t = np.arange(n_terms, dtype=float) * log_phi + cp.log_q[:n_terms]
        log_den, log_num = _phi_c_sums(cp)
        return t, log_den, log_num if weighted else math.nan
    return _summed_terms(cp, log_phi, n, weighted)


def _summed_terms(
    cp: ChemicalPotential, log_phi: float, n: int, weighted: bool = True
) -> Tuple[np.ndarray, float, float]:
    """The first ``n`` terms at ``log phi`` and the log-sums of :func:`_series`."""
    ls = np.arange(n, dtype=float)
    t = ls * log_phi + cp.log_q[:n]
    log_num = math.nan
    if weighted:  # t_l + log l, formed in the buffer of l
        log_ls = np.log(ls[1:], out=ls[1:])
        log_num = _log_sum(np.add(t[1:], log_ls, out=log_ls), overwrite=True)
    return t, _log_sum(t), log_num


def _phi_c_sums(cp: ChemicalPotential) -> Tuple[float, float]:
    """``(log sum exp(t_l), log sum l exp(t_l))`` over the full range at
    ``phi_c``, the one sum no cut shortens; needs a finite positive ``phi_c``.

    Kept on ``cp`` and shared by the direct tail of
    :func:`critical_density_info`, ``rho_hi`` of :func:`fugacity_for_density`,
    and :func:`partition_sum` and :func:`equilibrium_profile` at ``phi_c``.
    """
    if "phi_c_sums" not in cp._memo:
        _, log_den, log_num = _summed_terms(cp, _log_phi_c(cp), cp.k_max + 1)
        cp._memo["phi_c_sums"] = (log_den, log_num)
    return cp._memo["phi_c_sums"]


def density_at_fugacity(cp: ChemicalPotential, phi: float) -> float:
    """Mean cluster mass of the equilibrium state at fugacity ``phi``."""
    _check_fugacity(cp, phi)
    if phi == 0.0:
        return 0.0
    _, log_den, log_num = _series(cp, math.log(phi))
    return math.exp(log_num - log_den)


def fugacity_for_density(
    cp: ChemicalPotential, rho: float, rel_tol: float = 1e-10
) -> float:
    """Invert the strictly increasing density map by bisection.

    Densities at (or numerically indistinguishable from) the critical value
    return the critical fugacity exactly.  Raises
    :class:`SupercriticalDensityError` beyond it.
    """
    if rho < 0.0:
        raise ValueError("density must be nonnegative")
    if rho == 0.0:
        return 0.0
    rho_c = critical_density(cp)
    if rho > rho_c * (1.0 + 1e-9) + 1e-12:
        raise SupercriticalDensityError(rho, rho_c)

    phi_c = cp.phi_c_estimate
    if math.isfinite(phi_c):
        hi = phi_c
        rho_hi = density_at_fugacity(cp, hi)
        if rho >= rho_hi:
            # At the truncation in use, no fugacity below phi_c reaches rho;
            # the requested density is certified subcritical, so the critical
            # fugacity is the inverse.
            return phi_c
    else:
        hi = 1.0
        while density_at_fugacity(cp, hi) < rho:
            hi *= 2.0
            if hi > 1e12:
                raise InconclusiveDensityError(
                    "could not bracket the requested density"
                )
    lo = 0.0
    target_tol = rel_tol * max(1.0, rho)
    phi = 0.5 * (lo + hi)
    for _ in range(200):
        phi = 0.5 * (lo + hi)
        value = density_at_fugacity(cp, phi)
        err = value - rho
        if abs(err) <= target_tol:
            return phi
        if err > 0.0:
            hi = phi
        else:
            lo = phi
        if hi - lo <= 1e-17 * max(hi, 1.0):
            break
    value = density_at_fugacity(cp, phi)
    if abs(value - rho) <= 10.0 * target_tol:
        return phi
    raise InconclusiveDensityError(
        f"bisection stalled at phi={phi!r} with density error {value - rho!r}"
    )


@dataclass(frozen=True)
class CriticalDensityInfo:
    """How the critical density was obtained.

    ``ladder`` holds the densities along the dyadic fugacity ladder
    ``phi_j = phi_c (1 - 2^-j)``; ``last_increment`` is the final ladder step;
    ``method`` is one of ``"infinite-radius"``, ``"direct-tail"``,
    ``"ladder"`` or ``"ladder-ceiling"``.  ``tail_defect`` is the part
    ``num_tail / den`` of a ``"direct-tail"`` value that the algebraic tail
    beyond ``k_max`` carries (NaN for the other methods).
    """

    value: float
    ladder: Tuple[float, ...]
    last_increment: float
    method: str
    tail_defect: float = math.nan


def _algebraic_tail(t_half: float, t_n: float, n: int) -> Optional[float]:
    """Tail estimate for an eventually algebraically decaying positive series.

    Fits the local power ``p`` from the log terms ``t_half`` at ``n // 2``
    and ``t_n`` at the truncation ``n`` and integrates ``C l^-p`` beyond it.
    Returns ``None`` when the terms do not decay algebraically.
    """
    half = n // 2
    if half < 2 or not (math.isfinite(t_n) and math.isfinite(t_half)) or t_n >= t_half:
        return None
    p = (t_half - t_n) / math.log(n / half)
    if p <= 1.05:
        return None
    return math.exp(t_n) * n / (p - 1.0)


def _direct_tail(cp: ChemicalPotential) -> Optional[Tuple[float, float, float]]:
    """The density at ``phi_c`` from the full-range sums completed by
    algebraic tails: ``(direct, num_tail / den, rho_N(phi_c))``, the last
    being the truncated density at ``phi_c``, which bounds every ladder rung
    from above.  ``None`` when a tail does not fit or the sums overflow a
    float."""
    log_phi_c = math.log(cp.phi_c_estimate)
    ends = np.array([cp.k_max // 2, cp.k_max])
    den_ends = ends * log_phi_c + cp.log_q[ends]
    with np.errstate(divide="ignore"):  # k_max // 2 is 0 when k_max = 1
        num_ends = den_ends + np.log(ends)
    with contextlib.suppress(OverflowError):
        num_tail = _algebraic_tail(*num_ends, cp.k_max)
        den_tail = _algebraic_tail(*den_ends, cp.k_max)
        if num_tail is not None and den_tail is not None:
            log_den, log_num = _phi_c_sums(cp)
            den = math.exp(log_den) + den_tail
            direct = (math.exp(log_num) + num_tail) / den
            return direct, num_tail / den, math.exp(log_num - log_den)
    return None


def _accepts_direct_tail(direct_tail: Tuple[float, float, float], rung: float) -> bool:
    """Whether the direct-tail value agrees with a ladder that ends at
    density ``rung``: at most 1e-9 below it, and above it by at most three
    tail defects plus a relative 1e-6."""
    direct, defect, _ = direct_tail
    return direct >= rung - 1e-9 and direct - rung <= 3.0 * defect + 1e-6 * max(1.0, direct)


_LADDER_RUNGS = 48


def _ladder_rung(cp: ChemicalPotential, j: int) -> Tuple[float, float, float]:
    """Rung ``j >= 1`` of the ladder at ``phi_j = phi_c (1 - 2^-j)``:
    ``(density, log phi_j, log sum l exp(t_l))``."""
    log_phi = math.log(cp.phi_c_estimate * (1.0 - 0.5**j))
    _, log_den, log_num = _series(cp, log_phi)
    return math.exp(log_num - log_den), log_phi, log_num


def _stabilized(ladder: Sequence[float]) -> bool:
    """Whether the last two ladder steps each moved the density by less
    than a relative ``1e-8``."""
    return len(ladder) >= 3 and all(
        abs(b - a) / max(abs(b), 1e-300) < 1e-8 for a, b in zip(ladder[-3:-1], ladder[-2:])
    )


def _critical_density_decision(
    cp: ChemicalPotential,
    rungs: Sequence[Tuple[float, float, float]],
    direct_tail: Optional[Tuple[float, float, float]],
) -> CriticalDensityInfo:
    """The critical density from the walked ladder and the direct tail at
    ``phi_c`` (see :func:`critical_density_info`)."""
    if not rungs:  # no ladder: phi_c is infinite or zero
        if math.isinf(cp.phi_c_estimate):
            return CriticalDensityInfo(math.inf, (), math.nan, "infinite-radius")
        return CriticalDensityInfo(0.0, (), 0.0, "ladder")
    ladder = tuple(value for value, _, _ in rungs)
    _, log_phi_last, log_num_last = rungs[-1]
    last_inc = abs(ladder[-1] - ladder[-2]) if len(ladder) >= 2 else math.nan
    if direct_tail is not None and _accepts_direct_tail(direct_tail, ladder[-1]):
        direct, defect, _ = direct_tail
        return CriticalDensityInfo(float(direct), ladder, last_inc, "direct-tail", float(defect))

    # A ladder that flattens out may have hit the truncation ceiling rather
    # than a genuine limit: the density series at the last rung must have
    # decayed within the available range for the plateau to mean anything.
    last_term = cp.k_max * log_phi_last + cp.log_q[-1] + np.log(cp.k_max)
    truncation_clean = (last_term - log_num_last) < math.log(1e-10)
    if _stabilized(ladder) and truncation_clean:
        return CriticalDensityInfo(ladder[-1], ladder, last_inc, "ladder")
    # A rung density is exp(log_num - log_den), a difference of log-sums as
    # large as the terms l log phi + log_q[l], and each term is rounded to
    # about an ulp of its magnitude.  So rungs that are equal in exact
    # arithmetic (mass piled at k_max) can differ relatively by a few ulps
    # of that magnitude, and a ladder is monotone up to that slack.
    log_phi_max = max(abs(log_phi) for _, log_phi, _ in rungs)
    magnitude = cp.k_max * log_phi_max + float(np.max(np.abs(cp.log_q)))
    slack = 4.0 * math.ulp(max(magnitude, 1.0))
    if not truncation_clean and all(b >= a * (1.0 - slack) for a, b in zip(ladder, ladder[1:])):
        # The ladder kept climbing until the series overflowed the truncation
        # window; in the untruncated system it would climb without bound.
        return CriticalDensityInfo(math.inf, ladder, last_inc, "ladder-ceiling")
    raise InconclusiveDensityError(
        "inconclusive: fugacity ladder did not stabilize and the critical-point "
        "series offers no algebraic tail"
    )


def critical_density_info(cp: ChemicalPotential) -> CriticalDensityInfo:
    """Supremum of the density map on ``[0, phi_c]`` with extrapolation detail.

    The dyadic ladder establishes whether the supremum is finite (a ladder
    that climbs until the series overflows the truncation window means an
    infinite critical density; a truncated density is a mean of sizes
    ``<= k_max``, so the ladder itself stays finite).  When the series
    still converges at ``phi_c`` itself, the truncated direct sums are
    completed with an algebraic tail estimate, which is what makes the value
    accurate to ~1/k_max^2 instead of the raw 1/k_max truncation error.

    The ladder is walked rung by rung until its last two steps each move
    the density by less than a relative 1e-8, or for ``_LADDER_RUNGS``
    rungs.  When the direct tail exists and is at least the truncated
    density ``rho_N(phi_c)`` less 1e-9, the walk stops at the first rung
    that accepts it: the density increases with ``phi``, so every later rung
    lies between that rung and ``rho_N(phi_c)`` and would accept the same
    value.  The result, or an inconclusive verdict, is kept on ``cp``, so
    the walk runs once per chemical potential.
    """
    if "info" not in cp._memo:
        rungs: list = []
        direct_tail = None
        if not (math.isinf(cp.phi_c_estimate) or cp.phi_c_estimate <= 0.0):
            direct_tail = _direct_tail(cp)
            stops = direct_tail is not None and direct_tail[0] >= direct_tail[2] - 1e-9
            while len(rungs) < _LADDER_RUNGS and not _stabilized([r for r, _, _ in rungs[-3:]]):
                rungs.append(_ladder_rung(cp, len(rungs) + 1))
                if stops and _accepts_direct_tail(direct_tail, rungs[-1][0]):
                    break
        try:
            cp._memo["info"] = _critical_density_decision(cp, rungs, direct_tail)
        except InconclusiveDensityError as exc:
            cp._memo["info"] = exc
    if isinstance(cp._memo["info"], InconclusiveDensityError):
        raise InconclusiveDensityError(*cp._memo["info"].args)
    return cp._memo["info"]


def critical_density(cp: ChemicalPotential) -> float:
    """Largest density carried by a normalizable equilibrium (may be ``inf``)."""
    return critical_density_info(cp).value


def equilibrium_profile(
    cp: ChemicalPotential,
    phi: Optional[float] = None,
    rho: Optional[float] = None,
    k_max: Optional[int] = None,
) -> EquilibriumProfile:
    """Normalized equilibrium state for a given fugacity or density.

    Exactly one of ``phi`` and ``rho`` must be given.  The profile is cut at
    ``k_max`` (default: the chemical-potential range) while the normalization
    uses the full range, so the entries sum to at most 1.
    """
    if (phi is None) == (rho is None):
        raise ValueError("specify exactly one of phi and rho")
    if phi is None:
        phi = fugacity_for_density(cp, rho)
    k_prof = cp.k_max if k_max is None else min(int(k_max), cp.k_max)
    _check_fugacity(cp, phi)
    if phi == 0.0:
        omega = np.zeros(k_prof + 1)
        omega[0] = 1.0
        return EquilibriumProfile(
            omega=omega, phi=0.0, z_value=1.0, log_z=0.0, density=0.0,
            truncation_tail_bound=0.0, k_max=k_prof,
        )
    t, log_z, log_num = _series(cp, math.log(phi), k_prof + 1)
    omega = np.exp(t[: k_prof + 1] - log_z)
    mass_defect = max(0.0, 1.0 - float(np.sum(omega)))
    series_tail = _geometric_tail(cp, phi)
    z = math.exp(log_z)
    tail_bound = mass_defect + (series_tail / z if math.isfinite(series_tail) else math.inf)
    return EquilibriumProfile(
        omega=omega,
        phi=float(phi),
        z_value=z if log_z < 709.0 else math.inf,
        log_z=log_z,
        density=math.exp(log_num - log_z),
        truncation_tail_bound=tail_bound,
        k_max=k_prof,
    )


def equilibrium_free_energy(profile: EquilibriumProfile) -> float:
    """Closed-form free energy of an equilibrium state: ``rho log phi - log Z``."""
    if profile.phi == 0.0:
        return 0.0
    return profile.density * math.log(profile.phi) - profile.log_z


def tagged_value(x: float) -> dict:
    """JSON-safe representation of a possibly infinite quantity."""
    if math.isinf(x):
        return {"finite": False, "value": None}
    return {"finite": True, "value": x}


def profile_to_csv(profile: EquilibriumProfile, cp: ChemicalPotential, path) -> None:
    """Write ``l, omega_l, log_q_l`` rows in full double precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("l,omega_l,log_q_l\n")
        for l in range(profile.k_max + 1):
            fh.write(f"{l},{profile.omega[l]:.17g},{cp.log_q[l]:.17g}\n")


def profile_summary(profile: EquilibriumProfile, cp: ChemicalPotential) -> dict:
    """Self-describing scalar summary of an equilibrium computation.

    Besides the values it records how ``phi_c`` and ``rho_c`` were obtained:
    the ``phi_c`` convergence flag and the ``rho_c`` method, ladder length and
    last ladder increment (``None`` when the ladder has fewer than two rungs);
    for a ``"direct-tail"`` value also its tail defect and its gap above the
    last rung (``None`` for the other methods).
    """
    info = critical_density_info(cp)
    last = info.last_increment
    direct = info.method == "direct-tail"
    return {
        "phi": profile.phi,
        "z": tagged_value(profile.z_value),
        "density": profile.density,
        "rho_c": tagged_value(info.value),
        "rho_c_method": info.method,
        "rho_c_ladder_length": len(info.ladder),
        "rho_c_last_increment": None if math.isnan(last) else tagged_value(last),
        "rho_c_tail_defect": info.tail_defect if direct else None,
        "rho_c_direct_gap": info.value - info.ladder[-1] if direct else None,
        "phi_c": tagged_value(cp.phi_c_estimate),
        "phi_c_converged": cp.phi_c_converged,
        "truncation_tail_bound": tagged_value(profile.truncation_tail_bound),
        "k_max": cp.k_max,
    }
