"""Equilibrium family of the exchange dynamics under the curl-free condition.

Product-form stationary states are indexed by a fugacity ``phi``: the weight
of size ``l`` is ``phi**l * Q_l / Z(phi)`` where ``Q_l`` multiplies the
forward/backward rate ratios of successive monomer attachments and
``Z(phi)`` is the normalizing power series, cut at ``k_max``.  The radius of
convergence ``phi_c`` and the density reachable at it, ``rho_c``, organize
the phase diagram: densities up to ``rho_c`` are carried by a normalizable
state, anything beyond condenses.

Everything is computed in log space.  A chemical potential keeps its kernel
and forms ``log_q`` on demand.  Below a finite ``phi_c`` a series is cut
where no term can pass the log-sum cutoff.  A sum of at most ``_SUM_BLOCK =
2^17`` terms is formed term by term.  A longer one takes the sizes up to
``_PREFIX = 2^12`` term by term and the rest from the kernel's asymptotic
expansion ``log Q_l + l log phi_c = C - s log l + sum_i a_i l^-i``
(:mod:`edgrow._far`), which also completes the sums at ``phi_c`` beyond
``k_max``: ``rho_c`` is finite exactly when ``s > 2``.  Where no expansion
fits (an infinite, zero or unconverged ``phi_c``, a given one that is not
the kernel's radius, or a kernel that settles too late for the fit) a long
sum is formed block by block.

What is derived from a chemical potential (``log_q``, the expansion, the
sums at ``phi_c``, the ``rho_c`` decision) is kept on it.
:func:`critical_density_info` takes ``rho_c`` from those sums where the
expansion's exponent shows ``s > 2``, and otherwise decides it on the
dyadic fugacity ladder.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import _csv, _far
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
    "FAR_FIELDS",
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


@dataclass(frozen=True, eq=False)
class ChemicalPotential:
    """Log weights of ``kernel``: ``log_q[l]`` for ``l <= k_max``, with
    ``log_q[0] = 0`` and increments ``log K(1, l-1) - log K(l, 0)``, formed
    on demand.  ``phi_c_estimate`` is the radius of convergence of the power
    series (may be ``inf``); ``_memo`` holds what this module derives."""

    kernel: Kernel
    phi_c_estimate: float
    phi_c_converged: bool
    k_max: int
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")

    def log_q_prefix(self, n: int) -> np.ndarray:
        """``log_q`` of the sizes below ``n`` (at most ``k_max + 1`` of
        them), formed on from what is kept, at least doubling it."""
        formed = self._memo.get("log_q")
        if formed is None or formed.size < min(n, self.k_max + 1):
            size = min(self.k_max + 1, max(n, 0 if formed is None else 2 * formed.size))
            formed = self._memo["log_q"] = _log_q(self.kernel, size, formed)
        return formed[:n]


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


# The ratio ladder of :func:`estimate_critical_fugacity`: ``_PROBE_LEVELS``
# dyadic nodes up to ``_PROBE_K``, converged once the last Richardson step
# moves the value by at most ``_PROBE_REL_TOL`` relative.
_PROBE_K, _PROBE_LEVELS, _PROBE_REL_TOL = 1 << 16, 7, 1e-6


def estimate_critical_fugacity(kernel: Kernel) -> PhiCEstimate:
    """Estimate the limiting detachment/attachment rate ratio.

    The ratio ``r_k = K(k, 0) / K(1, k-1)`` is sampled on a dyadic ladder up
    to ``k = 2^16`` and extrapolated to ``k -> infinity`` by Richardson steps
    (rational rate families have exact expansions in ``1/k``, which a plain
    tail average cannot resolve).  A ratio that grows monotonically and
    substantially across the ladder is flagged as an infinite radius.
    """
    k0, levels = _PROBE_K, _PROBE_LEVELS
    nodes = np.array([k0 >> (levels - 1 - i) for i in range(levels)], dtype=float)
    r = np.array([kernel(int(k), 0) / kernel(1, int(k) - 1) for k in nodes], dtype=float)

    increasing = bool(np.all(np.diff(r) > 0))
    if r[-1] > 1e12 or (increasing and r[-1] >= 8.0 * max(r[0], 1e-300)):
        return PhiCEstimate(math.inf, True)

    # Richardson table for nodes doubling toward k0 (h = 1/k halving).
    table = [r.copy()]
    for m in range(1, levels):
        prev = table[-1]
        factor = 2.0**m
        table.append((factor * prev[1:] - prev[:-1]) / (factor - 1.0))
    value = float(table[-1][-1])
    increment = abs(value - float(table[-2][-1]))
    converged = increment <= _PROBE_REL_TOL * max(abs(value), 1e-300)
    return PhiCEstimate(max(value, 0.0), bool(converged))


_BLOCK = 1 << 16  # sizes per block of log_q


def _log_q(kernel: Kernel, n: int, formed: Optional[np.ndarray] = None) -> np.ndarray:
    """``log_q`` of the sizes below ``n``, carrying on from ``formed`` (a
    shorter one) in blocks of ``_BLOCK`` sizes, each cumsum carried on from
    the size before with the add a one-shot cumsum makes (same bytes)."""
    log_q = np.zeros(n)
    start = 1 if formed is None else formed.size
    if formed is not None:
        log_q[:start] = formed
    for a in range(start, n, _BLOCK):
        ls = np.arange(a, min(a + _BLOCK, n), dtype=float)
        attach = kernel(np.ones(1), ls - 1.0)  # K(1, l-1)
        detach = kernel(ls, np.zeros(1))  # K(l, 0)
        bad = np.nonzero((attach <= 0.0) | (detach <= 0.0))[0]
        if bad.size:
            i = int(bad[0])
            raise ZeroRateError(f"zero-rate: {_failing_rates(a + i, attach[i], detach[i])}")
        increments = np.log(attach, out=attach)
        increments -= np.log(detach, out=detach)
        increments[0] += log_q[a - 1]
        np.cumsum(increments, out=log_q[a : a + ls.size])
    return log_q


def chemical_potential(kernel: Kernel, k_max: int, phi_c: Optional[float] = None) -> ChemicalPotential:
    """Attach a ``phi_c`` estimate to ``kernel`` and form ``log_q`` as far as
    sums read it term by term (:func:`_prefix_end`), so a vanishing rate is
    named here unless the far expansion stands in for it."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    log_q = _log_q(kernel, (_PREFIX if k_max >= _SUM_BLOCK else k_max) + 1)
    if phi_c is None:
        estimate = estimate_critical_fugacity(kernel)
        phi_c_value, converged = estimate.value, estimate.converged
    else:
        phi_c_value, converged = float(phi_c), True
    cp = ChemicalPotential(kernel, phi_c_value, converged, int(k_max))
    cp._memo["log_q"] = log_q
    cp.log_q_prefix(_prefix_end(cp) + 1)
    return cp


def _failing_rates(l: int, attach: float, detach: float) -> str:
    """Names the rates ``K(1, l-1) = attach`` and ``K(l, 0) = detach`` that
    are not positive (one name at ``l = 1``, where both are ``K(1,0)``)."""
    rates = {f"K(1,{l - 1})": float(attach), f"K({l},0)": float(detach)}
    failing = [
        f"{name} = {value!r} " + ("vanishes" if value == 0.0 else "is not positive")
        for name, value in rates.items()
        if value <= 0.0
    ]
    return " and ".join(failing) + "; chemical potential undefined"


def _check_fugacity(cp: ChemicalPotential, phi: float) -> None:
    if phi < 0.0:
        raise ValueError("fugacity must be nonnegative")
    if math.isfinite(cp.phi_c_estimate) and phi > cp.phi_c_estimate * (1.0 + 1e-9):
        raise DivergentSeriesError(f"divergent: phi={phi!r} exceeds phi_c={cp.phi_c_estimate!r}")


def partition_sum(cp: ChemicalPotential, phi: float) -> Tuple[float, float]:
    """``(z_value, tail_bound)``: the normalizing series and a geometric
    bound of what its cut leaves out (:func:`_geometric_tail`)."""
    _check_fugacity(cp, phi)
    if phi == 0.0:
        return 1.0, 0.0
    _, log_z, _ = _series(cp, math.log(phi), weighted=False)
    z = math.exp(log_z) if log_z < 709.0 else math.inf
    return z, _geometric_tail(cp, phi)


def _geometric_tail(cp: ChemicalPotential, phi: float) -> float:
    """Geometric majorant of the series beyond ``k_max``: its last term times
    ``q / (1 - q)``, with ``q`` the larger of ``phi / phi_c`` and the first
    term ratio past the range, ``phi K(1, k_max) / K(k_max + 1, 0)``; ``inf``
    when ``q`` reaches 1 (e.g. at ``phi_c``), rather than an invented bound."""
    detach = cp.kernel(cp.k_max + 1, 0)
    q = phi * cp.kernel(1, cp.k_max) / detach if detach > 0.0 else math.inf
    if math.isfinite(cp.phi_c_estimate) and cp.phi_c_estimate > 0.0:
        q = max(q, phi / cp.phi_c_estimate)
    if q >= 1.0 - 1e-12:
        return math.inf
    return math.exp(_last_term(cp, math.log(phi))) * q / (1.0 - q)


# Series terms below this fraction of the peak cannot move the sum by an ulp,
# so _log_sum drops them, and _series does not form a suffix whose every
# term is certain to be dropped: for 0 < phi < phi_c the terms are ``t_l =
# s_l + l log(phi/phi_c)`` with ``s_l = log_q[l] + l log phi_c``, so
# ``max_{l >= L} s_l + L log(phi/phi_c)`` bounds every term from size L on.
# A suffix is skipped when that bound lies _CUT_MARGIN nats below the peak
# (at least t_0 = 0, and t_1 for the size-weighted sum) plus _LOG_CUTOFF.
# The margin covers the rounding of the terms (under 1e-6 nats for k_max <=
# 10**6 and |log_q| < 1e9) and the far expansion's error (smaller), so the
# kept terms, their order and their sum are bit-identical to the full range.
_LOG_CUTOFF = math.log(1e-18)
_CUT_MARGIN = 2.0

# A log-sum of more than _SUM_BLOCK terms takes those past _PREFIX from the
# far expansion, or without one is formed block by block.
_SUM_BLOCK = 1 << 17
_PREFIX = 1 << 12
_STREAMS = (0, 1)  # first size of each stream of _terms


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


def _terms(cp: ChemicalPotential, log_phi: float, a: int, b: int, streams: int = 1) -> np.ndarray:
    """Rows of terms at ``log phi`` for the sizes ``a <= l < b``: ``t_l = l
    log phi + log_q[l]`` and ``t_l + log l``, the first ``streams`` of them
    (the second starts at size 1, ``_STREAMS``)."""
    ls = np.arange(a, b, dtype=float)
    rows = np.empty((streams, b - a))
    t = np.multiply(ls, log_phi, out=rows[0])
    t += cp.log_q_prefix(b)[a:]
    if streams > 1:
        log_ls = ls[1:] if a == 0 else ls
        np.log(log_ls, out=log_ls)  # l = 0 stays 0
        np.add(t, ls, out=rows[1])
    return rows


def _far_series(cp: ChemicalPotential) -> Optional[_far.FarSeries]:
    """The far expansion of ``cp``, matched to ``log_q`` at ``_PREFIX`` when
    the series is longer than one block of a log-sum and at ``k_max``
    otherwise; ``None`` without a converged finite positive ``phi_c`` or a
    fit."""
    if "far" not in cp._memo:
        far, phi_c = None, cp.phi_c_estimate
        if cp.phi_c_converged and 0.0 < phi_c < math.inf:
            end = _PREFIX if cp.k_max >= _SUM_BLOCK else cp.k_max
            s_end = float(cp.log_q_prefix(end + 1)[end]) + end * math.log(phi_c)
            far = _far.fit(cp.kernel, phi_c, end, s_end)
        cp._memo["far"] = far
    return cp._memo["far"]


def _prefix_end(cp: ChemicalPotential) -> int:
    """The last size every log-sum takes term by term: ``_PREFIX`` where
    the far expansion takes over, else ``k_max``."""
    far = _far_series(cp) if cp.k_max >= _SUM_BLOCK else None
    return cp.k_max if far is None else far.end


def _log_sums(cp: ChemicalPotential, log_phi: float, n: int, streams: int) -> list:
    """Log-sums of the first ``streams`` rows of :func:`_terms` at ``log
    phi`` over the sizes below ``n``: past ``_SUM_BLOCK`` terms the prefix
    and the far expansion, or ``_SUM_BLOCK`` terms at a time."""
    offsets = _STREAMS[:streams]
    if n <= _SUM_BLOCK:
        rows = _terms(cp, log_phi, 0, n, streams)
        return [_log_sum(rows[k, offset:], overwrite=True) for k, offset in enumerate(offsets)]
    end = _prefix_end(cp)
    if end < cp.k_max:
        head = _log_sums(cp, log_phi, end + 1, streams)
        far = _far_series(cp).log_sums(log_phi - _log_phi_c(cp), end + 1, n - 1, streams)
        return np.logaddexp(head, far).tolist()
    sums = np.full(streams, -math.inf)
    for a in range(0, n, _SUM_BLOCK):
        rows = _terms(cp, log_phi, a, min(a + _SUM_BLOCK, n), streams)
        block = [_log_sum(rows[k, max(offset - a, 0) :], overwrite=True) for k, offset in enumerate(offsets)]
        sums = np.logaddexp(sums, block)
    return sums.tolist()


def _peak_bounds(cp: ChemicalPotential) -> Tuple[Tuple[int, float, float], ...]:
    """``(L, max_{l >= L} s_l, max_{l >= L} (s_l + log l))`` for ``L = 2,
    4, ... <= k_max``, with ``s_l = log_q[l] + l log phi_c``: exact over the
    sizes summed term by term, read ``_SUM_BLOCK`` sizes at a time from the
    last block back, and past them from the far expansion at ``end + 1``,
    the ladder's sizes and ``k_max``, between which it is monotone."""
    if "peaks" not in cp._memo:
        end, log_phi_c = _prefix_end(cp), _log_phi_c(cp)
        ladder = [1 << j for j in range(1, cp.k_max.bit_length())]
        pieces = [np.arange(a, min(a + _SUM_BLOCK, end + 1), dtype=float) for a in range(0, end + 1, _SUM_BLOCK)]
        if end < cp.k_max:
            sizes = [end + 1] + [length for length in ladder if length > end + 1] + [cp.k_max]
            pieces.append(np.array(sizes, dtype=float))
        peaks, after = {}, np.full((2, 1), -math.inf)
        for ls in reversed(pieces):
            if ls[0] > end:
                far = _far_series(cp)
                rows = np.stack([far.log_terms(ls, 0, 0.0), far.log_terms(ls, 1, 0.0)])
            else:
                s = cp.log_q_prefix(end + 1)[int(ls[0]) : int(ls[-1]) + 1] + ls * log_phi_c
                with np.errstate(divide="ignore"):
                    rows = np.stack([s, s + np.log(ls)])
            suffix = np.maximum(np.maximum.accumulate(rows[:, ::-1], axis=1)[:, ::-1], after)
            for length in ladder:
                if ls[0] <= length <= ls[-1]:
                    peaks[length] = suffix[:, int(np.searchsorted(ls, length))].tolist()
            after = suffix[:, :1]
        cp._memo["peaks"] = tuple((length, *peaks[length]) for length in ladder)
    return cp._memo["peaks"]


def _series_length(cp: ChemicalPotential, log_phi: float) -> int:
    """Number of leading terms of the series at ``log phi`` that can survive
    the cutoff of :func:`_log_sum` (see ``_LOG_CUTOFF``)."""
    full = cp.k_max + 1
    step = log_phi - _log_phi_c(cp)
    if not step < 0.0:  # also NaN: no finite positive phi_c
        return full
    # The peaks are at least t_0 = 0 (denominator) and t_1 (numerator).
    floor_den = _LOG_CUTOFF - _CUT_MARGIN
    floor_num = log_phi + float(cp.log_q_prefix(2)[1]) + floor_den
    for length, peak, peak_num in _peak_bounds(cp):
        if peak + length * step < floor_den and peak_num + length * step < floor_num:
            return length
    return full


def _log_phi_c(cp: ChemicalPotential) -> float:
    """``log phi_c``, or NaN unless ``phi_c`` is finite and positive."""
    phi_c = cp.phi_c_estimate
    return math.log(phi_c) if math.isfinite(phi_c) and phi_c > 0.0 else math.nan


def _last_term(cp: ChemicalPotential, log_phi: float) -> float:
    """``t_{k_max} = k_max log phi + log_q[k_max]``, from the far expansion
    where it takes over."""
    end = _prefix_end(cp)
    if end == cp.k_max:
        return cp.k_max * log_phi + float(cp.log_q_prefix(end + 1)[end])
    return float(_far_series(cp).log_terms(np.array([float(cp.k_max)]), 0, log_phi - _log_phi_c(cp))[0])


def _series(cp: ChemicalPotential, log_phi: float, n_terms: int = 0, weighted: bool = True) -> tuple:
    """The first ``n_terms`` terms ``t_l = l log phi + log_q[l]`` with the
    logs of ``sum exp(t_l)`` and (if ``weighted``, else NaN) of ``sum l
    exp(t_l)`` over ``l <= k_max``, taken over the terms that can pass the
    cutoff (see ``_LOG_CUTOFF``) and kept at ``phi_c`` (:func:`_phi_c_sums`)."""
    n = max(_series_length(cp, log_phi), n_terms)
    if n > cp.k_max and log_phi == _log_phi_c(cp):
        log_den, log_num = _phi_c_sums(cp)
        return _terms(cp, log_phi, 0, n_terms)[0], log_den, log_num if weighted else math.nan
    return _summed_terms(cp, log_phi, n, weighted, n_terms)


def _summed_terms(cp: ChemicalPotential, log_phi: float, n: int, weighted: bool = True, n_terms: int = 0) -> tuple:
    """The first ``n_terms`` terms at ``log phi`` and the log-sums of
    :func:`_series` over the first ``n``."""
    sums = _log_sums(cp, log_phi, n, 2 if weighted else 1)
    t = _terms(cp, log_phi, 0, n_terms)[0] if n_terms else np.empty(0)
    return t, sums[0], sums[1] if weighted else math.nan


def _phi_c_sums(cp: ChemicalPotential) -> Tuple[float, float]:
    """``log sum l^i exp(t_l)`` for ``i = 0, 1`` over the full range at
    ``phi_c`` (finite and positive), the one sum no cut shortens."""
    if "phi_c_sums" not in cp._memo:
        cp._memo["phi_c_sums"] = tuple(_log_sums(cp, _log_phi_c(cp), cp.k_max + 1, 2))
    return cp._memo["phi_c_sums"]


def density_at_fugacity(cp: ChemicalPotential, phi: float) -> float:
    """Mean cluster mass of the equilibrium state at fugacity ``phi``."""
    _check_fugacity(cp, phi)
    if phi == 0.0:
        return 0.0
    _, log_den, log_num = _series(cp, math.log(phi))
    return math.exp(log_num - log_den)


def fugacity_for_density(cp: ChemicalPotential, rho: float) -> float:
    """Invert the strictly increasing density map by bisection, to a density
    error of at most ``1e-10 max(1, rho)``.  Densities at (or numerically
    indistinguishable from) the critical value return the critical fugacity
    exactly; beyond it :class:`SupercriticalDensityError` is raised."""
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"density must be finite and nonnegative, got {rho!r}")
    if rho == 0.0:
        return 0.0
    rho_c = critical_density(cp)
    if rho > rho_c * (1.0 + 1e-9) + 1e-12:
        raise SupercriticalDensityError(rho, rho_c)

    phi_c = cp.phi_c_estimate
    if math.isfinite(phi_c):
        hi = phi_c
        rho_hi = density_at_fugacity(cp, hi)
        if rho >= rho_hi:  # no fugacity below phi_c reaches rho at this cut
            return phi_c
    else:
        hi = 1.0
        while density_at_fugacity(cp, hi) < rho:
            hi *= 2.0
            if hi > 1e12:
                raise InconclusiveDensityError("could not bracket the requested density")
    lo = 0.0
    target_tol = 1e-10 * max(1.0, rho)
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
    if abs(value - rho) <= 10.0 * target_tol:
        return phi
    raise InconclusiveDensityError(f"bisection stalled at phi={phi!r} with density error {value - rho!r}")


@dataclass(frozen=True)
class CriticalDensityInfo:
    """How the critical density was obtained.

    The dyadic fugacity ladder has rungs ``phi_j = phi_c (1 - 2^-j)``;
    ``ladder_length`` is the index of the last rung walked (0 without a
    walk), ``last_rung`` its density and ``last_increment`` that density
    less the previous rung's (both NaN without a walk, except that
    ``last_increment`` is 0 at ``phi_c = 0``).  ``method`` is
    ``"infinite-radius"``, ``"direct-tail"``, ``"ladder"`` or
    ``"ladder-ceiling"``; ``tail_defect`` is the part ``num_tail / den`` of
    a ``"direct-tail"`` value carried beyond ``k_max``.  The far
    expansion's exponent ``s`` and its error (``None`` without one), the last
    size summed term by term (``prefix``) and whether the expansion carried
    the sums at ``phi_c`` past it (``far_series``) are :data:`FAR_FIELDS`.
    """

    value: float
    ladder_length: int
    last_rung: float
    last_increment: float
    method: str
    tail_defect: float = math.nan
    exponent: Optional[float] = None
    exponent_error: Optional[float] = None
    prefix: int = 0
    far_series: bool = False


FAR_FIELDS = ("exponent", "exponent_error", "prefix", "far_series")


def _direct_tail(cp: ChemicalPotential) -> Optional[Tuple[float, float, float]]:
    """``(direct, num_tail / den, rho_N(phi_c))``: the density at ``phi_c``
    with the sums completed beyond ``k_max`` by the far expansion, the part
    of it the completion carries, and the truncated density there, which
    bounds every rung.  ``None`` unless the exponent lies above 2 by more
    than its error, or when a sum overflows."""
    far = _far_series(cp)
    if far is None or not far.s - far.s_error > 2.0:
        return None
    with contextlib.suppress(OverflowError):
        log_den_tail, log_num_tail = far.log_sums(0.0, cp.k_max + 1, math.inf, 2)
        log_den, log_num = _phi_c_sums(cp)
        den = math.exp(log_den) + math.exp(log_den_tail)
        num_tail = math.exp(log_num_tail)
        return (math.exp(log_num) + num_tail) / den, num_tail / den, math.exp(log_num - log_den)
    return None


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
    steps = zip(ladder[-3:-1], ladder[-2:])
    return len(ladder) >= 3 and all(abs(b - a) / max(abs(b), 1e-300) < 1e-8 for a, b in steps)


def _critical_density_decision(cp: ChemicalPotential, rungs: Sequence[tuple]) -> CriticalDensityInfo:
    """The critical density from the walked rungs ``(density, log phi_j,
    log sum l exp(t_l))``, ``j = 1, 2, ...`` (see
    :func:`critical_density_info`)."""
    ladder = [density for density, _, _ in rungs]
    last, log_phi_last, log_num_last = rungs[-1]
    length, last_inc = len(ladder), abs(last - ladder[-2])

    # A ladder that flattens out may have hit the truncation ceiling rather
    # than a genuine limit: the density series at the last rung must have
    # decayed within the available range for the plateau to mean anything.
    last_term = _last_term(cp, log_phi_last) + math.log(cp.k_max)
    truncation_clean = (last_term - log_num_last) < math.log(1e-10)
    if _stabilized(ladder) and truncation_clean:
        return CriticalDensityInfo(last, length, last, last_inc, "ladder")
    # A rung density is exp(log_num - log_den), a difference of log-sums as
    # large as the terms l log phi + log_q[l], and each term is rounded to
    # about an ulp of its magnitude.  So rungs that are equal in exact
    # arithmetic (mass piled at k_max) can differ relatively by a few ulps
    # of that magnitude, and a ladder is monotone up to that slack.
    log_phi_max = max(abs(log_phi) for _, log_phi, _ in rungs)
    log_q_max = max(float(np.max(np.abs(cp.log_q_prefix(_prefix_end(cp) + 1)))), abs(_last_term(cp, 0.0)))
    magnitude = cp.k_max * log_phi_max + log_q_max
    slack = 4.0 * math.ulp(max(magnitude, 1.0))
    if not truncation_clean and all(b >= a * (1.0 - slack) for a, b in zip(ladder, ladder[1:])):
        # The ladder kept climbing until the series overflowed the truncation
        # window; in the untruncated system it would climb without bound.
        return CriticalDensityInfo(math.inf, length, last, last_inc, "ladder-ceiling")
    raise InconclusiveDensityError("inconclusive: fugacity ladder did not stabilize and no tail completes it")


def _critical_density(cp: ChemicalPotential) -> CriticalDensityInfo:
    """The critical density without the far expansion's fields (see
    :func:`critical_density_info`)."""
    if math.isinf(cp.phi_c_estimate):
        return CriticalDensityInfo(math.inf, 0, math.nan, math.nan, "infinite-radius")
    if cp.phi_c_estimate <= 0.0:
        return CriticalDensityInfo(0.0, 0, math.nan, 0.0, "ladder")
    direct_tail = _direct_tail(cp)
    if direct_tail is not None and direct_tail[0] >= direct_tail[2] - 1e-9:
        direct, defect, _ = direct_tail
        return CriticalDensityInfo(direct, 0, math.nan, math.nan, "direct-tail", defect)
    rungs: list = []
    while len(rungs) < _LADDER_RUNGS and not _stabilized([density for density, _, _ in rungs]):
        rungs.append(_ladder_rung(cp, len(rungs) + 1))
    return _critical_density_decision(cp, rungs)


def critical_density_info(cp: ChemicalPotential) -> CriticalDensityInfo:
    """Supremum of the density map on ``[0, phi_c]`` with extrapolation detail.

    When the far exponent lies above 2 by more than its error, the series
    still converges at ``phi_c``: the sums there are completed past
    ``k_max`` by the far expansion (:func:`_direct_tail`), and that value is
    ``rho_c`` unless it lies more than 1e-9 below the truncated density at
    ``phi_c``, which bounds every rung.  No rung is evaluated then.

    Otherwise the dyadic ladder decides.  It is walked until its last two
    steps each move the density by less than a relative 1e-8, or for
    ``_LADDER_RUNGS`` rungs; a ladder that climbs until the series
    overflows the cut means an infinite critical density.  The result, or
    an inconclusive verdict, is kept on ``cp``.
    """
    if "info" not in cp._memo:
        try:
            info = _critical_density(cp)
            far, end = _far_series(cp), _prefix_end(cp)
            far_fields = (far and far.s, far and far.s_error, end, end < cp.k_max)
            cp._memo["info"] = replace(info, **dict(zip(FAR_FIELDS, far_fields)))
        except InconclusiveDensityError as exc:
            cp._memo["info"] = exc
    if isinstance(cp._memo["info"], InconclusiveDensityError):
        raise InconclusiveDensityError(*cp._memo["info"].args)
    return cp._memo["info"]


def critical_density(cp: ChemicalPotential) -> float:
    """Largest density carried by a normalizable equilibrium (may be ``inf``)."""
    return critical_density_info(cp).value


def equilibrium_profile(
    cp: ChemicalPotential, phi: Optional[float] = None, rho: Optional[float] = None, k_max: Optional[int] = None
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
        return EquilibriumProfile(omega, 0.0, 1.0, 0.0, 0.0, 0.0, k_prof)
    t, log_z, log_num = _series(cp, math.log(phi), k_prof + 1)
    omega = np.exp(t[: k_prof + 1] - log_z)
    mass_defect = max(0.0, 1.0 - float(np.sum(omega)))
    series_tail = _geometric_tail(cp, phi)
    z = math.exp(log_z)
    tail_bound = mass_defect + (series_tail / z if math.isfinite(series_tail) else math.inf)
    z_value = z if log_z < 709.0 else math.inf
    return EquilibriumProfile(omega, float(phi), z_value, log_z, math.exp(log_num - log_z), tail_bound, k_prof)


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
    """Write ``l, omega_l, log_q_l`` rows in full double precision (``%.17g``)."""
    rows = profile.k_max + 1
    _csv.write(path, "l,omega_l,log_q_l", range(rows), profile.omega[:rows], cp.log_q_prefix(rows))


def profile_summary(profile: EquilibriumProfile, cp: ChemicalPotential) -> dict:
    """Self-describing scalar summary of an equilibrium computation.

    Besides the values it records how ``phi_c`` and ``rho_c`` were obtained:
    the ``phi_c`` convergence flag and the ``rho_c`` method, ladder length and
    last ladder increment (``None`` without a walked ladder); for a
    ``"direct-tail"`` value also its tail defect (``None`` for the other
    methods); and the far expansion's :data:`FAR_FIELDS`.
    """
    info = critical_density_info(cp)
    last = info.last_increment
    return {
        "phi": profile.phi,
        "z": tagged_value(profile.z_value),
        "density": profile.density,
        "rho_c": tagged_value(info.value),
        "rho_c_method": info.method,
        "rho_c_ladder_length": info.ladder_length,
        "rho_c_last_increment": None if math.isnan(last) else tagged_value(last),
        "rho_c_tail_defect": info.tail_defect if info.method == "direct-tail" else None,
        **{f"rho_c_{key}": getattr(info, key) for key in FAR_FIELDS},
        "phi_c": tagged_value(cp.phi_c_estimate),
        "phi_c_converged": cp.phi_c_converged,
        "truncation_tail_bound": tagged_value(profile.truncation_tail_bound),
        "k_max": cp.k_max,
    }
