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
object, so it is freed with it.  :func:`critical_density_info` decides
``rho_c`` on the dyadic fugacity ladder.  Where the direct tail at
``phi_c`` settles it, the first rung that confirms that value is predicted
from the size variance at ``phi_c`` and checked with that rung and the one
below; otherwise the ladder is walked rung by rung.  Either way a process
evaluates each rung at most once per chemical potential.

A chemical potential keeps one array of length ``k_max``, ``log_q``, built in
blocks.  A log-sum of more than ``_SUM_BLOCK`` terms is formed in windows of
about that many sizes that end where nodes of numpy's pairwise summation
tree end, so it holds no second full-length array and keeps its bytes
(``phase-sweep`` at ``k_max = 10^6``: peak RSS 80.7 -> 58.2 -> 47 MiB).  The
first pass at ``phi_c`` keeps per-segment extremes of the series there; they
size the cut and bound the terms of every fugacity below it.
"""

from __future__ import annotations

import bisect
import contextlib
import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import _csv
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


# The ratio ladder of :func:`estimate_critical_fugacity`: ``_PROBE_LEVELS``
# dyadic nodes up to ``_PROBE_K``, converged once the last Richardson step
# moves the value by at most ``_PROBE_REL_TOL`` relative.
_PROBE_K, _PROBE_LEVELS, _PROBE_REL_TOL = 1 << 16, 7, 1e-6


def estimate_critical_fugacity(kernel: Kernel) -> PhiCEstimate:
    """Estimate the limiting detachment/attachment rate ratio.

    The ratio ``r_k = K(k, 0) / K(1, k-1)`` is sampled on a dyadic ladder up
    to ``k = 2^16`` and extrapolated to ``k -> infinity`` by Richardson steps
    (rate families built from rational expressions have exact expansions in
    ``1/k``, so the extrapolation reaches machine precision).  A plain tail
    average cannot resolve ``1/k`` corrections to the accuracy the critical
    constants need, which is why the ladder is extrapolated instead of
    averaged.  A ratio that grows monotonically and substantially across the
    ladder is flagged as a divergent (infinite) radius.
    """
    k0, levels = _PROBE_K, _PROBE_LEVELS
    nodes = np.array([k0 >> (levels - 1 - i) for i in range(levels)], dtype=float)
    r = np.array(
        [kernel(int(k), 0) / kernel(1, int(k) - 1) for k in nodes], dtype=float
    )

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


_BLOCK = 1 << 16  # sizes per block of chemical_potential


def chemical_potential(
    kernel: Kernel, k_max: int, phi_c: Optional[float] = None
) -> ChemicalPotential:
    """Accumulate ``log_q`` for sizes ``0..k_max`` in blocks of ``_BLOCK``
    sizes, each cumsum carried on from ``log_q[a - 1]`` with the add a
    one-shot cumsum makes (same bytes), and attach a ``phi_c`` estimate."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    log_q = np.zeros(k_max + 1)
    for a in range(1, k_max + 1, _BLOCK):
        ls = np.arange(a, min(a + _BLOCK, k_max + 1), dtype=float)
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
    if phi_c is None:
        estimate = estimate_critical_fugacity(kernel)
        phi_c_value, converged = estimate.value, estimate.converged
    else:
        phi_c_value, converged = float(phi_c), True
    return ChemicalPotential(
        log_q=log_q, phi_c_estimate=phi_c_value, phi_c_converged=converged, k_max=int(k_max)
    )


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

# A log-sum of more than _SUM_BLOCK terms is formed block by block
# (_blocked_log_sums).  np.sum adds pairwise: a node of more than 128 terms
# is the sum of its first half, rounded down to a multiple of 8 terms, and
# of the rest.  So the sums of the nodes that fit a block, added back up
# that tree, are bit-identical to np.sum over the whole sequence.  A scan
# keeps the extremes of the terms per segment of _SEGMENT sizes (and per
# dyadic segment below that); they say which segments can hold the peak
# and which straddle the cutoff, so only those are formed beforehand.
_SUM_BLOCK = 1 << 17
_SEGMENT = 1 << 12
_STREAMS = (0, 1, 1)  # first size of each stream of _terms


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


def _tree_nodes(n: int) -> list:
    """Sizes, in order, of the largest nodes of numpy's pairwise summation
    tree over ``n`` terms that fit ``_SUM_BLOCK`` terms."""
    if n <= _SUM_BLOCK:
        return [n]
    half = n // 2 - n // 2 % 8
    return _tree_nodes(half) + _tree_nodes(n - half)


def _tree_total(n: int, sums) -> float:
    """``np.sum`` of ``n`` terms from the sums of the nodes of
    :func:`_tree_nodes`, taken in order from the iterator ``sums``."""
    if n <= _SUM_BLOCK:
        return next(sums)
    half = n // 2 - n // 2 % 8
    return _tree_total(half, sums) + _tree_total(n - half, sums)


class _TreeSum:
    """``np.sum`` of ``n`` terms fed in order, in pieces of any length: each
    node of :func:`_tree_nodes` is summed as it fills, in place when one
    piece holds it whole, else from a copy."""

    def __init__(self, n: int):
        self.n, self.nodes, self.sums = n, _tree_nodes(n), []
        self.buffer, self.filled = None, 0

    def feed(self, values: np.ndarray) -> None:
        while values.size:
            size = self.nodes[len(self.sums)]
            take = min(size - self.filled, values.size)
            if take == size:
                self.sums.append(float(np.sum(values[:size])))
            else:
                if self.buffer is None:
                    self.buffer = np.empty(max(self.nodes))
                self.buffer[self.filled : self.filled + take] = values[:take]
                self.filled += take
                if self.filled == size:
                    self.sums.append(float(np.sum(self.buffer[:size])))
                    self.filled = 0
            values = values[take:]

    def total(self) -> float:
        return _tree_total(self.n, iter(self.sums))


def _terms(cp: ChemicalPotential, log_phi: float, a: int, b: int, streams: int = 1) -> np.ndarray:
    """The first ``streams`` streams of terms at ``log phi`` for the sizes
    ``a <= l < b``, one row each: ``t_l = l log phi + log_q[l]``, ``t_l +
    log l`` and ``(t_l + log l) + log l``.  The last two start at size 1
    (``_STREAMS``); their entries at ``l = 0`` are not terms."""
    ls = np.arange(a, b, dtype=float)
    rows = np.empty((streams, b - a))
    t = np.multiply(ls, log_phi, out=rows[0])
    t += cp.log_q[a:b]
    if streams > 1:
        log_ls = ls[1:] if a == 0 else ls
        np.log(log_ls, out=log_ls)  # l = 0 stays 0
        num = np.add(t, ls, out=rows[1])
        if streams > 2:
            np.add(num, ls, out=rows[2])
    return rows


class _Scan(NamedTuple):
    """Extremes of rows of terms per segment: ``maxima[k, g]`` and
    ``minima[k, g]`` over row ``k`` on the sizes from ``starts[g]`` to the
    next start (``-inf`` and ``inf`` where the row has no terms)."""

    starts: list
    maxima: np.ndarray
    minima: np.ndarray

    @classmethod
    def empty(cls, n: int, rows: int) -> "_Scan":
        """Segments of the sizes below ``n`` that start at 0, 1, the powers
        of 2 below ``_SEGMENT`` and its multiples, with nothing seen yet."""
        starts = [s for s in [0] + [1 << j for j in range(_SEGMENT.bit_length() - 1)] if s < n]
        starts += range(_SEGMENT, n, _SEGMENT)
        return cls(starts, np.full((rows, len(starts)), -math.inf), np.full((rows, len(starts)), math.inf))

    def see(self, rows: np.ndarray, a: int) -> None:
        """Takes in ``rows``, the terms of the sizes from ``a`` on."""
        g0, g1 = bisect.bisect_right(self.starts, a) - 1, bisect.bisect_left(self.starts, a + rows.shape[1])
        at = [0] + [s - a for s in self.starts[g0 + 1 : g1]]
        for extremes, ufunc in ((self.maxima, np.maximum), (self.minima, np.minimum)):
            ufunc(extremes[:, g0:g1], ufunc.reduceat(rows, at, axis=1), out=extremes[:, g0:g1])

    def done(self, offsets: Sequence[int]) -> "_Scan":
        """Clears what the rows hold before their first terms."""
        for k, offset in enumerate(offsets):
            before = bisect.bisect_left(self.starts, offset)
            self.maxima[k, :before], self.minima[k, :before] = -math.inf, math.inf
        return self


def _scan(form, n: int, offsets: Sequence[int]) -> _Scan:
    """The extremes of the rows of terms ``form(a, b)`` makes for the sizes
    ``a <= l < b``, in blocks of ``_SUM_BLOCK`` sizes below ``n``; row ``k``
    holds terms from size ``offsets[k]`` (0 or 1) on."""
    scan = _Scan.empty(n, len(offsets))
    for a in range(0, n, _SUM_BLOCK):
        scan.see(form(a, min(a + _SUM_BLOCK, n)), a)
    return scan.done(offsets)


def _runs(flags: np.ndarray, starts: list, ends: list):
    """Ranges ``[a, b)`` of at most ``_SUM_BLOCK`` sizes that together cover
    the flagged segments, adjacent ones joined."""
    a = b = None
    for g in np.flatnonzero(flags).tolist():
        if a is not None and starts[g] == b and ends[g] - a <= _SUM_BLOCK:
            b = ends[g]
            continue
        if a is not None:
            yield a, b
        a, b = starts[g], ends[g]
    if a is not None:
        yield a, b


class _Plan(NamedTuple):
    """What a pass of :func:`_tree_pass` sums, per row ``k``: ``peaks[k]``
    (not finite: the log-sum is ``-inf``), and for the rows with a finite
    peak how many terms are kept, and per segment whether every term is
    kept (``whole``) and whether any may be (``some``)."""

    peaks: list
    counts: dict
    whole: dict
    some: dict


def _plan(form, n: int, offsets: Sequence[int], starts: list, hi, top, lo) -> _Plan:
    """The :class:`_Plan` of the log-sums of the rows of terms ``form(a,
    b)`` makes below size ``n`` (row ``k`` from size ``offsets[k]`` on).

    ``hi``, ``top`` and ``lo`` bound the terms of row ``k`` in segment
    ``g`` (from ``starts[g]`` to the next start or ``n``): each lies in
    ``[lo[k, g], hi[k, g]]`` and one is at least ``top[k, g]``.  The peak
    is read off the bounds where they are tight and otherwise formed on the
    segments that can hold it; the kept terms are counted on the segments
    that straddle the cutoff, and nowhere else.
    """
    ends = starts[1:] + [n]
    first, last = np.array(starts), np.array(ends)
    sizes = [np.maximum(last - np.maximum(first, offset), 0) for offset in offsets]
    peaks = np.max(top, axis=1).tolist()
    unsure, inexact = np.zeros(len(starts), dtype=bool), []
    for k in range(len(offsets)):
        holds = hi[k] >= peaks[k]
        if not np.array_equal(hi[k, holds], top[k, holds]):
            inexact.append(k)
            unsure |= holds
    for a, b in _runs(unsure, starts, ends):
        rows = form(a, b)
        for k in inexact:
            values = rows[k, max(offsets[k] - a, 0) :]
            if values.size:
                peaks[k] = max(peaks[k], float(np.max(values)))

    live = [k for k in range(len(offsets)) if math.isfinite(peaks[k])]
    whole = {k: (lo[k] >= peaks[k] + _LOG_CUTOFF) | (sizes[k] == 0) for k in live}
    some = {k: (hi[k] >= peaks[k] + _LOG_CUTOFF) & (sizes[k] > 0) for k in live}
    straddles = np.zeros(len(starts), dtype=bool)
    for k in live:
        straddles |= some[k] & ~whole[k]
    counts = {k: int(np.sum(sizes[k], where=whole[k] & ~straddles)) for k in live}
    for a, b in _runs(straddles, starts, ends):
        rows = form(a, b)
        for k in live:
            kept = rows[k, max(offsets[k] - a, 0) :] >= peaks[k] + _LOG_CUTOFF
            counts[k] += int(np.count_nonzero(kept))
    return _Plan(peaks, counts, whole, some)


def _tree_pass(form, n: int, offsets: Sequence[int], starts: list, plan: _Plan, scan=None) -> list:
    """:func:`_log_sum` of each row of terms ``form(a, b)`` makes below
    size ``n`` (row ``k`` from size ``offsets[k]`` on), bit for bit, in one
    pass that follows ``plan`` (see :func:`_plan`) and shows every window
    it forms to ``scan``, if given.

    Each window ends where the node being filled of one row's summation
    tree ends (see :class:`_TreeSum`), so nodes are summed in place; a
    window is at most about ``_SUM_BLOCK`` sizes long.  A row masks only
    where a segment may drop terms and skips segments it drops whole.
    """
    rows_count, live = len(offsets), list(plan.counts)

    def segments(a: int, b: int) -> Tuple[int, int]:  # those that meet [a, b)
        return bisect.bisect_right(starts, a) - 1, bisect.bisect_left(starts, b)

    trees = {k: _TreeSum(plan.counts[k]) for k in live}
    dropping = {k: [0] + np.cumsum(~plan.whole[k]).tolist() for k in live}
    holding = {k: np.flatnonzero(plan.some[k]).tolist() for k in live}
    floors = {k: plan.peaks[k] + _LOG_CUTOFF for k in live}
    shift = np.array([[plan.peaks[k] if k in trees else 0.0] for k in range(rows_count)])
    at = {k: offsets[k] for k in live}
    while True:
        for k in list(at):  # skip the segments a row drops
            tree, (g, _) = trees[k], segments(at[k], at[k] + 1)
            i = bisect.bisect_left(holding[k], g)
            if len(tree.sums) == len(tree.nodes) or i == len(holding[k]):
                del at[k]
            else:
                at[k] = max(at[k], starts[holding[k][i]])
        if not at:
            break
        lo, targets = min(at.values()), {}
        for k, a in at.items():  # where the node being filled ends, if it drops no term
            end = a + trees[k].nodes[len(trees[k].sums)] - trees[k].filled
            g0, g1 = segments(a, end)
            targets[k] = end if end <= n and dropping[k][g1] == dropping[k][g0] else a + _SUM_BLOCK
        hi = min(max(targets.values()), lo + _SUM_BLOCK + _SEGMENT, n)
        rows = form(lo, hi)
        if scan is not None:
            scan.see(rows, lo)
        for k in range(rows_count):
            if k not in trees:
                rows[k] = 0.0
        pieces = {}
        for k, a in at.items():
            b = min(targets[k], hi)
            if a < b:
                g0, g1 = segments(a, b)
                masked = dropping[k][g1] > dropping[k][g0]
                pieces[k] = (a - lo, b - lo, rows[k, a - lo : b - lo] >= floors[k] if masked else None)
                at[k] = b
        rows -= shift
        np.exp(rows, out=rows)
        for k, (a, b, mask) in pieces.items():
            trees[k].feed(rows[k, a:b] if mask is None else rows[k, a:b][mask])
        del rows, pieces  # before the next window is formed
    return [plan.peaks[k] + math.log(trees[k].total()) if k in trees else -math.inf for k in range(rows_count)]


def _blocked_log_sums(form, n: int, offsets: Sequence[int], starts: list, hi, top, lo) -> list:
    """:func:`_log_sum` of each row of terms ``form(a, b)`` makes below
    size ``n`` (row ``k`` from size ``offsets[k]`` on), bit for bit, with
    at most about ``_SUM_BLOCK`` sizes formed at once; the bounds are those
    of :func:`_plan`."""
    return _tree_pass(form, n, offsets, starts, _plan(form, n, offsets, starts, hi, top, lo))


def _phi_c_scan(cp: ChemicalPotential) -> _Scan:
    """The scan of the three rows of :func:`_terms` at ``phi_c`` over the
    full range; needs a finite positive ``phi_c``.  Kept on ``cp``."""
    if "phi_c_scan" not in cp._memo:
        form = partial(_terms, cp, _log_phi_c(cp), streams=3)
        cp._memo["phi_c_scan"] = _scan(form, cp.k_max + 1, _STREAMS)
    return cp._memo["phi_c_scan"]


def _phi_c_pass(cp: ChemicalPotential) -> list:
    """The sums of :func:`_phi_c_sums` beyond one block, and the scan of
    :func:`_phi_c_scan` with them when it is not kept yet.

    Then the sums and the scan take one pass: each row's peak is guessed
    from its terms below ``_SEGMENT`` and every term is taken as kept.  The
    scan confirms both (a series that decays from its start, as at a
    condensing ``phi_c``), or the sums take a second pass on its bounds.
    """
    n, form = cp.k_max + 1, partial(_terms, cp, _log_phi_c(cp), streams=3)
    if "phi_c_scan" in cp._memo:
        scan = cp._memo["phi_c_scan"]
        return _blocked_log_sums(form, n, _STREAMS, scan.starts, scan.maxima, scan.maxima, scan.minima)
    scan = _Scan.empty(n, len(_STREAMS))
    head = form(0, _SEGMENT)
    peaks = [float(np.max(row[offset:])) for row, offset in zip(head, _STREAMS)]
    everything = np.ones(len(scan.starts), dtype=bool)
    counts = {k: n - offset for k, offset in enumerate(_STREAMS)}
    plan = _Plan(peaks, counts, dict.fromkeys(counts, everything), dict.fromkeys(counts, everything))
    with np.errstate(over="ignore"):  # a wrong guess is found below, its sums dropped
        sums = _tree_pass(form, n, _STREAMS, scan.starts, plan, scan)
    cp._memo["phi_c_scan"] = scan.done(_STREAMS)
    floors = np.array(peaks) + _LOG_CUTOFF
    if np.array_equal(np.max(scan.maxima, axis=1), peaks) and np.all(np.min(scan.minima, axis=1) >= floors):
        return sums
    return _phi_c_pass(cp)


def _bounds(cp: ChemicalPotential, log_phi: float, n: int, streams: int) -> tuple:
    """``(starts, hi, top, lo)`` of :func:`_blocked_log_sums` for the first
    ``streams`` streams of :func:`_terms` at ``log phi`` below size ``n``.

    With a finite positive ``phi_c`` they come from :func:`_phi_c_scan`:
    each term is the one at ``phi_c`` plus ``l (log phi - log phi_c)``, up
    to rounding that ``eps`` covers with room to spare (2^-46 of the
    magnitudes involved, against the few ulps of them the two evaluations
    and the bound itself can round off), and ``eps`` is 0 at ``phi_c``,
    where the bounds are the extremes.  A segment cut short by ``n`` keeps
    its bounds but no ``top``.  Without ``phi_c`` the terms are scanned.
    """
    log_phi_c = _log_phi_c(cp)
    step = log_phi - log_phi_c
    if math.isfinite(step):
        scan = _phi_c_scan(cp)
        s_abs = max(abs(float(np.max(scan.maxima[0]))), abs(float(np.min(scan.minima[0]))))
        magnitude = cp.k_max * (abs(log_phi) + 3.0 * abs(log_phi_c)) + 2.0 * s_abs + math.log(n)
        eps = 2.0**-46 * magnitude if step else 0.0
        if math.isfinite(eps):
            count = bisect.bisect_left(scan.starts, n)
            starts = scan.starts[:count]
            first = np.array(starts, dtype=float) * step
            last = (np.array(starts[1:] + [n], dtype=float) - 1.0) * step
            rise, fall = np.maximum(first, last) + eps, np.minimum(first, last) - eps
            maxima = scan.maxima[:streams, :count]
            top = maxima + fall
            if (scan.starts + [cp.k_max + 1])[count] > n:
                top[:, -1] = -math.inf
            return starts, maxima + rise, top, scan.minima[:streams, :count] + fall
    scan = _scan(partial(_terms, cp, log_phi, streams=streams), n, _STREAMS[:streams])
    return scan.starts, scan.maxima, scan.maxima, scan.minima


def _log_sums(cp: ChemicalPotential, log_phi: float, n: int, streams: int) -> list:
    """:func:`_log_sum` of the first ``streams`` streams of :func:`_terms`
    at ``log phi`` below size ``n``: in one block, or by
    :func:`_blocked_log_sums`."""
    form = partial(_terms, cp, log_phi, streams=streams)
    if n <= _SUM_BLOCK:
        rows = form(0, n)
        return [_log_sum(rows[k, offset:], overwrite=True) for k, offset in enumerate(_STREAMS[:streams])]
    return _blocked_log_sums(form, n, _STREAMS[:streams], *_bounds(cp, log_phi, n, streams))


def _suffix_peaks(cp: ChemicalPotential) -> Tuple[Tuple[int, float, float], ...]:
    """``(L, max_{l >= L} s_l, max_{l >= L} (s_l + log l))`` on the dyadic
    ladder ``L = 2, 4, ... <= k_max``, with ``s_l = log_q[l] + l log phi_c``.

    Needs a finite positive ``phi_c``.  Read off :func:`_phi_c_scan`, whose
    segments start at every ``L``, and kept on ``cp``.
    """
    if "suffix_peaks" not in cp._memo:
        scan = _phi_c_scan(cp)
        ladder = [1 << j for j in range(1, cp.k_max.bit_length())]
        at = [bisect.bisect_left(scan.starts, length) for length in ladder]
        suffix = np.maximum.accumulate(scan.maxima[:2, ::-1], axis=1)[:, ::-1]
        cp._memo["suffix_peaks"] = tuple(zip(ladder, *suffix[:, at].tolist()))
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

    Returns the first ``n_terms`` terms.  Both sums are bit-identical to
    summing all ``k_max + 1`` terms: they run over every term that can pass
    the cutoff of the log-sum (see ``_LOG_CUTOFF``), and at ``phi_c``, where
    that is the full range, they come from :func:`_phi_c_sums`.
    """
    n = max(_series_length(cp, log_phi), n_terms)
    if n > cp.k_max and log_phi == _log_phi_c(cp):
        log_den, log_num, _ = _phi_c_sums(cp)
        return _terms(cp, log_phi, 0, n_terms)[0], log_den, log_num if weighted else math.nan
    return _summed_terms(cp, log_phi, n, weighted, n_terms)


def _summed_terms(
    cp: ChemicalPotential, log_phi: float, n: int, weighted: bool = True, n_terms: int = 0
) -> Tuple[np.ndarray, float, float]:
    """The first ``n_terms`` terms at ``log phi`` and the log-sums of
    :func:`_series` over the first ``n``."""
    sums = _log_sums(cp, log_phi, n, 2 if weighted else 1)
    t = _terms(cp, log_phi, 0, n_terms)[0] if n_terms else np.empty(0)
    return t, sums[0], sums[1] if weighted else math.nan


def _phi_c_sums(cp: ChemicalPotential) -> Tuple[float, float, float]:
    """``log sum l^i exp(t_l)`` for ``i = 0, 1, 2`` over the full range at
    ``phi_c``, the one sum no cut shortens; needs a finite positive ``phi_c``.

    Kept on ``cp`` and shared by the direct tail and the predicted rung of
    :func:`critical_density_info`, ``rho_hi`` of :func:`fugacity_for_density`,
    and :func:`partition_sum` and :func:`equilibrium_profile` at ``phi_c``.
    Beyond one block the three sums take one pass, bounded by the extremes
    of :func:`_phi_c_scan`.
    """
    if "phi_c_sums" not in cp._memo:
        n = cp.k_max + 1
        sums = _log_sums(cp, _log_phi_c(cp), n, 3) if n <= _SUM_BLOCK else _phi_c_pass(cp)
        cp._memo["phi_c_sums"] = tuple(sums)
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
    error of at most ``1e-10 max(1, rho)``.

    Densities at (or numerically indistinguishable from) the critical value
    return the critical fugacity exactly.  Raises
    :class:`SupercriticalDensityError` beyond it.
    """
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
    raise InconclusiveDensityError(
        f"bisection stalled at phi={phi!r} with density error {value - rho!r}"
    )


@dataclass(frozen=True)
class CriticalDensityInfo:
    """How the critical density was obtained.

    The dyadic fugacity ladder has rungs ``phi_j = phi_c (1 - 2^-j)``,
    ``j = 1, 2, ...``; ``ladder_length`` is the index of the rung that
    decided the value (0 when there is no ladder), ``last_rung`` its density
    (NaN without a ladder) and ``last_increment`` that density less the
    previous rung's (NaN below two rungs).  ``method`` is one of
    ``"infinite-radius"``, ``"direct-tail"``, ``"ladder"`` or
    ``"ladder-ceiling"``.  ``tail_defect`` is the part ``num_tail / den`` of
    a ``"direct-tail"`` value that the algebraic tail beyond ``k_max``
    carries (NaN for the other methods).
    """

    value: float
    ladder_length: int
    last_rung: float
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
            log_den, log_num, _ = _phi_c_sums(cp)
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
    return len(ladder) >= 3 and not any(map(_moves, ladder[-3:-1], ladder[-2:]))


def _moves(a: float, b: float) -> bool:
    """Whether the ladder step from density ``a`` to ``b`` is at least the
    relative ``1e-8`` of :func:`_stabilized`."""
    return not abs(b - a) / max(abs(b), 1e-300) < 1e-8


def _predicted_rung(cp: ChemicalPotential, direct_tail: Tuple[float, float, float]) -> int:
    """The first rung ``j`` at which the density, expanded to first order
    about ``phi_c``, accepts the direct tail: ``rho_N(phi_c) + sigma^2 log(1
    - 2^-j)`` is at least the direct value less three tail defects and a
    relative 1e-6, where ``sigma^2 = d rho / d log phi`` is the truncated
    size variance at ``phi_c`` (``_LADDER_RUNGS`` if no rung does)."""
    direct, defect, rho_n = direct_tail
    log_den, _, log_second = _phi_c_sums(cp)
    variance = math.exp(log_second - log_den) - rho_n * rho_n
    floor = direct - 3.0 * defect - 1e-6 * max(1.0, direct)
    return next(
        (j for j in range(1, _LADDER_RUNGS) if rho_n + variance * math.log1p(-0.5**j) >= floor),
        _LADDER_RUNGS,
    )


def _first_accepting_rung(
    cp: ChemicalPotential, rung, direct_tail: Tuple[float, float, float]
) -> Optional[int]:
    """The first rung ``j <= _LADDER_RUNGS`` that accepts the direct tail,
    with ``rung(j)``, for acceptance that is monotone in ``j``; ``None`` when
    no rung accepts or the step onto ``j`` does not move.  With steps that
    do not grow along the ladder, a moving step rules out a walk that
    stabilizes before rung ``j``.

    The search starts at :func:`_predicted_rung`, then tries the rungs 1, 2,
    4, ... away from it on the side still open, and bisects what is left
    once a rung falls on the other side.  A right prediction takes that
    rung and the one below it; one that is a rung too high takes a third.
    """
    guess = _predicted_rung(cp, direct_tail)
    lo, hi = 0, _LADDER_RUNGS + 1  # rung lo rejects (0: no rung), rung hi accepts
    j, reach = guess, 1
    while hi - lo > 1:
        if _accepts_direct_tail(direct_tail, rung(j)[0]):
            hi = j
        else:
            lo = j
        j = guess - reach if hi <= guess else guess + reach
        if not lo < j < hi:
            j = (lo + hi) // 2
        reach *= 2
    if hi > _LADDER_RUNGS or (lo and not _moves(rung(lo)[0], rung(hi)[0])):
        return None
    return hi


def _critical_density_decision(
    cp: ChemicalPotential,
    length: int,
    rung,
    direct_tail: Optional[Tuple[float, float, float]],
) -> CriticalDensityInfo:
    """The critical density from the ladder's rungs ``rung(j)`` up to
    ``length`` and the direct tail at ``phi_c`` (see
    :func:`critical_density_info`); accepting the direct tail reads only the
    last two rungs."""
    if not length:  # no ladder: phi_c is infinite or zero
        if math.isinf(cp.phi_c_estimate):
            return CriticalDensityInfo(math.inf, 0, math.nan, math.nan, "infinite-radius")
        return CriticalDensityInfo(0.0, 0, math.nan, 0.0, "ladder")
    last, log_phi_last, log_num_last = rung(length)
    last_inc = abs(last - rung(length - 1)[0]) if length >= 2 else math.nan
    if direct_tail is not None and _accepts_direct_tail(direct_tail, last):
        direct, defect, _ = direct_tail
        direct, defect = float(direct), float(defect)
        return CriticalDensityInfo(direct, length, last, last_inc, "direct-tail", defect)

    # A ladder that flattens out may have hit the truncation ceiling rather
    # than a genuine limit: the density series at the last rung must have
    # decayed within the available range for the plateau to mean anything.
    last_term = cp.k_max * log_phi_last + cp.log_q[-1] + np.log(cp.k_max)
    truncation_clean = (last_term - log_num_last) < math.log(1e-10)
    ladder = [rung(j)[0] for j in range(1, length + 1)]
    if _stabilized(ladder) and truncation_clean:
        return CriticalDensityInfo(last, length, last, last_inc, "ladder")
    # A rung density is exp(log_num - log_den), a difference of log-sums as
    # large as the terms l log phi + log_q[l], and each term is rounded to
    # about an ulp of its magnitude.  So rungs that are equal in exact
    # arithmetic (mass piled at k_max) can differ relatively by a few ulps
    # of that magnitude, and a ladder is monotone up to that slack.
    log_phi_max = max(abs(rung(j)[1]) for j in range(1, length + 1))
    magnitude = cp.k_max * log_phi_max + float(np.max(np.abs(cp.log_q)))
    slack = 4.0 * math.ulp(max(magnitude, 1.0))
    if not truncation_clean and all(b >= a * (1.0 - slack) for a, b in zip(ladder, ladder[1:])):
        # The ladder kept climbing until the series overflowed the truncation
        # window; in the untruncated system it would climb without bound.
        return CriticalDensityInfo(math.inf, length, last, last_inc, "ladder-ceiling")
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
    completed with an algebraic tail estimate.  For the condensing kernel
    ``1 + c/k`` the relative error then falls as about ``k_max^(1-c)``:
    as ``1/k_max^2`` only at ``c = 3`` (at ``k_max = 10^4``, 2.5e-7 at
    ``c = 3``, 2.0e-5 at ``c = 2.5`` and 2.0e-3 at ``c = 2.1``).

    The ladder is walked rung by rung until its last two steps each move
    the density by less than a relative 1e-8, or for ``_LADDER_RUNGS``
    rungs.  When the direct tail exists and is at least the truncated
    density ``rho_N(phi_c)`` less 1e-9, the walk would stop at the first
    rung that accepts it: the density increases with ``phi``, so every later
    rung lies between that rung and ``rho_N(phi_c)`` and would accept the
    same value.  Acceptance is then monotone in the rung index.  The
    density expanded to first order about ``phi_c``, whose slope in ``log
    phi`` is the truncated size variance there, predicts that rung; the
    predicted rung and the one below it confirm it (2 rung evaluations at
    condensing ``c = 3``, ``k_max = 10^6``), and a miss is searched next to
    the prediction (:func:`_first_accepting_rung`).  The ladder is walked
    only where the search finds no rung.  The result, or an inconclusive
    verdict, is kept on ``cp``, so each rung is evaluated at most once per
    chemical potential.
    """
    if "info" not in cp._memo:
        rungs: dict = {}

        def rung(j: int) -> Tuple[float, float, float]:
            if j not in rungs:
                rungs[j] = _ladder_rung(cp, j)
            return rungs[j]

        length, direct_tail = 0, None
        if not (math.isinf(cp.phi_c_estimate) or cp.phi_c_estimate <= 0.0):
            direct_tail = _direct_tail(cp)
            stops = direct_tail is not None and direct_tail[0] >= direct_tail[2] - 1e-9
            length = _first_accepting_rung(cp, rung, direct_tail) if stops else None
            if length is None:  # walk the ladder
                ladder: list = []
                while len(ladder) < _LADDER_RUNGS and not _stabilized(ladder):
                    ladder.append(rung(len(ladder) + 1)[0])
                    if stops and _accepts_direct_tail(direct_tail, ladder[-1]):
                        break
                length = len(ladder)
        try:
            cp._memo["info"] = _critical_density_decision(cp, length, rung, direct_tail)
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
    """Write ``l, omega_l, log_q_l`` rows in full double precision (``%.17g``)."""
    rows = profile.k_max + 1
    _csv.write(path, "l,omega_l,log_q_l", range(rows), profile.omega[:rows], cp.log_q[:rows])


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
        "rho_c_ladder_length": info.ladder_length,
        "rho_c_last_increment": None if math.isnan(last) else tagged_value(last),
        "rho_c_tail_defect": info.tail_defect if direct else None,
        "rho_c_direct_gap": info.value - info.last_rung if direct else None,
        "phi_c": tagged_value(cp.phi_c_estimate),
        "phi_c_converged": cp.phi_c_converged,
        "truncation_tail_bound": tagged_value(profile.truncation_tail_bound),
        "k_max": cp.k_max,
    }
