"""Far series of a product-form equilibrium, from its kernel's asymptotics.

The weights ``Q_l`` of :mod:`edgrow.equilibrium` multiply the rate ratios
``K(1, m-1) / K(m, 0)``.  For a kernel rational in the sizes, ``s_l = log
Q_l + l log phi_c`` has an expansion ``c0 - s log l + sum_i a_i l^-i``.
:func:`fit` fits its increments to the kernel's ratios and matches it to
one known ``s_end``; :meth:`FarSeries.log_sums` then sums ``l^k exp(s_l + l
log x)`` over any range past ``end`` by Euler-Maclaurin (Olver, *Asymptotics
and Special Functions*, ch. 8): the integral in closed form at ``x = 1``
(also to infinity, when ``s > k + 1``) and by Gauss-Legendre panels below,
plus the end corrections through ``f'''``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

# DEGREE inverse powers, fitted by least squares at NODES Chebyshev points in
# 1/l past the first of STARTS (capped at ``end``) where the fit holds to
# RESIDUAL nats.  The earlier start amplifies the rounding of the ratios
# less; the later one fits kernels that settle past a few hundred sizes.
DEGREE, NODES, RESIDUAL, STARTS = 10, 30, 1e-12, (256, 4096)
EXP_TERMS = 40  # powers of 1/l kept in the series of exp(sum_i a_i l^-i)
GAUSS_NODES, PANEL_DECAY = 20, 8.0  # per panel; a panel spans at most PANEL_DECAY / |log x|


class FarSeries(NamedTuple):
    """``s_l = c0 - s log l + sum_i a[i-1] l^-i`` past ``end``, with ``s``
    known to ``s_error``; ``beta`` is the power series in ``1/l`` of
    ``exp(sum_i a[i-1] l^-i)``."""

    end: int
    c0: float
    s: float
    s_error: float
    a: np.ndarray
    beta: np.ndarray

    def log_terms(self, ls: np.ndarray, k: int, log_x: float) -> np.ndarray:
        """``g(l) = s_l + k log l + l log x`` at the sizes ``ls`` (floats)."""
        series = np.polyval(np.append(self.a[::-1], 0.0), 1.0 / ls)
        return self.c0 + (k - self.s) * np.log(ls) + series + ls * log_x

    def log_sums(self, log_x: float, a: int, b: float, streams: int) -> list:
        """``log sum_{l=a}^{b} l^k exp(s_l + l log x)`` for ``k < streams``
        and ``end < a``; ``b = inf`` (at ``log x = 0``) sums to infinity."""
        if a > b:
            return [-math.inf] * streams
        ends = np.array([a, b] if math.isfinite(b) else [a], dtype=float)
        sides = np.array([-1.0, 1.0])[: ends.size]
        u, i = 1.0 / ends, np.arange(1.0, self.a.size + 1.0)
        # sum_i w_i a_i u^i with the weights w_i of the first three derivatives of sum_i a_i l^-i
        weights = (i, i * (i + 1.0), i * (i + 1.0) * (i + 2.0))
        w1, w2, w3 = (np.polyval(np.append((w * self.a)[::-1], 0.0), u) for w in weights)
        sums = []
        for k in range(streams):
            p = k - self.s  # g' g'' g''' at the ends, for f' = g' f and f''' = (g''' + 3 g' g'' + g'^3) f
            d1 = u * (p - w1) + log_x
            d2 = u * u * (w2 - p)
            d3 = u**3 * (2.0 * p - w3)
            g = self.log_terms(ends, k, log_x)
            integral = self._log_integral(k, log_x, float(a), float(b))
            top = max(integral, float(np.max(g)))
            corrections = np.exp(g - top) * (0.5 + sides * (d1 / 12.0 - (d3 + 3.0 * d1 * d2 + d1**3) / 720.0))
            sums.append(top + math.log(math.exp(integral - top) + float(np.sum(corrections))))
        return sums

    def _log_integral(self, k: int, log_x: float, a: float, b: float) -> float:
        """Log of the integral of ``exp(g)`` over ``[a, b]``: at ``log x =
        0``, ``exp(c0) sum_j beta_j int l^(e_j - 1) dl`` with ``e_j = k - s +
        1 - j`` and each ``int_a^b l^(e-1) dl = a^e int_0^log(b/a) exp(e t)
        dt``; otherwise Gauss-Legendre panels that at most double."""
        if b <= a:
            return -math.inf
        if log_x == 0.0:
            e = k - self.s + 1.0 - np.arange(self.beta.size)
            span = math.log(b / a)
            with np.errstate(divide="ignore", invalid="ignore"):
                width = np.where(e > 0.0, e * span, 0.0) + np.log(-np.expm1(-np.abs(e) * span) / np.abs(e))
            width[e == 0.0] = math.log(span)
            logs = e * math.log(a) + width
            top = float(np.max(logs))
            return self.c0 + top + math.log(float(np.sum(self.beta * np.exp(logs - top))))
        edges = [a]
        while edges[-1] < b:
            edges.append(min(b, 2.0 * edges[-1], edges[-1] + PANEL_DECAY / abs(log_x)))
        nodes, weights = _gauss_legendre()
        half = 0.5 * np.diff(edges)[:, None]
        values = self.log_terms(np.array(edges[:-1])[:, None] + half * (1.0 + nodes), k, log_x)
        values += np.log(half * weights)
        top = float(np.max(values))
        return top + math.log(float(np.sum(np.exp(values - top))))


# The fit and the quadrature call no BLAS or LAPACK routine: the first call
# of one pages about 0.2-1 MiB of library code in, which a run's peak RSS
# would show.


@functools.lru_cache(maxsize=1)
def _gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[-1, 1]``, by Newton's method
    on the Legendre recurrence from Tricomi's first guesses."""
    n = GAUSS_NODES
    x = np.cos(np.pi * (np.arange(1.0, n + 1.0) - 0.25) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def _least_squares(columns: np.ndarray, h: np.ndarray, sizes: Tuple[int, ...]) -> tuple:
    """Least-squares coefficients of ``h`` on the first ``size`` columns for
    each of ``sizes``, and the largest residual on all of them: modified
    Gram-Schmidt on the columns and ``h`` together (Bjorck), whose
    projections of ``h`` serve every leading subset of the columns."""
    q, n = np.vstack([columns.T, h]), columns.shape[1]
    r = np.zeros((n, n + 1))
    for j in range(n):
        r[j, j] = math.sqrt(float(np.sum(q[j] * q[j])))
        q[j] /= r[j, j]
        r[j, j + 1 :] = np.sum(q[j + 1 :] * q[j], axis=1)
        q[j + 1 :] -= r[j, j + 1 :, None] * q[j]
    fits = []
    for size in sizes:
        x = np.zeros(size)
        for j in range(size - 1, -1, -1):
            x[j] = (r[j, n] - float(np.sum(r[j, j + 1 : size] * x[j + 1 :]))) / r[j, j]
        fits.append(x)
    return fits, float(np.max(np.abs(q[n])))


def fit(kernel, phi_c: float, end: int, s_end: float) -> Optional[FarSeries]:
    """The far series past ``end`` of ``kernel`` at its radius ``phi_c``,
    matched to ``s_end``; ``None`` where no fit holds (a ``phi_c`` that is
    not the kernel's radius leaves a constant in the increments; a rate
    that vanishes past the start, a singularity).

    The increments ``h(m) = log(K(1, m-1) phi_c / K(m, 0))`` are fitted by
    ``s log(1 - 1/m) + sum_i a_i (m^-i - (m-1)^-i)``, which telescopes to the
    expansion.  The error of ``s`` is its change when two powers are
    dropped, plus the ratios' rounding amplified as the fit amplifies it
    (300 times the start times the residual: with 100 the error fell short
    of the exact exponent of ``(1 + b/k)(1 + g/(j + 1))`` by up to 1.35
    times in 2 % of 1500 random draws).
    """
    if end < 4:
        return None
    i = np.arange(1.0, DEGREE + 1.0)
    for start in sorted({min(end, first) for first in STARTS}):
        u = (0.5 / start) * (1.0 - np.cos(np.pi * (np.arange(NODES) + 0.5) / NODES))
        with np.errstate(all="ignore"):
            h = np.log(kernel(np.ones(1), 1.0 / u - 1.0) * phi_c / kernel(1.0 / u, np.zeros(1)))
        if not np.all(np.isfinite(h)):
            continue
        back = np.log1p(-u)
        # columns of order 1 on the nodes: for s / start and a_i / start^(i+1)
        columns = np.column_stack([back * start, -np.expm1(-i * back[:, None]) * (u[:, None] * start) ** i * start])
        fits, residual = _least_squares(columns, h, (DEGREE + 1, DEGREE - 1))
        if residual <= RESIDUAL:
            break
    else:
        return None
    s, a = float(fits[0][0] * start), fits[0][1:] * float(start) ** (i + 1.0)
    s_error = abs(s - float(fits[1][0]) * start) + 300.0 * start * max(residual, 2.0**-52)
    c0 = s_end + s * math.log(end) - float(np.polyval(np.append(a[::-1], 0.0), 1.0 / end))
    beta = [1.0]  # j beta_j = sum_r r a_r beta_(j-r), from (exp P)' = P' exp P
    for j in range(1, EXP_TERMS):
        beta.append(sum(r * a[r - 1] * beta[j - r] for r in range(1, min(j, a.size) + 1)) / j)
    return FarSeries(end, c0, s, s_error, a, np.array(beta))
