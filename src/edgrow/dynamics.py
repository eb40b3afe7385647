"""Truncated exchange dynamics: rates, fluxes, and adaptive integration.

The infinite birth-death hierarchy is cut at a truncation size ``N`` with
zero flux past ``N``, which conserves both the cluster count and the total
mass exactly.  The right-hand side is assembled from state-dependent birth
rates ``A_k[c] = sum_l K(l, k) c_l`` and death rates
``B_k[c] = sum_l K(k, l-1) c_{l-1}``.  Every kernel is a short sum of
products ``sum_r b_r(k) a_r(j)``, so both sums cost O(N) per term:
``A = sum_r a_r (b_r . c_{1..N})`` and ``B = sum_r b_r (a_r . c_{0..N-1})``.

Integration uses an embedded Runge-Kutta 4(5) pair with PI step-size
control, or for a run that is stiff at its initial state (:func:`_stiff_method`)
RODAS4 (:mod:`edgrow._rodas4`), with positivity-aware rejection: a step that
would push any component below ``-atol`` is retried with ``dt`` shrunk to
where the worst component, linear in ``dt``, would reach ``-atol``, and the
step size it was accepted at becomes a ceiling that later steps approach only
gradually.  Tiny negative survivors are clamped to zero and the clamped mass
is accounted in a drift ledger so conservation checks stay honest.  One
stepper object runs every step: it owns the states, preallocated buffers
(an :class:`_RhsWork` for the right-hand side of one state, a
:class:`_RowsWork` for a batch laid out in contiguous rows), and one row
per state with its controller, counters and samples.  It steps one state,
or a batch of explicit states of one kernel and truncation in lockstep
(:func:`integrate_batch`), each row bit for bit as it steps alone.
Checkpoints carry the method and the controller, so a resumed run repeats
the uninterrupted one bit for bit.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Literal, Mapping, Optional, Sequence

import numpy as np

from . import _csv
from ._config import ConfigError, bind
from .equilibrium import ChemicalPotential, EquilibriumProfile, equilibrium_profile
from .kernels import Kernel, _factor_vectors

__all__ = [
    "ConcentrationProfile",
    "RatesView",
    "IntegratorConfig",
    "StepResult",
    "IntegratorStats",
    "TrajectoryRecord",
    "IntegratorError",
    "vacuum_state",
    "monodisperse_state",
    "geometric_state",
    "state_from_values",
    "state_from_profile",
    "equilibrium_state",
    "birth_death_rates",
    "net_fluxes",
    "rhs",
    "step",
    "integrate",
    "integrate_batch",
    "strong_norm",
    "moment_identity_residual",
    "positivity_bound_margin",
    "save_checkpoint",
    "load_checkpoint",
]


class IntegratorError(RuntimeError):
    """Adaptive stepping failed (step-size underflow)."""


@dataclass(frozen=True)
class ConcentrationProfile:
    """Finite cluster-size distribution ``c_0 .. c_N`` with cached moments."""

    c: np.ndarray
    n_trunc: int = field(init=False)
    zeroth_moment: float = field(init=False)
    first_moment: float = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or len(c) < 2:
            raise ValueError("state must be a 1-D array c_0..c_N with N >= 1")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "n_trunc", len(c) - 1)
        object.__setattr__(self, "zeroth_moment", float(np.sum(c)))
        object.__setattr__(
            self, "first_moment", float(np.dot(np.arange(len(c), dtype=float), c))
        )

    def validate(self) -> None:
        if not np.all(np.isfinite(self.c)):
            raise ValueError("concentrations must be finite")
        if np.any(self.c < 0):
            raise ValueError("concentrations must be nonnegative")


def vacuum_state(n_trunc: int) -> ConcentrationProfile:
    """All volume empty: unit weight on size 0."""
    c = np.zeros(n_trunc + 1)
    c[0] = 1.0
    return ConcentrationProfile(c)


def monodisperse_state(rho: float, m: Optional[int] = None, *, n_trunc: int) -> ConcentrationProfile:
    """Mixture ``(1 - rho/m) delta_0 + (rho/m) delta_m`` carrying density rho;
    ``m`` defaults to the least size that can, ``max(1, ceil(rho))``."""
    m = max(1, math.ceil(rho)) if m is None else m
    if m < 1 or m > n_trunc:
        raise ValueError("monodisperse size m must satisfy 1 <= m <= n_trunc")
    if rho < 0 or rho > m:
        raise ValueError("monodisperse mixture needs 0 <= rho <= m")
    c = np.zeros(n_trunc + 1)
    c[0] = 1.0 - rho / m
    c[m] = rho / m
    return ConcentrationProfile(c)


def geometric_state(phi: float, n_trunc: int) -> ConcentrationProfile:
    """Normalized geometric profile ``c_l ~ phi**l`` on ``0..n_trunc``."""
    if not 0.0 <= phi < 1.0:
        raise ValueError("geometric profile needs 0 <= phi < 1")
    ls = np.arange(n_trunc + 1, dtype=float)
    weights = phi**ls
    return ConcentrationProfile(weights / weights.sum())


def state_from_values(values: Sequence[float], n_trunc: int) -> ConcentrationProfile:
    """The state ``c_0 .. c_N`` from its ``n_trunc + 1`` values, finite and >= 0."""
    if len(values) != n_trunc + 1:
        raise ValueError(f"n_trunc = {n_trunc} needs {n_trunc + 1} values, got {len(values)}")
    state = ConcentrationProfile(np.asarray(values, dtype=float))
    state.validate()
    return state


def state_from_profile(profile: EquilibriumProfile, n_trunc: int) -> ConcentrationProfile:
    """Truncate or zero-pad an equilibrium profile into a dynamic state."""
    c = np.zeros(n_trunc + 1)
    upto = min(n_trunc, profile.k_max)
    c[: upto + 1] = profile.omega[: upto + 1]
    return ConcentrationProfile(c)


def equilibrium_state(
    cp: ChemicalPotential, rho: Optional[float] = None, phi: Optional[float] = None, *, n_trunc: int
) -> ConcentrationProfile:
    """The equilibrium of ``cp`` at density ``rho`` or fugacity ``phi``
    (exactly one), cut at ``n_trunc``."""
    return state_from_profile(equilibrium_profile(cp, phi=phi, rho=rho, k_max=n_trunc), n_trunc)


@dataclass(frozen=True)
class RatesView:
    """Birth rates ``a[k] = A_k`` for ``k = 0..N-1`` and death rates
    ``b[k] = B_{k+1}`` for ``k = 0..N-1`` (``B_0 = 0`` by convention)."""

    a: np.ndarray
    b: np.ndarray


class _RhsWork:
    """Factor vectors, rate rows and the flux row ``-0.0, J_0..J_{N-1}, +0.0``
    that right-hand sides of one state at truncation ``N`` reuse; ``left -
    right`` of that row is ``-J_0, J_{k-1} - J_k, J_{N-1}``, bit for bit
    (signed zeros too)."""

    def __init__(self, kernel: Kernel, n: int):
        (self.b_vals, self.a_vals), *rest = _factor_vectors(kernel, n)
        self.rest = tuple(rest)
        self.a_rates, self.b_rates, self.scratch = np.empty((3, n))
        padded = np.zeros(n + 2)
        padded[0] = -0.0
        self.flux, self.left, self.right = padded[1:-1], padded[:-1], padded[1:]

    def rates(self, c: np.ndarray) -> tuple:
        """Birth rates ``A_0..A_{N-1}`` and death rates ``B_1..B_N`` at ``c``."""
        donor, acceptor = c[1:], c[:-1]
        a_rates, b_rates, scratch = self.a_rates, self.b_rates, self.scratch
        # Starting from the first term keeps rank-1 kernels to one product each.
        np.multiply(self.a_vals, np.dot(self.b_vals, donor), out=a_rates)
        np.multiply(self.b_vals, np.dot(self.a_vals, acceptor), out=b_rates)
        for b_vals, a_vals in self.rest:
            a_rates += np.multiply(a_vals, np.dot(b_vals, donor), out=scratch)
            b_rates += np.multiply(b_vals, np.dot(a_vals, acceptor), out=scratch)
        return a_rates, b_rates

    def rhs(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``dc/dt`` at ``c`` into ``out``."""
        a_rates, b_rates = self.rates(c)
        flux = np.multiply(a_rates, c[:-1], out=self.flux)
        flux -= np.multiply(b_rates, c[1:], out=self.scratch)
        return np.subtract(self.left, self.right, out=out)


class _RowsWork:
    """The right-hand side of ``R`` states of truncation ``N`` at once, each
    row with the bits :class:`_RhsWork` gives it alone.

    States, rates and fluxes are C-contiguous ``R x (N+2)`` arrays: a row
    holds sizes ``0..N`` and a gap slot that holds zero.  So the product,
    difference and flux calls run over all rows as one contiguous pass.
    The flux buffer, one slot longer, holds ``-0.0, J_0..J_{N-1}, +0.0`` for
    each row, end to end.  The pass also writes the two slots where one row
    meets the next; they are written back to ``+0.0`` and ``-0.0`` after
    it, so no value crosses from one row to another.  Each row's dot
    products are one ``np.vecdot`` call.  That runs BLAS ``ddot`` per row,
    the routine ``np.dot`` runs for one state (``@`` and 2-D ``np.dot`` run
    ``gemv``, whose sums round differently).  At ``N = 1`` they are
    products, as ``np.dot`` forms them for size-1 operands (``ddot`` adds
    the product to ``+0.0``, which loses the sign of a ``-0.0``).  The rates
    are ``a_rates[:, :N]`` and ``b_rates[:, :N]``.
    """

    def __init__(self, kernel: Kernel, n: int, rows: int):
        self.terms = _factor_vectors(kernel, n)
        width, size = n + 2, rows * (n + 2)
        # Per term, its acceptor factors a_r and donor factors b_r in every row.
        self.tiles = np.zeros((len(self.terms), 2, rows, width))
        for tile, (b_vals, a_vals) in zip(self.tiles, self.terms):
            tile[0, :, :n], tile[1, :, :n] = a_vals, b_vals
        self.sums = np.empty((2, rows, 1))
        self.sum_b, self.sum_a = self.sums[:, :, 0]
        self.ab_rates = np.empty((2, rows, width))
        self.a_rates, self.b_rates = self.ab_rates
        self.scratch = np.empty((2, rows, width))
        flux = np.zeros(size + 1)
        flux[0] = -0.0
        # The pass writes J at flux[1:size]: rate and state slot p give flux slot p + 1.
        self.flux, self.left, self.right = flux[1:size], flux[:-1], flux[1:]
        self.a_head, self.b_head = self.a_rates.reshape(-1)[:-1], self.b_rates.reshape(-1)[:-1]
        self.products = self.scratch.reshape(-1)[: size - 1]
        self.row_ends, self.row_starts = flux[n + 1 :: width], flux[width::width]
        self.n, self.dot = n, np.vecdot if n > 1 else _products

    def rhs(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``dc/dt`` of every row of ``c`` into ``out``, both ``R x (N+2)``."""
        donor, acceptor = c[:, 1 : self.n + 1], c[:, : self.n]
        sums, ab_rates = self.sums, self.ab_rates
        for i, (b_vals, a_vals) in enumerate(self.terms):
            self.dot(b_vals, donor, out=self.sum_b)
            self.dot(a_vals, acceptor, out=self.sum_a)
            if i == 0:  # rank-1 kernels: one product for both rates
                np.multiply(self.tiles[0], sums, out=ab_rates)
            else:
                ab_rates += np.multiply(self.tiles[i], sums, out=self.scratch)
        states = c.reshape(-1)
        flux = np.multiply(self.a_head, states[:-1], out=self.flux)
        flux -= np.multiply(self.b_head, states[1:], out=self.products)
        self.row_ends.fill(0.0)
        self.row_starts.fill(-0.0)
        np.subtract(self.left, self.right, out=out.reshape(-1))
        return out


def _products(vector: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.dot(vector, row)`` of every row of one value: its product."""
    return np.multiply(rows[:, 0], vector[0], out=out)


def birth_death_rates(kernel: Kernel, state: ConcentrationProfile) -> RatesView:
    """State-dependent birth/death rates of the truncated chain."""
    a_rates, b_rates = _RhsWork(kernel, state.n_trunc).rates(state.c)
    return RatesView(a=a_rates, b=b_rates)


def net_fluxes(rates: RatesView, state: ConcentrationProfile) -> np.ndarray:
    """Net flux ``J_k = A_k c_k - B_{k+1} c_{k+1}`` for ``k = 0..N-1``.

    The truncation convention is zero flux outside the window
    (``J_{-1} = J_N = 0``), which is what conserves both moments.
    """
    c = state.c
    if len(rates.a) != len(c) - 1 or len(rates.b) != len(c) - 1:
        raise ValueError("rates and state truncations do not match")
    return rates.a * c[:-1] - rates.b * c[1:]


def _rhs_from_c(kernel: Kernel, c: np.ndarray, out=None, work=None) -> np.ndarray:
    """``dc/dt`` at ``c`` into ``out`` with ``work``, an :class:`_RhsWork` of
    this kernel and truncation (or a :class:`_RowsWork` and its rows); both
    are allocated for one state when not given.  The rates at ``c`` stay in
    ``work``."""
    work = work or _RhsWork(kernel, len(c) - 1)
    return work.rhs(c, np.empty_like(c) if out is None else out)


def rhs(kernel: Kernel, state: ConcentrationProfile) -> np.ndarray:
    """Time derivative of the truncated state; both moment sums vanish."""
    return _rhs_from_c(kernel, state.c)


def strong_norm(values: np.ndarray) -> float:
    """Mass-weighted norm ``sum (1 + l) |c_l|`` of a coefficient vector."""
    values = np.asarray(values, dtype=float)
    ls = np.arange(len(values), dtype=float)
    return float(np.dot(1.0 + ls, np.abs(values)))


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive integrator settings; tolerances are componentwise via
    ``rtol * strong_norm(c) + atol``.

    The fields are the whole ``integrator`` block of a config.  Each value
    is a finite real number, not a ``bool`` or a string, and is stored as a
    float; ``record_every`` may be ``None`` (every ``t_end / 200``) and
    otherwise exceeds the clock's :meth:`resolution`.  No step is longer
    than the recording cadence: :func:`integrate` ends each one at or before
    the next grid point.
    """

    t_end: float
    rtol: float = 1e-8
    atol: float = 1e-12
    record_every: Optional[float] = None

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value is None and name == "record_every":
                continue
            try:
                finite = isinstance(value, numbers.Real) and math.isfinite(value)
            except OverflowError:  # an int past the float range
                finite = False
            if isinstance(value, bool) or not finite:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.record_every is not None and self.record_every <= 0:
            raise ValueError("record_every must be positive")
        if self.record_every is not None and self.record_every <= self.resolution():
            raise ValueError(
                f"record_every must exceed the clock's resolution 1e-12 * t_end = {self.resolution()!r}"
            )

    def cadence(self) -> float:
        if self.record_every is not None:
            return self.record_every
        return self.t_end / 200.0 or 1.0  # also where t_end / 200 underflows to 0

    def resolution(self) -> float:
        """Times closer than this are one time: 1e-12 of the horizon, and
        no step is shorter than 1e-14 of it.  A run whose resolution
        underflows to 0 records its start only."""
        return 1e-12 * self.t_end

    def sample_count(self, t0: float = 0.0) -> int:
        """The samples :func:`integrate` records from ``t0`` without a
        checkpoint's controller: the start, each grid point ``t0 + cadence,
        + cadence, ...`` (summed in that order) below ``t_end -
        resolution``, and the end; the start alone when the resolution is 0
        or ``t0`` is within it of ``t_end``."""
        cadence, end = self.cadence(), self.t_end - self.resolution()
        if self.resolution() == 0.0 or t0 >= end:
            return 1
        count, point = 2, t0 + cadence
        while point < end:
            count, point = count + 1, point + cadence
        return count


# Fehlberg 4(5) tableau; the fifth-order solution is propagated and the
# difference of the embedded orders drives the error estimate.
_RK_A = (
    (),
    (1.0 / 4.0,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RK_B5 = np.array([16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0])
_RK_B4 = np.array([25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0])
_RK_ERR = _RK_B5 - _RK_B4


@dataclass(frozen=True)
class _Method:
    """A stepping method's name and step-size exponents: the error's alone
    and the PI pair on the current and previous error ratios (as literals:
    0.7 / 5 is not the double 0.14).  RODAS4 steps by its current error
    alone, so the tiny error of a step cut at a sample does not hold back
    the next."""

    name: str
    err_exponent: float
    pi_exponent: float
    pi_prev_exponent: float


_FEHLBERG = _Method("rkf45", 0.2, 0.14, 0.08)
_RODAS4 = _Method("rodas4", 0.25, 0.25, 0.0)
_METHODS = {method.name: method for method in (_FEHLBERG, _RODAS4)}
# The stiffness above which a run takes RODAS4 (see _stiff_method).  The
# benchmark runs read 0.2-0.4 (relax-thermo), 4-6 (phase-sweep) and 37-77
# (stiff-additive); 20 is an unmeasured point in the 6-37 gap, not a
# measured crossover of the two methods' cost or accuracy.
_STIFF_THRESHOLD = 20.0

_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 5.0
# Growth per accepted step of the positivity ceiling on ``dt``.
_CEILING_RELAX = 1.05
# Samples a row hands on at once, and rows per pass of the thermo and
# distance series: a block is 131 KiB at N = 256.
BLOCK_ROWS = 64


@dataclass(frozen=True)
class StepResult:
    state: ConcentrationProfile
    dt_used: float
    dt_next: float
    error_estimate: float
    clamped_mass0: float
    clamped_mass1: float


@dataclass
class IntegratorStats:
    """Where the steps of an integration went.

    ``method`` is ``"rkf45"`` (explicit Fehlberg 4(5)) or ``"rodas4"``.
    ``dt_min``/``dt_max`` range over accepted steps; ``clamp_events`` counts
    accepted steps that clamped at least one component to zero.
    """

    method: str = _FEHLBERG.name
    accepted: int = 0
    rejected_error: int = 0
    rejected_positivity: int = 0
    rejected_non_finite: int = 0
    dt_min: float = math.inf
    dt_max: float = 0.0
    clamp_events: int = 0

    @property
    def rejected(self) -> int:
        return self.rejected_error + self.rejected_positivity + self.rejected_non_finite

    @property
    def rhs_evals(self) -> int:
        """Right-hand-side evaluations, for both methods: stage 0 once per
        accepted step, which rejected attempts share (RODAS4's Jacobian
        too), and the other five stages once per attempt."""
        return 6 * self.accepted + 5 * self.rejected

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "accepted": self.accepted,
            "rejected": {
                "error": self.rejected_error,
                "positivity": self.rejected_positivity,
                "non_finite": self.rejected_non_finite,
            },
            "rhs_evals": self.rhs_evals,
            "dt_min": self.dt_min if self.accepted else None,
            "dt_max": self.dt_max if self.accepted else None,
            "clamp_events": self.clamp_events,
        }


@dataclass(kw_only=True)
class _Controller:
    """A checkpoint's ``controller`` block: its keys, their types and
    defaults.  ``dt_ceiling`` is ``None`` while the ceiling is infinite; a
    block without it or ``method`` was written before the block held them."""

    method: Literal["rkf45", "rodas4"] = _FEHLBERG.name
    dt_next: float
    err_prev_ratio: Optional[float] = None
    dt_ceiling: Optional[float] = None
    next_record: float
    clamp_mass0: float = 0.0
    clamp_mass1: float = 0.0


class _Row:
    """One integrated state: its step-size controller, counters and recording.

    The fields of a :class:`_Controller` are attributes by their names, but
    ``method`` is the :class:`_Method` and an unset ``dt_ceiling`` is ``inf``.
    ``tol`` is the tolerance at the row's current state; ``dt`` is the
    length of the attempt in progress (``None`` between steps) and
    ``retried`` says whether that step took a positivity retry.
    ``dt_used``, ``error_estimate`` and ``clamped_mass0/1`` describe the
    last accepted step; ``error`` holds the exception that ended the row.

    The recording, for :func:`_integrate_rows`: ``index`` among its states,
    the clock ``t``, the next grid time ``next_record`` and checkpoint time,
    and the samples from ``state0`` at ``t0`` on, in blocks of ``rows``
    (default ``BLOCK_ROWS``) handed to ``sink(times, states)``, or kept in
    ``blocks`` without one, and never written again.  Each block's
    ``series`` holds the times, clamp totals, boundary mass and moments.
    """

    def __init__(self, controller: _Controller, state0: ConcentrationProfile, t0=0.0, index=0, sink=None, rows=None):
        vars(self).update(asdict(controller))
        self.method = _METHODS[controller.method]
        self.dt_ceiling = math.inf if controller.dt_ceiling is None else controller.dt_ceiling
        self.stats = IntegratorStats(self.method.name)
        self.tol = 0.0
        self.dt: Optional[float] = None
        self.retried = False
        self.error: Optional[Exception] = None
        self.dt_used = self.error_estimate = self.clamped_mass0 = self.clamped_mass1 = 0.0
        n = state0.n_trunc
        self.index, self.rho0, self.t = index, state0.first_moment, t0
        self.next_checkpoint = math.inf
        self.boundary_lo = int(math.ceil(0.9 * n))
        self.sizes = np.arange(n + 1, dtype=float)
        self.block_rows, self.filled, self.count = rows or BLOCK_ROWS, 0, 0
        self.blocks, self.series = [], []
        self.sink = sink or (lambda times, part, kept=self.blocks: kept.append(part))
        self.contaminated_from: Optional[float] = None
        self.record(state0.c)

    def judge(self, err: float, min_c: float, c: np.ndarray, c_new: np.ndarray, i: int, atol: float) -> bool:
        """Whether the attempt is accepted: its error is ``err`` and its least
        new component ``min_c``; the row is row ``i`` of the states ``c``
        before and ``c_new`` after it (one state, or a batch).  A rejection
        is counted and shrinks ``dt``."""
        stats = self.stats
        if not math.isfinite(err):
            stats.rejected_non_finite += 1
            self.dt *= 0.5
            return False
        if err > self.tol:
            stats.rejected_error += 1
            shrink = _SAFETY * (self.tol / err) ** self.method.err_exponent
            self.dt *= max(_FAC_MIN, min(1.0, shrink))
            return False
        if min_c < -atol:
            stats.rejected_positivity += 1
            self.retried = True
            # Linear in dt, the worst component reaches -atol at this
            # fraction of the attempt.  Without headroom above -atol (or
            # if the fraction underflows) there is nothing to size by: halve.
            # A batch row's gap slot holds 0 > min_c, so it is never the worst.
            before, after = np.atleast_2d(c, c_new)
            c_worst = float(before[i, after[i].argmin()])
            headroom = c_worst + atol
            ratio = _SAFETY * headroom / (c_worst - min_c) if headroom > 0.0 else 0.0
            self.dt *= max(_FAC_MIN, min(_SAFETY, ratio)) if ratio > 0.0 else 0.5
            return False
        return True

    def accept(self, err: float, tol_new: float, clamped: tuple) -> None:
        """Book the accepted attempt: clamp totals, controller and counters."""
        dt = self.dt
        self.clamped_mass0, self.clamped_mass1 = clamped
        self.clamp_mass0 += self.clamped_mass0
        self.clamp_mass1 += self.clamped_mass1
        # The error is weighed against the tolerance the step used, and
        # carried to the next step against the tolerance at the new state,
        # which is also that step's tolerance.
        err_ratio, method = err / self.tol, self.method
        if err_ratio <= 0.0:
            factor = _FAC_MAX
        elif self.err_prev_ratio is None or self.err_prev_ratio <= 0.0:
            factor = _SAFETY * err_ratio ** -method.err_exponent
        else:
            # PI control: respond to the current ratio, damped by the previous one.
            factor = (
                _SAFETY
                * err_ratio ** -method.pi_exponent
                * self.err_prev_ratio ** method.pi_prev_exponent
            )
        # A step that met the positivity limit sets the ceiling and may not
        # grow; any other step relaxes it (an infinite ceiling stays inf).
        if self.retried:
            self.dt_ceiling = dt
            factor = min(factor, 1.0)
        else:
            self.dt_ceiling *= _CEILING_RELAX
        self.dt_next = min(dt * max(_FAC_MIN, min(_FAC_MAX, factor)), self.dt_ceiling)
        self.err_prev_ratio = err / tol_new
        self.tol = tol_new

        self.dt_used, self.dt = dt, None
        self.error_estimate = err
        stats = self.stats
        stats.accepted += 1
        stats.dt_min = min(stats.dt_min, dt)
        stats.dt_max = max(stats.dt_max, dt)

    def controller(self) -> dict:
        """The controller block a checkpoint needs to continue this run exactly."""
        block = {name: getattr(self, name) for name in _Controller.__dataclass_fields__}
        ceiling = None if math.isinf(self.dt_ceiling) else self.dt_ceiling
        return dict(block, method=self.method.name, dt_ceiling=ceiling)

    def record(self, state: np.ndarray) -> np.ndarray:
        """Copy ``state`` in as the sample at the row's time, with its clamp
        totals, and return the stored sample; a full block goes on.  Samples
        after the initial one are checked for boundary mass."""
        if not self.filled:
            self.block, self.values = np.empty((self.block_rows, len(state))), np.empty((6, self.block_rows))
        self.last = c = self.block[self.filled]
        c[...] = state
        b_mass = float(np.dot(self.sizes[self.boundary_lo :], c[self.boundary_lo :]))
        self.values[:4, self.filled] = self.t, self.clamp_mass0, self.clamp_mass1, b_mass
        self.filled, self.count = self.filled + 1, self.count + 1
        if self.filled == self.block_rows:
            self.flush()
        if self.contaminated_from is None and self.count > 1 and self.rho0 > 0 and b_mass > 0.01 * self.rho0:
            self.contaminated_from = self.t
            warnings.warn(
                f"boundary mass {b_mass:.3g} exceeds 1% of the density at t={self.t:.6g}; "
                "large-cluster dynamics are truncation-limited from here on",
                RuntimeWarning,
                stacklevel=4,
            )
        return c

    def flush(self) -> None:
        """Hand on the samples since the last flush, with their moments: per
        row sums and ``vecdot`` (ddot, not gemv), whose bits do not depend on
        where a block is cut, so a resumed run's ``rho`` cells keep theirs."""
        if self.filled:
            part, values, self.filled = self.block[: self.filled], self.values[:, : self.filled], 0
            np.sum(part, axis=1, out=values[4])
            np.vecdot(part, self.sizes, out=values[5])
            self.series.append(values)
            self.sink(values[0], part)

    def trajectory(self) -> "TrajectoryRecord":
        """The record, once the last samples are handed on; its ``states``
        are the kept blocks, ``None`` with a sink."""
        self.flush()
        states = None if not self.blocks else self.blocks[0] if len(self.blocks) == 1 else np.concatenate(self.blocks)
        times, clamp0, clamp1, boundary, m0, m1 = np.concatenate(self.series, axis=1)
        n, ended = len(self.sizes) - 1, self.contaminated_from
        return TrajectoryRecord(times, states, n, m0, m1, clamp0, clamp1, boundary, ended, self.stats)


class _Stepper:
    """Embedded steps, in place, of one state or of a batch of states of one
    kernel, truncation and config in lockstep (RODAS4: one state).

    Owns the states ``c``, a stage buffer of six such arrays with one
    products buffer and scratch arrays, the right-hand side's work, the
    strong-norm weights ``1 + l`` and one :class:`_Row` per state: its
    Python-float controller, its counters and its recording.  One state is
    ``N+1`` values with an :class:`_RhsWork`.  A batch of ``R`` states is
    ``R x (N+2)`` values with a :class:`_RowsWork`: each row ends in a gap
    slot that holds zero, so states, stages, products and the per-row step
    lengths ``dt_rows`` are C-contiguous and every elementwise numpy call is
    one contiguous pass over all rows.  Each row's dot products are the ones
    its state takes alone, so every row steps bit for bit as it would alone.
    One round (:meth:`_round`) serves both layouts: only its read-out of
    each row's error and least component differs, scalars for one state and
    one reduction each for a batch.  Then each row is judged, clamped and,
    after one ``abs`` and ``vecdot`` pass for the tolerances of all rows,
    booked; a round in which every row accepts swaps the state buffers.  A
    step allocates no size-``N`` array unless it clamps.

    The positivity ceiling starts at ``inf``.  A step accepted after a
    positivity retry sets it to its own ``dt`` and proposes no larger next
    step; every other accepted step multiplies it by ``_CEILING_RELAX``.
    ``dt_next`` is the PI proposal capped by the ceiling, so a run that never
    fails the positivity test steps exactly as the PI controller alone would.

    :meth:`_fehlberg` (or :meth:`_rodas4`) is the method: one attempt of
    every row, which alone knows the tableau and the stage buffers.  Every
    weighted stage sum is one multiply into the products buffer and one
    reduction over its first axis.  Entry 0 of that buffer stays ``+0.0``
    and the reduction adds entries in order, so each sum is ``0 + w_0 k_0 +
    w_1 k_1 + ...`` exactly as Python's ``sum`` forms it.
    """

    def __init__(self, kernel: Kernel, c: np.ndarray, cfg: IntegratorConfig, rows: Sequence[_Row]):
        self.kernel, self.cfg, self.rows = kernel, cfg, list(rows)
        self.weights = 1.0 + np.arange(np.shape(c)[-1], dtype=float)
        c = np.array(c, dtype=float)
        if c.ndim == 2:  # append each row's gap slot
            c = np.concatenate((c, np.zeros((len(c), 1))), axis=1)
        self._load(c)
        for row, tol in zip(self.rows, self._tolerances(self.c)):
            row.tol = tol

    def _load(self, c: np.ndarray) -> None:
        """Take ``c`` as the states (a batch with its gap slots) and size
        every buffer to it."""
        self.c = c
        self.stages = np.empty((6, *c.shape))
        self.products = np.zeros((7, *c.shape))
        self.c_new = np.empty_like(c)
        self.scratch = np.empty_like(c)
        if c.ndim == 1:
            self.rhs_work = _RhsWork(self.kernel, len(c) - 1)
        else:
            self.rhs_work = _RowsWork(self.kernel, c.shape[1] - 2, len(c))
            self.dt_rows = np.empty_like(c)
        # Tableau coefficients shaped to scale whole stages.
        shape = (-1,) + (1,) * c.ndim
        self.a_columns = tuple(np.reshape(row, shape) for row in _RK_A[1:])
        self.err_column = _RK_ERR.reshape(shape)
        self.b5_column = _RK_B5.reshape(shape)
        self.stage0_ready = False
        self.attempt = self._fehlberg
        if self.rows and self.rows[0].method is _RODAS4:
            from ._rodas4 import Rodas4  # compiled only by stiff runs

            self.attempt = self._rodas4
            self.rodas4 = Rodas4(self.kernel, self.rhs_work, self.stages, self.scratch)

    def keep(self, index: Sequence[int]) -> None:
        """Continue with the rows at ``index`` only; a last row runs on 1-D arrays."""
        self.rows = [self.rows[i] for i in index]
        if len(index) > 1:
            self._load(self.c[index])
        elif index:
            self._load(self.state(index[0]).copy())

    def state(self, i: int) -> np.ndarray:
        """Row ``i``'s state ``c_0..c_N``, as a view."""
        return self.c if self.c.ndim == 1 else self.c[i, :-1]

    def _tolerances(self, c: np.ndarray) -> list:
        """``rtol * strong_norm + atol`` of every row of ``c``, using ``scratch``."""
        absolute = np.abs(c, out=self.scratch)
        if c.ndim == 1:
            norms = [float(np.dot(self.weights, absolute))]
        else:
            norms = np.vecdot(self.weights, absolute[:, :-1]).tolist()
        return [self.cfg.rtol * norm + self.cfg.atol for norm in norms]

    def _weighted_stages(self, column: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = 0 + column[0] k_0 + column[1] k_1 + ...``, summed in that order."""
        m = len(column)
        np.multiply(self.stages[:m], column, out=self.products[1 : m + 1])
        return np.add.reduce(self.products[: m + 1], axis=0, out=out)

    def _fehlberg(self, dt) -> np.ndarray:
        """One Fehlberg 4(5) attempt of every row from ``c`` over ``dt`` (a
        float, or ``dt_rows``): the fifth-order solution goes to ``c_new``
        and the error vector, which is returned, to ``scratch``.  Stage 0 is
        evaluated again only after a row has started a step."""
        c, stages = self.c, self.stages
        if not self.stage0_ready:
            # ``_rhs_from_c`` is looked up in the module on every call, so
            # a wrapper installed there sees each evaluation.  Rows that
            # are retrying get their stage 0 again, with the same bits.
            _rhs_from_c(self.kernel, c, out=stages[0], work=self.rhs_work)
            self.stage0_ready = True
        for i, column in enumerate(self.a_columns, start=1):
            stage_input = self._weighted_stages(column, self.scratch)
            stage_input *= dt
            np.add(c, stage_input, out=stage_input)
            _rhs_from_c(self.kernel, stage_input, out=stages[i], work=self.rhs_work)
        err_vec = self._weighted_stages(self.err_column, self.scratch)
        err_vec *= dt
        c_new = self._weighted_stages(self.b5_column, self.c_new)
        c_new *= dt
        np.add(c, c_new, out=c_new)
        return err_vec

    def _rodas4(self, dt: float) -> np.ndarray:
        """One RODAS4 attempt of the one state, as :meth:`_fehlberg`."""
        fresh, self.stage0_ready = not self.stage0_ready, True
        return self.rodas4.attempt(_rhs_from_c, self.c, dt, self.c_new, fresh)

    def advance(self, dt_suggest: Sequence[float]) -> None:
        """Lockstep attempts until at least one row accepts a step or fails.

        A row between steps starts one of length ``dt_suggest[i]``; a row
        retrying a rejected attempt ignores its entry.  Each row rejects and
        retries as :func:`step` documents.  A suggestion that is not a
        positive number (NaN too) is a ValueError.  An accepted row clamps,
        updates its clamp totals and its controller, and takes its new
        state.  A row whose step underflows, or whose bookkeeping raises
        ValueError, RuntimeError or ArithmeticError, keeps that exception in
        ``error`` and is not stepped again.
        """
        rows = self.rows
        for row, suggest in zip(rows, dt_suggest):
            if row.dt is None:
                if not suggest > 0:
                    raise ValueError(f"dt_suggest must be positive, got {suggest!r}")
                row.dt, row.retried = suggest, False
                self.stage0_ready = False
        floor = 1e-14 * self.cfg.t_end  # see IntegratorConfig.resolution
        while True:
            for row in rows:
                if row.error is None and row.dt < floor:
                    row.error = IntegratorError(f"step underflow: dt={row.dt!r}")
            if self._round():
                return

    def _round(self) -> bool:
        """One lockstep attempt of every row; whether any accepted or failed."""
        rows, c, c_new = self.rows, self.c, self.c_new
        if c.ndim == 1:
            err_vec = self.attempt(rows[0].dt)
            np.abs(err_vec, out=err_vec)
            # On one row, arg-reductions and a lookup cost less than max() and min().
            errs, least = [float(err_vec[err_vec.argmax()])], [float(c_new[c_new.argmin()])]
        else:
            self.dt_rows.T[...] = [row.dt for row in rows]
            err_vec = self.attempt(self.dt_rows)
            errs = np.abs(err_vec, out=err_vec).max(axis=1).tolist()
            least = c_new[:, :-1].min(axis=1).tolist()
        judged, ended = [], False
        for i, (row, err, min_c) in enumerate(zip(rows, errs, least)):
            if row.error is not None:
                ended = True
                continue
            try:
                if not row.judge(err, min_c, c, c_new, i, self.cfg.atol):
                    continue
                # Accepted, so no component is below -atol: every negative one clamps.
                clamped = _clamp(row, np.atleast_2d(c_new)[i]) if min_c < 0.0 else (0.0, 0.0)
            except (ValueError, RuntimeError, ArithmeticError) as exc:
                row.error, ended = exc, True
                continue
            judged.append((i, row, err, clamped))
        accepted = []
        if judged:
            tols = self._tolerances(c_new)
            for i, row, err, clamped in judged:
                try:
                    row.accept(err, tols[i], clamped)
                except (ValueError, RuntimeError, ArithmeticError) as exc:
                    row.error, ended = exc, True
                    continue
                accepted.append(i)
        if len(accepted) == len(rows):
            self.c, self.c_new = c_new, c
        elif accepted:
            c[accepted] = c_new[accepted]
        return bool(accepted) or ended


def _clamp(row: _Row, new_row: np.ndarray) -> tuple:
    """Clamp the negative components of an accepted state to zero, count the
    clamp event and return the clamped ``(count, mass)``."""
    clamp = new_row < 0.0
    clamped = (
        float(-np.sum(new_row[clamp])),
        float(-np.dot(np.nonzero(clamp)[0].astype(float), new_row[clamp])),
    )
    new_row[clamp] = 0.0
    row.stats.clamp_events += 1
    return clamped


def step(
    kernel: Kernel,
    state: ConcentrationProfile,
    dt_suggest: float,
    cfg: IntegratorConfig,
    err_prev_ratio: Optional[float] = None,
) -> Optional[StepResult]:
    """One accepted explicit embedded RK4(5) step with PI step-size control.

    The first attempt is ``dt_suggest`` long, which must be a positive
    number (NaN is a ValueError); no setting caps it.  Rejects and halves
    when the step would not be finite, and shrinks it when the componentwise
    error exceeds ``rtol * ||c|| + atol``.  When a component would drop
    below ``-atol`` the step is rejected and ``dt`` scaled by
    ``clip(0.9 (c_i + atol) / (c_i - c_new_i), 0.2, 0.9)`` at the worst
    component ``i``; when that ratio is not a positive finite number
    (``c_i`` already at or below ``-atol``) it is halved.  A step that
    needed such a retry proposes no larger ``dt_next``.  Accepted components
    in ``[-atol, 0)`` are clamped to 0 with the clamped mass reported for
    the drift ledger.

    :func:`integrate` passes its running stepper as ``state`` and one
    suggestion per row as ``dt_suggest``: the stepper advances in place
    until a row has accepted a step or failed, and ``None`` is returned, so
    a stepper of one state makes one call here per accepted step.
    """
    if isinstance(state, _Stepper):
        state.advance(dt_suggest)
        return None
    controller = _Controller(dt_next=dt_suggest, next_record=math.inf, err_prev_ratio=err_prev_ratio)
    row = _Row(controller, state, rows=1)
    stepper = _Stepper(kernel, state.c, cfg, [row])
    stepper.advance([dt_suggest])
    if row.error is not None:
        raise row.error
    return StepResult(
        state=ConcentrationProfile(stepper.c),
        dt_used=row.dt_used,
        dt_next=row.dt_next,
        error_estimate=row.error_estimate,
        clamped_mass0=row.clamped_mass0,
        clamped_mass1=row.clamped_mass1,
    )


@dataclass
class TrajectoryRecord:
    """Time-stamped samples of an integration with conservation bookkeeping.

    ``states`` holds one sample per row (``None`` when the samples went to
    a sink instead, see :func:`integrate`).  ``clamp_mass0/1`` are the
    cumulative moment deficits introduced by positivity clamping up to each
    sample, counted from the start of the run
    (a resumed run starts from the totals its checkpoint carried); they bound
    how much of any moment drift is a numerical artifact of the clamp.
    ``stats`` says where the steps went.
    """

    times: np.ndarray
    states: Optional[np.ndarray]
    n_trunc: int
    zeroth_moments: np.ndarray
    first_moments: np.ndarray
    clamp_mass0: np.ndarray
    clamp_mass1: np.ndarray
    boundary_mass: np.ndarray
    boundary_contaminated_from: Optional[float] = None
    stats: Optional[IntegratorStats] = None

    @property
    def sample_count(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> ConcentrationProfile:
        return ConcentrationProfile(self.states[-1])

    def moment_drift(self) -> tuple:
        m0 = np.max(np.abs(self.zeroth_moments - self.zeroth_moments[0]))
        m1 = np.max(np.abs(self.first_moments - self.first_moments[0]))
        return float(m0), float(m1)


CheckpointHook = Callable[[float, ConcentrationProfile, Optional[dict]], None]


def integrate(
    kernel: Kernel,
    state0: ConcentrationProfile,
    cfg: IntegratorConfig,
    t0: float = 0.0,
    checkpoint_hook: Optional[CheckpointHook] = None,
    checkpoint_every: Optional[float] = None,
    controller: Optional[Mapping] = None,
    sink: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
) -> TrajectoryRecord:
    """Integrate to ``cfg.t_end`` recording at the configured cadence.

    ``t_end <= t0`` records the initial state only.  ``checkpoint_hook`` is
    invoked at most every ``checkpoint_every`` time units (at sample points)
    and once at the end, with the time, the state and the controller block
    (see :func:`save_checkpoint`; ``None`` if ``t_end <= t0`` and none was
    given).  ``controller`` is such a block from a checkpoint: the run then
    continues, by its method, exactly as the run that wrote it would have.
    Without one the controller starts afresh and the run chooses its method
    (:func:`_stiff_method`).

    With a ``sink``, each block of ``BLOCK_ROWS`` samples goes to ``sink(times,
    states)`` as soon as it is full (the last one partial), and the record's
    ``states`` is ``None``: the run holds O(N) floats and its per-sample
    scalars.  A sink may keep a block but not write into it.
    """
    (result,) = _integrate_rows(
        kernel, [state0], cfg, t0, checkpoint_hook, checkpoint_every, controller, sink
    )
    if isinstance(result, Exception):
        raise result
    return result


def integrate_batch(
    kernel: Kernel, states0: Sequence[ConcentrationProfile], cfg: IntegratorConfig
) -> list:
    """Integrate states of one truncation from ``t = 0`` in lockstep (RODAS4
    rows each alone).

    Entry ``i`` is what :func:`integrate` returns for ``states0[i]`` alone,
    bit for bit (samples, moments, clamp ledger and stats), or the
    ValueError, RuntimeError or ArithmeticError it would raise; a row that
    fails leaves the batch and the others go on.
    """
    return _integrate_rows(kernel, list(states0), cfg)


def _integrate_rows(
    kernel: Kernel,
    states0: list,
    cfg: IntegratorConfig,
    t0: float = 0.0,
    checkpoint_hook: Optional[CheckpointHook] = None,
    checkpoint_every: Optional[float] = None,
    controller: Optional[Mapping] = None,
    sink: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
) -> list:
    """:func:`integrate` of every state of ``states0``, the explicit ones on
    one stepper (with a ``sink``: one state).

    Returns one entry per state: its record, or the exception that ended it.
    """
    if len({state.n_trunc for state in states0}) > 1:
        raise ValueError("the states of a batch must share one truncation")
    cadence = cfg.cadence()
    if controller is None:
        first_dt = min(cadence, cfg.t_end - t0) * 0.05
        # The recording grid t0 + cadence, t0 + 2 cadence, ... continues past
        # t_end, so a checkpoint names the grid point a longer run records next.
        block = _Controller(dt_next=first_dt, next_record=t0 + cadence)
    else:
        block = _Controller(**controller)
    results: list = [None] * len(states0)
    # Kept samples fill one block of the grid's count, exactly without a controller.
    block_rows = None if sink else cfg.sample_count(t0)
    rows = []
    for i, state0 in enumerate(states0):
        try:
            state0.validate()
        except ValueError as exc:
            results[i] = exc
        else:
            row_block = block
            if controller is None:
                row_block = replace(block, method=_stiff_method(kernel, state0, cfg))
            rows.append(_Row(row_block, state0, t0, i, sink, block_rows))

    if cfg.t_end > t0 and rows:
        for row in rows:
            if checkpoint_every and checkpoint_hook:
                row.next_checkpoint = t0 + checkpoint_every
        time_eps = cfg.resolution()
        groups = [[row] for row in rows if row.method is _RODAS4]
        explicit = [row for row in rows if row.method is _FEHLBERG]
        if explicit:
            groups.insert(0, explicit)
        for group in groups:
            states = [states0[row.index].c for row in group]
            stepper = _Stepper(
                kernel, states[0] if len(group) == 1 else np.array(states), cfg, group
            )
            live = stepper.rows if 0.0 < time_eps and t0 < cfg.t_end - time_eps else []
            while live:
                suggestions = [
                    min(row.dt_next, min(row.next_record, cfg.t_end) - row.t) for row in live
                ]
                step(kernel, stepper, suggestions, cfg)
                going = []
                for i, row in enumerate(live):
                    if row.error is not None:
                        results[row.index] = row.error
                        continue
                    if row.dt is None:  # accepted a step in this call
                        next_sample = min(row.next_record, cfg.t_end)
                        row.t += row.dt_used
                        if row.t >= next_sample - time_eps:
                            c = row.record(stepper.state(i))
                            if row.t >= row.next_record - time_eps:
                                row.next_record += cadence
                            if row.t >= row.next_checkpoint - time_eps:
                                checkpoint_hook(row.t, ConcentrationProfile(c), row.controller())
                                row.next_checkpoint = row.t + checkpoint_every
                        if row.t >= cfg.t_end - time_eps:
                            continue
                    going.append(i)
                if len(going) < len(live):
                    stepper.keep(going)
                    live = stepper.rows

    for row in rows:
        if results[row.index] is None:
            results[row.index] = record = row.trajectory()
            if checkpoint_hook is not None:
                # The run ends on a sample point, so this is the block of the last sample.
                final = row.controller() if cfg.t_end > t0 else controller
                checkpoint_hook(float(record.times[-1]), ConcentrationProfile(row.last), final)
    return results


def _stiff_method(kernel: Kernel, state: ConcentrationProfile, cfg: IntegratorConfig) -> str:
    """The method a run from ``state`` takes: RODAS4 when the Gershgorin
    bound on the Jacobian there, ``2 max_k (A_k + B_k)``, times the run's
    longest step, the recording cadence, exceeds ``_STIFF_THRESHOLD``:
    there stability, not accuracy, would hold explicit steps back."""
    a_rates, b_rates = _RhsWork(kernel, state.n_trunc).rates(state.c)
    # Column k of the rates' tridiagonal part holds -(A_k + B_k), B_k above and A_k below.
    sums = np.zeros(state.n_trunc + 1)
    sums[:-1] += a_rates
    sums[1:] += b_rates
    stiffness = 2.0 * float(sums.max()) * cfg.cadence()
    return (_RODAS4 if stiffness > _STIFF_THRESHOLD else _FEHLBERG).name


def moment_identity_residual(
    kernel: Kernel, traj: TrajectoryRecord, g: Sequence[float]
) -> float:
    """Worst defect of the weighted-moment balance along recorded samples.

    Compares the finite-difference derivative of ``sum_k g_k c_k`` between
    consecutive samples against the birth/death form
    ``sum (g_{k+1} - g_k) A_k c_k - sum (g_k - g_{k-1}) B_k c_k`` evaluated at
    the midpoint state, so the residual is O(dt^2) for smooth trajectories.
    """
    g_arr = np.asarray(g, dtype=float)
    n = traj.n_trunc
    if len(g_arr) < n + 1:
        raise ValueError("weight sequence must cover sizes 0..N")
    g_arr = g_arr[: n + 1]
    if traj.sample_count < 2:
        raise ValueError("need at least two recorded samples")
    forward = np.diff(g_arr)  # g_{k+1} - g_k for k = 0..N-1
    rate_work = _RhsWork(kernel, n)
    worst = 0.0
    for c1, c2, dt in zip(traj.states[:-1], traj.states[1:], np.diff(traj.times)):
        mid = 0.5 * (c1 + c2)
        a_rates, b_rates = rate_work.rates(mid)
        lhs = (np.dot(g_arr, c2) - np.dot(g_arr, c1)) / dt
        rhs_val = float(np.dot(forward, a_rates * mid[:-1]) - np.dot(forward, b_rates * mid[1:]))
        worst = max(worst, abs(lhs - rhs_val))
    return worst


def positivity_bound_margin(
    traj: TrajectoryRecord, growth_constant: float, rho: float, t0: float, t1: float
) -> float:
    """Worst slack of the exponential lower bound between two recorded times.

    Along exact trajectories of a strictly positive kernel every component
    obeys ``c_k(t) >= c_k(t0) exp(-C (2 rho + 1) (k+1) (t - t0))``; the margin
    returned is the minimum of ``c_k(t) - bound`` over recorded ``(k, t)``
    with ``t0 < t <= t1``.  Nonnegative means the bound held.
    """
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    times = traj.times
    i0 = int(np.argmin(np.abs(times - t0)))
    if abs(times[i0] - t0) > 1e-9 * max(1.0, abs(t0)):
        raise ValueError(f"t0={t0!r} is not a recorded sample time")
    i1 = int(np.argmin(np.abs(times - t1)))
    if abs(times[i1] - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValueError(f"t1={t1!r} is not a recorded sample time")
    base = traj.states[i0]
    ks = np.arange(traj.n_trunc + 1, dtype=float)
    decay_rate = growth_constant * (2.0 * rho + 1.0) * (ks + 1.0)
    margin = math.inf
    for i in range(i0 + 1, i1 + 1):
        dt = times[i] - times[i0]
        bound = base * np.exp(-decay_rate * dt)
        margin = min(margin, float(np.min(traj.states[i] - bound)))
    return margin


@dataclass(frozen=True)
class _Checkpoint:
    """A checkpoint's keys and types; ``c`` holds ``repr`` strings, ``cfg`` is not read."""

    t: float
    N: int = field(metadata={"least": 1})
    c: list[str]
    kernel_spec: dict
    cfg: Optional[dict] = None
    controller: Optional[dict] = None


def save_checkpoint(
    path,
    t: float,
    state: ConcentrationProfile,
    kernel_spec: Mapping,
    cfg: IntegratorConfig,
    controller: Optional[Mapping] = None,
) -> None:
    """Persist enough JSON to resume the run bit-compatibly at this state.

    ``cfg`` is echoed so the file describes its run, but
    :func:`load_checkpoint` does not read it back.  ``controller`` is the
    block :func:`integrate` hands its checkpoint hook (:class:`_Controller`);
    with it a resumed run repeats the uninterrupted one bit for bit.  The
    file is written through :func:`edgrow._csv.atomic_writer`, as every
    output is, so an interrupted write keeps the previous checkpoint
    loadable.  The fields are dumped as they are (``vars``), not copied.
    """
    c = [repr(x) for x in state.c.tolist()]
    saved = _Checkpoint(t, state.n_trunc, c, dict(kernel_spec), asdict(cfg), controller)
    with _csv.atomic_writer(path, text=True) as fh:
        json.dump(vars(saved), fh, indent=1)


def load_checkpoint(path):
    """Inverse of :func:`save_checkpoint`; floats round-trip exactly.

    Returns ``(t, state, kernel_spec, controller)``.  The file is bound to
    :class:`_Checkpoint`, its ``controller`` block, if any, to
    :class:`_Controller` (defaults filled in; ``None`` without a block: the
    controller starts afresh), and ``c`` read by :func:`state_from_values`.
    A controller must step forward: ``dt_next > 0`` and ``next_record > t``.
    A file that breaks that is a :class:`~edgrow._config.ConfigError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        saved = _Checkpoint(**bind("checkpoint", json.load(fh), _Checkpoint))
    try:
        state = state_from_values([float(x) for x in saved.c], saved.N)
    except ValueError as exc:
        raise ConfigError(f"checkpoint key 'c': {exc}") from None
    block = saved.controller
    controller = None if block is None else asdict(_Controller(**bind("controller", block, _Controller)))
    for key, least in (("dt_next", 0.0), ("next_record", saved.t)):
        if controller is not None and not controller[key] > least:
            raise ConfigError(f"controller key {key!r} is {controller[key]!r}; controller.{key} must be > {least!r}")
    return float(saved.t), state, saved.kernel_spec, controller
