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
(an :class:`_RhsWork` for the right-hand side), and one row per state with
its controller, counters and samples.  It steps one state, or a batch of
explicit states of one kernel and truncation in lockstep
(:func:`integrate_batch`), each row bit for bit as it steps alone.
Checkpoints carry the method and the controller, so a resumed run repeats
the uninterrupted one bit for bit.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .equilibrium import EquilibriumProfile
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
    "load_controller",
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


def monodisperse_state(rho: float, m: int, n_trunc: int) -> ConcentrationProfile:
    """Mixture ``(1 - rho/m) delta_0 + (rho/m) delta_m`` carrying density rho."""
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


def state_from_values(values: Sequence[float]) -> ConcentrationProfile:
    state = ConcentrationProfile(np.asarray(values, dtype=float))
    state.validate()
    return state


def state_from_profile(profile: EquilibriumProfile, n_trunc: int) -> ConcentrationProfile:
    """Truncate or zero-pad an equilibrium profile into a dynamic state."""
    c = np.zeros(n_trunc + 1)
    upto = min(n_trunc, profile.k_max)
    c[: upto + 1] = profile.omega[: upto + 1]
    return ConcentrationProfile(c)


@dataclass(frozen=True)
class RatesView:
    """Birth rates ``a[k] = A_k`` for ``k = 0..N-1`` and death rates
    ``b[k] = B_{k+1}`` for ``k = 0..N-1`` (``B_0 = 0`` by convention)."""

    a: np.ndarray
    b: np.ndarray


class _RhsWork:
    """Factor vectors, rate rows and the flux row ``-0.0, J_0..J_{N-1}, +0.0``
    that right-hand sides at truncation ``N`` reuse; ``left - right`` of that
    row is ``-J_0, J_{k-1} - J_k, J_{N-1}``, bit for bit (signed zeros too).

    With ``rows`` it serves a batch of that many states: states, rates and
    fluxes gain a leading row axis, and each row's dot products are one
    ``np.vecdot`` call.  That runs BLAS ``ddot`` per row, the routine
    ``np.dot`` runs for one state, so every row gets the bits it gets alone
    (``@`` and 2-D ``np.dot`` run ``gemv``, whose sums round differently).
    """

    def __init__(self, kernel: Kernel, n: int, rows: Optional[int] = None):
        (self.b_vals, self.a_vals), *rest = _factor_vectors(kernel, n)
        self.rest = tuple(rest)
        batch = () if rows is None else (rows,)
        self.a_rates, self.b_rates, self.scratch = np.empty((3, *batch, n))
        padded = np.zeros((*batch, n + 2))
        padded[..., 0] = -0.0
        self.flux, self.left, self.right = padded[..., 1:-1], padded[..., :-1], padded[..., 1:]
        self.dot = np.dot if rows is None else _row_dots
        # Sizes 1..N and 0..N-1 of a state; a bare slice indexes one state fastest.
        self.tail, self.head = slice(1, None), slice(None, -1)
        if rows is not None:
            self.tail, self.head = (slice(None), self.tail), (slice(None), self.head)

    def rates(self, c: np.ndarray) -> tuple:
        """Birth rates ``A_0..A_{N-1}`` and death rates ``B_1..B_N`` at ``c``."""
        donor, acceptor = c[self.tail], c[self.head]
        a_rates, b_rates, scratch, dot = self.a_rates, self.b_rates, self.scratch, self.dot
        # Starting from the first term keeps rank-1 kernels to one product each.
        np.multiply(self.a_vals, dot(self.b_vals, donor), out=a_rates)
        np.multiply(self.b_vals, dot(self.a_vals, acceptor), out=b_rates)
        for b_vals, a_vals in self.rest:
            a_rates += np.multiply(a_vals, dot(b_vals, donor), out=scratch)
            b_rates += np.multiply(b_vals, dot(a_vals, acceptor), out=scratch)
        return a_rates, b_rates


def _row_dots(vector: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``np.dot(vector, row)`` of every row, bit for bit, as a column."""
    return np.vecdot(vector, rows)[:, None]


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
    """``dc/dt`` at ``c`` (one state, or one per row) into ``out`` with
    ``work``, an :class:`_RhsWork` of this kernel, truncation and batch; either
    is allocated when not given; the rates at ``c`` stay in ``work``."""
    work = work or _RhsWork(kernel, c.shape[-1] - 1, len(c) if c.ndim == 2 else None)
    if out is None:
        out = np.empty_like(c)
    a_rates, b_rates = work.rates(c)
    flux = np.multiply(a_rates, c[work.head], out=work.flux)
    flux -= np.multiply(b_rates, c[work.tail], out=work.scratch)
    return np.subtract(work.left, work.right, out=out)


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
    ``rtol * strong_norm(c) + atol``."""

    t_end: float
    rtol: float = 1e-8
    atol: float = 1e-12
    max_step: float = math.inf
    record_every: Optional[float] = None

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.record_every is not None and self.record_every <= 0:
            raise ValueError("record_every must be positive")
        if not math.isfinite(self.t_end / self.cadence()):
            raise ValueError("t_end / record_every must be finite: the recording grid is too long")

    def cadence(self) -> float:
        if self.record_every is not None:
            return self.record_every
        return self.t_end / 200.0 or 1.0  # also where t_end / 200 underflows to 0

    def as_dict(self) -> dict:
        return {
            "t_end": self.t_end,
            "rtol": self.rtol,
            "atol": self.atol,
            "max_step": None if math.isinf(self.max_step) else self.max_step,
            "record_every": self.record_every,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "IntegratorConfig":
        max_step = data.get("max_step")
        return IntegratorConfig(
            t_end=float(data["t_end"]),
            rtol=float(data.get("rtol", 1e-8)),
            atol=float(data.get("atol", 1e-12)),
            max_step=math.inf if max_step in (None, "inf") else float(max_step),
            record_every=(
                None if data.get("record_every") is None else float(data["record_every"])
            ),
        )


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

# Right-hand sides per step, for both methods: stage 0 once (rejected
# attempts retry from the same state and share it) and the other five stages
# once per attempt.
_STEP_EVALS, _ATTEMPT_EVALS = 1, 5


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
# Most sample rows reserved up front; a longer recording grows by doubling.
_RESERVED_SAMPLES = 1 << 16


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
    ``rhs_evals`` counts right-hand-side evaluations, for both methods one
    per accepted step for stage 0, which rejected attempts share (RODAS4's
    Jacobian too), and five per attempt, so it equals ``6 * accepted + 5 *
    rejected``.  ``dt_min``/``dt_max`` range over accepted steps; ``clamp_events`` counts
    accepted steps that clamped at least one component to zero.
    """

    method: str = _FEHLBERG.name
    accepted: int = 0
    rejected_error: int = 0
    rejected_positivity: int = 0
    rejected_non_finite: int = 0
    rhs_evals: int = 0
    dt_min: float = math.inf
    dt_max: float = 0.0
    clamp_events: int = 0

    @property
    def rejected(self) -> int:
        return self.rejected_error + self.rejected_positivity + self.rejected_non_finite

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


class _Row:
    """One integrated state: its step-size controller, counters and recording.

    The controller is read from a ``controller`` block (absent keys start
    afresh): ``method``, ``dt_next``, ``err_prev_ratio``, the positivity
    ceiling ``dt_ceiling`` and the clamp totals.  ``tol`` is the tolerance
    at the row's current state; ``dt`` is the length of the attempt in
    progress (``None`` between steps) and ``retried`` says whether that step
    took a positivity retry.  ``dt_used``, ``error_estimate`` and
    ``clamped_mass0/1`` describe the last accepted step; ``error`` holds the
    exception that ended the row, if any.

    The recording, for :func:`_integrate_rows`: ``index`` among its states,
    the clock ``t``, the next grid and checkpoint times, and the samples from
    ``state0`` at ``t0`` on, in the rows of one matrix that :meth:`reserve`
    sizes from the recording grid and :meth:`record` doubles when it is full.
    """

    def __init__(self, controller: Mapping, state0: ConcentrationProfile, t0=0.0, index=0):
        self.method = _METHODS[controller.get("method", _FEHLBERG.name)]
        self.dt_next = float(controller.get("dt_next", 0.0))
        self.err_prev_ratio = controller.get("err_prev_ratio")
        dt_ceiling = controller.get("dt_ceiling")
        self.dt_ceiling = math.inf if dt_ceiling is None else dt_ceiling
        self.clamp_mass0 = float(controller.get("clamp_mass0", 0.0))
        self.clamp_mass1 = float(controller.get("clamp_mass1", 0.0))
        self.stats = IntegratorStats(self.method.name)
        self.tol = 0.0
        self.dt: Optional[float] = None
        self.retried = False
        self.error: Optional[Exception] = None
        self.dt_used = self.error_estimate = self.clamped_mass0 = self.clamped_mass1 = 0.0
        n = state0.n_trunc
        self.index, self.rho0, self.t = index, state0.first_moment, t0
        self.next_grid = self.next_checkpoint = math.inf
        self.boundary_lo = int(math.ceil(0.9 * n))
        self.weights_boundary = np.arange(n + 1, dtype=float)[self.boundary_lo :]
        self.times = [t0]
        self.samples = state0.c[None, :].copy()
        self.clamp0, self.clamp1 = [self.clamp_mass0], [self.clamp_mass1]
        self.boundary = [self._boundary_mass(state0.c)]
        self.contaminated_from: Optional[float] = None

    def judge(self, err: float, min_c: float, c: np.ndarray, k: int, atol: float) -> bool:
        """Whether the attempt is accepted: its error is ``err`` and its least
        new component ``min_c``, at index ``k``, was ``c[k]`` before the
        attempt.  A rejection is counted and shrinks ``dt``."""
        stats = self.stats
        stats.rhs_evals += _ATTEMPT_EVALS
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
            c_worst = float(c[k])
            headroom = c_worst + atol
            ratio = _SAFETY * headroom / (c_worst - min_c) if headroom > 0.0 else 0.0
            self.dt *= max(_FAC_MIN, min(_SAFETY, ratio)) if ratio > 0.0 else 0.5
            return False
        return True

    def accept(self, err: float, tol_new: float, clamped: tuple, cfg: IntegratorConfig) -> None:
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
        self.dt_next = min(
            dt * max(_FAC_MIN, min(_FAC_MAX, factor)), cfg.max_step, self.dt_ceiling
        )
        self.err_prev_ratio = err / tol_new
        self.tol = tol_new

        self.dt_used, self.dt = dt, None
        self.error_estimate = err
        stats = self.stats
        stats.accepted += 1
        stats.dt_min = min(stats.dt_min, dt)
        stats.dt_max = max(stats.dt_max, dt)

    def controller(self, next_record: float) -> dict:
        """The controller block a checkpoint needs to continue this run exactly."""
        return {
            "method": self.method.name,
            "dt_next": self.dt_next,
            "err_prev_ratio": self.err_prev_ratio,
            "dt_ceiling": None if math.isinf(self.dt_ceiling) else self.dt_ceiling,
            "next_record": next_record,
            "clamp_mass0": self.clamp_mass0,
            "clamp_mass1": self.clamp_mass1,
        }

    def _boundary_mass(self, c: np.ndarray) -> float:
        return float(np.dot(self.weights_boundary, c[self.boundary_lo :]))

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` samples in all."""
        if rows > len(self.samples):
            samples = np.empty((rows, self.samples.shape[1]))
            samples[: len(self.times)] = self.samples[: len(self.times)]
            self.samples = samples

    def record(self, state: np.ndarray) -> np.ndarray:
        """Copy ``state`` in as the sample at the row's time, with its clamp
        totals, and return the stored sample."""
        if len(self.times) == len(self.samples):
            self.reserve(2 * len(self.samples))
        c = self.samples[len(self.times)]
        c[...] = state
        self.times.append(self.t)
        self.clamp0.append(self.clamp_mass0)
        self.clamp1.append(self.clamp_mass1)
        b_mass = self._boundary_mass(c)
        self.boundary.append(b_mass)
        if self.contaminated_from is None and self.rho0 > 0 and b_mass > 0.01 * self.rho0:
            self.contaminated_from = self.t
            warnings.warn(
                f"boundary mass {b_mass:.3g} exceeds 1% of the density at t={self.t:.6g}; "
                "large-cluster dynamics are truncation-limited from here on",
                RuntimeWarning,
                stacklevel=4,
            )
        return c

    def trajectory(self) -> "TrajectoryRecord":
        samples = self.samples[: len(self.times)]
        return TrajectoryRecord(
            times=np.asarray(self.times),
            states=samples,
            n_trunc=samples.shape[1] - 1,
            zeroth_moments=np.sum(samples, axis=1),
            first_moments=samples @ np.arange(samples.shape[1], dtype=float),
            clamp_mass0=np.asarray(self.clamp0),
            clamp_mass1=np.asarray(self.clamp1),
            boundary_mass=np.asarray(self.boundary),
            boundary_contaminated_from=self.contaminated_from,
            stats=self.stats,
        )


class _Stepper:
    """Embedded steps, in place, of one state or of a batch of states of one
    kernel, truncation and config in lockstep (RODAS4: one state).

    Owns the states ``c`` (``N+1`` values, or ``R x (N+1)`` for a batch), a
    stage buffer of six such arrays with one products buffer and scratch
    arrays, an :class:`_RhsWork`, the strong-norm weights ``1 + l`` and one
    :class:`_Row` per state: its Python-float controller, its counters and
    its recording.  Every elementwise numpy call covers all rows
    and each row's dot products are the ones its state takes alone, so every
    row steps bit for bit as it would alone.  A step allocates no size-``N``
    array unless it clamps.

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
        self._load(np.array(c, dtype=float))
        for i, row in enumerate(self.rows):
            row.tol = self._tolerance(_row(self.c, i), _row(self.scratch, i))

    def _load(self, c: np.ndarray) -> None:
        """Take ``c`` as the states and size every buffer to it."""
        self.c = c
        self.stages = np.empty((6, *c.shape))
        self.products = np.zeros((7, *c.shape))
        self.c_new = np.empty_like(c)
        self.scratch = np.empty_like(c)
        self.rhs_work = _RhsWork(self.kernel, c.shape[-1] - 1, len(c) if c.ndim == 2 else None)
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
            self._load(_row(self.c, index[0]).copy())

    def _tolerance(self, c: np.ndarray, scratch: np.ndarray) -> float:
        """``rtol * strong_norm(c) + atol`` of one state, with a scratch row."""
        norm = float(np.dot(self.weights, np.abs(c, out=scratch)))
        return self.cfg.rtol * norm + self.cfg.atol

    def _weighted_stages(self, column: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = 0 + column[0] k_0 + column[1] k_1 + ...``, summed in that order."""
        m = len(column)
        np.multiply(self.stages[:m], column, out=self.products[1 : m + 1])
        return np.add.reduce(self.products[: m + 1], axis=0, out=out)

    def _fehlberg(self, dt) -> np.ndarray:
        """One Fehlberg 4(5) attempt of every row from ``c`` over ``dt`` (a
        float, or one per row as a column): the fifth-order solution goes to
        ``c_new`` and the error vector, which is returned, to ``scratch``.
        Stage 0 is evaluated again only after a row has started a step."""
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

        A row between steps starts one of length at most
        ``min(dt_suggest[i], max_step)``; a row retrying a rejected attempt
        ignores its entry.  Each row rejects and retries as :func:`step`
        documents.  An accepted row clamps, updates its clamp totals and its
        controller, and takes its new state.  A row whose step underflows,
        or whose bookkeeping raises ValueError, RuntimeError or
        ArithmeticError, keeps that exception in ``error`` and is not
        stepped again.
        """
        cfg, rows = self.cfg, self.rows
        for row, suggest in zip(rows, dt_suggest):
            if row.dt is None:
                if suggest <= 0:
                    raise ValueError("dt_suggest must be positive")
                row.dt, row.retried = min(suggest, cfg.max_step), False
                row.stats.rhs_evals += _STEP_EVALS
                self.stage0_ready = False
        t_scale = max(cfg.t_end, 1.0)
        while True:
            for row in rows:
                if row.error is None and row.dt < 1e-14 * t_scale:
                    row.error = IntegratorError(f"step underflow: dt={row.dt!r}")
            c, c_new = self.c, self.c_new
            dt = rows[0].dt if c.ndim == 1 else np.array([row.dt for row in rows])[:, None]
            err_vec = self.attempt(dt)
            errs = np.abs(err_vec, out=err_vec).max(axis=-1)
            worst = c_new.argmin(axis=-1)
            if c.ndim == 1:  # a stepper of one state is its own only row
                errs, worst, views = (errs.item(),), (worst.item(),), ((c, c_new, self.scratch),)
            else:
                errs, worst, views = errs.tolist(), worst.tolist(), zip(c, c_new, self.scratch)

            accepted = ended = False
            for row, err, k, (c_row, new_row, scratch_row) in zip(rows, errs, worst, views):
                if row.error is not None:
                    ended = True
                    continue
                min_c = float(new_row[k])
                try:
                    if not row.judge(err, min_c, c_row, k, cfg.atol):
                        continue
                    # Accepted, so no component is below -atol: every negative one clamps.
                    clamped = (0.0, 0.0)
                    if min_c < 0.0:
                        clamp = new_row < 0.0
                        clamped = (
                            float(-np.sum(new_row[clamp])),
                            float(-np.dot(np.nonzero(clamp)[0].astype(float), new_row[clamp])),
                        )
                        new_row[clamp] = 0.0
                        row.stats.clamp_events += 1
                    row.accept(err, self._tolerance(new_row, scratch_row), clamped, cfg)
                except (ValueError, RuntimeError, ArithmeticError) as exc:
                    row.error, ended = exc, True
                    continue
                accepted = True
                if c.ndim == 2:
                    c_row[:] = new_row
            if accepted and c.ndim == 1:
                self.c, self.c_new = c_new, c
            if accepted or ended:
                return


def _row(values: np.ndarray, i: int) -> np.ndarray:
    """Row ``i`` of a stepper's state-shaped array, as a view (the array
    itself for a stepper of one state)."""
    return values if values.ndim == 1 else values[i]


def step(
    kernel: Kernel,
    state: ConcentrationProfile,
    dt_suggest: float,
    cfg: IntegratorConfig,
    err_prev_ratio: Optional[float] = None,
) -> Optional[StepResult]:
    """One accepted explicit embedded RK4(5) step with PI step-size control.

    Rejects and halves when the step would not be finite, and shrinks it
    when the componentwise error exceeds ``rtol * ||c|| + atol``.  When a
    component would drop below ``-atol`` the step is rejected and ``dt``
    scaled by ``clip(0.9 (c_i + atol) / (c_i - c_new_i), 0.2, 0.9)`` at the
    worst component ``i``; when that ratio is not a positive finite number
    (``c_i`` already at or below ``-atol``) it is halved.  A step that needed
    such a retry proposes no larger ``dt_next``.  Accepted components in
    ``[-atol, 0)`` are clamped to 0 with the clamped mass reported for the
    drift ledger.

    :func:`integrate` passes its running stepper as ``state`` and one
    suggestion per row as ``dt_suggest``: the stepper advances in place
    until a row has accepted a step or failed, and ``None`` is returned, so
    a stepper of one state makes one call here per accepted step.
    """
    if isinstance(state, _Stepper):
        state.advance(dt_suggest)
        return None
    row = _Row({"err_prev_ratio": err_prev_ratio}, state)
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

    ``states`` holds one sample per row.  ``clamp_mass0/1`` are the
    cumulative moment deficits introduced by positivity clamping up to each
    sample, counted from the start of the run
    (a resumed run starts from the totals its checkpoint carried); they bound
    how much of any moment drift is a numerical artifact of the clamp.
    ``stats`` says where the steps went.
    """

    times: np.ndarray
    states: np.ndarray
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
    """
    (result,) = _integrate_rows(
        kernel, [state0], cfg, t0, checkpoint_hook, checkpoint_every, controller
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
) -> list:
    """:func:`integrate` of every state of ``states0``, the explicit ones on
    one stepper.

    Returns one entry per state: its record, or the exception that ended it.
    """
    if len({state.n_trunc for state in states0}) > 1:
        raise ValueError("the states of a batch must share one truncation")
    cadence, block = cfg.cadence(), controller
    if controller is None:
        first_dt = min(cadence, cfg.max_step, cfg.t_end - t0) * 0.05
        block = {"dt_next": first_dt, "next_record": t0 + cadence}
    results: list = [None] * len(states0)
    rows = []
    for i, state0 in enumerate(states0):
        try:
            state0.validate()
        except ValueError as exc:
            results[i] = exc
        else:
            row_block = block
            if controller is None:
                row_block = dict(block, method=_stiff_method(kernel, state0, cfg))
            rows.append(_Row(row_block, state0, t0, i))

    if cfg.t_end > t0 and rows:
        # The initial sample, the grid points up to t_end and t_end itself.
        grid = (cfg.t_end - float(block["next_record"])) / cadence
        samples = 3 + max(0, int(min(grid, _RESERVED_SAMPLES)))
        for row in rows:
            row.reserve(samples)
            # The recording grid t0 + cadence, t0 + 2 cadence, ... continues past
            # t_end, so a checkpoint names the grid point a longer run records next.
            row.next_grid = float(block["next_record"])
            if checkpoint_every and checkpoint_hook:
                row.next_checkpoint = t0 + checkpoint_every
        time_eps = 1e-12 * max(cfg.t_end, 1.0)
        groups = [[row] for row in rows if row.method is _RODAS4]
        explicit = [row for row in rows if row.method is _FEHLBERG]
        if explicit:
            groups.insert(0, explicit)
        for group in groups:
            states = [row.samples[0] for row in group]
            stepper = _Stepper(
                kernel, states[0] if len(group) == 1 else np.array(states), cfg, group
            )
            live = stepper.rows if t0 < cfg.t_end - time_eps else []
            while live:
                suggestions = [
                    min(row.dt_next, min(row.next_grid, cfg.t_end) - row.t) for row in live
                ]
                step(kernel, stepper, suggestions, cfg)
                going = []
                for i, row in enumerate(live):
                    if row.error is not None:
                        results[row.index] = row.error
                        continue
                    if row.dt is None:  # accepted a step in this call
                        next_record = min(row.next_grid, cfg.t_end)
                        row.t += row.dt_used
                        if row.t >= next_record - time_eps:
                            c = row.record(_row(stepper.c, i))
                            if row.t >= row.next_grid - time_eps:
                                row.next_grid += cadence
                            if row.t >= row.next_checkpoint - time_eps:
                                checkpoint_hook(
                                    row.t, ConcentrationProfile(c), row.controller(row.next_grid)
                                )
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
                final = row.controller(row.next_grid) if cfg.t_end > t0 else controller
                checkpoint_hook(float(record.times[-1]), record.final_state, final)
    return results


def _stiff_method(kernel: Kernel, state: ConcentrationProfile, cfg: IntegratorConfig) -> str:
    """The method a run from ``state`` takes: RODAS4 when the Gershgorin
    bound on the Jacobian there, ``2 max_k (A_k + B_k)``, times the run's
    longest step ``min(cadence, max_step)`` exceeds ``_STIFF_THRESHOLD``:
    there stability, not accuracy, would hold explicit steps back."""
    a_rates, b_rates = _RhsWork(kernel, state.n_trunc).rates(state.c)
    # Column k of the rates' tridiagonal part holds -(A_k + B_k), B_k above and A_k below.
    sums = np.zeros(state.n_trunc + 1)
    sums[:-1] += a_rates
    sums[1:] += b_rates
    stiffness = 2.0 * float(sums.max()) * min(cfg.cadence(), cfg.max_step)
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


def save_checkpoint(
    path,
    t: float,
    state: ConcentrationProfile,
    kernel_spec: Mapping,
    cfg: IntegratorConfig,
    controller: Optional[Mapping] = None,
) -> None:
    """Persist enough JSON to resume the run bit-compatibly at this state.

    ``controller`` is the block :func:`integrate` hands its checkpoint hook:
    ``method``, ``dt_next``, ``err_prev_ratio``, the positivity ceiling
    ``dt_ceiling`` (``None``, JSON ``null``, while it is infinite), ``next_record`` and the
    clamp totals ``clamp_mass0``/``clamp_mass1``.  With it a resumed run
    repeats the uninterrupted one bit for bit.  The file is replaced
    atomically, so an interrupted write keeps the previous checkpoint
    loadable.
    """
    payload = {
        "t": t,
        "N": state.n_trunc,
        "c": [repr(x) for x in state.c.tolist()],
        "kernel_spec": dict(kernel_spec),
        "cfg": cfg.as_dict(),
    }
    if controller is not None:
        payload["controller"] = dict(controller)
    with _atomic_writer(path) as fh:
        json.dump(payload, fh, indent=1)


@contextlib.contextmanager
def _atomic_writer(path):
    """Text handle whose contents replace ``path`` only once fully written.

    Writes go to ``<path>.tmp`` in the same directory and ``os.replace``
    swaps it in after the handle closes, so a failure or a kill mid-write
    leaves the previous file intact.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Inverse of :func:`save_checkpoint`; floats round-trip exactly.

    Returns ``(t, state, kernel_spec, cfg)``; :func:`load_controller` reads
    the controller block.
    """
    payload = _read_checkpoint(path)
    c = np.array([float(x) for x in payload["c"]], dtype=float)
    if len(c) != payload["N"] + 1:
        raise ValueError("checkpoint truncation does not match its state length")
    state = ConcentrationProfile(c)
    cfg = IntegratorConfig.from_dict(payload["cfg"])
    return float(payload["t"]), state, payload["kernel_spec"], cfg


def load_controller(path) -> Optional[dict]:
    """The controller block of a checkpoint, or ``None`` for a checkpoint
    written without one (the resumed controller then starts afresh).  A
    block written without ``dt_ceiling`` loads with the ceiling unset, one
    without ``method`` as the explicit method."""
    block = _read_checkpoint(path).get("controller")
    if block is None:
        return None
    err_prev_ratio, dt_ceiling = block["err_prev_ratio"], block.get("dt_ceiling")
    method = block.get("method", _FEHLBERG.name)
    if method not in _METHODS:
        raise ValueError(f"unknown stepping method {method!r}")
    return {
        "method": method,
        "dt_next": float(block["dt_next"]),
        "err_prev_ratio": None if err_prev_ratio is None else float(err_prev_ratio),
        "dt_ceiling": None if dt_ceiling is None else float(dt_ceiling),
        "next_record": float(block["next_record"]),
        "clamp_mass0": float(block["clamp_mass0"]),
        "clamp_mass1": float(block["clamp_mass1"]),
    }


def _read_checkpoint(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
