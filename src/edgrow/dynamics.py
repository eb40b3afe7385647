"""Truncated exchange dynamics: rates, fluxes, and adaptive integration.

The infinite birth-death hierarchy is cut at a truncation size ``N`` with
zero flux past ``N``, which conserves both the cluster count and the total
mass exactly.  The right-hand side is assembled from state-dependent birth
rates ``A_k[c] = sum_l K(l, k) c_l`` and death rates
``B_k[c] = sum_l K(k, l-1) c_{l-1}``.  Every kernel is a short sum of
products ``sum_r b_r(k) a_r(j)``, so both sums cost O(N) per term:
``A = sum_r a_r (b_r . c_{1..N})`` and ``B = sum_r b_r (a_r . c_{0..N-1})``.

Integration uses an embedded Runge-Kutta 4(5) pair with PI step-size control
and positivity-aware rejection: a step that would push any component below
``-atol`` is halved, tiny negative survivors are clamped to zero and the
clamped mass is accounted in a drift ledger so conservation checks stay
honest.
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


def _rate_arrays(kernel: Kernel, c: np.ndarray):
    donor = c[1:]
    acceptor = c[:-1]
    (b_vals, a_vals), *rest = _factor_vectors(kernel, len(c) - 1)
    # Starting from the first term keeps rank-1 kernels to one product each.
    a_rates = a_vals * float(np.dot(b_vals, donor))
    b_rates = b_vals * float(np.dot(a_vals, acceptor))
    for b_vals, a_vals in rest:
        a_rates += a_vals * float(np.dot(b_vals, donor))
        b_rates += b_vals * float(np.dot(a_vals, acceptor))
    return a_rates, b_rates


def birth_death_rates(kernel: Kernel, state: ConcentrationProfile) -> RatesView:
    """State-dependent birth/death rates of the truncated chain."""
    a_rates, b_rates = _rate_arrays(kernel, state.c)
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


def _rhs_from_c(kernel: Kernel, c: np.ndarray) -> np.ndarray:
    a_rates, b_rates = _rate_arrays(kernel, c)
    flux = a_rates * c[:-1] - b_rates * c[1:]
    out = np.empty_like(c)
    out[0] = -flux[0]
    out[1:-1] = flux[:-1] - flux[1:]
    out[-1] = flux[-1]
    return out


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

    def cadence(self) -> float:
        if self.record_every is not None:
            return self.record_every
        return self.t_end / 200.0 if self.t_end > 0 else 1.0

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


@dataclass(frozen=True)
class StepResult:
    state: ConcentrationProfile
    dt_used: float
    dt_next: float
    error_estimate: float
    clamped_mass0: float
    clamped_mass1: float


def _rk_stages(kernel: Kernel, c: np.ndarray, dt: float, f0: np.ndarray) -> list:
    """Stages of one attempt from ``c``; ``f0 = f(c)`` does not depend on ``dt``."""
    stages = [f0]
    for row in _RK_A[1:]:
        increment = np.zeros_like(c)
        for coeff, stage in zip(row, stages):
            increment += coeff * stage
        stages.append(_rhs_from_c(kernel, c + dt * increment))
    return stages


def step(
    kernel: Kernel,
    state: ConcentrationProfile,
    dt_suggest: float,
    cfg: IntegratorConfig,
    err_prev_ratio: Optional[float] = None,
) -> StepResult:
    """One accepted embedded RK4(5) step with PI step-size control.

    Rejects and halves when the componentwise error exceeds
    ``rtol * ||c|| + atol`` or any component would drop below ``-atol``;
    accepted components in ``[-atol, 0)`` are clamped to 0 with the clamped
    mass reported for the drift ledger.
    """
    if dt_suggest <= 0:
        raise ValueError("dt_suggest must be positive")
    c = state.c
    tol = cfg.rtol * strong_norm(c) + cfg.atol
    t_scale = max(cfg.t_end, 1.0)
    dt = min(dt_suggest, cfg.max_step)
    safety, fac_min, fac_max = 0.9, 0.2, 5.0
    # Rejected attempts retry from the same state, so they share stage 0.
    f0 = _rhs_from_c(kernel, c)
    while True:
        if dt < 1e-14 * t_scale:
            raise IntegratorError(f"step underflow: dt={dt!r}")
        stages = _rk_stages(kernel, c, dt, f0)
        c_new = c + dt * sum(b * k for b, k in zip(_RK_B5, stages))
        err_vec = dt * sum(e * k for e, k in zip(_RK_ERR, stages))
        err = float(np.max(np.abs(err_vec)))
        if not math.isfinite(err):
            dt *= 0.5
            continue
        if err > tol:
            ratio = (tol / err) ** 0.2
            dt *= max(fac_min, min(1.0, safety * ratio))
            continue
        min_c = float(np.min(c_new))
        if min_c < -cfg.atol:
            dt *= 0.5
            continue
        break

    clamp = (c_new < 0.0) & (c_new >= -cfg.atol)
    clamped_mass0 = float(-np.sum(c_new[clamp]))
    clamped_mass1 = float(-np.dot(np.nonzero(clamp)[0].astype(float), c_new[clamp]))
    if np.any(clamp):
        c_new = c_new.copy()
        c_new[clamp] = 0.0

    err_ratio = err / tol if tol > 0 else 0.0
    if err_ratio <= 0.0:
        factor = fac_max
    elif err_prev_ratio is None or err_prev_ratio <= 0.0:
        factor = safety * err_ratio ** (-0.2)
    else:
        # PI control: respond to the current ratio, damped by the previous one.
        factor = safety * err_ratio ** (-0.14) * err_prev_ratio**0.08
    dt_next = dt * max(fac_min, min(fac_max, factor))
    dt_next = min(dt_next, cfg.max_step)
    return StepResult(
        state=ConcentrationProfile(c_new),
        dt_used=dt,
        dt_next=dt_next,
        error_estimate=err,
        clamped_mass0=clamped_mass0,
        clamped_mass1=clamped_mass1,
    )


@dataclass
class TrajectoryRecord:
    """Time-stamped samples of an integration with conservation bookkeeping.

    ``extras`` holds observer series (free energy, dissipation, ...) keyed by
    name.  ``clamp_mass0/1`` are the cumulative moment deficits introduced by
    positivity clamping up to each sample; they bound how much of any moment
    drift is a numerical artifact of the clamp.
    """

    times: np.ndarray
    states: np.ndarray
    n_trunc: int
    zeroth_moments: np.ndarray
    first_moments: np.ndarray
    clamp_mass0: np.ndarray
    clamp_mass1: np.ndarray
    boundary_mass: np.ndarray
    extras: dict
    boundary_contaminated_from: Optional[float] = None

    @property
    def sample_count(self) -> int:
        return len(self.times)

    def state_at(self, index: int) -> ConcentrationProfile:
        return ConcentrationProfile(self.states[index])

    @property
    def final_state(self) -> ConcentrationProfile:
        return self.state_at(len(self.times) - 1)

    def moment_drift(self) -> tuple:
        m0 = np.max(np.abs(self.zeroth_moments - self.zeroth_moments[0]))
        m1 = np.max(np.abs(self.first_moments - self.first_moments[0]))
        return float(m0), float(m1)


Observer = Callable[[ConcentrationProfile, float], Mapping[str, float]]


def integrate(
    kernel: Kernel,
    state0: ConcentrationProfile,
    cfg: IntegratorConfig,
    observers: Optional[Sequence[Observer]] = None,
    t0: float = 0.0,
    checkpoint_hook: Optional[Callable[[float, ConcentrationProfile], None]] = None,
    checkpoint_every: Optional[float] = None,
) -> TrajectoryRecord:
    """Integrate to ``cfg.t_end`` recording at the configured cadence.

    ``t_end <= t0`` records the initial state only.  ``checkpoint_hook`` is
    invoked at most every ``checkpoint_every`` time units (at sample points),
    which is how the CLI persists resumable state.
    """
    state0.validate()
    observers = list(observers or [])
    n = state0.n_trunc
    boundary_lo = int(math.ceil(0.9 * n))
    weights_boundary = np.arange(n + 1, dtype=float)
    rho0 = state0.first_moment

    times = [t0]
    states = [state0.c.copy()]
    extras: dict = {}
    clamp0_list = [0.0]
    clamp1_list = [0.0]
    boundary_list = [float(np.dot(weights_boundary[boundary_lo:], state0.c[boundary_lo:]))]
    contaminated_from: Optional[float] = None

    def observe(state: ConcentrationProfile, t: float) -> None:
        for obs in observers:
            for key, value in obs(state, t).items():
                extras.setdefault(key, []).append(value)

    observe(state0, t0)

    if cfg.t_end > t0:
        cadence = cfg.cadence()
        state = state0
        t = t0
        clamp0 = clamp1 = 0.0
        next_record = min(t0 + cadence, cfg.t_end)
        next_checkpoint = (
            t0 + checkpoint_every if (checkpoint_every and checkpoint_hook) else math.inf
        )
        dt_next = min(cadence, cfg.max_step, (cfg.t_end - t0)) * 0.05
        err_prev_ratio: Optional[float] = None
        time_eps = 1e-12 * max(cfg.t_end, 1.0)
        while t < cfg.t_end - time_eps:
            dt_try = min(dt_next, next_record - t)
            result = step(kernel, state, dt_try, cfg, err_prev_ratio)
            state = result.state
            t += result.dt_used
            dt_next = result.dt_next
            tol = cfg.rtol * strong_norm(state.c) + cfg.atol
            err_prev_ratio = result.error_estimate / tol if tol > 0 else None
            clamp0 += result.clamped_mass0
            clamp1 += result.clamped_mass1
            if t >= next_record - time_eps:
                times.append(t)
                states.append(state.c.copy())
                clamp0_list.append(clamp0)
                clamp1_list.append(clamp1)
                b_mass = float(np.dot(weights_boundary[boundary_lo:], state.c[boundary_lo:]))
                boundary_list.append(b_mass)
                if contaminated_from is None and rho0 > 0 and b_mass > 0.01 * rho0:
                    contaminated_from = t
                    warnings.warn(
                        f"boundary mass {b_mass:.3g} exceeds 1% of the density at t={t:.6g}; "
                        "large-cluster dynamics are truncation-limited from here on",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                observe(state, t)
                if t >= next_checkpoint - time_eps and checkpoint_hook is not None:
                    checkpoint_hook(t, state)
                    next_checkpoint = t + (checkpoint_every or math.inf)
                next_record = min(next_record + cadence, cfg.t_end)

    record = TrajectoryRecord(
        times=np.asarray(times),
        states=np.asarray(states),
        n_trunc=n,
        zeroth_moments=np.sum(np.asarray(states), axis=1),
        first_moments=np.asarray(states) @ np.arange(n + 1, dtype=float),
        clamp_mass0=np.asarray(clamp0_list),
        clamp_mass1=np.asarray(clamp1_list),
        boundary_mass=np.asarray(boundary_list),
        extras={key: np.asarray(vals) for key, vals in extras.items()},
        boundary_contaminated_from=contaminated_from,
    )
    if checkpoint_hook is not None:
        checkpoint_hook(float(record.times[-1]), record.final_state)
    return record


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
    worst = 0.0
    for i in range(traj.sample_count - 1):
        c1 = traj.states[i]
        c2 = traj.states[i + 1]
        dt = traj.times[i + 1] - traj.times[i]
        mid = 0.5 * (c1 + c2)
        a_rates, b_rates = _rate_arrays(kernel, mid)
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
    path, t: float, state: ConcentrationProfile, kernel_spec: Mapping, cfg: IntegratorConfig
) -> None:
    """Persist enough JSON to resume the run bit-compatibly at this state.

    The file is replaced atomically, so an interrupted write keeps the
    previous checkpoint loadable.
    """
    payload = {
        "t": t,
        "N": state.n_trunc,
        "c": [repr(x) for x in state.c.tolist()],
        "kernel_spec": dict(kernel_spec),
        "cfg": cfg.as_dict(),
    }
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
    """Inverse of :func:`save_checkpoint`; floats round-trip exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    c = np.array([float(x) for x in payload["c"]], dtype=float)
    if len(c) != payload["N"] + 1:
        raise ValueError("checkpoint truncation does not match its state length")
    state = ConcentrationProfile(c)
    cfg = IntegratorConfig.from_dict(payload["cfg"])
    return float(payload["t"]), state, payload["kernel_spec"], cfg
