"""Free energy, relative entropy, dissipation, and the Onsager form.

Under the curl-free condition the dynamics dissipate the free energy
``F[c] = sum c_k log(c_k / Q_k)`` at the rate ``D[c]``, a pairwise sum of
``psi(x, y) = (x - y)(log x - log y)`` over the two unidirectional reaction
fluxes.  The same structure can be packaged as ``dc/dt = -K[c] dF[c]`` with a
state-dependent positive semidefinite operator built from the logarithmic
mean of equilibrium-normalized reaction pressures; this module assembles
that operator densely so the identity can be checked numerically.

Boundary-of-cone conventions: ``0 log 0 = 0`` in ``F``; ``psi(x, 0) = +inf``
for ``x > 0`` and is reported as an infinity marker with a count of such
terms; the logarithmic mean satisfies ``L(s, s) = s`` and ``L(s, 0) = 0``.
Whether a flux is zero is read from the support of the kernel and the
state, never from the floating-point product, which may underflow.
:func:`thermo_series` gives ``F`` and ``D`` of every recorded sample at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import ConcentrationProfile, _rhs_from_c
from .equilibrium import ChemicalPotential, EquilibriumProfile
from .kernels import Kernel, _factor_vectors, kernel_matrix

__all__ = [
    "DissipationResult",
    "OnsagerOperator",
    "ThermoSeries",
    "BoundaryStateError",
    "free_energy",
    "entropy",
    "relative_entropy",
    "dissipation",
    "assemble_onsager",
    "gradient_flow_residual",
    "thermo_series",
]

ONSAGER_SIZE_CAP = 512
BLOCK_ROWS = 64  # rows per pass: a block's temporaries are ~130 KiB at N = 256


class BoundaryStateError(ValueError):
    """Operation needs a strictly positive state but a component is zero."""


class DissipationResult(NamedTuple):
    """Dissipation value with boundary bookkeeping.

    ``value`` is ``+inf`` whenever some reaction pairs a positive flux with a
    zero one; ``infinite_terms`` counts those (ordered) pairs and
    ``finite_part`` is the sum over the remaining pairs.
    """

    value: float
    infinite_terms: int
    finite_part: float


class ThermoSeries(NamedTuple):
    """Per-row ``F`` and :class:`DissipationResult` fields; ``None`` if not asked for."""

    free_energy: Optional[np.ndarray]
    dissipation: Optional[np.ndarray]
    infinite_terms: Optional[np.ndarray]
    finite_part: Optional[np.ndarray]


def thermo_series(
    states: np.ndarray, kernel: Optional[Kernel] = None, cp: Optional[ChemicalPotential] = None
) -> ThermoSeries:
    """``F`` (given ``cp``) and ``D`` (given ``kernel``) of each row ``c_0..c_N``.

    Rows go ``BLOCK_ROWS`` at a time.  Rows positive everywhere get block-wide
    elementwise work and ``np.sum(..., axis=1)`` (each row's own pairwise sum)
    but one dot product per row (a matrix product rounds differently); other
    rows, and ``D`` for kernels of rank >= 2 or with a zero factor, take the
    single-row formulas.  The bits are those of the single-row formulas.
    """
    states = np.asarray(states, dtype=float)
    rows, size = states.shape
    f_values = d_values = infinite_terms = finite_part = factors = None
    if cp is not None:
        if size - 1 > cp.k_max:
            raise ValueError("chemical potential does not cover the truncation range")
        log_q, f_values = cp.log_q_prefix(size), np.empty(rows)
    if kernel is not None:
        finite_part, infinite_terms = np.empty(rows), np.zeros(rows, dtype=np.int64)
        (b_vals, a_vals), *rest = _factor_vectors(kernel, size - 1)
        pair_sum, pair_data = _rank1_pair_sum, (b_vals, a_vals)
        if rest:  # K, K > 0 and log K - log K.T once for every row
            table = kernel_matrix(kernel, size - 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                log_table = np.log(table)
                pair_sum, pair_data = _dense_pair_sum, (table, table > 0.0, log_table - log_table.T)
        elif np.all(b_vals > 0.0) and np.all(a_vals > 0.0):
            factors = b_vals, a_vals, np.log(b_vals), np.log(a_vals)
    for start in range(0, rows, BLOCK_ROWS):
        block = states[start : start + BLOCK_ROWS]
        full = np.all(block > 0.0, axis=1)
        c = block[full]
        log_c = np.log(c)
        rows_full, rows_zero = start + np.flatnonzero(full), start + np.flatnonzero(~full)
        if cp is not None:
            f_values[rows_full] = np.sum(c * (log_c - log_q), axis=1)
            for i in rows_zero:
                mask = states[i] > 0.0
                f_values[i] = np.sum(states[i][mask] * (np.log(states[i][mask]) - log_q[mask]))
        if factors is not None:
            b_vals, a_vals, log_b, log_a = factors
            x, y = b_vals * c[:, 1:], a_vals * c[:, :-1]
            u = log_b + log_c[:, 1:] - log_a - log_c[:, :-1]
            finite_part[rows_full] = _centred_sums(x, y, u)
        if kernel is not None:
            for i in rows_zero if factors is not None else range(start, start + len(block)):
                infinite_terms[i], finite_part[i] = pair_sum(*pair_data, states[i])
    if kernel is not None:
        d_values = np.where(infinite_terms > 0, math.inf, finite_part)
    return ThermoSeries(f_values, d_values, infinite_terms, finite_part)


def free_energy(state: ConcentrationProfile, cp: ChemicalPotential) -> float:
    """``sum c_k (log c_k - log_q_k)`` with ``0 log 0 = 0``."""
    return float(thermo_series(state.c[None, :], cp=cp).free_energy[0])


def entropy(state: ConcentrationProfile) -> float:
    """Plain entropy part ``sum c_k log c_k`` (same zero convention)."""
    c = state.c
    mask = c > 0.0
    return float(np.sum(c[mask] * np.log(c[mask])))


def relative_entropy(state: ConcentrationProfile, eq: EquilibriumProfile) -> float:
    """``sum c_k log(c_k / omega_k)`` against an equilibrium profile.

    Nonnegative, zero exactly at the profile.  Requires the profile to be
    strictly positive over the truncation range (supports compatible).
    """
    c = state.c
    if eq.k_max < state.n_trunc:
        raise ValueError("equilibrium profile does not cover the truncation range")
    omega = eq.omega[: len(c)]
    if np.any(omega <= 0.0):
        raise BoundaryStateError("equilibrium profile has zero entries on the range")
    mask = c > 0.0
    return float(np.sum(c[mask] * (np.log(c[mask]) - np.log(omega[mask]))))


def dissipation(kernel: Kernel, state: ConcentrationProfile) -> DissipationResult:
    """Entropy production of the truncated dynamics at a state.

    Pairwise over reactions ``(k, l)``: compares the unidirectional fluxes
    ``K(k, l-1) c_k c_{l-1}`` and ``K(l, k-1) c_l c_{k-1}``.  A flux counts
    as positive when its rate and both concentrations are, even if the
    product underflows.  Pairs with both fluxes zero contribute nothing; a
    single vanishing flux makes the term infinite (value ``inf``, counted),
    which is the honest reading at monodisperse starts.  Rank-1 kernels take
    an O(N) covariance form, other kernels the dense pair table.
    """
    series = thermo_series(state.c[None, :], kernel=kernel)
    return DissipationResult(
        float(series.dissipation[0]), int(series.infinite_terms[0]), float(series.finite_part[0])
    )


def _rank1_pair_sum(b_vals: np.ndarray, a_vals: np.ndarray, c: np.ndarray) -> tuple:
    """For ``K = b(k) a(j)`` pair ``(k, l)`` has fluxes ``x_k y_l`` and ``x_l y_k``
    with ``x_k = b_k c_k``, ``y_k = a_{k-1} c_{k-1}``.  Over the common support
    ``S = {x > 0, y > 0}`` the sum is ``Y sum_S (x - rbar y)(u - ubar)`` with
    ``u = log x - log y``, ``Y = sum_S y``, ``rbar = sum_S x / Y`` and
    ``ubar = sum_S y u / Y``; centring keeps it accurate next to equilibrium.
    """
    donor, acceptor = c[1:], c[:-1]
    pos_x = (b_vals > 0.0) & (donor > 0.0)
    pos_y = (a_vals > 0.0) & (acceptor > 0.0)
    common = pos_x & pos_y
    n_common = int(np.count_nonzero(common))
    infinite_terms = 2 * (int(np.count_nonzero(pos_x)) * int(np.count_nonzero(pos_y)) - n_common**2)
    if not n_common:
        return infinite_terms, 0.0
    b_s, a_s, donor_s, acceptor_s = (v[common] for v in (b_vals, a_vals, donor, acceptor))
    x, y = b_s * donor_s, a_s * acceptor_s
    # log x - log y factorwise, so an underflowing product stays finite
    u = np.log(b_s) + np.log(donor_s) - np.log(a_s) - np.log(acceptor_s)
    return infinite_terms, float(_centred_sums(x[None], y[None], u[None])[0])


def _centred_sums(x: np.ndarray, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``Y sum (x - rbar y)(u - ubar)`` per row (:func:`_rank1_pair_sum`); overwrites x, u."""
    y_total = np.sum(y, axis=1)
    r_bar = np.sum(x, axis=1) / y_total
    u_bar = np.vecdot(y, u) / y_total
    x -= r_bar[:, None] * y
    u -= u_bar[:, None]
    return y_total * np.vecdot(x, u)


def _dense_pair_sum(table, table_positive, log_kernel_delta, c: np.ndarray) -> tuple:
    """Pair sum of ``c`` from the tables :func:`thermo_series` builds once per call."""
    positive = c > 0.0
    pos_f = table_positive & positive[1:, None] & positive[None, :-1]
    infinite_terms = int(np.count_nonzero(pos_f ^ pos_f.T))
    both = pos_f & pos_f.T
    if not np.any(both):
        return infinite_terms, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio_state = np.diff(np.log(c))  # log c_k - log c_{k-1}, k = 1..N
        delta = log_kernel_delta + log_ratio_state[:, None] - log_ratio_state[None, :]
        forward = table * np.outer(c[1:], c[:-1])  # flux of (k -> l-1 uptake)
        contrib = (forward - forward.T) * delta
    return infinite_terms, 0.5 * float(np.sum(contrib[both]))


@dataclass(frozen=True)
class OnsagerOperator:
    """Dense mobility operator of the gradient-flow form (symmetric PSD)."""

    matrix: np.ndarray
    n_trunc: int


def _pairwise_weights(kernel: Kernel, c: np.ndarray, log_q: np.ndarray):
    """Logarithmic-mean weights ``kappa(k, l-1) L(u, v)`` for all pairs.

    ``u = c_k c_{l-1} / (Q_k Q_{l-1})`` and ``v = c_{k-1} c_l / (Q_{k-1} Q_l)``
    are never formed directly: ``kappa * u`` is the plain forward flux and the
    log-difference ``log u - log v`` comes from logs of state and weights, so
    nothing overflows even when the weights span hundreds of orders.
    """
    n = len(c) - 1
    table = kernel_matrix(kernel, n)
    forward = table * np.outer(c[1:], c[:-1])
    backward = forward.T
    log_c = np.log(c)
    ratio = (log_c[1:] - log_c[:-1]) - (log_q[1:] - log_q[:-1])
    delta = ratio[:, None] - ratio[None, :]  # log u - log v per (k, l)
    near = np.abs(delta) < 1e-12
    weights = np.where(
        near,
        0.5 * (forward + backward),
        (forward - backward) / np.where(near, 1.0, delta),
    )
    return weights


def assemble_onsager(
    kernel: Kernel, state: ConcentrationProfile, cp: ChemicalPotential
) -> OnsagerOperator:
    """Dense assembly of the mobility operator at a strictly positive state.

    Each reaction pair touches at most four coordinates through the
    stoichiometric difference (+1 at ``k`` and ``l-1``, -1 at ``l`` and
    ``k-1``); the operator is the half-sum of the weighted outer products.
    O(N^2) pairs make this a verification tool, hence the size cap.
    """
    c = state.c
    n = state.n_trunc
    if n > ONSAGER_SIZE_CAP:
        raise ValueError(f"operator assembly is capped at N={ONSAGER_SIZE_CAP}")
    if np.any(c <= 0.0):
        raise BoundaryStateError("boundary state: operator needs c_k > 0 for all k")
    if cp.k_max < n:
        raise ValueError("chemical potential does not cover the truncation range")
    weights = _pairwise_weights(kernel, c, cp.log_q_prefix(n + 1))

    ks = np.arange(1, n + 1)
    pair_k = np.repeat(ks, n)
    pair_l = np.tile(ks, n)
    w = 0.5 * weights.ravel()
    indices = (pair_k, pair_l - 1, pair_l, pair_k - 1)
    signs = (1.0, 1.0, -1.0, -1.0)
    matrix = np.zeros((n + 1, n + 1))
    for idx_i, sign_i in zip(indices, signs):
        for idx_j, sign_j in zip(indices, signs):
            np.add.at(matrix, (idx_i, idx_j), (sign_i * sign_j) * w)
    return OnsagerOperator(matrix=matrix, n_trunc=n)


def gradient_flow_residual(
    kernel: Kernel, state: ConcentrationProfile, cp: ChemicalPotential
) -> float:
    """Max-norm defect of ``dc/dt = -K[c] dF[c]`` at a strictly positive state.

    The free-energy differential enters only through stoichiometric
    differences, so its additive gauge (any constant shift) cancels; the
    identity holds exactly in the truncated system and the residual measures
    floating-point noise of the two assembly routes.
    """
    c = state.c
    if np.any(c <= 0.0):
        raise BoundaryStateError("boundary state: residual needs c_k > 0 for all k")
    operator = assemble_onsager(kernel, state, cp)
    differential = np.log(c) - cp.log_q_prefix(len(c))
    flow = -operator.matrix @ differential
    return float(np.max(np.abs(_rhs_from_c(kernel, c) - flow)))
