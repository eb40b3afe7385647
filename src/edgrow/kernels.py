"""Rate kernels for monomer exchange between clusters.

A kernel assigns the rate ``K(k, j)`` at which a cluster of size ``k >= 1``
hands a monomer to a cluster of size ``j >= 0``.  Every kernel is stored as a
short sum of products ``K(k, j) = sum_r b_r(k) a_r(j)``.  Built-in families
cover the constant kernel, the "condensing" family ``1 + c/k`` (finite
critical density), separable products ``b_k * a_j`` defined through a small
rational expression grammar (all of rank 1), and an additive family of rank 2
that violates the curl-free (Becker-Doring) condition and is useful as a
negative control.

A config names a kernel by its family plus the keyword arguments of that
family's constructor (:func:`kernel_from_spec`), bound by the rule of
:mod:`edgrow._config`.  Each constructor's parameters, its spec keys and its
``Kernel.params`` keys are the same names, so :func:`kernel_spec`
round-trips and every default lives in the constructor's signature alone.

The module also hosts executable audits of the structural conditions the
longtime theory needs: linear growth bounds, discrete regularity, continuity
at infinity, sublinear envelopes and the curl-free condition itself.  The
audits sample a finite grid and say so; they are evidence, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Callable, Mapping, Tuple, Union

import numpy as np

from ._config import ConfigError, bind_choice
from ._expr import RateExpressionError, compile_rational

__all__ = [
    "Kernel",
    "KernelDomainError",
    "ZeroRateError",
    "AssumptionReport",
    "constant_kernel",
    "condensing_kernel",
    "separable_kernel",
    "additive_kernel",
    "kernel_from_spec",
    "kernel_spec",
    "bda_residual",
    "audit_assumptions",
    "kernel_matrix",
]


class KernelDomainError(ValueError):
    """Arguments outside the kernel domain (donor size must be >= 1)."""


class ZeroRateError(ValueError):
    """A rate needed by an identity or a product is zero."""


@dataclass(frozen=True, eq=False)
class Kernel:
    """Immutable exchange-rate map ``(k, j) -> K(k, j)``.

    Attributes
    ----------
    family:
        Label of the built-in family (or ``"custom"``).
    terms:
        ``((b_1, a_1), (b_2, a_2), ...)`` vectorized factor maps with
        ``K(k, j) = sum_r b_r(k) * a_r(j)``.  This is the only description of
        the rates: evaluation, grids and the O(N) birth/death sums all derive
        from it.  Curl-free families have one term.
    growth_constant:
        Declared constant ``C`` such that ``K(k, j) <= C * k * (j + 1)`` is
        expected to hold; the audit checks it on a grid.
    params:
        Constructor parameters, kept so a kernel can be serialized back into
        a config (checkpoints are self-describing).
    """

    family: str
    terms: Tuple[Tuple[Callable, Callable], ...]
    growth_constant: float
    params: Mapping[str, Any] = field(default_factory=dict)

    def __call__(self, k, j):
        """Rate of a size-``k`` cluster passing a monomer to a size-``j`` one."""
        k_arr = np.asarray(k, dtype=float)
        j_arr = np.asarray(j, dtype=float)
        if np.any(k_arr < 1):
            raise KernelDomainError("donor size k must be >= 1")
        if np.any(j_arr < 0):
            raise KernelDomainError("acceptor size j must be >= 0")
        (b_fn, a_fn), *rest = self.terms
        out = b_fn(k_arr) * a_fn(j_arr)
        for b_fn, a_fn in rest:
            out = out + b_fn(k_arr) * a_fn(j_arr)
        if np.ndim(k) == 0 and np.ndim(j) == 0:
            return float(out)
        return out


@lru_cache(maxsize=8)
def _factor_vectors(kernel: Kernel, n: int) -> tuple:
    """Read-only ``(b_r(1..n), a_r(0..n-1))`` per term, cached per ``(kernel, n)``.

    These are the donor and acceptor factors the birth/death sums and the
    rank-1 dissipation need; kernels are immutable, so caching by identity
    is safe.
    """
    ks = np.arange(1, n + 1, dtype=float)
    js = np.arange(0, n, dtype=float)
    vectors = tuple((b_fn(ks), a_fn(js)) for b_fn, a_fn in kernel.terms)
    for pair in vectors:
        for vec in pair:
            vec.flags.writeable = False
    return vectors


def constant_kernel(value: float = 1.0) -> Kernel:
    """Size-independent exchange: every pair reacts at the same rate."""
    if value <= 0:
        raise ValueError("constant kernel rate must be positive")
    v = float(value)
    return Kernel(
        family="constant",
        terms=((compile_rational(v), compile_rational(1.0)),),
        growth_constant=v,
        params={"value": v},
    )


def condensing_kernel(c: float = 3.0) -> Kernel:
    """Donor-only kernel ``K(k, j) = 1 + c / k``.

    Small clusters evaporate faster than large ones absorb, which caps the
    density the equilibrium family can carry: with the default ``c = 3`` the
    critical fugacity is 1/4 and the critical density is 1.
    """
    if c <= 0:
        raise ValueError("condensing strength must be positive")
    s = float(c)
    return Kernel(
        family="condensing",
        terms=((compile_rational(f"1 + {s!r}/k"), compile_rational(1.0)),),
        growth_constant=1.0 + s,
        params={"c": s},
    )


def separable_kernel(b: Union[str, float] = "k", a: Union[str, float] = "1") -> Kernel:
    """Product kernel ``K(k, j) = b(k) * a(j)`` from rational expressions or numbers."""
    kernel = Kernel(
        family="separable",
        terms=((compile_rational(b), compile_rational(a)),),
        growth_constant=math.nan,
        params={"b": str(b), "a": str(a)},
    )
    # Smallest C with K(k, j) <= C k (j + 1) on a 64 x 64 probe grid.
    sizes = np.arange(1, 65, dtype=float)
    growth_constant = np.max(kernel_matrix(kernel, 64) / np.outer(sizes, sizes))
    return replace(kernel, growth_constant=float(growth_constant))


def additive_kernel(donor_coeff: float = 1.0, acceptor_coeff: float = 2.0) -> Kernel:
    """Rank-2 ``K(k, j) = donor_coeff*k + acceptor_coeff*(j+1)``.

    Violates the curl-free condition, so it has no product-form equilibria;
    used to exercise the audit failure paths.
    """
    ck = float(donor_coeff)
    cj = float(acceptor_coeff)
    if ck < 0 or cj < 0 or ck + cj == 0:
        raise ValueError("additive kernel needs nonnegative, not both zero, coefficients")

    return Kernel(
        family="additive",
        terms=(
            (lambda k: ck * k, compile_rational(1.0)),
            (compile_rational(cj), lambda j: j + 1.0),
        ),
        growth_constant=ck + cj,
        params={"donor_coeff": ck, "acceptor_coeff": cj},
    )


_FAMILIES = {
    "constant": constant_kernel,
    "condensing": condensing_kernel,
    "separable": separable_kernel,
    "additive": additive_kernel,
}


def kernel_from_spec(spec: Mapping[str, Any]) -> Kernel:
    """Build a kernel from a config mapping like ``{"family": "condensing", "c": 3.0}``.

    ``family`` picks the constructor in ``_FAMILIES``, whose parameters the
    other keys bind to (:func:`edgrow._config.bind`); a spec that breaks
    that rule raises :class:`RateExpressionError` naming the key.
    """
    try:
        constructor, params = bind_choice("kernel", spec, _FAMILIES, key="family")
    except ConfigError as exc:
        raise RateExpressionError(str(exc)) from None
    return constructor(**params)


def kernel_spec(kernel: Kernel) -> dict:
    """Round-trippable config mapping for a built-in kernel."""
    return {"family": kernel.family, **dict(kernel.params)}


def kernel_matrix(kernel: Kernel, n: int) -> np.ndarray:
    """Dense table ``M[i-1, j] = K(i, j)`` for ``i = 1..n``, ``j = 0..n-1``.

    The one grid builder: the audits, the rank >= 2 dissipation sum and the
    Onsager assembly index it, and tests use it as the oracle for the
    factored O(N) paths.  It is O(n^2) in time and memory and not cached.
    """
    sizes = np.arange(n, dtype=float)
    return kernel(sizes[:, None] + 1.0, sizes[None, :])


def bda_residual(kernel: Kernel, k: int, l: int) -> float:
    """Log-space defect of the curl-free identity at the pair ``(k, l)``.

    Zero exactly when ``K(k,l-1) K(1,k-1) K(l,0) = K(l,k-1) K(1,l-1) K(k,0)``.
    Computed as a sum of logs so that huge rates cannot overflow.
    Raises :class:`ZeroRateError` when any of the six factors vanishes: the
    identity is undefined off the support of the kernel.
    """
    if k < 1 or l < 1:
        raise KernelDomainError("the curl-free identity needs k, l >= 1")
    factors = [
        kernel(k, l - 1),
        kernel(1, k - 1),
        kernel(l, 0),
        kernel(l, k - 1),
        kernel(1, l - 1),
        kernel(k, 0),
    ]
    if any(f == 0.0 for f in factors):
        raise ZeroRateError(f"zero-rate: curl-free identity undefined at (k, l) = ({k}, {l})")
    logs = [math.log(f) for f in factors]
    return abs(logs[0] + logs[1] + logs[2] - logs[3] - logs[4] - logs[5])


@dataclass(frozen=True)
class AssumptionReport:
    """Finite-grid audit of the structural kernel conditions.

    All verdicts are sampled on ``probe_range`` and labeled as such; a flag
    being ``True`` means "no violation found on the grid", never a proof.
    ``k3_ratio_deviation`` estimates the continuity-at-infinity defect on the
    top decile of the grid, ``k4_ok`` tests sublinearity of the empirical
    donor envelopes, and ``bda_max_residual`` is the largest curl-free defect
    over pairs where the identity is defined (NaN when no pair is).
    """

    k1_ok: bool
    k2_ok: bool
    k3_ratio_deviation: float
    k4_ok: bool
    bda_max_residual: float
    probe_range: Tuple[int, int]
    growth_constant: float
    zero_rate_pairs: int

    def as_dict(self) -> dict:
        return {
            "k1_ok": self.k1_ok,
            "k2_ok": self.k2_ok,
            "k3_ratio_deviation": self.k3_ratio_deviation,
            "k4_ok": self.k4_ok,
            "bda_max_residual": self.bda_max_residual,
            "probe_range": list(self.probe_range),
            "growth_constant": self.growth_constant,
            "zero_rate_pairs": self.zero_rate_pairs,
            "verdict_basis": "sampled",
        }


def _sampled_sublinear(seq: np.ndarray) -> bool:
    """Grid verdict for ``s_k / k -> 0``: the normalized value at the top of the
    range must have dropped to at most 3/4 of its mid-range value (or be tiny)."""
    n = len(seq)
    if n < 4:
        return True
    hi = n - 1
    mid = n // 2
    top = seq[hi] / (hi + 1)
    middle = seq[mid] / (mid + 1)
    if top <= 1e-12:
        return True
    return bool(top <= 0.75 * middle)


def audit_assumptions(kernel: Kernel, k_max: int, l_max: int) -> AssumptionReport:
    """Evaluate every structural condition on the full ``k_max x l_max`` grid."""
    if k_max < 2 or l_max < 2:
        raise ValueError("probe grid must be at least 2 x 2")
    n_k, n_l = int(k_max), int(l_max)
    ks = np.arange(1, n_k + 1, dtype=float)
    js = np.arange(0, n_l, dtype=float)  # acceptor sizes j = l - 1
    square = kernel_matrix(kernel, max(n_k, n_l))
    table = square[:n_k, :n_l]
    c_k = kernel.growth_constant

    # Linear growth: 0 <= K(k, l-1) <= C k l on the whole grid.
    bound = c_k * ks[:, None] * (js[None, :] + 1.0)
    k1_ok = bool(np.all(table >= 0.0) and np.all(table <= bound * (1 + 1e-12)))

    # Discrete regularity: increments in either argument grow at most linearly.
    d_acceptor = np.abs(np.diff(table, axis=1))  # |K(k, j) - K(k, j-1)|, j >= 1
    d_donor = np.abs(np.diff(table, axis=0))  # |K(k+1, j) - K(k, j)|
    k2_ok = bool(
        np.all(d_acceptor <= c_k * ks[:, None] * (1 + 1e-12))
        and np.all(d_donor <= c_k * (js[None, :] + 1.0) * (1 + 1e-12))
    )

    # Continuity at infinity: consecutive-argument ratios approach 1; sampled on
    # the top decile of the grid because only the tail carries the limit.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_acceptor = table[:, 1:] / table[:, :-1]
        ratio_donor = table[1:, :] / table[:-1, :]
    top_j = max(1, int(0.9 * (n_l - 1)))
    top_k = max(1, int(0.9 * (n_k - 1)))
    dev = 0.0
    band_a = ratio_acceptor[:, top_j:]
    band_d = ratio_donor[top_k:, :]
    for band in (band_a, band_d):
        finite = band[np.isfinite(band)]
        if finite.size:
            dev = max(dev, float(np.max(np.abs(finite - 1.0))))

    # Sublinear envelopes: the tightest donor profiles allowed by the two-sided
    # bounds, b_k = max_j K(k, j)/(j+1) and d_k = max_j K(k, j)/K(1, j).
    with np.errstate(divide="ignore", invalid="ignore"):
        b_profile = np.max(table / (js[None, :] + 1.0), axis=1)
        first_row = table[0, :]
        valid = first_row > 0
        if np.any(valid):
            d_profile = np.max(table[:, valid] / first_row[valid][None, :], axis=1)
        else:
            d_profile = b_profile
    k4_ok = _sampled_sublinear(b_profile) and _sampled_sublinear(d_profile)

    n_pairs = min(n_k, n_l)
    bda_max, zero_pairs = _bda_grid(square[:n_pairs, :n_pairs])

    return AssumptionReport(
        k1_ok=k1_ok,
        k2_ok=k2_ok,
        k3_ratio_deviation=dev,
        k4_ok=k4_ok,
        bda_max_residual=bda_max,
        probe_range=(n_k, n_l),
        growth_constant=c_k,
        zero_rate_pairs=zero_pairs,
    )


def _bda_grid(table: np.ndarray) -> Tuple[float, int]:
    """Max curl-free defect over the n x n pair grid, counting undefined pairs.

    ``table`` is :func:`kernel_matrix` at ``n``; entry ``(k-1, l-1)`` of each
    factor below is the factor at the pair ``(k, l)``.
    """
    first_row = table[0, :]  # K(1, m - 1)
    first_col = table[:, 0]  # K(m, 0)
    terms = np.broadcast_arrays(
        table,  # K(k, l-1)
        first_row[:, None],  # K(1, k-1)
        first_col[None, :],  # K(l, 0)
        table.T,  # K(l, k-1)
        first_row[None, :],  # K(1, l-1)
        first_col[:, None],  # K(k, 0)
    )
    stacked = np.stack(terms)
    defined = np.all(stacked > 0.0, axis=0)
    zero_pairs = int(stacked.shape[1] * stacked.shape[2] - np.count_nonzero(defined))
    if not np.any(defined):
        return math.nan, zero_pairs
    with np.errstate(divide="ignore"):
        logs = np.log(stacked)
    residual = np.abs(logs[0] + logs[1] + logs[2] - logs[3] - logs[4] - logs[5])
    return float(np.max(residual[defined])), zero_pairs
