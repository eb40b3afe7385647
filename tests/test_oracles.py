"""Properties pairing the fast paths with dense oracles.

Birth/death rates are checked against the dense rate table, dissipation
against a scalar loop over all reaction pairs that reads positivity of a
flux from the support of the kernel and the state, the block passes over
sample matrices (free energy, dissipation, the classifier's distance
series) against the per-sample formulas bit for bit, every equilibrium
quantity from the cut series against sums over the full range, the
blocked chemical-potential build against one cumulative sum, the bulk
CSV writers against per-cell formatting, simulate's streamed files and
series, whatever the block size, against the one-shot writers and passes on
a held matrix, and the in-place RK stepper and
right-hand side against an allocate-everything Fehlberg step, a lockstep
batch against integrating each of its states alone, and the blocked
tridiagonal + Woodbury solve, alone and inside a RODAS4 attempt, against
dense solves with the Jacobian formed from the rate table.
"""

import math
import re
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from edgrow import _csv, equilibrium
from edgrow._rodas4 import ShiftedJacobian
from edgrow.cli import _stream, _write_summary_csv, _write_trajectory_csv
from edgrow.diagnostics import (
    ConvergenceReport,
    _distance_series,
    strong_norm_distance,
    tail_mass,
    weak_distance,
    write_convergence_series_csv,
)
from edgrow.dynamics import (
    _RK_A,
    _RK_B5,
    _RK_ERR,
    ConcentrationProfile,
    IntegratorConfig,
    IntegratorError,
    TrajectoryRecord,
    _Controller,
    _rhs_from_c,
    _RhsWork,
    _Row,
    _RowsWork,
    _Stepper,
    birth_death_rates,
    geometric_state,
    integrate,
    integrate_batch,
    monodisperse_state,
    rhs,
    step,
    strong_norm,
    vacuum_state,
)
from edgrow.equilibrium import (
    EquilibriumProfile,
    InconclusiveDensityError,
    chemical_potential,
    critical_density_info,
    density_at_fugacity,
    equilibrium_profile,
    partition_sum,
)
from edgrow.kernels import (
    ZeroRateError,
    _factor_vectors,
    additive_kernel,
    condensing_kernel,
    constant_kernel,
    kernel_matrix,
    separable_kernel,
)
from edgrow.thermo import BLOCK_ROWS, ThermoSeries, _thermo_pass, dissipation, free_energy, thermo_series

KERNELS = {
    "constant": constant_kernel(2.0),
    "condensing": condensing_kernel(3.0),
    "separable": separable_kernel("k^2/(k+1)", "1 + j"),
    "separable, K(1, j) = 0": separable_kernel("k - 1", "1"),
    "additive": additive_kernel(1.0, 2.0),
}


@st.composite
def states_with_zero_runs(draw, max_n: int) -> np.ndarray:
    """Concentrations ``c_0..c_N`` over eight decades, alternating positive
    runs with runs of exact zeros."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    zero_first = draw(st.booleans())
    c = rng.random(n + 1) * 10.0 ** rng.uniform(-8.0, 0.0, size=n + 1)
    runs = rng.integers(1, 12, size=n + 1)
    kept = np.repeat(np.arange(n + 1) % 2 == int(zero_first), runs)[: n + 1]
    return c * kept


@given(name=st.sampled_from(sorted(KERNELS)), c=states_with_zero_runs(300))
@settings(max_examples=150, deadline=None)
def test_factored_rates_match_dense_oracle(name, c):
    kernel = KERNELS[name]
    table = kernel_matrix(kernel, len(c) - 1)
    rates = birth_death_rates(kernel, ConcentrationProfile(c))
    for fast, dense in ((rates.a, table.T @ c[1:]), (rates.b, table @ c[:-1])):
        assert np.all(np.abs(fast - dense) <= 1e-12 * np.abs(dense))


def brute_force_dissipation(kernel, c) -> tuple:
    """``(infinite_terms, finite_part)`` by a loop over ordered pairs ``(k, l)``."""
    n = len(c) - 1
    infinite_terms = 0
    finite_part = 0.0
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            rate_f = kernel(k, l - 1)
            rate_b = kernel(l, k - 1)
            pos_f = rate_f > 0.0 and c[k] > 0.0 and c[l - 1] > 0.0
            pos_b = rate_b > 0.0 and c[l] > 0.0 and c[k - 1] > 0.0
            if pos_f != pos_b:
                infinite_terms += 1
            elif pos_f:
                x = rate_f * c[k] * c[l - 1]
                y = rate_b * c[l] * c[k - 1]
                log_x = math.log(rate_f) + math.log(c[k]) + math.log(c[l - 1])
                log_y = math.log(rate_b) + math.log(c[l]) + math.log(c[k - 1])
                finite_part += 0.5 * (x - y) * (log_x - log_y)
    return infinite_terms, finite_part


@given(name=st.sampled_from(sorted(KERNELS)), c=states_with_zero_runs(24))
@settings(max_examples=100, deadline=None)
def test_dissipation_matches_pair_loop(name, c):
    kernel = KERNELS[name]
    result = dissipation(kernel, ConcentrationProfile(c))
    infinite_terms, finite_part = brute_force_dissipation(kernel, c)
    assert result.infinite_terms == infinite_terms
    assert result.finite_part == pytest.approx(finite_part, rel=1e-9, abs=1e-14)
    assert math.isinf(result.value) == (infinite_terms > 0)


@st.composite
def sample_matrices(draw, max_n: int) -> np.ndarray:
    """``rows x (N+1)`` samples, up to three blocks and a part: rows positive
    everywhere over thirty decades (some ending in subnormals), rows with
    exact zeros, and rows with a single positive entry."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(st.integers(min_value=1, max_value=3 * BLOCK_ROWS + 7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    states = rng.random((rows, n + 1)) * 10.0 ** rng.uniform(-30.0, 0.0, size=(rows, n + 1))
    kind = rng.integers(0, 4, size=rows)
    states[kind == 1, -1] = 5e-324
    states[(kind == 2)[:, None] & (rng.random((rows, n + 1)) < 0.3)] = 0.0
    states[kind == 3, 1:] = 0.0
    return states


def reference_free_energy(c, log_q) -> float:
    """Free energy of one sample: ``sum c_k (log c_k - log_q_k)`` over ``c_k > 0``."""
    log_q = log_q[: len(c)]
    mask = c > 0.0
    return float(np.sum(c[mask] * (np.log(c[mask]) - log_q[mask])))


def reference_pair_sum(kernel, c) -> tuple:
    """``(infinite_terms, finite_part)`` of one sample: the centred covariance
    form over the common support for one-term kernels, the pair table else."""
    if len(kernel.terms) > 1:
        table = kernel_matrix(kernel, len(c) - 1)
        positive = c > 0.0
        pos_f = (table > 0.0) & positive[1:, None] & positive[None, :-1]
        infinite_terms = int(np.count_nonzero(pos_f ^ pos_f.T))
        both = pos_f & pos_f.T
        if not np.any(both):
            return infinite_terms, 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            log_table = np.log(table)
            log_ratio_state = np.diff(np.log(c))
            delta = log_table - log_table.T + log_ratio_state[:, None] - log_ratio_state[None, :]
            forward = table * np.outer(c[1:], c[:-1])
            contrib = (forward - forward.T) * delta
        return infinite_terms, 0.5 * float(np.sum(contrib[both]))
    ((b_vals, a_vals),) = _factor_vectors(kernel, len(c) - 1)
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
    u = np.log(b_s) + np.log(donor_s) - np.log(a_s) - np.log(acceptor_s)
    y_total = float(np.sum(y))
    r_bar = float(np.sum(x)) / y_total
    u_bar = float(np.dot(y, u)) / y_total
    return infinite_terms, y_total * float(np.dot(x - r_bar * y, u - u_bar))


SERIES_CP = chemical_potential(condensing_kernel(3.0), 64)


@given(
    name=st.sampled_from(sorted(KERNELS)),
    states=sample_matrices(40),
    band=st.integers(min_value=0, max_value=50),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_series_passes_match_per_sample_formulas(name, states, band, data):
    kernel = KERNELS[name]
    rows, size = states.shape
    full = np.all(states > 0.0, axis=1)
    if np.any(full) and not np.all(full):
        event("positive rows and rows with zeros")
    if rows % BLOCK_ROWS:
        event("row count not a multiple of the block size")

    series = thermo_series(states, kernel, SERIES_CP)
    pairs = [reference_pair_sum(kernel, c) for c in states]
    assert np.array_equal(
        series.free_energy, [reference_free_energy(c, SERIES_CP.log_q_prefix(SERIES_CP.k_max + 1)) for c in states]
    )
    assert np.array_equal(series.infinite_terms, [terms for terms, _ in pairs])
    assert np.array_equal(series.finite_part, [part for _, part in pairs])
    assert np.array_equal(
        series.dissipation, [math.inf if terms else part for terms, part in pairs]
    )
    last = ConcentrationProfile(states[-1])
    assert free_energy(last, SERIES_CP) == series.free_energy[-1]
    assert dissipation(kernel, last).finite_part == series.finite_part[-1]

    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    omega = rng.random(size) * 10.0 ** rng.uniform(-30.0, 0.0, size=size)
    tail_start = data.draw(st.integers(min_value=0, max_value=size - 1))
    expected = [
        (
            weak_distance(c, omega),
            strong_norm_distance(c, omega),
            float(np.sum(np.abs(c[: band + 1] - omega[: band + 1]))),
            tail_mass(c, tail_start),
        )
        for c in states
    ]
    for got, want in zip(_distance_series(states, omega, band, tail_start), zip(*expected)):
        assert np.array_equal(got, want)


@given(
    name=st.sampled_from(sorted(KERNELS)),
    states=sample_matrices(40),
    band=st.integers(min_value=0, max_value=50),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_streamed_outputs_do_not_depend_on_the_block_size(name, states, band, data, tmp_path_factory):
    # A held sample matrix goes through a row's recording and simulate's
    # stream in blocks of 1, 7, 16, 64 and all samples; the CSV bytes and the
    # series equal the one-shot writers' and passes' on the whole matrix.
    kernel = KERNELS[name]
    rows, size = states.shape
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    times = np.cumsum(rng.random(rows) * 10.0 ** rng.uniform(-3.0, 3.0))
    omega = rng.random(size) * 10.0 ** rng.uniform(-30.0, 0.0, size=size)
    tail_start = data.draw(st.integers(min_value=0, max_value=size - 1))
    lo, sizes = math.ceil(0.9 * (size - 1)), np.arange(size, dtype=float)
    zeros = np.zeros(rows)
    held = TrajectoryRecord(
        times, states, size - 1, np.sum(states, axis=1), np.vecdot(states, sizes),
        zeros, zeros, np.array([float(np.dot(sizes[lo:], c[lo:])) for c in states]),
    )
    series = thermo_series(states, kernel, SERIES_CP)
    distances = _distance_series(states, omega, band, tail_start)
    out = tmp_path_factory.mktemp("held")
    _write_trajectory_csv(held, out / "trajectory.csv")
    _write_summary_csv(held, out / "summary.csv", series)

    for block in (1, 7, 16, BLOCK_ROWS, rows):
        streamed = tmp_path_factory.mktemp(f"block{block}")
        passes = {
            "thermo": ("thermo", _thermo_pass(size, kernel, SERIES_CP)),
            "distances": ("classify", lambda part: _distance_series(part, omega, band, tail_start)),
        }
        phases = dict.fromkeys(("thermo", "write_csv", "classify"), 0.0)
        with _csv.atomic_writer(streamed / "trajectory.csv") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # boundary mass
            sink, results = _stream(fh, size - 1, phases, passes)
            controller = _Controller(dt_next=1.0, next_record=math.inf)
            row = _Row(controller, ConcentrationProfile(states[0]), times[0], sink=sink, rows=block)
            for t, c in zip(times[1:], states[1:]):
                row.t = t
                row.record(c)
            record = row.trajectory()
        assert record.states is None and record.sample_count == rows
        got = results()
        _write_summary_csv(record, streamed / "summary.csv", ThermoSeries(*got["thermo"]))
        for file in ("trajectory.csv", "summary.csv"):
            assert (streamed / file).read_bytes() == (out / file).read_bytes(), (block, file)
        for got_field, field in zip(got["thermo"] + got["distances"], series + distances):
            assert np.array_equal(got_field, field), block


def log_sum(values) -> float:
    """Log of a sum of exponentials, dropping terms below 1e-18 of the peak
    only after they have been evaluated."""
    m = float(np.max(values))
    if not math.isfinite(m):
        return -math.inf
    kept = values[values >= m + math.log(1e-18)]
    return m + math.log(float(np.sum(np.exp(kept - m))))


def full_range_terms(cp, phi) -> tuple:
    """Log terms of the series and of the size-weighted series at ``phi``
    for every size ``0..k_max``."""
    ls = np.arange(cp.k_max + 1, dtype=float)
    t = ls * math.log(phi) + cp.log_q_prefix(cp.k_max + 1)
    with np.errstate(divide="ignore"):
        return t, t + np.log(ls)


def full_range_density(cp, phi) -> float:
    t, t_num = full_range_terms(cp, phi)
    return math.exp(log_sum(t_num[1:]) - log_sum(t))


def full_range_partition_sum(cp, phi) -> tuple:
    """``(z, tail_bound, log_z)``; the geometric bound takes the larger of
    ``phi / phi_c`` and the first term ratio past ``k_max``."""
    t, _ = full_range_terms(cp, phi)
    log_z = log_sum(t)
    ratio = phi * cp.kernel(1, cp.k_max) / cp.kernel(cp.k_max + 1, 0)
    q = max(ratio, phi / cp.phi_c_estimate)
    tail = math.inf if q >= 1.0 - 1e-12 else math.exp(t[-1]) * q / (1.0 - q)
    return (math.exp(log_z) if log_z < 709.0 else math.inf), tail, log_z


def full_range_profile(cp, phi, k_prof) -> EquilibriumProfile:
    z, tail, log_z = full_range_partition_sum(cp, phi)
    t, _ = full_range_terms(cp, phi)
    omega = np.exp(t[: k_prof + 1] - log_z)
    mass_defect = max(0.0, 1.0 - float(np.sum(omega)))
    bound = mass_defect + (tail / math.exp(log_z) if math.isfinite(tail) else math.inf)
    return EquilibriumProfile(omega, phi, z, log_z, full_range_density(cp, phi), bound, k_prof)


# K(k, j) = (1 + b/k)(1 + g/(j + 1)) has phi_c = (1 + g) / (1 + b) and
# weights w_l = Q_l phi_c^l = Gamma(1 + b) Gamma(l + 1 + g) / (Gamma(1 + g)
# Gamma(l + 1 + b)), far exponent b - g.  Gauss's sum of 2F1(a, 1; 1 + b; 1)
# gives, for b - g > 2, sum w_l = b / (b - g - 1) and sum l w_l = (1 + g) b /
# ((b - g - 1)(b - g - 2)), so rho_c = (1 + g) / (b - g - 2).  The condensing
# kernel is g = 0.
RATIONAL_RATES = (r"1 \+ (.+)/k", r"1 \+ (.+)/\(j \+ 1\)")  # b(k) and a(j) of a separable one


def rational_kernel(b: float, g: float):
    """``K(k, j) = (1 + b/k)(1 + g/(j + 1))``, its rates written as
    ``RATIONAL_RATES`` reads them back."""
    return separable_kernel(f"1 + {b!r}/k", f"1 + {g!r}/(j + 1)")


def rational_parameters(cp):
    """``(b, g)`` of ``cp``'s kernel when it is one of the family above and
    ``phi_c`` its radius; ``None`` otherwise."""
    params = cp.kernel.params
    if cp.kernel.family == "condensing":
        b, g = params["c"], 0.0
    elif cp.kernel.family == "separable":
        matches = [re.fullmatch(rate, params[key]) for rate, key in zip(RATIONAL_RATES, ("b", "a"))]
        if not all(matches):
            return None
        b, g = (float(match[1]) for match in matches)
    else:
        return None
    return (b, g) if math.isclose(cp.phi_c_estimate, (1.0 + g) / (1.0 + b), rel_tol=1e-12) else None


def full_range_direct_tail(cp):
    """``(direct, defect, rho_N(phi_c))``: the density at ``phi_c`` and the
    part of it carried past ``k_max``, from the closed-form sums, which the
    full-range sums up to ``k_max`` leave as the tail; and the truncated
    density from the full-range sums.  ``None`` without closed-form sums,
    and, as in the program, where the far exponent does not lie above 2 by
    more than its error (the far fit's exponent and error are read from the
    program, and its exponent checked by :func:`assert_matches_full_walk`;
    every other kernel these tests draw has a far exponent of at most 0)."""
    far, bg = equilibrium._far_series(cp), rational_parameters(cp)
    if far is None or bg is None or not far.s - far.s_error > 2.0:
        return None
    b, g = bg
    z, n = b / (b - g - 1.0), (1.0 + g) * b / ((b - g - 1.0) * (b - g - 2.0))
    t, t_num = full_range_terms(cp, cp.phi_c_estimate)
    log_den, log_num = log_sum(t), log_sum(t_num[1:])
    return n / z, (n - math.exp(log_num)) / z, math.exp(log_num - log_den)


def full_range_critical_density(cp):
    """``(value, ladder, last_increment, method)`` of the critical density:
    the closed-form direct value where :func:`full_range_direct_tail` gives
    one at least the truncated density less 1e-9, else the walk of
    :func:`full_range_walk`; ``None`` when inconclusive."""
    phi_c = cp.phi_c_estimate
    if math.isinf(phi_c):
        return math.inf, (), math.nan, "infinite-radius"
    if phi_c <= 0.0:
        return 0.0, (), 0.0, "ladder"
    tail = full_range_direct_tail(cp)
    if tail is not None and tail[0] >= tail[2] - 1e-9:
        return tail[0], (), math.nan, "direct-tail"
    return full_range_walk(cp)


def full_range_walk(cp):
    """``(value, ladder, last_increment, method)`` of the dyadic ladder at
    a finite positive ``phi_c``, every sum taken over the full range;
    ``None`` when inconclusive."""
    phi_c = cp.phi_c_estimate
    ladder, log_phis, stable_steps = [], [], 0
    for j in range(1, 49):
        phi = phi_c * (1.0 - 0.5**j)
        log_phis.append(abs(math.log(phi)))
        ladder.append(full_range_density(cp, phi))
        if len(ladder) > 1:
            increment = abs(ladder[-1] - ladder[-2]) / max(abs(ladder[-1]), 1e-300)
            stable_steps = stable_steps + 1 if increment < 1e-8 else 0
        if stable_steps >= 2:
            break
    last_inc = abs(ladder[-1] - ladder[-2])
    _, t_num = full_range_terms(cp, phi)
    truncation_clean = t_num[-1] - log_sum(t_num[1:]) < math.log(1e-10)
    if stable_steps >= 2 and truncation_clean:
        return ladder[-1], tuple(ladder), last_inc, "ladder"
    # monotone up to a few ulps of the largest term magnitude
    slack = 4.0 * math.ulp(max(cp.k_max * max(log_phis) + float(np.max(np.abs(cp.log_q_prefix(cp.k_max + 1)))), 1.0))
    if not truncation_clean and all(b >= a * (1.0 - slack) for a, b in zip(ladder, ladder[1:])):
        return math.inf, tuple(ladder), last_inc, "ladder-ceiling"
    return None


def walk_summary(walk):
    """``(value, ladder_length, last_rung, last_increment, method)`` of a
    walk ``(value, ladder, last_increment, method)``; ``None`` stays."""
    if walk is None:
        return None
    value, ladder, last_inc, method = walk
    return value, len(ladder), ladder[-1] if ladder else math.nan, last_inc, method


def same(got, expected) -> bool:
    """Equality of two tuples (or ``None``) that counts NaN equal to NaN."""
    if got is None or expected is None:
        return got is expected
    return len(got) == len(expected) and all(
        a == b or (a != a and b != b) for a, b in zip(got, expected)
    )


# Past one block of a log-sum the far expansion carries the sums near phi_c,
# so the rungs of critical_density_info agree with the full-range walk to
# this relative bound instead of bit for bit: at most 8.8e-12 measured (c =
# 2.06 at k_max = 2 * 2^17 + 1, where the full-range log_q carries its own
# cumsum rounding); increments are measured against the last rung.
FAR_WALK_BOUND = 1e-10
# A direct-tail value is checked against the closed-form rho_c.  Its error
# follows the far exponent's, amplified by 1 / (s - 2), which grows as rho_c
# does, so the bound is DIRECT_TAIL_BOUND * rho_c * max(1, rho_c): at most
# 1.05e-10 of that measured over 5600 draws of the strategies below (8.9e-11
# at c = 4.02, k_max = 16, where the far fit starts at size 16).
DIRECT_TAIL_BOUND = 1e-9


def close(a, b, bound) -> bool:
    """Whether ``|a - b| <= bound``, counting equal values (also infinite
    ones) and NaN with NaN as close."""
    return a == b or abs(a - b) <= bound or (a != a and b != b)


def assert_matches_full_walk(cp):
    """:func:`critical_density_info` has the method of
    :func:`full_range_critical_density`, and its ladder the same length,
    last rung density and last increment, bit for bit while no sum has more
    than ``_SUM_BLOCK`` terms, else to ``FAR_WALK_BOUND``.  A direct-tail
    value agrees with the closed form to ``DIRECT_TAIL_BOUND``; any other
    value is held as the rungs are.  The far fit's exponent lies within its
    stated error of the closed form's ``b - g``."""
    bg, far = rational_parameters(cp), equilibrium._far_series(cp)
    if bg is not None and far is not None:
        assert abs(far.s - (bg[0] - bg[1])) <= far.s_error, (far.s, far.s_error, bg)
    got, expected = critical_or_none(cp), walk_summary(full_range_critical_density(cp))
    if got is None or expected is None:
        assert got is expected, (got, expected)
        return
    assert (got[1], got[4]) == (expected[1], expected[4]), (got, expected)
    relative = 0.0 if cp.k_max < equilibrium._SUM_BLOCK else FAR_WALK_BOUND
    rung_bound = relative * abs(expected[2])
    assert close(got[2], expected[2], rung_bound) and close(got[3], expected[3], rung_bound), (got, expected)
    want = expected[0]
    if got[4] == "direct-tail":
        assert close(got[0], want, DIRECT_TAIL_BOUND * want * max(1.0, want)), (got, expected)
    else:
        assert close(got[0], want, relative * abs(want)), (got, expected)


def critical_or_none(cp):
    """``(value, ladder_length, last_rung, last_increment, method)`` from
    :func:`critical_density_info`; ``None`` when it is inconclusive."""
    try:
        info = critical_density_info(cp)
    except InconclusiveDensityError:
        return None
    return info.value, info.ladder_length, info.last_rung, info.last_increment, info.method


SERIES_KERNELS = st.one_of(
    st.just(constant_kernel(1.0)),
    st.floats(min_value=0.5, max_value=5.0).map(condensing_kernel),
    st.just(separable_kernel("k", "j + 10")),  # phi_c = 10
    st.builds(rational_kernel, st.floats(min_value=0.0, max_value=6.0), st.floats(min_value=0.0, max_value=3.0)),
)
FUGACITY_RATIOS = st.one_of(
    st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
    st.integers(min_value=1, max_value=2**13).map(lambda k: 1.0 - k * 2.0**-53),
    st.just(1.0),
)


@given(
    kernel=SERIES_KERNELS,
    k_max=st.integers(min_value=16, max_value=5000),
    ratio=FUGACITY_RATIOS,
    k_prof=st.one_of(st.none(), st.integers(min_value=0, max_value=5000)),
)
@settings(max_examples=200, deadline=None)
def test_cut_density_series_matches_full_range(kernel, k_max, ratio, k_prof):
    cp = chemical_potential(kernel, k_max)
    assert math.isfinite(cp.phi_c_estimate)
    phi = ratio * cp.phi_c_estimate
    assert density_at_fugacity(cp, phi) == full_range_density(cp, phi)
    assert partition_sum(cp, phi) == full_range_partition_sum(cp, phi)[:2]

    profile = equilibrium_profile(cp, phi=phi, k_max=k_prof)
    expected = full_range_profile(cp, phi, k_max if k_prof is None else min(k_prof, k_max))
    assert np.array_equal(profile.omega, expected.omega)
    for name in ("phi", "z_value", "log_z", "density", "truncation_tail_bound", "k_max"):
        assert getattr(profile, name) == getattr(expected, name), name

    assert_matches_full_walk(cp)


# One chemical potential per way of obtaining rho_c.  The "ladder" rate
# 1 + 1e8/k^4 puts all but ~1e-8 of the mass at size 0 (phi_c ~ 1e-8); its
# terms at phi_c stop decaying past k ~ 100, so no algebraic tail fits, while
# the ladder settles long before the range ends.  A phi_c far above the true
# radius of the constant kernel piles the mass at k_max ("ulps"), where log
# terms of order 2e4 leave the saturated ladder dipping by one of their ulps.
CRITICAL_CASES = {
    "infinite-radius": (separable_kernel("k", "1"), 100, None),
    "direct-tail": (condensing_kernel(3.0), 2000, None),
    "ladder": (separable_kernel("1 + 1e8/k^4", "1"), 1000, None),
    "ladder, phi_c = 0": (separable_kernel("1/k", "1"), 100, None),
    "ladder-ceiling": (constant_kernel(1.0), 500, None),
    # the last size-weighted term is 1e-9.7 of the sum, 1e-11.7 without its
    # factor k_max: the truncation-clean test needs that factor to fail
    "ladder-ceiling, near the clean bound": (separable_kernel("1 + 1e4/k^4", "1"), 100, None),
    "ladder-ceiling, ulps": (constant_kernel(1.0), 1000, 874944811.7646654),
}


@pytest.mark.parametrize("case", sorted(CRITICAL_CASES))
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_critical_density_from_rounds_matches_serial_walk(case, degree):
    # ``degree`` chemical potentials of one kernel, each built afresh and
    # decided once: every one gives the full-range oracle's result.
    kernel, k_max, phi_c = CRITICAL_CASES[case]
    walks = []
    for _ in range(degree):
        cp = chemical_potential(kernel, k_max, phi_c)
        assert_matches_full_walk(cp)
        walks.append(critical_or_none(cp))
    assert all(same(a, b) for a, b in zip(walks, walks[1:]))
    assert walks[0][4] == case.partition(",")[0]


def counted_rungs(monkeypatch) -> list:
    """The list to which every later ``_ladder_rung`` call appends its ``j``."""
    rungs = []
    rung = equilibrium._ladder_rung

    def counting_rung(cp, j):
        rungs.append(j)
        return rung(cp, j)

    monkeypatch.setattr(equilibrium, "_ladder_rung", counting_rung)
    return rungs


@pytest.mark.parametrize("c, k_max", [(3.0, 2000), (3.0, 10**6), (2.5, 180), (2.5, 20000)])
def test_direct_tail_evaluates_no_rung(monkeypatch, c, k_max):
    # Condensing c = 3, the potential of every phase-diagram sweep at 10^6,
    # and c = 2.5 at small k_max, where the density still climbs steeply
    # toward phi_c: the far exponent settles rho_c, and the ladder is not
    # walked.
    rungs = counted_rungs(monkeypatch)
    info = critical_density_info(chemical_potential(condensing_kernel(c), k_max))
    assert (info.method, info.ladder_length) == ("direct-tail", 0)
    assert math.isnan(info.last_rung) and math.isnan(info.last_increment)
    assert rungs == []


def assert_walks_each_rung_once(monkeypatch, cp):
    """:func:`critical_density_info` on a fresh ``cp`` evaluates rungs
    ``1..ladder_length`` once each, in order, and none when asked again."""
    rungs = counted_rungs(monkeypatch)
    got = critical_or_none(cp)
    if got is not None:
        assert rungs == list(range(1, got[1] + 1)), (rungs, got)
    rungs.clear()
    assert same(critical_or_none(cp), got)
    assert rungs == []
    monkeypatch.undo()
    return got


@pytest.mark.parametrize("case", sorted(CRITICAL_CASES))
def test_critical_density_evaluates_each_walked_rung_once(monkeypatch, case):
    got = assert_walks_each_rung_once(monkeypatch, chemical_potential(*CRITICAL_CASES[case]))
    assert got[4] == case.partition(",")[0]
    assert (got[1] == 0) == (case in ("direct-tail", "infinite-radius", "ladder, phi_c = 0"))


@given(
    kernel=SERIES_KERNELS,
    k_max=st.integers(min_value=16, max_value=5000),
)
@settings(max_examples=100, deadline=None)
def test_series_kernels_walk_each_rung_once(kernel, k_max):
    # Hypothesis reruns the body: the rung counter is set up and undone on
    # each draw.
    with pytest.MonkeyPatch.context() as monkeypatch:
        got = assert_walks_each_rung_once(monkeypatch, chemical_potential(kernel, k_max))
    event("inconclusive" if got is None else f"{got[4]}, {'no rung' if got[1] == 0 else 'rungs'}")


# Direct tails: condensing c and far exponents b - g in [2.5, 5].
DIRECT_TAIL_POTENTIALS = st.builds(
    lambda kernel, log_k: chemical_potential(kernel, int(math.exp(log_k))),
    st.one_of(
        st.floats(min_value=2.5, max_value=5.0).map(condensing_kernel),
        st.builds(
            lambda s, g: rational_kernel(g + s, g),
            st.floats(min_value=2.5, max_value=5.0),
            st.floats(min_value=0.0, max_value=2.0),
        ),
    ),
    st.floats(min_value=math.log(16), max_value=math.log(2e5)),
)


@given(
    cp=st.one_of(
        DIRECT_TAIL_POTENTIALS,
        st.sampled_from(sorted(CRITICAL_CASES)).map(lambda case: chemical_potential(*CRITICAL_CASES[case])),
    )
)
@settings(max_examples=100, deadline=None)
def test_direct_tails_match_the_closed_form(cp):
    assert_matches_full_walk(cp)


def one_shot_log_q(kernel, k_max) -> np.ndarray:
    """``log_q`` from full-length increments and one cumulative sum."""
    ls = np.arange(1, k_max + 1, dtype=float)
    return np.concatenate(([0.0], np.cumsum(np.log(kernel(1.0, ls - 1.0)) - np.log(kernel(ls, 0.0)))))


BLOCK = equilibrium._BLOCK


@pytest.mark.parametrize("k_max", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 10**6])
@pytest.mark.parametrize(
    "kernel",
    [condensing_kernel(3.0), constant_kernel(2.0), separable_kernel("(k+2)^2/(k+1)", "1")],
    ids=["condensing", "constant", "separable"],
)
def test_blocked_chemical_potential_matches_one_shot_cumsum(kernel, k_max):
    got = chemical_potential(kernel, k_max).log_q_prefix(k_max + 1)
    assert got.tobytes() == one_shot_log_q(kernel, k_max).tobytes()


def test_blocked_chemical_potential_names_a_zero_rate_past_the_first_block():
    # K(l, 0) = (l - 100000)^2 vanishes at l = 100000 only, in the second block.
    kernel = separable_kernel("(k - 100000)^2", "1")
    assert BLOCK < 100000 <= 2 * BLOCK
    ls = np.arange(1, 150001, dtype=float)
    assert ls[np.argmax(kernel(ls, 0.0) <= 0.0)] == 100000.0
    with pytest.raises(ZeroRateError) as raised:
        chemical_potential(kernel, 150000)
    assert str(raised.value) == (
        "zero-rate: K(100000,0) = 0.0 vanishes; chemical potential undefined"
    )  # K(1,99999) = 99999^2 is positive, so it is not named


def summed_terms_oracle(cp, log_phi, n) -> tuple:
    """The first ``n`` terms and their log-sums as formed with one buffer per
    intermediate: ``l``, ``t_l`` and ``t_l + log l``."""
    ls = np.arange(n, dtype=float)
    t = ls * log_phi + cp.log_q_prefix(n)
    return t, log_sum(t), log_sum(t[1:] + np.log(ls[1:]))


@pytest.mark.parametrize("case", sorted(CRITICAL_CASES))
def test_summed_terms_match_one_buffer_per_intermediate(case):
    cp = chemical_potential(*CRITICAL_CASES[case])
    phi_c = cp.phi_c_estimate
    if 0.0 < phi_c < math.inf:
        phis = [phi_c] + [phi_c * (1.0 - 0.5**j) for j in range(1, 49)]
    else:  # no ladder: a few fugacities inside the radius
        phis = [0.05, 0.25] if math.isinf(phi_c) else [1e-3]
    for phi in phis:
        log_phi = math.log(phi)
        for n in {cp.k_max + 1, equilibrium._series_length(cp, log_phi)}:
            n_terms = n // 3  # the caller's leading terms, as a profile asks for them
            t, log_den, log_num = equilibrium._summed_terms(cp, log_phi, n, n_terms)
            t_ref, den_ref, num_ref = summed_terms_oracle(cp, log_phi, n)
            assert t.tobytes() == t_ref[:n_terms].tobytes()
            assert same((log_den, log_num), (den_ref, num_ref)), (phi, n)


def test_walk_runs_to_its_end_when_the_direct_value_is_below_the_truncated_density(monkeypatch):
    # A direct value below rho_N(phi_c) - 1e-9 lies below a density the
    # truncated series reaches, so it is not taken: the ladder decides, as
    # without a far expansion, and walks all its rungs.  At k_max = 2000 it
    # climbs to the truncation ceiling.
    direct_tail = equilibrium._direct_tail

    def below_truncated_density(cp):
        direct, defect, _ = direct_tail(cp)
        return direct, defect, direct + 2e-9

    monkeypatch.setattr(equilibrium, "_direct_tail", below_truncated_density)
    rungs = counted_rungs(monkeypatch)
    cp = chemical_potential(condensing_kernel(3.0), 2000)
    got, expected = critical_or_none(cp), walk_summary(full_range_walk(cp))
    assert same(got, expected) and got[4] == "ladder-ceiling"
    assert rungs == list(range(1, got[1] + 1))


EDGE_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.min, sys.float_info.max,
    -sys.float_info.max, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0,
)
CELLS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(min_value=0, max_value=2**64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
    ),
    st.floats(),
)


def cell(x) -> str:
    """One CSV cell as the per-cell writers formatted it."""
    return f"{x:.17g}"


@st.composite
def trajectories(draw) -> tuple:
    """Records with N in 1..64 and edge-case cells everywhere, each with an
    optional thermo series whose ``D = inf`` rows carry a positive count."""
    n = draw(st.integers(min_value=1, max_value=64))
    samples = draw(st.integers(min_value=1, max_value=6))

    def series():
        return draw(arrays(np.float64, samples, elements=CELLS))

    thermo = None
    if draw(st.booleans()):
        d = series()
        d[draw(arrays(np.bool_, samples))] = math.inf
        counts = draw(arrays(np.int64, samples, elements=st.integers(1, 2 * n * n)))
        thermo = ThermoSeries(series(), d, np.where(np.isinf(d), counts, 0), series())
    traj = TrajectoryRecord(
        times=series(),
        states=draw(arrays(np.float64, (samples, n + 1), elements=CELLS)),
        n_trunc=n,
        zeroth_moments=series(),
        first_moments=series(),
        clamp_mass0=series(),
        clamp_mass1=series(),
        boundary_mass=series(),
    )
    return traj, thermo


@given(drawn=trajectories())
@settings(max_examples=150, deadline=None)
def test_trajectory_and_summary_writers_match_per_cell_format(drawn, tmp_path_factory):
    traj, series = drawn
    out = tmp_path_factory.mktemp("writers")
    _write_trajectory_csv(traj, out / "trajectory.csv")
    _write_summary_csv(traj, out / "summary.csv", series)

    expected = ["t,k,c_k\n"]
    for i, t in enumerate(traj.times):
        for k in range(traj.n_trunc + 1):
            expected.append(f"{cell(t)},{k},{cell(traj.states[i][k])}\n")
    assert (out / "trajectory.csv").read_text() == "".join(expected)

    expected = ["t,M0,rho,boundary_mass,F,D,D_infinite_terms\n"]
    for i, t in enumerate(traj.times):
        if series is not None:
            thermo = [
                cell(series.free_energy[i]),
                cell(series.dissipation[i]),
                f"{int(series.infinite_terms[i])}",
            ]
        else:
            thermo = ["", "", ""]
        moments = [traj.zeroth_moments[i], traj.first_moments[i], traj.boundary_mass[i]]
        expected.append(",".join([cell(t)] + [cell(m) for m in moments] + thermo) + "\n")
    assert (out / "summary.csv").read_text() == "".join(expected)


def test_writers_match_per_cell_format_across_blocks(tmp_path):
    """Both files span at least three blocks of about ``_csv._BLOCK`` float
    cells, the last one partial: a block holds the samples of ``_BLOCK``
    trajectory cells (``t`` and ``N + 1`` states each) and the rows of
    ``_BLOCK`` summary cells (six float columns)."""
    rng = np.random.default_rng(12)
    n = 255
    rows = [-(-_csv._BLOCK // (n + 2)), -(-_csv._BLOCK // 6)]
    samples = 2 * max(rows) + 7
    assert all(samples > 2 * block and samples % block for block in rows)

    def series(size):
        values = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
        values[rng.random(size) < 0.5] = rng.random() * np.exp(rng.normal(0.0, 20.0))
        values[rng.integers(0, size, 8)] = rng.choice(EDGE_FLOATS, 8)
        return values

    d = series(samples)
    d[rng.random(samples) < 0.3] = math.inf
    counts = np.where(np.isinf(d), rng.integers(1, 2 * n * n, samples), 0)
    thermo = ThermoSeries(series(samples), d, counts, series(samples))
    traj = TrajectoryRecord(
        times=np.sort(rng.random(samples)) * 200.0,
        states=series(samples * (n + 1)).reshape(samples, n + 1),
        n_trunc=n,
        zeroth_moments=series(samples),
        first_moments=series(samples),
        clamp_mass0=series(samples),
        clamp_mass1=series(samples),
        boundary_mass=series(samples),
    )
    _write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    _write_summary_csv(traj, tmp_path / "summary.csv", thermo)

    expected = ["t,k,c_k\n"]
    for t, row in zip(traj.times.tolist(), traj.states.tolist()):
        expected += [f"{cell(t)},{k},{cell(c)}\n" for k, c in enumerate(row)]
    assert (tmp_path / "trajectory.csv").read_text() == "".join(expected)
    expected = ["t,M0,rho,boundary_mass,F,D,D_infinite_terms\n"]
    for i, t in enumerate(traj.times):
        floats = [t, traj.zeroth_moments[i], traj.first_moments[i], traj.boundary_mass[i]]
        floats += [thermo.free_energy[i], thermo.dissipation[i]]
        expected.append(",".join([cell(x) for x in floats] + [str(counts[i])]) + "\n")
    assert (tmp_path / "summary.csv").read_text() == "".join(expected)


@given(
    data=arrays(np.float64, st.tuples(st.integers(1, 40), st.just(5)), elements=CELLS),
    f_limit=CELLS,
)
@settings(max_examples=150, deadline=None)
def test_convergence_series_writer_matches_per_cell_format(data, f_limit, tmp_path_factory):
    times, weak, strong, excess, f_series = (np.ascontiguousarray(col) for col in data.T)
    report = ConvergenceReport(
        target_density=1.0,
        rho_c=math.inf,
        regime="subcritical",
        times=times,
        weak_distance_series=weak,
        strong_distance_series=strong,
        low_band_distance_series=weak,
        excess_mass_series=excess,
        free_energy_series=f_series,
        free_energy_limit=f_limit,
        free_energy_limit_gap=0.0,
        boundary_mass_series=excess,
        truncation_contaminated_from=None,
    )
    path = tmp_path_factory.mktemp("distances") / "distances.csv"
    with np.errstate(invalid="ignore", over="ignore"):
        write_convergence_series_csv(report, path)
        expected = ["t,weak_d,strong_d,excess_mass,F_gap\n"]
        for i, t in enumerate(times):
            gap = f_series[i] - f_limit
            expected.append(
                f"{cell(t)},{cell(weak[i])},{cell(strong[i])},{cell(excess[i])},{cell(gap)}\n"
            )
    assert path.read_text() == "".join(expected)


STEP_KERNELS = ("constant", "condensing", "additive")


def reference_rhs(kernel, c) -> np.ndarray:
    """``dc/dt`` from freshly allocated rates, fluxes and output."""
    donor, acceptor = c[1:], c[:-1]
    (b_vals, a_vals), *rest = _factor_vectors(kernel, len(c) - 1)
    a_rates = a_vals * float(np.dot(b_vals, donor))
    b_rates = b_vals * float(np.dot(a_vals, acceptor))
    for b_vals, a_vals in rest:
        a_rates += a_vals * float(np.dot(b_vals, donor))
        b_rates += b_vals * float(np.dot(a_vals, acceptor))
    flux = a_rates * c[:-1] - b_rates * c[1:]
    return np.concatenate(([-flux[0]], flux[:-1] - flux[1:], [flux[-1]]))


def reference_step(kernel, c, dt_suggest, cfg, err_prev_ratio=None, ceiling=math.inf) -> tuple:
    """One Fehlberg 4(5) step with new arrays for every stage, weighted sums
    by Python ``sum`` and the tolerance by :func:`strong_norm`.

    A positivity rejection scales ``dt`` by ``clip(0.9 (c_i + atol) /
    (c_i - c_new_i), 0.2, 0.9)`` at ``i = argmin c_new``, or halves it when
    that ratio is not a positive finite number.  ``ceiling`` is the
    positivity ceiling on ``dt_next``: a step that took a positivity retry
    resets it to its own ``dt`` and may not grow, any other multiplies it
    by 1.05.

    Returns ``(c_new, dt_used, dt_next, err, clamped_mass0, clamped_mass1,
    err / tol(c_new), ceiling)``; the err ratio is what the next step weighs
    its PI factor by.
    """
    tol = cfg.rtol * strong_norm(c) + cfg.atol
    dt = dt_suggest
    safety, fac_min, fac_max, relax = 0.9, 0.2, 5.0, 1.05
    f0 = reference_rhs(kernel, c)
    retried = False
    while True:
        if dt < 1e-14 * max(cfg.t_end, 1.0):
            raise IntegratorError(f"step underflow: dt={dt!r}")
        stages = [f0]
        for row in _RK_A[1:]:
            increment = np.zeros_like(c)
            for coeff, stage in zip(row, stages):
                increment += coeff * stage
            stages.append(reference_rhs(kernel, c + dt * increment))
        c_new = c + dt * sum(b * k for b, k in zip(_RK_B5, stages))
        err = float(np.max(np.abs(dt * sum(e * k for e, k in zip(_RK_ERR, stages)))))
        if not math.isfinite(err):
            dt *= 0.5
        elif err > tol:
            dt *= max(fac_min, min(1.0, safety * (tol / err) ** 0.2))
        elif float(np.min(c_new)) < -cfg.atol:
            retried = True
            i = int(np.argmin(c_new))
            ratio = safety * (c[i] + cfg.atol) / (c[i] - c_new[i])
            if np.isfinite(ratio) and ratio > 0.0:
                event("positivity retry sized")
                dt *= float(np.clip(ratio, fac_min, safety))
            else:
                event("positivity retry halved")
                dt *= 0.5
        else:
            break
    clamp = (c_new < 0.0) & (c_new >= -cfg.atol)
    clamped_mass0 = float(-np.sum(c_new[clamp]))
    clamped_mass1 = float(-np.dot(np.nonzero(clamp)[0].astype(float), c_new[clamp]))
    c_new[clamp] = 0.0
    err_ratio = err / tol
    if err_ratio <= 0.0:
        factor = fac_max
    elif err_prev_ratio is None or err_prev_ratio <= 0.0:
        factor = safety * err_ratio ** (-0.2)
    else:
        factor = safety * err_ratio ** (-0.14) * err_prev_ratio**0.08
    if retried:
        ceiling = dt
        factor = min(factor, 1.0)
    else:
        ceiling *= relax
    proposal = dt * max(fac_min, min(fac_max, factor))
    if ceiling < proposal:
        event("positivity ceiling caps dt_next")
    dt_next = min(proposal, ceiling)
    err_next = err / (cfg.rtol * strong_norm(c_new) + cfg.atol)
    return c_new, dt, dt_next, err, clamped_mass0, clamped_mass1, err_next, ceiling


@st.composite
def near_boundary_states(draw) -> np.ndarray:
    """``c_0..c_N`` over ten decades, with exact zeros (of both signs) and
    entries in ``[-1.2 atol, 0.5 atol]`` for ``atol = 1e-12``."""
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    c = rng.random(n + 1) * 10.0 ** rng.uniform(-10.0, 0.0, size=n + 1)
    kind = rng.integers(0, 4, size=n + 1)
    c[kind == 1] = 0.0
    c[kind == 2] = -0.0
    near = kind == 3
    c[near] = rng.uniform(-1.2e-12, 0.5e-12, size=int(np.count_nonzero(near)))
    return c


@given(
    name=st.sampled_from(STEP_KERNELS),
    c=near_boundary_states(),
    dt_log10=st.floats(min_value=-4.0, max_value=8.0),
    err_prev_ratio=st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0)),
    rtol=st.sampled_from([1e-8, 1e-4, 1e-2, 0.3]),
)
# A sized positivity retry, then a finite ceiling that caps the next steps.
@example(
    name="additive", c=np.array([0.5, 0.5, 0.0, 0.0, 0.0]), dt_log10=0.0,
    err_prev_ratio=None, rtol=1e-2,
)
# The overshooting component starts below -atol, so the retry halves.
@example(
    name="condensing", c=np.array([0.5, 0.5, -1.1e-12, 0.0, 0.0]), dt_log10=1.0,
    err_prev_ratio=None, rtol=0.3,
)
@settings(max_examples=200, deadline=None)
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def test_stepper_matches_allocating_fehlberg_step(name, c, dt_log10, err_prev_ratio, rtol):
    # Large rtol lets the error test pass while a component still overshoots
    # below -atol; steps up to 1e8 overflow, so every rejection cause and the
    # underflow error are reached.
    kernel = KERNELS[name]
    cfg = IntegratorConfig(t_end=1.0, rtol=rtol)
    dt = 10.0**dt_log10
    try:
        expected = reference_step(kernel, c.copy(), dt, cfg, err_prev_ratio)
    except IntegratorError:
        with pytest.raises(IntegratorError, match="underflow"):
            step(kernel, ConcentrationProfile(c.copy()), dt, cfg, err_prev_ratio)
        return
    c_new, dt_used, dt_next, err, clamped0, clamped1, err_next, ceiling = expected
    result = step(kernel, ConcentrationProfile(c.copy()), dt, cfg, err_prev_ratio)
    assert result.state.c.tobytes() == c_new.tobytes()  # bits, signed zeros too
    assert result.dt_used == dt_used
    assert result.dt_next == dt_next
    assert result.error_estimate == err
    assert result.clamped_mass0 == clamped0
    assert result.clamped_mass1 == clamped1

    # A running stepper carries err / tol(c_new), that tolerance and the
    # positivity ceiling on to its next step; chain more steps against the
    # reference.
    controller = _Controller(dt_next=dt, next_record=math.inf, err_prev_ratio=err_prev_ratio)
    stepper = _Stepper(kernel, c, cfg, [_Row(controller, ConcentrationProfile(c))])
    (row,) = stepper.rows
    step(kernel, stepper, [dt], cfg)
    assert row.dt_ceiling == ceiling
    for _ in range(3):
        if math.isfinite(ceiling):
            event("finite positivity ceiling carried")
        try:
            c_new, dt_used, dt_next, err, _, _, err_next, ceiling = reference_step(
                kernel, c_new, dt_next, cfg, err_next, ceiling
            )
        except IntegratorError:
            return
        step(kernel, stepper, [row.dt_next], cfg)
        assert stepper.c.tobytes() == c_new.tobytes()
        assert (row.dt_used, row.dt_next) == (dt_used, dt_next)
        assert (row.error_estimate, row.err_prev_ratio) == (err, err_next)
        assert row.dt_ceiling == ceiling


@given(name=st.sampled_from(sorted(KERNELS)), c=near_boundary_states(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_rhs_into_buffers_matches_allocating_call(name, c, data):
    # One work object serves every call, on inputs and outputs that
    # alternate between two buffers each, as the stepper's stages do.
    kernel = KERNELS[name]
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    work = _RhsWork(kernel, len(c) - 1)
    inputs = [np.empty_like(c), np.empty_like(c)]
    outputs = [np.full(len(c), np.nan), np.full(len(c), np.nan)]
    for i in range(4):
        state = c if i % 2 == 0 else rng.permutation(c)
        x, out = inputs[i % 2], outputs[i % 2]
        x[:] = state
        written = _rhs_from_c(kernel, x, out=out, work=work)
        assert written is out
        assert out.tobytes() == rhs(kernel, ConcentrationProfile(state.copy())).tobytes()
        assert out.tobytes() == reference_rhs(kernel, state).tobytes()


@given(
    n=st.integers(min_value=1, max_value=700),
    rows=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_vecdot_over_rows_matches_dot_per_row(n, rows, seed):
    # The batched stepper's premise: np.vecdot runs one BLAS ddot per row, so
    # a row's dot product has the bits np.dot gives it alone.  Rows are taken
    # as the stepper takes them, as views that skip one end of each row.
    rng = np.random.default_rng(seed)
    vector = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, size=n)
    states = rng.standard_normal((rows, n + 1)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(rows, n + 1))
    for block in (states[:, 1:], states[:, :-1]):
        per_row = np.array([np.dot(vector, row) for row in block])
        assert np.vecdot(vector, block).tobytes() == per_row.tobytes()


@given(
    name=st.sampled_from(sorted(KERNELS)),
    rows=st.integers(min_value=2, max_value=8),
    edges=st.tuples(*[st.sampled_from([math.inf, -math.inf, math.nan, -0.0])] * 2),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_batch_rhs_rows_are_isolated(name, rows, edges, data):
    # One pass runs over all rows of the batch, so each row's flux pass
    # also meets its neighbours' sizes 0 and N.  One row holds inf, NaN or
    # -0.0 there; every other row's dc/dt and rates have the bits its own
    # single-state right-hand side gives it.
    kernel = KERNELS[name]
    states = [data.draw(near_boundary_states())]
    n = len(states[0]) - 1
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    states += [rng.permutation(states[0]) * rng.uniform(0.5, 2.0) for _ in range(rows - 1)]
    odd = data.draw(st.integers(min_value=0, max_value=rows - 1))
    states[odd][0], states[odd][n] = edges
    padded = np.zeros((rows, n + 2))  # each row ends in its gap slot
    padded[:, :-1] = states
    work = _RowsWork(kernel, n, rows)
    out = np.full_like(padded, np.nan)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _rhs_from_c(kernel, padded, out=out, work=work) is out
        for i, state in enumerate(states):
            alone = _RhsWork(kernel, n)
            expected = _rhs_from_c(kernel, state.copy(), work=alone)
            if i == odd:
                np.testing.assert_array_equal(out[i, :-1], expected)  # NaN equal to NaN
                continue
            assert out[i, :-1].tobytes() == expected.tobytes()  # signed zeros too
            assert work.a_rates[i, :n].tobytes() == alone.a_rates.tobytes()
            assert work.b_rates[i, :n].tobytes() == alone.b_rates.tobytes()
    assert out[:, -1].tobytes() == np.zeros(rows).tobytes()  # every gap stays +0.0


BATCH_KERNELS = ("constant", "condensing", "additive", "separable")


@st.composite
def batch_states(draw) -> list:
    """One to eight states on a common random truncation: monodisperse
    mixtures, geometric profiles, and random profiles with exact zeros."""
    n = draw(st.integers(min_value=2, max_value=32))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    states = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            m = int(rng.integers(1, min(n, 4) + 1))
            states.append(monodisperse_state(float(rng.uniform(0.0, m)), m, n_trunc=n))
        elif kind == 1:
            states.append(geometric_state(float(rng.uniform(0.0, 0.9)), n))
        else:
            c = rng.random(n + 1) * (rng.random(n + 1) < 0.6)
            c[0] += 1e-3
            states.append(ConcentrationProfile(c / c.sum()))
    return states


def assert_batch_matches_integrate(kernel, states, cfg) -> list:
    """Integrate ``states`` as one batch and one at a time; every row must
    match bit for bit.  Returns the rows' stats (``None`` for a failed row)."""
    batch = integrate_batch(kernel, states, cfg)
    assert len(batch) == len(states)
    stats = []
    for state, row in zip(states, batch):
        try:
            alone = integrate(kernel, state, cfg)
        except IntegratorError as exc:
            assert type(row) is IntegratorError and str(row) == str(exc)
            stats.append(None)
            continue
        for name in (
            "times", "states", "zeroth_moments", "first_moments",
            "clamp_mass0", "clamp_mass1", "boundary_mass",
        ):
            assert getattr(row, name).tobytes() == getattr(alone, name).tobytes(), name
        assert row.n_trunc == alone.n_trunc
        assert row.boundary_contaminated_from == alone.boundary_contaminated_from
        assert row.stats == alone.stats
        stats.append(row.stats)
    return stats


@given(
    name=st.sampled_from(BATCH_KERNELS),
    states=batch_states(),
    t_end=st.floats(min_value=0.0, max_value=3.0),
    record_every=st.one_of(st.none(), st.floats(min_value=0.05, max_value=1.0)),
    rtol=st.sampled_from([1e-8, 1e-5, 1e-3]),
)
# A horizon below 1e-11 once underflowed the step in the batch and alone (a
# failed row, None), which the loop read as stats; it now steps to t_end.
@example(
    name="constant", states=[ConcentrationProfile(np.array([1.0, 0.0, 0.0]))],
    t_end=7.752286955672728e-12, record_every=None, rtol=1e-8,
)
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore:boundary mass")
def test_batch_matches_integrating_each_state_alone(name, states, t_end, record_every, rtol):
    cfg = IntegratorConfig(t_end=t_end, rtol=rtol, record_every=record_every)
    for stats in assert_batch_matches_integrate(KERNELS[name], states, cfg):
        if stats is None:  # the row failed, identically in the batch and alone
            continue
        if stats.rejected_positivity:
            event("row with positivity rejections")
        if stats.clamp_events:
            event("row with clamps")


@pytest.mark.filterwarnings("ignore:boundary mass")
def test_batch_rows_with_positivity_retries_and_failures_match_alone():
    # The stiff additive kernel from monodisperse m = 1 takes positivity
    # retries and clamps; a tolerance below every error makes all rows but
    # the vacuum underflow, and the vacuum row still finishes.
    kernel = KERNELS["additive"]
    states = [monodisperse_state(rho, 1, n_trunc=64) for rho in (0.5, 1.0, 0.25)] + [vacuum_state(64)]
    stats = assert_batch_matches_integrate(kernel, states, IntegratorConfig(t_end=5.0))
    assert any(s.rejected_positivity and s.clamp_events for s in stats)
    tiny = IntegratorConfig(t_end=1.0, rtol=1e-300, atol=1e-300)
    stats = assert_batch_matches_integrate(kernel, states, tiny)
    assert stats[:3] == [None] * 3 and stats[3].accepted > 0


def dense_shifted_jacobian(kernel, c, g) -> np.ndarray:
    """``I - g J`` for the Jacobian ``J`` of ``dc/dt`` at ``c``, formed from
    the dense rate table: each flux ``A_k c_k - B_{k+1} c_{k+1}``
    differentiated in the concentrations and, through ``A`` and ``B``, in
    the state the rates sum over."""
    n = len(c) - 1
    table = kernel_matrix(kernel, n)  # table[l - 1, k] = K(l, k)
    a_rates, b_rates = table.T @ c[1:], table @ c[:-1]
    flux = np.zeros((n, n + 1))
    for k in range(n):
        flux[k, k] += a_rates[k]
        flux[k, k + 1] -= b_rates[k]
        flux[k, 1:] += c[k] * table[:, k]
        flux[k, :-1] -= c[k + 1] * table[k, :]
    jacobian = np.zeros((n + 1, n + 1))
    jacobian[:-1] -= flux  # dc_k/dt = J_{k-1} - J_k
    jacobian[1:] += flux
    return np.eye(n + 1) - g * jacobian


class DenseShiftedJacobian:
    """:class:`ShiftedJacobian`'s interface on a dense matrix and
    ``np.linalg.solve``; it ignores the rates it is handed."""

    def __init__(self, kernel):
        self.kernel = kernel

    def factor(self, g, a_rates, b_rates, c):
        self.matrix = dense_shifted_jacobian(self.kernel, c, g)

    def solve(self, rhs, out):
        out[...] = np.linalg.solve(self.matrix, rhs)
        return out


@given(
    name=st.sampled_from(sorted(KERNELS)),
    c=states_with_zero_runs(60),
    g_log10=st.floats(min_value=-4.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_shifted_jacobian_solve_matches_dense_solve(name, c, g_log10, seed):
    # Rank-1 and rank-2 kernels, states with runs of zeros, g = gamma h over
    # 1e-4 .. 10, and truncations across several sweep blocks.  Both solves
    # are accurate to rounding times the condition number, so that is the
    # scale of their difference; the residual is compared unscaled.
    kernel, g, n = KERNELS[name], 10.0**g_log10, len(c) - 1
    shifted = ShiftedJacobian(_factor_vectors(kernel, n), n)
    shifted.factor(g, *_RhsWork(kernel, n).rates(c), c)
    matrix = dense_shifted_jacobian(kernel, c, g)
    rhs_vec = np.random.default_rng(seed).standard_normal(n + 1)
    solved = shifted.solve(rhs_vec, np.empty(n + 1))
    expected = np.linalg.solve(matrix, rhs_vec)
    condition = np.linalg.cond(matrix, 1)
    assert np.max(np.abs(solved - expected)) <= 1e-13 * condition * np.max(np.abs(expected))
    scale = np.max(np.abs(matrix).sum(axis=1)) * np.max(np.abs(solved)) + np.max(np.abs(rhs_vec))
    assert np.max(np.abs(matrix @ solved - rhs_vec)) <= 1e-13 * scale
    # Count and mass of the solution are those of the right-hand side.
    ls = np.arange(n + 1.0)
    assert abs(solved.sum() - rhs_vec.sum()) <= 1e-13 * scale * (n + 1)
    assert abs(ls @ solved - ls @ rhs_vec) <= 1e-13 * scale * (n + 1) ** 2


@pytest.mark.parametrize("g", [1e-3, 0.1, 10.0])
def test_shifted_jacobian_solve_matches_dense_solve_across_many_blocks(g):
    # N = 1023 spans 64 sweep blocks, so every value carried between blocks
    # passes through dozens of others.
    kernel, n = KERNELS["additive"], 1023
    rng = np.random.default_rng(7)
    c = rng.random(n + 1) * np.exp(-np.arange(n + 1) / 100.0)
    shifted = ShiftedJacobian(_factor_vectors(kernel, n), n)
    shifted.factor(g, *_RhsWork(kernel, n).rates(c), c)
    matrix = dense_shifted_jacobian(kernel, c, g)
    rhs_vec = rng.standard_normal(n + 1)
    expected = np.linalg.solve(matrix, rhs_vec)
    solved = shifted.solve(rhs_vec, np.empty(n + 1))
    condition = np.linalg.cond(matrix, 1)
    assert np.max(np.abs(solved - expected)) <= 1e-13 * condition * np.max(np.abs(expected))


def test_shifted_jacobian_buffers_grow_linearly_in_the_truncation():
    def held_bytes(shifted):
        bases, todo = {}, [vars(shifted)]
        while todo:
            item = todo.pop()
            if isinstance(item, dict):
                todo.extend(item.values())
            elif isinstance(item, (list, tuple)):
                todo.extend(item)
            elif isinstance(item, np.ndarray):
                while item.base is not None:
                    item = item.base
                bases[id(item)] = item.nbytes
            elif hasattr(item, "__dict__"):
                todo.append(vars(item))
        return sum(bases.values())

    kernel = KERNELS["additive"]
    small, large = (
        held_bytes(ShiftedJacobian(_factor_vectors(kernel, n), n)) for n in (1 << 10, 1 << 14)
    )
    assert large <= 17 * small  # 16 times the truncation, and a little slack


@given(
    name=st.sampled_from(sorted(KERNELS)),
    c=states_with_zero_runs(40),
    g_log10=st.floats(min_value=-4.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_rodas4_attempt_matches_attempt_with_dense_solves(name, c, g_log10):
    # One attempt over dt = g / gamma, with the blocked solves and with dense
    # ones, agrees to 1e-13 relative per unit of the condition number of
    # I - g J, in the strong norm of the state or of the largest stage.
    kernel, g = KERNELS[name], 10.0**g_log10
    dt = g / 0.25
    cfg = IntegratorConfig(t_end=1.0)
    attempts = []
    for dense in (False, True):
        row = _Row(_Controller(method="rodas4", dt_next=dt, next_record=math.inf), ConcentrationProfile(c))
        stepper = _Stepper(kernel, c, cfg, [row])
        if dense:
            stepper.rodas4.jacobian = DenseShiftedJacobian(kernel)
        err_vec = stepper._rodas4(dt).copy()
        scale = max(strong_norm(c), max(strong_norm(k) for k in stepper.stages), 1e-300)
        attempts.append((stepper.c_new.copy(), err_vec, scale))
    (fast, fast_err, _), (slow, slow_err, scale) = attempts
    bound = 1e-13 * np.linalg.cond(dense_shifted_jacobian(kernel, c, g), 1) * scale
    assert strong_norm(fast - slow) <= bound
    assert strong_norm(fast_err - slow_err) <= bound


def test_sums_at_a_phi_c_past_the_radius_stream_close_and_silent():
    # A phi_c past the radius is no radius the far expansion can fit, so the
    # sums there are formed block by block, each block's log-sum added to
    # the running one.  The series rises thousands of nats over the range;
    # that raises no warning, and each log-sum lies within 1e-15 relative
    # of the one-buffer sum (one ulp, 1.7e-16, measured).
    cp = chemical_potential(constant_kernel(1.0), 2 * equilibrium._SUM_BLOCK + 1, phi_c=1.01)
    assert equilibrium._prefix_end(cp) == cp.k_max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = equilibrium._phi_c_sums(cp)
    _, log_den, log_num = summed_terms_oracle(cp, math.log(1.01), cp.k_max + 1)
    expected = (log_den, log_num)
    assert all(abs(a - b) <= 1e-15 * abs(b) for a, b in zip(got, expected)), (got, expected)


@pytest.mark.parametrize(
    "kernel, phi_c, lengths, method",
    [
        # 1 + 1e5/k settles only past 1e5 sizes: phi_c converges, no far
        # expansion fits, and the ladder decides rho_c
        (separable_kernel("1 + 1e5/k", "1"), None, {1: 8, 28: 8, 48: 8}, ("ladder", 28)),
        # a phi_c just past the radius, which no far expansion fits either
        (condensing_kernel(3.0), 0.2500001, {1: 64, 5: 2048, 10: 32768, 12: 131072, 14: 2**18 + 1}, None),
    ],
    ids=["1 + 1e5/k", "given phi_c"],
)
def test_sums_without_a_far_expansion_are_cut_past_one_block(kernel, phi_c, lengths, method):
    # Past one block of terms and without a far expansion the suffix peaks
    # are read block by block, so the series at a rung is still cut where
    # no term can pass the cutoff (the same lengths as with the peaks over
    # one full-length array), and a cut sum is the full-range one.
    cp = chemical_potential(kernel, 2**18, phi_c)
    assert cp.phi_c_converged and equilibrium._far_series(cp) is None
    for j, n in lengths.items():
        log_phi = math.log(cp.phi_c_estimate * (1.0 - 0.5**j))
        assert equilibrium._series_length(cp, log_phi) == n, j
        if n <= equilibrium._SUM_BLOCK:
            _, log_den, log_num = summed_terms_oracle(cp, log_phi, cp.k_max + 1)
            assert equilibrium._summed_terms(cp, log_phi, n)[1:] == (log_den, log_num), j
    if method is not None:
        info = critical_density_info(cp)
        assert (info.method, info.ladder_length) == method


@pytest.mark.parametrize("k_max", [equilibrium._SUM_BLOCK, 2 * equilibrium._SUM_BLOCK + 1])
@pytest.mark.parametrize(
    "kernel",
    [condensing_kernel(c) for c in (2.06, 2.5, 3.0, 4.0)]
    + [constant_kernel(1.0), separable_kernel("1 + 1e8/k^4", "1"), rational_kernel(4.5, 1.0)],
    ids=["c=2.06", "c=2.5", "c=3", "c=4", "constant", "separable", "b=4.5, g=1"],
)
def test_critical_density_beyond_one_block_matches_full_range_sums(kernel, k_max):
    # Direct tails, a ladder-ceiling and a ladder, each with more terms than
    # one block of a log-sum holds: the far expansion carries the sums, so
    # the rungs agree with the full-range walk to FAR_WALK_BOUND = 1e-10
    # relative (8.8e-12 measured at worst), and a direct value with the
    # closed form to DIRECT_TAIL_BOUND.
    assert_matches_full_walk(chemical_potential(kernel, k_max))


FAR_KERNELS = st.one_of(
    st.floats(min_value=2.1, max_value=5.0).map(condensing_kernel),
    # phi_c = (1 + g) / (1 + b) and far exponent s = b - g, from -3 to 6
    st.builds(
        rational_kernel,
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=0.0, max_value=3.0),
    ),
)
# Past one block of terms the far expansion stands in for the sizes past the
# prefix; the one-buffer sums it is checked against carry the cumsum
# rounding of log_q itself, about 1e-8 nats at 10^6 sizes (1.1e-8 at worst
# over 160 random draws of these strategies, in a run kept out of the suite).
FAR_SUM_BOUND = 1e-7


@given(
    kernel=FAR_KERNELS,
    k_max=st.integers(min_value=2**17, max_value=2**20),
    ratio=st.one_of(
        st.floats(min_value=0.9, max_value=1.0),
        st.integers(min_value=10, max_value=45).map(lambda j: 1.0 - 2.0**-j),
        st.just(1.0),
    ),
)
@settings(max_examples=25, deadline=None)
def test_far_series_sums_match_one_buffer_sums(kernel, k_max, ratio):
    cp = chemical_potential(kernel, k_max)
    assert equilibrium._prefix_end(cp) == equilibrium._PREFIX
    log_phi = math.log(ratio * cp.phi_c_estimate)
    n = equilibrium._series_length(cp, log_phi)
    got = equilibrium._log_sums(cp, log_phi, n)
    _, log_den, log_num = summed_terms_oracle(cp, log_phi, cp.k_max + 1)
    expected = [log_den, log_num]
    if n <= equilibrium._SUM_BLOCK:  # term by term, cut where no term counts
        event("one block")
        assert got == expected
    else:
        event("far series")
    assert all(abs(a - b) <= FAR_SUM_BOUND for a, b in zip(got, expected)), (got, expected)
