import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edgrow.diagnostics as diagnostics
from edgrow.diagnostics import (
    AnalysisConfig,
    NotIntegrableError,
    RhoCUnavailableError,
    classify_longtime,
    strong_norm_distance,
    superlinear_weights,
    tail_mass,
    weak_distance,
    write_convergence_series_csv,
)
from edgrow.dynamics import (
    IntegratorConfig,
    TrajectoryRecord,
    geometric_state,
    integrate,
    monodisperse_state,
    state_from_values,
    vacuum_state,
)
from edgrow.equilibrium import InconclusiveDensityError, chemical_potential
from edgrow.kernels import condensing_kernel, constant_kernel
from edgrow.thermo import thermo_series


def test_tail_mass_examples():
    geo = geometric_state(0.5, 600)
    assert tail_mass(geo, 0) == pytest.approx(1.0, abs=1e-12)
    assert tail_mass(geo, 1) == pytest.approx(1.0, abs=1e-12)
    assert tail_mass(geo, 2) == pytest.approx(0.75, abs=1e-12)
    assert tail_mass(monodisperse_state(1.0, 1, n_trunc=8), 2) == 0.0


def test_tail_mass_nonincreasing():
    geo = geometric_state(0.6, 200)
    values = [tail_mass(geo, l) for l in range(0, 200, 10)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_distance_examples():
    assert weak_distance(vacuum_state(4), vacuum_state(4)) == 0.0
    assert weak_distance(vacuum_state(4), monodisperse_state(1.0, 1, n_trunc=4)) == 2.0
    assert strong_norm_distance(vacuum_state(4), monodisperse_state(1.0, 1, n_trunc=4)) == 3.0
    # pure swap of unit count between sizes 0 and m
    m = 7
    assert strong_norm_distance(vacuum_state(8), monodisperse_state(float(m), m, n_trunc=8)) == 2.0 + m


def test_distance_padding():
    assert weak_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])) == 0.0


def test_weak_distance_geometric_pair_oracle():
    # sum_l |2^-(l+1) - (3/4) 4^-l| = 1/4 + (1/2 - 1/4) = 1/2 exactly:
    # the l = 0 term is 1/4 and the first profile dominates for l >= 1.
    ls = np.arange(400.0)
    geo_half = 0.5 ** (ls + 1.0)
    geo_quarter = 0.75 * 0.25**ls
    assert weak_distance(geo_half, geo_quarter) == pytest.approx(0.5, abs=1e-14)


def test_weak_below_strong():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.random(20)
        b = rng.random(20)
        assert weak_distance(a, b) <= strong_norm_distance(a, b) + 1e-15


def test_weights_unit_cluster_trace():
    # hand-traced construction for the single-cluster start:
    # tails (2, 2, 0, ...), breakpoints 0, 3, 4, 5, ..., first slope 1/3
    w = superlinear_weights(monodisperse_state(1.0, 1, n_trunc=8), 12)
    assert w.g[0] == pytest.approx(1.0)
    assert w.g[1] == pytest.approx(5.0 / 3.0)
    assert w.g[2] == pytest.approx(3.0)
    assert w.g[3] == pytest.approx(5.0)
    assert w.ell[:4] == (0, 3, 4, 5)
    assert w.d_slopes[1] == pytest.approx(1.0 / 3.0)


def test_weights_growth_bound_and_superlinearity():
    w = superlinear_weights(geometric_state(0.5, 300), 10_001)
    ks = np.arange(len(w.g) - 1, dtype=float)
    assert np.all((ks + 1.0) * np.diff(w.g) <= 2.0 * w.g[:-1] * (1.0 + 1e-12))
    ratio = w.g / (np.arange(len(w.g), dtype=float) + 1.0)
    # the ramp dominates from the first breakpoint on; k=0 only loses the 1/(k+1) term
    assert np.all(np.diff(ratio[1:]) >= -1e-14)
    assert ratio[-1] >= 2.0 * ratio[10]


def test_weights_ramp_stays_below_steps():
    w = superlinear_weights(geometric_state(0.5, 300), 2000)
    # phi ramp must stay below the step function n+1 on [ell_n, ell_{n+1})
    for n in range(len(w.ell) - 1):
        lo, hi = w.ell[n], min(w.ell[n + 1], 2000)
        assert np.all(w.phi_steps[lo:hi] <= n + 1 + 1e-12)


def test_weights_finite_weighted_sum():
    state = geometric_state(0.5, 300)
    w = superlinear_weights(state, 400)
    partial = float(np.dot(w.g[:301], state.c))
    assert math.isfinite(partial)
    assert partial > 0.0


@given(
    data=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40),
    k_max=st.integers(min_value=4, max_value=200),
)
@settings(max_examples=50, deadline=None)
def test_weights_invariants_random_profiles(data, k_max):
    values = np.asarray(data)
    if values.sum() == 0.0:
        values[0] = 1.0
    values = values / values.sum()
    w = superlinear_weights(values, k_max)
    assert np.all(w.g > 0.0)
    diffs = np.diff(w.g)
    assert np.all(diffs >= 0.0)
    ks = np.arange(len(w.g) - 1, dtype=float)
    assert np.all((ks + 1.0) * diffs <= 2.0 * w.g[:-1] * (1.0 + 1e-12))


def test_weights_tail_sequence_input():
    tails = np.array([2.0, 1.0, 0.25, 0.0625, 0.0])
    w = superlinear_weights(tails, 50, is_tail_sequence=True)
    assert np.all(w.g > 0.0)


def test_weights_not_integrable():
    with pytest.raises(NotIntegrableError):
        superlinear_weights(np.full(30, 0.5), 100, is_tail_sequence=True)


@pytest.fixture(scope="module")
def subcritical_run():
    kernel = constant_kernel()
    cp = chemical_potential(kernel, 2000)
    traj = integrate(
        kernel, monodisperse_state(1.0, 1, n_trunc=128), IntegratorConfig(t_end=80.0, record_every=2.0)
    )
    return kernel, cp, traj


def test_classify_subcritical(subcritical_run):
    _, cp, traj = subcritical_run
    report = classify_longtime(traj, cp)
    assert report.regime == "subcritical"
    assert math.isinf(report.rho_c)
    assert report.strong_distance_series[-1] <= 1e-3
    # eventually monotone decreasing over the last half
    tail = report.strong_distance_series[len(report.times) // 2 :]
    assert np.all(np.diff(tail) <= 1e-12)
    assert abs(report.free_energy_limit - (-2.0 * math.log(2.0))) <= 1e-9


@pytest.mark.filterwarnings("ignore:boundary mass")
def test_classify_supercritical():
    kernel = condensing_kernel(3.0)
    cp = chemical_potential(kernel, 50_000)
    n = 96
    c = np.zeros(n + 1)
    c[2] = 0.5  # bulk density 1 at size 2
    c[90] = 1.0 / 90.0  # excess parked high
    c[0] = 1.0 - c[2] - c[90]
    traj = integrate(
        kernel, state_from_values(c, n), IntegratorConfig(t_end=30.0, record_every=1.0)
    )
    report = classify_longtime(traj, cp, AnalysisConfig(excess_band_start=32))
    assert report.regime == "supercritical"
    assert report.target_density == pytest.approx(2.0, abs=1e-12)
    assert report.excess_mass_series[-1] >= 0.7
    # count stays put while the band distance shrinks
    assert report.low_band_distance_series[-1] < report.low_band_distance_series[0]


def test_classify_critical_dead_band():
    kernel = condensing_kernel(3.0)
    cp = chemical_potential(kernel, 50_000)
    traj = integrate(
        kernel, monodisperse_state(1.0, 2, n_trunc=64), IntegratorConfig(t_end=5.0, record_every=0.5)
    )
    report = classify_longtime(traj, cp)
    assert report.regime == "critical"


def test_classify_takes_the_runs_free_energy(subcritical_run):
    _, cp, traj = subcritical_run
    f_series = thermo_series(traj.states, cp=cp).free_energy
    given = classify_longtime(traj, cp, free_energy_series=f_series)
    computed = classify_longtime(traj, cp)
    assert given.free_energy_series is f_series
    assert np.array_equal(computed.free_energy_series, f_series)
    assert given.as_dict() == computed.as_dict()


def test_series_passes_stay_within_block_memory():
    # 4000 samples at N = 256: one temporary of the whole matrix would be
    # 8 MB, while the passes work on blocks of rows.
    kernel = constant_kernel()
    cp = chemical_potential(kernel, 2000)
    rows, n = 4000, 256
    phi = np.random.default_rng(0).uniform(0.2, 0.8, size=(rows, 1))
    states = (1.0 - phi) * phi ** np.arange(n + 1, dtype=float)
    states[::7, 200:] = 0.0  # rows with zeros take the single-row formulas
    traj = TrajectoryRecord(
        times=np.arange(rows, dtype=float),
        states=states,
        n_trunc=n,
        zeroth_moments=np.sum(states, axis=1),
        first_moments=states @ np.arange(n + 1, dtype=float),
        clamp_mass0=np.zeros(rows),
        clamp_mass1=np.zeros(rows),
        boundary_mass=np.zeros(rows),
    )
    tracemalloc.start()
    try:
        series = thermo_series(states, kernel, cp)
        report = classify_longtime(traj, cp, free_energy_series=series.free_energy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.regime == "subcritical"
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_classify_needs_samples(subcritical_run):
    kernel, cp, _ = subcritical_run
    short = integrate(kernel, vacuum_state(16), IntegratorConfig(t_end=0.0))
    with pytest.raises(ValueError):
        classify_longtime(short, cp)


def test_classify_rho_c_unavailable(monkeypatch, subcritical_run):
    _, cp, traj = subcritical_run
    def boom(_):
        raise InconclusiveDensityError("inconclusive")
    monkeypatch.setattr(diagnostics, "critical_density", boom)
    with pytest.raises(RhoCUnavailableError, match="rho_c unavailable"):
        classify_longtime(traj, cp)


def test_series_csv(tmp_path, subcritical_run):
    _, cp, traj = subcritical_run
    report = classify_longtime(traj, cp)
    path = tmp_path / "series.csv"
    write_convergence_series_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,weak_d,strong_d,excess_mass,F_gap"
    assert len(lines) == len(report.times) + 1
