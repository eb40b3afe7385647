import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from edgrow import equilibrium
from edgrow.equilibrium import (
    ChemicalPotential,
    DivergentSeriesError,
    InconclusiveDensityError,
    SupercriticalDensityError,
    chemical_potential,
    critical_density,
    critical_density_info,
    density_at_fugacity,
    equilibrium_free_energy,
    equilibrium_profile,
    estimate_critical_fugacity,
    fugacity_for_density,
    partition_sum,
    profile_summary,
    profile_to_csv,
)
from edgrow.kernels import (
    ZeroRateError,
    condensing_kernel,
    constant_kernel,
    separable_kernel,
)

# Closed forms for the condensing kernel 1 + 3/k:
#   Q_l = 4^l * 6 / ((l+1)(l+2)(l+3)),  phi_c = 1/4,
#   Z(phi_c) = 6 * sum 1/((l+1)(l+2)(l+3)) = 3/2   (telescoping),
#   rho(phi_c) = 6 * (1/2 - 1/4) / Z = 1           (telescoping).


@pytest.fixture(scope="module")
def cp_constant():
    return chemical_potential(constant_kernel(), 4000)


@pytest.fixture(scope="module")
def cp_condensing():
    return chemical_potential(condensing_kernel(3.0), 200_000)


def test_log_q_constant(cp_constant):
    assert np.allclose(cp_constant.log_q, 0.0)
    assert cp_constant.log_q[0] == 0.0


def test_log_q_condensing_q3(cp_condensing):
    # direct product (4/4) * (4/2.5) * (4/2)
    assert math.exp(cp_condensing.log_q[3]) == pytest.approx(3.2, rel=1e-12)


def test_log_q_factorial():
    cp = chemical_potential(separable_kernel("k", "1"), 100)
    assert math.exp(cp.log_q[4]) == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_log_q_increments(cp_condensing):
    kernel = condensing_kernel(3.0)
    for l in (1, 5, 40):
        expected = math.log(kernel(1, l - 1)) - math.log(kernel(l, 0))
        got = cp_condensing.log_q[l] - cp_condensing.log_q[l - 1]
        assert got == pytest.approx(expected, abs=1e-12)


def test_chemical_potential_needs_a_size_past_zero():
    # The series evaluator reads log_q[1]; a range without it is rejected.
    with pytest.raises(ValueError, match="k_max"):
        ChemicalPotential(np.zeros(1), 2.0, True, 0)


def test_zero_rate_names_offender():
    with pytest.raises(ZeroRateError, match="K(.*)0"):
        chemical_potential(separable_kernel("k - 1", "1"), 10)


@pytest.mark.parametrize(
    "b, a, message",
    [
        # at l = 1 both rates are K(1,0), named once, with its sign
        ("k - 40000", "1", "K(1,0) = -39999.0 is not positive"),
        ("k - 1", "1", "K(1,0) = 0.0 vanishes"),
        # one rate fails at l = 4 or 3; the positive K(1,3) = 14 or K(3,0) = 7 is not named
        ("(k - 5)^2 - 2", "1", "K(4,0) = -1.0 is not positive"),
        ("1", "(j - 3)^2 - 2", "K(1,2) = -1.0 is not positive"),
        # both fail at l = 3
        ("(k - 3)^2", "(j - 2)^2", "K(1,2) = 0.0 vanishes and K(3,0) = 0.0 vanishes"),
    ],
)
def test_zero_rate_names_only_the_failing_rates(b, a, message):
    with pytest.raises(ZeroRateError) as raised:
        chemical_potential(separable_kernel(b, a), 100)
    assert str(raised.value) == f"zero-rate: {message}; chemical potential undefined"


def test_phi_c_estimates():
    assert estimate_critical_fugacity(constant_kernel()).value == 1.0
    est = estimate_critical_fugacity(condensing_kernel(3.0))
    assert est.value == pytest.approx(0.25, abs=1e-12)
    assert est.converged
    assert math.isinf(estimate_critical_fugacity(separable_kernel("k", "1")).value)


def test_partition_sum_examples(cp_constant, cp_condensing):
    z, tail = partition_sum(cp_constant, 0.0)
    assert z == 1.0 and tail == 0.0
    z, tail = partition_sum(cp_constant, 0.5)
    assert z == pytest.approx(2.0, rel=1e-12)
    assert tail < 1e-300
    z, _ = partition_sum(cp_condensing, 0.25)
    assert z == pytest.approx(1.5, abs=1e-9)


def test_partition_sum_divergent(cp_condensing):
    with pytest.raises(DivergentSeriesError):
        partition_sum(cp_condensing, 0.3)


def test_density_examples(cp_constant, cp_condensing):
    assert density_at_fugacity(cp_constant, 0.0) == 0.0
    assert density_at_fugacity(cp_constant, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert density_at_fugacity(cp_condensing, 0.25) == pytest.approx(1.0, abs=1e-4)


def test_fugacity_solve_examples(cp_constant, cp_condensing):
    assert fugacity_for_density(cp_constant, 0.0) == 0.0
    assert fugacity_for_density(cp_constant, 1.0) == pytest.approx(0.5, abs=1e-10)
    assert fugacity_for_density(cp_condensing, 1.0) == pytest.approx(0.25, abs=1e-10)


def test_fugacity_solve_supercritical(cp_condensing):
    with pytest.raises(SupercriticalDensityError) as err:
        fugacity_for_density(cp_condensing, 2.0)
    assert err.value.rho_c == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, -0.5])
def test_fugacity_solve_rejects_a_density_that_is_not_finite_and_nonnegative(cp_condensing, rho):
    # A NaN passed ``rho < 0`` and reached the bisection, which stalled.
    with pytest.raises(ValueError, match="finite and nonnegative") as err:
        fugacity_for_density(cp_condensing, rho)
    assert type(err.value) is ValueError


def test_critical_density_values(cp_constant, cp_condensing):
    assert math.isinf(critical_density(cp_constant))
    cp_factorial = chemical_potential(separable_kernel("k", "1"), 2000)
    assert math.isinf(critical_density(cp_factorial))
    info = critical_density_info(cp_condensing)
    assert info.value == pytest.approx(1.0, abs=1e-6)
    assert info.method == "direct-tail"


def test_density_monotone_on_grid(cp_condensing):
    phis = np.linspace(0.01, 0.2499, 24)
    values = [density_at_fugacity(cp_condensing, p) for p in phis]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("rho", [0.01, 0.3, 0.7, 0.95, 1.0])
def test_round_trip_condensing(cp_condensing, rho):
    phi = fugacity_for_density(cp_condensing, rho)
    if rho < 1.0:
        assert density_at_fugacity(cp_condensing, phi) == pytest.approx(rho, abs=1e-9)
    else:
        assert phi == 0.25


@pytest.mark.parametrize("rho", [0.1, 1.0, 5.0, 10.0])
def test_round_trip_constant(cp_constant, rho):
    phi = fugacity_for_density(cp_constant, rho)
    assert density_at_fugacity(cp_constant, phi) == pytest.approx(rho, abs=1e-9)


def test_weight_root_approaches_inverse_radius(cp_condensing):
    k = 2000
    value = math.exp(cp_condensing.log_q[k] / k) * cp_condensing.phi_c_estimate
    assert abs(value - 1.0) <= 0.05


def test_profile_examples(cp_constant, cp_condensing):
    vac = equilibrium_profile(cp_constant, phi=0.0, k_max=8)
    assert vac.omega[0] == 1.0 and np.all(vac.omega[1:] == 0.0)

    geo = equilibrium_profile(cp_constant, phi=0.5, k_max=64)
    assert np.allclose(geo.omega, 0.5 ** (np.arange(65.0) + 1.0), rtol=1e-12)

    crit = equilibrium_profile(cp_condensing, phi=0.25, k_max=32)
    assert crit.omega[0] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_profile_normalization_and_tail(cp_constant):
    profile = equilibrium_profile(cp_constant, phi=0.5, k_max=40)
    total = float(np.sum(profile.omega))
    assert total <= 1.0 + 1e-12
    assert total >= 1.0 - profile.truncation_tail_bound - 1e-12


def test_profile_by_density(cp_constant):
    profile = equilibrium_profile(cp_constant, rho=1.0, k_max=32)
    assert profile.phi == pytest.approx(0.5, abs=1e-10)
    assert profile.density == pytest.approx(1.0, abs=1e-9)


def test_equilibrium_free_energy(cp_constant):
    profile = equilibrium_profile(cp_constant, phi=0.5, k_max=64)
    assert equilibrium_free_energy(profile) == pytest.approx(-2.0 * math.log(2.0), rel=1e-12)


def test_nonlinear_detailed_balance_at_equilibrium(cp_condensing):
    # A_{k-1}[w] w_{k-1} = B_k[w] w_k for the truncated profile, relative 1e-10.
    from edgrow.dynamics import birth_death_rates, net_fluxes, state_from_profile

    profile = equilibrium_profile(cp_condensing, rho=0.8, k_max=128)
    state = state_from_profile(profile, 128)
    rates = birth_death_rates(condensing_kernel(3.0), state)
    flux = net_fluxes(rates, state)
    scale = rates.a * state.c[:-1]
    for k in range(64):
        assert abs(flux[k]) <= 1e-10 * max(scale[k], 1e-300)


def test_serialization(tmp_path, cp_condensing):
    profile = equilibrium_profile(cp_condensing, rho=1.0, k_max=16)
    path = tmp_path / "profile.csv"
    profile_to_csv(profile, cp_condensing, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "l,omega_l,log_q_l"
    assert len(lines) == 18
    summary = profile_summary(profile, cp_condensing)
    assert summary["phi"] == pytest.approx(0.25)
    assert summary["rho_c"]["finite"] is True
    cp_inf = chemical_potential(constant_kernel(), 500)
    prof_inf = equilibrium_profile(cp_inf, phi=0.5, k_max=8)
    tagged = profile_summary(prof_inf, cp_inf)["rho_c"]
    assert tagged == {"finite": False, "value": None}


def test_chemical_potentials_are_freed_with_what_they_derived():
    # One potential with a direct tail (the scan at phi_c and its suffix
    # peaks, phi_c sums, a stopped ladder) and one without (a full ladder,
    # no sums at phi_c).
    built = [chemical_potential(kernel, 2000) for kernel in (condensing_kernel(3.0), constant_kernel())]
    refs = [weakref.ref(cp) for cp in built]
    assert [critical_density_info(cp).method for cp in built] == ["direct-tail", "ladder-ceiling"]
    for cp in built:
        for phi in (0.5 * cp.phi_c_estimate, cp.phi_c_estimate):
            partition_sum(cp, phi)
            density_at_fugacity(cp, phi)
            equilibrium_profile(cp, phi=phi)
        assert set(cp._memo) == {"phi_c_scan", "suffix_peaks", "phi_c_sums", "info"}
    del cp, built
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_critical_density_forms_no_unused_full_range_sum(monkeypatch):
    # A constant kernel has no direct tail at phi_c, so the decision needs no
    # sum at phi_c: the 32 full-range sums are the ladder rungs near phi_c.
    cp = chemical_potential(constant_kernel(1.0), 10**5)
    summed = equilibrium._summed_terms
    full_range = []

    def counting(cp_, log_phi, n, *args):
        if n == cp_.k_max + 1:
            full_range.append(log_phi)
        return summed(cp_, log_phi, n, *args)

    monkeypatch.setattr(equilibrium, "_summed_terms", counting)
    profile = equilibrium_profile(cp, phi=0.5 * cp.phi_c_estimate, k_max=64)
    assert profile_summary(profile, cp)["rho_c_method"] == "ladder-ceiling"
    assert len(full_range) == 32


def test_chemical_potential_and_rho_c_hold_few_full_length_arrays():
    # numpy reports its buffers to tracemalloc.  At k_max = 10^6 one array is
    # 7.6 MiB: the build keeps log_q and a few blocks (10.6 MiB measured;
    # 45.8 with full-length temporaries).  The scan at phi_c, rho_c and a
    # near-critical inversion add only windows of about 2^17 terms to log_q
    # (11.7 MiB measured; 22.9, 22.9 and 29.7 with full-length sums).
    kernel = condensing_kernel(3.0)
    chemical_potential(kernel, 1000)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        cp = chemical_potential(kernel, 10**6)
        peaks = [tracemalloc.get_traced_memory()[1]]
        for step in (equilibrium._suffix_peaks, critical_density_info, lambda cp: fugacity_for_density(cp, 0.999)):
            tracemalloc.reset_peak()
            step(cp)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 12 * 2**20
    assert max(peaks[1:]) <= 12 * 2**20


def test_critical_density_survives_sums_at_phi_c_that_overflow():
    # b = k has an infinite radius; at the stated phi_c the log sums there
    # exceed log(float max), so no direct tail is tried.
    info = critical_density_info(chemical_potential(separable_kernel("k", "1"), 3000, phi_c=760.77))
    assert info.method == "ladder"
    assert info.value == pytest.approx(760.77, rel=1e-6)


def test_inconclusive_critical_density_walks_the_ladder_once(monkeypatch):
    # The verdict is kept on the chemical potential like a value: asking
    # again raises it again without a second walk.
    rungs = []
    rung = equilibrium._ladder_rung

    def counting_rung(cp, j):
        rungs.append(j)
        return rung(cp, j)

    def inconclusive(*args):
        raise InconclusiveDensityError("inconclusive: test")

    monkeypatch.setattr(equilibrium, "_ladder_rung", counting_rung)
    monkeypatch.setattr(equilibrium, "_critical_density_decision", inconclusive)
    cp = chemical_potential(constant_kernel(), 2000)
    for _ in range(3):
        with pytest.raises(InconclusiveDensityError, match="inconclusive: test"):
            critical_density_info(cp)
    assert rungs == list(range(1, len(rungs) + 1)) and len(rungs) > 1
