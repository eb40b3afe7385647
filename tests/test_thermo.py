import math

import numpy as np
import pytest

from edgrow import thermo
from edgrow.dynamics import (
    ConcentrationProfile,
    IntegratorConfig,
    geometric_state,
    integrate,
    monodisperse_state,
    rhs,
    state_from_profile,
    vacuum_state,
)
from edgrow.equilibrium import chemical_potential, equilibrium_profile
from edgrow.kernels import additive_kernel, condensing_kernel, constant_kernel
from edgrow.thermo import (
    BoundaryStateError,
    assemble_onsager,
    dissipation,
    free_energy,
    gradient_flow_residual,
    relative_entropy,
    thermo_series,
)


@pytest.fixture(scope="module")
def const():
    return constant_kernel()


@pytest.fixture(scope="module")
def cp_const(const):
    return chemical_potential(const, 3000)


def test_free_energy_examples(const, cp_const):
    assert free_energy(vacuum_state(16), cp_const) == 0.0
    assert free_energy(monodisperse_state(1.0, 1, n_trunc=16), cp_const) == 0.0
    profile = equilibrium_profile(cp_const, phi=0.5, k_max=400)
    state = state_from_profile(profile, 400)
    assert free_energy(state, cp_const) == pytest.approx(-2.0 * math.log(2.0), abs=1e-12)


def test_relative_entropy_examples(cp_const):
    profile = equilibrium_profile(cp_const, phi=0.5, k_max=400)
    state = state_from_profile(profile, 400)
    assert relative_entropy(state, profile) == pytest.approx(0.0, abs=1e-12)
    d1 = monodisperse_state(1.0, 1, n_trunc=400)
    assert relative_entropy(d1, profile) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_relative_entropy_identity(cp_const):
    # H[c | w] = F[c] + log Z - rho log phi when c and w share the density
    profile = equilibrium_profile(cp_const, phi=0.5, k_max=300)
    rng = np.random.default_rng(1)
    c = rng.random(301)
    c /= c.sum()
    c *= 1.0  # unit count
    state = ConcentrationProfile(c)
    lhs = relative_entropy(state, profile)
    identity = (
        free_energy(state, cp_const)
        + math.log(profile.z_value)
        - state.first_moment * math.log(profile.phi)
    )
    assert lhs == pytest.approx(identity, abs=1e-10)
    assert lhs > 0.0


def test_relative_entropy_positive_off_equilibrium(cp_const):
    profile = equilibrium_profile(cp_const, phi=0.5, k_max=100)
    perturbed = profile.omega.copy()
    perturbed[0] += 0.01
    perturbed[1] -= 0.01
    assert relative_entropy(ConcentrationProfile(perturbed), profile) > 0.0


def test_dissipation_examples(const, cp_const):
    # term check psi(2, 1) = log 2 via a crafted two-size state is implicit in
    # the closed form; here the conventions at the boundary:
    result = dissipation(const, monodisperse_state(1.0, 1, n_trunc=16))
    assert math.isinf(result.value)
    assert result.infinite_terms >= 1
    profile = equilibrium_profile(cp_const, phi=0.5, k_max=256)
    at_eq = dissipation(const, state_from_profile(profile, 256))
    assert at_eq.infinite_terms == 0
    assert at_eq.value <= 1e-9


def test_dissipation_finite_when_flux_products_underflow(const):
    # Strictly positive state whose tail products c_k c_l underflow to 0.0:
    # every flux is positive by support, so no term is infinite.
    traj = integrate(
        const, monodisperse_state(1.0, 1, n_trunc=256), IntegratorConfig(t_end=20.0, record_every=20.0)
    )
    c = traj.final_state.c
    assert np.all(c > 0.0)
    assert np.min(np.outer(c, c)) == 0.0
    result = dissipation(const, traj.final_state)
    assert result.infinite_terms == 0
    assert result.value == pytest.approx(6.0315e-6, rel=1e-4)


def test_dissipation_counts_infinities_past_underflow(const):
    # c_l = 0.05**l underflows to exact zeros after the last positive size m;
    # the pairs (k, m+1) and (m+1, k), k = 1..m, pair a positive flux with a
    # zero one.
    state = geometric_state(0.05, 256)
    m = int(np.nonzero(state.c)[0][-1])
    assert m < 256
    result = dissipation(const, state)
    assert result.infinite_terms == 2 * m
    assert math.isinf(result.value)


def test_dissipation_positive_off_equilibrium(const):
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = rng.random(33) + 1e-6
        c /= c.sum()
        result = dissipation(const, ConcentrationProfile(c))
        assert result.infinite_terms == 0
        assert result.value > 0.0


def test_dissipation_matches_psi_sum_bruteforce(const):
    # independent O(N^2) scalar-loop oracle
    rng = np.random.default_rng(7)
    c = rng.random(13) + 0.01
    c /= c.sum()
    state = ConcentrationProfile(c)
    total = 0.0
    for k in range(1, 13):
        for l in range(1, 13):
            x = const(k, l - 1) * c[k] * c[l - 1]
            y = const(l, k - 1) * c[l] * c[k - 1]
            total += 0.5 * (x - y) * (math.log(x) - math.log(y)) if x != y else 0.0
    assert dissipation(const, state).value == pytest.approx(total, rel=1e-12)


def test_onsager_trivial_single_reaction(const):
    cp = chemical_potential(const, 1)
    op = assemble_onsager(const, ConcentrationProfile(np.array([0.5, 0.5])), cp)
    assert np.all(op.matrix == 0.0)


def test_onsager_symmetric_psd(const, cp_const):
    state = ConcentrationProfile(np.full(41, 1.0 / 41.0))
    op = assemble_onsager(const, state, cp_const)
    assert np.max(np.abs(op.matrix - op.matrix.T)) == 0.0
    eigenvalues = np.linalg.eigvalsh(op.matrix)
    assert eigenvalues[0] >= -1e-10
    assert np.max(np.abs(op.matrix.sum(axis=1))) <= 1e-12


def test_onsager_weight_symmetry():
    # kappa(k, l-1) = kappa(l, k-1): the log defect built from exact rate
    # increments is the curl-free residual, which vanishes for these kernels.
    kernel = condensing_kernel(3.0)
    for k in range(1, 40):
        for l in range(1, 40):
            lhs = math.log(kernel(k, l - 1)) + math.log(kernel(1, k - 1)) - math.log(
                kernel(k, 0)
            )
            rhs_ = math.log(kernel(l, k - 1)) + math.log(kernel(1, l - 1)) - math.log(
                kernel(l, 0)
            )
            assert abs(lhs - rhs_) <= 1e-14


def test_onsager_boundary_state(const, cp_const):
    with pytest.raises(BoundaryStateError):
        assemble_onsager(const, vacuum_state(8), cp_const)


def test_onsager_annihilates_equilibrium_differential():
    kernel = condensing_kernel(3.0)
    cp = chemical_potential(kernel, 600)
    profile = equilibrium_profile(cp, rho=0.5, k_max=128)
    state = state_from_profile(profile, 128)
    op = assemble_onsager(kernel, state, cp)
    differential = np.log(state.c) - cp.log_q_prefix(129)
    assert np.max(np.abs(op.matrix @ differential)) <= 1e-10


def test_gradient_flow_identity_single_reaction(const):
    # N = 1: the only reaction pairs a size against itself, both sides vanish
    cp = chemical_potential(const, 1)
    state = ConcentrationProfile(np.array([0.3, 0.7]))
    assert gradient_flow_residual(const, state, cp) == 0.0


def test_gradient_flow_identity_random_states():
    rng = np.random.default_rng(42)
    kernels_and_cps = [
        (constant_kernel(), chemical_potential(constant_kernel(), 50)),
        (condensing_kernel(3.0), chemical_potential(condensing_kernel(3.0), 50)),
    ]
    for kernel, cp in kernels_and_cps:
        for _ in range(25):
            c = rng.random(51) + 1e-3
            c /= c.sum()
            assert gradient_flow_residual(kernel, ConcentrationProfile(c), cp) <= 1e-10


def test_gradient_flow_identity_at_equilibrium():
    kernel = condensing_kernel(3.0)
    cp = chemical_potential(kernel, 300)
    profile = equilibrium_profile(cp, rho=0.5, k_max=64)
    state = state_from_profile(profile, 64)
    assert gradient_flow_residual(kernel, state, cp) <= 1e-10
    assert np.max(np.abs(rhs(kernel, state))) <= 1e-9


def test_free_energy_dissipation_relation(const, cp_const):
    # |dF/dt + D| small at interior sample midpoints of a relaxing run
    state0 = state_from_profile(equilibrium_profile(cp_const, phi=0.3, k_max=96), 96)
    bumped = state0.c.copy()
    bumped[0] += 0.05
    bumped[1] -= 0.05
    traj = integrate(
        const,
        ConcentrationProfile(bumped),
        IntegratorConfig(t_end=4.0, record_every=0.02),
    )
    F = thermo_series(traj.states, cp=cp_const).free_energy
    assert np.max(np.diff(F)) <= 1e-10  # nonincreasing
    checked = 0
    for i in range(traj.sample_count - 1):
        mid = ConcentrationProfile(0.5 * (traj.states[i] + traj.states[i + 1]))
        d_mid = dissipation(const, mid)
        if not math.isfinite(d_mid.value):
            continue
        dfdt = (F[i + 1] - F[i]) / (traj.times[i + 1] - traj.times[i])
        assert abs(dfdt + d_mid.value) <= max(1e-6, 1e-3 * d_mid.value)
        checked += 1
    assert checked > 100


def test_series_builds_one_dense_table_per_call(monkeypatch):
    # A rank-2 kernel takes the dense pair sum for every row; the table, its
    # support and log K - log K.T come from one kernel_matrix call.
    kernel = additive_kernel(1.0, 2.0)
    traj = integrate(kernel, monodisperse_state(1.0, 1, n_trunc=24), IntegratorConfig(t_end=2.0, record_every=0.01))
    assert traj.sample_count >= 100
    expected = [dissipation(kernel, ConcentrationProfile(row)) for row in traj.states]
    built = []
    build = thermo.kernel_matrix

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(thermo, "kernel_matrix", counting)
    series = thermo_series(traj.states, kernel=kernel)
    assert len(built) == 1
    assert np.array_equal(series.dissipation, [d.value for d in expected])
    assert np.array_equal(series.finite_part, [d.finite_part for d in expected])
    assert series.infinite_terms.tolist() == [d.infinite_terms for d in expected]
