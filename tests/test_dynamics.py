import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from edgrow import dynamics
from edgrow._config import ConfigError, bind
from edgrow.dynamics import (
    ConcentrationProfile,
    IntegratorConfig,
    IntegratorError,
    RatesView,
    birth_death_rates,
    geometric_state,
    integrate,
    load_checkpoint,
    moment_identity_residual,
    monodisperse_state,
    net_fluxes,
    positivity_bound_margin,
    rhs,
    save_checkpoint,
    state_from_profile,
    state_from_values,
    step,
    strong_norm,
    vacuum_state,
)
from edgrow.equilibrium import chemical_potential, equilibrium_profile
from edgrow.kernels import (
    additive_kernel,
    condensing_kernel,
    constant_kernel,
    kernel_matrix,
    separable_kernel,
)


@pytest.fixture(scope="module")
def const():
    return constant_kernel()


@pytest.fixture
def explicit(monkeypatch):
    """Every run started in the test takes the explicit method, however stiff."""
    monkeypatch.setattr(dynamics, "_STIFF_THRESHOLD", math.inf)


def test_profile_moments_cached():
    state = state_from_values([0.2, 0.5, 0.3], 2)
    assert state.n_trunc == 2
    assert state.zeroth_moment == pytest.approx(1.0)
    assert state.first_moment == pytest.approx(0.5 + 0.6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_state_from_values_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        state_from_values([0.5, bad], 1)


def test_monodisperse_validation():
    with pytest.raises(ValueError):
        monodisperse_state(3.0, 2, n_trunc=16)  # rho > m
    state = monodisperse_state(1.0, 4, n_trunc=16)
    assert state.c[0] == 0.75 and state.c[4] == 0.25


def test_state_constructors_take_their_defaults_and_truncation():
    # m defaults to max(1, ceil(rho)); a zero density is the vacuum.
    assert np.array_equal(monodisperse_state(2.5, n_trunc=8).c, monodisperse_state(2.5, 3, n_trunc=8).c)
    assert np.array_equal(monodisperse_state(0.0, n_trunc=8).c, vacuum_state(8).c)
    with pytest.raises(ValueError, match="needs 5 values, got 3"):
        state_from_values([0.5, 0.25, 0.25], 4)
    cp = chemical_potential(constant_kernel(), 200)
    expected = state_from_profile(equilibrium_profile(cp, rho=0.5, k_max=16), 16)
    assert np.array_equal(dynamics.equilibrium_state(cp, rho=0.5, n_trunc=16).c, expected.c)


def test_rates_examples(const):
    # delta_1: A = 1 - c_0 = 1 everywhere, B_k = sum_{l<N} c_l = 1
    state = monodisperse_state(1.0, 1, n_trunc=8)
    rates = birth_death_rates(const, state)
    assert np.allclose(rates.a, 1.0)
    assert np.allclose(rates.b, 1.0)
    # vacuum: A = 0, B_k = K(k, 0)
    kernel = condensing_kernel(3.0)
    vac = vacuum_state(8)
    rates = birth_death_rates(kernel, vac)
    assert np.allclose(rates.a, 0.0)
    assert np.allclose(rates.b, [kernel(k, 0) for k in range(1, 9)])


def test_fast_path_matches_generic():
    # factored O(N) rates against the dense rate-table sums
    rng = np.random.default_rng(11)
    kernels = (
        constant_kernel(),
        condensing_kernel(3.0),
        separable_kernel("k", "1"),
        additive_kernel(1.0, 2.0),
    )
    for kernel in kernels:
        table = kernel_matrix(kernel, 64)
        for _ in range(100):
            c = rng.random(65)
            c /= c.sum()
            state = ConcentrationProfile(c)
            fast = birth_death_rates(kernel, state)
            slow = RatesView(a=table.T @ c[1:], b=table @ c[:-1])
            assert np.max(np.abs(fast.a - slow.a) / np.maximum(np.abs(slow.a), 1e-300)) <= 1e-12
            assert np.max(np.abs(fast.b - slow.b) / np.maximum(np.abs(slow.b), 1e-300)) <= 1e-12


def test_net_flux_examples(const):
    # N=1: J_0 = K(1,0) c_1 c_0 - K(1,0) c_0 c_1 = 0 exactly
    state = state_from_values([0.4, 0.6], 1)
    rates = birth_death_rates(const, state)
    assert net_fluxes(rates, state)[0] == 0.0
    # delta_1: J_0 = -1, J_1 = 1
    d1 = monodisperse_state(1.0, 1, n_trunc=8)
    flux = net_fluxes(birth_death_rates(const, d1), d1)
    assert flux[0] == -1.0 and flux[1] == 1.0
    assert np.all(flux[2:] == 0.0)


def test_rhs_examples(const):
    assert np.all(rhs(const, vacuum_state(8)) == 0.0)
    d1 = monodisperse_state(1.0, 1, n_trunc=8)
    expected = np.zeros(9)
    expected[:3] = [1.0, -2.0, 1.0]
    assert np.allclose(rhs(const, d1), expected)


def test_rhs_moment_sums_cancel(const):
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = rng.random(129)
        c /= c.sum()
        dc = rhs(const, ConcentrationProfile(c))
        scale = np.sum(np.abs(dc))
        assert abs(np.sum(dc)) <= 1e-13 * max(scale, 1.0)
        assert abs(np.dot(np.arange(129.0), dc)) <= 1e-12 * max(scale, 1.0)


def test_rhs_componentwise_bound(const):
    # |dc_k/dt| <= 2 C^2 (2 rho + 1) rho for unit-count states
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = rng.random(101)
        c /= c.sum()
        state = ConcentrationProfile(c)
        rho = state.first_moment
        bound = 2.0 * (2.0 * rho + 1.0) * rho
        assert np.max(np.abs(rhs(const, state))) <= bound


def test_step_vacuum_accepts_any_dt(const):
    cfg = IntegratorConfig(t_end=1.0)
    result = step(const, vacuum_state(16), 5.0, cfg)
    assert result.error_estimate == 0.0
    assert np.array_equal(result.state.c, vacuum_state(16).c)


def test_step_euler_consistency(const):
    cfg = IntegratorConfig(t_end=1.0)
    d1 = monodisperse_state(1.0, 1, n_trunc=16)
    result = step(const, d1, 1e-5, cfg)
    assert result.state.c[0] == pytest.approx(1e-5, rel=1e-3)
    assert result.state.c[1] == pytest.approx(1.0 - 2e-5, rel=1e-7)


def test_step_conserves_moments(const):
    cfg = IntegratorConfig(t_end=1.0)
    state = geometric_state(0.4, 64)
    result = step(const, state, 0.1, cfg)
    assert result.state.zeroth_moment == pytest.approx(state.zeroth_moment, abs=1e-12)
    assert result.state.first_moment == pytest.approx(state.first_moment, abs=1e-12)


def test_integrate_records_and_conserves(const):
    state0 = monodisperse_state(1.0, 1, n_trunc=64)
    traj = integrate(const, state0, IntegratorConfig(t_end=5.0, record_every=0.5))
    assert traj.sample_count == 11
    assert np.all(traj.states >= 0.0)
    m0, m1 = traj.moment_drift()
    assert m0 <= 1e-9 and m1 <= 1e-9


def test_integrate_zero_horizon(const):
    traj = integrate(const, vacuum_state(8), IntegratorConfig(t_end=0.0))
    assert traj.sample_count == 1
    assert traj.times[0] == 0.0


def test_integrate_horizon_below_the_time_resolution(const):
    # t_end / 200 underflows to 0, so the default cadence cannot be t_end / 200;
    # t_end is below the clock's resolution, so the run records its start only.
    traj = integrate(const, monodisperse_state(1.0, 1, n_trunc=8), IntegratorConfig(t_end=5e-324))
    assert traj.sample_count == 1 and traj.stats.accepted == 0


@pytest.mark.parametrize("t_end", [2e-12, 7.75e-12, 4e-11, 1e-10])
def test_short_horizon_records_its_whole_grid(const, t_end):
    # The clock resolves 1e-12 of the horizon.  On a clock of 1e-12 absolute
    # time the first two runs underflowed their first step, and the last two
    # stopped up to 2.5 % short of t_end with 196 and 200 samples.
    state = ConcentrationProfile(np.array([1.0, 0.0, 0.0]))
    traj = integrate(const, state, IntegratorConfig(t_end=t_end))
    assert traj.sample_count == 201
    assert abs(traj.times[-1] - t_end) <= 1e-12 * t_end


def test_cadence_at_or_below_the_clock_resolution_is_a_value_error(const):
    # Grid points 5e-15 apart at t_end = 1 are one time to the clock; the
    # run used to start and underflow its first step.
    with pytest.raises(ValueError, match="resolution"):
        IntegratorConfig(t_end=1.0, record_every=5e-15)
    assert IntegratorConfig(t_end=1.0, record_every=2e-12).record_every == 2e-12


def test_recording_grid_too_long_to_count_is_a_value_error(const):
    # (t_end - t0) / record_every overflows; the grid is rejected up front,
    # not by an OverflowError while the sample matrix is sized.
    with pytest.raises(ValueError, match="record_every"):
        IntegratorConfig(t_end=1e10, record_every=5e-324)


@pytest.mark.parametrize("key", ["max_step", "rtoll", "positivity_floor"])
def test_integrator_config_rejects_a_key_that_is_not_a_field(key):
    # The integrator block is bound to the fields by the config rule.
    with pytest.raises(ConfigError, match=f"integrator key '{key}' is not read by IntegratorConfig"):
        bind("integrator", {"t_end": 1.0, key: 0.5}, IntegratorConfig)


@pytest.mark.parametrize(
    "key, value",
    [
        ("t_end", math.nan), ("t_end", math.inf), ("t_end", True), ("t_end", None),
        ("t_end", "5"), pytest.param("t_end", 10**400, id="t_end-int-past-float-range"),
        ("rtol", math.nan), ("rtol", "1e-8"),
        ("atol", -math.inf), ("atol", np.float64("nan")), ("record_every", math.nan),
        ("record_every", False), ("record_every", np.True_), ("record_every", [0.5]),
    ],
)
def test_integrator_config_values_must_be_finite_real_numbers(key, value):
    with pytest.raises(ValueError, match=f"{key} must be a finite number"):
        IntegratorConfig(**{"t_end": 1.0, key: value})


def test_integrator_config_stores_floats_with_defaults_from_its_fields():
    cfg = IntegratorConfig(t_end=50, record_every=np.float32(0.5))
    assert cfg == IntegratorConfig(t_end=50.0, rtol=1e-8, atol=1e-12, record_every=0.5)
    assert all(type(value) is float for value in (cfg.t_end, cfg.rtol, cfg.atol, cfg.record_every))
    assert IntegratorConfig(t_end=2, record_every=None).record_every is None
    assert [f for f in IntegratorConfig.__dataclass_fields__] == ["t_end", "rtol", "atol", "record_every"]


def test_integrate_vacuum_is_constant(const):
    traj = integrate(const, vacuum_state(16), IntegratorConfig(t_end=5.0, record_every=0.5))
    assert np.all(traj.states == vacuum_state(16).c)


def test_semigroup_property(const):
    state0 = monodisperse_state(1.0, 1, n_trunc=256)
    whole = integrate(const, state0, IntegratorConfig(t_end=2.0, record_every=2.0))
    for split in (1.0, 0.5):
        first = integrate(const, state0, IntegratorConfig(t_end=split, record_every=split))
        second = integrate(
            const, first.final_state, IntegratorConfig(t_end=2.0 - split, record_every=2.0 - split)
        )
        gap = strong_norm(second.final_state.c - whole.final_state.c)
        assert gap <= 1e-6


def test_moment_identity(const):
    traj = integrate(
        const, monodisperse_state(1.0, 1, n_trunc=64), IntegratorConfig(t_end=2.0, record_every=0.005)
    )
    n = traj.n_trunc
    assert moment_identity_residual(const, traj, np.ones(n + 1)) <= 1e-9
    assert moment_identity_residual(const, traj, np.arange(n + 1.0)) <= 1e-9
    assert moment_identity_residual(const, traj, np.arange(n + 1.0) ** 2) <= 1e-4


def test_moment_identity_needs_samples(const):
    traj = integrate(const, vacuum_state(8), IntegratorConfig(t_end=0.0))
    with pytest.raises(ValueError):
        moment_identity_residual(const, traj, np.ones(9))


def test_positivity_bound(const):
    state0 = monodisperse_state(1.0, 1, n_trunc=64)
    traj = integrate(const, state0, IntegratorConfig(t_end=3.0, record_every=0.5))
    margin = positivity_bound_margin(traj, 1.0, 1.0, 1.0, 2.0)
    assert margin >= 0.0
    with pytest.raises(ValueError):
        positivity_bound_margin(traj, 1.0, 1.0, 1.05, 2.0)


def test_positivity_bound_on_stationary_state(const):
    cp = chemical_potential(const, 500)
    profile = equilibrium_profile(cp, phi=0.4, k_max=64)
    state0 = state_from_profile(profile, 64)
    traj = integrate(const, state0, IntegratorConfig(t_end=2.0, record_every=0.5))
    assert positivity_bound_margin(traj, 1.0, state0.first_moment, 0.5, 1.5) >= 0.0


def test_step_underflow_raises(const):
    cfg = IntegratorConfig(t_end=1.0, rtol=1e-300, atol=1e-300)
    with pytest.raises(IntegratorError, match="underflow"):
        integrate(const, monodisperse_state(1.0, 1, n_trunc=32), cfg)


def test_checkpoint_round_trip(tmp_path, const):
    state0 = monodisperse_state(1.0, 1, n_trunc=32)
    cfg = IntegratorConfig(t_end=1.0, record_every=0.25)
    traj = integrate(const, state0, cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, 1.0, traj.final_state, {"family": "constant", "value": 1.0}, cfg)
    t, state, spec, controller = load_checkpoint(path)
    assert t == 1.0
    assert np.array_equal(state.c, traj.final_state.c)  # bit-compatible
    assert spec["family"] == "constant"
    assert controller is None
    # The settings are echoed for the reader, field by field, and not read back.
    assert json.loads(path.read_text())["cfg"] == {
        "t_end": 1.0, "rtol": 1e-8, "atol": 1e-12, "record_every": 0.25,
    }


def test_checkpoint_with_positivity_floor_key_loads(tmp_path):
    # Checkpoints written while IntegratorConfig still had max_step, and
    # before that positivity_floor, echo those keys; the echoed settings are
    # not read, so every such checkpoint loads.
    path = tmp_path / "ckpt.json"
    for cfg in (
        {"t_end": 2.0, "rtol": 1e-8, "atol": 1e-12, "max_step": None, "record_every": 0.25},
        {"t_end": 2.0, "rtol": 1e-8, "atol": 1e-12, "max_step": None,
         "record_every": 0.25, "positivity_floor": 0.0},
        {"t_end": "not read", "max_step": "inf"},
    ):
        payload = {"t": 1.0, "N": 2, "c": ["0.5", "0.25", "0.25"],
                   "kernel_spec": {"family": "constant", "value": 1.0}, "cfg": cfg}
        path.write_text(json.dumps(payload, indent=1))
        t, state, spec, controller = load_checkpoint(path)
        assert t == 1.0 and state.c.tolist() == [0.5, 0.25, 0.25]
        assert spec == {"family": "constant", "value": 1.0} and controller is None


def test_checkpoint_survives_failed_rewrite(tmp_path, const, monkeypatch):
    spec = {"family": "constant", "value": 1.0}
    cfg = IntegratorConfig(t_end=1.0, record_every=0.25)
    first = monodisperse_state(1.0, 1, n_trunc=32)
    path = tmp_path / "ckpt.json"
    real_dump = json.dump
    calls = []

    def dump_failing_on_second_call(obj, fh, **kwargs):
        calls.append(obj["t"])
        if len(calls) == 2:
            fh.write('{"t": ')  # the write dies half way
            raise OSError("disk full")
        real_dump(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", dump_failing_on_second_call)
    save_checkpoint(path, 0.5, first, spec, cfg)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, 1.0, monodisperse_state(1.0, 2, n_trunc=32), spec, cfg)
    monkeypatch.undo()

    assert calls == [0.5, 1.0]
    t, state, _, _ = load_checkpoint(path)
    assert t == 0.5
    assert np.array_equal(state.c, first.c)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def test_boundary_mass_warning():
    kernel = condensing_kernel(3.0)
    c = np.zeros(33)
    c[32] = 1.0 / 16.0
    c[0] = 1.0 - c[32]
    state0 = state_from_values(c, 32)
    with pytest.warns(RuntimeWarning, match="boundary mass"):
        traj = integrate(kernel, state0, IntegratorConfig(t_end=0.5, record_every=0.25))
    assert traj.boundary_contaminated_from is not None


def stiff_additive_run(n_trunc=64, t_end=2.0, record_every=0.5):
    """Additive kernel with few samples: stiff enough for RODAS4, and on the
    explicit method both error and positivity rejections."""
    cfg = IntegratorConfig(t_end=t_end, record_every=record_every)
    return integrate(additive_kernel(1.0, 2.0), monodisperse_state(1.0, 1, n_trunc=n_trunc), cfg)


def traced_stiff_additive_run(monkeypatch):
    """``stiff_additive_run()`` with ``step`` and ``_rhs_from_c`` wrapped
    the way the benchmark tracer wraps them; returns its stats, the calls
    each wrapper saw and the work objects the right-hand sides got."""
    calls = {"step": 0, "rhs": 0}
    works = set()
    real_step, real_rhs = dynamics.step, dynamics._rhs_from_c

    def counted_step(*args, **kwargs):
        calls["step"] += 1
        return real_step(*args, **kwargs)

    def counted_rhs(*args, **kwargs):
        calls["rhs"] += 1
        works.add(id(kwargs["work"]))
        return real_rhs(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", counted_step)
    monkeypatch.setattr(dynamics, "_rhs_from_c", counted_rhs)
    return stiff_additive_run().stats, calls, works


def test_trace_contract_counts_match_stats(monkeypatch, explicit):
    # What the tracer counts must be what the integrator reports.
    stats, calls, works = traced_stiff_additive_run(monkeypatch)
    assert stats.method == "rkf45"
    assert stats.accepted > 0 and stats.rejected_error > 0 and stats.rejected_positivity > 0
    assert calls["step"] == stats.accepted
    assert calls["rhs"] == stats.rhs_evals
    assert len(works) == 1  # rejected attempts reuse the stepper's one work object
    assert stats.rhs_evals == 6 * stats.accepted + 5 * stats.rejected


def test_trace_contract_counts_match_rodas4_stats(monkeypatch):
    # The same run is stiff enough for RODAS4, whose stages and Jacobian
    # rates come from the same module-level right-hand side.
    stats, calls, works = traced_stiff_additive_run(monkeypatch)
    assert stats.method == "rodas4" and stats.accepted > 0
    assert calls["step"] == stats.accepted
    assert calls["rhs"] == stats.rhs_evals
    assert len(works) == 1
    assert stats.rhs_evals == 6 * stats.accepted + 5 * stats.rejected


@pytest.mark.parametrize(
    "kernel", [constant_kernel(), condensing_kernel(3.0)], ids=["constant", "condensing"]
)
def test_stepper_calls_module_rhs_once_per_evaluation(monkeypatch, kernel):
    # As above for the kernels of the thermo and sweep runs, on a run that
    # writes checkpoints: one call through the module attribute per
    # evaluation, all with the stepper's one work object.
    works = []
    real_rhs = dynamics._rhs_from_c

    def counted_rhs(kernel, c, out=None, work=None):
        works.append(work)
        return real_rhs(kernel, c, out=out, work=work)

    monkeypatch.setattr(dynamics, "_rhs_from_c", counted_rhs)
    checkpoints = []
    traj = integrate(
        kernel,
        monodisperse_state(1.0, 1, n_trunc=48),
        IntegratorConfig(t_end=2.0, record_every=0.1),
        checkpoint_hook=lambda t, state, controller: checkpoints.append(t),
        checkpoint_every=0.5,
    )
    assert len(works) == traj.stats.rhs_evals > 0
    assert len({id(work) for work in works}) == 1
    assert isinstance(works[0], dynamics._RhsWork)
    assert len(checkpoints) == 5  # t = 0.5, 1, 1.5, 2 and the end of the run


def test_integrator_stats_report(explicit):
    traj = stiff_additive_run()
    report = traj.stats.as_dict()
    assert report["method"] == "rkf45"
    assert report["rejected"] == {
        "error": traj.stats.rejected_error,
        "positivity": traj.stats.rejected_positivity,
        "non_finite": 0,
    }
    assert 0.0 < report["dt_min"] <= report["dt_max"] <= 0.5
    assert report["clamp_events"] > 0
    assert (traj.clamp_mass0[-1] > 0.0) and (traj.clamp_mass1[-1] > 0.0)
    idle = integrate(constant_kernel(), vacuum_state(8), IntegratorConfig(t_end=0.0)).stats
    assert idle.as_dict() == {
        "method": "rkf45",
        "accepted": 0,
        "rejected": {"error": 0, "positivity": 0, "non_finite": 0},
        "rhs_evals": 0,
        "dt_min": None,
        "dt_max": None,
        "clamp_events": 0,
    }


def test_rodas4_solution_and_error_orders():
    # Local error O(dt^5) of the fourth-order solution and O(dt^4) of the
    # embedded one, k_6 estimating the latter, against tight explicit steps.
    kernel, state = additive_kernel(1.0, 2.0), geometric_state(0.5, 32)
    errors = []
    for dt in (0.05, 0.025, 0.0125):
        tight = IntegratorConfig(t_end=dt, record_every=dt, rtol=1e-14, atol=1e-18)
        reference = integrate(kernel, state, tight)
        assert reference.stats.method == "rkf45"  # not stiff at this cadence
        exact = reference.states[-1]
        row = dynamics._Row(dynamics._Controller(method="rodas4", dt_next=dt, next_record=math.inf), state)
        stepper = dynamics._Stepper(kernel, state.c, tight, [row])
        estimate = stepper._rodas4(dt).copy()
        solution = stepper.c_new
        embedded = solution - estimate
        errors.append((np.max(np.abs(solution - exact)), np.max(np.abs(embedded - exact))))
    (fine4, fine3), (finer4, finer3) = errors[1], errors[2]
    assert 20.0 < fine4 / finer4 < 40.0  # 2^5
    assert 10.0 < fine3 / finer3 < 20.0  # 2^4
    assert all(e4 < e3 for e4, e3 in errors)


@pytest.mark.parametrize(
    "kernel, n_trunc, cfg, accepted, rejected, rhs_evals",
    [
        # the stiff-additive and relax-thermo benchmark workloads at seed 0,
        # on the explicit method
        (additive_kernel(1.0, 2.0), 512, IntegratorConfig(t_end=5.0), 2119, 89, 13159),
        (constant_kernel(1.0), 256, IntegratorConfig(t_end=200.0, record_every=0.1), 2156, 0, 12936),
    ],
)
def test_integrator_stats_of_benchmark_runs(
    explicit, kernel, n_trunc, cfg, accepted, rejected, rhs_evals
):
    stats = integrate(kernel, monodisperse_state(1.0, 1, n_trunc=n_trunc), cfg).stats
    assert stats.method == "rkf45"
    assert (stats.accepted, stats.rejected, stats.rhs_evals) == (accepted, rejected, rhs_evals)


def test_integrator_stats_of_the_stiff_benchmark_run_on_rodas4():
    # stiff-additive at seed 0 as it runs: RODAS4, never rejected
    cfg = IntegratorConfig(t_end=5.0)
    stats = integrate(additive_kernel(1.0, 2.0), monodisperse_state(1.0, 1, n_trunc=512), cfg).stats
    assert stats.method == "rodas4"
    assert (stats.accepted, stats.rejected, stats.rhs_evals) == (263, 0, 1578)
    assert stats.clamp_events == 1


# Largest strong-norm error over the samples of the run against the same
# code at rtol = 1e-13, atol = 1e-16, measured once with the controller that
# halved dt after every positivity rejection and had no ceiling.
HALVING_CONTROLLER_ERRORS = {
    ("additive", 64): 2.4839071229520343e-08,
    ("additive", 256): 4.978002679921999e-08,
    ("k*1", 64): 1.0372592978729544e-08,
    ("k*1", 256): 1.1232366204744347e-07,
}


def stiff_case(name, n_trunc):
    """Kernel, initial state and config of a named stiff case."""
    if name == "additive":
        kernel, t_end, record_every = additive_kernel(1.0, 2.0), 5.0, None
    else:
        kernel, t_end, record_every = separable_kernel("k", "1"), 20.0, 2.0
    cfg = IntegratorConfig(t_end=t_end, record_every=record_every)
    return kernel, monodisperse_state(1.0, 1, n_trunc=n_trunc), cfg


def explicit_error(monkeypatch, kernel, state0, cfg, run) -> float:
    """Largest strong-norm error of ``run`` over its samples against the
    explicit method at ``rtol = 1e-13, atol = 1e-16``."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_STIFF_THRESHOLD", math.inf)
        reference = integrate(kernel, state0, replace(cfg, rtol=1e-13, atol=1e-16))
    assert reference.stats.method == "rkf45"
    assert np.array_equal(run.times, reference.times)
    return max(strong_norm(a - b) for a, b in zip(run.states, reference.states))


@pytest.mark.parametrize("name, n_trunc", sorted(HALVING_CONTROLLER_ERRORS))
def test_stiff_runs_meet_the_positivity_limit_rarely_and_no_less_accurately(
    monkeypatch, explicit, name, n_trunc
):
    kernel, state0, cfg = stiff_case(name, n_trunc)
    run = integrate(kernel, state0, cfg)
    assert run.stats.method == "rkf45"
    assert run.stats.rejected_positivity <= 0.1 * run.stats.accepted
    error = explicit_error(monkeypatch, kernel, state0, cfg, run)
    assert error <= HALVING_CONTROLLER_ERRORS[name, n_trunc]


# Largest strong-norm error of the runs the switch sends to RODAS4, against
# the explicit method at rtol = 1e-13, atol = 1e-16, as first measured.  The
# stiff-additive workload at N = 512 has the error of N = 256, 4.36e-8,
# against 7.58e-8 for the explicit method; on k*1 RODAS4 is the less
# accurate at N = 64 (explicit 5.2e-9) and the more accurate at N = 256.
RODAS4_ERRORS = {
    ("additive", 256): 4.360e-08,
    ("k*1", 64): 1.059e-08,
    ("k*1", 256): 1.059e-08,
}


@pytest.mark.parametrize("name, n_trunc", sorted(RODAS4_ERRORS))
def test_stiff_runs_take_rodas4_without_clamping(monkeypatch, name, n_trunc):
    kernel, state0, cfg = stiff_case(name, n_trunc)
    run = integrate(kernel, state0, cfg)
    assert run.stats.method == "rodas4"
    assert run.stats.rejected_positivity == 0
    assert run.clamp_mass0[-1] < 1e-15 and run.clamp_mass1[-1] < 1e-15
    assert max(run.moment_drift()) <= 1e-14
    assert explicit_error(monkeypatch, kernel, state0, cfg, run) <= RODAS4_ERRORS[name, n_trunc]


def assert_resume_repeats_the_run(kernel, state0, method):
    """A run resumed from its checkpoint at t = 2 repeats the uninterrupted
    run from there: times, states, clamp ledger and method."""
    cfg = IntegratorConfig(t_end=4.0, record_every=0.25)
    saved = []
    whole = integrate(
        kernel, state0, cfg,
        checkpoint_hook=lambda t, state, controller: saved.append((t, state, controller)),
        checkpoint_every=1.0,
    )
    assert whole.stats.method == method
    t_mid, state_mid, controller = saved[1]
    assert t_mid == 2.0 and controller["next_record"] == 2.25 and controller["method"] == method
    rest = integrate(kernel, state_mid, cfg, t0=t_mid, controller=controller)
    start = int(np.flatnonzero(whole.times == t_mid)[0])
    assert np.array_equal(rest.times, whole.times[start:])
    assert np.array_equal(rest.states, whole.states[start:])
    assert np.array_equal(rest.clamp_mass0, whole.clamp_mass0[start:])
    assert np.array_equal(rest.clamp_mass1, whole.clamp_mass1[start:])
    assert rest.stats.method == method


def test_resume_from_controller_repeats_the_run_exactly(const):
    assert_resume_repeats_the_run(const, monodisperse_state(1.0, 1, n_trunc=48), "rkf45")


def test_resume_from_controller_repeats_a_rodas4_run_exactly():
    # The additive kernel is stiff at this cadence, so the run takes RODAS4.
    state0 = monodisperse_state(1.0, 1, n_trunc=96)
    assert_resume_repeats_the_run(additive_kernel(1.0, 2.0), state0, "rodas4")


def test_sample_matrix_is_sized_from_the_grid_and_grows_bit_for_bit(const, monkeypatch):
    cfg = IntegratorConfig(t_end=4.0, record_every=0.25)
    state0 = monodisperse_state(1.0, 1, n_trunc=48)
    reserved = integrate(const, state0, cfg)
    assert reserved.sample_count == 17
    assert reserved.states.flags.c_contiguous
    assert len(reserved.states.base) - reserved.sample_count <= 2
    monkeypatch.setattr(dynamics, "_RESERVED_SAMPLES", 2)
    grown = integrate(const, state0, cfg)
    assert np.array_equal(grown.times, reserved.times)
    assert np.array_equal(grown.states, reserved.states)
    assert np.array_equal(grown.first_moments, reserved.first_moments)
    assert np.array_equal(grown.boundary_mass, reserved.boundary_mass)


def test_checkpoint_controller_round_trip(tmp_path, const):
    controller = {
        "method": "rodas4",
        "dt_next": 0.1 / 3.0,
        "err_prev_ratio": 2.0 / 3.0,
        "dt_ceiling": 0.2 / 3.0,
        "next_record": 1.25,
        "clamp_mass0": 1e-17 / 3.0,
        "clamp_mass1": 0.0,
    }
    path = tmp_path / "ckpt.json"
    spec = {"family": "constant", "value": 1.0}
    cfg = IntegratorConfig(t_end=2.0)
    save_checkpoint(path, 1.0, monodisperse_state(1.0, 1, n_trunc=8), spec, cfg, controller)
    assert load_checkpoint(path)[3] == controller  # exact floats
    unset = dict(controller, dt_ceiling=None)  # an infinite ceiling is written as null
    save_checkpoint(path, 1.0, monodisperse_state(1.0, 1, n_trunc=8), spec, cfg, unset)
    assert json.loads(path.read_text())["controller"]["dt_ceiling"] is None
    assert load_checkpoint(path)[3] == unset
    # A controller block written before it carried the ceiling loads unset,
    # and one written before it carried the method loads as explicit.
    del controller["dt_ceiling"]
    save_checkpoint(path, 1.0, monodisperse_state(1.0, 1, n_trunc=8), spec, cfg, controller)
    assert load_checkpoint(path)[3] == unset
    del controller["method"]
    save_checkpoint(path, 1.0, monodisperse_state(1.0, 1, n_trunc=8), spec, cfg, controller)
    assert load_checkpoint(path)[3] == dict(unset, method="rkf45")
    save_checkpoint(path, 1.0, monodisperse_state(1.0, 1, n_trunc=8), spec, cfg, dict(unset, method="rk4"))
    with pytest.raises(ValueError, match="method"):
        load_checkpoint(path)[3]
    save_checkpoint(path, 1.0, monodisperse_state(1.0, 1, n_trunc=8), spec, cfg)
    assert load_checkpoint(path)[3] is None


NAN_SUGGESTIONS = {
    "step": "step(kernel, state, math.nan, cfg)",
    "integrate": "integrate(kernel, state, cfg, controller={'dt_next': math.nan, 'next_record': 0.25})",
}


@pytest.mark.parametrize("call", NAN_SUGGESTIONS.values(), ids=NAN_SUGGESTIONS)
def test_nan_step_suggestion_is_a_value_error(call):
    # NaN passed the test "suggest <= 0" and the underflow floor, and each
    # rejected attempt halved it, so both calls looped forever.  They run in
    # a child process, so a regression fails on the timeout instead of
    # hanging the suite.
    script = (
        "import math\n"
        "from edgrow import IntegratorConfig, constant_kernel, integrate, monodisperse_state, step\n"
        "kernel, state = constant_kernel(), monodisperse_state(1.0, 1, n_trunc=8)\n"
        "cfg = IntegratorConfig(t_end=1.0)\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as exc:\n"
        "    assert 'dt_suggest must be positive, got nan' in str(exc), exc\n"
        "else:\n"
        "    raise SystemExit('no ValueError')\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-2000:]
