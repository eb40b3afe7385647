"""Configuration-driven experiment runner.

Subcommands: ``check-kernel`` (structural audits), ``equilibrium``
(profiles and critical constants), ``simulate`` (trajectory with
free-energy/dissipation columns, classification and checkpoints), ``sweep``
(density scan reproducing the convergence dichotomy) and ``weights``
(superlinear weight construction for a profile).

A single JSON document configures a run; every artifact echoes the resolved
configuration so outputs are self-describing.  CSV cells carry 17
significant digits, which keeps downstream tolerance checks meaningful.

Exit codes: 0 ok, 2 kernel audit failed, 3 supercritical request where a
subcritical one is required, 4 integrator failure, 64 config error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import math
import os
import sys
import time
from typing import Any, Mapping, Optional

import numpy as np

from . import _csv, diagnostics, dynamics, equilibrium, kernels, thermo

__all__ = ["main", "ConfigError"]

EXIT_OK = 0
EXIT_AUDIT_FAILED = 2
EXIT_SUPERCRITICAL = 3
EXIT_INTEGRATOR = 4
EXIT_CONFIG = 64

BDA_PASS_RESIDUAL = 1e-9


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


# Integer analysis settings: (default, least value their consumers accept).
_ANALYSIS_INTS = {
    "equilibrium_k_max": (10**6, 1), "profile_k_max": (1024, 0), "excess_band_start": (64, 0),
    "low_band": (10, 0), "audit_k_max": (100, 2), "audit_l_max": (100, 2),
}


def _resolve(config: Mapping[str, Any]) -> dict:
    """Fill defaults so outputs can echo the exact run parameters, and check
    the types and ranges of the fixed settings."""
    analysis = config.get("analysis", {})
    if not isinstance(analysis, Mapping):
        raise ConfigError("analysis must be a JSON object")
    analysis = {"thermo": True, "classify": True, "checkpoint_every": None, **analysis}
    resolved = dict(config)
    resolved["analysis"] = analysis
    resolved.setdefault("n_trunc", 256)
    settings = [("n_trunc", resolved["n_trunc"], 1)]
    for key, (default, least) in _ANALYSIS_INTS.items():
        settings.append((f"analysis.{key}", analysis.setdefault(key, default), least))
    for name, value, least in settings:
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    for key in ("thermo", "classify"):
        if not isinstance(analysis[key], bool):
            raise ConfigError(f"analysis.{key} must be true or false, got {analysis[key]!r}")
    every = analysis["checkpoint_every"]
    if every is not None and (type(every) not in (int, float) or not every >= 0):
        raise ConfigError(f"analysis.checkpoint_every must be null or a number >= 0, got {every!r}")
    return resolved


def _build_kernel(config: Mapping[str, Any]) -> kernels.Kernel:
    spec = config.get("kernel")
    if spec is None:
        raise ConfigError("config needs a 'kernel' entry")
    try:
        return kernels.kernel_from_spec(spec)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad kernel spec: {exc}") from exc


def _build_state(
    config: Mapping[str, Any],
    n_trunc: int,
    cp: Optional[equilibrium.ChemicalPotential] = None,
) -> dynamics.ConcentrationProfile:
    spec = config.get("initial_condition", {"type": "vacuum"})
    if not isinstance(spec, Mapping) or "type" not in spec:
        raise ConfigError("initial_condition must be a mapping with a 'type'")
    kind = spec["type"]
    try:
        if kind == "vacuum":
            return dynamics.vacuum_state(n_trunc)
        if kind == "monodisperse":
            rho = float(spec["rho"])
            m = int(spec.get("m", max(1, math.ceil(rho))))
            if m < math.ceil(rho):
                raise ConfigError("monodisperse condition needs m >= ceil(rho)")
            return dynamics.monodisperse_state(rho, m, n_trunc)
        if kind == "geometric":
            return dynamics.geometric_state(float(spec["phi"]), n_trunc)
        if kind == "explicit":
            return dynamics.state_from_values(spec["values"])
        if kind == "equilibrium":
            if cp is None:
                raise ConfigError("equilibrium initial condition needs analysis support")
            profile = equilibrium.equilibrium_profile(
                cp,
                phi=spec.get("phi"),
                rho=spec.get("rho"),
                k_max=n_trunc,
            )
            return dynamics.state_from_profile(profile, n_trunc)
    except ConfigError:
        raise
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad initial condition: {exc}") from exc
    raise ConfigError(f"unknown initial condition type {kind!r}")


def _analysis_config(analysis: Mapping[str, Any]) -> diagnostics.AnalysisConfig:
    return diagnostics.AnalysisConfig(analysis["excess_band_start"], analysis["low_band"])


def _build_integrator(config: Mapping[str, Any]) -> dynamics.IntegratorConfig:
    spec = config.get("integrator")
    if spec is None or "t_end" not in spec:
        raise ConfigError("config needs integrator.t_end")
    try:
        return dynamics.IntegratorConfig.from_dict(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad integrator config: {exc}") from exc


def _write_json(path: str, payload: Mapping) -> None:
    with dynamics._atomic_writer(path) as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _phase(phase_seconds: dict, name: str):
    """Add the wall time of the ``with`` body to ``phase_seconds[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        phase_seconds[name] += time.perf_counter() - start


def _ensure_out(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def cmd_check_kernel(config: dict, out_dir: str) -> int:
    """Audit the configured kernel and gate on linear growth plus curl-freeness."""
    resolved = _resolve(config)
    kernel = _build_kernel(resolved)
    analysis = resolved["analysis"]
    report = kernels.audit_assumptions(kernel, analysis["audit_k_max"], analysis["audit_l_max"])
    bda_holds = math.isfinite(report.bda_max_residual) and (
        report.bda_max_residual <= BDA_PASS_RESIDUAL
    )
    payload = {
        "kernel": kernels.kernel_spec(kernel),
        "report": report.as_dict(),
        "bda_holds_sampled": bda_holds,
        "config": resolved,
    }
    _write_json(os.path.join(_ensure_out(out_dir), "kernel_report.json"), payload)
    return EXIT_OK if (report.k1_ok and bda_holds) else EXIT_AUDIT_FAILED


def cmd_equilibrium(
    config: dict, out_dir: str, rho: Optional[float] = None, phi: Optional[float] = None
) -> int:
    """Write the equilibrium profile and scalar summary for a density or fugacity."""
    resolved = _resolve(config)
    kernel = _build_kernel(resolved)
    analysis = resolved["analysis"]
    if rho is None and phi is None:
        rho = resolved.get("rho")
        phi = resolved.get("phi")
    if (rho is None) == (phi is None):
        raise ConfigError("specify exactly one of rho and phi")
    cp = equilibrium.chemical_potential(kernel, analysis["equilibrium_k_max"])
    out = _ensure_out(out_dir)
    try:
        profile = equilibrium.equilibrium_profile(
            cp,
            phi=None if phi is None else float(phi),
            rho=None if rho is None else float(rho),
            k_max=analysis["profile_k_max"],
        )
    except equilibrium.SupercriticalDensityError as exc:
        _write_json(
            os.path.join(out, "equilibrium_summary.json"),
            {
                "error": f"supercritical, rho_c={exc.rho_c:.12g}",
                "rho": rho,
                "rho_c": equilibrium.tagged_value(exc.rho_c),
                "config": resolved,
            },
        )
        print(f"supercritical, rho_c={exc.rho_c:.12g}", file=sys.stderr)
        return EXIT_SUPERCRITICAL
    equilibrium.profile_to_csv(profile, cp, os.path.join(out, "profile.csv"))
    summary = equilibrium.profile_summary(profile, cp)
    summary["config"] = resolved
    _write_json(os.path.join(out, "equilibrium_summary.json"), summary)
    return EXIT_OK


def _write_trajectory_csv(traj: dynamics.TrajectoryRecord, path: str) -> None:
    """Long-format ``t,k,c_k`` rows, ``%.17g`` floats, in blocks of whole samples."""
    with open(path, "wb") as fh:
        fh.write(b"t,k,c_k\n")
        _csv.write_lines(
            fh, traj.times[:, None], np.arange(traj.n_trunc + 1)[None, :], traj.states
        )


def _write_summary_csv(traj: dynamics.TrajectoryRecord, path: str, series=None) -> None:
    """``t,M0,rho,boundary_mass,F,D,D_infinite_terms`` rows.

    Floats are written with ``%.17g`` and the infinite-term count with
    ``%d``.  Without a :class:`~edgrow.thermo.ThermoSeries` the last three
    cells stay empty.
    """
    columns = [traj.times, traj.zeroth_moments, traj.first_moments, traj.boundary_mass]
    if series is not None:
        columns += [series.free_energy, series.dissipation, series.infinite_terms]
    else:
        columns += [b""] * 3
    with open(path, "wb") as fh:
        fh.write(b"t,M0,rho,boundary_mass,F,D,D_infinite_terms\n")
        _csv.write_lines(fh, *columns)


def cmd_simulate(config: dict, out_dir: str, resume: Optional[str] = None) -> int:
    """Integrate the configured system, writing trajectory, summary, report."""
    resolved = _resolve(config)
    analysis = resolved["analysis"]
    started = time.perf_counter()
    phase_seconds = {"integrate": 0.0, "thermo": 0.0, "write_csv": 0.0, "classify": 0.0}

    cfg = _build_integrator(resolved)
    if resume is not None:
        # The checkpoint provides the state and clock; the config stays the
        # description of the full run (t_end, tolerances, outputs).
        try:
            t0, resumed_state, kernel_spec, _ = dynamics.load_checkpoint(resume)
            controller = dynamics.load_controller(resume)
            kernel = kernels.kernel_from_spec(kernel_spec)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot resume from {resume!r}: {exc!r}") from exc
        resolved["kernel"] = dict(kernel_spec)
    else:
        t0 = 0.0
        resumed_state = None
        controller = None
        kernel = _build_kernel(resolved)

    cp: Optional[equilibrium.ChemicalPotential] = None
    if analysis["thermo"] or analysis["classify"]:
        try:
            cp = equilibrium.chemical_potential(kernel, analysis["equilibrium_k_max"])
        except kernels.ZeroRateError:
            cp = None

    if resumed_state is not None:
        state0 = resumed_state
    else:
        state0 = _build_state(resolved, resolved["n_trunc"], cp)
    if cp is not None and state0.n_trunc > cp.k_max:
        raise ConfigError(f"analysis.equilibrium_k_max must be >= n_trunc = {state0.n_trunc}")

    out = _ensure_out(out_dir)
    checkpoint_path = os.path.join(out, "checkpoint.json")

    def checkpoint_hook(
        t: float, state: dynamics.ConcentrationProfile, controller: Optional[dict]
    ) -> None:
        dynamics.save_checkpoint(
            checkpoint_path, t, state, kernels.kernel_spec(kernel), cfg, controller
        )

    try:
        with _phase(phase_seconds, "integrate"):
            traj = dynamics.integrate(
                kernel,
                state0,
                cfg,
                t0=t0,
                checkpoint_hook=checkpoint_hook,
                checkpoint_every=analysis["checkpoint_every"],
                controller=controller,
            )
    except dynamics.IntegratorError as exc:
        _write_json(
            os.path.join(out, "run_report.json"),
            {"error": str(exc), "config": resolved, "last_checkpoint": checkpoint_path},
        )
        print(f"integrator failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR

    series = None
    if analysis["thermo"] and cp is not None:
        with _phase(phase_seconds, "thermo"):
            series = thermo.thermo_series(traj.states, kernel, cp)

    with _phase(phase_seconds, "write_csv"):
        _write_trajectory_csv(traj, os.path.join(out, "trajectory.csv"))
        _write_summary_csv(traj, os.path.join(out, "summary.csv"), series)

    convergence: dict
    if analysis["classify"] and cp is not None and traj.sample_count >= 10:
        try:
            with _phase(phase_seconds, "classify"):
                report = diagnostics.classify_longtime(
                    traj, cp, _analysis_config(analysis), series and series.free_energy
                )
            convergence = report.as_dict()
            with _phase(phase_seconds, "write_csv"):
                diagnostics.write_convergence_series_csv(
                    report, os.path.join(out, "distances.csv")
                )
        except diagnostics.RhoCUnavailableError as exc:
            convergence = {"error": str(exc)}
    else:
        convergence = {"skipped": True}
    _write_json(os.path.join(out, "convergence.json"), convergence)

    drift0, drift1 = traj.moment_drift()
    _write_json(
        os.path.join(out, "run_report.json"),
        {
            "config": resolved,
            "samples": traj.sample_count,
            "t_final": float(traj.times[-1]),
            "moment_drift": {"count": drift0, "mass": drift1},
            "clamped_mass": {
                "count": float(traj.clamp_mass0[-1]),
                "mass": float(traj.clamp_mass1[-1]),
            },
            "boundary_contaminated_from": traj.boundary_contaminated_from,
            "integrator": traj.stats.as_dict(),
            "phase_seconds": phase_seconds,
            "runtime_seconds": time.perf_counter() - started,
        },
    )
    return EXIT_OK


def _sweep_row(args: tuple) -> list:
    """Integrate a batch of a sweep's densities in lockstep; runs in a worker
    process, so takes plain data.

    Returns one ``(trajectory, seconds)`` per density, in order, or
    ``("error: ...", seconds)`` for a row whose state cannot be built or
    whose integration fails; anything else is a programming error and
    propagates.  Each row's ``seconds`` is an equal share of the batch's
    time.  The rows hold no chemical potential: :func:`cmd_sweep` classifies
    the trajectories.
    """
    config_json, densities = args
    started = time.perf_counter()
    resolved = _resolve(json.loads(config_json))
    results: list = [None] * len(densities)
    states = {}
    for i, rho in enumerate(densities):
        ic = dict(resolved.get("initial_condition", {}), type="monodisperse", rho=rho)
        row_config = {"initial_condition": ic if rho else {"type": "vacuum"}}
        try:
            states[i] = _build_state(row_config, resolved["n_trunc"])
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            results[i] = f"error: {exc}"
    kernel, cfg = _build_kernel(resolved), _build_integrator(resolved)
    for i, traj in zip(states, dynamics.integrate_batch(kernel, list(states.values()), cfg)):
        results[i] = f"error: {traj}" if isinstance(traj, Exception) else traj
    share = (time.perf_counter() - started) / max(1, len(densities))
    return [(result, share) for result in results]


def _classify_row(traj: dynamics.TrajectoryRecord, cp, analysis: Mapping[str, Any]) -> dict:
    """The classification cells of one integrated sweep row."""
    try:
        report = diagnostics.classify_longtime(traj, cp, _analysis_config(analysis))
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        return {"status": f"error: {exc}"}
    return {
        "regime": report.regime,
        "weak_d_final": report.weak_distance_series[-1],
        "strong_d_final": report.strong_distance_series[-1],
        "excess_mass": report.excess_mass_series[-1],
        "f_gap": report.free_energy_limit_gap,
        "boundary_mass": report.boundary_mass_series[-1],
        "status": "ok",
    }


def cmd_sweep(config: dict, out_dir: str, parallel: Optional[int] = None) -> int:
    """Run one simulation per density and aggregate the phase-diagram rows.

    The rows integrate as lockstep batches (see :func:`_sweep_row`) in input
    order.  With ``parallel = N >= 2`` they go to ``N - 1`` worker processes
    (at most one per density), one contiguous batch each, before this
    process builds anything, so workers fork from a small process and hold
    no chemical potential.  While they integrate, this process, the N-th,
    builds the sweep's one chemical potential, walks the ``rho_c`` ladder
    once, and then classifies the trajectories in input order; with
    ``N = 1`` the one batch runs here first.  A chemical-potential error
    names every row, then come integration errors, then classification
    errors.
    """
    resolved = _resolve(config)
    for key in ("thermo", "classify"):
        # A sweep computes no free energy and classifies every integrated row.
        if key in config.get("analysis", {}):
            raise ConfigError(f"sweep takes no analysis.{key}")
    densities = resolved.get("densities")
    if densities is None or not isinstance(densities, list):
        raise ConfigError("sweep config needs a 'densities' list")
    for i, rho in enumerate(densities):
        if type(rho) not in (int, float) or not 0 <= rho <= sys.float_info.max:
            raise ConfigError(f"sweep density {i} must be a finite number >= 0, got {rho!r}")
    if len(set(float(r) for r in densities)) != len(densities):
        raise ConfigError("sweep densities must be distinct")
    ic = resolved.get("initial_condition", {})
    if not isinstance(ic, Mapping) or ic.get("type", "monodisperse") != "monodisperse":
        # Each row sets its own density, which only a monodisperse state carries.
        raise ConfigError("sweep initial_condition must be monodisperse")
    kernel = _build_kernel(resolved)  # validate before starting workers
    if densities:
        _build_integrator(resolved)
    if parallel is not None and parallel < 1:
        raise ConfigError(f"--parallel must be at least 1, got {parallel}")
    analysis = resolved["analysis"]
    workers = min((parallel or 1) - 1, len(densities))
    phase_seconds = {"equilibrium": 0.0, "rows": 0.0, "classify": 0.0}

    rhos = [float(rho) for rho in densities]
    config_json = json.dumps(resolved, sort_keys=True)
    batches = max(1, workers) if rhos else 0
    jobs = [
        (config_json, tuple(rhos[i * len(rhos) // batches : (i + 1) * len(rhos) // batches]))
        for i in range(batches)
    ]
    cp = cp_error = rho_c_block = None
    with contextlib.ExitStack() as stack:
        submitted = time.perf_counter()
        if workers > 0:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_sweep_row, jobs)
        else:
            results = list(map(_sweep_row, jobs))
            phase_seconds["rows"] = time.perf_counter() - submitted
        if densities:
            rho_c_block = {"method": None, "ladder_length": None}
            with _phase(phase_seconds, "equilibrium"):
                try:
                    cp = equilibrium.chemical_potential(kernel, analysis["equilibrium_k_max"])
                except (ValueError, RuntimeError, ArithmeticError) as exc:
                    cp_error = f"error: {exc}"
                else:  # without rho_c, each row reports the failure as it classifies
                    with contextlib.suppress(ValueError, RuntimeError, ArithmeticError):
                        info = equilibrium.critical_density_info(cp)
                        rho_c_block = {"method": info.method, "ladder_length": len(info.ladder)}
        results = [row for batch in results for row in batch]
        if workers > 0:
            phase_seconds["rows"] = time.perf_counter() - submitted

    rows = []
    with _phase(phase_seconds, "classify"):
        for rho, (traj, seconds) in zip(rhos, results):
            started = time.perf_counter()
            if cp_error or isinstance(traj, str):
                row = {"status": cp_error or traj, "integrator": None}
            else:
                row = dict(_classify_row(traj, cp, analysis), integrator=traj.stats.as_dict())
            rows.append(dict(row, rho=rho, runtime_s=seconds + time.perf_counter() - started))

    out = _ensure_out(out_dir)
    columns = [
        "rho", "regime", "weak_d_final", "strong_d_final",
        "excess_mass", "f_gap", "boundary_mass", "status",
    ]
    with open(os.path.join(out, "sweep.csv"), "wb") as fh:
        fh.write(",".join(columns).encode() + b"\n")
        for row in rows:
            _csv.write_lines(fh, *(np.array([row.get(name, "")]) for name in columns))
    _write_json(
        os.path.join(out, "sweep_report.json"),
        {
            "config": resolved,
            "rows": len(rows),
            "row_telemetry": [
                {key: row[key] for key in ("rho", "status", "runtime_s", "integrator")}
                for row in rows
            ],
            "rho_c": rho_c_block,
            "phase_seconds": phase_seconds,
        },
    )
    return EXIT_OK


def cmd_weights(config: dict, out_dir: str) -> int:
    """Construct superlinear weights for the configured profile or tails."""
    resolved = _resolve(config)
    spec = resolved.get("weights_input")
    if not isinstance(spec, Mapping) or "type" not in spec:
        raise ConfigError("weights config needs a 'weights_input' mapping")
    k_max = resolved.get("weights_k_max", 10000)
    if type(k_max) is not int or k_max < 1:
        raise ConfigError(f"weights_k_max must be an integer >= 1, got {k_max!r}")
    try:
        if spec["type"] == "tails":
            result = diagnostics.superlinear_weights(
                np.asarray(spec["values"], dtype=float), k_max, is_tail_sequence=True
            )
        else:
            n_state = resolved["n_trunc"]
            state = _build_state({"initial_condition": spec}, n_state)
            result = diagnostics.superlinear_weights(state, k_max)
    except (diagnostics.NotIntegrableError, KeyError, ValueError) as exc:
        raise ConfigError(f"bad weights input: {exc}") from exc
    out = _ensure_out(out_dir)
    with open(os.path.join(out, "weights.csv"), "wb") as fh:
        fh.write(b"k,g_k,phi_k\n")
        n_weights = len(result.g)
        _csv.write_lines(fh, np.arange(n_weights), result.g, result.phi_steps[:n_weights])
    ks = np.arange(len(result.g) - 1, dtype=float)
    bound_margin = float(np.max((ks + 1.0) * np.diff(result.g) - 2.0 * result.g[:-1]))
    _write_json(
        os.path.join(out, "weights_report.json"),
        {
            "k_max": k_max,
            "breakpoints": len(result.ell),
            "first_slopes": list(result.d_slopes[:8]),
            "growth_bound_margin": bound_margin,
            "config": resolved,
        },
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgrow",
        description="Exchange-driven growth: audits, equilibria, simulation, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")

    p_check = sub.add_parser("check-kernel", help="audit kernel assumptions")
    add_common(p_check)

    p_eq = sub.add_parser("equilibrium", help="equilibrium profile and constants")
    add_common(p_eq)
    p_eq.add_argument("--rho", type=float, default=None, help="target density")
    p_eq.add_argument("--phi", type=float, default=None, help="target fugacity")

    p_sim = sub.add_parser("simulate", help="integrate the truncated system")
    add_common(p_sim)
    p_sim.add_argument("--resume", default=None, help="checkpoint to resume from")

    p_sweep = sub.add_parser("sweep", help="density sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--parallel", type=int, default=None, help="worker processes")

    p_w = sub.add_parser("weights", help="superlinear weight construction")
    add_common(p_w)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        config = _load_config(args.config)
        if args.command == "check-kernel":
            return cmd_check_kernel(config, args.out)
        if args.command == "equilibrium":
            return cmd_equilibrium(config, args.out, rho=args.rho, phi=args.phi)
        if args.command == "simulate":
            return cmd_simulate(config, args.out, resume=args.resume)
        if args.command == "sweep":
            return cmd_sweep(config, args.out, parallel=args.parallel)
        if args.command == "weights":
            return cmd_weights(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
