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
import contextlib
import dataclasses
import inspect
import json
import math
import os
import sys
import time
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from . import _csv, diagnostics, dynamics, equilibrium, kernels, thermo
from ._config import ConfigError, bind, bind_choice, judge

__all__ = ["main", "ConfigError"]

EXIT_OK = 0
EXIT_AUDIT_FAILED = 2
EXIT_SUPERCRITICAL = 3
EXIT_INTEGRATOR = 4
EXIT_CONFIG = 64

BDA_PASS_RESIDUAL = 1e-9


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


# The top-level keys each subcommand accepts: those it reads.  One config
# serves check-kernel, equilibrium and simulate (README), so the first two
# accept the keys of a simulate config and equilibrium's rho and phi.
_SIMULATE_KEYS = frozenset({"kernel", "n_trunc", "initial_condition", "integrator", "analysis"})
_CONFIG_KEYS = {
    "check-kernel": _SIMULATE_KEYS | {"rho", "phi"},
    "equilibrium": _SIMULATE_KEYS | {"rho", "phi"},
    "simulate": _SIMULATE_KEYS,
    "sweep": _SIMULATE_KEYS | {"densities"},
    "weights": frozenset({"weights_input", "weights_k_max", "n_trunc"}),
}


@dataclasses.dataclass(frozen=True)
class _TopLevel:
    """The values at the top level of a config besides its blocks; each
    subcommand reads those of its ``_CONFIG_KEYS``."""

    n_trunc: int = dataclasses.field(default=256, metadata={"least": 1})
    weights_k_max: int = dataclasses.field(default=10000, metadata={"least": 1})
    rho: Optional[float] = None
    phi: Optional[float] = None
    densities: Optional[list[float]] = None


def _resolve(config: Mapping[str, Any], command: str) -> tuple:
    """Check the top-level keys ``command`` reads, and bind the top-level
    values to :class:`_TopLevel` and ``analysis`` (if ``command`` reads it)
    to :class:`~edgrow.diagnostics.AnalysisConfig`.  Returns the config to
    echo, with the defaults of both filled in, and the analysis settings."""
    read = _CONFIG_KEYS[command]
    for key in config:
        if key not in read:
            raise ConfigError(f"{command} reads no config key {key!r}; choose from {sorted(read)}")
    fields = dataclasses.fields(_TopLevel)
    bind("config", {f.name: config[f.name] for f in fields if f.name in config}, _TopLevel)
    resolved = {f.name: f.default for f in fields if f.name in read and f.default is not None}
    resolved.update(config)
    analysis = None
    if "analysis" in read:
        settings = diagnostics.AnalysisConfig
        analysis = settings(**bind("analysis", config.get("analysis", {}), settings))
        resolved["analysis"] = dataclasses.asdict(analysis)
    return resolved, analysis


def _construct(block: str, target: Callable, kwargs: Mapping[str, Any], **run) -> Any:
    """``target`` called with the bound ``kwargs`` and the values in ``run``
    of the parameters it takes; its ValueError names the block's keys."""
    run = {key: value for key, value in run.items() if key in inspect.signature(target).parameters}
    if any(value is None for value in run.values()):
        raise ConfigError(f"{block}: {target.__name__} needs analysis support (a chemical potential)")
    try:
        return target(**kwargs, **run)
    except ValueError as exc:
        named = f" key {', '.join(map(repr, kwargs))}" if kwargs else ""
        raise ConfigError(f"{block}{named}: {exc}") from exc


def _build_kernel(config: Mapping[str, Any]) -> kernels.Kernel:
    try:
        return kernels.kernel_from_spec(config.get("kernel"))
    except ValueError as exc:
        raise ConfigError(f"bad kernel spec: {exc}") from exc


def _tails(values: Sequence[float]) -> np.ndarray:
    """The ``tails`` weights input: the weighted tails ``C_0, C_1, ...``."""
    return np.asarray(values, dtype=float)


# The constructor of each type of initial condition (and of weights input).
_STATES = {
    "vacuum": dynamics.vacuum_state, "monodisperse": dynamics.monodisperse_state,
    "geometric": dynamics.geometric_state, "explicit": dynamics.state_from_values,
    "equilibrium": dynamics.equilibrium_state,
}


# What the run passes a state's constructor itself.
_SUPPLIED = ("n_trunc", "cp")


def _write_json(path: str, payload: Mapping) -> None:
    with _csv.atomic_writer(path, text=True) as fh:
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
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out {out_dir!r}: {exc}") from exc
    return out_dir


def cmd_check_kernel(config: dict, out_dir: str) -> int:
    """Audit the configured kernel and gate on linear growth plus curl-freeness."""
    resolved, analysis = _resolve(config, "check-kernel")
    kernel = _build_kernel(resolved)
    report = kernels.audit_assumptions(kernel, analysis.audit_k_max, analysis.audit_l_max)
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
    resolved, analysis = _resolve(config, "equilibrium")
    kernel = _build_kernel(resolved)
    if rho is None and phi is None:  # a --rho or --phi flag replaces the config's target
        rho, phi = resolved.get("rho"), resolved.get("phi")
    if (rho is None) == (phi is None):
        raise ConfigError("specify exactly one of rho and phi")
    cp = equilibrium.chemical_potential(kernel, analysis.equilibrium_k_max)
    out = _ensure_out(out_dir)
    try:
        profile = equilibrium.equilibrium_profile(
            cp,
            phi=None if phi is None else float(phi),
            rho=None if rho is None else float(rho),
            k_max=analysis.profile_k_max,
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
    _csv.write(path, "t,k,c_k", traj.times[:, None], np.arange(traj.n_trunc + 1)[None, :], traj.states)


def _stream(fh, n_trunc: int, phase_seconds: dict, passes: dict) -> tuple:
    """``(sink, results)``: ``sink(times, states)`` writes a block's ``t,k,c_k``
    lines (``%.17g`` floats, after the header) to ``fh`` through one writer,
    and each pass ``name: (phase, function)`` maps its states to per-sample
    arrays, each part booked to its phase; ``results()`` joins each pass's
    arrays of all blocks (a ``None`` field stays ``None``)."""
    fh.write(b"t,k,c_k\n")
    writer, ks, parts = _csv.Writer(fh), _csv._integers(np.arange(n_trunc + 1)[None, :]), {name: [] for name in passes}

    def sink(times: np.ndarray, states: np.ndarray) -> None:
        with _phase(phase_seconds, "write_csv"):
            writer.write(times[:, None], ks, states)
        for name, (phase, function) in passes.items():
            with _phase(phase_seconds, phase):
                parts[name].append(function(states))

    def results() -> dict:
        return {name: [None if f[0] is None else np.concatenate(f) for f in zip(*b)] for name, b in parts.items()}

    return sink, results


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
    _csv.write(path, "t,M0,rho,boundary_mass,F,D,D_infinite_terms", *columns)


def cmd_simulate(config: dict, out_dir: str, resume: Optional[str] = None) -> int:
    """Integrate the configured system, writing trajectory, summary, report.

    Each block of ``thermo.BLOCK_ROWS`` samples feeds :func:`_stream` as it
    is recorded: ``trajectory.csv.tmp`` (renamed when the run ends), ``F``/``D``
    and the distances to the equilibrium that the initial density fixes, so
    only per-sample scalars outlive a block.
    """
    resolved, analysis = _resolve(config, "simulate")
    started = time.perf_counter()
    phase_seconds = {"integrate": 0.0, "thermo": 0.0, "write_csv": 0.0, "classify": 0.0}

    settings = dynamics.IntegratorConfig
    cfg = _construct("integrator", settings, bind("integrator", resolved.get("integrator", {}), settings))
    initial_condition = resolved.get("initial_condition", {"type": "vacuum"})
    initial = bind_choice("initial_condition", initial_condition, _STATES, _SUPPLIED)
    if resume is not None:
        # The checkpoint provides the state and clock; the config stays the
        # description of the full run (t_end, tolerances, outputs).
        try:
            t0, state0, kernel_spec, controller = dynamics.load_checkpoint(resume)
            kernel = kernels.kernel_from_spec(kernel_spec)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot resume from {resume!r}: {exc}") from exc
        resolved["kernel"] = dict(kernel_spec)
    else:
        t0 = 0.0
        state0 = None
        controller = None
        kernel = _build_kernel(resolved)

    cp: Optional[equilibrium.ChemicalPotential] = None
    if analysis.thermo or analysis.classify:
        try:
            cp = equilibrium.chemical_potential(kernel, analysis.equilibrium_k_max)
        except kernels.ZeroRateError:
            cp = None

    if state0 is None:
        state0 = _construct("initial_condition", *initial, n_trunc=resolved["n_trunc"], cp=cp)
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

    passes, target_error = {}, None
    if cp is not None and (analysis.thermo or analysis.classify):
        phase = "thermo" if analysis.thermo else "classify"  # classify alone needs F
        with _phase(phase_seconds, phase):
            passes["thermo"] = phase, thermo._thermo_pass(state0.n_trunc + 1, kernel if analysis.thermo else None, cp)
    if cp is not None and analysis.classify:
        try:
            with _phase(phase_seconds, "classify"):
                distances, classified = diagnostics._classify_target(state0.c, cp, analysis)
            passes["distances"] = "classify", distances
        except diagnostics.RhoCUnavailableError as exc:
            target_error = exc

    try:
        with _csv.atomic_writer(os.path.join(out, "trajectory.csv")) as fh:
            sink, joined = _stream(fh, state0.n_trunc, phase_seconds, passes)
            run_started, booked = time.perf_counter(), sum(phase_seconds.values())
            traj = dynamics.integrate(
                kernel, state0, cfg, t0, checkpoint_hook, analysis.checkpoint_every, controller, sink
            )
            # What the sink booked to its phases is not stepping.
            phase_seconds["integrate"] = time.perf_counter() - run_started - (sum(phase_seconds.values()) - booked)
    except dynamics.IntegratorError as exc:
        _write_json(
            os.path.join(out, "run_report.json"),
            {"error": str(exc), "config": resolved, "last_checkpoint": checkpoint_path},
        )
        print(f"integrator failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR

    results = joined()
    series = thermo.ThermoSeries(*results["thermo"]) if "thermo" in results else None
    with _phase(phase_seconds, "write_csv"):
        _write_summary_csv(traj, os.path.join(out, "summary.csv"), series if analysis.thermo else None)

    convergence: dict
    if analysis.classify and cp is not None and traj.sample_count >= diagnostics.MIN_SAMPLES:
        if target_error is not None:
            convergence = {"error": str(target_error)}
        else:
            with _phase(phase_seconds, "classify"):
                report = classified(traj, results["distances"], series.free_energy)
            convergence = report.as_dict()
            with _phase(phase_seconds, "write_csv"):
                diagnostics.write_convergence_series_csv(
                    report, os.path.join(out, "distances.csv")
                )
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


def _sweep_row(kernel: kernels.Kernel, cfg: dynamics.IntegratorConfig, states: list) -> list:
    """Integrate a sweep's rows as one lockstep batch.

    ``states`` holds each row's initial state, or the ``"error: ..."`` of a
    row whose state could not be built.  Returns one ``(trajectory,
    seconds)`` per row, in order, or ``("error: ...", seconds)`` for a row
    that has no state or whose integration fails; anything else is a
    programming error and propagates.  Each row's ``seconds`` is an equal
    share of the batch's time.
    """
    started = time.perf_counter()
    results = list(states)
    built = [i for i, state in enumerate(states) if not isinstance(state, str)]
    if built:
        trajs = dynamics.integrate_batch(kernel, [states[i] for i in built], cfg)
        for i, traj in zip(built, trajs):
            results[i] = f"error: {traj}" if isinstance(traj, Exception) else traj
    share = (time.perf_counter() - started) / max(1, len(states))
    return [(result, share) for result in results]


def _classify_row(traj: dynamics.TrajectoryRecord, cp, analysis: diagnostics.AnalysisConfig) -> dict:
    """The classification cells of one integrated sweep row."""
    try:
        report = diagnostics.classify_longtime(traj, cp, analysis)
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

    Three phases run in order on the calling thread: the rows integrate as
    one lockstep batch (see :func:`_sweep_row`), then the sweep builds its
    one chemical potential and decides ``rho_c`` (walking the ladder at
    most once), then the trajectories are classified in input order.
    ``parallel`` (at least 1) selects nothing; it is accepted for the
    benchmark's invocation.  A chemical-potential error names every row,
    then come integration errors, then classification errors.
    """
    resolved, analysis = _resolve(config, "sweep")
    for key in ("thermo", "classify"):
        # A sweep computes no free energy and classifies every integrated row.
        if key in config.get("analysis", {}):
            raise ConfigError(f"sweep takes no analysis.{key}")
        del resolved["analysis"][key]  # so the report echoes only keys a sweep reads
    if resolved.get("densities") is None:
        raise ConfigError("sweep config needs a 'densities' list")
    rhos = [float(rho) for rho in resolved["densities"]]
    if len(set(rhos)) != len(rhos):
        raise ConfigError("sweep densities must be distinct")
    if analysis.equilibrium_k_max < resolved["n_trunc"]:  # every row would fail to classify
        raise ConfigError(f"analysis.equilibrium_k_max must be >= n_trunc = {resolved['n_trunc']}")
    ic = resolved.get("initial_condition", {})
    # Each row sets its own density, which only a monodisperse state carries.
    ic = {"type": "monodisperse", **ic} if isinstance(ic, Mapping) else ic
    monodisperse = {"monodisperse": dynamics.monodisperse_state}
    _, initial = bind_choice("initial_condition", ic, monodisperse, ("n_trunc", "rho"))
    kernel = _build_kernel(resolved)
    settings = dynamics.IntegratorConfig
    cfg = _construct("integrator", settings, bind("integrator", resolved.get("integrator", {}), settings))
    if (samples := cfg.sample_count()) < diagnostics.MIN_SAMPLES:  # every row would fail to classify
        raise ConfigError(
            f"the integrator grid records {samples} samples; "
            f"a sweep classifies each row from at least {diagnostics.MIN_SAMPLES}"
        )
    if parallel is not None and parallel < 1:
        raise ConfigError(f"--parallel must be at least 1, got {parallel}")
    phase_seconds = {"equilibrium": 0.0, "rows": 0.0, "classify": 0.0}

    states: list = []
    for rho in rhos:  # a zero density is the vacuum
        row = {"n_trunc": resolved["n_trunc"], "rho": rho}
        try:
            states.append(_construct("initial_condition", dynamics.monodisperse_state, initial, **row))
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            states.append(f"error: {exc}")
    with _phase(phase_seconds, "rows"):
        results = _sweep_row(kernel, cfg, states)  # through the module, which a tracer may wrap
    cp = cp_error = rho_c_block = None
    if rhos:
        keys = ("method", "ladder_length", *equilibrium.FAR_FIELDS)
        rho_c_block = dict.fromkeys(keys)
        with _phase(phase_seconds, "equilibrium"):
            try:
                cp = equilibrium.chemical_potential(kernel, analysis.equilibrium_k_max)
            except (ValueError, RuntimeError, ArithmeticError) as exc:
                cp_error = f"error: {exc}"
            else:  # without rho_c, each row reports the failure as it classifies
                with contextlib.suppress(ValueError, RuntimeError, ArithmeticError):
                    info = equilibrium.critical_density_info(cp)
                    rho_c_block = {key: getattr(info, key) for key in keys}

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
    with _csv.atomic_writer(os.path.join(out, "sweep.csv")) as fh:
        fh.write(",".join(columns).encode() + b"\n")
        writer = _csv.Writer(fh)
        for row in rows:
            writer.write(*(np.array([row.get(name, "")]) for name in columns))
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
    resolved, _ = _resolve(config, "weights")
    table = {**_STATES, "tails": _tails}
    constructor, params = bind_choice("weights_input", resolved.get("weights_input"), table, _SUPPLIED)
    k_max = resolved["weights_k_max"]
    source = _construct("weights_input", constructor, params, n_trunc=resolved["n_trunc"], cp=None)
    try:
        result = diagnostics.superlinear_weights(source, k_max, is_tail_sequence=constructor is _tails)
    except (diagnostics.NotIntegrableError, ValueError) as exc:
        raise ConfigError(f"bad weights input: {exc}") from exc
    out = _ensure_out(out_dir)
    columns = (range(len(result.g)), result.g, result.phi_steps[: len(result.g)])
    _csv.write(os.path.join(out, "weights.csv"), "k,g_k,phi_k", *columns)
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


def _number(text: str) -> float:
    """A ``--rho`` or ``--phi`` value, a number as a config's numbers are."""
    value = float(text)
    fits, rule = judge(value, float)
    if not fits:
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return value


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
    p_eq.add_argument("--rho", type=_number, default=None, help="target density")
    p_eq.add_argument("--phi", type=_number, default=None, help="target fugacity")

    p_sim = sub.add_parser("simulate", help="integrate the truncated system")
    add_common(p_sim)
    p_sim.add_argument("--resume", default=None, help="checkpoint to resume from")

    p_sweep = sub.add_parser("sweep", help="density sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--parallel", type=int, default=None, help="no effect; kept for the benchmark")

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
