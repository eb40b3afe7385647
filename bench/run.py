"""edgrow benchmark: three CLI workloads, timed end to end and per module.

Usage (from the repository root)::

    python3 bench/run.py --workload phase-sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: every run
of the workload is a fresh ``harness.py`` process that times one
``edgrow.cli.main`` call, and several fresh processes time the set-up.
``--trace 1`` alternates traced and untraced runs and reports the per-layer
metrics.  Outputs of every run are checked; a run that exits non-zero,
fails a check or writes CSVs that differ from the first run's counts as a
failed operation.  The last line of stdout is the JSON result; the full
record, with the machine, is written under ``.bench_out/results/``.
See ``bench/README.md`` for the metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
HARNESS = os.path.join(HERE, "harness.py")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 3
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150.0
# Stop starting runs once another one could push the invocation past this.
DEADLINE_S = 150.0

# glibc settings for measured processes.  By default glibc returns freed
# blocks above 128 KiB to the kernel, so every N = 256 array the thermo
# observer allocates is faulted in afresh on each call: about 1.05 million
# minor faults per relax-thermo run and 30 % of its wall time.  On a shared
# virtual machine their cost varies from run to run: the run-to-run spread
# of relax-thermo's wall time was 11 % with the default settings and 4 %
# with these (2-vCPU VM).  Keeping freed memory in the heap takes that noise
# out of the gated metrics; the traced run still reports the default
# allocator's faults and wall time (``alloc.default_*``), so the churn stays
# measured.
ALLOCATOR_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),  # glibc's largest allowed value
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]


def _calls(span):
    return ("count", lambda s: s.get(span, {}).get("calls", 0))


def _self(*spans):
    return ("s", lambda s: sum(s.get(name, {}).get("self_s", 0.0) for name in spans))


# Per-layer metric -> (unit, function of the span summary).  Metrics that
# need more than one run's spans are added in measure_traced.
PER_LAYER = {
    "equilibrium.density_at_fugacity.calls": _calls("equilibrium.density_at_fugacity"),
    "equilibrium.density_at_fugacity.self_s": _self("equilibrium.density_at_fugacity"),
    "equilibrium.fugacity_for_density.calls": _calls("equilibrium.fugacity_for_density"),
    "equilibrium.fugacity_for_density.self_s": _self("equilibrium.fugacity_for_density"),
    "equilibrium.critical_density_info.calls": _calls("equilibrium.critical_density_info"),
    "equilibrium.critical_density_info.self_s": _self("equilibrium.critical_density_info"),
    "equilibrium.equilibrium_profile.self_s": _self("equilibrium.equilibrium_profile"),
    "equilibrium.chemical_potential.calls": _calls("equilibrium.chemical_potential"),
    "equilibrium.chemical_potential.self_s": _self("equilibrium.chemical_potential"),
    "thermo.free_energy_sample.calls": _calls("thermo.free_energy_sample"),
    "thermo.free_energy_sample.self_s": _self("thermo.free_energy_sample"),
    "thermo.dissipation.self_s": _self("thermo.dissipation"),
    "kernels.kernel_matrix.calls": _calls("kernels.kernel_matrix"),
    "kernels.kernel_matrix.self_s": _self("kernels.kernel_matrix"),
    "dynamics.rhs.calls": _calls("dynamics._rhs_from_c"),
    "dynamics.rhs.self_s": _self("dynamics._rhs_from_c"),
    "dynamics.step.calls": _calls("dynamics.step"),
    "dynamics.step.self_s": _self("dynamics.step"),
    "dynamics.integrate.self_s": _self("dynamics.integrate"),
    "dynamics.save_checkpoint.calls": _calls("dynamics.save_checkpoint"),
    "dynamics.save_checkpoint.self_s": _self("dynamics.save_checkpoint"),
    "cli.cmd_simulate.self_s": _self("cli.cmd_simulate"),
    "cli.write_csv.self_s": _self("cli._write_trajectory_csv", "cli._write_summary_csv"),
    "diagnostics.classify_longtime.calls": _calls("diagnostics.classify_longtime"),
    "diagnostics.classify_longtime.self_s": _self("diagnostics.classify_longtime"),
    "cli.sweep_row.calls": _calls("cli._sweep_row"),
    "cli.sweep_row.self_s": _self("cli._sweep_row"),
}
RUN_LEVEL = {
    "equilibrium.critical_density_info.misses": "count",
    "dynamics.rhs_per_step": "ratio",
    "cli.csv_mib": "MiB",
    "cli.sweep.parallel_efficiency": "ratio",
    "trace.coverage_share": "ratio",
    "trace.overhead_share": "ratio",
    "alloc.default_wall_s": "s",
    "alloc.default_minor_faults": "count",
}


# ---------------------------------------------------------------- machine


def _blas_threads():
    """OpenBLAS thread count of the numpy this interpreter loads, if visible."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a checkout of its own; do not report an enclosing repository
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record(seed: int) -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "load_average": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "seed": seed,
        "allocator_env": ALLOCATOR_ENV,
    }


# ---------------------------------------------------------------- child runs


def child(request: dict, work_dir: str, default_alloc: bool = False) -> dict:
    """Run ``harness.py`` on ``request`` and return its result.

    The child runs with :data:`ALLOCATOR_ENV` unless ``default_alloc``.  It
    gets its own process group so a timeout also ends any sweep workers it
    started; every process is waited for before returning.
    """
    request = dict(request, src=SRC)
    request_path = os.path.join(work_dir, "request.json")
    result_path = os.path.join(work_dir, "result.json")
    with open(request_path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.Popen(
        [sys.executable, HARNESS, request_path, result_path],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=None if default_alloc else dict(os.environ, **ALLOCATOR_ENV),
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"harness timed out after {CHILD_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray grandchildren, if any
        except OSError:
            pass
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = err.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise RuntimeError(f"harness exited {proc.returncode}: " + " | ".join(tail))
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def setup_times(work: workloads.Workload, work_dir: str) -> list:
    request = {"mode": "setup", "kernel": work.kernel_spec, "k_max": work.setup_k_max}
    return [child(request, work_dir)["setup_s"] for _ in range(SETUP_PROBES)]


def run_once(
    work: workloads.Workload,
    work_dir: str,
    trace: bool = False,
    serial: bool = False,
    default_alloc: bool = False,
) -> dict:
    """One workload run in a fresh process; outputs checked, then deleted."""
    out_dir = os.path.join(work_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(work.config, fh, indent=1)
    request = {"mode": "run", "argv": work.argv(config_path, out_dir, serial), "trace": trace}
    if trace:
        request["spans_path"] = os.path.join(work_dir, "spans.json")
    result = child(request, work_dir, default_alloc)
    if "error" in result:
        result["problems"] = ["edgrow raised: " + result["error"].strip().splitlines()[-1]]
    elif result["exit_code"] != 0:
        result["problems"] = [f"edgrow exited {result['exit_code']}"]
    else:
        result["problems"] = workloads.check(work, out_dir)
    result["digests"] = workloads.csv_digests(out_dir) if os.path.isdir(out_dir) else {}
    result["csv_bytes"] = workloads.csv_bytes(out_dir) if os.path.isdir(out_dir) else 0
    if trace:
        with open(request["spans_path"], "r", encoding="utf-8") as fh:
            recorded = json.load(fh)
        result["summary"] = tracing.summarize(recorded["spans"])
        result["covered_s"] = tracing.root_time(recorded["spans"])
        result["cache_misses"] = recorded["cache_misses"]
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def count_failures(runs: list) -> int:
    """Runs that failed a check, or whose CSVs differ from the first run's."""
    reference = runs[0]["digests"] if runs else {}
    failed = 0
    for run in runs:
        if run["digests"] != reference:
            run["problems"].append("CSV outputs differ from the first run")
        failed += bool(run["problems"])
    return failed


def _loop(plan, seconds: float, started: float, min_rounds: int) -> list:
    """Repeat ``plan()`` (one round of runs) while another round is expected
    to end no more than half a round past ``seconds`` after ``started``."""
    rounds = []
    durations = []
    while True:
        round_start = time.perf_counter()
        rounds.append(plan())
        durations.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - started
        if elapsed + 1.5 * max(durations) > DEADLINE_S:
            break
        if len(rounds) >= min_rounds and elapsed + 0.5 * statistics.median(durations) >= seconds:
            break
    return rounds


def measure(work: workloads.Workload, seconds: float, work_dir: str, started: float):
    setup = setup_times(work, work_dir)
    runs = [r[0] for r in _loop(lambda: [run_once(work, work_dir)], seconds, started, MIN_RUNS)]
    metrics = {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": setup,
        "peak_rss_mib": [r["peak_rss_mib"] for r in runs],
    }
    return metrics, runs


def measure_traced(work: workloads.Workload, seconds: float, work_dir: str, started: float):
    """Alternate traced and untraced runs; a traced sweep runs its rows in
    process, so it is compared with an untraced serial sweep, and an
    untraced parallel sweep gives the parallel efficiency.  Each round also
    times one untraced run with glibc's default allocator settings."""
    is_sweep = work.parallel is not None

    def plan():
        batch = [run_once(work, work_dir, trace=True, serial=True)]
        batch.append(run_once(work, work_dir, serial=True))
        batch.append(run_once(work, work_dir, default_alloc=True))
        if is_sweep:
            batch.append(run_once(work, work_dir))
        return batch

    rounds = _loop(plan, seconds, started, 1)
    traced = [r[0] for r in rounds]
    untraced = [r[1] for r in rounds]
    default_alloc = [r[2] for r in rounds]
    metrics = {name: [get(r["summary"]) for r in traced] for name, (_, get) in PER_LAYER.items()}
    metrics["equilibrium.critical_density_info.misses"] = [
        r["cache_misses"].get("equilibrium.critical_density_info", 0) for r in traced
    ]
    rhs_calls, step_calls = PER_LAYER["dynamics.rhs.calls"][1], PER_LAYER["dynamics.step.calls"][1]
    metrics["dynamics.rhs_per_step"] = [
        rhs_calls(r["summary"]) / max(1, step_calls(r["summary"])) for r in traced
    ]
    metrics["cli.csv_mib"] = [r["csv_bytes"] / 2**20 for r in traced]
    metrics["trace.coverage_share"] = [r["covered_s"] / r["wall_s"] for r in traced]
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.overhead_share"] = [r["wall_s"] / untraced_wall - 1.0 for r in traced]
    metrics["alloc.default_wall_s"] = [r["wall_s"] for r in default_alloc]
    metrics["alloc.default_minor_faults"] = [r["minor_faults"] for r in default_alloc]
    if is_sweep:
        parallel_wall = statistics.median(r[3]["wall_s"] for r in rounds)
        metrics["cli.sweep.parallel_efficiency"] = [
            r["summary"].get("cli._sweep_row", {}).get("total_s", 0.0) / (parallel_wall * work.parallel)
            for r in traced
        ]
    else:
        metrics["cli.sweep.parallel_efficiency"] = [0.0]
    return metrics, [run for batch in rounds for run in batch]


def units(trace: bool) -> dict:
    if not trace:
        return dict(END_TO_END)
    out = {name: unit for name, (unit, _) in PER_LAYER.items()}
    out.update(RUN_LEVEL)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "edgrow", "__init__.py")):
        print(f"error: no edgrow sources under {SRC}", file=sys.stderr)
        return 2

    work = workloads.build(args.workload, args.seed)
    work_dir = os.path.join(OUT, "work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    machine = machine_record(args.seed)
    print(f"edgrow benchmark: workload={work.name} seed={args.seed} trace={args.trace}")
    print("machine: " + json.dumps(machine, sort_keys=True))

    try:
        measure_fn = measure_traced if args.trace else measure
        samples, runs = measure_fn(work, args.seconds, work_dir, started)
    except (RuntimeError, tracing.TraceTargetMissing) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    failed = count_failures(runs)

    unit_of = units(bool(args.trace))
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in unit_of.items()
    }
    for name, entry in metrics.items():
        print(f"  {name:44s} {entry['value']:.6g} {entry['unit']}  (median of {len(samples[name])})")
    print(f"  {'failed_ops':44s} {failed / len(runs):.6g} share  ({failed} of {len(runs)} runs)")
    for i, run in enumerate(runs):
        for problem in run["problems"]:
            print(f"  run {i}: {problem}")

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = {
        "workload": work.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine,
        "config": work.config,
        "samples": samples,
        "metrics": metrics,
        "failed_ops": failed / len(runs),
        "problems": [run["problems"] for run in runs],
    }
    name = f"{work.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
