"""Tests of the benchmark itself: tracing leaves outputs alone, broken
outputs count as failed operations, inputs follow the seed, and
``BENCHMARK.json`` lists the metrics the benchmark reports."""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_SIMULATE = {
    "kernel": {"family": "constant", "value": 1.0},
    "n_trunc": 24,
    "initial_condition": {"type": "monodisperse", "rho": 1.0, "m": 1},
    "integrator": {"t_end": 2.0, "record_every": 0.1},
    "analysis": {"equilibrium_k_max": 2000, "checkpoint_every": 0.5},
}
SMALL_SWEEP = {
    "kernel": {"family": "condensing", "c": 3.0},
    "n_trunc": 24,
    "initial_condition": {"type": "monodisperse"},
    "integrator": {"t_end": 5.0, "record_every": 0.5},
    "analysis": {"equilibrium_k_max": 4000},
    "densities": [0.5, 2.0],
}
SMALL_STIFF = {
    "kernel": {"family": "additive", "donor_coeff": 1.0, "acceptor_coeff": 2.0},
    "n_trunc": 16,
    "initial_condition": {"type": "monodisperse", "rho": 1.0, "m": 1},
    "integrator": {"t_end": 0.5},
    "analysis": {"thermo": False, "classify": False},
}


def _run(tmp_path, name, config, subcommand, trace):
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / name
    request = {
        "src": os.path.join(ROOT, "src"),
        "argv": [subcommand, "--config", str(config_path), "--out", str(out)],
        "trace": trace,
        "spans_path": str(tmp_path / f"{name}-spans.json"),
    }
    result = harness.run(request)
    assert result["exit_code"] == 0
    return str(out)


@pytest.mark.parametrize(
    "config, subcommand", [(SMALL_SIMULATE, "simulate"), (SMALL_SWEEP, "sweep")]
)
def test_traced_run_writes_same_outputs(tmp_path, config, subcommand):
    import edgrow.equilibrium

    original = edgrow.equilibrium.density_at_fugacity
    plain = _run(tmp_path, "plain", config, subcommand, trace=False)
    traced = _run(tmp_path, "traced", config, subcommand, trace=True)
    assert workloads.csv_digests(plain) == workloads.csv_digests(traced)
    assert workloads.csv_digests(plain)
    with open(tmp_path / "traced-spans.json", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    summary = tracing.summarize(spans)
    assert summary["equilibrium.density_at_fugacity"]["calls"] > 0
    assert summary["dynamics._rhs_from_c"]["calls"] > 0
    assert edgrow.equilibrium.density_at_fugacity is original  # wrappers removed


def test_missing_trace_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(
        tracing, "EXTRA_TARGETS", tracing.EXTRA_TARGETS + (("dynamics", "no_such_function"),)
    )
    with pytest.raises(tracing.TraceTargetMissing):
        tracing.Tracer().install()


def test_self_time_subtracts_children():
    spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0], ["b", 0, 5.0, 6.0]]
    summary = tracing.summarize(spans)
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert tracing.root_time(spans) == 10.0


def _record(out_dir, problems):
    return {"problems": problems, "digests": workloads.csv_digests(out_dir)}


def test_failure_counter_trips_on_broken_output(tmp_path):
    work = workloads.Workload("stiff-additive", 1, "simulate", SMALL_STIFF)
    out = _run(tmp_path, "stiff", SMALL_STIFF, "simulate", trace=False)
    good = _record(out, workloads.check(work, out))
    assert good["problems"] == []
    assert bench_run.count_failures([good, dict(good, problems=[])]) == 0

    path = os.path.join(out, "trajectory.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    t, k, _ = lines[-1].split(",")
    lines[-1] = f"{t},{k},-1e-3"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    broken = _record(out, workloads.check(work, out))
    assert any("negative" in problem for problem in broken["problems"])
    assert bench_run.count_failures([dict(good, problems=[]), broken]) == 1


def test_failure_counter_trips_on_nondeterministic_csv():
    runs = [
        {"problems": [], "digests": {"sweep.csv": "aa"}},
        {"problems": [], "digests": {"sweep.csv": "bb"}},
    ]
    assert bench_run.count_failures(runs) == 1
    assert runs[1]["problems"] == ["CSV outputs differ from the first run"]


def test_sweep_check_flags_wrong_regime_and_order(tmp_path):
    work = workloads.phase_sweep(0)
    header = "rho,regime,weak_d_final,strong_d_final,excess_mass,f_gap,boundary_mass,status\n"
    rows = [f"{rho},{'subcritical' if rho < 1 else 'supercritical'},0,0,0,0,0,ok\n"
            for rho in work.densities]
    (tmp_path / "sweep.csv").write_text(header + "".join(rows))
    assert workloads.check(work, str(tmp_path)) == []
    rows[0] = rows[0].replace("subcritical", "supercritical")
    rows[1], rows[2] = rows[2], rows[1]
    (tmp_path / "sweep.csv").write_text(header + "".join(rows))
    problems = workloads.check(work, str(tmp_path))
    assert len(problems) == 2


def test_seeded_inputs():
    assert workloads.phase_sweep(0).densities == [0.25, 0.5, 0.75, 1.5, 2.0, 3.0]
    assert workloads.relax_thermo(0).config["initial_condition"]["type"] == "monodisperse"
    for seed in (1, 2, 3):
        assert workloads.build("phase-sweep", seed).config == workloads.phase_sweep(seed).config
        densities = workloads.phase_sweep(seed).densities
        assert all(0.2 <= r <= 0.9 for r in densities[:3])
        assert all(1.2 <= r <= 3.0 for r in densities[3:])
        for build in (workloads.relax_thermo, workloads.stiff_additive):
            config = build(seed).config
            values = config["initial_condition"]["values"]
            assert len(values) == config["n_trunc"] + 1
            assert min(values[:9]) > 0.0 and max(values[9:]) == 0.0
            assert sum(values) == pytest.approx(1.0, abs=1e-14)
            assert sum(k * c for k, c in enumerate(values)) == pytest.approx(1.0, abs=1e-14)
    assert workloads.relax_thermo(1).config != workloads.relax_thermo(2).config


def test_benchmark_json_lists_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.GENERATORS)
    for section, trace in (("end_to_end", False), ("per_layer", True)):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        assert listed == bench_run.units(trace)
