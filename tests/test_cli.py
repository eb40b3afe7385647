import copy
import csv
import gc
import json
import math
import multiprocessing
import os
import re
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from edgrow import cli, dynamics, equilibrium, kernels
from edgrow.cli import (
    EXIT_AUDIT_FAILED,
    EXIT_CONFIG,
    EXIT_INTEGRATOR,
    EXIT_OK,
    EXIT_SUPERCRITICAL,
    main,
)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    return [line.split(",") for line in path.read_text().strip().splitlines()]


CONDENSING = {"family": "condensing", "c": 3.0}
FAST_ANALYSIS = {"equilibrium_k_max": 20000, "profile_k_max": 64}


def test_check_kernel_pass(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"kernel": CONDENSING})
    out = tmp_path / "out"
    assert main(["check-kernel", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["report"]["k1_ok"] is True
    assert report["report"]["bda_max_residual"] <= 1e-12
    assert report["bda_holds_sampled"] is True


def test_check_kernel_fails_on_additive(tmp_path):
    cfg = write_config(
        tmp_path, "c.json", {"kernel": {"family": "additive", "donor_coeff": 1.0, "acceptor_coeff": 2.0}}
    )
    out = tmp_path / "out"
    assert main(["check-kernel", "--config", cfg, "--out", str(out)]) == EXIT_AUDIT_FAILED


def test_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-kernel", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_missing_kernel_key(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"n_trunc": 8})
    assert main(["check-kernel", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "kernel",
    [
        {"family": "separable", "b": "(" * 5000 + "k" + ")" * 5000},
        {"family": "separable", "b": "+".join(["k"] * 200_000)},
        {"family": "constant", "value": None},
        {"family": "condensing", "C": 2.0},
    ],
    ids=["5000-deep", "200000-terms", "null-value", "misspelled-key"],
)
def test_bad_kernel_input_is_config_error(tmp_path, kernel):
    cfg = write_config(tmp_path, "c.json", {"kernel": kernel})
    assert main(["check-kernel", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_rate_expression_depth_cut_through_check_kernel(tmp_path):
    # The cut is 100 levels.  Chains near the interpreter's recursion limit
    # once crashed with a RecursionError (exit 1) instead of exiting 64; under
    # pytest that band sat at 953-954 terms, at module level at 991-992.
    def check(terms):
        kernel = {"family": "separable", "b": "+".join(["k"] * terms)}
        cfg = write_config(tmp_path, "c.json", {"kernel": kernel})
        return main(["check-kernel", "--config", cfg, "--out", str(tmp_path)])

    assert check(100) == EXIT_OK
    assert [check(terms) for terms in range(940, 1001)] == [EXIT_CONFIG] * 61
    assert check(101) == EXIT_CONFIG


def test_non_object_analysis_is_config_error(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"kernel": CONDENSING, "analysis": [1, 2]})
    out = str(tmp_path / "out")
    assert main(["equilibrium", "--config", cfg, "--out", out, "--rho", "0.5"]) == EXIT_CONFIG


WEIGHTS_TAILS = {"type": "tails", "values": [1.0, 0.5, 0.1, 0.0]}


@pytest.mark.parametrize(
    "command, setting",
    [
        (["equilibrium", "--rho", "0.5"], {"analysis": {"equilibrium_k_max": "many"}}),
        (["equilibrium", "--rho", "0.5"], {"analysis": {"profile_k_max": -1}}),
        (["simulate"], {"n_trunc": "x"}),
        (["simulate"], {"n_trunc": True}),
        (["simulate"], {"n_trunc": 0}),
        (["simulate"], {"analysis": {"low_band": "x"}}),
        (["simulate"], {"analysis": {"equilibrium_k_max": 0}}),
        (["simulate"], {"analysis": {"excess_band_start": 32.0}}),
        (["check-kernel"], {"analysis": {"audit_k_max": 1}}),
        (["check-kernel"], {"analysis": {"audit_l_max": None}}),
        (["sweep"], {"analysis": {"equilibrium_k_max": "x"}}),
        (["simulate"], {"analysis": {"checkpoint_every": "x"}}),
        (["simulate"], {"analysis": {"checkpoint_every": True}}),
        (["simulate"], {"analysis": {"checkpoint_every": -1.0}}),
        (["simulate"], {"analysis": {"thermo": "false"}}),
        (["simulate"], {"analysis": {"classify": 0}}),
        (["simulate"], {"n_trunc": 64, "analysis": {"equilibrium_k_max": 32}}),
        (["sweep"], {"analysis": {"classify": None}}),
        (["weights"], {"weights_input": WEIGHTS_TAILS, "weights_k_max": "x"}),
        (["weights"], {"weights_input": WEIGHTS_TAILS, "weights_k_max": 64.0}),
        (["weights"], {"weights_input": WEIGHTS_TAILS, "weights_k_max": 0}),
    ],
    ids=[
        "k_max-text", "profile-negative", "n_trunc-text", "n_trunc-bool", "n_trunc-zero",
        "low_band-text", "k_max-zero", "band-float", "audit-one", "audit-null", "sweep-k_max",
        "checkpoint-text", "checkpoint-bool", "checkpoint-negative", "thermo-text",
        "classify-int", "k_max-below-n_trunc", "sweep-classify-null", "weights-k_max-text", "weights-k_max-float",
        "weights-k_max-zero",
    ],
)
def test_ill_typed_integer_setting_is_config_error(tmp_path, capsys, command, setting):
    payload = {**BASE_CONFIGS[command[0]], **setting}
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main([command[0], "--config", cfg, "--out", str(out), *command[1:]]) == EXIT_CONFIG
    assert "reads no config key" not in capsys.readouterr().err
    assert not out.exists()


# The least config each subcommand runs on, with only keys it reads.
BASE_CONFIGS = {
    "check-kernel": {"kernel": CONDENSING},
    "equilibrium": {"kernel": CONDENSING, "analysis": FAST_ANALYSIS, "rho": 0.5},
    "simulate": {"kernel": CONDENSING, "integrator": {"t_end": 1.0}, "analysis": FAST_ANALYSIS},
    "sweep": {
        "kernel": CONDENSING, "integrator": {"t_end": 1.0}, "densities": [0.5], "analysis": FAST_ANALYSIS,
    },
    "weights": {"weights_input": WEIGHTS_TAILS},
}


UNREAD_KEYS = {
    "check-kernel": ["n_trunk", "seed", "densities", "weights_input"],
    "equilibrium": ["n_trunk", "seed", "densities", "weights_input"],
    "simulate": ["n_trunk", "seed", "densities", "weights_input", "rho"],
    "sweep": ["n_trunk", "seed", "weights_input", "rho"],
    "weights": ["n_trunk", "seed", "densities", "rho", "kernel", "analysis"],
}


@pytest.mark.parametrize(
    "command, key", [(command, key) for command, keys in UNREAD_KEYS.items() for key in keys]
)
def test_top_level_key_a_subcommand_does_not_read_is_config_error(tmp_path, capsys, command, key):
    # "n_trunk": 64 used to run at the default n_trunc = 256 and exit 0.
    cfg = write_config(tmp_path, "c.json", {**BASE_CONFIGS[command], key: 64})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"{command} reads no config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_one_simulate_config_serves_check_kernel_and_equilibrium(tmp_path):
    # The README runs check-kernel, equilibrium and simulate on one config.
    cfg = write_config(tmp_path, "c.json", dict(BASE_CONFIGS["simulate"], n_trunc=32))
    for command in (["check-kernel"], ["equilibrium", "--rho", "0.5"], ["simulate"]):
        out = tmp_path / command[0]
        assert main([command[0], "--config", cfg, "--out", str(out), *command[1:]]) == EXIT_OK


def test_equilibrium_constant(tmp_path):
    cfg = write_config(
        tmp_path, "c.json", {"kernel": {"family": "constant"}, "analysis": {"equilibrium_k_max": 4000, "profile_k_max": 64}}
    )
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", cfg, "--out", str(out), "--rho", "1.0"]) == EXIT_OK
    summary = json.loads((out / "equilibrium_summary.json").read_text())
    assert summary["phi"] == pytest.approx(0.5, abs=1e-9)
    assert summary["rho_c"] == {"finite": False, "value": None}
    rows = read_rows(out / "profile.csv")
    assert rows[0] == ["l", "omega_l", "log_q_l"]
    assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-12)


def test_equilibrium_condensing(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"kernel": CONDENSING, "analysis": FAST_ANALYSIS})
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", cfg, "--out", str(out), "--rho", "1.0"]) == EXIT_OK
    summary = json.loads((out / "equilibrium_summary.json").read_text())
    assert summary["phi"] == pytest.approx(0.25, abs=1e-9)
    assert summary["z"]["value"] == pytest.approx(1.5, abs=1e-7)
    assert summary["rho_c"]["value"] == pytest.approx(1.0, abs=1e-6)


def test_equilibrium_summary_records_how_constants_were_obtained(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"kernel": CONDENSING, "analysis": FAST_ANALYSIS})
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", cfg, "--out", str(out), "--rho", "0.5"]) == EXIT_OK
    summary = json.loads((out / "equilibrium_summary.json").read_text())
    assert summary["phi_c_converged"] is True
    # The far exponent settles rho_c: no ladder is walked.
    assert summary["rho_c_method"] == "direct-tail"
    assert (summary["rho_c_ladder_length"], summary["rho_c_last_increment"]) == (0, None)
    cp = equilibrium.chemical_potential(kernels.condensing_kernel(3.0), FAST_ANALYSIS["equilibrium_k_max"])
    assert summary["rho_c_tail_defect"] == equilibrium._direct_tail(cp)[1] > 0.0
    assert "rho_c_direct_gap" not in summary

    # separable b = k, a = 1: the rate ratio grows without bound, phi_c = inf
    cfg = write_config(
        tmp_path,
        "k.json",
        {"kernel": {"family": "separable", "b": "k", "a": "1"}, "analysis": FAST_ANALYSIS},
    )
    assert main(["equilibrium", "--config", cfg, "--out", str(out), "--rho", "1.0"]) == EXIT_OK
    summary = json.loads((out / "equilibrium_summary.json").read_text())
    assert summary["rho_c_method"] == "infinite-radius"
    assert summary["rho_c"] == {"finite": False, "value": None}
    assert summary["phi_c"] == {"finite": False, "value": None}
    assert summary["rho_c_ladder_length"] == 0
    assert summary["rho_c_last_increment"] is None
    assert summary["rho_c_tail_defect"] is None
    assert summary["rho_c_exponent"] is None and summary["rho_c_exponent_error"] is None
    assert (summary["rho_c_prefix"], summary["rho_c_far_series"]) == (20000, False)


def test_summaries_record_the_far_series_of_the_phase_sweep_potential(tmp_path):
    # Condensing c = 3 at k_max = 10^6, the potential of every phase-diagram
    # sweep: sizes past 4096 come from the far expansion, whose exponent is
    # c = 3 to far better than its stated error of at most 1e-9.
    analysis = {"equilibrium_k_max": 10**6, "profile_k_max": 64}
    cfg = write_config(tmp_path, "c.json", {"kernel": CONDENSING, "analysis": analysis})
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "eq"), "--rho", "0.5"]) == EXIT_OK
    summary = json.loads((tmp_path / "eq" / "equilibrium_summary.json").read_text())
    config = dict(SWEEP_CONFIG, densities=[0.5], integrator={"t_end": 5.0, "record_every": 0.25}, analysis=analysis)
    cfg = write_config(tmp_path, "s.json", config)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"), "--parallel", "1"]) == EXIT_OK
    rho_c = json.loads((tmp_path / "sw" / "sweep_report.json").read_text())["rho_c"]
    assert rho_c == {key: summary[f"rho_c_{key}"] for key in rho_c}
    assert (rho_c["method"], rho_c["ladder_length"]) == ("direct-tail", 0)
    assert (rho_c["prefix"], rho_c["far_series"]) == (4096, True)
    assert abs(rho_c["exponent"] - 3.0) <= rho_c["exponent_error"] <= 1e-9
    assert summary["rho_c"]["value"] == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_supercritical_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"kernel": CONDENSING, "analysis": FAST_ANALYSIS})
    out = tmp_path / "out"
    code = main(["equilibrium", "--config", cfg, "--out", str(out), "--rho", "2.0"])
    assert code == EXIT_SUPERCRITICAL
    assert "rho_c=1" in capsys.readouterr().err


def test_equilibrium_needs_exactly_one_target(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"kernel": CONDENSING, "analysis": FAST_ANALYSIS})
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_out_that_is_a_file_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"kernel": CONDENSING, "analysis": FAST_ANALYSIS})
    taken = tmp_path / "afile"
    taken.write_text("kept")
    assert main(["check-kernel", "--config", cfg, "--out", str(taken)]) == EXIT_CONFIG
    assert "--out" in capsys.readouterr().err
    assert taken.read_text() == "kept"


SIM_CONFIG = {
    "kernel": {"family": "constant"},
    "n_trunc": 32,
    "initial_condition": {"type": "monodisperse", "rho": 1.0, "m": 1},
    "integrator": {"t_end": 3.0, "record_every": 0.25},
    "analysis": {"equilibrium_k_max": 2000, "checkpoint_every": 1.0},
}


def test_simulate_outputs(tmp_path):
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_rows(out / "summary.csv")
    assert rows[0] == ["t", "M0", "rho", "boundary_mass", "F", "D", "D_infinite_terms"]
    assert len(rows) == 14  # 13 samples + header
    assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-9)
    trajectory = read_rows(out / "trajectory.csv")
    assert trajectory[0] == ["t", "k", "c_k"]
    assert len(trajectory) == 13 * 33 + 1
    assert (out / "convergence.json").exists()
    assert (out / "checkpoint.json").exists()
    report = json.loads((out / "run_report.json").read_text())
    assert report["t_final"] == pytest.approx(3.0)
    assert report["config"]["analysis"]["equilibrium_k_max"] == 2000


def test_simulate_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
    for name in ("trajectory.csv", "summary.csv", "distances.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_reports_phase_times(tmp_path):
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "run_report.json").read_text())
    phases = report["phase_seconds"]
    assert sorted(phases) == ["classify", "integrate", "thermo", "write_csv"]
    assert all(value >= 0.0 for value in phases.values())
    assert phases["thermo"] > 0.0
    assert sum(phases.values()) <= report["runtime_seconds"]

    # Without the thermo columns the F/D pass does not run.
    no_thermo = dict(SIM_CONFIG, analysis={**SIM_CONFIG["analysis"], "thermo": False})
    cfg = write_config(tmp_path, "n.json", no_thermo)
    out = tmp_path / "no-thermo"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "run_report.json").read_text())
    assert report["phase_seconds"]["thermo"] == 0.0
    assert read_rows(out / "summary.csv")[1][-3:] == ["", "", ""]


def test_write_json_keeps_previous_file_when_dump_fails(tmp_path, monkeypatch):
    path = str(tmp_path / "report.json")
    cli._write_json(path, {"run": 1})

    def dump_then_fail(obj, fh, **kwargs):
        fh.write("{")
        raise TypeError("not serializable")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(TypeError):
        cli._write_json(path, {"run": 2})
    monkeypatch.undo()
    assert json.loads((tmp_path / "report.json").read_text()) == {"run": 1}
    assert os.listdir(tmp_path) == ["report.json"]


def test_simulate_zero_horizon(tmp_path):
    payload = dict(SIM_CONFIG)
    payload["integrator"] = {"t_end": 0.0}
    payload["analysis"] = {"equilibrium_k_max": 2000}
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_rows(out / "summary.csv")
    assert len(rows) == 2  # header plus the initial sample only
    assert float(rows[1][0]) == 0.0


def test_simulate_resume_matches_uninterrupted(tmp_path):
    # tighter tolerances so the restart transient stays far below the target
    base = {
        "kernel": {"family": "constant"},
        "n_trunc": 48,
        "initial_condition": {"type": "monodisperse", "rho": 1.0, "m": 1},
        "integrator": {"t_end": 2.0, "record_every": 0.25, "rtol": 1e-11, "atol": 1e-13},
        "analysis": {"equilibrium_k_max": 2000, "classify": False},
    }
    half = dict(base)
    half["integrator"] = dict(base["integrator"], t_end=1.0)
    cfg_half = write_config(tmp_path, "half.json", half)
    cfg_full = write_config(tmp_path, "full.json", base)
    out_half, out_resumed, out_full = (tmp_path / n for n in ("h", "r", "f"))
    assert main(["simulate", "--config", cfg_half, "--out", str(out_half)]) == EXIT_OK
    assert main(["simulate", "--config", cfg_full, "--out", str(out_full)]) == EXIT_OK
    assert (
        main([
            "simulate", "--config", cfg_full, "--out", str(out_resumed),
            "--resume", str(out_half / "checkpoint.json"),
        ])
        == EXIT_OK
    )

    def final_state(out_dir):
        rows = read_rows(out_dir / "trajectory.csv")[1:]
        t_last = rows[-1][0]
        return np.array([float(r[2]) for r in rows if r[0] == t_last])

    gap = final_state(out_resumed) - final_state(out_full)
    weights = 1.0 + np.arange(len(gap))
    assert float(np.dot(weights, np.abs(gap))) <= 1e-9


@pytest.mark.parametrize(
    "checkpoint", [None, "{not json", json.dumps({"t": 0.5}), json.dumps([0.5])]
)
def test_simulate_bad_resume_file_is_config_error(tmp_path, checkpoint):
    path = tmp_path / "checkpoint.json"
    if checkpoint is not None:
        path.write_text(checkpoint)
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out = tmp_path / "out"
    argv = ["simulate", "--config", cfg, "--out", str(out), "--resume", str(path)]
    assert main(argv) == EXIT_CONFIG
    assert not (out / "trajectory.csv").exists()


RESUME_CONFIG = {
    "kernel": {"family": "condensing", "c": 3.0},
    "n_trunc": 64,
    "initial_condition": {"type": "monodisperse", "rho": 0.5, "m": 1},
    "integrator": {"t_end": 6.0, "record_every": 0.5},
    "analysis": {"equilibrium_k_max": 20000, "checkpoint_every": 2.0, "classify": False},
}


class SimulatedCrash(Exception):
    pass


def crash_after_checkpoint(monkeypatch, t_crash):
    """Make the run die right after writing its checkpoint at ``t_crash``."""
    real_save = dynamics.save_checkpoint

    def save_then_crash(path, t, *args, **kwargs):
        real_save(path, t, *args, **kwargs)
        if t == t_crash:
            raise SimulatedCrash

    monkeypatch.setattr(dynamics, "save_checkpoint", save_then_crash)


def assert_resumed_outputs_match(out_full, out_resumed):
    """Every ``trajectory.csv`` and ``summary.csv`` row of the resumed run,
    from the checkpoint on, is the uninterrupted run's row."""
    for name in ("trajectory.csv", "summary.csv"):
        full = (out_full / name).read_bytes().splitlines()
        resumed = (out_resumed / name).read_bytes().splitlines()
        assert resumed[0] == full[0] and len(resumed) > 1, name
        assert resumed[1:] == full[-(len(resumed) - 1):], name


def test_simulate_resume_after_crash_is_byte_identical(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "c.json", RESUME_CONFIG)
    out_crashed, out_resumed, out_full = (tmp_path / n for n in ("c", "r", "f"))
    crash_after_checkpoint(monkeypatch, 4.0)
    with pytest.raises(SimulatedCrash):
        main(["simulate", "--config", cfg, "--out", str(out_crashed)])
    monkeypatch.undo()
    checkpoint = json.loads((out_crashed / "checkpoint.json").read_text())
    assert checkpoint["t"] == 4.0 and checkpoint["controller"]["next_record"] == 4.5

    assert main(["simulate", "--config", cfg, "--out", str(out_full)]) == EXIT_OK
    resume = ["--resume", str(out_crashed / "checkpoint.json")]
    assert main(["simulate", "--config", cfg, "--out", str(out_resumed)] + resume) == EXIT_OK
    assert_resumed_outputs_match(out_full, out_resumed)  # every sample from t = 4 on
    reports = [json.loads((out / "run_report.json").read_text()) for out in (out_full, out_resumed)]
    assert reports[1]["clamped_mass"] == reports[0]["clamped_mass"]


STIFF_RESUME_CONFIG = {
    "kernel": {"family": "additive", "donor_coeff": 1.0, "acceptor_coeff": 2.0},
    "n_trunc": 96,
    "initial_condition": {"type": "monodisperse", "rho": 1.0, "m": 1},
    "integrator": {"t_end": 2.0, "record_every": 0.25},
    "analysis": {"checkpoint_every": 0.5, "thermo": False, "classify": False},
}


def crash_stiff_run(tmp_path, monkeypatch):
    """Run ``STIFF_RESUME_CONFIG`` until it dies after its checkpoint at
    ``t = 1.5``; returns the config path and the checkpoint path."""
    cfg = write_config(tmp_path, "stiff.json", STIFF_RESUME_CONFIG)
    out_crashed = tmp_path / "crashed"
    with monkeypatch.context() as crash:
        crash_after_checkpoint(crash, 1.5)
        with pytest.raises(SimulatedCrash):
            main(["simulate", "--config", cfg, "--out", str(out_crashed)])
    return cfg, out_crashed / "checkpoint.json"


def test_stiff_resume_after_crash_carries_the_positivity_ceiling(tmp_path, monkeypatch):
    # On the explicit method the additive kernel meets the positivity limit,
    # so the checkpoint's ceiling is finite and the resumed steps depend on it.
    monkeypatch.setattr(dynamics, "_STIFF_THRESHOLD", math.inf)
    cfg, checkpoint_path = crash_stiff_run(tmp_path, monkeypatch)
    checkpoint = json.loads(checkpoint_path.read_text())
    ceiling = checkpoint["controller"]["dt_ceiling"]
    assert checkpoint["t"] == 1.5 and ceiling is not None and math.isfinite(ceiling)
    assert checkpoint["controller"]["method"] == "rkf45"

    out_resumed, out_full = tmp_path / "r", tmp_path / "f"
    assert main(["simulate", "--config", cfg, "--out", str(out_full)]) == EXIT_OK
    resume = ["--resume", str(checkpoint_path)]
    assert main(["simulate", "--config", cfg, "--out", str(out_resumed)] + resume) == EXIT_OK
    assert_resumed_outputs_match(out_full, out_resumed)  # every sample from t = 1.5 on
    full_report, resumed_report = (
        json.loads((out / "run_report.json").read_text()) for out in (out_full, out_resumed)
    )
    assert full_report["integrator"]["rejected"]["positivity"] > 0
    assert resumed_report["clamped_mass"] == full_report["clamped_mass"]


def test_stiff_resume_after_crash_on_rodas4_is_byte_identical(tmp_path, monkeypatch):
    # The same run takes RODAS4 by itself; the checkpoint carries the method,
    # so the resumed run steps as the uninterrupted one, bit for bit.
    cfg, checkpoint_path = crash_stiff_run(tmp_path, monkeypatch)
    checkpoint = json.loads(checkpoint_path.read_text())
    assert checkpoint["t"] == 1.5 and checkpoint["controller"]["method"] == "rodas4"
    out_resumed, out_full = tmp_path / "r", tmp_path / "f"
    assert main(["simulate", "--config", cfg, "--out", str(out_full)]) == EXIT_OK
    resume = ["--resume", str(checkpoint_path)]
    assert main(["simulate", "--config", cfg, "--out", str(out_resumed)] + resume) == EXIT_OK
    assert_resumed_outputs_match(out_full, out_resumed)  # every sample from t = 1.5 on
    full_report, resumed_report = (
        json.loads((out / "run_report.json").read_text()) for out in (out_full, out_resumed)
    )
    assert full_report["integrator"]["method"] == resumed_report["integrator"]["method"] == "rodas4"
    assert resumed_report["clamped_mass"] == full_report["clamped_mass"]


def test_stiff_resume_from_checkpoint_without_ceiling(tmp_path, monkeypatch):
    # An explicit run's finite ceiling, dropped as in a block written before
    # checkpoints carried the ceiling or the method.
    monkeypatch.setattr(dynamics, "_STIFF_THRESHOLD", math.inf)
    cfg, checkpoint_path = crash_stiff_run(tmp_path, monkeypatch)
    payload = json.loads(checkpoint_path.read_text())
    assert math.isfinite(payload["controller"]["dt_ceiling"])
    del payload["controller"]["dt_ceiling"], payload["controller"]["method"]
    checkpoint_path.write_text(json.dumps(payload))
    controller = dynamics.load_checkpoint(checkpoint_path)[3]
    assert controller["dt_ceiling"] is None and controller["method"] == "rkf45"
    out_resumed = tmp_path / "r"
    assert main(["simulate", "--config", cfg, "--out", str(out_resumed),
                 "--resume", str(checkpoint_path)]) == EXIT_OK
    report = json.loads((out_resumed / "run_report.json").read_text())
    assert report["t_final"] == 2.0 and report["integrator"]["accepted"] > 0
    assert report["integrator"]["method"] == "rkf45"
    assert read_rows(out_resumed / "trajectory.csv")[1][0] == "1.5"


def test_simulate_resume_extends_a_finished_run_byte_identically(tmp_path):
    # The checkpoint of a finished run names the next point of the recording
    # grid, so a longer run resumed from it samples where the long run does.
    short = dict(RESUME_CONFIG, integrator=dict(RESUME_CONFIG["integrator"], t_end=3.0))
    cfg_short = write_config(tmp_path, "short.json", short)
    cfg_full = write_config(tmp_path, "full.json", RESUME_CONFIG)
    out_short, out_resumed, out_full = (tmp_path / n for n in ("s", "r", "f"))
    assert main(["simulate", "--config", cfg_short, "--out", str(out_short)]) == EXIT_OK
    assert main(["simulate", "--config", cfg_full, "--out", str(out_full)]) == EXIT_OK
    resume = ["--resume", str(out_short / "checkpoint.json")]
    assert main(["simulate", "--config", cfg_full, "--out", str(out_resumed)] + resume) == EXIT_OK
    assert_resumed_outputs_match(out_full, out_resumed)


def test_simulate_resumes_checkpoint_without_controller(tmp_path):
    cfg = write_config(tmp_path, "c.json", RESUME_CONFIG)
    out_first, out_resumed = tmp_path / "a", tmp_path / "b"
    half = dict(RESUME_CONFIG, integrator=dict(RESUME_CONFIG["integrator"], t_end=3.0))
    assert main(["simulate", "--config", write_config(tmp_path, "h.json", half),
                 "--out", str(out_first)]) == EXIT_OK
    path = out_first / "checkpoint.json"
    payload = json.loads(path.read_text())
    del payload["controller"]  # as written before checkpoints carried one
    path.write_text(json.dumps(payload))
    assert dynamics.load_checkpoint(path)[3] is None
    assert main(["simulate", "--config", cfg, "--out", str(out_resumed),
                 "--resume", str(path)]) == EXIT_OK
    report = json.loads((out_resumed / "run_report.json").read_text())
    assert report["t_final"] == 6.0
    assert report["integrator"]["accepted"] > 0
    assert read_rows(out_resumed / "trajectory.csv")[1][0] == "3"


def test_simulate_resumes_checkpoint_echoing_legacy_settings(tmp_path, monkeypatch):
    # Checkpoints written before max_step was removed echo "max_step": null,
    # older ones also "positivity_floor"; the echo is not read, so each
    # resumes to the uninterrupted run's bytes.
    cfg = write_config(tmp_path, "c.json", RESUME_CONFIG)
    out_crashed, out_full = tmp_path / "c", tmp_path / "f"
    with monkeypatch.context() as crash:
        crash_after_checkpoint(crash, 4.0)
        with pytest.raises(SimulatedCrash):
            main(["simulate", "--config", cfg, "--out", str(out_crashed)])
    assert main(["simulate", "--config", cfg, "--out", str(out_full)]) == EXIT_OK
    path = out_crashed / "checkpoint.json"
    payload = json.loads(path.read_text())
    assert sorted(payload["cfg"]) == ["atol", "record_every", "rtol", "t_end"]
    for legacy in ({"max_step": None}, {"max_step": None, "positivity_floor": 0.0}):
        path.write_text(json.dumps(dict(payload, cfg=dict(payload["cfg"], **legacy)), indent=1))
        out_resumed = tmp_path / f"r{len(legacy)}"
        resume = ["--resume", str(path)]
        assert main(["simulate", "--config", cfg, "--out", str(out_resumed)] + resume) == EXIT_OK
        assert_resumed_outputs_match(out_full, out_resumed)  # every sample from t = 4 on


def test_simulate_reports_integrator_stats(tmp_path):
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    stats = json.loads((out / "run_report.json").read_text())["integrator"]
    assert sorted(stats) == [
        "accepted", "clamp_events", "dt_max", "dt_min", "method", "rejected", "rhs_evals",
    ]
    assert stats["method"] == "rkf45"
    assert sorted(stats["rejected"]) == ["error", "non_finite", "positivity"]
    assert stats["accepted"] >= 12  # at least one step per sample
    assert stats["rhs_evals"] == 6 * stats["accepted"] + 5 * sum(stats["rejected"].values())
    assert 0.0 < stats["dt_min"] <= stats["dt_max"] <= 0.25


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_simulate_rejects_non_finite_explicit_state(tmp_path, bad):
    payload = dict(SIM_CONFIG, n_trunc=2, initial_condition={"type": "explicit", "values": [0.5, bad, 0.0]})
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "trajectory.csv").exists()


def test_simulate_integrator_failure(tmp_path):
    payload = dict(SIM_CONFIG)
    payload["integrator"] = {"t_end": 1.0, "rtol": 1e-300, "atol": 1e-300}
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_INTEGRATOR
    report = json.loads((out / "run_report.json").read_text())
    assert "underflow" in report["error"]


def test_simulate_rejects_cadence_below_the_clock_resolution(tmp_path, capsys):
    payload = dict(SIM_CONFIG, integrator={"t_end": 1.0, "record_every": 5e-15})
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "resolution" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_simulate_rejects_recording_grid_too_long_to_count(tmp_path, capsys):
    payload = dict(SIM_CONFIG, integrator={"t_end": 1e10, "record_every": 5e-324})
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "record_every" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "config, key",
    [
        ({"integrator": {"t_end": 3.0, "max_step": 0.1}}, "max_step"),
        ({"integrator": {"t_end": 3.0, "rtoll": 1e-6}}, "rtoll"),
        ({"integrator": {"t_end": 3.0, "rtol": math.nan}}, "rtol"),
        ({"integrator": {"t_end": 3.0, "atol": math.inf}}, "atol"),
        ({"integrator": {"t_end": math.inf}}, "t_end"),
        ({"integrator": {"t_end": True}}, "t_end"),
        ({"integrator": {"t_end": 3.0, "record_every": "5"}}, "record_every"),
        ({"integrator": 5}, "t_end"),
        ({"analysis": {"equilibrium_kmax": 1000}}, "equilibrium_kmax"),
        ({"kernel": {"family": "constant", "value": math.nan}}, "value"),
        ({"kernel": {"family": "condensing", "c": math.inf}}, "c"),
    ],
    ids=[
        "max_step", "misspelled", "rtol-nan", "atol-infinity", "t_end-infinity", "t_end-true",
        "record_every-text", "integrator-number", "analysis-misspelled", "constant-nan", "condensing-infinity",
    ],
)
def test_simulate_rejects_unknown_or_non_finite_setting_naming_it(tmp_path, capsys, config, key):
    # JSON NaN and Infinity parse as floats; each exits 64 before integrating.
    cfg = write_config(tmp_path, "c.json", {**SIM_CONFIG, **config})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize(
    "config, flags, name",
    [
        ({"rho": math.nan}, [], "rho"),
        ({"rho": math.inf}, [], "rho"),
        ({"rho": "0.5"}, [], "rho"),
        ({"rho": True}, [], "rho"),
        ({"phi": math.inf}, [], "phi"),
        ({"phi": math.nan}, [], "phi"),
        ({}, ["--rho", "nan"], "--rho"),
        ({}, ["--rho=-inf"], "--rho"),
        ({}, ["--phi", "inf"], "--phi"),
        ({}, ["--phi", "nan"], "--phi"),
    ],
    ids=[
        "rho-nan", "rho-infinity", "rho-text", "rho-true", "phi-infinity", "phi-nan",
        "flag-rho-nan", "flag-rho-minus-inf", "flag-phi-inf", "flag-phi-nan",
    ],
)
def test_equilibrium_rejects_a_target_that_is_not_a_finite_number(tmp_path, capsys, config, flags, name):
    # A NaN density exited 1 with a stalled-bisection traceback and an
    # infinite fugacity with DivergentSeriesError; each is a config error.
    payload = {"kernel": CONDENSING, "analysis": {"equilibrium_k_max": 2000}, **config}
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", cfg, "--out", str(out), *flags]) == EXIT_CONFIG
    # A key's rule reads "config.rho must be ...", a flag's "argument --rho: must be ...".
    assert re.search(rf"{name}:? must be a finite number", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize(
    "initial, key",
    [
        ({"type": "monodisperse", "rho": 0.5, "mm": 3}, "mm"),
        ({"type": "monodisperse", "rho": 0.5, "m": 1.7}, "m"),
        ({"type": "monodisperse", "rho": 0.5, "m": 3.0}, "m"),
        ({"type": "monodisperse", "rho": 0.5, "m": True}, "m"),
        ({"type": "monodisperse", "rho": 0.5, "m": "3"}, "m"),
        ({"type": "geometric", "phi": 0.3, "rho": 0.5}, "rho"),
        ({"type": "vacuum", "rho": 0.5}, "rho"),
        ({"type": "explicit", "values": [0.5, 0.25], "n_trunc": 1}, "n_trunc"),
        ({"type": "equilibrium", "rho": 0.5, "m": 1}, "m"),
        ({"type": "explicit", "values": [0.2] * 5}, "values"),
        ({"type": "explicit", "values": [1.0] + [0.0] * 33}, "values"),
    ],
    ids=[
        "mono-mm", "mono-m-fraction", "mono-m-float", "mono-m-true", "mono-m-text",
        "geometric-rho", "vacuum-rho", "explicit-n_trunc", "equilibrium-m",
        "explicit-values-short", "explicit-values-long",
    ],
)
def test_initial_condition_key_not_read_by_its_type_is_config_error(tmp_path, capsys, initial, key):
    # "mm": 3 ran with m = 1 and "m": 1.7 ran as m = 1, both exiting 0; five
    # explicit values at n_trunc = 32 integrated at N = 4 and exited 0.
    cfg = write_config(tmp_path, "c.json", dict(SIM_CONFIG, initial_condition=initial))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"initial_condition key '{key}'" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "initial",
    [
        *({"type": "monodisperse", "rho": rho} for rho in (math.inf, math.nan, "0.5", True, -1)),
        *({"type": "geometric", "phi": phi} for phi in ("0.5", True, math.nan)),
        {"type": "equilibrium", "rho": "0.5"},
    ],
    ids=[
        "inf", "nan", "text", "true", "negative",
        "geometric-phi-text", "geometric-phi-true", "geometric-phi-nan", "equilibrium-rho-text",
    ],
)
def test_monodisperse_rho_that_is_not_a_finite_number_is_config_error(tmp_path, capsys, initial):
    # A monodisperse rho of infinity exited 1 with an OverflowError traceback
    # from ceil, and "0.5" and true ran as 0.5 and 1.0; so did a geometric
    # phi of "0.5", and an equilibrium rho of "0.5" exited 1 with a TypeError.
    key = next(key for key in initial if key != "type")
    cfg = write_config(tmp_path, "c.json", dict(SIM_CONFIG, initial_condition=initial))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"initial_condition.{key} must be a finite number" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "initial",
    [{"type": "monodisperse", "mm": 3}, {"m": 2.5}, {"m": True}, {"type": "monodisperse", "rho": 0.7}],
)
def test_sweep_initial_condition_key_not_read_is_config_error(tmp_path, capsys, initial):
    # A sweep builds its rows' states after the checks, so without this
    # every row would report the bad key as its own error.  Each row sets its
    # own rho, so a rho in the block used to be echoed and read by no row.
    cfg = write_config(tmp_path, "s.json", dict(SWEEP_CONFIG, densities=[0.5], initial_condition=initial))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    key = next(key for key in initial if key != "type")
    assert f"initial_condition key {key!r}" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_rejects_unknown_analysis_key_and_keeps_checkpoint_every(tmp_path, capsys):
    typo = dict(SWEEP_CONFIG, analysis=dict(SWEEP_CONFIG["analysis"], equilibrium_kmax=1000))
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, "t.json", typo),
                 "--out", str(out)]) == EXIT_CONFIG
    assert "'equilibrium_kmax'" in capsys.readouterr().err and not out.exists()
    # A sweep writes no checkpoint, but it still accepts the key.
    every = dict(SWEEP_CONFIG, densities=[0.5],
                 analysis=dict(SWEEP_CONFIG["analysis"], checkpoint_every=10.0))
    assert main(["sweep", "--config", write_config(tmp_path, "e.json", every),
                 "--out", str(out)]) == EXIT_OK


def test_simulate_integer_settings_give_the_float_bytes(tmp_path):
    # JSON integers are stored as floats, so "t_end": 3 steps as 3.0 does.
    outs = []
    for name, integrator in (("f", {"t_end": 3.0, "record_every": 0.25}),
                             ("i", {"t_end": 3, "record_every": 0.25, "rtol": 1e-8, "atol": 1e-12})):
        cfg = write_config(tmp_path, f"{name}.json", dict(SIM_CONFIG, integrator=integrator))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        outs.append(tmp_path / name)
    for csv_name in ("trajectory.csv", "summary.csv", "distances.csv"):
        assert (outs[0] / csv_name).read_bytes() == (outs[1] / csv_name).read_bytes(), csv_name


SWEEP_CONFIG = {
    "kernel": CONDENSING,
    "n_trunc": 96,
    "densities": [0.25, 0.5, 1.0, 1.5, 2.0],
    "integrator": {"t_end": 40.0, "record_every": 2.0},
    "analysis": {"equilibrium_k_max": 20000, "excess_band_start": 32},
}


def test_sweep_phase_diagram(tmp_path):
    cfg = write_config(tmp_path, "s.json", SWEEP_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", "2"]) == EXIT_OK
    rows = read_rows(out / "sweep.csv")
    assert rows[0][0] == "rho" and rows[0][-1] == "status"
    regimes = [r[1] for r in rows[1:]]
    assert regimes == ["subcritical", "subcritical", "critical", "supercritical", "supercritical"]
    assert all(r[-1] == "ok" for r in rows[1:])
    assert [float(r[0]) for r in rows[1:]] == SWEEP_CONFIG["densities"]


def test_sweep_row_independence(tmp_path):
    cfg_all = write_config(tmp_path, "all.json", SWEEP_CONFIG)
    smaller = dict(SWEEP_CONFIG, densities=[0.25, 1.5, 2.0])
    cfg_small = write_config(tmp_path, "small.json", smaller)
    out_all, out_small = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg_all, "--out", str(out_all)]) == EXIT_OK
    assert main(["sweep", "--config", cfg_small, "--out", str(out_small)]) == EXIT_OK
    lines_all = (out_all / "sweep.csv").read_text().strip().splitlines()
    lines_small = (out_small / "sweep.csv").read_text().strip().splitlines()
    kept = {line.split(",")[0]: line for line in lines_all[1:]}
    for line in lines_small[1:]:
        assert line == kept[line.split(",")[0]]


def test_sweep_builds_one_chemical_potential_in_the_sweep_process(tmp_path, monkeypatch):
    # Builds are logged from any thread; the row thread builds none.  The
    # row thread and the equilibrium share the kernel and its cached factor
    # tables, so --parallel 2 switches threads every microsecond: the bytes
    # must still be the serial ones.
    builds = []
    build = equilibrium.chemical_potential

    def logged_build(*args, **kwargs):
        builds.append((os.getpid(), threading.get_ident()))
        return build(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "chemical_potential", logged_build)
    cfg = write_config(tmp_path, "s.json", dict(SWEEP_CONFIG, densities=[0.5, 1.0, 2.0]))
    outputs = []
    interval = sys.getswitchinterval()
    for degree, switch in ((1, interval), (2, 1e-6)):
        builds.clear()
        out = tmp_path / f"p{degree}"
        sys.setswitchinterval(switch)
        try:
            argv = ["sweep", "--config", cfg, "--out", str(out), "--parallel", str(degree)]
            assert main(argv) == EXIT_OK
        finally:
            sys.setswitchinterval(interval)
        assert builds == [(os.getpid(), threading.get_ident())], degree
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_sweep_calls_the_row_function_once_per_density(tmp_path, monkeypatch):
    # The benchmark's tracer wraps cli._sweep_row; cmd_sweep must call it
    # through the module, once, with every density's state in input order.
    calls = []
    row = cli._sweep_row

    def counting_row(kernel, cfg, states):
        calls.append([state.first_moment for state in states])
        return row(kernel, cfg, states)

    monkeypatch.setattr(cli, "_sweep_row", counting_row)
    config = dict(SWEEP_CONFIG, densities=[0.5, 2.0, 0.25])
    cfg = write_config(tmp_path, "s.json", config)
    for degree in (1, 2, 3, 9):
        calls.clear()
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--parallel", str(degree)]) == EXIT_OK
        assert calls == [config["densities"]]


def test_sweep_starts_no_child_process_and_one_row_thread(tmp_path, monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError("a sweep started a process")

    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    config = dict(SWEEP_CONFIG, densities=[0.5, 2.0, 0.25])
    cfg = write_config(tmp_path, "s.json", config)
    outputs = []
    for degree in (1, 2, 5000):
        started.clear()
        out = tmp_path / f"p{degree}"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", str(degree)]) == EXIT_OK
        assert len(started) == 1, degree
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[1:] == outputs[:-1]
    # --parallel is the one setting; a "parallelism" key is a config error.
    cfg = write_config(tmp_path, "p.json", dict(config, parallelism=4))
    started.clear()
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "k")]) == EXIT_CONFIG
    assert started == []


@pytest.mark.parametrize("degree", [1, 2])
def test_sweep_reports_phase_times(tmp_path, monkeypatch, degree):
    # A row's runtime_s is its integration plus its classification: a
    # classification slowed by 50 ms shows in every row and in "classify".
    classify = cli.diagnostics.classify_longtime

    def slow_classify(*args, **kwargs):
        time.sleep(0.05)
        return classify(*args, **kwargs)

    monkeypatch.setattr(cli.diagnostics, "classify_longtime", slow_classify)
    config = dict(SWEEP_CONFIG, densities=[0.5, 2.0])
    cfg = write_config(tmp_path, "s.json", config)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--parallel", str(degree)]) == EXIT_OK
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    phases = report["phase_seconds"]
    assert set(phases) == {"equilibrium", "rows", "classify"}
    assert phases["equilibrium"] > 0.0 and phases["rows"] > 0.0 and phases["classify"] >= 0.1
    runtimes = [row["runtime_s"] for row in report["row_telemetry"]]
    assert all(runtime >= 0.05 for runtime in runtimes)
    if degree == 1:  # rows run here, one after another, before the equilibrium phase
        assert sum(runtimes) <= phases["rows"] + phases["classify"]
    else:  # the row thread overlaps the equilibrium phase
        assert phases["rows"] >= phases["equilibrium"]
    cfg = write_config(tmp_path, "e.json", dict(SWEEP_CONFIG, densities=[]))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--parallel", str(degree)]) == EXIT_OK
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    assert report["phase_seconds"]["equilibrium"] == 0.0 and report["rho_c"] is None


def test_serial_sweep_keeps_no_chemical_potential(tmp_path, monkeypatch):
    refs = []
    build = equilibrium.chemical_potential

    def recording_build(*args, **kwargs):
        cp = build(*args, **kwargs)
        refs.append(weakref.ref(cp))
        return cp

    monkeypatch.setattr(equilibrium, "chemical_potential", recording_build)
    cfg = write_config(tmp_path, "s.json", dict(SWEEP_CONFIG, densities=[0.5]))
    for degree in ("1", "2"):
        refs.clear()
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--parallel", degree]) == EXIT_OK
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None, degree


SWEEP_KERNELS = {
    "direct-tail": CONDENSING,
    "ladder-ceiling": {"family": "constant", "value": 1.0},
    "infinite-radius": {"family": "separable", "b": "k", "a": "1"},
    "rows fail": {"family": "separable", "b": "k - 1", "a": "1"},  # K(1, j) = 0
}


@pytest.mark.parametrize("case", sorted(SWEEP_KERNELS))
def test_sweep_pool_matches_serial_and_walks_the_ladder_once(tmp_path, monkeypatch, case):
    # Every rung evaluation, from any thread, is logged: the sweep walks the
    # ladder at most once, whether or not the rows run alongside it.
    log = tmp_path / "rungs.log"
    rung = equilibrium._ladder_rung

    def logged_rung(cp, j):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{j}\n")
        return rung(cp, j)

    monkeypatch.setattr(equilibrium, "_ladder_rung", logged_rung)
    config = dict(
        SWEEP_CONFIG,
        kernel=SWEEP_KERNELS[case],
        densities=[0.5, 2.0, 0.25],
        integrator={"t_end": 5.0, "record_every": 0.25},
    )
    cfg = write_config(tmp_path, "s.json", config)
    outputs = {}
    for degree in (1, 2):
        log.write_text("")
        out = tmp_path / f"p{degree}"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", str(degree)]) == EXIT_OK
        report = json.loads((out / "sweep_report.json").read_text())
        rho_c = report["rho_c"]
        assert set(rho_c) == {"method", "ladder_length", "exponent", "exponent_error", "prefix", "far_series"}
        logged, length = len(log.read_text().split()), rho_c["ladder_length"] or 0
        # A walk evaluates each rung up to the last once; a direct tail
        # walks none.
        assert logged == length
        rows = report["row_telemetry"]
        assert [row["rho"] for row in rows] == config["densities"]
        assert all(row["runtime_s"] > 0.0 for row in rows)
        if case == "rows fail":
            assert set(rho_c.values()) == {None}
            assert all(row["status"].startswith("error: zero-rate") for row in rows)
            assert all(row["integrator"] is None for row in rows)
        else:
            assert rho_c["method"] == case
            assert all(row["status"] == "ok" for row in rows)
            # k_max = 20000: every sum is formed term by term.  The far
            # exponent is c = 3, or 0 for the constant kernel (no tail);
            # an infinite radius has no expansion.
            assert (rho_c["prefix"], rho_c["far_series"]) == (20000, False)
            if case == "infinite-radius":
                assert rho_c["exponent"] is None
            else:
                assert rho_c["exponent"] == pytest.approx(3.0 if case == "direct-tail" else 0.0, abs=1e-9)
            assert all(row["integrator"]["accepted"] > 0 for row in rows)
        # A status holding commas is one quoted cell: every row has the 8
        # columns of the header and the status of the report.
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        assert all(len(line) == 8 and None not in line for line in table)
        assert [line["status"] for line in table] == [row["status"] for row in rows]
        outputs[degree] = (out / "sweep.csv").read_bytes()
    assert outputs[1] == outputs[2]


def test_sweep_row_programming_error_propagates(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken integrator call")

    monkeypatch.setattr(dynamics, "integrate_batch", broken)
    config = dict(SWEEP_CONFIG, densities=[0.5])
    for degree in (1, 2):  # raised on the row thread, re-raised by the sweep
        with pytest.raises(TypeError, match="broken integrator call"):
            cli.cmd_sweep(config, str(tmp_path / "out"), parallel=degree)
        assert not (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_row_numerical_error_becomes_error_row(tmp_path, monkeypatch):
    def failing(kernel, states0, cfg):
        return [dynamics.IntegratorError("step size underflow") for _ in states0]

    monkeypatch.setattr(dynamics, "integrate_batch", failing)
    cfg = write_config(tmp_path, "s.json", dict(SWEEP_CONFIG, densities=[0.5]))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", "1"]) == EXIT_OK
    rows = read_rows(out / "sweep.csv")
    assert rows[1][0] == "0.5" and rows[1][-1] == "error: step size underflow"


def test_sweep_row_integration_error_precedes_classification_error(tmp_path, monkeypatch):
    integrate_batch = dynamics.integrate_batch

    def failing_at_two(kernel, states0, cfg):
        results = integrate_batch(kernel, states0, cfg)
        underflow = dynamics.IntegratorError("step size underflow")
        return [underflow if s.first_moment == 2.0 else r for s, r in zip(states0, results)]

    def unavailable(*args, **kwargs):
        raise cli.diagnostics.RhoCUnavailableError("rho_c unavailable")

    monkeypatch.setattr(dynamics, "integrate_batch", failing_at_two)
    monkeypatch.setattr(cli.diagnostics, "classify_longtime", unavailable)
    cfg = write_config(tmp_path, "s.json", dict(SWEEP_CONFIG, densities=[0.5, 2.0]))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--parallel", "1"]) == EXIT_OK
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    rows = report["row_telemetry"]
    assert [row["status"] for row in rows] == ["error: rho_c unavailable", "error: step size underflow"]
    assert rows[0]["integrator"]["accepted"] > 0 and rows[1]["integrator"] is None
    assert report["rho_c"]["method"] == "direct-tail"


@pytest.mark.parametrize("key", ["thermo", "classify"])
def test_sweep_rejects_analysis_keys_it_would_ignore(tmp_path, capsys, key):
    # A sweep computes no free energy and classifies every row, so it takes
    # neither key, whatever its value.
    for value in (True, False):
        payload = dict(SWEEP_CONFIG, analysis=dict(SWEEP_CONFIG["analysis"], **{key: value}))
        cfg = write_config(tmp_path, "s.json", payload)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", "1"]) == EXIT_CONFIG
        assert f"analysis.{key}" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()


def test_sweep_report_echoes_only_analysis_keys_it_honours(tmp_path):
    # thermo and classify are rejected, so their defaults are not echoed;
    # checkpoint_every is still accepted and echoed.
    cfg = write_config(tmp_path, "s.json", dict(SWEEP_CONFIG, densities=[0.5]))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--parallel", "1"]) == EXIT_OK
    analysis = json.loads((tmp_path / "sweep_report.json").read_text())["config"]["analysis"]
    assert "thermo" not in analysis and "classify" not in analysis
    assert analysis["checkpoint_every"] is None
    assert analysis["equilibrium_k_max"] == SWEEP_CONFIG["analysis"]["equilibrium_k_max"]


def test_sweep_empty_densities(tmp_path):
    cfg = write_config(tmp_path, "s.json", dict(SWEEP_CONFIG, densities=[]))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert len(read_rows(out / "sweep.csv")) == 1


@pytest.mark.parametrize(
    "initial",
    [
        {"type": "geometric", "phi": 0.3},
        {"type": "explicit", "values": [0.5, 0.5]},
        {"type": "vacuum"},
        {"type": "equilibrium", "rho": 0.5},
    ],
)
def test_sweep_rejects_initial_condition_without_row_density(tmp_path, initial):
    payload = dict(SWEEP_CONFIG, densities=[0.2, 0.6], initial_condition=initial)
    cfg = write_config(tmp_path, "s.json", payload)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", "1"]) == EXIT_CONFIG
    assert not (out / "sweep.csv").exists()


def test_sweep_rejects_duplicates(tmp_path):
    cfg = write_config(tmp_path, "s.json", dict(SWEEP_CONFIG, densities=[1.0, 1.0]))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "densities",
    [["a"], [None], [True, 0.5], ["0.5"], [float("nan")], [0.5, float("inf")], [[0.5]]],
    ids=["text", "null", "bool", "numeric-text", "nan", "inf", "list"],
)
def test_sweep_rejects_densities_that_are_not_finite_numbers(tmp_path, capsys, densities):
    # JSON numbers only (bools are not), finite and >= 0; the error names the entry.
    cfg = write_config(tmp_path, "s.json", dict(SWEEP_CONFIG, densities=densities))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", "1"]) == EXIT_CONFIG
    bad = next(rho for rho in densities if type(rho) is not float or not math.isfinite(rho))
    assert repr(bad) in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_sweep_rejects_parallel_below_one(tmp_path, parallel):
    cfg = write_config(tmp_path, "s.json", dict(SWEEP_CONFIG, densities=[0.5]))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", parallel]) == EXIT_CONFIG
    assert not (out / "sweep.csv").exists()


def test_weights_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        "w.json",
        {
            "weights_input": {"type": "monodisperse", "rho": 1.0, "m": 1},
            "weights_k_max": 64,
            "n_trunc": 16,
        },
    )
    out = tmp_path / "out"
    assert main(["weights", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_rows(out / "weights.csv")
    assert rows[0] == ["k", "g_k", "phi_k"]
    assert float(rows[1][1]) == 1.0
    assert float(rows[2][1]) == pytest.approx(5.0 / 3.0)
    report = json.loads((out / "weights_report.json").read_text())
    assert report["growth_bound_margin"] <= 1e-12


def test_weights_input_key_not_read_is_config_error(tmp_path, capsys):
    # The misspelled "valuse" was ignored and the run exited 0.
    tails = [2.0**-k for k in range(40)]
    for spec, key in (({"type": "tails", "values": tails, "valuse": [9]}, "valuse"),
                      ({"type": "geometric", "phi": 0.5, "rho": 1.0}, "rho")):
        cfg = write_config(tmp_path, "w.json", {"weights_input": spec})
        out = tmp_path / "out"
        assert main(["weights", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"weights_input key {key!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [
        (["check-kernel"], {"kernel": CONDENSING}),
        (["equilibrium"], {"kernel": CONDENSING, "analysis": FAST_ANALYSIS, "rho": 0.5}),
        (["simulate"], SIM_CONFIG),
        (["sweep", "--parallel", "1"], dict(SWEEP_CONFIG, densities=[0.5, 2.0])),
        (["weights"], {"weights_input": {"type": "explicit", "values": [0.5, 0.25, 0.25]}, "n_trunc": 2}),
    ],
    ids=["check-kernel", "equilibrium", "simulate", "sweep", "weights"],
)
def test_echoed_config_reproduces_itself(tmp_path, command, config):
    # Outputs are self-describing: a run on the config a run echoes echoes
    # the same bytes.
    report = {
        "check-kernel": "kernel_report.json", "equilibrium": "equilibrium_summary.json",
        "simulate": "run_report.json", "sweep": "sweep_report.json", "weights": "weights_report.json",
    }[command[0]]
    echoes = []
    for run in ("first", "second"):
        cfg = write_config(tmp_path, f"{run}.json", echoes[-1] if echoes else config)
        out = tmp_path / run
        assert main([command[0], "--config", cfg, "--out", str(out), *command[1:]]) == EXIT_OK
        echoes.append(json.loads((out / report).read_text())["config"])
    assert json.dumps(echoes[1], sort_keys=True) == json.dumps(echoes[0], sort_keys=True)
    assert echoes[0] != config  # the echo fills in defaults


# Every block edgrow reads, each bound by one rule: (the block as errors
# name it, a key of it, the subcommand, where the key sits in the config or,
# for "resume", in the checkpoint that simulate --resume reads).
EVERY_BLOCK = [
    ("kernel", "c", "check-kernel", ("kernel", "c")),
    ("kernel", "value", "check-kernel", ("kernel", "value")),
    ("kernel", "b", "check-kernel", ("kernel", "b")),
    ("integrator", "t_end", "simulate", ("integrator", "t_end")),
    ("integrator", "record_every", "simulate", ("integrator", "record_every")),
    ("analysis", "checkpoint_every", "simulate", ("analysis", "checkpoint_every")),
    ("analysis", "equilibrium_k_max", "equilibrium", ("analysis", "equilibrium_k_max")),
    ("initial_condition", "rho", "simulate", ("initial_condition", "rho")),
    ("weights_input", "phi", "weights", ("weights_input", "phi")),
    ("config", "n_trunc", "simulate", ("n_trunc",)),
    ("config", "weights_k_max", "weights", ("weights_k_max",)),
    ("config", "rho", "equilibrium", ("rho",)),
    ("config", "phi", "check-kernel", ("phi",)),
    ("config", "densities", "sweep", ("densities",)),
    ("checkpoint", "t", "resume", ("t",)),
    ("checkpoint", "N", "resume", ("N",)),
    ("controller", "dt_next", "resume", ("controller", "dt_next")),
    ("controller", "method", "resume", ("controller", "method")),
    ("kernel", "value", "resume", ("kernel_spec", "value")),
]
BLOCK_CONFIGS = {
    "check-kernel": {"kernel": {"family": "constant", "value": 1.0}},
    "equilibrium": BASE_CONFIGS["equilibrium"],
    "simulate": dict(SIM_CONFIG, n_trunc=8),
    "sweep": dict(BASE_CONFIGS["sweep"], n_trunc=8),
    "weights": {"weights_input": {"type": "geometric", "phi": 0.5}, "weights_k_max": 64},
    "resume": dict(SIM_CONFIG, n_trunc=8, integrator={"t_end": 2.0}),
}
BAD_VALUES = {"true": True, "text": "0.5", "nan": math.nan}
# The state: each value of "c" is the repr of a float, so a JSON number is out of place.
BAD_STATE_VALUES = {"true": True, "number": 0.5, "nan": "nan", "negative": "-0.5", "text": "half"}


def with_value(document, path, value):
    """A copy of ``document`` with ``value`` at ``path``, a tuple of keys."""
    document = copy.deepcopy(document)
    *parents, last = path
    target = document
    for key in parents:
        target = target[key]
    target[last] = value
    return document


@pytest.fixture(scope="module")
def checkpoint_payload(tmp_path_factory):
    """The checkpoint of a short run of the ``resume`` config, up to t = 1."""
    tmp = tmp_path_factory.mktemp("checkpoint")
    short = dict(BLOCK_CONFIGS["resume"], integrator={"t_end": 1.0})
    assert main(["simulate", "--config", write_config(tmp, "c.json", short), "--out", str(tmp)]) == EXIT_OK
    return json.loads((tmp / "checkpoint.json").read_text())


def run_block_case(tmp_path, command, document) -> int:
    """Run ``command`` on ``document``: its config, or for ``resume`` the
    checkpoint that a simulate run of the ``resume`` config resumes from."""
    out = str(tmp_path / "out")
    if command != "resume":
        return main([command, "--config", write_config(tmp_path, "c.json", document), "--out", out])
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(document))
    cfg = write_config(tmp_path, "c.json", BLOCK_CONFIGS["resume"])
    return main(["simulate", "--config", cfg, "--out", out, "--resume", str(checkpoint)])


@pytest.mark.parametrize(
    "block, key, command, path, value",
    [
        (block, key, command, path, value)
        for block, key, command, path in EVERY_BLOCK
        for value in [*BAD_VALUES.values(), "unknown key"]
    ],
    ids=[
        f"{command}-{'.'.join(path)}-{case}"
        for block, key, command, path in EVERY_BLOCK
        for case in [*BAD_VALUES, "unknown-key"]
    ],
)
def test_every_block_rejects_a_bool_a_text_number_nan_and_an_unknown_key(
    tmp_path, capsys, checkpoint_payload, block, key, command, path, value
):
    # One rule for every block: each case exits 64 and names the block and
    # key.  At the parent, "value": true ran check-kernel to exit 0, a
    # checkpoint "t": "nan" wrote a sample at t = nan, and "dt_next": "nan"
    # never returned.
    document = checkpoint_payload if command == "resume" else BLOCK_CONFIGS[command]
    assert run_block_case(tmp_path, command, document) == EXIT_OK  # the case is the only fault
    if value == "unknown key":
        path, key, value = (*path[:-1], "bogus"), "bogus", 1.0
    assert run_block_case(tmp_path, command, with_value(document, path, value)) == EXIT_CONFIG
    # An unknown top-level key reads "<command> reads no config key 'bogus'".
    assert f"{block} key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", BAD_STATE_VALUES.values(), ids=BAD_STATE_VALUES)
def test_resumed_state_must_be_finite_nonnegative_float_reprs(tmp_path, capsys, checkpoint_payload, value):
    # A NaN or negative state ended in an uncaught ValueError (exit 1).
    values = list(checkpoint_payload["c"])
    values[1] = value
    assert run_block_case(tmp_path, "resume", dict(checkpoint_payload, c=values)) == EXIT_CONFIG
    assert "checkpoint key 'c'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


@pytest.mark.parametrize("key, value", [("dt_next", 0), ("dt_next", 0.0), ("next_record", 1.0), ("next_record", 0.5)])
def test_resumed_controller_must_step_forward(tmp_path, capsys, checkpoint_payload, key, value):
    # The checkpoint is at t = 1.  Each value fits the key's own rule; unless
    # the load rejects it, the run ends in an uncaught ValueError (exit 1).
    assert checkpoint_payload["t"] == 1.0
    document = with_value(checkpoint_payload, ("controller", key), value)
    assert run_block_case(tmp_path, "resume", document) == EXIT_CONFIG
    assert f"controller key {key!r} is {value!r}; controller.{key} must be >" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate", "--config", "x"]) == EXIT_CONFIG
