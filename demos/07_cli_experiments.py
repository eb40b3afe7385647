"""Tour of the config-driven command line.

Every capability is also reachable through the ``edgrow`` command: kernel
audits, equilibrium analysis, simulations with checkpoints, density sweeps
and the weight construction.  This demo writes configs into a scratch
directory and invokes the CLI in-process; substitute ``edgrow <subcommand>``
on a shell for the same effect.
"""

import json
import pathlib
import tempfile

from edgrow.cli import main

scratch = pathlib.Path(tempfile.mkdtemp(prefix="edgrow-demo-"))
print(f"writing artifacts under {scratch}")


def run(title, argv):
    print(f"\n$ edgrow {' '.join(argv)}")
    code = main(argv)
    print(f"  -> exit code {code}  ({title})")
    return code


config = scratch / "condensing.json"
config.write_text(json.dumps({
    "kernel": {"family": "condensing", "c": 3.0},
    "n_trunc": 96,
    "initial_condition": {"type": "monodisperse", "rho": 0.5, "m": 1},
    "integrator": {"t_end": 30.0, "record_every": 1.0},
    "analysis": {"equilibrium_k_max": 20000, "checkpoint_every": 10.0},
}, indent=1))

run("audit passes for the condensing kernel",
    ["check-kernel", "--config", str(config), "--out", str(scratch / "audit")])

bad = scratch / "additive.json"
bad.write_text(json.dumps({"kernel": {"family": "additive"}}))
run("audit fails for the additive kernel (exit 2)",
    ["check-kernel", "--config", str(bad), "--out", str(scratch / "audit-bad")])

run("equilibrium profile at density 1 (the critical density)",
    ["equilibrium", "--config", str(config), "--out", str(scratch / "eq"), "--rho", "1.0"])
summary = json.loads((scratch / "eq" / "equilibrium_summary.json").read_text())
print(f"  phi = {summary['phi']}, Z = {summary['z']['value']:.6f}, "
      f"rho_c = {summary['rho_c']['value']:.6f}")

run("density 2 has no equilibrium (exit 3)",
    ["equilibrium", "--config", str(config), "--out", str(scratch / "eq-super"), "--rho", "2.0"])

run("simulate a subcritical run with checkpoints",
    ["simulate", "--config", str(config), "--out", str(scratch / "sim")])
convergence = json.loads((scratch / "sim" / "convergence.json").read_text())
print(f"  regime {convergence['regime']}, final strong distance "
      f"{convergence['final_strong_distance']:.2e}")

sweep_config = scratch / "sweep.json"
sweep_config.write_text(json.dumps({
    "kernel": {"family": "condensing", "c": 3.0},
    "n_trunc": 96,
    "densities": [0.25, 0.5, 1.0, 1.5, 2.0],
    "integrator": {"t_end": 40.0, "record_every": 2.0},
    "analysis": {"equilibrium_k_max": 20000, "excess_band_start": 32},
}, indent=1))
run("phase-diagram sweep across the critical density",
    ["sweep", "--config", str(sweep_config), "--out", str(scratch / "sweep")])
print("  " + (scratch / "sweep" / "sweep.csv").read_text().splitlines()[0])
for line in (scratch / "sweep" / "sweep.csv").read_text().splitlines()[1:]:
    cells = line.split(",")
    print(f"  rho={float(cells[0]):4.2f}  regime={cells[1]}")

weights_config = scratch / "weights.json"
weights_config.write_text(json.dumps({
    "weights_input": {"type": "geometric", "phi": 0.5},
    "weights_k_max": 2000,
    "n_trunc": 256,
}, indent=1))
run("superlinear weight construction for a geometric profile",
    ["weights", "--config", str(weights_config), "--out", str(scratch / "weights")])

print(f"\nall artifacts kept under {scratch}")
