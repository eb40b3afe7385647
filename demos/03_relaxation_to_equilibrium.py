"""Subcritical relaxation: strong convergence and free-energy decay.

All mass starts in single-monomer clusters (density 1, constant kernel).
The critical density of the constant kernel is infinite, so the run is
subcritical and the state converges in the mass-weighted norm to the
geometric equilibrium at fugacity 1/2.  The free energy decreases along the
way and its decay rate matches the dissipation.  Both are computed from the
recorded samples after the run, in one pass over the sample matrix.
"""

import math

import numpy as np

from edgrow import (
    IntegratorConfig,
    chemical_potential,
    constant_kernel,
    dissipation,
    equilibrium_profile,
    integrate,
    monodisperse_state,
    strong_norm,
    thermo_series,
)
from edgrow.dynamics import ConcentrationProfile

kernel = constant_kernel()
cp = chemical_potential(kernel, 2000)
target = equilibrium_profile(cp, rho=1.0, k_max=256)
print(f"target equilibrium: fugacity {target.phi}, free energy "
      f"{target.density * math.log(target.phi) - math.log(target.z_value):.6f}")

state0 = monodisperse_state(1.0, 1, n_trunc=256)
cfg = IntegratorConfig(t_end=60.0, record_every=0.5)
traj = integrate(kernel, state0, cfg)
thermo = thermo_series(traj.states, kernel, cp)

print()
print("   t     strong distance    free energy      dissipation")
for i, t in enumerate(traj.times):
    if t in (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0):
        d = strong_norm(traj.states[i] - target.omega)
        f = thermo.free_energy[i]
        diss = thermo.dissipation[i]
        diss_s = f"{diss:.3e}" if math.isfinite(diss) else "inf (boundary)"
        print(f"  {t:5.1f}  {d:15.6e}  {f:14.8f}   {diss_s}")

m0_drift, m1_drift = traj.moment_drift()
print()
print(f"conservation: cluster-count drift {m0_drift:.2e}, mass drift {m1_drift:.2e}")
print(f"free energy approaches -2 log 2 = {-2 * math.log(2):.8f}")

print()
print("free-energy balance: between consecutive samples, -dF/dt equals the")
print("dissipation at the midpoint state once the trajectory is interior")
print("(early on, empty far-tail sizes make the dissipation formally infinite):")
shown = 0
for i in range(traj.sample_count - 1):
    mid = ConcentrationProfile(0.5 * (traj.states[i] + traj.states[i + 1]))
    d_mid = dissipation(kernel, mid)
    if not math.isfinite(d_mid.value):
        continue
    dfdt = (thermo.free_energy[i + 1] - thermo.free_energy[i]) / (
        traj.times[i + 1] - traj.times[i]
    )
    print(f"  t = {traj.times[i]:5.1f}: -dF/dt = {-dfdt:.6e}   D = {d_mid.value:.6e}")
    shown += 1
    if shown == 5:
        break
