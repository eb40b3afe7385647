"""The dynamics as a gradient flow of the free energy.

Under the curl-free condition the truncated system can be written as
dc/dt = -K[c] dF[c]: a state-dependent symmetric positive-semidefinite
mobility operator (built from logarithmic means of reaction pressures)
applied to the free-energy differential.  The identity is exact, so the
assembled operator reproduces the right-hand side to floating-point noise.
"""

import numpy as np

from edgrow import (
    assemble_onsager,
    chemical_potential,
    condensing_kernel,
    constant_kernel,
    equilibrium_profile,
    gradient_flow_residual,
    rhs,
    state_from_profile,
)
from edgrow.dynamics import ConcentrationProfile

rng = np.random.default_rng(12345)

for label, kernel in (
    ("constant", constant_kernel()),
    ("condensing", condensing_kernel(3.0)),
):
    cp = chemical_potential(kernel, 64)
    print(f"=== {label} kernel, truncation N = 64 ===")
    worst = 0.0
    for _ in range(20):
        c = rng.random(65) + 1e-3
        c /= c.sum()
        worst = max(worst, gradient_flow_residual(kernel, ConcentrationProfile(c), cp))
    print(f"  max |dc/dt + K[c] dF[c]| over 20 random interior states: {worst:.3e}")

    state = ConcentrationProfile(np.full(65, 1.0 / 65.0))
    operator = assemble_onsager(kernel, state, cp)
    eigenvalues = np.linalg.eigvalsh(operator.matrix)
    print(f"  mobility operator at the uniform state: symmetric defect "
          f"{np.max(np.abs(operator.matrix - operator.matrix.T)):.1e}, "
          f"smallest eigenvalue {eigenvalues[0]:+.2e}")
    print(f"  row sums (stoichiometric vectors balance): "
          f"{np.max(np.abs(operator.matrix.sum(axis=1))):.2e}")

print()
print("At an equilibrium profile both sides vanish: dF is constant across")
print("every reaction, and each reaction's stoichiometric vector sums to 0.")
kernel = condensing_kernel(3.0)
cp = chemical_potential(kernel, 400)
state = state_from_profile(equilibrium_profile(cp, rho=0.5, k_max=64), 64)
operator = assemble_onsager(kernel, state, cp)
differential = np.log(state.c) - cp.log_q_prefix(65)
print(f"  |K[w] dF[w]|_max = {np.max(np.abs(operator.matrix @ differential)):.3e}")
print(f"  |dc/dt|_max at the profile = {np.max(np.abs(rhs(kernel, state))):.3e}")
