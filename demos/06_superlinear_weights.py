"""Adapted superlinear weights for uniform-integrability arguments.

Given any profile with finite mass, one can build a positive increasing
sequence g_k growing faster than k with two extra properties: the weighted
mass sum stays finite, and the increments obey
(k+1)(g_{k+1} - g_k) <= 2 g_k, which is the growth budget that propagates
weighted bounds through the dynamics.  The construction places breakpoints
where the profile's weighted tails fall below 1/n^2 and ramps a
piecewise-linear slope between them.
"""

import numpy as np

from edgrow import geometric_state, monodisperse_state, superlinear_weights

for label, state in (
    ("single-monomer start (delta_1)", monodisperse_state(1.0, 1, n_trunc=8)),
    ("geometric profile at fugacity 1/2", geometric_state(0.5, 400)),
):
    weights = superlinear_weights(state, 10_000)
    g = weights.g
    ks = np.arange(len(g) - 1, dtype=float)
    budget = (ks + 1.0) * np.diff(g) - 2.0 * g[:-1]
    ratio = g / (np.arange(len(g), dtype=float) + 1.0)
    print(f"=== {label} ===")
    print(f"  g_0..g_6         = {np.round(g[:7], 6)}")
    print(f"  breakpoints      = {weights.ell[:8]} ...")
    print(f"  ramp slopes      = {[round(d, 5) for d in weights.d_slopes[:6]]} ...")
    print(f"  growth budget    : max (k+1)(g_k+1 - g_k) - 2 g_k = {budget.max():.2e} (<= 0)")
    print(f"  superlinearity   : g_k/(k+1) grows from {ratio[1]:.3f} (k=1) to "
          f"{ratio[-1]:.3f} (k=10000)")
    weighted_mass = float(np.dot(g[: len(state.c)], state.c))
    print(f"  weighted mass    : sum g_k c_k = {weighted_mass:.6f} (finite by design)")
    print()

print("The weights grow without bound relative to k, yet slowly enough that")
print("the profile's own tails pay for them; that trade is exactly what the")
print("growth budget encodes.")
