"""Rate kernels and their structural audits.

A kernel K(k, j) is the rate at which a size-k cluster hands one monomer to
a size-j cluster (j = 0 meaning empty volume).  Everything downstream —
well-posedness of the truncated dynamics, existence of product-form
equilibria, the phase transition — hinges on structural properties of K,
and this demo shows how to check them on a sampled grid.
"""

import numpy as np

from edgrow import (
    additive_kernel,
    audit_assumptions,
    bda_residual,
    condensing_kernel,
    constant_kernel,
    separable_kernel,
)

print("=== built-in kernel families ===")
families = {
    "constant            K = 1": constant_kernel(),
    "condensing          K = 1 + 3/k": condensing_kernel(3.0),
    "separable           K = k (factorial weights)": separable_kernel("k", "1"),
    "product             K = k (j+1)": separable_kernel("k", "j+1"),
    "additive (no DBC)   K = k + 2(j+1)": additive_kernel(1.0, 2.0),
}
for label, kernel in families.items():
    sample = [kernel(k, j) for k, j in [(1, 0), (2, 9), (5, 7)]]
    print(f"  {label:45s} K(1,0), K(2,9), K(5,7) = {sample}")

print()
print("=== curl-free (detailed balance) residuals ===")
print("The six-rate identity K(k,l-1) K(1,k-1) K(l,0) = K(l,k-1) K(1,l-1) K(k,0)")
print("is what makes product-form equilibria exist.  Log-space defect at (2,3):")
for label, kernel in families.items():
    residual = bda_residual(kernel, 2, 3)
    print(f"  {label:45s} residual = {residual:.3e}")

print()
print("=== sampled assumption audit (100 x 100 grid) ===")
print("k1: linear growth bound    k2: increment regularity")
print("k3: continuity at infinity (top-decile ratio deviation)")
print("k4: sublinear donor envelopes")
for label, kernel in families.items():
    report = audit_assumptions(kernel, 100, 100)
    print(
        f"  {label:45s} k1={report.k1_ok!s:5s} k2={report.k2_ok!s:5s} "
        f"k3_dev={report.k3_ratio_deviation:.2e} k4={report.k4_ok!s:5s} "
        f"bda_max={report.bda_max_residual:.2e}"
    )

print()
print("The additive kernel fails the curl-free identity (residual ~1e-2): it")
print("has no chemical potential and no product equilibria.  The product")
print("kernel passes it but grows linearly in the donor size (k4 False), so")
print("the longtime theory does not cover it.")
