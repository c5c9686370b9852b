#!/usr/bin/env python3
"""Compare the four marginal dependence measures on three relationships:
linear, nonlinear (symmetric, so Pearson is blind to it), and independent."""

import numpy as np

import kscreen as ks

rng = np.random.default_rng(1)
n = 150
x = rng.standard_normal(n)

cases = {
    "linear      y = 0.8 x + noise": 0.8 * x + 0.6 * rng.standard_normal(n),
    "nonlinear   y = cos(2x) + noise": np.cos(2 * x) + 0.3 * rng.standard_normal(n),
    "independent y ~ N(0,1)": rng.standard_normal(n),
}

# Each Gram matrix is held as a low-rank factor L with K ~= L L^T.  kcca
# reads the retained eigenpairs of each centered Gram, hsic the centered
# factor itself, and dcor scores x's raw samples against the response's
# double-centered distance matrix.
lx = ks.gram(x, ks.bandwidth(x))
gx = ks.center_and_decompose(lx)

print(f"{'relationship':38s} {'kcca':>8s} {'hsic':>8s} {'dcor':>8s} {'|pearson|':>10s}")
for label, y in cases.items():
    ly = ks.gram(y, ks.bandwidth(y))
    kcca = ks.kcca_singular_value(gx, ks.center_and_decompose(ly), epsilon=0.1)
    hsic = ks.hsic_score(ks.center(lx), ks.center(ly))
    dcor = ks.dcor_score(x, dy=ks.centered_distances(y))
    pear = ks.pearson_score(x, y)
    print(f"{label:38s} {kcca:8.4f} {hsic:8.4f} {dcor:8.4f} {pear:10.4f}")

print("""
Pearson collapses on the symmetric nonlinear case while the kernel measures
and distance correlation still see it.  Under independence every measure
drops far below its dependent-case value (the kcca score keeps some finite-
sample level at small ridges, and its ridge keeps it strictly below 1).
""")

print("== Ridge regularization in the kcca score ==")
y = np.cos(2 * x) + 0.3 * rng.standard_normal(n)
gy = ks.center_and_decompose(ks.gram(y, ks.bandwidth(y)))
for eps in (1e-4, 1e-2, 1.0, 1e2):
    print(f"  epsilon = {eps:7.0e} -> score {ks.kcca_singular_value(gx, gy, eps):.4f}")
print("self-dependence has the closed form d0/(d0+eps):")
for eps in (1e-2, 1.0):
    got = ks.kcca_singular_value(gx, gx, eps)
    print(f"  eps={eps:5g}: score {got:.6f} vs closed form {gx.d[0]/(gx.d[0]+eps):.6f}")
