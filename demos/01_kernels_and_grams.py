#!/usr/bin/env python3
"""Walk through the numerical substrate: the Gaussian kernel, the
mean-pairwise-distance bandwidth rule, the low-rank factor that stands in
for each Gram matrix, and what double centering does to its spectrum."""

import numpy as np

import kscreen as ks

rng = np.random.default_rng(0)

print("== Bandwidth from the mean pairwise distance rule ==")
samples = np.array([0.0, 1.0, 2.0])
bw = ks.bandwidth(samples)
print(f"samples {samples} -> gamma = {bw.gamma:.6f}  (exactly 9/32)")

scaled = 100.0 * samples
print(f"scaled x100     -> gamma = {ks.bandwidth(scaled).gamma:.8f}  (scales by 1/c^2)")

print("\n== The kernel itself ==")
print("k(x, x)      =", ks.gaussian_kernel(3.7, 3.7, bw))
print("k(0, 1)      =", ks.gaussian_kernel(0.0, 1.0, bw))
print("k(0, 10)     =", ks.gaussian_kernel(0.0, 10.0, bw), " (far points decay)")

print("\n== The Gram matrix as a low-rank factor K ~= L L^T ==")
# Pivoted incomplete Cholesky stops once the residual trace tr(K - L L^T)
# is at most 1e-13, so the rank r stays small as n grows.
print(f"{'n':>6s} {'rank r':>7s}")
for n in (10, 100, 1000, 5000):
    pts = rng.standard_normal(n)
    print(f"{n:6d} {ks.gram(pts, ks.bandwidth(pts)).shape[1]:7d}")

pts = rng.standard_normal(8)
lf = ks.gram(pts, ks.bandwidth(pts))
k = lf @ lf.T  # formed here only to show it; the library never does
print("\nat n=8, factor shape:", lf.shape, " diagonal of L L^T:", np.round(np.diag(k), 12))

print("\n== The centered spectrum ==")
lc = ks.center(lf)
print("row sums of the centered Gram:", np.round((lc @ lc.T).sum(axis=1), 12))
cg = ks.center_and_decompose(lf)
print("retained eigenvalues (descending):", ", ".join(f"{v:.3g}" for v in cg.d))
print("rank after truncation:", cg.rank, "of", cg.n)

# The constant direction is annihilated: a constant sample's factor is a
# column of ones, which centers to zero and keeps no eigenpair.
flat = ks.gram(np.full(5, 3.0), ks.Bandwidth(1.0))
print("\nconstant samples: factor", flat.shape, "centers to zero:",
      ks.center_and_decompose(flat).rank == 0)

# Scale-freeness: rescaling the data while recomputing the bandwidth
# reproduces the same Gram matrix.
c = -37.0
ls = ks.gram(c * pts, ks.bandwidth(c * pts))
print("max |G(cx) - G(x)| with refitted bandwidth:", np.max(np.abs(ls @ ls.T - k)))
