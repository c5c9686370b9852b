#!/usr/bin/env python3
"""Walk through the numerical substrate: the Gaussian kernel, the
mean-pairwise-distance bandwidth rule, and what double centering does to a
Gram matrix's spectrum."""

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

print("\n== Gram matrix and its centered spectrum ==")
pts = rng.standard_normal(8)
k = ks.gram(pts, ks.bandwidth(pts))
print("diagonal:", np.diag(k))
print("min eigenvalue of K:", np.linalg.eigvalsh(k).min())

print("row sums of centered G:", np.round(ks.center(k).sum(axis=1), 12))
cg = ks.center_and_decompose(k)
print("retained eigenvalues (descending):", np.round(cg.d, 6))
print("rank after truncation:", cg.rank, "of", cg.n)

# The constant direction is annihilated: an all-ones kernel centers to zero
# and keeps no eigenpair.
flat = ks.center_and_decompose(np.ones((5, 5)))
print("\nall-ones kernel centers to zero:", flat.rank == 0)

# Scale-freeness: rescaling the data while recomputing the bandwidth
# reproduces the same Gram matrix.
c = -37.0
k_scaled = ks.gram(c * pts, ks.bandwidth(c * pts))
print("max |G(cx) - G(x)| with refitted bandwidth:", np.max(np.abs(k_scaled - k)))
