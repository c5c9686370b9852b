"""Independent brute-force oracles used to check the production paths.

Everything here is written the slow, explicit way (loops, dense n x n
Grams, dense SVDs, full eigenproblems) on purpose: these implementations must not share code
with the library paths they validate.
"""

import numpy as np

import kscreen as ks


def dense_gram(samples, bw):
    """The full n x n Gaussian Gram, K_ij = exp(-gamma ||x_i - x_j||^2)."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    diff = pts[:, None, :] - pts[None, :, :]
    return np.exp(-bw.gamma * np.sum(diff * diff, axis=2))


def center_dense(k):
    """Q k Q with the explicit centering matrix Q = I - (1/n) 1 1^T."""
    n = k.shape[0]
    q = np.eye(n) - np.full((n, n), 1.0 / n)
    g = q @ k @ q
    return 0.5 * (g + g.T)


def decompose_dense(k):
    """Dense eigendecomposition of the centered Gram, truncated as
    kernels.center_and_decompose truncates: a CenteredGram."""
    evals, evecs = np.linalg.eigh(center_dense(k))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    tol = ks.DEFAULT_TOL_REL * max(float(evals[0]), 1.0)
    keep = evals >= tol
    return ks.CenteredGram(u=evecs[:, keep].copy(), d=evals[keep].copy(), tol=tol)


def random_factor(rng, n):
    """A Gaussian Gram factor from random scalar data."""
    pts = rng.standard_normal(n)
    return ks.gram(pts, ks.bandwidth(pts))


def random_gram(rng, n):
    """A centered-and-decomposed Gaussian Gram from random data."""
    return ks.center_and_decompose(random_factor(rng, n))


def random_centered(rng, n):
    """A column-centered Gaussian Gram factor from random data."""
    return ks.center(random_factor(rng, n))


def kcca_dense_oracle(gx, gy, eps):
    """sqrt of the top eigenvalue of the dense product S_X S_Y."""

    def smoother(g):
        return g.u @ np.diag(g.d / (g.d + eps)) @ g.u.T

    prod = smoother(gx) @ smoother(gy)
    lam = np.max(np.real(np.linalg.eigvals(prod)))
    return float(np.sqrt(max(lam, 0.0)))


def hsic_double_sum(gx, gy):
    """Explicit double sum over the entries of two centered Grams."""
    n = gx.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += gx[i, j] * gy[i, j]
    return total / (n * n)


def distance_moments_brute(xs, ys):
    """Loop-based V-statistics (dCov^2, dVar^2(x), dVar^2(y)) from the
    doubly-centered distance matrices."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    if ys.ndim == 1:
        ys = ys[:, None]
    n = xs.shape[0]

    def centered_distances(pts):
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                d[i, j] = np.sqrt(np.sum((pts[i] - pts[j]) ** 2))
        c = np.zeros((n, n))
        grand = d.mean()
        for i in range(n):
            for j in range(n):
                c[i, j] = d[i, j] - d[i, :].mean() - d[:, j].mean() + grand
        return c

    a = centered_distances(xs)
    b = centered_distances(ys)
    return (float((a * b).sum()) / n ** 2, float((a * a).sum()) / n ** 2,
            float((b * b).sum()) / n ** 2)


def dcor_brute(xs, ys):
    """Loop-based doubly-centered distance correlation."""
    dcov2, dvx, dvy = distance_moments_brute(xs, ys)
    if dvx <= 0 or dvy <= 0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / np.sqrt(dvx * dvy)))


def gcv_dense_oracle(eps, ky, kxs):
    """The GCV sum assembled from dense n x n matrices by a dense SVD.

    With Z_r = (1, K_r)^T, (n+1) x n, and Z_r = W diag(sigma) V^T its SVD,
    V n x n orthogonal, the hat matrix H = Z_r^T (Z_r Z_r^T + eps I)^{-1} Z_r
    is V diag(sigma^2 / (sigma^2 + eps)) V^T, so
    I - H = V diag(eps / (sigma^2 + eps)) V^T.  The residual norm
    ||Z_Y (I - H)||_F = ||Z_Y V diag(eps / (sigma^2 + eps))||_F and the
    denominator 1 - tr(H) / n = sum(eps / (sigma^2 + eps)) / n are formed
    from the same sigma, without the cancellation of subtracting H from I.
    """
    ky = np.asarray(ky, dtype=float)
    n = ky.shape[0]
    zy = np.vstack([np.ones((1, n)), ky])
    total = 0.0
    for kx in kxs:
        zr = np.vstack([np.ones((1, n)), np.asarray(kx, dtype=float)])
        _, sigma, vt = np.linalg.svd(zr, full_matrices=False)
        shrink = eps / (sigma * sigma + eps)
        resid = (zy @ vt.T) * shrink
        total += float(np.sum(resid * resid)) / (float(np.sum(shrink)) / n) ** 2
    return total


def min_size_prefix_scan(ranking, active):
    """Smallest prefix of the ranking containing every active feature."""
    active = set(active)
    seen = set()
    for k, feature in enumerate(ranking, start=1):
        seen.add(int(feature))
        if active <= seen:
            return k
    raise AssertionError("active set not covered by ranking")
