"""Brute-force numpy oracles for the benchmark's correctness checks.

Nothing here imports kscreen: each score is recomputed from the raw input
arrays the benchmark generated, the slow and explicit way, so that a defect
in the library cannot hide itself by also being in its own check.

Tolerances are the acceptance suite's: KCCA relative 1e-6 (criterion 1),
distance correlation absolute 1e-10 (criterion 4).
"""

from __future__ import annotations

import numpy as np

KCCA_REL_TOL = 1e-6
DC_ABS_TOL = 1e-10
TRUNCATION_REL = 1e-10
GCV_GRID = tuple(10.0 ** k for k in range(-5, 4))


def _points(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


def _distances(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _double_center(a: np.ndarray) -> np.ndarray:
    return a - a.mean(axis=1, keepdims=True) - a.mean(axis=0, keepdims=True) + a.mean()


def gaussian_gram(samples) -> np.ndarray:
    """Dense Gaussian Gram with 1/sqrt(gamma) = 2 sqrt(2) * mean pairwise distance."""
    pts = _points(samples)
    n = pts.shape[0]
    dist = _distances(pts)
    mean_dist = dist[np.triu_indices(n, k=1)].sum() * 2.0 / (n * (n - 1))
    gamma = (np.sqrt(2.0) * mean_dist) ** -2.0
    return np.exp(-gamma * dist * dist)


def centered_spectrum(k: np.ndarray) -> tuple:
    """Eigenpairs of the double-centered Gram kept by the 1e-10 truncation."""
    g = _double_center(k)
    g = 0.5 * (g + g.T)
    evals, evecs = np.linalg.eigh(g)
    keep = evals >= TRUNCATION_REL * max(float(evals[-1]), 1.0)
    return evals[keep], evecs[:, keep]


def kcca_score(x, y, epsilon: float) -> float:
    """Largest singular value of the whitened cross-Gram matrix at epsilon."""
    dx, ux = centered_spectrum(gaussian_gram(x))
    dy, uy = centered_spectrum(gaussian_gram(y))
    if dx.size == 0 or dy.size == 0:
        return 0.0
    wx = np.sqrt(dx / (dx + epsilon))
    wy = np.sqrt(dy / (dy + epsilon))
    m = np.diag(wy) @ (uy.T @ ux) @ np.diag(wx)
    return min(float(np.linalg.svd(m, compute_uv=False)[0]), 1.0)


def dcor_score(x, y) -> float:
    """Distance correlation from the V-statistic of double-centered distances."""
    a = _double_center(_distances(_points(x)))
    b = _double_center(_distances(_points(y)))
    dcov2 = float(np.mean(a * b))
    dvar_x = float(np.mean(a * a))
    dvar_y = float(np.mean(b * b))
    if dvar_x <= 0.0 or dvar_y <= 0.0:
        return 0.0
    return min(float(np.sqrt(max(dcov2 / np.sqrt(dvar_x * dvar_y), 0.0))), 1.0)


def ranking_problems(scores, ranking) -> list:
    """Problems with a 1-based ranking as the stable descending order of scores.

    Checks that the ranking is a permutation of 1..p, that every score lies
    in [0, 1), and that scores never increase along the ranking, with ties
    broken by ascending feature index.
    """
    s = np.asarray(scores, dtype=float)
    r = np.asarray(ranking)
    p = s.shape[0]
    if r.shape != (p,) or not np.array_equal(np.sort(r), np.arange(1, p + 1)):
        return ["ranking is not a permutation of 1..p"]
    problems = []
    if not np.all((s >= 0.0) & (s < 1.0)):
        problems.append("a score lies outside [0, 1)")
    ordered = s[r - 1]
    drop = ordered[:-1] - ordered[1:]
    if np.any(drop < 0.0) or np.any((drop == 0.0) & (r[:-1] > r[1:])):
        problems.append("ranking is not the stable descending order of the scores")
    return problems


def oracle_features(p: int, ranking, rng: np.random.Generator, sample: int = 6) -> list:
    """0-based features to recompute: a seeded sample plus the top 5 of the ranking."""
    picked = set(int(r) - 1 for r in np.asarray(ranking)[:5])
    picked.update(int(j) for j in rng.choice(p, size=min(sample, p), replace=False))
    return sorted(picked)


def score_problems(kind: str, x, y, scores, ranking, rng, epsilon=None) -> list:
    """Recompute sampled and top-5 scores with the oracle and compare."""
    problems = []
    for j in oracle_features(x.shape[1], ranking, rng):
        got = float(scores[j])
        if kind == "kcca":
            want = kcca_score(x[:, j], y, epsilon)
            ok = abs(got - want) <= KCCA_REL_TOL * abs(want) + 1e-12
        else:
            want = dcor_score(x[:, j], y)
            ok = abs(got - want) <= DC_ABS_TOL
        if not ok:
            problems.append(f"feature {j + 1}: {kind} score {got!r}, oracle {want!r}")
    return problems
