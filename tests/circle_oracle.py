"""The O(n^3) enclosing-circle oracle shared by the metrics tests and
criterion 10: every pair (diameter) and triple (circumcircle) candidate,
keeping the smallest circle that contains every point."""

import math

import numpy as np


def brute_force_radius(points):
    """All pairs and triples, smallest valid enclosing circle."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 1:
        return 0.0
    slack = 1.0 + 1e-12
    best = math.inf

    ii, jj = np.triu_indices(n, k=1)
    centers = (pts[ii] + pts[jj]) / 2.0
    radii = np.linalg.norm(pts[ii] - pts[jj], axis=1) / 2.0
    dists = np.linalg.norm(pts[None, :, :] - centers[:, None, :], axis=2)
    valid = (dists <= radii[:, None] * slack + 1e-12).all(axis=1)
    if valid.any():
        best = radii[valid].min()

    if n >= 3:
        ii, jj, kk = np.array(
            [(i, j, k) for i in range(n) for j in range(i + 1, n)
             for k in range(j + 1, n)]
        ).T
        a, b, c = pts[ii], pts[jj], pts[kk]
        d = 2.0 * (
            a[:, 0] * (b[:, 1] - c[:, 1])
            + b[:, 0] * (c[:, 1] - a[:, 1])
            + c[:, 0] * (a[:, 1] - b[:, 1])
        )
        ok = np.abs(d) > 1e-12
        a, b, c, d = a[ok], b[ok], c[ok], d[ok]
        a2 = (a**2).sum(axis=1)
        b2 = (b**2).sum(axis=1)
        c2 = (c**2).sum(axis=1)
        ux = (a2 * (b[:, 1] - c[:, 1]) + b2 * (c[:, 1] - a[:, 1])
              + c2 * (a[:, 1] - b[:, 1])) / d
        uy = (a2 * (c[:, 0] - b[:, 0]) + b2 * (a[:, 0] - c[:, 0])
              + c2 * (b[:, 0] - a[:, 0])) / d
        centers = np.column_stack([ux, uy])
        radii = np.linalg.norm(a - centers, axis=1)
        dists = np.linalg.norm(pts[None, :, :] - centers[:, None, :], axis=2)
        valid = (dists <= radii[:, None] * slack + 1e-12).all(axis=1)
        if valid.any():
            best = min(best, radii[valid].min())

    return best
