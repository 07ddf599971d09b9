"""Planar references that the ``verify`` suites check the fast paths with.

An exact angular hull test, a polar-grid sweep of the alignment gap and
the closed-form efficient set of the shipped figure1 problem: dense
grids and closed forms that trade speed for independence and share no
code with the QP solvers they check. The sweeps are planar (n = 2)
because exhaustive search is only viable there; callers must not feed
them higher-dimensional data. The slower references that only the tests
use live in ``tests/reference.py``.
"""

from __future__ import annotations

import math

import numpy as np

Array = np.ndarray


def hull_contains_origin_2d(gradients: Array) -> bool:
    """Exact planar test: does conv{g_i/||g_i||} contain the origin?

    Uses the angular-gap criterion: the origin escapes the hull exactly when
    all directions fit in an open half-plane, i.e. the largest cyclic gap
    between sorted gradient angles exceeds pi (by more than 1e-9 rad, an
    angle tolerance of its own, not the central QP's ``QP_TOL``).
    """
    grads = np.atleast_2d(np.asarray(gradients, dtype=float))
    if grads.shape[1] != 2:
        raise ValueError("planar oracle only")
    norms = np.linalg.norm(grads, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("null gradient")
    angles = np.sort(np.arctan2(grads[:, 1], grads[:, 0]))
    gaps = np.diff(angles, append=angles[0] + 2.0 * math.pi)
    max_gap = float(gaps.max())
    return max_gap <= math.pi + 1e-9


def angular_sweep_alignment_gap(
    gradients: Array, radius: float, angles: int = 10000, radii: int = 200
) -> float:
    """Planar sweep for min over ||v|| <= R of max_i g_i . v / ||g_i||.

    Evaluates the max of normalized linear forms on a polar grid (``angles``
    directions, ``radii`` magnitudes including 0 and R) and returns the
    smallest value seen.
    """
    grads = np.atleast_2d(np.asarray(gradients, dtype=float))
    if grads.shape[1] != 2:
        raise ValueError("planar oracle only")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    norms = np.linalg.norm(grads, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("null gradient")
    unit = grads / norms[:, None]
    thetas = np.linspace(0.0, 2.0 * math.pi, angles, endpoint=False)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    worst_unit = (dirs @ unit.T).max(axis=1)
    rs = np.linspace(0.0, radius, radii)
    values = np.outer(rs, worst_unit)
    return float(values.min())


def figure1_efficient_curve(count: int = 512) -> Array:
    """Closed-form efficient set of the shipped figure1 problem.

    The two gradients are anti-parallel exactly on the curve
    (x1 + 2)(x2 + 2) = 9 x1 x2 with x1, x2 in [-2, 0], equivalently
    x2 = 2 (x1 + 2) / (8 x1 - 2). Returns ``count`` samples from
    (-2, 0) to (0, -2).
    """
    x1 = np.linspace(-2.0, 0.0, count)
    x2 = 2.0 * (x1 + 2.0) / (8.0 * x1 - 2.0)
    return np.stack([x1, x2], axis=1)
