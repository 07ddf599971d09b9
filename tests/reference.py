"""Slow, independent references the tests check the fast paths against.

Everything here trades speed for independence: dense grids, angular sweeps,
finite differences, exact rational arithmetic, one query per objective and
a first-order solve of the steepest dual, none of which shares code with
the QP solvers or the stacked queries they verify. The planar routines
(n = 2) exist because exhaustive search is only viable there; callers must
not feed them higher-dimensional data. One reference does share the QP
solvers: :func:`sample_field_reference`, the per-node loop that the batched
field sampler replaced, solves each node's QPs with cold Wolfe iterations,
so it checks the batching and the m = 2 and m = 3 closed forms, not the
QPs themselves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from modescent.directions import (
    INFEASIBLE,
    central_direction,
    row_norms,
    steepest_direction,
)
from modescent.fields import (
    DEFAULT_MASK_SCALE,
    Box,
    FieldGrid,
    _grid_axes,
    _lipschitz_min,
    _positive_lipschitz,
)
from modescent.oracle import angular_sweep_alignment_gap, hull_contains_origin_2d
from modescent.problems import MultiObjectiveProblem, QueryLedger, evaluate, gradient

Array = np.ndarray


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: a bit-for-bit comparison."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def per_objective(problem: MultiObjectiveProblem, x: Array) -> Tuple[Array, Array]:
    """The (m,) values and (m, n) gradients at x, one ``evaluate`` and one
    ``gradient`` query per objective: each through its own callable, never
    the ``stacked`` path (the queries land on a throwaway ledger)."""
    ledger = QueryLedger.for_objectives(problem.num_objectives)
    m = problem.num_objectives
    values = np.array([evaluate(problem, i, x, ledger) for i in range(m)])
    grads = np.array([gradient(problem, i, x, ledger) for i in range(m)])
    return values, grads


def project_rows_to_simplex(v: Array) -> Array:
    """Euclidean projection of each row of v onto the probability simplex
    (sort-based); a 1-D v is one row."""
    v = np.asarray(v, dtype=float)
    rows = np.atleast_2d(v)
    u = np.sort(rows, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, rows.shape[1] + 1)
    rho = ((u - css / idx) > 0).sum(axis=1)
    theta = css[np.arange(rows.shape[0]), rho - 1] / rho
    return np.maximum(rows - theta[:, None], 0.0).reshape(v.shape)


@dataclass
class BruteForceResult:
    """Grid search outcome for the planar central QP."""

    kind: str  # "direction" or "infeasible"
    vector: Optional[Array]
    norm: float
    finest_step: float
    box_half: float


def angular_sweep_feasible(gradients: Array, count: int = 10000) -> bool:
    """Planar sweep: does some direction strictly descend every objective?"""
    grads = np.atleast_2d(np.asarray(gradients, dtype=float))
    if grads.shape[1] != 2:
        raise ValueError("planar oracle only")
    norms = np.linalg.norm(grads, axis=1)
    unit = grads / norms[:, None]
    thetas = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    worst = (dirs @ unit.T).max(axis=1)
    return bool(worst.min() < 0.0)


def brute_force_central(
    gradients: Array,
    box_half: Optional[float] = None,
    coarse: int = 1 << 17,
    levels: int = 7,
    refine: int = 65,
) -> BruteForceResult:
    """Dense direction-sweep solve of the planar central QP.

    Along a fixed unit direction u the constraints g_i . V <= -||g_i||
    restricted to the ray V = r u reduce to r >= 1/s(u) with
    s(u) = min_i(-g_i . u / ||g_i||), and are unsatisfiable when s(u) <= 0.
    The minimum-norm feasible point is therefore the exact radial solve at
    the direction maximizing s, found by a dense angular grid plus shrinking
    local refinements. s is concave on the single feasible arc (a min of
    cosine lobes where positive), so each grid argmax lies within one cell
    of the true maximizer and the window chain never loses it.

    Declares "infeasible" via the exact angular hull test. Raises when the
    instance sits too close to the critical boundary for the sweep (solution
    norm above 1e4) or when no coarse direction is feasible although the
    hull test passes (grid too coarse).
    """
    grads = np.atleast_2d(np.asarray(gradients, dtype=float))
    if grads.shape[1] != 2:
        raise ValueError("planar oracle only")
    norms = np.linalg.norm(grads, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("null gradient")
    if hull_contains_origin_2d(grads):
        return BruteForceResult(
            kind="infeasible",
            vector=None,
            norm=float("inf"),
            finest_step=float("nan"),
            box_half=0.0,
        )
    if box_half is None:
        gap = angular_sweep_alignment_gap(grads, 1.0)
        if gap >= -1e-4:
            raise ValueError("instance too close to critical for the grid oracle")
        box_half = max(4.0, 2.2 / -gap)
    if box_half > 1e4:
        raise ValueError("solution norm out of grid-oracle range")
    unit = grads / norms[:, None]

    def slack_at(thetas: Array) -> Array:
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        return -(dirs @ unit.T).max(axis=1)

    thetas = np.linspace(0.0, 2.0 * math.pi, coarse, endpoint=False)
    s = slack_at(thetas)
    best = int(np.argmax(s))
    if s[best] <= 0.0:
        raise ValueError("no feasible direction on the coarse sweep")
    theta, delta = float(thetas[best]), float(thetas[1] - thetas[0])
    s_best = float(s[best])
    for _ in range(levels):
        local = np.linspace(theta - 4.0 * delta, theta + 4.0 * delta, refine)
        ls = slack_at(local)
        best = int(np.argmax(ls))
        theta, delta = float(local[best]), float(local[1] - local[0])
        s_best = float(ls[best])
    radius = 1.0 / s_best
    if radius > box_half:
        raise ValueError("solution norm out of grid-oracle range")

    def point_at(th: float) -> Optional[Array]:
        sv = float(slack_at(np.array([th]))[0])
        if sv <= 0.0:
            return None
        return np.array([math.cos(th), math.sin(th)]) / sv

    vector = point_at(theta)
    spacing = radius * delta
    for th in (theta - delta, theta + delta):
        neighbor = point_at(th)
        if neighbor is not None:
            spacing = max(spacing, float(np.linalg.norm(neighbor - vector)))
    # a smooth (single-constraint) maximum of s is only localizable to the
    # float plateau ~sqrt(eps) in angle, so never report a finer step
    spacing = max(spacing, radius * math.sqrt(np.finfo(float).eps))
    return BruteForceResult(
        kind="direction",
        vector=vector,
        norm=float(radius),
        finest_step=float(spacing),
        box_half=float(box_half),
    )


def steepest_dual_reference(gradients: Array) -> Tuple[Array, float]:
    """First-order solve of the steepest dual, for any n.

    Minimizes ||sum lambda_i g_i||^2 over the simplex with projected-gradient
    steps of size 1/L; whenever such a step fails to decrease the objective
    the iteration falls back to Frank-Wolfe steps with exact line search.
    Stops when the Frank-Wolfe gap drops below 1e-12 (relative) or after
    10000 iterations, returning the last iterate. Every iterate
    is feasible, so the returned ||V||^2 bounds the optimum from above.
    Returns (V, -0.5 ||V||^2) like ``steepest_direction``.
    """
    grads = np.atleast_2d(np.asarray(gradients, dtype=float))
    m, n = grads.shape
    if np.any(np.linalg.norm(grads, axis=1) == 0.0):
        return np.zeros(n), 0.0
    gram = grads @ grads.T
    lip = max(float(np.linalg.eigvalsh(gram)[-1]), np.finfo(float).tiny)
    lam = np.full(m, 1.0 / m)
    fw_mode = False

    def quad(l: Array) -> float:
        return 0.5 * float(l @ gram @ l)

    current = quad(lam)
    for _ in range(10000):
        g = gram @ lam
        lgl = float(lam @ g)
        gap = lgl - float(g.min())
        if gap <= 1e-12 * max(1.0, lgl):
            break
        if not fw_mode:
            cand = project_rows_to_simplex(lam - g / lip)
            value = quad(cand)
            if value < current:
                lam, current = cand, value
                continue
            fw_mode = True
        j = int(np.argmin(g))
        dgd = gram[j, j] - 2.0 * g[j] + lgl
        step = 1.0 if dgd <= 0.0 else min(max(gap / dgd, 0.0), 1.0)
        lam = lam + step * (np.eye(m)[j] - lam)
        current = quad(lam)
    v = -(grads.T @ lam)
    return v, -0.5 * float(v @ v)


def exact_min_norm(points):
    """Exact minimum-norm point of conv{rows of points}, for any m rows.

    Rational arithmetic on the float rows as given: each of the 2**m - 1
    faces of the hull (every nonempty subset of the rows: vertices, edges,
    triangles and so on up to all m rows) gets the min-norm point of its
    affine hull from the bordered system
    [G 1; 1 0] [w; lam] = [0; 1], solved by Gauss-Jordan elimination in
    Fractions. Faces whose system is singular (affinely dependent rows) or
    whose weights are not all >= 0 are skipped; the least squared norm
    wins. Shares no code with the kernels. Returns the point as Fractions.
    """
    rows = [[Fraction(v) for v in row] for row in np.asarray(points).tolist()]
    best, point = None, None
    for size in range(1, len(rows) + 1):
        for face in itertools.combinations(rows, size):
            system = [[sum(map(Fraction.__mul__, a, b)) for b in face] + [1, 0]
                      for a in face]
            system.append([1] * size + [0, 1])
            for c in range(size + 1):
                pivot = next((r for r in range(c, size + 1) if system[r][c]), None)
                if pivot is None:
                    break
                system[c], system[pivot] = system[pivot], system[c]
                for r in range(size + 1):
                    if r != c and system[r][c]:
                        f = system[r][c] / system[c][c]
                        system[r] = [a - f * b for a, b in zip(system[r], system[c])]
            else:
                w = [system[i][-1] / system[i][i] for i in range(size)]
                if min(w) < 0:
                    continue
                x = [sum(wi * row[k] for wi, row in zip(w, face))
                     for k in range(len(face[0]))]
                xx = sum(v * v for v in x)
                if best is None or xx < best:
                    best, point = xx, x
    return point


def exact_distance(x, exact):
    """||x - exact|| for a float point x, rounded once at the end."""
    return math.sqrt(sum((Fraction(a) - b) ** 2 for a, b in zip(x.tolist(), exact)))


def nondominated_mask(values: Array) -> Array:
    """Boolean mask of rows not dominated by any other row.

    Row u dominates row v when u <= v componentwise with at least one strict
    inequality; ties on every component leave both rows nondominated.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    n, m = vals.shape
    if m == 1:
        return vals[:, 0] == vals[:, 0].min()
    if m == 2:
        order = np.lexsort((vals[:, 1], vals[:, 0]))
        f0 = vals[order, 0]
        f1 = vals[order, 1]
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = f0[1:] != f0[:-1]
        group = np.cumsum(first) - 1
        group_min = f1[first][group]
        prefix = np.minimum.accumulate(f1[first])
        strict_min = np.full(group.max() + 1, np.inf)
        strict_min[1:] = prefix[:-1]
        keep_sorted = (f1 == group_min) & (f1 < strict_min[group])
        keep = np.zeros(n, dtype=bool)
        keep[order] = keep_sorted
        return keep
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        leq = np.all(vals <= vals[i], axis=1)
        lt = np.any(vals < vals[i], axis=1)
        dominators = leq & lt
        if np.any(dominators):
            keep[i] = False
    return keep


def pareto_filter_grid(
    problem: MultiObjectiveProblem,
    box: Tuple[float, float, float, float],
    resolution: int,
    ledger: Optional[QueryLedger] = None,
) -> Array:
    """Nondominated points of a dense planar grid over ``box``.

    Returns the (k, 2) array of grid points whose objective vectors survive
    the dominance filter. Function queries land in ``ledger`` (a throwaway
    diagnostic ledger by default).
    """
    if problem.dimension != 2:
        raise ValueError("planar oracle only")
    if ledger is None:
        ledger = QueryLedger.for_objectives(problem.num_objectives)
    xmin, xmax, ymin, ymax = box
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    values = np.empty((pts.shape[0], problem.num_objectives))
    for k, p in enumerate(pts):
        for i in range(problem.num_objectives):
            values[k, i] = evaluate(problem, i, p, ledger)
    return pts[nondominated_mask(values)]


def finite_diff_gradient(
    problem: MultiObjectiveProblem,
    i: int,
    x: Array,
    h: float = 1e-5,
    ledger: Optional[QueryLedger] = None,
) -> Array:
    """Central-difference gradient of objective i (2n function queries)."""
    if ledger is None:
        ledger = QueryLedger.for_objectives(problem.num_objectives)
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for d in range(x.size):
        e = np.zeros_like(x)
        e[d] = h
        out[d] = (
            evaluate(problem, i, x + e, ledger)
            - evaluate(problem, i, x - e, ledger)
        ) / (2.0 * h)
    return out


def sample_field_reference(
    problem: MultiObjectiveProblem,
    box: Box,
    resolution: int,
    mask_scale: float = DEFAULT_MASK_SCALE,
) -> FieldGrid:
    """:func:`~modescent.fields.sample_field`, one node at a time.

    Per node: one ``gradient`` query per objective (the per-objective
    callables, so the reference shares no query code with the batched
    ``stacked`` path), then ``steepest_direction`` and
    ``central_direction`` with the Wolfe iteration for every m (no m = 2
    or m = 3 closed form), cold. Channels and mask follow the same rules,
    with row norms after the power-of-two prescale and a row null only
    when it is exactly zero.
    """
    box, xs, ys, spacing = _grid_axes(problem, box, resolution, mask_scale)
    lip = _positive_lipschitz(problem)
    shape = (resolution, resolution)
    min_grad = np.empty(shape)
    central = np.full(shape, np.inf)
    steepest = np.empty(shape)
    mask = np.ones(shape, dtype=bool)
    ledger = QueryLedger.for_objectives(problem.num_objectives)
    for iy in range(resolution):
        for ix in range(resolution):
            x = np.array([xs[ix], ys[iy]])
            grads = np.array(
                [gradient(problem, i, x, ledger) for i in range(problem.num_objectives)]
            )
            norms = row_norms(grads)
            min_grad[iy, ix] = norms.min()
            steepest[iy, ix] = steepest_direction(grads, wolfe=True)[1]
            if norms.min() == 0.0:
                continue
            outcome = central_direction(grads, wolfe=True)
            if outcome.kind == INFEASIBLE:
                continue
            central[iy, ix] = outcome.norm
            flagged = outcome.norm_capped
            if lip is not None:
                ratio = float(_lipschitz_min(norms, lip)) / outcome.norm
                flagged = flagged or ratio <= mask_scale * spacing
            mask[iy, ix] = flagged
    return FieldGrid(
        box=box,
        resolution=resolution,
        xs=xs,
        ys=ys,
        channels={
            "min_grad_norm": min_grad,
            "central_norm": central,
            "steepest_value": steepest,
        },
        mask=mask,
    )
