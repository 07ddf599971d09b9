"""Descent-direction subproblems shared by all solvers.

Two convex programs are solved here, both over a slate of m gradient
(estimates) g_1..g_m in R^n:

* the central direction: the minimum-norm V with g_i . V <= -||g_i|| for
  every i. Normalizing each constraint by ||g_i|| shows the solution only
  depends on the gradient directions, which makes the output invariant under
  positive per-objective rescaling. The program is infeasible exactly when 0
  lies in the convex hull of the normalized gradients (a criticality
  certificate); otherwise ||V|| = 1/delta where delta is the distance from
  the origin to that hull, so ||V|| >= 1 always and blows up near critical
  points.

* the steepest direction: argmin_V max_i g_i . V + 0.5 ||V||^2, solved via
  its dual (minimize ||sum_i lambda_i g_i||^2 over the unit simplex). Its
  optimal value -0.5 ||V_s||^2 is a signed criticality measure.

Both duals ask for the minimum-norm point of a convex hull: of the
normalized gradients for the central QP, of the raw gradients for the
steepest one, and one kernel table serves both, choosing by the number of
rows m in one place (:func:`_min_norm_point` for one slate,
:func:`_min_norm_points` for a stack). For m = 2 the hull is a segment and
the kernel takes its closed form: the projection of the origin onto the
segment (Sener & Koltun 2018), which for the unit rows of the central QP is
their midpoint x, so V = -x/||x||^2; it works from the shorter row when the
rows differ widely in length, so raw rows keep their relative accuracy.
For m = 3 the hull is a triangle (:func:`_triangle_min_norm`): the min-norm
point of its affine hull when its weights are all >= 0, else the best of
the three edges' closed forms. Every other m runs one finite Wolfe corral
iteration (:func:`_wolfe_min_norm_point`, Wolfe 1976), with no iteration
budget to tune; it stops at an optimality gap of 1e-12 on the prescaled
points and stays the tested reference for the closed forms.
:func:`_stacked_qp_values` solves both QPs for a whole stack of slates at
once, for the planar field sampler, through the stack form of the table:
one broadcast for m = 2, one batched triangle solve for m = 3
(:func:`_triangle_min_norm_points`), and the Wolfe iteration slate by slate
otherwise. The central QP can start the Wolfe iteration from a given
corral (``start``): the incremental solvers change one or two slate rows
per iteration and pass the previous active set, which leaves about one
affine solve per QP instead of one per active row. Each
slate is prescaled by powers of two before any norm is taken, which is
exact, so no intermediate overflows or underflows and the answers are bit
for bit those of the unscaled arithmetic wherever that does not. A result
is lost only when it lies outside the float range itself; a row is null
only when it is exactly zero. The central solve returns the direction at
once and forms its KKT certificate (multipliers and residual) only when
first read, from the prescaled rows it keeps, so the solvers, which read
neither, do not pay for it. The corral iteration calls the LAPACK
gufuncs behind ``np.linalg.solve`` and ``cholesky`` directly
(:func:`_lapack`; numpy-private, present from 1.24): the same bits without
about 4.5 us of wrapper per call. A warm start naming the whole slate
first tries the loop's first pass without its copies (:func:`_whole_corral`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

Array = np.ndarray

DIRECTION = "direction"
INFEASIBLE = "infeasible"

# The two criticality checks of the central QP, fixed for every caller: a
# slate is critical (infeasible) when the min-norm point of its unit rows
# is at most QP_TOL from the origin, and nearly critical (``norm_capped``)
# when the direction norm 1/delta exceeds NORM_CAP.
QP_TOL = 1e-9
NORM_CAP = 1e6

# absolute optimality gap at which the min-norm iteration stops
_OPT_TOL = 1e-12


class DirectionSolverError(RuntimeError):
    """Raised when the min-norm iteration fails.

    ``best_residual`` is the optimality gap ||x||^2 - min_j p_j . x of the
    iterate it stopped at.
    """

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best KKT residual {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass
class GradientSlate:
    """Per-objective gradient estimates feeding the central QP.

    ``vectors`` has shape (m, n); ``refreshed[i]`` flips to True once entry i
    has been overwritten by an actual gradient evaluation, which separates
    warm entries from the arbitrary initial fill.
    """

    vectors: Array
    refreshed: Array

    @classmethod
    def random_unit(cls, m: int, n: int, seed: int) -> "GradientSlate":
        """Arbitrary non-null initialization: m seeded unit vectors."""
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(m, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return cls(v, np.zeros(m, dtype=bool))

    @classmethod
    def from_gradients(cls, gradients: Array) -> "GradientSlate":
        g = np.array(gradients, dtype=float)
        return cls(g, np.ones(g.shape[0], dtype=bool))

    def update(self, i: int, g: Array) -> None:
        self.vectors[i] = g
        self.refreshed[i] = True

    @property
    def all_nonnull(self) -> bool:
        """No row is exactly zero (a norm can underflow; a row cannot)."""
        return bool(np.logical_and.reduce(np.logical_or.reduce(self.vectors, axis=1)))


@dataclass
class DirectionOutcome:
    """Result of a central-direction solve.

    kind is "direction" or "infeasible". For "direction", ``vector``
    solves the QP, ``active_set``/``multipliers`` describe the KKT
    certificate (V = -sum multipliers[i] * slate[i] over the active set) and
    ``norm_capped`` flags feasible solves whose norm exceeds ``NORM_CAP``.

    For "infeasible", ``certificate`` holds simplex weights mu with
    ||sum mu_i g_i/||g_i|| || <= ``QP_TOL``, i.e. zero in the hull of
    normalized gradients, and ``kkt_residual`` is that norm.

    ``multipliers``, ``kkt_residual`` and ``slate_norm(i)`` (row i's norm,
    bit for bit :func:`row_norms`) are formed on first read from the solve's
    prescaled rows, which the outcome owns: a caller that reads none of them
    does not pay for them, and overwriting the solved slate's rows
    afterwards changes none of them.
    """

    kind: str
    vector: Optional[Array] = None
    norm: float = float("inf")
    active_set: tuple = ()
    norm_capped: bool = False
    certificate: Optional[Array] = None
    # (scaled, scaled_norms, exps, mu, delta) of the solve, or None
    _solve: Optional[tuple] = field(default=None, repr=False, compare=False)

    @cached_property
    def _kkt(self) -> Tuple[Optional[Array], float]:
        if self._solve is None:
            return None, float("nan")
        if self.kind == INFEASIBLE:
            return None, self._solve[-1]
        return _kkt_certificate(self.vector, *self._solve)

    @property
    def multipliers(self) -> Optional[Array]:
        return self._kkt[0]

    @property
    def kkt_residual(self) -> float:
        return self._kkt[1]

    def slate_norm(self, i: int) -> float:
        """The norm of slate row i, from one ``math.ldexp``."""
        _, scaled_norms, exps, _, _ = self._solve
        try:
            return math.ldexp(scaled_norms[i], int(exps[i]))
        except OverflowError:  # np.ldexp's inf, without its warning
            return math.inf


def _lapack(gufunc, message: str, *operands: Array) -> Array:
    """The LAPACK gufunc of an ``np.linalg`` routine (``solve1`` of solve with
    a 1-D right-hand side, ``cholesky_lo`` of cholesky) under the routine's
    error state: its bits, and ``LinAlgError(message)`` where it raises."""

    def fail(err: str, flag: int) -> None:
        raise LinAlgError(message)

    with np.errstate(call=fail, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return gufunc(*operands, signature="d" * len(operands) + "->d")


def _affine_minimizer(gram_s: Array) -> Array:
    """Weights of the min-norm point of the affine hull of a corral."""
    k = gram_s.shape[0]
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = gram_s
    kkt[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = _lapack(_umath_linalg.solve1, "Singular matrix", kkt, rhs)
    except LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    beta = sol[:k]
    total = float(beta.sum())
    if abs(total - 1.0) > 1e-8 and abs(total) > 1e-300:
        beta = beta / total
    return beta


def _rowdot(a: Array, b: Array) -> Array:
    """Dot products of matching rows over the leading axes.

    Bit for bit the 1-D ``a[i] @ b[i]`` of each pair: a stacked matmul runs
    the single product's kernel on every element, where a sum of products
    rounds differently.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _segment_min_norm(p: Array, q: Array) -> Tuple[Array, Array]:
    """Minimum-norm point of the segment [p, q] in closed form.

    Broadcasts over leading axes. Returns (x, w) with x = p - w (p - q) and
    w = clip(p . (p - q) / ||p - q||^2, 0, 1): the projection of the origin
    onto the segment, the two-task formula of Sener & Koltun (2018). It is
    evaluated from the midpoint c = (p + q) / 2 as w = 1/2 + t with
    t = c . (p - q) / ||p - q||^2 and x = c - t (p - q), equal in exact
    arithmetic; the rounding of t then scales with ||c|| instead of ||p||, so
    a nearly opposed pair (a nearly critical central QP, ||x|| small) keeps
    its relative accuracy. When one row is much shorter than the midpoint,
    4 min(||p||^2, ||q||^2) <= ||c||^2, x lies within the short row's length
    of the origin and the midpoint form would round it at the scale of the
    long row; such pairs are evaluated from the short row a instead, as
    x = a - s (a - b) with s = clip(a . (a - b) / ||a - b||^2, 0, 1). The
    test is taken in its equivalent form 3 ||c||^2 + ||d||^2 <= 4 |c . d|,
    from the products the midpoint form already has, and the sign of
    c . d = (||p||^2 - ||q||^2) / 2 names the short row (ties to p). Unit
    rows never take that branch (the left side is at least 3, the right
    about 1e-16), so the central QP's answers are the midpoint form's. A
    clipped w returns the endpoint itself. For unit p and q, t is 0 up to
    rounding and x their midpoint; p == q gives w = 0, the first vertex, as
    the Wolfe iteration's lowest-index tie-break does.
    Exact to rounding, so it needs no optimality gap. This batched form is
    the field sampler's kernel and the reference of the single-pair
    :func:`_pair_min_norm`; only the short-row pairs are gathered for the
    second form.
    """
    c = 0.5 * (p + q)
    d = p - q
    dd, cd = _rowdot(d, d), _rowdot(c, d)
    t = np.divide(cd, dd, out=np.full_like(dd, -0.5), where=dd > 0.0)
    t = np.clip(t, -0.5, 0.5)[..., None]
    x = np.where(t == -0.5, p, np.where(t == 0.5, q, c - t * d))
    w = np.asarray(0.5 + t[..., 0])
    short = 3.0 * _rowdot(c, c) + dd <= 4.0 * np.abs(cd)
    if short.any():
        first = (cd <= 0.0)[short][:, None]
        ps, qs = p[short], q[short]
        a, b = np.where(first, ps, qs), np.where(first, qs, ps)
        e = a - b
        ee = _rowdot(e, e)
        s = np.divide(_rowdot(a, e), ee, out=np.zeros_like(ee), where=ee > 0.0)
        s = np.clip(s, 0.0, 1.0)[:, None]
        x[short] = np.where(s == 0.0, a, np.where(s == 1.0, b, a - s * e))
        w[short] = np.where(first, s, 1.0 - s)[:, 0]
    return x, w


def _pair_min_norm(p: Array, q: Array) -> Tuple[Array, float]:
    """:func:`_segment_min_norm` of one pair of 1-D rows, bit for bit.

    The same operations on the same operands, with the scalars t, s and w
    as Python floats instead of broadcast arrays, which leaves a few numpy
    calls per pair instead of about twenty. A clipped w returns the
    endpoint row itself.
    """
    c = 0.5 * (p + q)
    d = p - q
    dd, cd = float(d @ d), float(c @ d)
    if 3.0 * float(c @ c) + dd <= 4.0 * abs(cd):
        a, b = (p, q) if cd <= 0.0 else (q, p)
        e = a - b
        ee = float(e @ e)
        s = float(a @ e) / ee if ee > 0.0 else 0.0
        s = min(max(s, 0.0), 1.0)
        x = a if s == 0.0 else b if s == 1.0 else a - s * e
        return x, s if cd <= 0.0 else 1.0 - s
    t = cd / dd if dd > 0.0 else -0.5
    t = min(max(t, -0.5), 0.5)
    if t == -0.5:
        return p, 0.0
    if t == 0.5:
        return q, 1.0
    return c - t * d, 0.5 + t


# the three edges of a triangle, as (first, second) row indices
_EDGES = ((0, 1), (0, 2), (1, 2))


def _triangle_min_norm(points: Array) -> Tuple[Array, Array]:
    """Minimum-norm point of the triangle conv{rows of a (3, n) array}.

    Closed form from four candidates, in this order: the min-norm point of
    the triangle's affine hull (:func:`_affine_minimizer`), kept only when
    its weights are all >= 0 and then renormalized to sum 1, and the three
    edges' closed forms (:func:`_pair_min_norm`). The first candidate of
    least squared norm wins. Each candidate is a convex combination of the
    rows, so the answer stays in the hull: a near-singular affine solve
    (two nearly equal rows) can only lose to an edge. Returns (x, weights)
    with x = weights @ points up to rounding and weights on the simplex.
    This single-slate form is bit for bit each slate of the batched
    :func:`_triangle_min_norm_points`.
    """
    w = _affine_minimizer(points @ points.T)
    best, weights = math.inf, None
    if w.min() >= 0.0:
        w = w / float(w.sum())
        x = points.T @ w
        best, weights = float(x @ x), w
    for i, j in _EDGES:
        y, t = _pair_min_norm(points[i], points[j])
        yy = float(y @ y)
        if yy < best:
            x, best = y, yy
            weights = np.zeros(3)
            weights[i], weights[j] = 1.0 - t, t
    return x, weights


def _triangle_min_norm_points(stack: Array) -> Array:
    """:func:`_triangle_min_norm` of each slate of an (N, 3, n) stack.

    One batched bordered 4 x 4 solve for the affine candidates
    (:func:`_affine_minimizers`) and one :func:`_segment_min_norm` broadcast
    over the 3N edges, with the operands and layouts of the single-slate
    form, so row k of the (N, n) result is bit for bit
    ``_triangle_min_norm(stack[k])[0]``.
    """
    nodes = len(stack)
    w = _affine_minimizers(stack @ stack.transpose(0, 2, 1))
    inner = np.flatnonzero(np.all(w >= 0.0, axis=1))
    w = w[inner] / w[inner].sum(axis=1)[:, None]
    candidates = np.empty((nodes, 4, stack.shape[2]))
    candidates[inner, 0] = (stack[inner].transpose(0, 2, 1) @ w[:, :, None])[:, :, 0]
    first, second = zip(*_EDGES)
    candidates[:, 1:] = _segment_min_norm(stack[:, first], stack[:, second])[0]
    # the affine candidates of the other slates are never written or read
    sizes = np.full((nodes, 4), math.inf)
    sizes[:, 1:] = _rowdot(candidates[:, 1:], candidates[:, 1:])
    sizes[inner, 0] = _rowdot(candidates[inner, 0], candidates[inner, 0])
    return candidates[np.arange(nodes), np.argmin(sizes, axis=1)]


def _start_indices(start: Sequence[int], m: int) -> List[int]:
    """Sorted distinct corral indices; ValueError outside [0, m)."""
    indices = sorted({int(i) for i in start})
    if indices and (indices[0] < 0 or indices[-1] >= m):
        raise ValueError(f"start indices must lie in [0, {m})")
    return indices


def _min_norm_point(
    points: Array, start: Sequence[int] = (), wolfe: bool = False
) -> Tuple[Array, Array, List[int]]:
    """Minimum-norm point of conv{rows of points}: the kernel table.

    Two rows take the segment's closed form (:func:`_pair_min_norm`), three
    the triangle's (:func:`_triangle_min_norm`); for both, ``start`` is
    validated and has nothing left to do. Every other m, and any m with
    ``wolfe`` set, runs :func:`_wolfe_min_norm_point`, the reference the
    closed forms are tested against. Returns (x, weights, support) as that
    function does.
    """
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    if wolfe or m not in (2, 3):
        return _wolfe_min_norm_point(pts, start)
    _start_indices(start, m)
    if m == 2:
        x, w = _pair_min_norm(pts[0], pts[1])
        weights = np.array((1.0 - w, w))
    else:
        x, weights = _triangle_min_norm(pts)
    return x, weights, [i for i in range(m) if weights[i] > 0.0]


def _min_norm_points(stack: Array) -> Array:
    """Minimum-norm point of each slate of an (N, m, n) stack, cold.

    The stack form of :func:`_min_norm_point`'s table: for m = 2 one
    closed-form broadcast over the whole stack (:func:`_segment_min_norm`),
    for m = 3 one batched triangle solve (:func:`_triangle_min_norm_points`),
    and otherwise the Wolfe iteration one slate at a time. Row k of the
    (N, n) result is bit for bit ``_min_norm_point(stack[k])[0]``.
    """
    m = stack.shape[1]
    if m == 2:
        return _segment_min_norm(stack[:, 0], stack[:, 1])[0]
    if m == 3:
        return _triangle_min_norm_points(stack)
    x = np.empty((len(stack), stack.shape[2]))
    for k, slate in enumerate(stack):
        x[k] = _wolfe_min_norm_point(slate)[0]
    return x


def _affine_minimizers(gram_s: Array) -> Array:
    """:func:`_affine_minimizer` of each (k, k) corral Gram of a stack.

    One batched LAPACK solve, the kernel of the single solve, gives bit for
    bit its weights. When a system of the stack is exactly singular (a zero
    LU pivot, so a zero determinant) the batched solve raises; then the
    regular systems are still solved together and only the singular ones
    go to the single function, whose least squares handles them.
    """
    count, k = gram_s.shape[:2]
    kkt = np.zeros((count, k + 1, k + 1))
    kkt[:, :k, :k] = gram_s
    kkt[:, :k, k] = 1.0
    kkt[:, k, :k] = 1.0
    rhs = np.zeros((count, k + 1, 1))
    rhs[:, k] = 1.0
    singular = np.zeros(count, dtype=bool)
    try:
        sol = np.linalg.solve(kkt, rhs)
    except LinAlgError:
        singular = np.linalg.det(kkt) == 0.0
        sol = np.zeros_like(rhs)
        sol[~singular] = np.linalg.solve(kkt[~singular], rhs[~singular])
    beta = sol[:, :k, 0]
    total = beta.sum(axis=1)
    rescale = (np.abs(total - 1.0) > 1e-8) & (np.abs(total) > 1e-300)
    beta[rescale] /= total[rescale, None]
    for i in np.flatnonzero(singular):
        beta[i] = _affine_minimizer(gram_s[i])
    return beta


def _whole_corral(pts: Array, gram: Array) -> Optional[Tuple[Array, Array, List[int]]]:
    """The Wolfe loop's first minor step and optimality test from the whole
    slate in index order, on ``gram`` and ``pts`` themselves (the loop's
    ``gram[support][:, support]`` and ``pts[support]``, layouts too): the
    loop's answer bit for bit when both pass, else None."""
    beta = _affine_minimizer(gram)
    if not beta.min() >= -1e-14:
        return None
    w = np.maximum(beta, 0.0)
    total = float(w.sum())
    w = w / total if total > 0 else w
    if not float((gram.T @ w).min()) >= float(w @ gram @ w) - _OPT_TOL:
        return None
    # 0.0 + w, so a -0.0 weight reads 0.0, as in the loop's weights
    return pts.T @ w, 0.0 + w, list(range(len(w)))


def _wolfe_min_norm_point(
    points: Array, start: Sequence[int] = ()
) -> Tuple[Array, Array, List[int]]:
    """Minimum-norm point of conv{rows of points} (Wolfe's corral iteration).

    Finite active-set method: alternate between adding the vertex most
    violating the supporting-hyperplane test and reprojecting onto the
    affine hull of the current corral (the minor cycle: affine solve, then
    a ratio test that drops vertices whose weight would turn negative).
    Vertex ties break to the lowest index, so degenerate (duplicated) inputs
    stay deterministic. Converged means min_j p_j . x >= ||x||^2 - 1e-12, an
    absolute gap, so callers scale the points to entries or norms of order
    one first.

    ``start`` names the corral to begin from. Empty (the default), the
    iteration starts at the lowest-norm vertex. Otherwise the corral starts
    as those vertices with uniform weights, less any that are affinely
    dependent on the earlier ones, and the minor cycle runs before the first
    optimality test. A start near the final support (the support of a slate
    that differs in a row or two) leaves about one affine solve to do
    instead of one per support vertex; a poor start only costs iterations,
    since the optimality test is the same. A whole-slate start that the
    pruning keeps whole first tries :func:`_whole_corral`. Raises
    ValueError on an index outside [0, m).

    Returns (x, weights, support) with x = weights @ points, weights on the
    simplex, support the indices with positive weight. Raises
    DirectionSolverError when either loop runs out or when the most
    violating vertex is already in the corral (the affine solve has lost
    accuracy and no further step can help).
    """
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    gram = pts @ pts.T
    if len(start) == 0:
        support = np.array([gram.diagonal().argmin()])
        w = np.ones(1)
    else:
        support = np.array(_start_indices(start, m))
        whole = len(support) == m
        # an affinely dependent corral (a duplicated row) has a singular
        # affine system and can cycle. The squared Cholesky pivots of the
        # lifted Gram p_i . p_j + 1 are the squared distances of each start
        # vertex from the affine hull of the earlier ones; a 1e-11 ridge
        # keeps the factorization defined, and vertices closer than 1e-5 go
        lifted = (gram if whole else gram[support[:, None], support]) + 1.0
        lifted.flat[:: len(support) + 1] += 1e-11
        pivots = _lapack(
            _umath_linalg.cholesky_lo, "Matrix is not positive definite", lifted
        ).diagonal()
        kept = pivots * pivots > 1e-10
        if whole and np.logical_and.reduce(kept) and pts.flags.c_contiguous:
            done = _whole_corral(pts, gram)
            if done is not None:
                return done
        support = support[kept]
        w = np.full(len(support), 1.0 / len(support))
    gap = float("nan")
    for _ in range(24 * m + 120):
        # sub is the Gram of the current corral: the minor cycle leaves it
        # set for the optimality test
        if len(support) > 1:
            for _ in range(2 * m + 8):
                sub = gram[support[:, None], support]
                beta = _affine_minimizer(sub)
                if beta.min() >= -1e-14:
                    w = np.maximum(beta, 0.0)
                    break
                shrink = beta < -1e-14
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratios = np.where(shrink, w / (w - beta), np.inf)
                theta = float(ratios.min())
                w = w + theta * (beta - w)
                w[w < 1e-13] = 0.0
                keep = w > 0.0
                if not keep.any():
                    keep[beta.argmax()] = True
                    w[keep] = 1.0
                support = support[keep]
                w = w[keep]
            else:
                raise DirectionSolverError(
                    "minimum-norm-point corral loop ran out", gap
                )
            total = float(w.sum())
            if total > 0:
                w = w / total
        else:
            sub = gram[support[:, None], support]
        # gram[support].T is gram[:, support] (the Gram is symmetric) in the
        # same Fortran layout, so the product rounds the same
        d = gram[support].T @ w
        xx = float(w @ sub @ w)
        j = int(d.argmin())
        dj = float(d[j])
        gap = xx - dj
        if dj >= xx - _OPT_TOL:
            break
        if j in support:
            raise DirectionSolverError(
                "minimum-norm-point iteration stalled on a corral vertex", gap
            )
        support = np.concatenate((support, (j,)))
        w = np.concatenate((w, (0.0,)))
    else:
        raise DirectionSolverError("minimum-norm-point iteration cap exceeded", gap)
    full = np.zeros(m)
    # 0.0 + w, so a -0.0 weight reads 0.0 in the weights
    full[support] += w
    return pts[support].T @ w, full, sorted(support.tolist())


def _slate_vectors(slate: Union[GradientSlate, Array, Sequence]) -> Array:
    if isinstance(slate, GradientSlate):
        slate = slate.vectors
    vectors = np.asarray(slate, dtype=float)
    if vectors.ndim < 2:
        vectors = vectors.reshape(1, -1)
    elif vectors.ndim != 2:
        raise ValueError("slate must be a 2-D array of gradients")
    return vectors


def _row_peaks(vectors: Array) -> Array:
    """Largest absolute entry of each row; 0 exactly for a null row.

    Raises ValueError on a non-finite entry (max propagates NaN and inf).
    """
    peaks = np.maximum.reduce(np.abs(vectors), axis=1)
    if not np.maximum.reduce(peaks, initial=0.0) < math.inf:
        raise ValueError("slate has non-finite entries")
    return peaks


def _scaled_row_norms(vectors: Array) -> Tuple[Array, Array, Array]:
    """Rows scaled by powers of two to a largest entry in [0.5, 1).

    Returns (scaled, norms, exps) with vectors[i] = 2**exps[i] * scaled[i]
    exactly and norms[i] = ||scaled[i]||, which neither overflows nor
    underflows. A null row stays zero with exponent 0. Raises ValueError on
    a non-finite entry. The norms are ``np.linalg.norm(scaled, axis=1)``
    bit for bit, without its dispatch.
    """
    exps = np.frexp(_row_peaks(vectors))[1]
    scaled = np.ldexp(vectors, -exps[:, None])
    return scaled, np.sqrt(np.add.reduce(scaled * scaled, axis=1)), exps


def row_norms(vectors: Union[Array, Sequence]) -> Array:
    """Euclidean norm of each row, taken after the power-of-two prescale.

    Exact to rounding wherever the norm itself is representable, so tiny
    (1e-300) and huge (1e300) rows keep their size instead of reading 0 or
    inf; exactly 0 only for an all-zero row. Raises ValueError on a
    non-finite entry.
    """
    _, norms, exps = _scaled_row_norms(_slate_vectors(vectors))
    return np.ldexp(norms, exps)


def _prescaled_rows(
    slate: Union[GradientSlate, Array, Sequence]
) -> Tuple[Array, Array, Array]:
    """Each row scaled by a power of two to a largest entry in [0.5, 1).

    Returns (scaled, norms, exps) as :func:`_scaled_row_norms` does, so
    scaled / norms gives the unit rows of any finite slate. A row is null
    only when it is exactly zero. Raises ValueError on a null row or a
    non-finite entry.
    """
    scaled, norms, exps = _scaled_row_norms(_slate_vectors(slate))
    if not np.logical_and.reduce(norms):
        raise ValueError("null gradient row; criticality must be handled upstream")
    return scaled, norms, exps


def central_direction(
    slate: Union[GradientSlate, Array, Sequence],
    start: Sequence[int] = (),
    wolfe: bool = False,
) -> DirectionOutcome:
    """Minimum-norm V with g_i . V <= -||g_i|| for every slate entry g_i.

    Returns a "direction" outcome with KKT data, or an "infeasible" outcome
    whose certificate is a convex combination of the normalized gradients
    with norm <= ``QP_TOL`` (zero in their hull: the point is critical).
    Feasible solves whose norm exceeds ``NORM_CAP`` keep kind "direction"
    but set ``norm_capped`` (nearly critical; treat downstream like a
    blow-up).

    ``start`` warm-starts the min-norm iteration from a corral of slate
    indices, typically the ``active_set`` of the previous solve when only a
    row or two of the slate changed. It changes the work done, not the
    answer beyond rounding; the default (no start) is the cold solve, the
    reference the warm one is tested against. The kernel is chosen by
    :func:`_min_norm_point`: a two-row slate takes the closed form (the
    midpoint x of the two unit rows, V = -x/||x||^2) and a three-row slate
    the triangle's (:func:`_triangle_min_norm`); both validate ``start``
    and otherwise ignore it. ``wolfe`` runs the Wolfe iteration there
    instead, the reference the closed forms are tested against.

    Raises ValueError on a null slate entry, a non-finite slate or a start
    index outside the slate.
    """
    scaled, scaled_norms, exps = _prescaled_rows(slate)
    unit = scaled / scaled_norms[:, None]
    x, mu, _ = _min_norm_point(unit, start, wolfe)
    # the 1-D norms are np.linalg.norm's sqrt(x . x), without its dispatch
    delta = math.sqrt(x @ x)
    solve = (scaled, scaled_norms, exps, mu, delta)
    if delta <= QP_TOL:
        return DirectionOutcome(
            kind=INFEASIBLE, vector=None, certificate=mu, _solve=solve
        )
    # -x / delta**2 bit for bit: rounding is symmetric in the sign
    v = x / -(delta * delta)
    vnorm = math.sqrt(v @ v)
    # mu is zero off the support, so its positive entries are the support
    # vertices with positive weight, in increasing order
    return DirectionOutcome(
        kind=DIRECTION,
        vector=v,
        norm=vnorm,
        active_set=tuple((mu > 0.0).nonzero()[0].tolist()),
        norm_capped=bool(vnorm > NORM_CAP),
        _solve=solve,
    )


def _kkt_certificate(
    v: Array, scaled: Array, scaled_norms: Array, exps: Array, mu: Array, delta: float
) -> Tuple[Array, float]:
    """Multipliers and KKT residual of a feasible central solve.

    Formed in the scaled rows: lambda_i = 2**-e_i * a_i and slack_i =
    2**e_i * scaled_slack_i, so lambda_i g_i = a_i scaled_i and lambda_i
    slack_i = a_i scaled_slack_i stay finite for any finite slate. Only the
    unscaled values can leave the float range: the multiplier of a row
    scaled up by more than about 2**1020 (a tiny gradient) is inf, and the
    slack of an inactive row of a huge gradient is -inf, which the primal
    residual's max ignores; neither warns.
    """
    delta2 = delta * delta
    active = (mu > 0.0).nonzero()[0]
    scaled_slack = scaled @ v + scaled_norms
    if len(active) == len(mu):  # every row active: no row selection
        rows, a = scaled, mu / (delta2 * scaled_norms)
        shift, slack = -exps, scaled_slack
    else:
        rows, a = scaled[active], mu[active] / (delta2 * scaled_norms[active])
        shift, slack = -exps[active], scaled_slack[active]
    with np.errstate(over="ignore"):
        lambdas = np.ldexp(a, shift)
        primal = max(float(np.maximum.reduce(np.ldexp(scaled_slack, exps))), 0.0)
    if len(active):
        r = v + rows.T @ a
        stationarity = math.sqrt(r @ r)
        complementarity = float(np.maximum.reduce(np.abs(a * slack)))
    else:
        stationarity, complementarity = math.inf, 0.0
    return lambdas, max(primal, stationarity, complementarity)


def steepest_direction(
    gradients: Union[Array, Sequence], wolfe: bool = False
) -> Tuple[Array, float]:
    """Solve argmin_V max_i g_i . V + 0.5 ||V||^2.

    Returns (V_s, value) with value = -0.5 ||V_s||^2 <= 0, zero exactly at
    critical points. Null gradients are permitted and give V_s = 0; a
    non-finite slate raises ValueError.

    V_s is minus the minimum-norm point of conv{g_i} (the dual, minimize
    ||sum lambda_i g_i||^2 over the simplex), found on the slate scaled by
    2**-e to a largest entry in [0.5, 1), by the kernel
    :func:`_min_norm_point` chooses. Two gradients take the closed form,
    the projection of the origin onto their segment, and three the
    triangle's; both are exact to rounding, within 1e-14 of the exact point
    relative to its norm for two rows of lengths e^-18 to e^3, and within
    1e-6 for three (the triangle's affine solve on a Gram that wide). Other
    m, and m = 2 or 3 with ``wolfe`` set (the reference for the closed
    forms), run the Wolfe iteration, whose stopping test bounds the
    optimality gap: max_i g_i . V_s + ||V_s||^2 <= 1e-12 * 4**e, which is
    below 4e-12 * max_ij g_ij^2. steepest_direction(2**k * G) is
    2**k times the result for G, bit for bit, wherever neither overflows or
    underflows.
    """
    grads = _slate_vectors(gradients)
    peaks = _row_peaks(grads)
    if np.any(peaks == 0.0):
        return np.zeros(grads.shape[1]), 0.0
    _, exp = np.frexp(peaks.max())
    x, _, _ = _min_norm_point(np.ldexp(grads, -exp), wolfe=wolfe)
    v = -np.ldexp(x, exp)
    return v, -0.5 * float(v @ v)


def _stacked_qp_values(grads: Array) -> Tuple[Array, Array, Array]:
    """Row norms, steepest values and central norms of an (N, m, n) stack.

    Slate k gets ``row_norms(grads[k])``, ``steepest_direction(grads[k])[1]``
    and ``central_direction(grads[k]).norm``, bit for bit, with inf
    for an infeasible central QP and, where ``central_direction`` would
    raise, for a slate with a null (exactly zero) row, whose steepest value
    is 0. One pass: one power-of-two prescale of the whole stack, then the
    stack form of the kernel table (:func:`_min_norm_points`) for each QP
    over the whole stack: a single closed-form broadcast for m = 2, the
    batched triangle form for m = 3, and the Wolfe iteration slate by slate
    otherwise. Temporaries are O(N m (m + n)). Raises ValueError on a
    non-finite entry.
    """
    nodes, m, n = grads.shape
    scaled, norms, exps = _scaled_row_norms(grads.reshape(nodes * m, n))
    scaled = scaled.reshape(grads.shape)
    norms, exps = norms.reshape(nodes, m), exps.reshape(nodes, m)
    steepest = np.zeros(nodes)
    central = np.full(nodes, np.inf)
    live = np.flatnonzero(norms.all(axis=1))
    # steepest_direction: the slate scaled by 2**-e for its largest entry,
    # V_s = -2**e x and the value -0.5 ||V_s||^2
    top = exps[live].max(axis=1)
    x = _min_norm_points(np.ldexp(grads[live], -top[:, None, None]))
    v = -np.ldexp(x, top[:, None])
    steepest[live] = -0.5 * _rowdot(v, v)
    # central_direction: the unit rows' min-norm point x, delta = ||x||,
    # then ||-x / delta^2||
    unit = scaled[live] / norms[live][..., None]
    x = _min_norm_points(unit)
    delta = np.sqrt(_rowdot(x, x))
    feasible = delta > QP_TOL
    x, delta = x[feasible], delta[feasible]
    v = -x / (delta * delta)[:, None]
    central[live[feasible]] = np.sqrt(_rowdot(v, v))
    return np.ldexp(norms, exps), steepest, central


def descent_margin(gradients: Union[Array, Sequence], u: Array) -> float:
    """Distance from unit vector u to the non-descent boundary.

    Equals min_i |g_i . u| / ||g_i|| for u inside the closed descent cone,
    computed as -max_i g_i . u / ||g_i||; negative when u is not a common
    descent direction. The normalized central direction maximizes this
    margin over the cone. Rows are normalized after the power-of-two
    prescale, so tiny and huge gradients keep their cone; raises ValueError
    on a null or non-finite gradient.
    """
    scaled, norms, _ = _prescaled_rows(gradients)
    unit = scaled / norms[:, None]
    return -float((unit @ np.asarray(u, dtype=float)).max())
