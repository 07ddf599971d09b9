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
steepest one, and one kernel (:func:`_min_norm_point`) serves both. For
m = 2 the hull is a segment and the kernel takes its closed form: the
projection of the origin onto the segment (Sener & Koltun 2018), which for
the unit rows of the central QP is their midpoint x, so V = -x/||x||^2.
Every other m runs one finite Wolfe corral iteration
(:func:`_wolfe_min_norm_point`, Wolfe 1976), with no iteration budget to
tune; it stops at an optimality gap of 1e-12 on the prescaled points and
stays the tested reference for m = 2. :func:`_stacked_qp_values` solves
both QPs for a whole stack of slates at once, for the planar field
sampler: one broadcast for m = 2, and otherwise one batched corral over
the stack, grouped by corral, bit for bit the per-slate Wolfe
(:func:`_corral_min_norm_points`). The central QP can start the Wolfe
iteration from a given corral (``start``): the incremental solvers change
one or two slate rows per iteration and pass the previous active set, which
leaves about one affine solve per QP instead of one per active row. Each
slate is prescaled by powers of two before any norm is taken, which is
exact, so no intermediate overflows or underflows and the answers are bit
for bit those of the unscaled arithmetic wherever that does not. A result
is lost only when it lies outside the float range itself; a row is null
only when it is exactly zero.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

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
        return bool(np.all(np.any(self.vectors, axis=1)))


@dataclass
class DirectionOutcome:
    """Result of a central-direction solve.

    kind is "direction" or "infeasible". For "direction", ``vector``
    solves the QP, ``active_set``/``multipliers`` describe the KKT
    certificate (V = -sum multipliers[i] * slate[i] over the active set) and
    ``norm_capped`` flags feasible solves whose norm exceeds ``NORM_CAP``.

    For "infeasible", ``certificate`` holds simplex weights mu with
    ||sum mu_i g_i/||g_i|| || <= ``QP_TOL``, i.e. zero in the hull of
    normalized gradients.
    """

    kind: str
    vector: Optional[Array] = None
    norm: float = float("inf")
    active_set: tuple = ()
    multipliers: Optional[Array] = None
    norm_capped: bool = False
    certificate: Optional[Array] = None
    kkt_residual: float = float("nan")


def _affine_minimizer(gram_s: Array) -> Array:
    """Weights of the min-norm point of the affine hull of a corral."""
    k = gram_s.shape[0]
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = gram_s
    kkt[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
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
    its relative accuracy. A clipped w returns the endpoint itself. For unit
    p and q, t is 0 up to rounding and x their midpoint; p == q gives w = 0,
    the first vertex, as the Wolfe iteration's lowest-index tie-break does.
    Exact to rounding, so it needs no optimality gap. This batched form is
    the field sampler's kernel and the reference of the single-pair
    :func:`_pair_min_norm`.
    """
    c = 0.5 * (p + q)
    d = p - q
    dd = _rowdot(d, d)
    t = np.divide(_rowdot(c, d), dd, out=np.full_like(dd, -0.5), where=dd > 0.0)
    t = np.clip(t, -0.5, 0.5)[..., None]
    x = np.where(t == -0.5, p, np.where(t == 0.5, q, c - t * d))
    return x, 0.5 + t[..., 0]


def _pair_min_norm(p: Array, q: Array) -> Tuple[Array, float]:
    """:func:`_segment_min_norm` of one pair of 1-D rows, bit for bit.

    The same operations on the same operands, with the scalars t and w as
    Python floats instead of broadcast arrays, which leaves a few numpy
    calls per pair instead of about twenty. A clipped w returns the
    endpoint row itself.
    """
    c = 0.5 * (p + q)
    d = p - q
    dd = float(d @ d)
    t = float(c @ d) / dd if dd > 0.0 else -0.5
    t = min(max(t, -0.5), 0.5)
    if t == -0.5:
        return p, 0.0
    if t == 0.5:
        return q, 1.0
    return c - t * d, 0.5 + t


def _start_indices(start: Sequence[int], m: int) -> List[int]:
    """Sorted distinct corral indices; ValueError outside [0, m)."""
    indices = sorted({int(i) for i in start})
    if indices and (indices[0] < 0 or indices[-1] >= m):
        raise ValueError(f"start indices must lie in [0, {m})")
    return indices


def _min_norm_point(
    points: Array, start: Sequence[int] = (), wolfe: bool = False
) -> Tuple[Array, Array, List[int]]:
    """Minimum-norm point of conv{rows of points}.

    Two rows take the closed form of :func:`_segment_min_norm`, in its
    single-pair form :func:`_pair_min_norm`; there ``start`` is validated
    and has nothing left to do. Every other m, and m = 2 with ``wolfe``
    set, runs :func:`_wolfe_min_norm_point`, the reference the closed form
    is tested against. Returns (x, weights, support) as that function does.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] != 2 or wolfe:
        return _wolfe_min_norm_point(pts, start)
    _start_indices(start, 2)
    x, w = _pair_min_norm(pts[0], pts[1])
    weights = (1.0 - w, w)
    return x, np.array(weights), [i for i in (0, 1) if weights[i] > 0.0]


def _min_norm_points(stack: Array) -> Array:
    """Minimum-norm point of each slate of an (N, m, n) stack, cold.

    For m = 2 one closed-form broadcast over the whole stack; otherwise one
    batched Wolfe corral iteration over the stack, grouped by corral
    (:func:`_corral_min_norm_points`). Row k of the (N, n) result is bit
    for bit ``_min_norm_point(stack[k])[0]``.
    """
    if stack.shape[1] == 2:
        return _segment_min_norm(stack[:, 0], stack[:, 1])[0]
    return _corral_min_norm_points(stack)


def _affine_minimizers(gram_s: Array) -> Array:
    """:func:`_affine_minimizer` of each (k, k) corral Gram of a stack.

    One batched LAPACK solve, the kernel of the single solve, gives bit for
    bit its weights; a stack holding a singular system falls back to the
    single function slate by slate, least squares for the singular ones.
    """
    count, k = gram_s.shape[:2]
    kkt = np.zeros((count, k + 1, k + 1))
    kkt[:, :k, :k] = gram_s
    kkt[:, :k, k] = 1.0
    kkt[:, k, :k] = 1.0
    rhs = np.zeros((count, k + 1, 1))
    rhs[:, k] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return np.array([_affine_minimizer(sub) for sub in gram_s])
    beta = sol[:, :k, 0]
    total = beta.sum(axis=1)
    rescale = (np.abs(total - 1.0) > 1e-8) & (np.abs(total) > 1e-300)
    beta[rescale] /= total[rescale, None]
    return beta


# phases of a slate in the batched corral iteration: the minor cycle's
# affine step, or the optimality test of a major step
_MINOR, _TEST = 0, 1


def _corral_min_norm_points(stack: Array) -> Array:
    """Cold :func:`_wolfe_min_norm_point` of every slate of an (N, m, n) stack.

    The corral iteration runs in lock step over the stack: slates advance
    in groups keyed by (phase, ordered corral), and each round takes every
    group one step with stacked operations of the per-slate shapes and
    layouts, so BLAS and LAPACK run the single solve's kernels on the same
    operands. Row k of the (N, n) result is bit for bit
    ``_wolfe_min_norm_point(stack[k])[0]``. Each slate keeps the per-slate
    budgets; when slates fail, the lowest one's DirectionSolverError is
    raised, the one the slate-by-slate loop would raise. Temporaries are
    the (N, m, m) Gram stack and per-group slices of it and of the stack.
    """
    nodes, m, n = stack.shape
    x = np.empty((nodes, n))
    gram = stack @ stack.transpose(0, 2, 1)
    majors = np.zeros(nodes, dtype=int)
    minors = np.zeros(nodes, dtype=int)
    gaps = np.full(nodes, np.nan)
    failures = {}
    first = np.argmin(np.diagonal(gram, axis1=1, axis2=2), axis=1)
    groups = defaultdict(list)
    for j in np.flatnonzero(np.bincount(first, minlength=m)):
        slates = np.flatnonzero(first == j)
        groups[(_TEST, (int(j),))].append((slates, np.ones((len(slates), 1))))
    while groups:
        regrouped = defaultdict(list)
        for (phase, corral), parts in groups.items():
            slates = np.concatenate([part[0] for part in parts])
            w = np.concatenate([part[1] for part in parts])
            c = np.array(corral)
            sub = gram[slates[:, None, None], c[:, None], c]
            if phase == _MINOR:
                beta = _affine_minimizers(sub)
                done = np.all(beta >= -1e-14, axis=1)
                if done.any():
                    wd = np.clip(beta[done], 0.0, None)
                    total = wd.sum(axis=1)
                    positive = total > 0
                    wd[positive] = wd[positive] / total[positive, None]
                    regrouped[(_TEST, corral)].append((slates[done], wd))
                if done.all():
                    continue
                slates, beta, w = slates[~done], beta[~done], w[~done]
                shrink = beta < -1e-14
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratios = np.where(shrink, w / (w - beta), np.inf)
                theta = ratios.min(axis=1)
                w = w + theta[:, None] * (beta - w)
                w[w < 1e-13] = 0.0
                keep = w > 0.0
                empty = np.flatnonzero(~keep.any(axis=1))
                top = np.argmax(beta[empty], axis=1)
                keep[empty, top] = True
                w[empty, top] = 1.0
                minors[slates] += 1
                out = minors[slates] >= 2 * m + 8
                message = "minimum-norm-point corral loop ran out"
                failures.update(dict.fromkeys(slates[out].tolist(), message))
                slates, w, keep = slates[~out], w[~out], keep[~out]
                patterns, which = np.unique(keep, axis=0, return_inverse=True)
                for p, pattern in enumerate(patterns):
                    rows = which == p
                    regrouped[(_MINOR, tuple(c[pattern].tolist()))].append(
                        (slates[rows], w[rows][:, pattern])
                    )
                continue
            # gram[:, support] of a slate is the transpose of its corral
            # rows (the Gram is symmetric), in the same Fortran layout
            cols = gram[slates[:, None], c].transpose(0, 2, 1)
            d = (cols @ w[:, :, None])[:, :, 0]
            xx = ((w[:, None, :] @ sub) @ w[:, :, None])[:, 0, 0]
            j = np.argmin(d, axis=1)
            dj = d[np.arange(len(slates)), j]
            gaps[slates] = xx - dj
            done = dj >= xx - _OPT_TOL
            points = stack[slates[done][:, None], c].transpose(0, 2, 1)
            x[slates[done]] = (points @ w[done][:, :, None])[:, :, 0]
            stalled = ~done & (j[:, None] == c).any(axis=1)
            message = "minimum-norm-point iteration stalled on a corral vertex"
            failures.update(dict.fromkeys(slates[stalled].tolist(), message))
            grow = ~done & ~stalled
            slates, w, j = slates[grow], w[grow], j[grow]
            majors[slates] += 1
            out = majors[slates] >= 24 * m + 120
            message = "minimum-norm-point iteration cap exceeded"
            failures.update(dict.fromkeys(slates[out].tolist(), message))
            slates, w, j = slates[~out], w[~out], j[~out]
            minors[slates] = 0
            w = np.concatenate([w, np.zeros((len(w), 1))], axis=1)
            for vertex in np.flatnonzero(np.bincount(j, minlength=m)):
                rows = j == vertex
                regrouped[(_MINOR, corral + (int(vertex),))].append(
                    (slates[rows], w[rows])
                )
        groups = regrouped
    if failures:
        slate = min(failures)
        raise DirectionSolverError(failures[slate], float(gaps[slate]))
    return x


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
    since the optimality test is the same. Raises ValueError on an index
    outside [0, m).

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
        # an affinely dependent corral (a duplicated row) has a singular
        # affine system and can cycle. The squared Cholesky pivots of the
        # lifted Gram p_i . p_j + 1 are the squared distances of each start
        # vertex from the affine hull of the earlier ones; a 1e-11 ridge
        # keeps the factorization defined, and vertices closer than 1e-5 go
        lifted = gram[support[:, None], support] + 1.0
        lifted.flat[:: len(support) + 1] += 1e-11
        pivots = np.linalg.cholesky(lifted).diagonal()
        support = support[pivots * pivots > 1e-10]
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
    if not norms.all():
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
    reference the warm one is tested against. A two-row slate takes the
    closed form (the midpoint x of the two unit rows, V = -x/||x||^2) and
    ignores ``start``; ``wolfe`` runs the Wolfe iteration there instead,
    the reference the closed form is tested against.

    Raises ValueError on a null slate entry, a non-finite slate or a start
    index outside the slate.
    """
    scaled, scaled_norms, exps = _prescaled_rows(slate)
    x, mu, _ = _min_norm_point(scaled / scaled_norms[:, None], start, wolfe)
    # the 1-D norms are np.linalg.norm's sqrt(x . x), without its dispatch
    delta = math.sqrt(x @ x)
    if delta <= QP_TOL:
        return DirectionOutcome(
            kind=INFEASIBLE,
            vector=None,
            norm=float("inf"),
            certificate=mu,
            kkt_residual=delta,
        )
    delta2 = delta * delta
    # -x / delta2 bit for bit: rounding is symmetric in the sign
    v = x / -delta2
    vnorm = math.sqrt(v @ v)
    # mu is zero off the support, so its positive entries are the support
    # vertices with positive weight, in increasing order
    active = (mu > 0.0).nonzero()[0]
    # the certificate is formed in the scaled rows: lambda_i = 2**-e_i * a_i
    # and slack_i = 2**e_i * scaled_slack_i, so lambda_i g_i = a_i scaled_i and
    # lambda_i slack_i = a_i scaled_slack_i stay finite for any finite slate
    scaled_slack = scaled @ v + scaled_norms
    if len(active) == len(mu):  # every row active: no row selection
        rows, a = scaled, mu / (delta2 * scaled_norms)
        shift, slack = -exps, scaled_slack
    else:
        rows, a = scaled[active], mu[active] / (delta2 * scaled_norms[active])
        shift, slack = -exps[active], scaled_slack[active]
    # mu_i <= 1 and scaled_norms_i >= 1/2 give a_i <= 2**(3 - 2E) for
    # delta in [2**(E-1), 2**E), so lambda_i can leave the float range only
    # for a row scaled up by more than 2**(1020 + 2E), a tiny gradient; its
    # multiplier is then inf
    if np.maximum.reduce(shift, initial=0) > 1020 + 2 * math.frexp(delta)[1]:
        with np.errstate(over="ignore"):
            lambdas = np.ldexp(a, shift)
    else:
        lambdas = np.ldexp(a, shift)
    primal = max(float(np.maximum.reduce(np.ldexp(scaled_slack, exps))), 0.0)
    if len(active):
        r = v + rows.T @ a
        stationarity = math.sqrt(r @ r)
        complementarity = float(np.maximum.reduce(np.abs(a * slack)))
    else:
        stationarity, complementarity = math.inf, 0.0
    return DirectionOutcome(
        kind=DIRECTION,
        vector=v,
        norm=vnorm,
        active_set=tuple(active.tolist()),
        multipliers=lambdas,
        norm_capped=bool(vnorm > NORM_CAP),
        certificate=None,
        kkt_residual=max(primal, stationarity, complementarity),
    )


def steepest_direction(
    gradients: Union[Array, Sequence], wolfe: bool = False
) -> Tuple[Array, float]:
    """Solve argmin_V max_i g_i . V + 0.5 ||V||^2.

    Returns (V_s, value) with value = -0.5 ||V_s||^2 <= 0, zero exactly at
    critical points. Null gradients are permitted and give V_s = 0; a
    non-finite slate raises ValueError.

    V_s is minus the minimum-norm point of conv{g_i} (the dual, minimize
    ||sum lambda_i g_i||^2 over the simplex), found on the slate scaled by
    2**-e to a largest entry in [0.5, 1). Two gradients take the closed
    form, the projection of the origin onto their segment, exact to
    rounding. Other m, and m = 2 with ``wolfe`` set (the reference for the
    closed form), run the Wolfe iteration, whose stopping test bounds the
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
    min-norm kernel for each QP over the whole stack: a single closed-form
    broadcast for m = 2, and otherwise one batched corral iteration
    (:func:`_min_norm_points`). Temporaries are O(N m (m + n)). Raises
    ValueError on a non-finite entry.
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
    x = _min_norm_points(scaled[live] / norms[live][..., None])
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
