"""Multi-objective test problems with exact query accounting.

A problem bundles m smooth objectives over R^n together with their analytic
gradients. Problems are immutable and safe to share; every function or
gradient evaluation is counted in a caller-owned :class:`QueryLedger`, so the
incremental solvers can prove their per-iteration query budgets.

:func:`values_and_gradients` asks for all m values and all m gradients at
one point, or at each of N points, in a single call; :func:`gradients_at`
asks for every gradient at each of N points, and :func:`gradient_all` for
every gradient at one point. All three run one checked batch query, one
point being the batch of N = 1: the problem's optional ``stacked``
callable, a closed-form evaluation of every objective at once that takes
points of shape (..., n), and otherwise a loop over the per-objective
callables; that loop is the reference the stacked forms are tested
against, bit for bit. Every shipped factory supplies ``stacked``. The
solvers fill their per-record diagnostics from one
:func:`values_and_gradients` call per block of records, the planar field
sampler queries its grid through :func:`gradients_at`, and streamlines
and criticality reports query through :func:`gradient_all`. ``evaluate``
and ``gradient`` stay single queries. The solvers' iteration paths use
:func:`gradient_rows`, several gradients at one point checked once, and
:func:`line_query`, the queries of one line search (ICD-Armijo's baseline
at alpha = 0 among them), whose start, direction and end point are
checked once. Every query check names the problem. The ledger counts in
Python ints with running totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class MultiObjectiveProblem:
    """m smooth objectives f_i: R^n -> R with analytic gradients.

    Attributes
    ----------
    dimension : int
        Ambient dimension n (>= 1).
    objectives, gradient_fns : tuple of callables
        Position i holds f_i and its gradient. Gradients must return arrays
        of shape (n,).
    lipschitz : tuple of float, optional
        Per-objective gradient Lipschitz constants L_i, when known.
    lower_bound : float, optional
        A common lower bound: f_i(x) >= lower_bound for all i and x.
    name : str
        Human-readable identifier used in traces and CLI output.
    stacked : callable, optional
        Points of shape (..., n) -> (values of shape (..., m), gradients of
        shape (..., m, n)): every objective and gradient at every point at
        once, equal bit for bit to the per-objective callables point by
        point. Every batch query calls it once, on an (N, n) batch; without
        it they loop over ``objectives``/``gradient_fns``.
    """

    dimension: int
    objectives: tuple
    gradient_fns: tuple
    lipschitz: Optional[tuple] = None
    lower_bound: Optional[float] = None
    name: str = ""
    stacked: Optional[Callable[[Array], Tuple[Array, Array]]] = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if len(self.objectives) < 1:
            raise ValueError("at least one objective is required")
        if len(self.objectives) != len(self.gradient_fns):
            raise ValueError("objectives and gradients must pair up")
        if self.lipschitz is not None:
            if len(self.lipschitz) != len(self.objectives):
                raise ValueError("one Lipschitz constant per objective")
            if not all(math.isfinite(L) and L >= 0 for L in self.lipschitz):
                raise ValueError("Lipschitz constants must be finite and nonnegative")
        if self.lower_bound is not None and math.isnan(self.lower_bound):
            raise ValueError("lower bound must not be NaN")

    @property
    def num_objectives(self) -> int:
        return len(self.objectives)

    @property
    def max_lipschitz(self) -> float:
        """Largest per-objective constant; raises when unknown."""
        if self.lipschitz is None:
            raise ValueError(f"problem {self.name!r} has no Lipschitz data")
        return float(max(self.lipschitz))


class QueryLedger:
    """Per-objective counters for function and gradient queries.

    Counters only ever increase. Solvers own one ledger per run; diagnostic
    measurements (traces, proximity reports, finite differences) use separate
    ledgers so they never pollute a solver's accounting. The totals are
    read in O(1); ``function_counts`` and ``gradient_counts`` are copies.
    """

    def __init__(self, function_counts: Sequence[int], gradient_counts: Sequence[int]):
        self._functions = [int(c) for c in function_counts]
        self._gradients = [int(c) for c in gradient_counts]
        self.function_evals = sum(self._functions)
        self.gradient_evals = sum(self._gradients)

    @classmethod
    def for_objectives(cls, m: int) -> "QueryLedger":
        return cls([0] * m, [0] * m)

    @property
    def function_counts(self) -> Array:
        return np.array(self._functions, dtype=np.int64)

    @property
    def gradient_counts(self) -> Array:
        return np.array(self._gradients, dtype=np.int64)

    def tick_function(self, i: int) -> None:
        self._functions[i] += 1
        self.function_evals += 1

    def tick_gradient(self, i: int) -> None:
        self._gradients[i] += 1
        self.gradient_evals += 1

    def tick_every(self, functions: int, gradients: int) -> None:
        """Count a batched query: this many queries on every objective."""
        self._functions = [c + functions for c in self._functions]
        self._gradients = [c + gradients for c in self._gradients]
        self.function_evals += functions * len(self._functions)
        self.gradient_evals += gradients * len(self._gradients)


def _check_point(problem: MultiObjectiveProblem, x: Array) -> Array:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dimension,):
        raise ValueError(
            f"problem {problem.name!r}: point has shape {x.shape},"
            f" expected ({problem.dimension},)"
        )
    if not np.logical_and.reduce(np.isfinite(x)):
        raise ValueError(f"problem {problem.name!r}: point has non-finite coordinates")
    return x


def _check_points(problem: MultiObjectiveProblem, points: Array) -> Array:
    """:func:`_check_point` for a batch of N points, shape (N, n)."""
    pts = np.asarray(points, dtype=float)
    n = problem.dimension
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(
            f"problem {problem.name!r}: points have shape {pts.shape}, expected (N, {n})"
        )
    if not np.isfinite(pts).all():
        raise ValueError(f"problem {problem.name!r}: point has non-finite coordinates")
    return pts


def _check_index(problem: MultiObjectiveProblem, i: int) -> None:
    if not 0 <= i < problem.num_objectives:
        raise IndexError(
            f"problem {problem.name!r}: objective index {i}"
            f" out of range [0, {problem.num_objectives})"
        )


def evaluate(
    problem: MultiObjectiveProblem, i: int, x: Array, ledger: QueryLedger
) -> float:
    """Evaluate f_i(x) and count one function query on objective i."""
    _check_index(problem, i)
    x = _check_point(problem, x)
    ledger.tick_function(i)
    return float(problem.objectives[i](x))


def gradient(
    problem: MultiObjectiveProblem, i: int, x: Array, ledger: QueryLedger
) -> Array:
    """Evaluate grad f_i(x) and count one gradient query on objective i."""
    return gradient_rows(problem, (i,), x, ledger)[0]


def gradient_rows(
    problem: MultiObjectiveProblem, rows: Sequence[int], x: Array, ledger: QueryLedger
) -> List[Array]:
    """grad f_i(x) for each i in ``rows``, as :func:`gradient` gives it, with
    every index and x checked once, before any query is counted; counts one
    gradient query per row."""
    for i in rows:
        _check_index(problem, i)
    x = _check_point(problem, x)
    grads = []
    for i in rows:
        ledger.tick_gradient(i)
        grads.append(np.asarray(problem.gradient_fns[i](x), dtype=float))
    return grads


def line_query(
    problem: MultiObjectiveProblem, x: Array, u: Array, ledger: QueryLedger
) -> Callable[[int, float], float]:
    """The function queries of one line search from x along u, checked once.

    Checks once that x and u have shape (n,) and that x and x + u are
    finite, and raises ValueError naming the problem otherwise. Returns
    ``value(i, alpha)``, which raises IndexError for an objective index
    outside [0, m) and ValueError for an alpha outside [0, 1], both before
    counting anything, then counts one function query on objective i and
    returns f_i(x + alpha * u), the value :func:`evaluate` gives at that
    point, and f_i(x) itself at alpha = 0. Rounding is monotone, so each
    coordinate of x + alpha * u lies between those of x and of x + u: no
    trial point can be non-finite, and none goes unchecked.
    """
    name, m = problem.name, problem.num_objectives
    x = _check_point(problem, x)
    u = np.asarray(u, dtype=float)
    if u.shape != x.shape:
        raise ValueError(
            f"problem {name!r}: direction has shape {u.shape}, expected {x.shape}"
        )
    with np.errstate(over="ignore"):  # an overflow is what this check reports
        end = x + u
    if not np.logical_and.reduce(np.isfinite(end)):
        raise ValueError(f"problem {name!r}: line search end point x + u is not finite")
    fns = problem.objectives

    def value(i: int, alpha: float) -> float:
        if not 0 <= i < m:
            raise IndexError(
                f"problem {name!r}: objective index {i} out of range [0, {m})"
            )
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"problem {name!r}: step {alpha!r} outside [0, 1]")
        ledger.tick_function(i)
        return float(fns[i](x + alpha * u if alpha else x))

    return value


def evaluate_all(
    problem: MultiObjectiveProblem, x: Array, ledger: QueryLedger
) -> Array:
    """All objective values at x; counts one function query per objective."""
    return np.array(
        [evaluate(problem, i, x, ledger) for i in range(problem.num_objectives)]
    )


def gradient_all(
    problem: MultiObjectiveProblem, x: Array, ledger: QueryLedger
) -> Array:
    """All gradients at x, stacked (m, n); counts one query per objective.

    The N = 1 case of :func:`gradients_at`, with the point checked once.
    """
    return _batch_query(problem, _check_point(problem, x)[None], ledger, False)[1][0]


def values_and_gradients(
    problem: MultiObjectiveProblem, x: Array, ledger: QueryLedger
) -> Tuple[Array, Array]:
    """All m values (m,) and gradients (m, n) at one point x (n,), or
    (N, m) and (N, m, n) at each point of a batch x (N, n), in one call.

    Checks x once, and after a successful query counts one function and one
    gradient query per objective and point, as ``evaluate_all`` plus
    ``gradient_all`` would. One point is the batch of N = 1. Raises
    ValueError on a bad point and, naming the problem, on a failed query,
    output of the wrong shape, or non-finite values or gradients.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        pts = _check_point(problem, x)[None]
        values, grads = _batch_query(problem, pts, ledger, True)
        return values[0], grads[0]
    return _batch_query(problem, _check_points(problem, x), ledger, True)


def gradients_at(
    problem: MultiObjectiveProblem, points: Array, ledger: QueryLedger
) -> Array:
    """Every gradient at each of N points, stacked (N, m, n).

    Counts m gradient queries per point. Raises ValueError on bad points
    and, naming the problem, on a failed query, output of the wrong shape
    or non-finite gradients.
    """
    return _batch_query(problem, _check_points(problem, points), ledger, False)[1]


def _batch_query(
    problem: MultiObjectiveProblem, pts: Array, ledger: QueryLedger, with_values: bool
) -> Tuple[Array, Array]:
    """Values (N, m) and gradients (N, m, n) at a checked float (N, n) batch.

    The one place that queries a batch: one ``problem.stacked`` call, else
    the per-objective callables point by point, which skip the values when
    ``with_values`` is False (their placeholder is zeros; ``stacked`` has no
    gradient-only form, so it computes values that such a query drops).
    Raises ValueError naming the problem on a failed callable, on either
    output of the wrong shape, and on non-finite gradients or, with
    ``with_values``, non-finite values. Only then counts N gradient queries
    per objective, and N function queries with ``with_values``.
    """
    m, n, count = problem.num_objectives, problem.dimension, len(pts)
    try:
        if problem.stacked is not None:
            values, grads = problem.stacked(pts)
        else:  # an empty batch keeps the shapes (0, m) and (0, m, n)
            values = np.zeros((count, m))
            if with_values:
                values = [[f(x) for f in problem.objectives] for x in pts] or values
            grads = [[g(x) for g in problem.gradient_fns] for x in pts]
            grads = grads or np.empty((0, m, n))
        values = np.asarray(values, dtype=float)
        grads = np.asarray(grads, dtype=float)
    except (IndexError, TypeError, ValueError) as exc:
        msg = f"problem {problem.name!r} failed on points of shape {pts.shape}"
        raise ValueError(msg) from exc
    if values.shape != (count, m) or grads.shape != (count, m, n):
        raise ValueError(
            f"problem {problem.name!r} returned values of shape {values.shape}"
            f" and gradients of shape {grads.shape},"
            f" expected {(count, m)} and {(count, m, n)}"
        )
    for what, out in (("values", values), ("gradients", grads)):
        if (with_values or what == "gradients") and not np.isfinite(out).all():
            raise ValueError(f"problem {problem.name!r} returned non-finite {what}")
    ledger.tick_every(count if with_values else 0, count)
    return values, grads


def make_figure1_problem() -> MultiObjectiveProblem:
    """The canonical bi-objective quadratic pair used across docs and tests.

        f1(x) = (x1 + 2)^2 + 3 x2^2
        f2(x) = 3 x1^2 + (x2 + 2)^2

    Both Hessians are diag(2, 6) up to coordinate swap, so the gradient
    Lipschitz constant is 6 for each objective, and both are bounded below
    by 0. The individual minimizers sit at (-2, 0) and (0, -2).
    """

    def f1(x: Array) -> float:
        return (x[0] + 2.0) ** 2 + 3.0 * x[1] ** 2

    def f2(x: Array) -> float:
        return 3.0 * x[0] ** 2 + (x[1] + 2.0) ** 2

    def g1(x: Array) -> Array:
        return np.array([2.0 * (x[0] + 2.0), 6.0 * x[1]])

    def g2(x: Array) -> Array:
        return np.array([6.0 * x[0], 2.0 * (x[1] + 2.0)])

    def stacked(x: Array):
        w = x + 2.0
        # (f1, f2) = (u^2 + 3 x2^2, v^2 + 3 x1^2) with (u, v) = x + 2. The
        # squares use float_power, the libm pow of the scalar ``**`` in f1
        # and f2; an array ``** 2`` multiplies, which rounds differently at
        # about one point in 1200
        values = np.float_power(w, 2.0) + 3.0 * np.float_power(x[..., ::-1], 2.0)
        # (2u, 6 x2, 6 x1, 2v) taken from (2u, 2v, 6 x1, 6 x2)
        grads = np.concatenate([2.0 * w, 6.0 * x], -1)[..., [0, 3, 2, 1]]
        return values, grads.reshape(values.shape + (2,))

    return MultiObjectiveProblem(
        dimension=2,
        objectives=(f1, f2),
        gradient_fns=(g1, g2),
        lipschitz=(6.0, 6.0),
        lower_bound=0.0,
        name="figure1",
        stacked=stacked,
    )


def make_scaled_variant(
    problem: MultiObjectiveProblem, kappas: Sequence[float]
) -> MultiObjectiveProblem:
    """Rescale each objective by a positive factor kappa_i.

    Gradients and Lipschitz constants scale by the same factors. The common
    lower bound is adjusted conservatively (min over kappa_i * bound). The
    variant is stacked when the base problem is, over the same (..., n)
    points: the factors multiply the last axis of the values and the
    objective axis of the gradients.
    """
    kappas = tuple(float(k) for k in kappas)
    if len(kappas) != problem.num_objectives:
        raise ValueError("one scale factor per objective")
    if not all(math.isfinite(k) and k > 0 for k in kappas):
        raise ValueError(f"scale factors must be finite and positive, got {kappas}")

    def scaled_pair(i: int, k: float):
        f, g = problem.objectives[i], problem.gradient_fns[i]

        def fk(x: Array, f=f, k=k) -> float:
            return k * f(x)

        def gk(x: Array, g=g, k=k) -> Array:
            return k * np.asarray(g(x), dtype=float)

        return fk, gk

    pairs = [scaled_pair(i, k) for i, k in enumerate(kappas)]
    lip = None
    if problem.lipschitz is not None:
        lip = tuple(k * L for k, L in zip(kappas, problem.lipschitz))
    bound = None
    if problem.lower_bound is not None:
        bound = min(k * problem.lower_bound for k in kappas)
    stacked = None
    if problem.stacked is not None:
        base, kv = problem.stacked, np.array(kappas)

        def stacked(x: Array):
            values, grads = base(x)
            return kv * values, kv[:, None] * grads

    return MultiObjectiveProblem(
        dimension=problem.dimension,
        objectives=tuple(p[0] for p in pairs),
        gradient_fns=tuple(p[1] for p in pairs),
        lipschitz=lip,
        lower_bound=bound,
        name=f"{problem.name}-scaled",
        stacked=stacked,
    )


def make_random_quadratic_family(m: int, n: int, seed: int) -> MultiObjectiveProblem:
    """m seeded positive-definite quadratics f_i(x) = (x - c_i)^T A_i (x - c_i).

    Each A_i comes from an orthogonal basis (QR of a seeded Gaussian matrix)
    with eigenvalues drawn log-uniformly from [0.5, 5]; centers c_i are
    uniform in [-1, 1]^n. L_i equals twice the largest eigenvalue of A_i and
    every objective is bounded below by 0. The stacked form batches the
    same products over the points and over i; numpy's matmul evaluates each
    batch element with the kernel the single product uses, so the results
    agree bit for bit.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 objectives and n >= 1 dimensions")
    rng = np.random.default_rng(seed)
    objectives = []
    gradient_fns = []
    lipschitz = []
    mats, centers = [], []
    for _ in range(m):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = np.exp(rng.uniform(math.log(0.5), math.log(5.0), size=n))
        a = q @ np.diag(eigs) @ q.T
        a = 0.5 * (a + a.T)
        c = rng.uniform(-1.0, 1.0, size=n)

        def f(x: Array, a=a, c=c) -> float:
            d = x - c
            return float(d @ a @ d)

        def g(x: Array, a=a, c=c) -> Array:
            return 2.0 * (a @ (x - c))

        objectives.append(f)
        gradient_fns.append(g)
        lipschitz.append(2.0 * float(eigs.max()))
        mats.append(a)
        centers.append(c)
    a_all, c_all = np.array(mats), np.array(centers)

    def stacked(x: Array):
        d = x[..., None, :] - c_all
        values = ((d[..., None, :] @ a_all) @ d[..., :, None])[..., 0, 0]
        return values, 2.0 * (a_all @ d[..., :, None])[..., 0]

    return MultiObjectiveProblem(
        dimension=n,
        objectives=tuple(objectives),
        gradient_fns=tuple(gradient_fns),
        lipschitz=tuple(lipschitz),
        lower_bound=0.0,
        name=f"random-quadratic:{m},{n},{seed}",
        stacked=stacked,
    )


def make_unbounded_linear_problem(m: int, n: int, seed: int) -> MultiObjectiveProblem:
    """m linear objectives sharing a descent cone, unbounded below.

    The gradient directions cluster around a common seeded unit vector, so
    no point is critical and every objective can decrease without bound.
    Gradient Lipschitz constants are 0; there is no lower bound.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 objectives and n >= 1 dimensions")
    rng = np.random.default_rng(seed)
    base = rng.normal(size=n)
    base /= np.linalg.norm(base)
    objectives = []
    gradient_fns = []
    rows = []
    for _ in range(m):
        c = base + 0.3 * rng.normal(size=n)

        def f(x: Array, c=c) -> float:
            return float(c @ x)

        def g(x: Array, c=c) -> Array:
            return c.copy()

        objectives.append(f)
        gradient_fns.append(g)
        rows.append(c)
    c_all = np.array(rows)

    def stacked(x: Array):
        # batched (1, n) @ (n, 1) products: the same BLAS dot as c @ x (the
        # gemv form c_all @ x rounds differently for m >= 3)
        values = (c_all[:, None, :] @ x[..., None, :, None])[..., 0, 0]
        return values, np.broadcast_to(c_all, values.shape + (n,)).copy()

    return MultiObjectiveProblem(
        dimension=n,
        objectives=tuple(objectives),
        gradient_fns=tuple(gradient_fns),
        lipschitz=tuple(0.0 for _ in range(m)),
        lower_bound=None,
        name=f"linear-decline:{m},{n},{seed}",
        stacked=stacked,
    )


def problem_from_name(name: str) -> MultiObjectiveProblem:
    """Build a problem from its CLI identifier.

    Supported forms:
      * ``figure1``
      * ``figure1-scaled:<k1>,<k2>``
      * ``random-quadratic:<m>,<n>,<seed>``
      * ``linear-decline:<m>,<n>,<seed>``
    """
    name = name.strip()
    if name == "figure1":
        return make_figure1_problem()
    if name.startswith("figure1-scaled:"):
        payload = name.split(":", 1)[1]
        parts = payload.split(",")
        if len(parts) != 2:
            raise ValueError(
                f"expected figure1-scaled:<k1>,<k2>, got {name!r}"
            )
        try:
            kappas = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"bad scale factors in {name!r}") from exc
        return make_scaled_variant(make_figure1_problem(), kappas)
    for prefix, factory in (
        ("random-quadratic:", make_random_quadratic_family),
        ("linear-decline:", make_unbounded_linear_problem),
    ):
        if name.startswith(prefix):
            parts = name[len(prefix):].split(",")
            if len(parts) != 3:
                raise ValueError(f"expected {prefix}<m>,<n>,<seed>, got {name!r}")
            try:
                m, n, seed = (int(p) for p in parts)
            except ValueError as exc:
                raise ValueError(f"bad integers in {name!r}") from exc
            return factory(m, n, seed)
    raise ValueError(f"unknown problem name {name!r}")


VALIDATION_SEED = 0
VALIDATION_SAMPLES = 32
VALIDATION_RADIUS = 2.0


def validate_problem(problem: MultiObjectiveProblem) -> None:
    """Sampled consistency checks: Lipschitz bound and lower bound.

    Draws ``VALIDATION_SAMPLES`` point pairs x, y uniform in the cube
    [-VALIDATION_RADIUS, VALIDATION_RADIUS]^n, seeded by
    ``VALIDATION_SEED``, and checks ||g_i(x) - g_i(y)|| <= L_i ||x - y||
    (up to 1e-9) and f_i(x) >= lower_bound (up to 1e-12) for every
    objective i whose problem declares them. Raises ValueError naming the
    first objective that violates either; the checks are plain comparisons,
    so they also run under ``python -O``.
    """
    rng = np.random.default_rng(VALIDATION_SEED)
    ledger = QueryLedger.for_objectives(problem.num_objectives)
    r = VALIDATION_RADIUS
    for _ in range(VALIDATION_SAMPLES):
        x, y = rng.uniform(-r, r, size=(2, problem.dimension))
        for i in range(problem.num_objectives):
            fx = evaluate(problem, i, x, ledger)
            if problem.lower_bound is not None and not (
                fx >= problem.lower_bound - 1e-12
            ):
                raise ValueError(f"objective {i} dips below its stated lower bound")
            if problem.lipschitz is not None:
                gx = gradient(problem, i, x, ledger)
                gy = gradient(problem, i, y, ledger)
                lhs = np.linalg.norm(gx - gy)
                rhs = problem.lipschitz[i] * np.linalg.norm(x - y)
                if not lhs <= rhs + 1e-9:
                    raise ValueError(f"objective {i} violates its Lipschitz constant")
