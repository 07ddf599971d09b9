"""Multi-objective test problems with exact query accounting.

A problem bundles m smooth objectives over R^n together with their analytic
gradients. Problems are immutable and safe to share; every function or
gradient evaluation is counted in a caller-owned :class:`QueryLedger`, so the
incremental solvers can prove their per-iteration query budgets.

:func:`values_and_gradients` asks for all m values and all m gradients at
one point in a single call. It uses the problem's optional ``stacked``
callable, a closed-form evaluation of every objective at once, and
otherwise loops over the per-objective callables; that loop is the
reference the stacked forms are tested against, bit for bit. Every shipped
factory supplies ``stacked``. The solvers use it for their per-record
diagnostics and :func:`gradients_at`, the gradients at a batch of points,
for the planar field sampler; ``evaluate``, ``gradient`` and their
``*_all`` forms stay on the per-objective path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

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
        x -> (values of shape (m,), gradients of shape (m, n)): every
        objective and gradient at once, equal bit for bit to the
        per-objective callables. Used by :func:`values_and_gradients`;
        without it that function loops over ``objectives``/``gradient_fns``.
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
            if any(L < 0 for L in self.lipschitz):
                raise ValueError("Lipschitz constants must be nonnegative")

    @property
    def num_objectives(self) -> int:
        return len(self.objectives)

    @property
    def max_lipschitz(self) -> float:
        """Largest per-objective constant; raises when unknown."""
        if self.lipschitz is None:
            raise ValueError(f"problem {self.name!r} has no Lipschitz data")
        return float(max(self.lipschitz))


@dataclass
class QueryLedger:
    """Per-objective counters for function and gradient queries.

    Counters only ever increase. Solvers own one ledger per run; diagnostic
    measurements (traces, proximity reports, finite differences) use separate
    ledgers so they never pollute a solver's accounting.
    """

    function_counts: Array
    gradient_counts: Array

    @classmethod
    def for_objectives(cls, m: int) -> "QueryLedger":
        return cls(np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64))

    @property
    def function_evals(self) -> int:
        return int(self.function_counts.sum())

    @property
    def gradient_evals(self) -> int:
        return int(self.gradient_counts.sum())

    def tick_function(self, i: int) -> None:
        self.function_counts[i] += 1

    def tick_gradient(self, i: int) -> None:
        self.gradient_counts[i] += 1


def _check_point(problem: MultiObjectiveProblem, x: Array) -> Array:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dimension,):
        raise ValueError(
            f"point has shape {x.shape}, expected ({problem.dimension},)"
        )
    if not np.isfinite(x).all():
        raise ValueError("point has non-finite coordinates")
    return x


def _check_index(problem: MultiObjectiveProblem, i: int) -> None:
    if not 0 <= i < problem.num_objectives:
        raise IndexError(
            f"objective index {i} out of range [0, {problem.num_objectives})"
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
    _check_index(problem, i)
    x = _check_point(problem, x)
    ledger.tick_gradient(i)
    g = np.asarray(problem.gradient_fns[i](x), dtype=float)
    return g


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
    """All gradients at x, stacked (m, n); counts one query per objective."""
    return np.vstack(
        [gradient(problem, i, x, ledger) for i in range(problem.num_objectives)]
    )


def values_and_gradients(
    problem: MultiObjectiveProblem, x: Array, ledger: QueryLedger
) -> Tuple[Array, Array]:
    """All m values (m,) and gradients (m, n) at x in one call.

    Checks x once and counts one function and one gradient query per
    objective, as ``evaluate_all`` plus ``gradient_all`` would. Uses
    ``problem.stacked`` when present, otherwise the per-objective callables.
    Raises ValueError on a bad point or on output of the wrong shape.
    """
    x = _check_point(problem, x)
    ledger.function_counts += 1
    ledger.gradient_counts += 1
    if problem.stacked is not None:
        values, grads = problem.stacked(x)
    else:
        values = [f(x) for f in problem.objectives]
        grads = [g(x) for g in problem.gradient_fns]
    values = np.asarray(values, dtype=float)
    grads = np.asarray(grads, dtype=float)
    m, n = problem.num_objectives, problem.dimension
    if values.shape != (m,) or grads.shape != (m, n):
        raise ValueError(
            f"problem {problem.name!r} returned values of shape {values.shape}"
            f" and gradients of shape {grads.shape}, expected ({m},) and ({m}, {n})"
        )
    return values, grads


def gradients_at(
    problem: MultiObjectiveProblem, points: Array, ledger: QueryLedger
) -> Array:
    """Every gradient at each of N points, stacked (N, m, n).

    Counts m gradient queries per point and no function queries. Uses
    ``problem.stacked`` when present (its values are dropped), otherwise the
    per-objective gradient callables. Raises ValueError on points of the
    wrong shape or with non-finite coordinates, and, naming the problem, on
    gradients of the wrong shape or with non-finite entries.
    """
    pts = np.asarray(points, dtype=float)
    m, n = problem.num_objectives, problem.dimension
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"points have shape {pts.shape}, expected (N, {n})")
    if not np.isfinite(pts).all():
        raise ValueError("point has non-finite coordinates")
    grads = np.empty((pts.shape[0], m, n))
    for k, x in enumerate(pts):
        if problem.stacked is not None:
            g = np.asarray(problem.stacked(x)[1], dtype=float)
        else:
            g = np.asarray([gf(x) for gf in problem.gradient_fns], dtype=float)
        if g.shape != (m, n):
            raise ValueError(
                f"problem {problem.name!r} returned gradients of shape"
                f" {g.shape} at {x}, expected ({m}, {n})"
            )
        grads[k] = g
    if not np.isfinite(grads).all():
        raise ValueError(f"problem {problem.name!r} returned non-finite gradients")
    ledger.gradient_counts += pts.shape[0]
    return grads


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
        u, v = x[0] + 2.0, x[1] + 2.0
        values = np.array([u**2 + 3.0 * x[1] ** 2, 3.0 * x[0] ** 2 + v**2])
        grads = np.array([[2.0 * u, 6.0 * x[1]], [6.0 * x[0], 2.0 * v]])
        return values, grads

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
    variant is stacked when the base problem is.
    """
    kappas = tuple(float(k) for k in kappas)
    if len(kappas) != problem.num_objectives:
        raise ValueError("one scale factor per objective")
    if any(k <= 0 for k in kappas):
        raise ValueError("scale factors must be positive")

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
    same products over i; numpy's matmul evaluates each batch element with
    the kernel the single product uses, so the results agree bit for bit.
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
        d = x - c_all
        values = ((d[:, None, :] @ a_all) @ d[:, :, None])[:, 0, 0]
        return values, 2.0 * (a_all @ d[:, :, None])[:, :, 0]

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
        # batched (1, n) @ (n, 1) products: the same BLAS dot as c @ x
        return (c_all[:, None, :] @ x[:, None])[:, 0, 0], c_all.copy()

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


def validate_problem(
    problem: MultiObjectiveProblem,
    seed: int = 0,
    samples: int = 32,
    radius: float = 2.0,
) -> None:
    """Sampled consistency checks: Lipschitz bound and lower bound.

    Draws random point pairs and asserts ||g_i(x) - g_i(y)|| <= L_i ||x - y||
    and f_i(x) >= lower_bound. Raises AssertionError on violation.
    """
    rng = np.random.default_rng(seed)
    ledger = QueryLedger.for_objectives(problem.num_objectives)
    for _ in range(samples):
        x = rng.uniform(-radius, radius, size=problem.dimension)
        y = rng.uniform(-radius, radius, size=problem.dimension)
        for i in range(problem.num_objectives):
            fx = evaluate(problem, i, x, ledger)
            if problem.lower_bound is not None:
                assert fx >= problem.lower_bound - 1e-12, (
                    f"objective {i} dips below its stated lower bound"
                )
            if problem.lipschitz is not None:
                gx = gradient(problem, i, x, ledger)
                gy = gradient(problem, i, y, ledger)
                lhs = np.linalg.norm(gx - gy)
                rhs = problem.lipschitz[i] * np.linalg.norm(x - y)
                assert lhs <= rhs + 1e-9, (
                    f"objective {i} violates its Lipschitz constant"
                )
