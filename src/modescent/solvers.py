"""Iterative solvers built on the central descent direction.

Two incremental methods refresh one or two gradients per iteration and step
along the normalized central direction of the resulting slate:

* :func:`run_incremental_central` uses a vanishing step schedule and one
  gradient query per iteration (cyclic objective order);
* :func:`run_incremental_central_armijo` refreshes two gradients per
  iteration and backtracks on the objective currently believed lowest,
  swapping that role whenever the freshly probed objective is lower.

Three baselines provide comparison points at higher query cost: full-slate
steepest descent (m gradients per iteration), weighted-sum scalarization and
an incremental aggregated-gradient loop.

All five run on one loop that records every method the same way; each
supplies only its step rule, which makes one iteration's queries and
returns the step or a stop reason. Every run returns a list of
:class:`IterationRecord`; one record per started iteration, where the last
record carries the stop reason and the final iterate. Gradient and function
queries are counted exactly in the run's ledger. Per-record diagnostics
(objective values, smallest gradient norm) come from one
:func:`~modescent.problems.values_and_gradients` call per record on a
separate throwaway ledger, so they never distort the accounting and cost
one stacked evaluation rather than 2m single queries; the gradient norms
are taken after a power-of-two prescale, so tiny gradients do not read as
zero. The three line searches share one backtracking loop, and both
incremental methods one slate refresh and central solve.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .directions import (
    INFEASIBLE,
    GradientSlate,
    central_direction,
    row_norms,
)
from .directions import steepest_direction as _steepest_direction
from .problems import (
    MultiObjectiveProblem,
    QueryLedger,
    evaluate,
    gradient,
    values_and_gradients,
)

Array = np.ndarray

STOP_NULL_GRADIENT = "NullGradient"
STOP_INFEASIBLE = "Infeasible"
STOP_MAX_ITER = "MaxIter"
STOP_LINE_SEARCH_STALL = "LineSearchStall"

BRANCH_VANISHING = "vanishing-gradient"
BRANCH_BLOWUP = "direction-blowup"
BRANCH_UNBOUNDED = "unbounded-decrease"

TRACE_FLOAT_FORMAT = ".17g"


@dataclass(frozen=True)
class StepSchedule:
    """Vanishing, non-summable step-size rule alpha_k for k = 1, 2, ...

    kinds: "harmonic" gives c / k; "power-law" gives c / k**p with
    0 < p <= 1. Both vanish while their partial sums diverge.
    """

    kind: str
    c: float
    p: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("harmonic", "power-law"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.c <= 0.0:
            raise ValueError("schedule constant must be positive")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("power-law exponent must lie in (0, 1]")

    @classmethod
    def harmonic(cls, c: float = 1.0) -> "StepSchedule":
        return cls("harmonic", float(c), 1.0)

    @classmethod
    def power_law(cls, c: float, p: float) -> "StepSchedule":
        return cls("power-law", float(c), float(p))

    @classmethod
    def parse(cls, text: str) -> "StepSchedule":
        """Parse CLI forms "harmonic[:c]" and "powerlaw:c,p"."""
        head, _, payload = text.strip().partition(":")
        head = head.lower()
        if head == "harmonic":
            c = float(payload) if payload else 1.0
            return cls.harmonic(c)
        if head in ("powerlaw", "power-law"):
            parts = payload.split(",")
            if len(parts) != 2:
                raise ValueError(f"expected powerlaw:<c>,<p>, got {text!r}")
            return cls.power_law(float(parts[0]), float(parts[1]))
        raise ValueError(f"unknown schedule {text!r}")

    def alpha(self, k: int) -> float:
        if k < 1:
            raise ValueError("iterations are numbered from 1")
        if self.kind == "harmonic":
            return self.c / k
        return self.c / k**self.p


@dataclass
class IterationRecord:
    """State captured at the start of iteration k (before the step).

    ``alpha`` > 0 for completed steps; the final record of a run has
    alpha = 0 and a ``stop_reason`` instead. ``grad_evals``/``fn_evals``
    snapshot the run ledger after the iteration's queries. ``step_floor``
    is the line-search solver's guaranteed step lower bound (None
    elsewhere).
    """

    k: int
    x: Array
    alpha: float
    dir_norm: float
    objective_values: Array
    min_grad_norm: float
    ratio_metric: float
    grad_evals: int
    fn_evals: int
    stop_reason: Optional[str] = None
    step_floor: Optional[float] = None


def _diagnostics(problem: MultiObjectiveProblem, x: Array, enabled: bool):
    """Objective values and smallest gradient norm on a throwaway ledger."""
    if not enabled:
        m = problem.num_objectives
        return np.full(m, np.nan), float("nan")
    scratch = QueryLedger.for_objectives(problem.num_objectives)
    values, grads = values_and_gradients(problem, x, scratch)
    return values, float(row_norms(grads).min())


def _ratio(min_grad: float, dir_norm: float) -> float:
    if math.isnan(min_grad) or math.isnan(dir_norm):
        return float("nan")
    if math.isinf(dir_norm):
        return 0.0
    return min_grad / dir_norm


class _Step(NamedTuple):
    """A completed iteration: step length, direction norm, next iterate.
    ``values``/``min_grad`` replace the diagnostics when the step rule has
    queried them at the pre-step point on the run ledger anyway."""

    alpha: float
    dir_norm: float
    x_next: Array
    step_floor: Optional[float] = None
    values: Optional[Array] = None
    min_grad: float = float("nan")


def _run(
    problem: MultiObjectiveProblem,
    x: Array,
    ledger: QueryLedger,
    step: Callable[[int, Array], Union[_Step, Tuple[str, float]]],
    max_iter: int,
    diagnostics: bool = True,
    ratio: bool = True,
) -> List[IterationRecord]:
    """The loop every solver shares; ``step`` is the method's step rule.

    ``step(k, x)`` makes iteration k's queries at x and returns a
    :class:`_Step`, or a (stop reason, direction norm) pair that ends the
    run. Each started iteration gets one record of its pre-step x, with the
    diagnostics taken there and the ledger read after the iteration's
    queries; past ``max_iter`` iterations the run ends with a MaxIter
    record. With ``ratio`` False (the baselines) ``ratio_metric`` is NaN.
    """
    records: List[IterationRecord] = []
    for k in itertools.count(1):
        out = step(k, x) if k <= max_iter else (STOP_MAX_ITER, float("nan"))
        done = not isinstance(out, _Step)
        reason, dir_norm = out if done else (None, out.dir_norm)
        if done or out.values is None:
            values, min_grad = _diagnostics(problem, x, diagnostics)
        else:
            values, min_grad = out.values, out.min_grad
        records.append(
            IterationRecord(
                k=k,
                x=x.copy(),
                alpha=0.0 if done else out.alpha,
                dir_norm=dir_norm,
                objective_values=values,
                min_grad_norm=min_grad,
                ratio_metric=_ratio(min_grad, dir_norm) if ratio else float("nan"),
                grad_evals=ledger.gradient_evals,
                fn_evals=ledger.function_evals,
                stop_reason=reason,
                step_floor=None if done else out.step_floor,
            )
        )
        if done:
            return records
        x = out.x_next


def _unqueried_verdict(outcome, refreshed: Array) -> bool:
    """A stopping verdict (infeasible, or norm-capped) whose certificate
    gives weight to a slate row that was never refreshed: the infeasible
    ``certificate``, or the capped ``active_set``."""
    if outcome.kind == INFEASIBLE:
        return not refreshed[outcome.certificate > 0.0].all()
    return outcome.norm_capped and not refreshed[list(outcome.active_set)].all()


def _central_stepper(problem, x, ledger, slate_init, seed, qp_tol, norm_cap):
    """Fill the slate at x; return ``refresh(k, x, rows)``, which starts both
    incremental step rules. It queries the gradients of ``rows`` into the
    slate and solves the central QP from the previous solve's active set.
    It returns (gradients, outcome), or the stop pair: NullGradient for a
    null slate row at k = 1 (before any query) or a zero refreshed
    gradient, Infeasible for a QP with no feasible direction within
    ``norm_cap`` (both certify criticality). Such a verdict stops the run
    only when every row it gives weight to has been queried; otherwise the
    QP over the queried rows alone decides, at no extra query.
    """
    m, n = problem.num_objectives, problem.dimension
    if slate_init == "random-unit":
        slate = GradientSlate.random_unit(m, n, seed)
    elif slate_init == "warm-start":
        rows = [gradient(problem, i, x, ledger) for i in range(m)]
        slate = GradientSlate.from_gradients(np.vstack(rows))
    else:
        raise ValueError(f"unknown slate_init {slate_init!r}")
    active: tuple = ()

    def refresh(k: int, x: Array, rows: Sequence[int]):
        nonlocal active
        if k == 1 and not slate.all_nonnull:
            return STOP_NULL_GRADIENT, float("nan")
        grads = [gradient(problem, i, x, ledger) for i in rows]
        if not all(g.any() for g in grads):
            return STOP_NULL_GRADIENT, float("nan")
        for i, g in zip(rows, grads):
            slate.update(i, g)
        outcome = central_direction(
            slate.vectors, tol=qp_tol, norm_cap=norm_cap, start=active
        )
        active = outcome.active_set
        if _unqueried_verdict(outcome, slate.refreshed):
            # the verdict leans on a row that was never queried (the
            # arbitrary initial fill): solve again, cold, over the queried
            # rows only, whose verdict is a real certificate
            queried = np.flatnonzero(slate.refreshed)
            outcome = central_direction(
                slate.vectors[queried], tol=qp_tol, norm_cap=norm_cap
            )
            active = tuple(int(queried[i]) for i in outcome.active_set)
        # "no feasible direction within the norm cap" is the emptiness
        # certificate: a capped-but-feasible QP stops the run the same way.
        if outcome.kind == INFEASIBLE:
            return STOP_INFEASIBLE, float("inf")
        if outcome.norm_capped:
            return STOP_INFEASIBLE, outcome.norm
        return grads, outcome

    return refresh


def _backtrack(
    decrease: Callable[[float], float], slope: float, beta: float, max_halvings: int
) -> Optional[float]:
    """Largest alpha in {1, 1/2, ..., 2**-max_halvings} with
    decrease(alpha) <= beta * alpha * slope, or None when there is none."""
    alpha = 1.0
    for _ in range(max_halvings + 1):
        if decrease(alpha) <= beta * alpha * slope:
            return alpha
        alpha *= 0.5
    return None


def armijo_backtrack(
    problem: MultiObjectiveProblem,
    j: int,
    x: Array,
    direction: Array,
    g_j: Array,
    beta: float,
    ledger: QueryLedger,
    max_halvings: int = 60,
) -> float:
    """Largest alpha in {1, 1/2, 1/4, ...} passing the sufficient-decrease test

        f_j(x + alpha d) - f_j(x) <= beta * alpha * (g_j . d).

    Counts one baseline query of f_j(x) plus one query per trial. Raises
    ValueError when d is not a descent direction for g_j and RuntimeError
    when no step within ``max_halvings`` halvings is acceptable.
    """
    details = _armijo_details(
        problem, j, x, direction, g_j, beta, ledger, max_halvings
    )
    if details is None:
        raise RuntimeError(
            f"no acceptable step within {max_halvings} halvings on objective {j}"
        )
    return details[0]


def _armijo_details(problem, j, x, direction, g_j, beta, ledger, max_halvings):
    """(alpha, f_j at the accepted point) of the backtracking search, or
    None when no step within ``max_halvings`` halvings is acceptable."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    slope = float(np.asarray(g_j, dtype=float) @ direction)
    if slope >= 0.0:
        raise ValueError("not a descent direction for objective j")
    f_base = evaluate(problem, j, x, ledger)
    trials: List[float] = []

    def decrease(alpha: float) -> float:
        trials.append(evaluate(problem, j, x + alpha * direction, ledger))
        return trials[-1] - f_base

    alpha = _backtrack(decrease, slope, beta, max_halvings)
    return None if alpha is None else (alpha, trials[-1])


def run_incremental_central(
    problem: MultiObjectiveProblem,
    x0: Array,
    schedule: StepSchedule,
    slate_init: str = "random-unit",
    seed: int = 0,
    max_iter: int = 10000,
    qp_tol: float = 1e-9,
    norm_cap: float = 1e6,
    diagnostics: bool = True,
) -> List[IterationRecord]:
    """Incremental central descent with a vanishing step schedule.

    Per iteration: refresh the slate entry of one objective (cyclic order),
    solve the central QP, and move by alpha_k along the normalized
    direction. Stops on a null (exactly zero) refreshed gradient, on a QP
    with no feasible direction within ``norm_cap`` (both certify
    criticality) or after ``max_iter`` iterations. Each QP is warm-started
    from the previous solve's active set. Exactly one
    gradient query per started iteration ends up in the ledger
    ("warm-start" initialization adds m queries up front); no function
    queries at all.
    """
    m = problem.num_objectives
    ledger = QueryLedger.for_objectives(m)
    x = np.array(x0, dtype=float)
    refresh = _central_stepper(
        problem, x, ledger, slate_init, seed, qp_tol, norm_cap
    )

    def step(k: int, x: Array):
        got = refresh(k, x, ((k - 1) % m,))
        if isinstance(got[0], str):
            return got
        outcome = got[1]
        alpha = schedule.alpha(k)
        return _Step(alpha, outcome.norm, x + alpha * (outcome.vector / outcome.norm))

    return _run(problem, x, ledger, step, max_iter, diagnostics)


class _CyclicChooser:
    """Deterministic t-choice: continue around the cycle, skipping j."""

    def __init__(self, m: int, start: int):
        self.m = m
        self.cursor = start

    def next(self, j: int) -> int:
        self.cursor = (self.cursor + 1) % self.m
        if self.cursor == j:
            self.cursor = (self.cursor + 1) % self.m
        return self.cursor


class _RandomChooser:
    """Seeded uniform t-choice over the indices other than j."""

    def __init__(self, m: int, seed: int):
        self.m = m
        self.rng = np.random.default_rng(seed)

    def next(self, j: int) -> int:
        t = int(self.rng.integers(self.m - 1))
        return t if t < j else t + 1


def run_incremental_central_armijo(
    problem: MultiObjectiveProblem,
    x0: Array,
    beta: float = 0.5,
    t_policy: str = "cyclic",
    seed: int = 0,
    slate_init: str = "random-unit",
    max_iter: int = 10000,
    qp_tol: float = 1e-9,
    norm_cap: float = 1e6,
    max_halvings: int = 60,
    diagnostics: bool = True,
) -> List[IterationRecord]:
    """Incremental central descent with an inexact line search.

    Per iteration: refresh the gradients of a tracked pair (j, t), solve the
    central QP, backtrack on f_j along the normalized direction, then probe
    a new t != j at the new point and hand it the j role when it is lower.
    Exactly two gradient queries per started iteration; function queries are
    the backtracking trials plus its baseline on objective j and one probe
    of objective t. Needs at least two objectives. Each QP is warm-started
    from the previous solve's active set.

    Stops on a null (exactly zero) refreshed gradient, on a QP with no
    feasible direction within ``norm_cap``, with LineSearchStall when no step
    within ``max_halvings`` halvings passes the test (the records so far are
    kept), or after ``max_iter`` iterations.

    ``t_policy`` is "cyclic" (default) or "random" (seeded). Records carry
    ``step_floor``, the guaranteed lower bound on the accepted step when the
    per-objective Lipschitz constant is known.
    """
    m = problem.num_objectives
    if m < 2:
        raise ValueError("the line-search variant needs at least two objectives")
    if t_policy not in ("cyclic", "random"):
        raise ValueError(f"unknown t_policy {t_policy!r}")
    ledger = QueryLedger.for_objectives(m)
    x = np.array(x0, dtype=float)
    # The cap is load-bearing here: past it the guaranteed decrease per
    # backtracking step drops under float rounding noise and the line
    # search can no longer terminate reliably.
    refresh = _central_stepper(
        problem, x, ledger, slate_init, seed, qp_tol, norm_cap
    )
    chooser = (
        _CyclicChooser(m, start=1)
        if t_policy == "cyclic"
        else _RandomChooser(m, seed)
    )
    j, t = 0, 1

    def step(k: int, x: Array):
        nonlocal j, t
        got = refresh(k, x, (j, t))
        if isinstance(got[0], str):
            return got
        (g_j, _), outcome = got
        unit = outcome.vector / outcome.norm
        details = _armijo_details(
            problem, j, x, unit, g_j, beta, ledger, max_halvings
        )
        if details is None:
            return STOP_LINE_SEARCH_STALL, outcome.norm
        alpha, f_accepted = details
        step_floor = None
        if problem.lipschitz is not None:
            l_j = problem.lipschitz[j]
            factor = 1.0 if l_j == 0.0 else min((1.0 - beta) / (2.0 * l_j), 1.0)
            # the search starts at alpha = 1, so no floor exceeds it
            step_floor = min(factor * float(row_norms(g_j)[0]) / outcome.norm, 1.0)
        x_next = x + alpha * unit
        t_next = chooser.next(j)
        f_probe = evaluate(problem, t_next, x_next, ledger)
        if f_probe < f_accepted:
            j, t = t_next, j
            retained, other = f_probe, f_accepted
        else:
            t = t_next
            retained, other = f_accepted, f_probe
        if not retained <= other:
            raise RuntimeError(
                f"swap bookkeeping lost monotonicity ({retained!r} > {other!r})"
            )
        return _Step(alpha, outcome.norm, x_next, step_floor)

    return _run(problem, x, ledger, step, max_iter, diagnostics)


def run_full_steepest(
    problem: MultiObjectiveProblem,
    x0: Array,
    beta: float = 0.5,
    max_iter: int = 10000,
    crit_tol: float = 1e-12,
    max_halvings: int = 60,
) -> List[IterationRecord]:
    """Steepest multi-gradient descent baseline: m gradient queries per step.

    Computes the regularized min-max direction from all current gradients
    and backtracks on the max-over-objectives decrease test
    max_i [f_i(x + alpha V) - f_i(x)] <= beta * alpha * max_i g_i . V.
    Stops with the NullGradient label when ||V_s|| falls below ``crit_tol``
    (criticality), with LineSearchStall when no step within ``max_halvings``
    halvings passes the test (the needed decrease is lost in float noise),
    or at the iteration cap.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    m = problem.num_objectives
    ledger = QueryLedger.for_objectives(m)

    def values_at(y: Array) -> Array:
        return np.array([evaluate(problem, i, y, ledger) for i in range(m)])

    def step(k: int, x: Array):
        grads = np.vstack([gradient(problem, i, x, ledger) for i in range(m)])
        v, _ = _steepest_direction(grads)
        vnorm = float(np.linalg.norm(v))
        if vnorm <= crit_tol:
            return STOP_NULL_GRADIENT, float("nan")
        slope = float((grads @ v).max())
        f_base = values_at(x)
        alpha = _backtrack(
            lambda a: float((values_at(x + a * v) - f_base).max()),
            slope, beta, max_halvings,
        )
        if alpha is None:
            return STOP_LINE_SEARCH_STALL, float("nan")
        return _Step(
            alpha, vnorm, x + alpha * v,
            values=f_base, min_grad=float(row_norms(grads).min()),
        )

    return _run(problem, np.array(x0, dtype=float), ledger, step, max_iter, ratio=False)


def _check_weights(pi: Sequence[float], m: int) -> Array:
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (m,):
        raise ValueError("one weight per objective")
    if np.any(pi < 0.0) or abs(float(pi.sum()) - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    return pi


def run_scalarized(
    problem: MultiObjectiveProblem,
    pi: Sequence[float],
    x0: Array,
    beta: float = 0.5,
    max_iter: int = 10000,
    crit_tol: float = 1e-12,
    max_halvings: int = 60,
) -> List[IterationRecord]:
    """Gradient descent with backtracking on the weighted sum sum_i pi_i f_i.

    All m gradients are queried every iteration (the weighted gradient needs
    them even for zero weights); each line-search trial costs m function
    queries. Stops with NullGradient when the weighted gradient falls below
    ``crit_tol``, with LineSearchStall when no step within ``max_halvings``
    halvings passes the test, or at the iteration cap.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    m = problem.num_objectives
    pi = _check_weights(pi, m)
    ledger = QueryLedger.for_objectives(m)

    def weighted_value(y: Array) -> float:
        return float(
            sum(pi[i] * evaluate(problem, i, y, ledger) for i in range(m))
        )

    def step(k: int, x: Array):
        grads = np.vstack([gradient(problem, i, x, ledger) for i in range(m)])
        g = pi @ grads
        gnorm = float(np.linalg.norm(g))
        if gnorm <= crit_tol:
            return STOP_NULL_GRADIENT, float("nan")
        f_base = weighted_value(x)
        alpha = _backtrack(
            lambda a: weighted_value(x - a * g) - f_base,
            -gnorm**2, beta, max_halvings,
        )
        if alpha is None:
            return STOP_LINE_SEARCH_STALL, float("nan")
        return _Step(alpha, gnorm, x - alpha * g)

    return _run(problem, np.array(x0, dtype=float), ledger, step, max_iter, ratio=False)


def run_incremental_aggregated(
    problem: MultiObjectiveProblem,
    pi: Sequence[float],
    x0: Array,
    alpha: float,
    window: int,
    max_iter: int = 10000,
    diagnostics: bool = True,
) -> List[IterationRecord]:
    """Incremental aggregated-gradient baseline on the weighted sum.

    One new gradient per iteration (cyclic objective order), scaled by
    m * pi_i so the window average estimates the weighted-sum gradient; the
    step is x - (alpha / window) * sum of the last ``window`` stored
    gradients, evaluated at the iterates where they were queried.
    """
    m = problem.num_objectives
    pi = _check_weights(pi, m)
    if alpha <= 0.0 or window < 1:
        raise ValueError("need alpha > 0 and window >= 1")
    ledger = QueryLedger.for_objectives(m)
    history: deque = deque(maxlen=window)

    def step(k: int, x: Array):
        idx = (k - 1) % m
        g = gradient(problem, idx, x, ledger)
        history.append(m * pi[idx] * g)
        aggregate = np.sum(history, axis=0) / window
        return _Step(alpha, float(np.linalg.norm(aggregate)), x - alpha * aggregate)

    return _run(
        problem, np.array(x0, dtype=float), ledger, step, max_iter,
        diagnostics, ratio=False,
    )


def classify_run(
    records: Sequence[IterationRecord],
    dir_cap: float = 1e6,
    grad_floor: float = 1e-6,
    value_floor: float = -1e3,
) -> str:
    """Assign a terminated or truncated incremental run to one behavior branch.

    Exactly one of three labels describes where the run is heading:

    * "vanishing-gradient": a null gradient stopped the run, or some exact
      gradient norm dropped to ``grad_floor``;
    * "direction-blowup": the QP turned infeasible or a direction norm
      reached ``dir_cap``;
    * "unbounded-decrease": every objective ended below ``value_floor``.

    Runs that trip no hard trigger are split between the first two labels by
    comparing how close each came (relative to its threshold); the third
    label always requires actually crossing the floor, so bounded-below
    problems can never land there.
    """
    if not records:
        raise ValueError("empty run")
    stop = records[-1].stop_reason
    grads = [r.min_grad_norm for r in records if not math.isnan(r.min_grad_norm)]
    min_grad = min(grads) if grads else float("inf")
    dirs = [r.dir_norm for r in records if not math.isnan(r.dir_norm)]
    max_dir = max(dirs) if dirs else 0.0
    if stop == STOP_NULL_GRADIENT or min_grad <= grad_floor:
        return BRANCH_VANISHING
    if stop == STOP_INFEASIBLE or max_dir >= dir_cap:
        return BRANCH_BLOWUP
    final = records[-1].objective_values
    if np.all(np.isfinite(final)) and np.all(final <= value_floor):
        return BRANCH_UNBOUNDED
    vanish_score = grad_floor / min_grad if min_grad > 0 else float("inf")
    blowup_score = max_dir / dir_cap
    return BRANCH_VANISHING if vanish_score >= blowup_score else BRANCH_BLOWUP


def _fmt(value: float) -> str:
    return format(float(value), TRACE_FLOAT_FORMAT)


def write_trace_csv(records: Sequence[IterationRecord], path: str) -> None:
    """Write a run trace: one row per record, 17-significant-digit floats.

    Columns: k, the iterate coordinates x0..x{n-1}, alpha, dir_norm, the
    objective values f0..f{m-1}, min_grad_norm, ratio_metric, the cumulative
    grad_evals/fn_evals and stop_reason (empty for completed steps).
    """
    if not records:
        raise ValueError("empty run")
    n = records[0].x.size
    m = records[0].objective_values.size
    header = (
        ["k"]
        + [f"x{d}" for d in range(n)]
        + ["alpha", "dir_norm"]
        + [f"f{i}" for i in range(m)]
        + ["min_grad_norm", "ratio_metric", "grad_evals", "fn_evals", "stop_reason"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            row = (
                [str(r.k)]
                + [_fmt(v) for v in r.x]
                + [_fmt(r.alpha), _fmt(r.dir_norm)]
                + [_fmt(v) for v in r.objective_values]
                + [
                    _fmt(r.min_grad_norm),
                    _fmt(r.ratio_metric),
                    str(r.grad_evals),
                    str(r.fn_evals),
                    r.stop_reason or "",
                ]
            )
            writer.writerow(row)
