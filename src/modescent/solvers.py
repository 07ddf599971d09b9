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

Every run returns a list of :class:`IterationRecord`; one record per started
iteration, where the last record carries the stop reason and the final
iterate. Gradient and function queries are counted exactly in the run's
ledger. Per-record diagnostics (objective values, smallest gradient norm)
come from one :func:`~modescent.problems.values_and_gradients` call per
record on a separate throwaway ledger, so they never distort the
accounting and cost one stacked evaluation rather than 2m single queries;
the gradient norms are taken after a power-of-two prescale, so tiny
gradients do not read as 0.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .directions import (
    DIRECTION,
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


def _make_slate(
    problem: MultiObjectiveProblem,
    x: Array,
    slate_init: str,
    seed: int,
    ledger: QueryLedger,
) -> GradientSlate:
    m, n = problem.num_objectives, problem.dimension
    if slate_init == "random-unit":
        return GradientSlate.random_unit(m, n, seed)
    if slate_init == "warm-start":
        rows = [gradient(problem, i, x, ledger) for i in range(m)]
        return GradientSlate.from_gradients(np.vstack(rows))
    raise ValueError(f"unknown slate_init {slate_init!r}")


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
    """(alpha, f_base, f_accepted, trials) of the backtracking search, or
    None when no step within ``max_halvings`` halvings is acceptable."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    slope = float(np.asarray(g_j, dtype=float) @ direction)
    if slope >= 0.0:
        raise ValueError("not a descent direction for objective j")
    f_base = evaluate(problem, j, x, ledger)
    alpha = 1.0
    for trials in range(1, max_halvings + 2):
        f_trial = evaluate(problem, j, x + alpha * direction, ledger)
        if f_trial - f_base <= beta * alpha * slope:
            return alpha, f_base, f_trial, trials
        alpha *= 0.5
    return None


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
    ledger = QueryLedger.for_objectives(problem.num_objectives)
    x = np.array(x0, dtype=float)
    m = problem.num_objectives
    records: List[IterationRecord] = []
    slate = _make_slate(problem, x, slate_init, seed, ledger)

    def terminal(k: int, reason: str, dir_norm: float) -> IterationRecord:
        values, min_grad = _diagnostics(problem, x, diagnostics)
        return IterationRecord(
            k=k,
            x=x.copy(),
            alpha=0.0,
            dir_norm=dir_norm,
            objective_values=values,
            min_grad_norm=min_grad,
            ratio_metric=_ratio(min_grad, dir_norm),
            grad_evals=ledger.gradient_evals,
            fn_evals=ledger.function_evals,
            stop_reason=reason,
        )

    if not slate.all_nonnull:
        records.append(terminal(1, STOP_NULL_GRADIENT, float("nan")))
        return records
    # each QP starts from the previous support: one or two rows change
    active: tuple = ()

    for k in range(1, max_iter + 1):
        t = (k - 1) % m
        g = gradient(problem, t, x, ledger)
        if not g.any():
            records.append(terminal(k, STOP_NULL_GRADIENT, float("nan")))
            return records
        slate.update(t, g)
        outcome = central_direction(
            slate.vectors, tol=qp_tol, norm_cap=norm_cap, start=active
        )
        # "no feasible direction within the norm cap" is the emptiness
        # certificate: a capped-but-feasible QP stops the run the same way.
        if outcome.kind == INFEASIBLE or outcome.norm_capped:
            dir_norm = float("inf") if outcome.kind == INFEASIBLE else outcome.norm
            records.append(terminal(k, STOP_INFEASIBLE, dir_norm))
            return records
        active = outcome.active_set
        alpha = schedule.alpha(k)
        values, min_grad = _diagnostics(problem, x, diagnostics)
        records.append(
            IterationRecord(
                k=k,
                x=x.copy(),
                alpha=alpha,
                dir_norm=outcome.norm,
                objective_values=values,
                min_grad_norm=min_grad,
                ratio_metric=_ratio(min_grad, outcome.norm),
                grad_evals=ledger.gradient_evals,
                fn_evals=ledger.function_evals,
            )
        )
        x = x + alpha * (outcome.vector / outcome.norm)
    records.append(terminal(max_iter + 1, STOP_MAX_ITER, float("nan")))
    return records


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
    records: List[IterationRecord] = []
    slate = _make_slate(problem, x, slate_init, seed, ledger)
    chooser = (
        _CyclicChooser(m, start=1)
        if t_policy == "cyclic"
        else _RandomChooser(m, seed)
    )
    j, t = 0, 1

    def terminal(k: int, reason: str, dir_norm: float) -> IterationRecord:
        values, min_grad = _diagnostics(problem, x, diagnostics)
        return IterationRecord(
            k=k,
            x=x.copy(),
            alpha=0.0,
            dir_norm=dir_norm,
            objective_values=values,
            min_grad_norm=min_grad,
            ratio_metric=_ratio(min_grad, dir_norm),
            grad_evals=ledger.gradient_evals,
            fn_evals=ledger.function_evals,
            stop_reason=reason,
        )

    if not slate.all_nonnull:
        records.append(terminal(1, STOP_NULL_GRADIENT, float("nan")))
        return records
    # each QP starts from the previous support: one or two rows change
    active: tuple = ()

    for k in range(1, max_iter + 1):
        g_j = gradient(problem, j, x, ledger)
        g_t = gradient(problem, t, x, ledger)
        if not g_j.any() or not g_t.any():
            records.append(terminal(k, STOP_NULL_GRADIENT, float("nan")))
            return records
        slate.update(j, g_j)
        slate.update(t, g_t)
        outcome = central_direction(
            slate.vectors, tol=qp_tol, norm_cap=norm_cap, start=active
        )
        # The cap is load-bearing here: past it the guaranteed decrease per
        # backtracking step drops under float rounding noise and the line
        # search can no longer terminate reliably.
        if outcome.kind == INFEASIBLE or outcome.norm_capped:
            dir_norm = float("inf") if outcome.kind == INFEASIBLE else outcome.norm
            records.append(terminal(k, STOP_INFEASIBLE, dir_norm))
            return records
        active = outcome.active_set
        unit = outcome.vector / outcome.norm
        details = _armijo_details(
            problem, j, x, unit, g_j, beta, ledger, max_halvings
        )
        if details is None:
            records.append(terminal(k, STOP_LINE_SEARCH_STALL, outcome.norm))
            return records
        alpha, _, f_accepted, _ = details
        step_floor = None
        if problem.lipschitz is not None:
            l_j = problem.lipschitz[j]
            factor = 1.0 if l_j == 0.0 else min((1.0 - beta) / (2.0 * l_j), 1.0)
            step_floor = factor * float(np.linalg.norm(g_j)) / outcome.norm
        values, min_grad = _diagnostics(problem, x, diagnostics)
        x_pre = x.copy()
        x = x + alpha * unit
        t_next = chooser.next(j)
        f_probe = evaluate(problem, t_next, x, ledger)
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
        records.append(
            IterationRecord(
                k=k,
                x=x_pre,
                alpha=alpha,
                dir_norm=outcome.norm,
                objective_values=values,
                min_grad_norm=min_grad,
                ratio_metric=_ratio(min_grad, outcome.norm),
                grad_evals=ledger.gradient_evals,
                fn_evals=ledger.function_evals,
                step_floor=step_floor,
            )
        )
    records.append(terminal(max_iter + 1, STOP_MAX_ITER, float("nan")))
    return records


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
    x = np.array(x0, dtype=float)
    records: List[IterationRecord] = []

    def values_at(y: Array) -> Array:
        return np.array([evaluate(problem, i, y, ledger) for i in range(m)])

    def terminal(k: int, reason: str) -> IterationRecord:
        values, min_grad = _diagnostics(problem, x, True)
        return IterationRecord(
            k=k,
            x=x.copy(),
            alpha=0.0,
            dir_norm=float("nan"),
            objective_values=values,
            min_grad_norm=min_grad,
            ratio_metric=float("nan"),
            grad_evals=ledger.gradient_evals,
            fn_evals=ledger.function_evals,
            stop_reason=reason,
        )

    for k in range(1, max_iter + 1):
        grads = np.vstack([gradient(problem, i, x, ledger) for i in range(m)])
        v, _ = _steepest_direction(grads)
        vnorm = float(np.linalg.norm(v))
        if vnorm <= crit_tol:
            records.append(terminal(k, STOP_NULL_GRADIENT))
            return records
        slope = float((grads @ v).max())
        f_base = values_at(x)
        alpha = 1.0
        accepted = False
        for _ in range(max_halvings + 1):
            f_trial = values_at(x + alpha * v)
            if float((f_trial - f_base).max()) <= beta * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            records.append(terminal(k, STOP_LINE_SEARCH_STALL))
            return records
        records.append(
            IterationRecord(
                k=k,
                x=x.copy(),
                alpha=alpha,
                dir_norm=vnorm,
                objective_values=f_base,
                min_grad_norm=float(row_norms(grads).min()),
                ratio_metric=float("nan"),
                grad_evals=ledger.gradient_evals,
                fn_evals=ledger.function_evals,
            )
        )
        x = x + alpha * v
    records.append(terminal(max_iter + 1, STOP_MAX_ITER))
    return records


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
    x = np.array(x0, dtype=float)
    records: List[IterationRecord] = []

    def weighted_value(y: Array) -> float:
        return float(
            sum(pi[i] * evaluate(problem, i, y, ledger) for i in range(m))
        )

    def terminal(k: int, reason: str) -> IterationRecord:
        values, min_grad = _diagnostics(problem, x, True)
        return IterationRecord(
            k=k,
            x=x.copy(),
            alpha=0.0,
            dir_norm=float("nan"),
            objective_values=values,
            min_grad_norm=min_grad,
            ratio_metric=float("nan"),
            grad_evals=ledger.gradient_evals,
            fn_evals=ledger.function_evals,
            stop_reason=reason,
        )

    for k in range(1, max_iter + 1):
        grads = np.vstack([gradient(problem, i, x, ledger) for i in range(m)])
        g = pi @ grads
        gnorm = float(np.linalg.norm(g))
        if gnorm <= crit_tol:
            records.append(terminal(k, STOP_NULL_GRADIENT))
            return records
        f_base = weighted_value(x)
        alpha = 1.0
        accepted = False
        for _ in range(max_halvings + 1):
            if weighted_value(x - alpha * g) - f_base <= -beta * alpha * gnorm**2:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            records.append(terminal(k, STOP_LINE_SEARCH_STALL))
            return records
        values, min_grad = _diagnostics(problem, x, True)
        records.append(
            IterationRecord(
                k=k,
                x=x.copy(),
                alpha=alpha,
                dir_norm=gnorm,
                objective_values=values,
                min_grad_norm=min_grad,
                ratio_metric=float("nan"),
                grad_evals=ledger.gradient_evals,
                fn_evals=ledger.function_evals,
            )
        )
        x = x - alpha * g
    records.append(terminal(max_iter + 1, STOP_MAX_ITER))
    return records


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
    x = np.array(x0, dtype=float)
    records: List[IterationRecord] = []
    history: deque = deque(maxlen=window)
    for k in range(1, max_iter + 1):
        idx = (k - 1) % m
        g = gradient(problem, idx, x, ledger)
        history.append(m * pi[idx] * g)
        aggregate = np.sum(history, axis=0) / window
        values, min_grad = _diagnostics(problem, x, diagnostics)
        records.append(
            IterationRecord(
                k=k,
                x=x.copy(),
                alpha=alpha,
                dir_norm=float(np.linalg.norm(aggregate)),
                objective_values=values,
                min_grad_norm=min_grad,
                ratio_metric=float("nan"),
                grad_evals=ledger.gradient_evals,
                fn_evals=ledger.function_evals,
            )
        )
        x = x - alpha * aggregate
    values, min_grad = _diagnostics(problem, x, diagnostics)
    records.append(
        IterationRecord(
            k=max_iter + 1,
            x=x.copy(),
            alpha=0.0,
            dir_norm=float("nan"),
            objective_values=values,
            min_grad_norm=min_grad,
            ratio_metric=float("nan"),
            grad_evals=ledger.gradient_evals,
            fn_evals=ledger.function_evals,
            stop_reason=STOP_MAX_ITER,
        )
    )
    return records


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
