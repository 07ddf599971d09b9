"""Criticality measures and worst-case bounds.

The measures quantify how far a point is from Pareto criticality:

* ``min_grad_norm``: smallest gradient norm (vanishes at individual minima);
* ``central_norm``: norm of the central descent direction (blows up, or the
  QP turns infeasible, near trade-off points);
* ``steepest_value``: optimal value of the regularized min-max program,
  always <= 0 with equality exactly at critical points.

The two geometric quantities below support perturbation arguments: the
alignment gap z(R) (how negative the worst normalized alignment can get
within a ball of radius R) and the perturbation margin (how much the
gradients may move before a radius-R infeasibility verdict can flip).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .directions import _prescaled_rows, _stacked_qp_values, steepest_direction
from .problems import MultiObjectiveProblem, QueryLedger, gradient_all

Array = np.ndarray


@dataclass
class ProximityReport:
    """Criticality measures at a single point."""

    min_grad_norm: float
    central_norm: float  # may be +inf when the QP is infeasible
    steepest_value: float
    ratio: float  # min_grad_norm / central_norm, 0.0 at +inf


def proximity_at(
    problem: MultiObjectiveProblem,
    x: Array,
    ledger: Optional[QueryLedger] = None,
) -> ProximityReport:
    """Evaluate all criticality measures at x.

    Queries every gradient once on ``ledger`` (a fresh diagnostic ledger by
    default, so solver accounting stays untouched) and takes the measures
    as :func:`~modescent.fields.sample_field` takes them at a grid node, bit
    for bit: the stack form of both QPs over a stack of one slate. A null
    gradient means x is critical: the central norm is reported as +inf,
    the steepest value as 0 and the ratio as 0; an infeasible central QP
    also reads +inf.
    """
    if ledger is None:
        ledger = QueryLedger.for_objectives(problem.num_objectives)
    grads = gradient_all(problem, x, ledger)
    sizes, steepest, central = _stacked_qp_values(grads[None])
    min_grad, central_norm = float(sizes.min()), float(central[0])
    ratio = min_grad / central_norm if math.isfinite(central_norm) else 0.0
    return ProximityReport(min_grad, central_norm, float(steepest[0]), ratio)


def rate_bound(
    f1_at_x0: float, f_min: float, beta: float, lipschitz: float, k: int
) -> float:
    """Worst-case bound on the best gradient-to-direction ratio after k steps.

    For the line-search solver the running minimum of
    min_t ||grad f_t(x_l)|| / ||V_l|| over the first k iterations is at most

        sqrt((f1(x0) - f_min) / (k * min(beta (1 - beta) / (2 L), beta))).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    if lipschitz <= 0.0:
        raise ValueError("lipschitz must be positive")
    if k < 1:
        raise ValueError("k must be at least 1")
    if f1_at_x0 < f_min:
        raise ValueError("f1_at_x0 must be at least f_min")
    denom = min(beta * (1.0 - beta) / (2.0 * lipschitz), beta)
    return math.sqrt((f1_at_x0 - f_min) / (k * denom))


def rate_bound_margins(
    ratios: Sequence[float],
    f1_at_x0: float,
    f_min: float,
    beta: float,
    lipschitz: float,
) -> List[float]:
    """bound(k) minus the running-min ratio, for every prefix k >= 1.

    Nonnegative entries mean the bound holds. ``ratios`` are per-iteration
    min-gradient-to-direction-norm values in iteration order.
    """
    margins = []
    running = math.inf
    for k, r in enumerate(ratios, start=1):
        running = min(running, r)
        margins.append(rate_bound(f1_at_x0, f_min, beta, lipschitz, k) - running)
    return margins


def _normalized(gradients: Union[Array, Sequence]) -> Tuple[Array, Array]:
    """Unit rows and row norms, normalized after the power-of-two prescale.

    Raises ValueError on a null or non-finite gradient.
    """
    scaled, norms, exps = _prescaled_rows(gradients)
    return scaled / norms[:, None], np.ldexp(norms, exps)


def alignment_gap(gradients: Union[Array, Sequence], radius: float) -> float:
    """z(R) = min over ||v|| <= R of max_i g_i . v / ||g_i||.

    Negative values certify a direction descending every objective inside
    the ball; 0 means the origin lies in the hull of the normalized
    gradients. By minimax duality z(R) equals -R times the distance from
    the origin to that hull, computed here through ``steepest_direction``
    on the normalized gradients. That runs the min-norm kernel table
    ``central_direction`` runs on the same unit rows (the pair closed form
    for m = 2, the triangle closed form for m = 3, Wolfe's corral
    otherwise), so the two cannot vouch for each other; the tests
    cross-check z(R) against ``steepest_dual_reference`` in
    ``tests/reference.py`` for any n and ``oracle``'s angular sweep for
    n = 2.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    unit, _ = _normalized(gradients)
    _, value = steepest_direction(unit)
    return -radius * math.sqrt(max(0.0, -2.0 * value))


def perturbation_margin(gradients: Union[Array, Sequence], radius: float) -> float:
    """Gradient perturbation budget preserving radius-R infeasibility.

    Requires z(R) > -1, i.e. no feasible central-QP point inside the ball of
    radius R. Any per-gradient perturbation strictly below the returned
    margin keeps the ball infeasible. Raises ValueError when z(R) <= -1.
    """
    _, norms = _normalized(gradients)
    z = alignment_gap(gradients, radius)
    if z <= -1.0:
        raise ValueError("ball already contains feasible points (z(R) <= -1)")
    return (z + 1.0) / (radius + 1.0) * float(norms.min())


def _scaled_slacks(
    gradients: Union[Array, Sequence], v: Array
) -> Tuple[Array, Array, Array]:
    """Central-QP slacks s_i = g_i . v + ||g_i||, each scaled by 2**-e_i.

    Returns (scaled slacks, exps, v) with s_i = 2**exps[i] * scaled[i]: the
    slacks of the rows after the power-of-two prescale, whose signs are the
    true ones even where s_i itself under- or overflows. Where it does not,
    2**exps[i] * scaled[i] is g_i . v + ||g_i|| bit for bit. Raises
    ValueError on a null or non-finite gradient.
    """
    scaled, norms, exps = _prescaled_rows(gradients)
    v = np.asarray(v, dtype=float)
    return scaled @ v + norms, exps, v


def interior_perturbation_margin(
    gradients: Union[Array, Sequence], v: Array
) -> float:
    """Largest eps with eps (1 + ||v||) < -s_i for every slack s_i.

    Here s_i = g_i . v + ||g_i|| are the central-QP slacks; the point v must
    be strictly feasible (all s_i < 0). Perturbing every gradient by less
    than the returned margin keeps v strictly feasible. The slacks are
    taken after the power-of-two prescale, so tiny (1e-300) and huge
    gradients get the verdict of unit ones; raises ValueError on a null or
    non-finite gradient.
    """
    slack, exps, v = _scaled_slacks(gradients, v)
    if np.any(slack >= 0.0):
        raise ValueError("v is not strictly feasible")
    return float(-np.ldexp(slack, exps).max() / (1.0 + np.linalg.norm(v)))


def exterior_perturbation_margin(
    gradients: Union[Array, Sequence], v: Array
) -> Tuple[float, int]:
    """Perturbation budget preserving the violation of some constraint at v.

    Requires at least one positive slack s_i = g_i . v + ||g_i|| > 0. Returns
    (margin, witness) where perturbations strictly below margin keep the
    witness constraint violated, so v stays outside the feasible set. The
    slacks are taken after the power-of-two prescale, as in
    :func:`interior_perturbation_margin`.
    """
    slack, exps, v = _scaled_slacks(gradients, v)
    violated = np.where(slack > 0.0, np.ldexp(slack, exps), -np.inf)
    witness = int(np.argmax(violated))
    if not slack[witness] > 0.0:
        raise ValueError("v is feasible; no violated constraint to preserve")
    return float(violated[witness] / (1.0 + np.linalg.norm(v))), witness
