"""Direction fields on planar grids and descent streamlines.

Sampling the central direction over a grid exposes the geometry of a
two-objective problem: the direction norm blows up near the efficient set
(where the gradients oppose each other) and the per-node mask flags exactly
those near-critical nodes. The grid is sampled in one batched pass: one
query for the gradients of every node, one power-of-two prescale of the
whole stack, and the min-norm kernel over all nodes at once, which for
m = 2 is a closed form broadcast over the stack and for m >= 3 one batched
corral over the stack, grouped by corral, bit for bit the per-slate Wolfe
iteration. ``oracle.sample_field_reference`` keeps the old
per-node loop, cold Wolfe solves throughout, as its reference.
Streamlines integrate the normalized field with explicit Euler steps and
halt once the local descent margin can no longer certify strict decrease
of every objective. Each step queries its m gradients in one
``gradient_all`` call, and a central streamline warm-starts each step's
central QP from the previous step's active set, as the incremental solvers
do; that changes the last bits of the points, not the answer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .directions import (
    INFEASIBLE,
    NORM_CAP,
    _stacked_qp_values,
    central_direction,
    steepest_direction,
)
from .problems import MultiObjectiveProblem, QueryLedger, gradient_all, gradients_at

Array = np.ndarray

Box = Sequence[Tuple[float, float]]

HALT_CRITICAL = "critical"
HALT_INFEASIBLE = "infeasible"
HALT_NORM_CAP = "norm-cap"
HALT_DESCENT_MARGIN = "descent-margin"
HALT_BOX_EXIT = "box-exit"
HALT_MAX_STEPS = "max-steps"

# Mask scale: a node at distance d from the critical set has
# min_i(||g_i|| / L_i) / central_norm of order d, so masking that ratio
# below 0.5 * h flags nodes within about one cell of the set. Dividing by
# the per-objective Lipschitz constant makes the rule invariant under
# positive per-objective rescaling, like the central direction itself.
DEFAULT_MASK_SCALE = 0.5

# a steepest streamline halts as critical once ||V_s|| drops below this
STEEPEST_CRIT_TOL = 1e-6


def _check_box(box: Box, dimension: int) -> List[Tuple[float, float]]:
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != dimension:
        raise ValueError("one (lo, hi) pair per coordinate")
    for lo, hi in box:
        if not lo < hi:
            raise ValueError("box bounds must satisfy lo < hi")
    return box


def _positive_lipschitz(problem: MultiObjectiveProblem) -> Optional[Array]:
    """The per-objective Lipschitz constants, or None when none is positive."""
    if problem.lipschitz is None:
        return None
    lip = np.asarray(problem.lipschitz, dtype=float)
    return lip if np.any(lip > 0.0) else None


def _grid_axes(problem: MultiObjectiveProblem, box: Box, resolution: int,
               mask_scale: float):
    """Checked (box, xs, ys, spacing) of a planar sampling grid.

    The mask scale is checked too: a NaN or negative one would turn the
    ratio mask off without a word.
    """
    if problem.dimension != 2:
        raise ValueError("field sampling is defined for planar problems")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not (math.isfinite(mask_scale) and mask_scale >= 0.0):
        raise ValueError(f"mask_scale must be finite and >= 0, got {mask_scale!r}")
    box = _check_box(box, 2)
    xs = np.linspace(box[0][0], box[0][1], resolution)
    ys = np.linspace(box[1][0], box[1][1], resolution)
    return box, xs, ys, max(xs[1] - xs[0], ys[1] - ys[0])


def _lipschitz_min(values: Array, lip: Array) -> Array:
    """min_i values_i / L_i over the last axis, skipping L_i = 0."""
    if np.minimum.reduce(lip) > 0.0:  # nothing to skip
        return np.minimum.reduce(values / lip, axis=-1)
    scaled = np.divide(
        values, lip, out=np.full_like(values, np.inf), where=lip > 0.0
    )
    return scaled.min(axis=-1)


@dataclass
class FieldGrid:
    """Per-node direction diagnostics on a rectangular grid.

    ``channels`` maps channel name to a (ny, nx) array; node (ix, iy) sits
    at (xs[ix], ys[iy]). ``mask`` is True where the node is flagged as
    near-critical and the central direction should not be trusted.
    """

    box: List[Tuple[float, float]]
    resolution: int
    xs: Array
    ys: Array
    channels: Dict[str, Array]
    mask: Array

    CHANNEL_ORDER = ("min_grad_norm", "central_norm", "steepest_value")

    def to_csv(self, path: str, channels: Optional[Sequence[str]] = None) -> None:
        """One row per node (y-major), floats at 17 significant digits.

        The first line is a '#'-prefixed JSON header recording the box and
        resolution, then a header row: x, y, the channel columns in their
        canonical order (or the requested subset) and the 0/1 critical_mask.

        x and y take only ``resolution`` values each and are formatted once;
        each grid row's channel cells go through one printf into a template
        that holds x, y and the mask as text. What is left is the floor, the
        17-digit formatting of the channel cells: at res 80 (19 200 cells)
        the write takes about 0.02 s on a shared 2-CPU virtual machine,
        against 0.03 s with every cell formatted on its own.
        """
        names = list(self.CHANNEL_ORDER if channels is None else channels)
        for name in names:
            if name not in self.channels:
                raise ValueError(f"unknown channel {name!r}")
        meta = json.dumps(
            {"box": self.box, "resolution": self.resolution}, sort_keys=True
        )
        cells = ",%.17g" * len(names)
        heads = [("%.17g,{y}" % x) + cells for x in self.xs.tolist()]
        marks = (",0\n", ",1\n")
        # each node's channel cells side by side, in the template's order
        values = np.empty(self.mask.shape + (len(names),))
        for k, name in enumerate(names):
            values[..., k] = self.channels[name]
        with open(path, "w", newline="") as fh:
            fh.write(f"# {meta}\n")
            fh.write(",".join(["x", "y"] + names + ["critical_mask"]) + "\n")
            for iy, y in enumerate(self.ys.tolist()):
                flags = map(marks.__getitem__, self.mask[iy].tolist())
                template = "".join(map(str.__add__, heads, flags))
                row = tuple(values[iy].ravel().tolist())
                fh.write(template.replace("{y}", "%.17g" % y) % row)


def sample_field(
    problem: MultiObjectiveProblem,
    box: Box,
    resolution: int,
    mask_scale: float = DEFAULT_MASK_SCALE,
) -> FieldGrid:
    """Sample direction diagnostics over a planar grid.

    Channels per node: ``min_grad_norm`` (smallest gradient norm, taken
    after a power-of-two prescale, so a 1e-300 gradient keeps its size),
    ``central_norm`` (norm of the central direction, inf when the QP is
    infeasible) and ``steepest_value`` (optimal value of the regularized
    min-max problem, 0 exactly at critical points).

    A node is masked when the QP is infeasible, when the central norm
    exceeds ``NORM_CAP`` (where ``central_direction`` sets
    ``norm_capped``), or when min_i(||g_i|| / L_i) / central_norm falls to
    ``mask_scale * h`` (h = grid spacing, L_i the per-objective Lipschitz
    constants). That ratio shrinks linearly with the distance to the
    critical set and is invariant under positive per-objective rescaling,
    so the threshold flags the nodes within about two ``mask_scale`` cells
    of the set regardless of objective units. The ratio test is skipped
    when no Lipschitz constants are declared; objectives with a zero
    constant (linear) are excluded from the min. A node with an exactly
    zero gradient is masked with central norm inf and steepest value 0.

    All nodes are sampled in one pass: one :func:`gradients_at` query (m
    gradient queries per node), then both QPs over the whole gradient
    stack, with the arithmetic of ``central_direction`` and
    ``steepest_direction`` node by node (bit for bit theirs). For m = 2
    that is the closed form, and ``oracle.sample_field_reference`` (cold
    Wolfe solves per node) is the reference; for m >= 3 both run Wolfe and
    agree bit for bit.
    """
    box, xs, ys, spacing = _grid_axes(problem, box, resolution, mask_scale)
    lip = _positive_lipschitz(problem)
    gx, gy = np.meshgrid(xs, ys)
    ledger = QueryLedger.for_objectives(problem.num_objectives)
    grads = gradients_at(problem, np.stack([gx.ravel(), gy.ravel()], 1), ledger)
    sizes, steepest, central = _stacked_qp_values(grads)
    # infinite: infeasible, or a null gradient
    mask = ~np.isfinite(central)
    live = np.flatnonzero(~mask)
    flagged = central[live] > NORM_CAP
    if lip is not None:
        ratio = _lipschitz_min(sizes[live], lip) / central[live]
        flagged |= ratio <= mask_scale * spacing
    mask[live] = flagged
    shape = (resolution, resolution)
    return FieldGrid(
        box=box,
        resolution=resolution,
        xs=xs,
        ys=ys,
        channels={
            "min_grad_norm": sizes.min(axis=1).reshape(shape),
            "central_norm": central.reshape(shape),
            "steepest_value": steepest.reshape(shape),
        },
        mask=mask.reshape(shape),
    )


def trace_streamline(
    problem: MultiObjectiveProblem,
    x0: Array,
    field: str = "central",
    step: float = 0.01,
    max_steps: int = 10000,
    box: Optional[Box] = None,
) -> Tuple[Array, str]:
    """Integrate a descent field with fixed-length explicit Euler steps.

    ``field`` selects the direction: "central" follows the normalized
    central direction, "steepest" the normalized min-max direction. Returns
    (points, halt), where points has the visited iterates as rows (x0
    first) and halt names the reason integration stopped.

    The central field halts before any step whose guaranteed decrease
    vanishes: once min_i(-g_i . u / L_i) <= step / 2, the quadratic upper
    bound no longer certifies that the step strictly reduces every
    objective (skipped when no positive Lipschitz constants are declared;
    zero-constant objectives decrease whenever g_i . u < 0 and are
    excluded from the min). The per-objective form keeps the halt point
    invariant under positive rescalings of the objectives. It also
    halts on an infeasible QP, a norm-capped one (norm above ``NORM_CAP``),
    a null (exactly zero) gradient, a box exit, or after ``max_steps``
    steps. The steepest field halts once ||direction|| <
    ``STEEPEST_CRIT_TOL`` (plus box exit and the step cap). Every recorded
    step of a central streamline strictly decreases every objective.

    Each central solve after the first starts the min-norm iteration from
    the previous solve's active set (``central_direction``'s ``start``):
    consecutive points are one short step apart, so the corral rarely
    changes. The cold solve is the reference the warm streamline is tested
    against. A central step is one ``gradient_all`` query, one central
    solve, the margin test and the Euler step: about 0.11 ms on figure1
    (m = 2, the single-pair closed form) on a shared 2-CPU virtual machine,
    0.06 ms of it the central solve.
    """
    if field not in ("central", "steepest"):
        raise ValueError(f"unknown field {field!r}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    x = np.array(x0, dtype=float)
    checked_box = None if box is None else _check_box(box, problem.dimension)
    lip = _positive_lipschitz(problem)
    points = [x.copy()]
    ledger = QueryLedger.for_objectives(problem.num_objectives)
    active: Tuple[int, ...] = ()
    for _ in range(max_steps):
        grads = gradient_all(problem, x, ledger)
        if field == "central":
            if not grads.any(axis=1).all():
                return np.vstack(points), HALT_CRITICAL
            outcome = central_direction(grads, start=active)
            active = outcome.active_set
            if outcome.kind == INFEASIBLE:
                return np.vstack(points), HALT_INFEASIBLE
            if outcome.norm_capped:
                return np.vstack(points), HALT_NORM_CAP
            unit = outcome.vector / outcome.norm
            if lip is not None and _lipschitz_min(-grads @ unit, lip) <= 0.5 * step:
                return np.vstack(points), HALT_DESCENT_MARGIN
        else:
            v, _ = steepest_direction(grads)
            vnorm = float(np.linalg.norm(v))
            if vnorm < STEEPEST_CRIT_TOL:
                return np.vstack(points), HALT_CRITICAL
            unit = v / vnorm
        candidate = x + step * unit
        if checked_box is not None and any(
            not lo <= candidate[d] <= hi for d, (lo, hi) in enumerate(checked_box)
        ):
            return np.vstack(points), HALT_BOX_EXIT
        x = candidate
        points.append(x.copy())
    return np.vstack(points), HALT_MAX_STEPS


def write_streamlines_csv(
    streamlines: Sequence[Tuple[Array, str]], path: str
) -> None:
    """Write planar streamlines as (id, step, x, y) polyline rows.

    Halting reasons stay in the in-process API; the CSV carries only the
    polylines, one row per visited point.
    """
    if not streamlines:
        raise ValueError("no streamlines to write")
    if any(points.shape[1] != 2 for points, _ in streamlines):
        raise ValueError("streamline CSV export is planar only")
    with open(path, "w", newline="") as fh:
        fh.write("id,step,x,y\n")
        for sid, (points, _) in enumerate(streamlines):
            fh.write(
                "".join(
                    "%d,%d,%.17g,%.17g\n" % (sid, s, x, y)
                    for s, (x, y) in enumerate(points.tolist())
                )
            )
