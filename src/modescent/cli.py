"""Command-line front end: solve, field and verify subcommands.

``solve`` runs one of the iterative methods on a named problem and prints a
single-line JSON summary (optionally writing the full iteration trace as
CSV). ``field`` samples direction diagnostics over a planar grid and can
trace streamlines. ``verify`` runs one of six built-in self-check suites
and reports per-check margins.

Exit codes: 0 on success, 1 on usage or runtime errors, 2 when a verify
suite fails. Output is deterministic: identical arguments produce
byte-identical stdout and files.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from .directions import (
    DIRECTION,
    INFEASIBLE,
    _min_norm_points,
    _wolfe_min_norm_point,
    central_direction,
    steepest_direction,
)
from .fields import (
    DEFAULT_MASK_SCALE,
    sample_field,
    trace_streamline,
    write_streamlines_csv,
)
from .metrics import (
    alignment_gap,
    exterior_perturbation_margin,
    interior_perturbation_margin,
    perturbation_margin,
    rate_bound,
    rate_bound_margins,
)
from .oracle import (
    angular_sweep_alignment_gap,
    figure1_efficient_curve,
    hull_contains_origin_2d,
)
from .problems import (
    MultiObjectiveProblem,
    QueryLedger,
    gradient_all,
    make_figure1_problem,
    problem_from_name,
)
from .solvers import (
    STOP_MAX_ITER,
    StepSchedule,
    classify_run,
    run_full_steepest,
    run_incremental_aggregated,
    run_incremental_central,
    run_incremental_central_armijo,
    run_scalarized,
    write_trace_csv,
)

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract is 1.

    Also widens the negative-number heuristic so values such as
    ``--box -3,1,-3,1`` and ``--x0 -0.5,-0.5`` parse as option values
    rather than unknown flags, and makes ``--help`` show each default.
    ``build_parser`` sets ``commands`` on the top-level parser: the
    subcommand parsers by name.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d.,eE+-]*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jsonable(value):
    """Replace non-finite floats so summaries stay valid JSON."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _emit(payload: dict) -> None:
    print(json.dumps(_jsonable(payload), sort_keys=True))


def _read_config(path: str) -> Dict[str, str]:
    """key=value per line; blank lines and '#' comments are ignored."""
    out: Dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _parse_floats(text: str, what: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse {what}: {text!r}") from exc


def _parse_x0(text: Optional[str], problem: MultiObjectiveProblem) -> np.ndarray:
    if text is None:
        return np.zeros(problem.dimension)
    values = _parse_floats(text, "--x0")
    if len(values) != problem.dimension:
        raise ValueError(
            f"--x0 has {len(values)} coordinates, problem needs {problem.dimension}"
        )
    return np.array(values)


def _parse_box(text: str) -> List:
    values = _parse_floats(text, "--box")
    if len(values) != 4:
        raise ValueError("--box needs xmin,xmax,ymin,ymax")
    return [(values[0], values[1]), (values[2], values[3])]


def build_parser() -> _Parser:
    """The CLI parser: each option's default and type is stated here once.

    ``main`` builds one per call, because a ``--config`` file replaces the
    subcommand's defaults with ``set_defaults``, which mutates the parser.
    """
    parser = _Parser(prog="modescent", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    solve = sub.add_parser("solve", help="run an iterative method")
    solve.add_argument("--config", help="key=value defaults file")
    solve.add_argument("--problem", default="figure1",
                       help="figure1 | figure1-scaled:<k1>,<k2> | "
                       "random-quadratic:<m>,<n>,<seed> | "
                       "linear-decline:<m>,<n>,<seed>")
    solve.add_argument("--algo", default="icd", help="icd | icd-armijo | steepest | "
                       "scalarized:<w1>,...,<wm> | iag")
    solve.add_argument("--x0", help="comma-separated start point; None is the origin")
    solve.add_argument("--schedule", default="harmonic:1",
                       help="icd step schedule: harmonic[:c] | powerlaw:<c>,<p>")
    solve.add_argument("--beta", type=float, default=0.5,
                       help="sufficient-decrease parameter")
    solve.add_argument("--seed", type=int, default=0,
                       help="seed for slate init / random t")
    solve.add_argument("--max-iter", type=int, default=1000, help="iteration cap")
    solve.add_argument("--slate-init", choices=("random-unit", "warm-start"),
                       default="random-unit", help="how icd and icd-armijo fill "
                       "the gradient slate at x0")
    solve.add_argument("--t-policy", choices=("cyclic", "random"), default="cyclic",
                       help="how icd-armijo picks the objective t it probes")
    solve.add_argument("--iag-alpha", type=float, default=0.05, help="iag step length")
    solve.add_argument("--iag-window", type=int, default=0,
                       help="iag gradient window; 0 means one per objective")
    solve.add_argument("--out", help="write the iteration trace CSV here")

    field = sub.add_parser("field", help="sample direction diagnostics on a grid")
    field.add_argument("--config", help="key=value defaults file")
    field.add_argument("--problem", default="figure1", help="a planar problem, "
                       "named as for solve")
    field.add_argument("--box", default="-2,1,-2,1", help="xmin,xmax,ymin,ymax")
    field.add_argument("--res", "--resolution", type=int, default=41,
                       dest="resolution", help="grid nodes per axis")
    field.add_argument("--mask-scale", type=float, default=DEFAULT_MASK_SCALE,
                       help="mask a node once its criticality ratio falls to this "
                       "many grid spacings")
    field.add_argument("--channel", help="restrict the grid CSV to one channel")
    field.add_argument("--out", required=True, help="grid CSV path")
    field.add_argument("--field", choices=("central", "steepest"), default="central",
                       help="direction field for streamlines")
    field.add_argument("--step", type=float, default=0.01,
                       help="streamline step length")
    field.add_argument("--max-steps", type=int, default=10000,
                       help="streamline step cap")
    field.add_argument("--streamline", action="append", metavar="X,Y",
                       help="trace a streamline from this start (repeatable)")
    field.add_argument("--streamlines", metavar="SEEDS_CSV",
                       help="trace one streamline per x,y row of this file")
    field.add_argument("--streamlines-out", help="streamline CSV path; None means "
                       "<out>.streamlines.csv")

    verify = sub.add_parser("verify", help="run a built-in self-check suite")
    verify.add_argument("--suite", required=True, choices=SUITES)
    verify.add_argument("--seed", type=int, default=0,
                        help="seed of the suite's random cases")
    return parser


def _config_defaults(args: argparse.Namespace) -> Dict[str, str]:
    """The ``--config`` file's values for the command's options, by dest.

    A key is an option's long name without the leading dashes; other keys
    are ignored, and so is ``streamline``: it appends, so a text default
    would be iterated character by character.
    """
    config = _read_config(args.config)
    return {
        dest: config[key]
        for dest in vars(args)
        if (key := dest.replace("_", "-")) in config
        and dest not in ("command", "config", "streamline")
    }


def _run_named_algo(problem, args):
    x0 = _parse_x0(args.x0, problem)
    algo, beta, max_iter = args.algo, args.beta, args.max_iter
    if algo == "icd":
        return run_incremental_central(
            problem, x0, StepSchedule.parse(args.schedule),
            slate_init=args.slate_init, seed=args.seed, max_iter=max_iter,
        )
    if algo == "icd-armijo":
        return run_incremental_central_armijo(
            problem, x0, beta=beta, t_policy=args.t_policy, seed=args.seed,
            slate_init=args.slate_init, max_iter=max_iter,
        )
    if algo == "steepest":
        return run_full_steepest(problem, x0, beta=beta, max_iter=max_iter)
    if algo.startswith("scalarized:"):
        pi = _parse_floats(algo.partition(":")[2], "scalarized weights")
        return run_scalarized(problem, pi, x0, beta=beta, max_iter=max_iter)
    if algo == "iag":
        m = problem.num_objectives
        return run_incremental_aggregated(
            problem, np.full(m, 1.0 / m), x0, alpha=args.iag_alpha,
            window=args.iag_window or m, max_iter=max_iter,
        )
    raise ValueError(f"unknown algo {algo!r}")


def _cmd_solve(args) -> int:
    problem = problem_from_name(args.problem)
    algo = args.algo
    records = _run_named_algo(problem, args)
    if args.out:
        write_trace_csv(records, args.out)
    last = records[-1]
    summary = {
        "algo": algo,
        "problem": problem.name,
        "iterations": len(records) - 1,
        "stop_reason": last.stop_reason,
        "grad_evals": last.grad_evals,
        "fn_evals": last.fn_evals,
        "final_x": last.x,
        "final_values": last.objective_values,
        "final_ratio_metric": last.ratio_metric,
    }
    if algo in ("icd", "icd-armijo"):
        summary["classification"] = classify_run(records)
    if (
        algo == "icd-armijo"
        and problem.lipschitz is not None
        and problem.lower_bound is not None
    ):
        steps = [r for r in records if r.stop_reason is None]
        if steps:
            margins = rate_bound_margins(
                [r.ratio_metric for r in steps],
                f1_at_x0=float(steps[0].objective_values[0]),
                f_min=problem.lower_bound,
                beta=args.beta,
                lipschitz=problem.max_lipschitz,
            )
            summary["bound_satisfied"] = bool(min(margins) >= -1e-9)
    _emit(summary)
    return 0


def _read_seed_points(path: str) -> List[List[float]]:
    """x,y rows; blank lines, '#' comments and a non-numeric header allowed."""
    seeds = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                seeds.append(_parse_floats(line, "seed row"))
            except ValueError:
                if seeds:
                    raise
                continue  # header row
    if not seeds:
        raise ValueError(f"no seed points in {path}")
    return seeds


def _cmd_field(args) -> int:
    problem = problem_from_name(args.problem)
    box = _parse_box(args.box)
    resolution = args.resolution
    grid = sample_field(problem, box, resolution, mask_scale=args.mask_scale)
    grid.to_csv(args.out, channels=[args.channel] if args.channel else None)
    summary = {
        "problem": problem.name,
        "nodes": int(resolution * resolution),
        "masked_nodes": int(grid.mask.sum()),
        "out": args.out,
    }
    starts = [_parse_floats(t, "--streamline") for t in (args.streamline or [])]
    if args.streamlines:
        starts.extend(_read_seed_points(args.streamlines))
    if starts:
        lines = []
        for start in starts:
            if len(start) != problem.dimension:
                raise ValueError(
                    f"streamline seeds need {problem.dimension} coordinates"
                )
            lines.append(trace_streamline(
                problem, np.array(start), field=args.field, step=args.step,
                max_steps=args.max_steps, box=box,
            ))
        out_lines = args.streamlines_out or args.out + ".streamlines.csv"
        write_streamlines_csv(lines, out_lines)
        summary["streamlines_out"] = out_lines
        summary["streamlines"] = [
            {"steps": int(points.shape[0] - 1), "halt": halt}
            for points, halt in lines
        ]
    _emit(summary)
    return 0


def _check(name: str, margin: float) -> dict:
    ok = math.isfinite(margin) and margin >= 0.0
    return {"name": name, "margin": float(margin), "status": "pass" if ok else "fail"}


def _started_iterations(records) -> int:
    """Iterations that began (and queried gradients), incl. a stopped one."""
    last = records[-1]
    return last.k - 1 if last.stop_reason == STOP_MAX_ITER else last.k


def _suite_kkt(seed: int) -> List[dict]:
    checks = []
    out = central_direction(np.array([[4.0, 0.0], [0.0, 4.0]]))
    err = float(np.abs(out.vector - np.array([-1.0, -1.0])).max())
    checks.append(_check("orthogonal-pair-direction", 1e-9 - err))

    out = central_direction(np.array([[2.0, 0.0], [1.0, 1.0]]))
    expected = np.array([-1.0, 1.0 - math.sqrt(2.0)])
    err = float(np.abs(out.vector - expected).max())
    checks.append(_check("worked-pair-direction", 1e-9 - err))

    rng = np.random.default_rng(seed)
    max_residual = 0.0
    max_identity_err = 0.0
    for _ in range(12):
        grads = rng.normal(size=(4, 3))
        out = central_direction(grads)
        if out.kind != DIRECTION:
            continue
        max_residual = max(max_residual, out.kkt_residual)
        gap = alignment_gap(grads, 1.0)
        max_identity_err = max(max_identity_err, abs(out.norm * (-gap) - 1.0))
    checks.append(_check("kkt-residual", 1e-8 - max_residual))
    checks.append(_check("norm-gap-identity", 1e-7 - max_identity_err))

    mismatches = 0
    for _ in range(40):
        grads = rng.normal(size=(3, 2))
        hull = hull_contains_origin_2d(grads / np.linalg.norm(grads, axis=1, keepdims=True))
        kind = central_direction(grads).kind
        if hull != (kind == INFEASIBLE):
            mismatches += 1
    checks.append(_check("planar-feasibility-agreement", -float(mismatches)))

    # slates that change one row at a time, as in the incremental solver,
    # drifting from a common descent cone towards criticality: the solve
    # warm-started from the previous support must match the cold one (same
    # verdict, V within 1e-12 ||V|| max(1, ||V||))
    offset = 2.0 * rng.normal(size=4)
    grads = rng.normal(size=(5, 4)) + offset
    flips = 0
    worst = 0.0
    start: tuple = ()
    for step in range(60):
        grads[step % 5] = (1.0 - step / 40) * offset + rng.normal(size=4)
        cold = central_direction(grads)
        warm = central_direction(grads, start=start)
        if warm.kind != cold.kind:
            flips += 1
        elif cold.kind == DIRECTION:
            err = float(np.linalg.norm(warm.vector - cold.vector))
            worst = max(worst, err / (cold.norm * max(1.0, cold.norm)))
        start = warm.active_set
    checks.append(
        _check("warm-start-agreement", -float(flips) if flips else 1e-12 - worst)
    )

    # two-row slates through the m = 2 closed form and the Wolfe reference,
    # a third of them opposed up to a positive factor (infeasible) and a
    # third nearly so: same verdict, V within 1e-14 ||V|| max(1, ||V||)
    flips = 0
    worst = 0.0
    for case in range(60):
        grads = rng.normal(size=(2, int(rng.integers(2, 6))))
        if case % 3 == 0:
            grads[1] = -rng.uniform(0.1, 10.0) * grads[0]
        elif case % 3 == 1:
            grads[1] = -grads[0] + 1e-3 * rng.normal(size=grads.shape[1])
        closed = central_direction(grads)
        wolfe = central_direction(grads, wolfe=True)
        if closed.kind != wolfe.kind:
            flips += 1
        elif wolfe.kind == DIRECTION:
            err = float(np.linalg.norm(closed.vector - wolfe.vector))
            worst = max(worst, err / (wolfe.norm * max(1.0, wolfe.norm)))
    checks.append(
        _check("closed-form-agreement", -float(flips) if flips else 1e-14 - worst)
    )

    # planar stacks of three to six rows, some with a duplicated row (a
    # singular corral system) or an opposed pair, through the batched corral
    # and the per-slate Wolfe iteration: every slate must agree in every bit
    differ = 0
    for case in range(60):
        stack = rng.normal(size=(16, 3 + case % 4, 2))
        stack[::4, -1] = stack[::4, 0]
        stack[1::4, 1] = -rng.uniform(0.1, 10.0) * stack[1::4, 0]
        batched = _min_norm_points(stack).view(np.int64)
        for k, slate in enumerate(stack):
            single = _wolfe_min_norm_point(slate)[0].view(np.int64)
            differ += not np.array_equal(batched[k], single)
    checks.append(_check("batched-corral-agreement", -float(differ)))
    return checks


def _suite_geometry(seed: int) -> List[dict]:
    checks = []
    z = alignment_gap(np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)
    checks.append(_check("orthonormal-gap", 1e-9 - abs(z + 1.0 / math.sqrt(2.0))))

    rng = np.random.default_rng(seed)
    grads = rng.normal(size=(3, 2))
    z1, z2 = alignment_gap(grads, 1.0), alignment_gap(grads, 2.0)
    checks.append(_check("gap-homogeneity", 1e-9 - abs(z2 - 2.0 * z1)))

    sweep = angular_sweep_alignment_gap(grads, 1.0)
    checks.append(_check("gap-sweep-agreement", 5e-4 - abs(sweep - z1)))

    eps = perturbation_margin(np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)
    expected = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0
    checks.append(_check("worked-perturbation-margin", 1e-12 - abs(eps - expected)))

    problem = make_figure1_problem()
    ledger = QueryLedger.for_objectives(2)
    bad = 0
    for point in figure1_efficient_curve(33):
        grads = gradient_all(problem, point, ledger)
        if np.linalg.norm(grads, axis=1).min() == 0.0:
            continue  # curve endpoint: critical via a stationary objective
        if central_direction(grads).kind != INFEASIBLE:
            bad += 1
    checks.append(_check("efficient-curve-infeasible", -float(bad)))
    return checks


def _suite_invariance(seed: int) -> List[dict]:
    checks = []
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(16):
        grads = rng.normal(size=(3, 3))
        out = central_direction(grads)
        if out.kind != DIRECTION:
            continue
        kappas = rng.uniform(0.1, 10.0, size=3)
        scaled = central_direction(grads * kappas[:, None])
        if scaled.kind != DIRECTION:
            worst = float("inf")
            continue
        diff = float(np.linalg.norm(scaled.vector - out.vector))
        worst = max(worst, diff / max(1.0, out.norm))
    checks.append(_check("central-scale-invariance", 1e-9 - worst))

    base = problem_from_name("figure1")
    scaled = problem_from_name("figure1-scaled:2,0.5")
    ledger = QueryLedger.for_objectives(2)
    worst = 0.0
    for point in rng.uniform(-2.0, 1.0, size=(12, 2)):
        a = central_direction(gradient_all(base, point, ledger))
        b = central_direction(gradient_all(scaled, point, ledger))
        if a.kind != b.kind:
            worst = float("inf")
        elif a.kind == DIRECTION:
            worst = max(
                worst, float(np.linalg.norm(a.vector - b.vector)) / max(1.0, a.norm)
            )
    checks.append(_check("figure1-scaled-direction-match", 1e-9 - worst))

    grads = np.array([[2.0, 0.0], [0.0, 1.0]])
    v0, _ = steepest_direction(grads)
    v1, _ = steepest_direction(grads * np.array([[1.0], [5.0]]))
    cosang = float(v0 @ v1 / (np.linalg.norm(v0) * np.linalg.norm(v1)))
    angle = math.acos(max(-1.0, min(1.0, cosang)))
    checks.append(_check("steepest-not-scale-invariant", angle - 1e-3))
    return checks


def _suite_perturbation(seed: int) -> List[dict]:
    checks = []
    rng = np.random.default_rng(seed)

    # Scaling the central direction past 1 makes every slack strictly
    # negative (the direction itself sits on its active constraints).
    grads = np.array([[3.0, 0.0], [1.0, 2.0], [0.5, -1.0]])
    out = central_direction(grads)
    interior_v = 1.5 * out.vector
    margin = interior_perturbation_margin(grads, interior_v)
    worst_slack = -float("inf")
    for _ in range(500):
        deltas = rng.normal(size=grads.shape)
        deltas *= 0.99 * margin / np.linalg.norm(deltas, axis=1, keepdims=True)
        moved = grads + deltas
        slacks = moved @ interior_v + np.linalg.norm(moved, axis=1)
        worst_slack = max(worst_slack, float(slacks.max()))
    checks.append(_check("interior-margin-certifies", -worst_slack))

    v = np.array([-1.0, 0.0])
    ext_grads = np.array([[1.0, 0.0], [-1.0, 0.2]])
    margin, witness = exterior_perturbation_margin(ext_grads, v)
    worst = float("inf")
    for _ in range(500):
        delta = rng.normal(size=2)
        delta *= 0.99 * margin / np.linalg.norm(delta)
        moved = ext_grads[witness] + delta
        worst = min(worst, float(moved @ v + np.linalg.norm(moved)))
    checks.append(_check("exterior-margin-certifies", worst))

    # Part-1 guarantee: when no ball-of-radius-R point satisfies the central
    # constraints (z(R) > -1), perturbations below the margin keep it so.
    base = np.array([[1.0, 0.0], [0.0, 1.0]])
    eps = perturbation_margin(base, 1.0)
    min_z = float("inf")
    for _ in range(500):
        deltas = rng.normal(size=base.shape)
        deltas *= 0.99 * eps / np.linalg.norm(deltas, axis=1, keepdims=True)
        min_z = min(min_z, alignment_gap(base + deltas, 1.0))
    checks.append(_check("gap-margin-preserves-ball-infeasibility", min_z + 1.0))
    return checks


def _suite_rate(seed: int) -> List[dict]:
    checks = []
    value = rate_bound(4.0, 0.0, 0.5, 6.0, 1)
    checks.append(_check("worked-rate-value", 1e-12 - abs(value - math.sqrt(192.0))))

    worst = float("inf")
    for k in range(1, 50):
        worst = min(
            worst,
            rate_bound(4.0, 0.0, 0.5, 6.0, k) - rate_bound(4.0, 0.0, 0.5, 6.0, k + 1),
        )
    checks.append(_check("rate-monotone-in-k", worst))

    quadruple = rate_bound(4.0, 0.0, 0.5, 6.0, 4)
    single = rate_bound(4.0, 0.0, 0.5, 6.0, 1)
    checks.append(_check("rate-sqrt-k-scaling", 1e-12 - abs(2.0 * quadruple - single)))

    problem = make_figure1_problem()
    records = run_incremental_central_armijo(
        problem, np.array([1.5, 1.0]), beta=0.5, seed=seed, max_iter=300
    )
    steps = [r for r in records if r.stop_reason is None]
    margins = rate_bound_margins(
        [r.ratio_metric for r in steps],
        f1_at_x0=float(steps[0].objective_values[0]),
        f_min=0.0,
        beta=0.5,
        lipschitz=6.0,
    )
    checks.append(_check("armijo-run-obeys-bound", min(margins) + 1e-9))
    return checks


def _suite_complexity(seed: int) -> List[dict]:
    checks = []
    problem = problem_from_name(f"random-quadratic:3,4,{seed}")
    schedule = StepSchedule.harmonic(1.0)

    records = run_incremental_central(
        problem, np.zeros(4), schedule, max_iter=137, diagnostics=False
    )
    dev = abs(records[-1].grad_evals - 137) + abs(records[-1].fn_evals)
    checks.append(_check("icd-one-gradient-per-iter", -float(dev)))

    records = run_incremental_central(
        problem, np.zeros(4), schedule, slate_init="warm-start",
        max_iter=137, diagnostics=False,
    )
    dev = abs(records[-1].grad_evals - (137 + 3))
    checks.append(_check("icd-warm-start-offset", -float(dev)))

    fig = make_figure1_problem()
    records = run_incremental_central_armijo(
        fig, np.array([1.5, 1.0]), beta=0.5, seed=seed, max_iter=64,
        diagnostics=False,
    )
    started = _started_iterations(records)
    dev = abs(records[-1].grad_evals - 2 * started)
    steps = [r for r in records if r.stop_reason is None]
    prev_fn = 0
    bad_fn = 0
    for r in steps:
        if r.fn_evals - prev_fn < 3:
            bad_fn += 1
        prev_fn = r.fn_evals
    checks.append(_check("armijo-two-gradients-per-iter", -float(dev)))
    checks.append(_check("armijo-min-three-fn-per-iter", -float(bad_fn)))

    records = run_full_steepest(fig, np.array([1.5, 1.0]), max_iter=10)
    steps = [r for r in records if r.stop_reason is None]
    dev = abs(records[-1].grad_evals - 2 * len(steps))
    checks.append(_check("steepest-m-gradients-per-iter", -float(dev)))

    records = run_incremental_aggregated(
        problem, np.full(3, 1.0 / 3.0), np.zeros(4), alpha=0.01, window=3,
        max_iter=50, diagnostics=False,
    )
    dev = abs(records[-1].grad_evals - 50)
    checks.append(_check("iag-one-gradient-per-iter", -float(dev)))
    return checks


_SUITE_FNS = {
    "kkt": _suite_kkt,
    "geometry": _suite_geometry,
    "invariance": _suite_invariance,
    "perturbation": _suite_perturbation,
    "rate": _suite_rate,
    "complexity": _suite_complexity,
}
SUITES = tuple(_SUITE_FNS)


def _cmd_verify(args) -> int:
    checks = _SUITE_FNS[args.suite](args.seed)
    passed = all(c["status"] == "pass" for c in checks)
    _emit({"suite": args.suite, "checks": checks, "passed": passed})
    return 0 if passed else 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # an explicit flag beats the file, which beats the built-in
            # default; argparse converts file values with each option's type
            parser.commands[args.command].set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "field":
            return _cmd_field(args)
        return _cmd_verify(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"modescent: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
