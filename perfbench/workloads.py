"""Workload definitions, their inputs and the checks on their outputs.

A workload is a fixed pool of CLI invocations of ``modescent``. One *pass*
runs every problem of the pool once, in an order drawn from the run seed;
field workloads also draw each streamline start from a per-problem pool of
starts. Every run therefore does the same work whatever its seed, which
keeps runs with different seeds comparable, while the seed still decides
what the program is asked (order and streamline starts).

Each workload has two sizes: ``full`` is what the benchmark measures and
``tiny`` serves the warm-up before timing and the self-check. References
for every (problem, start) of both sizes were recorded with
``perfbench/record.py`` and live in ``perfbench/refs``.

This module imports only numpy, never ``modescent``: the checks must not
share code with the program they check.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

REFS_DIR = Path(__file__).resolve().parent / "refs"

# Relative tolerance for floats that a faster but equivalent program may
# change in the last digits (final_x, final_values, field channels,
# streamline end points).
RTOL = 1e-6

MAX_ITER = {"full": 2000, "tiny": 40}

WORKLOADS: Dict[str, dict] = {
    "solve-icd-armijo": {
        "kind": "solve",
        "problems": {
            "full": [f"random-quadratic:10,20,{p}" for p in range(8)],
            "tiny": [f"random-quadratic:10,20,{p}" for p in range(2)],
        },
    },
    "field-figure1": {
        "kind": "field",
        "problems": {"full": ["figure1"], "tiny": ["figure1"]},
        "box": (-3.0, 1.0, -3.0, 1.0),
        "res": {"full": 80, "tiny": 10},
        "starts": 16,
    },
    "field-quad3": {
        "kind": "field",
        "problems": {
            "full": [f"random-quadratic:3,2,{p}" for p in range(5)],
            "tiny": [f"random-quadratic:3,2,{p}" for p in range(2)],
        },
        "box": (-1.5, 1.5, -1.5, 1.5),
        "res": {"full": 30, "tiny": 6},
        "starts": 8,
    },
}


def streamline_starts(workload: str, problem_index: int) -> List[str]:
    """The pool of streamline starts for one problem, as CLI "x,y" text.

    Drawn once from a fixed generator and rounded to three decimals, so the
    CLI argument is short and exactly reproducible.
    """
    spec = WORKLOADS[workload]
    x0, x1, y0, y1 = spec["box"]
    rng = np.random.default_rng([20211, problem_index])
    pts = rng.uniform([x0, y0], [x1, y1], size=(spec["starts"], 2))
    return [f"{x:.3f},{y:.3f}" for x, y in pts]


def case_argv(workload: str, size: str, problem: str, start: Optional[str],
              out: Path) -> List[str]:
    """CLI arguments of one invocation; ``out`` is the output file prefix."""
    spec = WORKLOADS[workload]
    if spec["kind"] == "solve":
        return ["solve", "--algo", "icd-armijo", "--problem", problem,
                "--max-iter", str(MAX_ITER[size]), "--out", f"{out}.trace.csv"]
    box = ",".join(repr(v) for v in spec["box"])
    return ["field", "--problem", problem, "--box", box,
            "--res", str(spec["res"][size]), "--streamline", start,
            "--out", f"{out}.grid.csv"]


def plan_pass(workload: str, size: str, rng: np.random.Generator) -> List[dict]:
    """One pass: every problem of the pool once, order and starts from rng."""
    spec = WORKLOADS[workload]
    problems = spec["problems"][size]
    cases = []
    for p in rng.permutation(len(problems)):
        case = {"problem": problems[p], "start_index": None, "start": None}
        if spec["kind"] == "field":
            starts = streamline_starts(workload, int(p))
            s = int(rng.integers(len(starts)))
            case.update(start_index=s, start=starts[s])
        cases.append(case)
    return cases


def all_cases(workload: str, size: str) -> List[dict]:
    """Every (problem, start) a run can draw; what the references cover."""
    spec = WORKLOADS[workload]
    cases = []
    for p, problem in enumerate(spec["problems"][size]):
        if spec["kind"] == "solve":
            cases.append({"problem": problem, "start_index": None, "start": None})
            continue
        for s, start in enumerate(streamline_starts(workload, p)):
            cases.append({"problem": problem, "start_index": s, "start": start})
    return cases


def work_units(workload: str, size: str, summary: dict) -> int:
    """Solver iterations for solve workloads, grid nodes for field ones."""
    if WORKLOADS[workload]["kind"] == "solve":
        return int(summary["iterations"])
    return int(WORKLOADS[workload]["res"][size]) ** 2


# --------------------------------------------------------------------------
# References


def load_refs(workload: str) -> dict:
    """Recorded references: {"cases": {...}, "grids": {problem: arrays}}."""
    with open(REFS_DIR / f"{workload}.json") as fh:
        refs = json.load(fh)
    grids = {}
    npz = REFS_DIR / f"{workload}.npz"
    if npz.exists():
        with np.load(npz) as data:
            for key in data.files:
                grid_key, _, channel = key.rpartition("|")
                grids.setdefault(grid_key, {})[channel] = data[key]
    refs["grids"] = grids
    return refs


def case_key(size: str, case: dict) -> str:
    key = f"{size}|{case['problem']}"
    if case["start_index"] is not None:
        key += f"|{case['start_index']}"
    return key


def grid_key(size: str, problem: str) -> str:
    return f"{size}|{problem}"


# --------------------------------------------------------------------------
# Output checks. Each returns a list of mismatch descriptions; empty = pass.


def within(got: np.ndarray, ref: np.ndarray, rtol: float = RTOL) -> np.ndarray:
    """Per entry: a non-finite reference is matched exactly; a finite one
    within rtol of its value, plus rtol * 1e-6 of the largest finite
    reference magnitude so entries that cancel to ~0 are not over-judged."""
    finite = np.isfinite(ref)
    scale = float(np.abs(ref[finite]).max()) if np.any(finite) else 0.0
    with np.errstate(invalid="ignore"):
        near = np.abs(got - ref) <= rtol * (np.abs(ref) + 1e-6 * scale)
    same = (got == ref) | (np.isnan(got) & np.isnan(ref))
    return np.where(finite, near & np.isfinite(got), same)


def _close(name: str, got, ref, alt=None) -> List[str]:
    """Arrays agree entrywise with ``ref`` (or, entry by entry, ``alt``)."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{name}: shape {got.shape} != reference {ref.shape}"]
    ok = within(got, ref)
    if alt is not None:
        ok |= within(got, np.asarray(alt, dtype=float))
    if np.all(ok):
        return []
    return [f"{name}: {int(np.count_nonzero(~ok))} of {ok.size} entries outside tolerance"]


def _exact(name: str, got, ref) -> List[str]:
    return [] if got == ref else [f"{name}: {got!r} != reference {ref!r}"]


def _from_json(value):
    """CLI summaries write non-finite floats as strings."""
    if isinstance(value, list):
        return [_from_json(v) for v in value]
    if isinstance(value, str) and value in ("nan", "inf", "-inf"):
        return float(value)
    return value


def check_solve(summary: dict, trace_csv: Path, ref: dict) -> List[str]:
    bad = []
    for key in ("algo", "problem", "stop_reason", "iterations", "grad_evals",
                "fn_evals", "classification", "bound_satisfied"):
        bad += _exact(key, summary.get(key), ref[key])
    started = summary["iterations"] + (summary["stop_reason"] != "MaxIter")
    bad += _exact("grad_evals == 2 * started iterations",
                  summary["grad_evals"], 2 * started)
    for key in ("final_x", "final_values"):
        bad += _close(key, _from_json(summary[key]), _from_json(ref[key]))
    with open(trace_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    bad += _exact("trace CSV rows", len(rows), ref["trace_rows"])
    if rows:
        last = rows[-1]
        bad += _exact("trace CSV last stop_reason", last[-1], summary["stop_reason"])
        n = len(ref["final_x"])
        bad += _close("trace CSV last x", [float(v) for v in last[1:1 + n]],
                      _from_json(ref["final_x"]))
    return bad


def read_grid_csv(path: Path):
    with open(path) as fh:
        meta = json.loads(fh.readline()[1:])
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return meta, header, body


def check_field(summary: dict, grid_csv: Path, lines_csv: Path, ref: dict,
                grid: dict) -> List[str]:
    bad = []
    for key in ("problem", "nodes", "masked_nodes", "streamlines"):
        bad += _exact(key, summary.get(key), ref[key])
    meta, header, body = read_grid_csv(grid_csv)
    bad += _exact("grid CSV resolution", meta.get("resolution"), ref["resolution"])
    bad += _exact("grid CSV header", header, ref["grid_header"])
    if body.shape != (ref["nodes"], len(ref["grid_header"])):
        return bad + [f"grid CSV shape {body.shape} unexpected"]
    col = {name: body[:, i] for i, name in enumerate(header)}
    bad += _close("grid x", col["x"], grid["x"])
    bad += _close("grid y", col["y"], grid["y"])
    bad += _close("min_grad_norm", col["min_grad_norm"], grid["min_grad_norm"])
    bad += _close("central_norm", col["central_norm"], grid["central_norm"])
    # steepest_value may match the recorded value or the exact optimum: the
    # program's solver can stop on its budget short of the optimum, and a
    # corrected solver must pass too.
    bad += _close("steepest_value", col["steepest_value"], grid["steepest_value"],
                  alt=grid["steepest_exact"])
    mask = col["critical_mask"]
    bad += _exact("critical_mask cells differing",
                  int(np.count_nonzero(mask != grid["critical_mask"])), 0)
    with open(lines_csv) as fh:
        rows = list(csv.reader(fh))
    bad += _exact("streamline CSV rows", len(rows), ref["streamline_rows"])
    if len(rows) > 1:
        bad += _close("streamline end point", [float(v) for v in rows[-1][2:4]],
                      ref["streamline_end"])
    return bad


def check_case(workload: str, size: str, case: dict, summary: dict, out: Path,
               refs: dict) -> List[str]:
    """Compare one invocation's outputs with the recorded reference."""
    ref = refs["cases"].get(case_key(size, case))
    if ref is None:
        return [f"no reference for {case_key(size, case)}"]
    if WORKLOADS[workload]["kind"] == "solve":
        return check_solve(summary, Path(f"{out}.trace.csv"), ref)
    grid = refs["grids"][grid_key(size, case["problem"])]
    return check_field(summary, Path(f"{out}.grid.csv"),
                       Path(f"{out}.grid.csv.streamlines.csv"), ref, grid)


def exact_steepest_value(grads: np.ndarray) -> float:
    """-0.5 * (distance from the origin to conv{rows of grads})**2, planar.

    Enumerates the vertices and edges of the hull and tests whether the
    origin lies inside a triangle of rows; exact up to rounding for the
    n = 2 problems used here, and independent of the program's solver.
    """
    g = np.asarray(grads, dtype=float)
    m = g.shape[0]
    best = float((g * g).sum(axis=1).min())
    for i in range(m):
        for j in range(i + 1, m):
            d = g[j] - g[i]
            dd = float(d @ d)
            if dd == 0.0:
                continue
            t = min(max(-float(g[i] @ d) / dd, 0.0), 1.0)
            p = g[i] + t * d
            best = min(best, float(p @ p))
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                a, b, c = g[i], g[j], g[k]
                s1 = a[0] * b[1] - a[1] * b[0]
                s2 = b[0] * c[1] - b[1] * c[0]
                s3 = c[0] * a[1] - c[1] * a[0]
                if (s1 >= 0 and s2 >= 0 and s3 >= 0) or (s1 <= 0 and s2 <= 0 and s3 <= 0):
                    best = 0.0
    return -0.5 * best


def steepest_opt_gap(grads: np.ndarray, v: np.ndarray) -> float:
    """(max_i g_i . V + ||V||^2) / max_i ||g_i||^2 for a returned V.

    Zero at the optimum of the steepest dual; positive when the returned V
    is short of it. Computed here, outside the solver.
    """
    g = np.asarray(grads, dtype=float)
    v = np.asarray(v, dtype=float)
    scale = float((g * g).sum(axis=1).max())
    if scale == 0.0 or not math.isfinite(scale):
        return 0.0
    return (float((g @ v).max()) + float(v @ v)) / scale
