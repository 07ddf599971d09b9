"""Record the output references the benchmark checks against.

Runs every (problem, start) of every workload at both sizes once through
``modescent.cli.main`` and stores what the checks compare: exact fields
(stop reason, counts, masked nodes, streamline steps and halts, row counts)
and the floats compared within ``workloads.RTOL``. Field grids also get the
exact steepest value at every node, computed here without the program's
solver, because the program's solver can stop on its budget short of the
optimum and a later fix must still pass.

References are meant to be recorded once, at the commit that introduced
them; re-recording after a change to the program would let the change
check itself. Usage, from the repository root::

    python3 perfbench/record.py            # writes perfbench/refs/*
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads as W

ROOT = Path(__file__).resolve().parent.parent


def run_cli(main, argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def record_workload(name: str, work: Path) -> None:
    from modescent.cli import main
    from modescent.problems import problem_from_name

    cases, grids = {}, {}
    prefix = work / "case"
    for size in ("tiny", "full"):
        for case in W.all_cases(name, size):
            argv = W.case_argv(name, size, case["problem"], case["start"], prefix)
            summary = run_cli(main, argv)
            key = W.case_key(size, case)
            if W.WORKLOADS[name]["kind"] == "solve":
                with open(f"{prefix}.trace.csv", newline="") as fh:
                    rows = sum(1 for _ in csv.reader(fh))
                cases[key] = {k: summary[k] for k in (
                    "algo", "problem", "stop_reason", "iterations", "grad_evals",
                    "fn_evals", "classification", "bound_satisfied", "final_x",
                    "final_values")}
                cases[key]["trace_rows"] = rows
                continue
            meta, header, body = W.read_grid_csv(Path(f"{prefix}.grid.csv"))
            with open(f"{prefix}.grid.csv.streamlines.csv", newline="") as fh:
                lines = list(csv.reader(fh))
            cases[key] = {
                "problem": summary["problem"],
                "nodes": summary["nodes"],
                "masked_nodes": summary["masked_nodes"],
                "streamlines": summary["streamlines"],
                "resolution": meta["resolution"],
                "grid_header": header,
                "streamline_rows": len(lines),
                "streamline_end": [float(v) for v in lines[-1][2:4]],
            }
            gkey = W.grid_key(size, case["problem"])
            columns = {h: body[:, i] for i, h in enumerate(header)}
            if gkey in grids:
                for h, col in columns.items():
                    if not np.array_equal(col, grids[gkey][h], equal_nan=True):
                        raise RuntimeError(f"{gkey}: grid differs between starts")
                continue
            problem = problem_from_name(case["problem"])
            exact = []
            for x, y in zip(columns["x"], columns["y"]):
                grads = np.array([g(np.array([x, y])) for g in problem.gradient_fns])
                exact.append(W.exact_steepest_value(grads))
            columns["steepest_exact"] = np.array(exact)
            grids[gkey] = columns
    W.REFS_DIR.mkdir(exist_ok=True)
    with open(W.REFS_DIR / f"{name}.json", "w") as fh:
        json.dump({"workload": name, "cases": cases}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if grids:
        arrays = {f"{g}|{h}": col for g, cols in grids.items() for h, col in cols.items()}
        np.savez_compressed(W.REFS_DIR / f"{name}.npz", **arrays)
        for gkey, cols in grids.items():
            off = ~W.within(cols["steepest_value"], cols["steepest_exact"])
            print(f"{name} {gkey}: {int(off.sum())} nodes whose steepest_value "
                  f"is not within RTOL of the exact value")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    names = sys.argv[1:] or sorted(W.WORKLOADS)
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-record-", dir=scratch))
    try:
        for name in names:
            record_workload(name, work)
            print(f"recorded {name}")
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
