"""Planar field sampling and streamline integration."""

import json

import numpy as np
import pytest

from modescent import (
    MultiObjectiveProblem,
    QueryLedger,
    evaluate_all,
    figure1_efficient_curve,
    make_figure1_problem,
    make_scaled_variant,
    make_unbounded_linear_problem,
    problem_from_name,
    sample_field,
    trace_streamline,
    write_streamlines_csv,
)
from modescent import directions, fields
from modescent.fields import FieldGrid
from modescent.oracle import sample_field_reference

BOX = ((-2.5, 1.0), (-2.5, 1.0))
WIDE = ((-3.0, 1.0), (-3.0, 1.0))
QUAD_BOX = ((-1.5, 1.5), (-1.5, 1.5))


def single_objective_variant(fig):
    return MultiObjectiveProblem(
        dimension=2,
        objectives=(fig.objectives[0],),
        gradient_fns=(fig.gradient_fns[0],),
        lipschitz=(6.0,),
        lower_bound=0.0,
        name="single",
    )


@pytest.fixture(scope="module")
def grid41():
    return sample_field(make_figure1_problem(), BOX, 41)


class TestSampleField:
    def test_shapes_and_channels(self, grid41):
        assert grid41.resolution == 41
        assert grid41.xs.size == 41 and grid41.ys.size == 41
        assert set(grid41.channels) == {
            "min_grad_norm",
            "central_norm",
            "steepest_value",
        }
        for arr in grid41.channels.values():
            assert arr.shape == (41, 41)
        assert grid41.mask.shape == (41, 41)
        assert grid41.mask.dtype == bool

    def test_mask_hugs_the_efficient_curve(self, grid41):
        """79 nodes are flagged, all within one cell of the closed-form
        curve, and every curve point has a flagged node nearby."""
        h = 3.5 / 40.0
        assert int(grid41.mask.sum()) == 79
        curve = figure1_efficient_curve(2048)
        nodes = np.stack(np.meshgrid(grid41.xs, grid41.ys), axis=-1)
        flagged = nodes[grid41.mask]
        to_curve = np.linalg.norm(
            flagged[:, None, :] - curve[None, :, :], axis=2
        ).min(axis=1)
        assert to_curve.max() <= 1.1 * h
        to_mask = np.linalg.norm(
            curve[:, None, :] - flagged[None, :, :], axis=2
        ).min(axis=1)
        assert to_mask.max() <= 0.75 * h

    def test_unmasked_nodes_are_finite_with_unit_floor(self, grid41):
        central = grid41.channels["central_norm"][~grid41.mask]
        assert np.isfinite(central).all()
        assert central.min() >= 1.0 - 1e-9

    def test_null_gradient_node_is_masked_infinite(self, fig1):
        grid = sample_field(fig1, ((-3.0, 1.0), (-3.0, 1.0)), 41)
        ix = int(np.argmin(np.abs(grid.xs + 2.0)))
        iy = int(np.argmin(np.abs(grid.ys)))
        assert grid.xs[ix] == pytest.approx(-2.0)
        assert grid.ys[iy] == pytest.approx(0.0)
        assert grid.mask[iy, ix]
        assert grid.channels["central_norm"][iy, ix] == np.inf
        assert grid.channels["min_grad_norm"][iy, ix] == 0.0

    def test_rescaling_objectives_leaves_central_data_alone(self, fig1):
        """Mask and central channel are invariant under kappa = (1, 10);
        the steepest channel is not (it sees raw gradient sizes)."""
        scaled = make_scaled_variant(fig1, (1.0, 10.0))
        a = sample_field(fig1, BOX, 25)
        b = sample_field(scaled, BOX, 25)
        assert np.array_equal(a.mask, b.mask)
        ca, cb = a.channels["central_norm"], b.channels["central_norm"]
        finite = np.isfinite(ca) & np.isfinite(cb)
        assert np.array_equal(finite, np.isfinite(ca))
        rel = np.abs(ca[finite] - cb[finite]) / np.maximum(1.0, np.abs(ca[finite]))
        assert rel.max() <= 1e-9
        sa, sb = a.channels["steepest_value"], b.channels["steepest_value"]
        differs = np.abs(sa - sb) > 1e-6 * np.maximum(1.0, np.abs(sa))
        assert differs.mean() > 0.5

    def test_validation(self, fig1):
        with pytest.raises(ValueError):
            sample_field(fig1, BOX, 1)
        with pytest.raises(ValueError):
            sample_field(fig1, ((1.0, -1.0), (-1.0, 1.0)), 5)
        with pytest.raises(ValueError):
            sample_field(make_unbounded_linear_problem(2, 3, seed=1), BOX, 5)

    @pytest.mark.parametrize("mask_scale", [float("nan"), -1.0, float("inf")])
    @pytest.mark.parametrize("sampler", [sample_field, sample_field_reference])
    def test_rejects_bad_mask_scale(self, fig1, sampler, mask_scale):
        # a NaN or negative scale once turned the ratio mask off silently
        with pytest.raises(ValueError, match="mask_scale"):
            sampler(fig1, BOX, 10, mask_scale=mask_scale)


REFERENCE_CASES = (
    [
        ("figure1", BOX, 41),
        ("figure1", WIDE, 80),
        ("figure1", WIDE, 120),
        ("figure1-scaled:1,10", WIDE, 60),
    ]
    + [(f"random-quadratic:2,2,{p}", QUAD_BOX, 30) for p in range(5)]
    + [(f"random-quadratic:3,2,{p}", QUAD_BOX, 30) for p in range(5)]
)


class TestBatchedSampler:
    """The one-pass sampler against the per-node loop of cold Wolfe solves."""

    @pytest.mark.parametrize(
        "name, box, res",
        REFERENCE_CASES,
        ids=[f"{name}@{res}" for name, _, res in REFERENCE_CASES],
    )
    def test_matches_the_per_node_reference(self, name, box, res):
        problem = problem_from_name(name)
        fast = sample_field(problem, box, res)
        ref = sample_field_reference(problem, box, res)
        assert np.array_equal(fast.mask, ref.mask)
        if problem.num_objectives >= 3:  # both run Wolfe: the same bits
            for channel in FieldGrid.CHANNEL_ORDER:
                assert np.array_equal(fast.channels[channel], ref.channels[channel])
            return
        assert np.array_equal(
            fast.channels["min_grad_norm"], ref.channels["min_grad_norm"]
        )
        # both normalize the rows first, which perturbs the hull point by
        # about one rounding and ||V|| = 1/delta by eps ||V|| relative, so
        # the agreement is relative and widens with ||V|| (as in the kkt
        # suite's closed-form-agreement check)
        a, b = fast.channels["central_norm"], ref.channels["central_norm"]
        finite = np.isfinite(b)
        assert np.array_equal(np.isfinite(a), finite)
        a, b = a[finite], b[finite]
        assert (np.abs(a - b) <= 1e-14 * b * np.maximum(1.0, b)).all()
        # Wolfe stops at a gap of 1e-12 * 4**e on a slate scaled by 2**-e,
        # which bounds its value error by the same; the closed form is exact
        # to rounding
        gx, gy = np.meshgrid(fast.xs, fast.ys)
        nodes = np.stack([gx.ravel(), gy.ravel()], 1)
        grads = fields.gradients_at(problem, nodes, QueryLedger.for_objectives(2))
        _, e = np.frexp(np.abs(grads).max(axis=(1, 2)))
        a, b = fast.channels["steepest_value"], ref.channels["steepest_value"]
        bound = np.ldexp(1e-12, 2 * e).reshape(a.shape) + 1e-15 * np.abs(b)
        assert (np.abs(a - b) <= bound).all()

    def test_one_batched_query_and_no_per_node_solves(self, fig1, monkeypatch):
        def per_node(*args, **kwargs):
            raise AssertionError("per-node call")

        batches = []

        def counted(problem, points, ledger):
            batches.append(len(points))
            return gradients_at(problem, points, ledger)

        gradients_at = fields.gradients_at
        for name in ("central_direction", "steepest_direction", "gradient_all"):
            monkeypatch.setattr(fields, name, per_node)
        monkeypatch.setattr(fields, "gradients_at", counted)
        grid = sample_field(fig1, WIDE, 30)
        assert batches == [900]
        assert int(grid.mask.sum()) > 0

    def test_three_objectives_make_no_per_slate_wolfe_call(self, monkeypatch):
        # m >= 3 runs one batched corral per QP over the grid's stack; the
        # per-node reference test holds its channels to the Wolfe bits
        def per_slate(*args, **kwargs):
            raise AssertionError("per-slate Wolfe call")

        monkeypatch.setattr(directions, "_wolfe_min_norm_point", per_slate)
        grid = sample_field(problem_from_name("random-quadratic:3,2,0"), QUAD_BOX, 30)
        assert np.isfinite(grid.channels["steepest_value"]).all()

    def test_tiny_gradients_keep_the_figure1_mask(self, fig1):
        tiny = problem_from_name("figure1-scaled:1e-300,1")
        a = sample_field(fig1, WIDE, 40)
        b = sample_field(tiny, WIDE, 40)
        assert int(a.mask.sum()) == 57
        assert np.array_equal(a.mask, b.mask)
        ca, cb = a.channels["central_norm"], b.channels["central_norm"]
        finite = np.isfinite(ca)
        assert np.array_equal(np.isfinite(cb), finite)
        assert (np.abs(ca[finite] - cb[finite]) <= 1e-9 * ca[finite]).all()
        ga, gb = a.channels["min_grad_norm"], b.channels["min_grad_norm"]
        assert np.array_equal(ga > 0.0, gb > 0.0)
        assert 1e-302 < gb[gb > 0.0].min() and gb.max() < 1e-298


class TestFieldCsv:
    def test_round_trip(self, grid41, tmp_path):
        path = tmp_path / "field.csv"
        grid41.to_csv(str(path))
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0].lstrip("# "))
        assert meta["resolution"] == 41
        assert meta["box"] == [[-2.5, 1.0], [-2.5, 1.0]]
        assert lines[1] == (
            "x,y,min_grad_norm,central_norm,steepest_value,critical_mask"
        )
        assert len(lines) == 2 + 41 * 41
        # y-major order: first row is the bottom-left node
        first = lines[2].split(",")
        assert float(first[0]) == -2.5 and float(first[1]) == -2.5
        row = lines[2 + 41 * 20 + 7].split(",")
        ix, iy = 7, 20
        assert float(row[0]) == grid41.xs[ix]
        assert float(row[2]) == grid41.channels["min_grad_norm"][iy, ix]
        assert row[5] == str(int(grid41.mask[iy, ix]))

    @staticmethod
    def per_cell_csv(grid, names=FieldGrid.CHANNEL_ORDER):
        """The reference writer: every cell formatted on its own."""
        meta = json.dumps({"box": grid.box, "resolution": grid.resolution},
                          sort_keys=True)
        lines = [f"# {meta}", ",".join(["x", "y", *names, "critical_mask"])]
        for iy in range(len(grid.ys)):
            for ix in range(len(grid.xs)):
                cells = [grid.xs[ix], grid.ys[iy]]
                cells += [grid.channels[c][iy, ix] for c in names]
                lines.append(
                    ",".join([format(float(v), ".17g") for v in cells]
                             + [str(int(grid.mask[iy, ix]))])
                )
        return "\n".join(lines) + "\n"

    def test_cells_are_formatted_one_by_one(self, tmp_path):
        # 3 rows of 4 nodes: non-square, signed zeros, the smallest
        # subnormal, nan and infinities in the channels, a row with every
        # node masked and one with none
        values = np.array([
            [0.1, -0.0, np.nan, 1.5e308],
            [np.inf, 1e-300, -np.inf, 5e-324],
            [2.0 / 3.0, 5e-324, -1.0, 0.0],
        ])
        mask = np.array([[True] * 4, [False, True, False, True], [False] * 4])
        grid = FieldGrid(
            box=[(-0.0, 1.0), (0.0, 2.0)],
            resolution=4,
            xs=np.array([-0.0, 5e-324, 1.0 / 3.0, 1.0]),
            ys=np.array([5e-324, -0.0, 2.0]),
            channels={"min_grad_norm": values, "central_norm": -values,
                      "steepest_value": values[::-1, ::-1].copy()},
            mask=mask,
        )
        for names in (
            FieldGrid.CHANNEL_ORDER,
            ("steepest_value", "min_grad_norm"),
            ("central_norm",),
            (),
        ):
            path = tmp_path / "cells.csv"
            grid.to_csv(str(path), channels=list(names))
            assert path.read_bytes() == self.per_cell_csv(grid, names).encode()
        rows = path.read_text().splitlines()[2:]
        assert rows[:4] == ["-0,4.9406564584124654e-324,1"] + [
            "4.9406564584124654e-324,4.9406564584124654e-324,1",
            "0.33333333333333331,4.9406564584124654e-324,1",
            "1,4.9406564584124654e-324,1",
        ]

    def test_figure1_grid_is_the_per_cell_writer_byte_for_byte(self, tmp_path):
        grid = sample_field(make_figure1_problem(), ((-3.0, 1.0), (-3.0, 1.0)), 80)
        assert grid.mask.any() and not grid.mask.all()
        path = tmp_path / "figure1.csv"
        grid.to_csv(str(path))
        assert path.read_bytes() == self.per_cell_csv(grid).encode()

    def test_channel_subset_and_unknown(self, grid41, tmp_path):
        path = tmp_path / "subset.csv"
        grid41.to_csv(str(path), channels=["central_norm"])
        header = path.read_text().splitlines()[1]
        assert header == "x,y,central_norm,critical_mask"
        with pytest.raises(ValueError):
            grid41.to_csv(str(tmp_path / "bad.csv"), channels=["bogus"])


class TestTraceStreamline:
    def test_central_fixture(self, fig1):
        pts, halt = trace_streamline(fig1, (0.5, 0.5), field="central", step=0.01)
        assert len(pts) == 142
        assert halt == "descent-margin"
        curve = figure1_efficient_curve(8192)
        dist = np.linalg.norm(curve - pts[-1][None, :], axis=1).min()
        assert dist <= 0.005

    def test_tiny_gradients_follow_the_figure1_streamline(self, fig1):
        tiny = problem_from_name("figure1-scaled:1e-300,1")
        a, halt_a = trace_streamline(fig1, (0.5, 0.5), field="central", step=0.01)
        b, halt_b = trace_streamline(tiny, (0.5, 0.5), field="central", step=0.01)
        assert (halt_b, len(b)) == (halt_a, len(a)) == ("descent-margin", 142)
        assert np.abs(a - b).max() <= 1e-12

    def test_every_step_decreases_every_objective(self, fig1):
        pts, _ = trace_streamline(fig1, (0.5, 0.5), field="central", step=0.01)
        ledger = QueryLedger.for_objectives(2)
        vals = np.array([evaluate_all(fig1, x, ledger) for x in pts])
        assert (np.diff(vals, axis=0) < 0.0).all()

    def test_central_streamline_is_scale_invariant(self, fig1):
        scaled = make_scaled_variant(fig1, (1.0, 10.0))
        a, halt_a = trace_streamline(fig1, (0.5, 0.5), field="central", step=0.01)
        b, halt_b = trace_streamline(scaled, (0.5, 0.5), field="central", step=0.01)
        assert halt_a == halt_b
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-9

    def test_steepest_runs_into_the_single_minimizer(self, fig1):
        single = single_objective_variant(fig1)
        pts, halt = trace_streamline(single, (0.0, 0.0), field="steepest", step=0.01)
        assert halt == "critical"
        assert len(pts) == 201
        assert pts[-1] == pytest.approx([-2.0, 0.0], abs=1e-12)

    def test_halt_labels(self, fig1):
        single = single_objective_variant(fig1)
        # start on the efficient curve: the QP is infeasible immediately
        pts, halt = trace_streamline(fig1, (-0.5, -0.5), field="central", step=0.01)
        assert halt == "infeasible" and len(pts) == 1
        # start critical
        pts, halt = trace_streamline(single, (-2.0, 0.0), field="steepest", step=0.01)
        assert halt == "critical" and len(pts) == 1
        # leave a tight box
        pts, halt = trace_streamline(
            fig1, (0.5, 0.5), field="central", step=0.01, box=((0.0, 1.0), (0.0, 1.0))
        )
        assert halt == "box-exit"
        assert (pts[-1] >= 0.0).all() and (pts[-1] <= 1.0).all()
        # step budget
        pts, halt = trace_streamline(
            single, (0.3, 0.4), field="steepest", step=0.01, max_steps=300
        )
        assert halt == "max-steps" and len(pts) == 301

    def test_without_lipschitz_data_the_margin_halt_is_skipped(self, fig1):
        nolip = MultiObjectiveProblem(
            dimension=2,
            objectives=fig1.objectives,
            gradient_fns=fig1.gradient_fns,
            name="nolip",
        )
        pts, halt = trace_streamline(
            nolip, (0.5, 0.5), field="central", step=0.01, max_steps=500
        )
        assert halt in ("max-steps", "infeasible", "norm-cap")
        assert len(pts) > 142

    def test_lipschitz_min_skips_zero_constants(self):
        values = np.array([[1.0, -3.0, 2.0], [-0.5, 4.0, -7.0]])
        # a zero constant (a linear objective) drops out of the min
        mixed = fields._lipschitz_min(values, np.array([0.0, 2.0, 4.0]))
        assert mixed.tolist() == [-1.5, -1.75]
        assert fields._lipschitz_min(values[0], np.array([2.0, 0.0, 0.0])) == 0.5
        # with every constant positive, the quotients over the last axis
        lip = np.array([6.0, 0.1, 3.0])
        assert np.array_equal(fields._lipschitz_min(values, lip), (values / lip).min(1))

    def test_traces_in_higher_dimensions(self):
        prob = make_unbounded_linear_problem(2, 3, seed=1)
        pts, halt = trace_streamline(prob, np.zeros(3), step=0.05, max_steps=50)
        assert halt == "max-steps"
        assert pts.shape == (51, 3)

    def test_unknown_field_rejected(self, fig1):
        with pytest.raises(ValueError):
            trace_streamline(fig1, (0.0, 0.0), field="bogus")

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -0.01])
    def test_rejects_bad_step_by_name(self, fig1, step):
        # a NaN step once traced a 0-step line labelled box-exit
        with pytest.raises(ValueError, match="step"):
            trace_streamline(fig1, (0.5, 0.5), step=step, box=BOX)


WARM_CASES = [("figure1", WIDE)] + [
    (f"random-quadratic:{m},2,{p}", QUAD_BOX) for m in (3, 4) for p in range(3)
]


class TestWarmStreamline:
    """Each central solve starts from the previous solve's active set."""

    def test_starts_from_the_previous_active_set(self, monkeypatch):
        problem = problem_from_name("random-quadratic:3,2,0")
        central = fields.central_direction
        calls = []

        def recorded(slate, **kwargs):
            outcome = central(slate, **kwargs)
            calls.append((kwargs.get("start"), outcome.active_set))
            return outcome

        monkeypatch.setattr(fields, "central_direction", recorded)
        pts, _ = trace_streamline(problem, (1.0, 1.0), step=0.01, box=QUAD_BOX)
        assert len(calls) >= len(pts) - 1 > 10
        assert calls[0][0] == ()
        for (_, previous), (start, _) in zip(calls, calls[1:]):
            assert start == previous

    @pytest.mark.parametrize("name, box", WARM_CASES, ids=[c[0] for c in WARM_CASES])
    def test_matches_the_cold_streamline(self, name, box, monkeypatch):
        problem = problem_from_name(name)
        lo, hi = box[0]
        starts = np.random.default_rng(11).uniform(lo, hi, size=(6, 2))
        warm = [trace_streamline(problem, x0, step=0.01, box=box) for x0 in starts]
        central = fields.central_direction

        def cold(slate, start=(), **kwargs):
            return central(slate, **kwargs)

        monkeypatch.setattr(fields, "central_direction", cold)
        ledger = QueryLedger.for_objectives(problem.num_objectives)
        for x0, (pts, halt) in zip(starts, warm):
            ref, ref_halt = trace_streamline(problem, x0, step=0.01, box=box)
            assert (halt, len(pts)) == (ref_halt, len(ref))
            assert np.abs(pts - ref).max() <= 1e-12
            values = np.array([evaluate_all(problem, x, ledger) for x in pts])
            assert (np.diff(values, axis=0) < 0.0).all()


class TestStreamlinesCsv:
    def test_format(self, fig1, tmp_path):
        # takes (points, halt) pairs exactly as trace_streamline returns them
        a = trace_streamline(fig1, (0.5, 0.5), field="central", step=0.01)
        b = trace_streamline(fig1, (0.9, -0.2), field="central", step=0.01)
        path = tmp_path / "lines.csv"
        write_streamlines_csv([a, b], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "id,step,x,y"
        assert len(lines) == 1 + len(a[0]) + len(b[0])
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == a[0][0, 0] and float(first[3]) == a[0][0, 1]
        last = lines[-1].split(",")
        assert last[0] == "1" and int(last[1]) == len(b[0]) - 1
        # byte for byte the per-coordinate format() writer, also on signed
        # zeros, the smallest subnormal and huge coordinates
        edge = np.array([[-0.0, 5e-324], [1.5e308, -1.5e308], [0.1, -5e-324]])
        streamlines = [a, (edge, "max-steps"), b]
        write_streamlines_csv(streamlines, str(path))
        expected = "id,step,x,y\n" + "".join(
            f"{sid},{s},"
            f"{format(float(points[s, 0]), '.17g')},"
            f"{format(float(points[s, 1]), '.17g')}\n"
            for sid, (points, _) in enumerate(streamlines)
            for s in range(points.shape[0])
        )
        assert path.read_bytes() == expected.encode()
        assert "1,0,-0,4.9406564584124654e-324\n" in expected

    def test_rejects_empty_and_non_planar(self, tmp_path):
        with pytest.raises(ValueError):
            write_streamlines_csv([], str(tmp_path / "x.csv"))
        with pytest.raises(ValueError):
            write_streamlines_csv(
                [(np.zeros((4, 3)), "max-steps")], str(tmp_path / "y.csv")
            )
