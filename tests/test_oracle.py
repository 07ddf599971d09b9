"""The planar oracles and the slow references: direction sweeps, dominance,
finite differences."""

import math

import numpy as np
import pytest

from modescent import (
    DIRECTION,
    INFEASIBLE,
    QueryLedger,
    central_direction,
    figure1_efficient_curve,
    gradient,
    hull_contains_origin_2d,
    make_unbounded_linear_problem,
)
from reference import (
    angular_sweep_feasible,
    brute_force_central,
    finite_diff_gradient,
    nondominated_mask,
    pareto_filter_grid,
    steepest_dual_reference,
)

SQRT2 = math.sqrt(2.0)


def directed_hausdorff(a, b):
    """max over a of the distance to the nearest point of b."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(d.min(axis=1).max())


class TestHullAndSweep:
    def test_hand_cases(self):
        assert hull_contains_origin_2d(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert not hull_contains_origin_2d(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert hull_contains_origin_2d(
            np.array([[1.0, 0.0], [-0.5, 0.9], [-0.5, -0.9]])
        )
        assert not hull_contains_origin_2d(np.array([[2.0, 1.0]]))

    def test_sweep_agrees_with_hull(self, rng):
        for _ in range(120):
            slate = rng.normal(size=(int(rng.integers(1, 6)), 2))
            assert angular_sweep_feasible(slate) == (
                not hull_contains_origin_2d(slate)
            )


class TestBruteForceCentral:
    def test_orthonormal_pair(self):
        res = brute_force_central(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert res.kind == DIRECTION
        assert res.norm == pytest.approx(SQRT2, abs=1e-6)
        assert np.linalg.norm(res.vector - np.array([-1.0, -1.0])) <= res.finest_step

    def test_asymmetric_pair(self):
        res = brute_force_central(np.array([[2.0, 0.0], [1.0, 1.0]]))
        target = np.array([-1.0, 1.0 - SQRT2])
        assert np.linalg.norm(res.vector - target) <= res.finest_step

    def test_opposed_pair_infeasible(self):
        res = brute_force_central(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert res.kind == INFEASIBLE
        assert res.vector is None

    def test_agrees_with_qp_on_random_slates(self, rng):
        """Verdicts match and the solutions sit within 5 finest steps."""
        agreements = 0
        for _ in range(60):
            slate = rng.normal(size=(int(rng.integers(1, 7)), 2))
            out = central_direction(slate)
            if out.kind == DIRECTION and out.norm > 1e4:
                continue  # outside the sweep's declared range
            res = brute_force_central(slate)
            assert res.kind == out.kind
            if out.kind == DIRECTION:
                offset = np.linalg.norm(res.vector - out.vector)
                assert offset <= 5.0 * res.finest_step
                agreements += 1
        assert agreements >= 20

    def test_rejects_near_critical_and_nulls(self):
        with pytest.raises(ValueError):
            brute_force_central(np.array([[1.0, 0.0], [-1.0, 1e-7]]))
        with pytest.raises(ValueError):
            brute_force_central(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            brute_force_central(np.ones((2, 3)))

    def test_respects_explicit_box(self):
        # solution norm sqrt(2) does not fit in a half-box of 1
        with pytest.raises(ValueError):
            brute_force_central(
                np.array([[1.0, 0.0], [0.0, 1.0]]), box_half=1.0
            )


class TestDominance:
    def test_hand_cases(self):
        vals = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert list(nondominated_mask(vals)) == [True, True, False]
        # exact ties survive in both copies
        ties = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert list(nondominated_mask(ties)) == [True, True]
        single = np.array([[3.0], [1.0], [2.0]])
        assert list(nondominated_mask(single)) == [False, True, False]

    def test_duplicated_objective_changes_nothing(self, rng):
        vals = rng.normal(size=(40, 2))
        doubled = np.column_stack([vals, vals[:, 1]])
        assert np.array_equal(nondominated_mask(vals), nondominated_mask(doubled))

    def test_constant_extra_objective_changes_nothing(self, rng):
        vals = rng.normal(size=(40, 2))
        padded = np.column_stack([vals, np.full(40, 7.0)])
        assert np.array_equal(nondominated_mask(vals), nondominated_mask(padded))

    @pytest.mark.parametrize("m", [2, 3])
    def test_filter_is_idempotent(self, rng, m):
        vals = rng.normal(size=(200, m))
        kept = vals[nondominated_mask(vals)]
        assert nondominated_mask(kept).all()

    def test_dominated_point_never_survives(self, rng):
        vals = rng.uniform(0.0, 1.0, size=(50, 3))
        vals = np.vstack([vals, vals[7] + 0.1])
        assert not nondominated_mask(vals)[-1]


@pytest.fixture(scope="module")
def filtered():
    from modescent import make_figure1_problem

    prob = make_figure1_problem()
    pts = pareto_filter_grid(prob, (-2.5, 0.5, -2.5, 0.5), 400)
    return prob, pts


class TestParetoFilterGrid:
    def test_filtered_grid_traces_the_efficient_curve(self, filtered):
        """Every closed-form curve point has a surviving grid point nearby.

        The converse direction is checked with a wider band: grid
        dominance keeps a sliver of near-efficient points whose dominating
        neighborhood (a lens of thickness ~ d^2) falls between grid nodes,
        so the surviving cloud is a band of width ~ sqrt(step) around the
        curve rather than a one-cell ribbon.
        """
        prob, pts = filtered
        step = 3.0 / 399.0
        curve = figure1_efficient_curve(400)
        assert directed_hausdorff(curve, pts) <= 2.0 * step
        assert directed_hausdorff(pts, curve) <= 0.07

    def test_endpoints_survive(self, filtered):
        prob, pts = filtered
        step = 3.0 / 399.0
        for endpoint in ([-2.0, 0.0], [0.0, -2.0]):
            d = np.linalg.norm(pts - np.array(endpoint), axis=1).min()
            assert d <= step

    def test_requires_planar_problem(self):
        prob = make_unbounded_linear_problem(2, 3, seed=1)
        with pytest.raises(ValueError):
            pareto_filter_grid(prob, (-1.0, 1.0, -1.0, 1.0), 10)

    def test_ledger_accounting(self, fig1):
        ledger = QueryLedger.for_objectives(2)
        pareto_filter_grid(fig1, (-1.0, 0.0, -1.0, 0.0), 5, ledger=ledger)
        assert list(ledger.function_counts) == [25, 25]
        assert ledger.gradient_evals == 0


class TestFiniteDifference:
    def test_matches_analytic_on_figure1(self, fig1):
        x = np.array([0.7, -0.3])
        for i in range(2):
            fd = finite_diff_gradient(fig1, i, x)
            exact = gradient(fig1, i, x, QueryLedger.for_objectives(2))
            assert fd == pytest.approx(exact, abs=1e-6)

    def test_exact_for_linear(self):
        prob = make_unbounded_linear_problem(2, 3, seed=4)
        ledger = QueryLedger.for_objectives(2)
        x = np.array([0.3, -1.0, 2.0])
        fd = finite_diff_gradient(prob, 0, x, h=0.25)
        exact = gradient(prob, 0, x, ledger)
        assert fd == pytest.approx(exact, abs=1e-10)

    def test_ledger_counts_two_queries_per_coordinate(self, fig1):
        ledger = QueryLedger.for_objectives(2)
        finite_diff_gradient(fig1, 1, np.zeros(2), ledger=ledger)
        assert list(ledger.function_counts) == [0, 4]


class TestSteepestDualReference:
    def test_worked_values(self):
        v, value = steepest_dual_reference(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert v == pytest.approx([-0.5, -0.5])
        assert value == pytest.approx(-0.25)
        # dual weights (0.2, 0.8) give V = (-0.4, -0.8)
        v, value = steepest_dual_reference(np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert v == pytest.approx([-0.4, -0.8], abs=1e-9)
        v, value = steepest_dual_reference(np.array([[0.0, 0.0], [1.0, 2.0]]))
        assert (v.tolist(), value) == ([0.0, 0.0], 0.0)


class TestEfficientCurve:
    def test_endpoints_and_range(self):
        curve = figure1_efficient_curve(256)
        assert curve[0] == pytest.approx([-2.0, 0.0])
        assert curve[-1] == pytest.approx([0.0, -2.0])
        assert curve[:, 0].min() >= -2.0
        assert curve[:, 1].max() <= 0.0 + 1e-12

    def test_gradients_anti_parallel_along_curve(self, fig1):
        # interior curve points satisfy g1 = -t g2 with t > 0
        ledger = QueryLedger.for_objectives(2)
        for x in figure1_efficient_curve(33)[1:-1]:
            g1 = gradient(fig1, 0, x, ledger)
            g2 = gradient(fig1, 1, x, ledger)
            cross = g1[0] * g2[1] - g1[1] * g2[0]
            assert abs(cross) < 1e-9
            assert g1 @ g2 < 0.0
