"""Criticality metrics: proximity reports, rate bounds, robustness margins."""

import math

import numpy as np
import pytest

from modescent import (
    FieldGrid,
    alignment_gap,
    angular_sweep_alignment_gap,
    central_direction,
    exterior_perturbation_margin,
    interior_perturbation_margin,
    make_figure1_problem,
    perturbation_margin,
    make_scaled_variant,
    problem_from_name,
    proximity_at,
    rate_bound,
    rate_bound_margins,
    sample_field,
)
from reference import same_bits, steepest_dual_reference

SQRT2 = math.sqrt(2.0)
ORTH = np.array([[1.0, 0.0], [0.0, 1.0]])


class TestProximity:
    def test_worked_origin_report(self, fig1):
        rep = proximity_at(fig1, np.zeros(2))
        assert rep.min_grad_norm == pytest.approx(4.0)
        assert rep.central_norm == pytest.approx(SQRT2)
        assert rep.steepest_value == pytest.approx(-4.0)
        assert rep.ratio == pytest.approx(4.0 / SQRT2)

    def test_individual_minimizer_is_critical(self, fig1):
        rep = proximity_at(fig1, np.array([-2.0, 0.0]))
        assert rep.min_grad_norm == 0.0
        assert rep.central_norm == float("inf")
        assert rep.steepest_value == 0.0
        assert rep.ratio == 0.0

    def test_efficient_point_is_infeasible_with_live_gradients(self, fig1):
        # gradients at (-0.5, -0.5) oppose exactly
        rep = proximity_at(fig1, np.array([-0.5, -0.5]))
        assert rep.min_grad_norm == pytest.approx(3.0 * SQRT2)
        assert rep.central_norm == float("inf")
        assert rep.ratio == 0.0
        assert abs(rep.steepest_value) <= 1e-12

    def test_ledger_stays_private_by_default(self, fig1):
        from modescent import QueryLedger

        mine = QueryLedger.for_objectives(2)
        proximity_at(fig1, np.zeros(2))
        assert mine.gradient_evals == 0
        proximity_at(fig1, np.zeros(2), ledger=mine)
        assert mine.gradient_evals == 2
        assert mine.function_evals == 0

    def test_central_norm_diverges_toward_the_efficient_point(self, fig1):
        """The central norm blows up along (0,0) -> (-0.5,-0.5).

        The terminal point has exactly opposed gradients, so the norm must
        grow without bound while the approach stays feasible.
        """
        ts = np.linspace(0.0, 0.9999, 400)
        series = np.array(
            [
                proximity_at(fig1, t * np.array([-0.5, -0.5])).central_norm
                for t in ts
            ]
        )
        assert series[0] == pytest.approx(SQRT2)
        assert np.isfinite(series).all()
        assert series.max() > 1e4
        assert int(np.argmax(series)) == len(series) - 1
        # monotone blow-up near the singularity
        assert np.all(np.diff(series[-60:]) > 0)

    def test_tiny_gradients_keep_their_norm(self, fig1):
        # the raw norm of 1e-300 * grad f1 underflows to 0; the report must
        # not call the point critical
        tiny = make_scaled_variant(fig1, [1e-300, 1.0])
        rep = proximity_at(tiny, np.zeros(2))
        ref = proximity_at(fig1, np.zeros(2))
        assert rep.min_grad_norm == pytest.approx(4e-300, rel=1e-15)
        assert rep.central_norm == pytest.approx(ref.central_norm, rel=1e-12)
        assert rep.ratio == pytest.approx(4e-300 / SQRT2, rel=1e-12)


    @pytest.mark.parametrize(
        "name",
        [
            "figure1",
            "figure1-scaled:1e-300,1",
            "random-quadratic:3,2,0",
            "random-quadratic:4,2,0",
        ],
    )
    def test_each_grid_node_reads_the_field_channels(self, name):
        # proximity_at measures one sample_field node; the figure1 grid holds
        # both individual minimizers and an efficient point
        problem = problem_from_name(name)
        grid = sample_field(problem, ((-2.0, 1.0), (-2.0, 1.0)), 7)
        for iy, y in enumerate(grid.ys):
            for ix, x in enumerate(grid.xs):
                rep = proximity_at(problem, np.array([x, y]))
                for channel in FieldGrid.CHANNEL_ORDER:
                    got = np.float64(getattr(rep, channel))
                    assert same_bits(got, grid.channels[channel][iy, ix]), channel


class TestRateBound:
    def test_worked_value(self):
        # f1 drop 4, beta 1/2, L 6: k = 1 gives sqrt(4 * 48)
        assert rate_bound(4.0, 0.0, 0.5, 6.0, 1) == pytest.approx(math.sqrt(192.0))

    def test_quadrupling_k_halves_the_bound(self):
        b1 = rate_bound(4.0, 0.0, 0.5, 6.0, 5)
        b4 = rate_bound(4.0, 0.0, 0.5, 6.0, 20)
        assert b4 == pytest.approx(b1 / 2.0)

    def test_small_beta_branch(self):
        # for beta(1-beta)/(2L) > beta the plain beta term binds; here the
        # quadratic term always binds instead once L >= 1, so force the
        # other branch with a tiny L
        L = 0.01
        beta = 0.5
        expected = math.sqrt(1.0 / (3 * min(beta * (1 - beta) / (2 * L), beta)))
        assert rate_bound(1.0, 0.0, beta, L, 3) == pytest.approx(expected)

    def test_zero_gap_gives_zero(self):
        assert rate_bound(2.0, 2.0, 0.5, 6.0, 10) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(f1_at_x0=1.0, f_min=0.0, beta=0.0, lipschitz=1.0, k=1),
            dict(f1_at_x0=1.0, f_min=0.0, beta=1.0, lipschitz=1.0, k=1),
            dict(f1_at_x0=1.0, f_min=0.0, beta=0.5, lipschitz=0.0, k=1),
            dict(f1_at_x0=1.0, f_min=0.0, beta=0.5, lipschitz=1.0, k=0),
            dict(f1_at_x0=-1.0, f_min=0.0, beta=0.5, lipschitz=1.0, k=1),
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(ValueError):
            rate_bound(**kwargs)

    def test_margins_match_a_hand_loop(self):
        ratios = [10.0, 9.0, 2.0, 5.0]
        margins = rate_bound_margins(ratios, 4.0, 0.0, 0.5, 6.0)
        running = float("inf")
        for k, r in enumerate(ratios, start=1):
            running = min(running, r)
            expected = rate_bound(4.0, 0.0, 0.5, 6.0, k) - running
            assert margins[k - 1] == pytest.approx(expected)
        assert margins == pytest.approx(
            [3.8564064605510175, 0.7979589711327115, 6.0, 4.928203230275509]
        )


class TestAlignmentGap:
    def test_worked_values(self):
        assert alignment_gap(ORTH, 1.0) == pytest.approx(-1.0 / SQRT2)
        assert alignment_gap(np.array([[3.0, 4.0]]), 1.0) == pytest.approx(-1.0)
        pair45 = np.array([[1.0, 0.0], [SQRT2 / 2.0, SQRT2 / 2.0]])
        assert alignment_gap(pair45, 1.0) == pytest.approx(-math.cos(math.pi / 8.0))

    def test_scales_linearly_in_radius(self, rng):
        for _ in range(10):
            slate = rng.normal(size=(3, 3))
            z1 = alignment_gap(slate, 1.0)
            assert alignment_gap(slate, 2.0) == pytest.approx(2.0 * z1)
            assert alignment_gap(slate, 0.25) == pytest.approx(0.25 * z1)

    def test_ignores_gradient_magnitudes(self, rng):
        for _ in range(10):
            slate = rng.normal(size=(4, 3))
            scales = rng.uniform(0.1, 10.0, size=4)
            assert alignment_gap(slate * scales[:, None], 1.0) == pytest.approx(
                alignment_gap(slate, 1.0)
            )

    def test_agrees_with_planar_sweep(self, rng):
        # the sweep quantizes angles to pi/10000, a first-order error for
        # minima that fall between grid directions
        for _ in range(6):
            slate = rng.normal(size=(int(rng.integers(2, 5)), 2))
            exact = alignment_gap(slate, 1.0)
            swept = angular_sweep_alignment_gap(slate, 1.0)
            assert abs(exact - swept) <= 5e-4

    def test_agrees_with_first_order_reference_beyond_the_plane(self, rng):
        # z(R) runs on the same min-norm kernel as central_direction, so the
        # independent check is the oracle's projected-gradient dual solve
        for _ in range(20):
            m, n = int(rng.integers(2, 6)), int(rng.integers(3, 7))
            slate = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0, size=(m, 1))
            unit = slate / np.linalg.norm(slate, axis=1)[:, None]
            v_ref, _ = steepest_dual_reference(unit)
            z_ref = -float(np.linalg.norm(v_ref))
            z = alignment_gap(slate, 1.0)
            # the reference's dual point is feasible, so -z_ref >= -z
            assert z >= z_ref * (1.0 + 1e-12)
            assert z == pytest.approx(z_ref, abs=1e-6)

    def test_sweep_is_exact_on_the_orthonormal_pair(self):
        exact = alignment_gap(ORTH, 1.0)
        swept = angular_sweep_alignment_gap(ORTH, 1.0)
        assert abs(exact - swept) <= 1e-4

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alignment_gap(ORTH, 0.0)
        with pytest.raises(ValueError):
            alignment_gap(np.array([[0.0, 0.0]]), 1.0)


class TestPerturbationMargin:
    def test_worked_value(self):
        assert perturbation_margin(ORTH, 1.0) == pytest.approx(
            (1.0 - 1.0 / SQRT2) / 2.0
        )
        assert perturbation_margin(ORTH, 0.5) == pytest.approx(
            (1.0 + alignment_gap(ORTH, 0.5)) / 1.5
        )

    def test_scales_with_gradient_magnitudes(self):
        assert perturbation_margin(3.0 * ORTH, 1.0) == pytest.approx(
            3.0 * perturbation_margin(ORTH, 1.0)
        )

    def test_vanishes_as_the_ball_reaches_feasibility(self):
        # the orthonormal pair becomes ball-feasible at R = sqrt(2)
        margins = [perturbation_margin(ORTH, r) for r in (1.0, 1.3, 1.41, 1.414)]
        assert all(m > 0 for m in margins)
        assert np.all(np.diff(margins) < 0)
        assert margins[-1] < 1e-3

    def test_raises_once_feasible_within_radius(self):
        with pytest.raises(ValueError):
            perturbation_margin(ORTH, 2.0)

    def test_tiny_and_huge_gradients_keep_their_margin(self, rng):
        # the rows are normalized after an exact power-of-two prescale, so
        # 2**k G gives the same gap and 2**k times the margin, even where
        # ||G|| itself would underflow or overflow
        for _ in range(10):
            slate = rng.normal(size=(3, 2))
            z = alignment_gap(slate, 0.5)
            if z <= -1.0:
                continue
            margin = perturbation_margin(slate, 0.5)
            for k in (-1000, 1000):
                scaled = np.ldexp(slate, k)
                assert alignment_gap(scaled, 0.5) == z
                assert perturbation_margin(scaled, 0.5) == np.ldexp(margin, k)
        with pytest.raises(ValueError):
            perturbation_margin(np.array([[np.nan, 1.0], [0.0, 1.0]]), 0.5)


class TestPointwiseMargins:
    def test_interior_worked_value(self):
        v = np.array([-1.5, -1.5])
        expected = 0.5 / (1.0 + 1.5 * SQRT2)
        assert interior_perturbation_margin(ORTH, v) == pytest.approx(expected)

    def test_interior_requires_strict_feasibility(self):
        with pytest.raises(ValueError):
            interior_perturbation_margin(ORTH, np.zeros(2))
        with pytest.raises(ValueError):
            # slacks are exactly zero on the QP boundary
            interior_perturbation_margin(ORTH, np.array([-1.0, -1.0]))

    def test_interior_margin_certifies(self, rng):
        """Perturbing every gradient by 0.99 of the margin keeps v feasible."""
        v = np.array([-1.5, -1.5])
        eps = 0.99 * interior_perturbation_margin(ORTH, v)
        for _ in range(200):
            delta = rng.normal(size=(2, 2))
            delta *= eps / np.linalg.norm(delta, axis=1, keepdims=True)
            tilted = ORTH + delta
            norms = np.linalg.norm(tilted, axis=1)
            assert ((tilted @ v) / norms).max() <= -1.0 + 1e-12

    def test_exterior_worked_value(self):
        v = np.array([1.5, 1.5])
        margin, witness = exterior_perturbation_margin(ORTH, v)
        assert margin == pytest.approx(2.5 / (1.0 + 1.5 * SQRT2))
        assert witness == 0

    def test_exterior_witness_is_most_violated(self):
        slate = np.array([[0.0, 1.0], [1.0, 0.0]])
        margin, witness = exterior_perturbation_margin(
            slate, np.array([2.0, -0.5])
        )
        assert witness == 1

    def test_exterior_margin_certifies(self, rng):
        v = np.array([1.5, 1.5])
        margin, witness = exterior_perturbation_margin(ORTH, v)
        eps = 0.99 * margin
        for _ in range(200):
            delta = rng.normal(size=2)
            delta *= eps / np.linalg.norm(delta)
            tilted = ORTH[witness] + delta
            slack = tilted @ v + np.linalg.norm(tilted)
            assert slack > 0.0

    def test_exterior_requires_a_violated_constraint(self):
        with pytest.raises(ValueError):
            exterior_perturbation_margin(ORTH, np.array([-1.5, -1.5]))

    @pytest.mark.parametrize("scale", [1e-300, 1e300, 2.0**-1000])
    def test_extreme_scales_keep_the_unit_verdicts(self, scale):
        # the central optimum V is scale invariant, and raw norms of 1e-300
        # rows underflow to 0, so the slacks must come from the prescale
        unit = np.array([[2.0, 0.0], [1.0, 1.0]])
        slate = scale * unit
        v = central_direction(unit).vector
        for gradients in (unit, slate):
            with pytest.raises(ValueError, match="not strictly feasible"):
                interior_perturbation_margin(gradients, v)
        margin, witness = exterior_perturbation_margin(unit, 0.5 * v)
        assert (round(margin, 3), witness) == (0.649, 0)
        scaled_margin, scaled_witness = exterior_perturbation_margin(slate, 0.5 * v)
        assert scaled_witness == witness
        assert scaled_margin == pytest.approx(scale * margin, rel=1e-14)
        inside = interior_perturbation_margin(unit, 1.5 * v)
        assert interior_perturbation_margin(slate, 1.5 * v) == pytest.approx(
            scale * inside, rel=1e-14
        )

    def test_null_gradients_raise(self):
        slate = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="null gradient"):
            interior_perturbation_margin(slate, np.array([-1.0, -1.0]))
        with pytest.raises(ValueError, match="null gradient"):
            exterior_perturbation_margin(slate, np.array([1.0, 1.0]))
