"""Direction solvers: the central QP, the regularized min-max, helpers."""

import math
import warnings

import numpy as np
import pytest

from modescent import (
    DIRECTION,
    INFEASIBLE,
    DirectionSolverError,
    GradientSlate,
    central_direction,
    descent_margin,
    hull_contains_origin_2d,
    steepest_direction,
)
from modescent import QueryLedger, directions, gradients_at, problem_from_name, solvers
from reference import (
    exact_distance,
    exact_min_norm,
    project_rows_to_simplex,
    same_bits,
    steepest_dual_reference,
)

SQRT2 = math.sqrt(2.0)


def random_slate(rng, m, n):
    return rng.normal(size=(m, n)) * rng.uniform(0.5, 3.0)


class TestCentralWorked:
    def test_single_gradient_gives_negated_unit(self):
        out = central_direction(np.array([[3.0, 4.0]]))
        assert out.kind == DIRECTION
        assert out.vector == pytest.approx([-0.6, -0.8])
        assert out.norm == pytest.approx(1.0)

    def test_orthonormal_pair(self):
        out = central_direction(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert out.kind == DIRECTION
        assert out.vector == pytest.approx([-1.0, -1.0])
        assert out.norm == pytest.approx(SQRT2)
        assert sorted(out.active_set) == [0, 1]

    def test_gradient_lengths_are_irrelevant(self):
        # constraints see normalized gradients only
        out = central_direction(np.array([[4.0, 0.0], [0.0, 4.0]]))
        assert out.vector == pytest.approx([-1.0, -1.0])
        assert out.norm == pytest.approx(SQRT2)

    def test_asymmetric_pair_with_multipliers(self):
        """Solution (-1, 1 - sqrt(2)) with stationarity in the raw gradients."""
        slate = np.array([[2.0, 0.0], [1.0, 1.0]])
        out = central_direction(slate)
        assert out.vector == pytest.approx([-1.0, 1.0 - SQRT2])
        assert out.multipliers == pytest.approx([1.0 - SQRT2 / 2.0, SQRT2 - 1.0])
        recon = -np.einsum(
            "a,ad->d", out.multipliers, slate[list(out.active_set)]
        )
        assert recon == pytest.approx(out.vector)

    def test_opposed_pair_is_infeasible(self):
        out = central_direction(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert out.kind == INFEASIBLE
        assert out.vector is None
        assert out.norm == float("inf")
        assert out.certificate == pytest.approx([0.5, 0.5])

    def test_infeasible_certificate_kills_the_hull(self, rng):
        # certificate weights are a convex combination of normalized
        # gradients with tiny norm
        slate = np.array([[1.0, 0.2], [-1.0, 0.1], [0.3, -1.0]])
        out = central_direction(slate)
        assert out.kind == INFEASIBLE
        mu = out.certificate
        assert mu.min() >= -1e-12
        assert mu.sum() == pytest.approx(1.0)
        unit = slate / np.linalg.norm(slate, axis=1)[:, None]
        assert np.linalg.norm(mu @ unit) <= 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            central_direction(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            central_direction(np.zeros((2, 2, 2)))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                central_direction(np.array([[1.0, bad], [0.0, 1.0]]))


class TestCentralInvariants:
    def test_unit_progress_against_every_gradient(self, rng):
        # the defining constraints: g_i . V <= -||g_i||
        for trial in range(60):
            slate = random_slate(rng, int(rng.integers(1, 8)), int(rng.integers(2, 6)))
            out = central_direction(slate)
            if out.kind != DIRECTION:
                continue
            norms = np.linalg.norm(slate, axis=1)
            assert ((slate @ out.vector) / norms).max() <= -1.0 + 1e-7
            assert out.norm >= 1.0 - 1e-9

    def test_kkt_residual_is_tiny_on_conditioned_slates(self, rng):
        """Stationarity + complementarity residual stays below 1e-8.

        Complementarity rounds off like ||V||^3 * eps, so the check
        conditions on moderately sized solutions; near-critical accuracy
        is covered by the oracle agreement tests instead.
        """
        seen = 0
        while seen < 60:
            slate = random_slate(rng, int(rng.integers(2, 12)), int(rng.integers(2, 8)))
            out = central_direction(slate)
            if out.kind != DIRECTION or out.norm > 30.0:
                continue
            seen += 1
            assert out.kkt_residual <= 1e-8
            # recompute the stationarity part independently
            recon = -np.einsum(
                "a,ad->d", out.multipliers, slate[list(out.active_set)]
            )
            assert np.linalg.norm(recon - out.vector) <= 1e-8 * max(1.0, out.norm)
            assert np.all(out.multipliers >= -1e-12)

    def test_two_gradient_bisector_geometry(self, rng):
        # with both constraints active the solution lies along the
        # negative bisector of the normalized gradients
        for _ in range(20):
            theta = rng.uniform(0.2, 0.9 * math.pi)
            g1 = np.array([1.0, 0.0])
            g2 = np.array([math.cos(theta), math.sin(theta)])
            out = central_direction(np.stack([g1, g2]) * rng.uniform(0.5, 5.0))
            bisector = -(g1 + g2)
            bisector /= np.linalg.norm(bisector)
            assert out.vector / out.norm == pytest.approx(bisector, abs=1e-9)
            # closed form: ||V|| = 1 / cos(theta / 2)
            assert out.norm == pytest.approx(1.0 / math.cos(theta / 2.0), rel=1e-9)

    def test_infeasible_exactly_when_hull_contains_origin(self, rng):
        for _ in range(200):
            slate = random_slate(rng, int(rng.integers(2, 6)), 2)
            out = central_direction(slate)
            assert (out.kind == INFEASIBLE) == hull_contains_origin_2d(slate)


class TestSteepest:
    def test_single_gradient(self):
        v, value = steepest_direction(np.array([[3.0, 4.0]]))
        assert v == pytest.approx([-3.0, -4.0])
        assert value == pytest.approx(-12.5)

    def test_orthonormal_pair(self):
        v, value = steepest_direction(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert v == pytest.approx([-0.5, -0.5])
        assert value == pytest.approx(-0.25)

    def test_asymmetric_pair(self):
        # dual weights (0.2, 0.8) give V = (-0.4, -0.8)
        v, value = steepest_direction(np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert v == pytest.approx([-0.4, -0.8], abs=1e-9)
        assert value == pytest.approx(-0.4, abs=1e-9)

    def test_null_gradient_means_critical(self):
        v, value = steepest_direction(np.array([[0.0, 0.0], [1.0, 2.0]]))
        assert v == pytest.approx([0.0, 0.0])
        assert value == 0.0

    def test_matches_dense_dual_sweep_for_pairs(self, rng):
        # m = 2 dual is 1-D: scan lambda on a fine grid and compare
        lams = np.linspace(0.0, 1.0, 20001)
        for _ in range(25):
            slate = random_slate(rng, 2, int(rng.integers(2, 5)))
            v, value = steepest_direction(slate)
            combos = (
                lams[:, None] * slate[0][None, :]
                + (1.0 - lams)[:, None] * slate[1][None, :]
            )
            best = 0.5 * (combos * combos).sum(axis=1).min()
            # the grid value is an upper bound on the true dual minimum
            assert -value <= best + 1e-9
            assert best - (-value) <= 1e-6 * max(1.0, best)

    def test_value_never_positive(self, rng):
        for _ in range(40):
            slate = random_slate(rng, int(rng.integers(1, 7)), int(rng.integers(2, 6)))
            v, value = steepest_direction(slate)
            assert value <= 0.0
            assert value == pytest.approx(-0.5 * float(v @ v), abs=1e-12)

    def test_matches_the_first_order_reference(self):
        # n >= 2: for n = 1 with opposite signs both optima are 0 and the
        # two solvers return rounding noise of different sizes (~1e-33)
        rng = np.random.default_rng(2105)
        for _ in range(200):
            m, n = int(rng.integers(1, 8)), int(rng.integers(2, 10))
            slate = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0, size=(m, 1))
            v, _ = steepest_direction(slate)
            v_ref, _ = steepest_dual_reference(slate)
            assert float(v @ v) <= float(v_ref @ v_ref) * (1.0 + 1e-12)
            scale = float((slate * slate).sum(axis=1).max())
            assert float((slate @ v).max()) + float(v @ v) <= 1e-11 * scale

    def test_power_of_two_scaling_is_exact(self, rng):
        for _ in range(20):
            slate = random_slate(rng, int(rng.integers(1, 6)), int(rng.integers(2, 6)))
            v, value = steepest_direction(slate)
            for k in (-400, -40, 3, 400):
                vk, value_k = steepest_direction(2.0**k * slate)
                assert np.array_equal(vk, 2.0**k * v)
                assert value_k == 4.0**k * value

    def test_tiny_gradients_are_not_null(self):
        v, value = steepest_direction(np.array([[1e-300, 0.0], [0.0, 1e-300]]))
        assert v == pytest.approx([-0.5e-300, -0.5e-300], rel=1e-15, abs=0.0)
        assert value == 0.0  # -0.5 ||V||^2 underflows; V does not

    def test_rejects_non_finite_slates(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                steepest_direction(np.array([[1.0, bad], [0.0, 1.0]]))


class TestFloatRange:
    def test_huge_orthogonal_pair_is_feasible(self):
        out = central_direction(np.array([[1e300, 0.0], [0.0, 1e300]]))
        assert out.kind == DIRECTION
        assert out.vector == pytest.approx([-1.0, -1.0])
        assert out.multipliers == pytest.approx([1e-300, 1e-300], rel=1e-12)

    def test_tiny_entries_are_not_null(self):
        out = central_direction(np.array([[1e-300, 0.0], [0.0, 1e-300]]))
        assert out.kind == DIRECTION
        assert out.vector == pytest.approx([-1.0, -1.0])
        single = central_direction(np.array([[3e-300, 4e-300]]))
        assert single.vector == pytest.approx([-0.6, -0.8])

    def test_row_norm_beyond_the_float_range_keeps_the_certificate(self):
        # ||(1.5e308, 1.5e308)|| overflows, yet V and the KKT data are finite
        out = central_direction(np.array([[1.5e308, 1.5e308], [1.0, 0.0]]))
        assert out.kind == DIRECTION
        assert out.vector == pytest.approx([-1.0, -math.tan(math.pi / 8)])
        assert np.all(np.isfinite(out.multipliers))
        assert np.isfinite(out.kkt_residual)
        # absolute residual: rounding in the 1.5e308 row is about 1e292
        assert out.kkt_residual <= 1e-12 * 1.5e308

    def test_multiplier_beyond_the_float_range_is_inf_without_a_warning(self):
        # a nearly critical pair of 2**-1000-scale rows: lambda_i = 2**999 *
        # a_i with a_i about 4e12 lies beyond the float range
        slate = np.array([[1.0, 0.0], [-1.0, 1e-6]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tiny = central_direction(np.ldexp(slate, -1000))
        unit = central_direction(slate)
        assert tiny.kind == DIRECTION
        assert np.array_equal(tiny.vector, unit.vector)
        assert np.all(np.isfinite(unit.multipliers))
        assert np.all(np.isinf(tiny.multipliers))

    def test_prescale_leaves_normal_range_bits_alone(self, rng):
        for _ in range(50):
            slate = random_slate(rng, 4, 3) * np.exp(rng.uniform(-20, 20, (4, 1)))
            norms = np.linalg.norm(slate, axis=1)
            out = central_direction(slate)
            x, mu, support = directions._min_norm_point(slate / norms[:, None])
            if out.kind == DIRECTION:
                delta = float(np.linalg.norm(x))
                assert np.array_equal(out.vector, -x / (delta * delta))
                active = [i for i in support if mu[i] > 0.0]
                lambdas = mu[active] / (delta * delta * norms[active])
                assert np.array_equal(out.multipliers, lambdas)
                v = out.vector
                slack = slate @ v + norms
                residual = max(
                    max(slack.max(), 0.0),
                    np.linalg.norm(v + slate[active].T @ lambdas),
                    np.abs(lambdas * slack[active]).max(),
                )
                assert out.kkt_residual == residual

    def test_outcome_is_the_reference_formulas_bit_for_bit(self, rng):
        # the certificate written out one quantity per line, with the
        # broadcast kernel for two rows and the triangle form for three;
        # every slate size, active sets with and without zero weights,
        # infeasible slates, rows at 2**-1070 to 2**1020
        def reference(slate):
            scaled, norms, exps = directions._prescaled_rows(slate)
            unit = scaled / norms[:, None]
            if len(slate) == 2:
                x, w = directions._segment_min_norm(unit[0], unit[1])
                mu = np.array([1.0 - w, w])
            elif len(slate) == 3:
                x, mu = directions._triangle_min_norm(unit)
            else:
                x, mu, _ = directions._wolfe_min_norm_point(unit)
            delta = math.sqrt(x @ x)
            if delta <= directions.QP_TOL:
                return (INFEASIBLE, None, math.inf, (), None, False, mu, delta)
            delta2 = delta * delta
            v = -x / delta2
            vnorm = math.sqrt(v @ v)
            active = (mu > 0.0).nonzero()[0]
            a = mu[active] / (delta2 * norms[active])
            lambdas = np.ldexp(a, -exps[active])
            slack = scaled @ v + norms
            primal = max(float(np.ldexp(slack, exps).max()), 0.0)
            r = v + scaled[active].T @ a
            stationarity = math.sqrt(r @ r)
            complementarity = float(np.abs(a * slack[active]).max())
            return (DIRECTION, v, vnorm, tuple(active.tolist()), lambdas,
                    vnorm > directions.NORM_CAP, None,
                    max(primal, stationarity, complementarity))

        names = ("kind", "vector", "norm", "active_set", "multipliers",
                  "norm_capped", "certificate", "kkt_residual")
        kinds = set()
        for case in range(1500):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            slate = rng.normal(size=(m, n))
            if case % 4 == 1 and m > 1:
                slate[-1] = 2.0 * slate[0]  # a duplicated row: zero weight
            elif case % 4 == 2 and m > 1:
                slate[-1] = -0.5 * slate[0]  # opposed: infeasible
            slate = np.ldexp(slate, rng.integers(-1070, 1021, (m, 1)))
            if not np.abs(slate).max(axis=1).all():
                continue
            with np.errstate(over="ignore"):
                try:
                    ref = reference(slate)
                except DirectionSolverError as exc:
                    # two rows nearly equal after rounding: Wolfe can run out
                    with pytest.raises(DirectionSolverError, match=str(exc)[:30]):
                        central_direction(slate)
                    continue
                out = central_direction(slate)
            kinds.add((out.kind, len(out.active_set) == m))
            for name, expected in zip(names, ref):
                got = getattr(out, name)
                if isinstance(expected, np.ndarray):
                    assert same_bits(got, expected), (case, name)
                elif isinstance(expected, float):
                    assert same_bits(np.float64(got), np.float64(expected))
                else:
                    assert got == expected, (case, name)
        # feasible with every row active, with some rows inactive, infeasible
        assert {(DIRECTION, True), (DIRECTION, False), (INFEASIBLE, False)} <= kinds


class TestMinNormKernel:
    def test_corral_loop_running_out_raises(self, monkeypatch):
        # an affine solve that never yields usable weights keeps the inner
        # loop cycling; it must fail by name, not return a half-solved point
        monkeypatch.setattr(
            directions, "_affine_minimizer", lambda sub: np.full(len(sub), np.nan)
        )
        with pytest.raises(DirectionSolverError, match="corral loop"):
            directions._wolfe_min_norm_point(np.eye(2))

    def test_violating_corral_vertex_is_not_convergence(self, monkeypatch):
        # weights that ignore the new vertex leave it violating the
        # optimality test while already in the corral
        monkeypatch.setattr(
            directions, "_affine_minimizer", lambda sub: np.eye(len(sub))[0]
        )
        with pytest.raises(DirectionSolverError, match="stalled"):
            directions._wolfe_min_norm_point(np.eye(2))

    def test_start_indices_outside_the_slate_raise(self):
        for start in ((-1, 0), (0, 2), (5,)):
            with pytest.raises(ValueError, match="start"):
                directions._min_norm_point(np.eye(2), start)
        with pytest.raises(ValueError, match="start"):
            central_direction(np.eye(2), start=(2,))

    def test_warm_solve_fails_by_name(self, monkeypatch):
        # no fallback to the cold start: a broken warm solve raises
        monkeypatch.setattr(
            directions, "_affine_minimizer", lambda sub: np.full(len(sub), np.nan)
        )
        with pytest.raises(DirectionSolverError, match="corral loop"):
            directions._min_norm_point(np.eye(4), (0, 1, 2, 3))


def _two_row_slate(rng, case):
    """Seeded 2-row slate: generic, duplicated up to a positive factor,
    opposed (the origin on the segment), near-parallel, nearly opposed or
    of very different lengths; at scale 2**-1000, 1 or 2**1000."""
    n = int(rng.integers(1, 7))
    p = rng.normal(size=n)
    kind = case % 6
    if kind == 0:
        q = rng.normal(size=n)
    elif kind == 1:
        q = p * (1.0 if case % 12 == 1 else rng.uniform(0.1, 10.0))
    elif kind == 2:
        q = -rng.uniform(0.1, 10.0) * p
    elif kind == 3:
        q = rng.uniform(0.5, 2.0) * p + 1e-8 * rng.normal(size=n)
    elif kind == 4:
        q = -rng.uniform(0.5, 2.0) * p + 1e-8 * rng.normal(size=n)
    else:
        q = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    return np.ldexp(np.stack([p, q]), (-1000, 0, 1000)[(case // 6) % 3])


class TestClosedForm:
    """The m = 2 closed form against the Wolfe iteration, its reference."""

    def test_kernel_is_optimal_and_matches_wolfe(self):
        rng = np.random.default_rng(17)
        for case in range(600):
            slate = _two_row_slate(rng, case)
            _, e = np.frexp(np.abs(slate).max())
            pts = np.ldexp(slate, -e)
            x, w, support = directions._min_norm_point(pts)
            xw, ww, support_w = directions._wolfe_min_norm_point(pts)
            # optimal to rounding, where Wolfe stops at a 1e-12 gap
            assert x @ x - (pts @ x).min() <= 1e-15, case
            assert abs(x @ x - xw @ xw) <= 1e-12, case
            assert w.sum() == pytest.approx(1.0, abs=1e-15)
            assert np.abs(w @ pts - x).max() <= 1e-15, case
            assert support == [i for i in (0, 1) if w[i] > 0.0]
            with np.errstate(over="ignore"):  # the value of a 2**1000 slate
                v, _ = steepest_direction(slate)
            assert np.array_equal(v, -np.ldexp(x, e))
            if case % 12 == 1:  # duplicated row: the lowest index, as Wolfe
                assert support == support_w == [0]
                assert w.tolist() == ww.tolist() == [1.0, 0.0]

    def test_stacked_qps_match_slate_by_slate(self):
        rng = np.random.default_rng(31)
        for m in (1, 2, 3):
            stack = rng.normal(size=(300, m, 3))
            stack *= np.exp(rng.uniform(-3.0, 3.0, (300, m, 1)))
            stack[::7, -1] = 2.0 * stack[::7, 0]  # duplicated up to a factor
            stack[1::7, -1] = -3.0 * stack[1::7, 0]  # opposed: infeasible
            stack[2::7, 0] = 0.0  # a null row
            stack[3::7] *= 2.0**-1000
            sizes, steepest, central = directions._stacked_qp_values(stack)
            for k, slate in enumerate(stack):
                assert np.array_equal(sizes[k], directions.row_norms(slate))
                assert steepest[k] == steepest_direction(slate)[1]
                if k % 7 == 2:
                    assert (steepest[k], central[k]) == (0.0, np.inf)
                    continue
                out = central_direction(slate)
                assert central[k] == out.norm  # inf when infeasible
            assert np.isinf(central[1::7]).all() == (m > 1)

    def test_central_matches_wolfe(self):
        rng = np.random.default_rng(29)
        kinds = {DIRECTION: 0, INFEASIBLE: 0}
        for case in range(600):
            slate = _two_row_slate(rng, case)
            # multipliers of 2**-1000 rows lie beyond the float range
            with np.errstate(over="ignore"):
                closed = central_direction(slate)
                wolfe = central_direction(slate, wolfe=True)
            kinds[wolfe.kind] += 1
            assert closed.kind == wolfe.kind, case
            if wolfe.kind == DIRECTION:
                err = np.linalg.norm(closed.vector - wolfe.vector)
                bound = 1e-14 * wolfe.norm * max(1.0, wolfe.norm)
                if case % 6 == 3:
                    # near-parallel unit rows are a vertex and the midpoint
                    # apart by 1e-16 in squared norm, far inside Wolfe's
                    # 1e-12 gap, which bounds the distance by sqrt(2e-12)
                    bound = math.sqrt(2e-12) * wolfe.norm**2
                assert err <= bound, case
                assert closed.norm_capped == wolfe.norm_capped
        assert min(kinds.values()) >= 100  # both verdicts are exercised

    def test_unit_rows_give_the_midpoint(self):
        out = central_direction(np.array([[3.0, 0.0], [0.0, 0.5]]))
        assert out.vector == pytest.approx([-1.0, -1.0], rel=1e-15)
        assert out.active_set == (0, 1)
        assert out.multipliers == pytest.approx([1.0 / 3.0, 2.0])
        same = central_direction(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert same.active_set == (0,)
        assert same.vector == pytest.approx(-np.array([1.0, 2.0]) / math.sqrt(5.0))


def _pair_stack(rng, n, count):
    """Seeded (count, 2, n) pairs: generic, opposed, identical, duplicated up
    to a positive factor, near-parallel (1e-8 apart) or nearly opposed; each
    with largest entry 2**-1070 (subnormal entries), 1 or 2**1020. Pairs
    whose subnormal scaling rounds a row to zero are dropped."""
    p = rng.normal(size=(count, n))
    q = rng.normal(size=(count, n))
    kind = np.arange(count) % 6
    factor = rng.uniform(0.1, 10.0, (count, 1))
    noise = 1e-8 * rng.normal(size=(count, n))
    q = np.where(kind[:, None] == 1, -factor * p, q)
    q = np.where(kind[:, None] == 2, p, q)
    q = np.where(kind[:, None] == 3, factor * p, q)
    q = np.where(kind[:, None] == 4, p + noise, q)
    q = np.where(kind[:, None] == 5, -p + noise, q)
    stack = np.stack([p, q], axis=1)
    stack /= np.abs(stack).max(axis=(1, 2), keepdims=True)
    stack = np.ldexp(stack, rng.choice([-1070, 0, 1020], (count, 1, 1)))
    return stack[np.abs(stack).max(axis=2).min(axis=1) > 0.0]


class TestPairMinNorm:
    """The single-pair closed form against the broadcast kernel, its
    reference, bit for bit."""

    def test_matches_the_broadcast_kernel(self):
        rng = np.random.default_rng(41)
        pairs = 0
        for n in range(1, 7):
            # the two stacks the QPs hand the kernel: the slate scaled by
            # 2**-e for its largest entry (steepest) and its unit rows
            # after the power-of-two prescale (central)
            steepest, central = _qp_stacks(_pair_stack(rng, n, 1000))
            for stack in (steepest, central):
                x_ref, w_ref = directions._segment_min_norm(stack[:, 0], stack[:, 1])
                for k, (p, q) in enumerate(stack):
                    x, w = directions._pair_min_norm(p, q)
                    assert type(w) is float
                    assert same_bits(np.asarray(x), x_ref[k]), (n, k)
                    assert same_bits(np.float64(w), w_ref[k]), (n, k)
                    pairs += 1
        assert pairs >= 10000

    def test_identical_rows_give_the_first_vertex(self):
        p = np.array([0.6, -0.8])
        for q in (p, p.copy()):
            x, w = directions._pair_min_norm(p, q)
            assert w == 0.0 and same_bits(x, p)
        x, w, support = directions._min_norm_point(np.stack([p, p]))
        assert support == [0] and w.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize(
        "slate, vertex",
        [([[1.0, 0.0], [1.0, 1e-8]], 0), ([[3.0, 4.0], [3.0, 4.0 + 1e-8]], 1)],
    )
    def test_near_parallel_unit_rows_keep_their_vertex(self, slate, vertex):
        # two unit rows about 1e-8 apart: rounding clips t to a vertex where
        # the midpoint is the exact answer; the single-pair form keeps the
        # vertex of the broadcast kernel
        scaled, norms, _ = directions._scaled_row_norms(np.array(slate))
        unit = scaled / norms[:, None]
        x_ref, w_ref = directions._segment_min_norm(unit[0], unit[1])
        x, w = directions._pair_min_norm(unit[0], unit[1])
        assert w == w_ref == float(vertex)
        assert same_bits(x, unit[vertex]) and same_bits(x_ref, unit[vertex])
        assert central_direction(np.array(slate)).active_set == (vertex,)


def _unit_rows(slate):
    """The unit rows the central QP hands its kernel."""
    scaled, norms, _ = directions._prescaled_rows(np.asarray(slate, dtype=float))
    return scaled / norms[:, None]


def _triangle_slate(rng, case):
    """Seeded 3-row slate: generic, in a common cone, with a row duplicated
    up to a positive factor, with the origin in the hull of the unit rows,
    or nearly so (at distance 1e-9 to 1e-3); rows of lengths e^-3 to e^3
    at scale 2**-1000, 1 or 2**1000."""
    n = int(rng.integers(1, 6))
    g = rng.normal(size=(3, n))
    kind = case % 5
    if kind == 1:
        g += 3.0 * rng.normal(size=n)
    elif kind == 2:
        g[2] = g[int(rng.integers(2))] * rng.choice([1.0, 3.0])
    elif kind == 3:
        g[2] = -rng.uniform(0.1, 10.0, 2) @ g[:2]
    elif kind == 4:
        g[2] = -g[0] - g[1] + 10.0 ** rng.uniform(-9.0, -3.0) * rng.normal(size=n)
    g *= np.exp(rng.uniform(-3.0, 3.0, (3, 1)))
    return np.ldexp(g, (-1000, 0, 1000)[(case // 5) % 3])


def _raw_slate(rng, m, case):
    """Seeded m-row slate of the steepest QP, n = 2 to 4: each row scaled by
    e^u with u in [-18, 3], the whole slate at scale 2**-1000, 1 or 2**1000,
    then by 2**-e to the largest entry in [0.5, 1), as the QP hands it to
    the kernel (an exact scaling)."""
    g = rng.normal(size=(m, int(rng.integers(2, 5))))
    g *= np.exp(rng.uniform(-18.0, 3.0, (m, 1)))
    g = np.ldexp(g, (-1000, 0, 1000)[case % 3])
    return np.ldexp(g, -np.frexp(np.abs(g).max())[1])


def _relative_error(x, exact):
    """||x - exact|| / ||exact||; None where the exact point is the origin."""
    size = math.sqrt(sum(v * v for v in exact))
    return None if size == 0.0 else exact_distance(x, exact) / size


class TestExactReference:
    """The closed forms against the exact min-norm point of the float rows,
    in rational arithmetic: the unit rows of the central QP and the raw
    rows of the steepest QP."""

    # about 45 units of rounding on the unit rows, set from the dtype
    BOUND = 1e-14

    def test_triangle_matches_the_exact_point(self):
        rng = np.random.default_rng(43)
        for case in range(300):
            unit = _unit_rows(_triangle_slate(rng, case))
            x, w = directions._triangle_min_norm(unit)
            assert exact_distance(x, exact_min_norm(unit)) <= self.BOUND, case
            assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-15)
            assert np.abs(w @ unit - x).max() <= 1e-15, case

    def test_near_duplicate_rows_where_wolfe_raises(self):
        # the third row is the first plus noise of 1e-12 to 1e-8: the Wolfe
        # iteration runs out on some of these slates; the closed form stays
        # within the bound of the exact point on every one
        rng = np.random.default_rng(53)
        raised = 0
        for case in range(300):
            g = rng.normal(size=(3, 3))
            g[2] = g[0] + 10.0 ** rng.uniform(-12.0, -8.0) * rng.normal(size=3)
            unit = _unit_rows(g)
            x, _ = directions._triangle_min_norm(unit)
            assert exact_distance(x, exact_min_norm(unit)) <= self.BOUND, case
            try:
                directions._wolfe_min_norm_point(unit)
            except DirectionSolverError:
                raised += 1
                assert central_direction(g).kind in (DIRECTION, INFEASIBLE)
        assert raised >= 30

    def test_near_parallel_pair_keeps_the_exact_vertex(self):
        # two unit rows 1e-8 apart: their float norms differ from 1 by about
        # the squared distance between them, so the exact minimizer of the
        # rows as rounded is often a vertex, not the midpoint. The closed
        # form finds it; the midpoint misses it by up to ||u1 - u2|| / 2
        rng = np.random.default_rng(59)
        vertices = 0
        for case in range(300):
            p = rng.normal(size=int(rng.integers(2, 6)))
            unit = _unit_rows([p, p + 1e-8 * rng.normal(size=len(p))])
            x, w = directions._pair_min_norm(unit[0], unit[1])
            exact = exact_min_norm(unit)
            assert exact_distance(x, exact) <= self.BOUND, case
            if w in (0.0, 1.0):
                vertices += 1
                midpoint = 0.5 * (unit[0] + unit[1])
                assert exact_distance(midpoint, exact) > 100.0 * self.BOUND, case
        assert vertices >= 100
        for slate in ([[1.0, 0.0], [1.0, 1e-8]], [[3.0, 4.0], [3.0, 4.0 + 1e-8]]):
            unit = _unit_rows(slate)
            x, _ = directions._pair_min_norm(unit[0], unit[1])
            assert exact_distance(x, exact_min_norm(unit)) == 0.0

    @pytest.mark.parametrize("m, bound", [(2, 1e-14), (3, 1e-6)])
    def test_raw_rows_of_very_different_lengths(self, m, bound):
        # rows e^-18 to e^3 long: the pair form works from the short row
        # when the midpoint would round x at the scale of the long one; the
        # triangle's affine solve on such a Gram keeps about 1e-7
        rng = np.random.default_rng(61 + m)
        compared = 0
        for case in range(300):
            pts = _raw_slate(rng, m, case)
            x, w, _ = directions._min_norm_point(pts)
            error = _relative_error(x, exact_min_norm(pts))
            if error is None:
                continue
            compared += 1
            assert error <= bound, case
            assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-15)
        assert compared >= 250, compared

    def test_near_duplicate_raw_rows_never_raise(self):
        # the steepest QP of three raw rows, the third the first plus noise
        # of 1e-12 to 1e-8: the triangle form returns the exact point to
        # rounding, where the Wolfe iteration raised on some of these
        rng = np.random.default_rng(67)
        for case in range(300):
            g = rng.normal(size=(3, 3))
            g[2] = g[0] + 10.0 ** rng.uniform(-12.0, -8.0) * rng.normal(size=3)
            v, _ = steepest_direction(g)
            e = np.frexp(np.abs(g).max())[1]
            x, exact = np.ldexp(-v, -e), exact_min_norm(np.ldexp(g, -e))
            assert _relative_error(x, exact) <= 1e-14, case


def _corral_stack(rng, m, n, count):
    """Seeded (count, m, n) stack of slates: generic, with a duplicated row
    (a singular corral system), an opposed pair, a collinear triple, in a
    common cone, or with the origin inside the hull (each where m has the
    rows for it); each at scale 2**-1000, 1 or 2**1000."""
    stack = rng.normal(size=(count, m, n))
    stack[1::6, -1] = stack[1::6, 0]
    if m >= 2:
        factor = -rng.uniform(0.1, 10.0, (len(stack[2::6]), 1))
        stack[2::6, 1] = factor * stack[2::6, 0]
        stack[5::6] -= stack[5::6].mean(axis=1, keepdims=True)
    if m >= 3:
        t = rng.uniform(-1.0, 2.0, (len(stack[3::6]), 1))
        stack[3::6, 2] = stack[3::6, 0] + t * (stack[3::6, 1] - stack[3::6, 0])
    stack[4::6] += 3.0 * rng.normal(size=(len(stack[4::6]), 1, n))
    return np.ldexp(stack, rng.choice([-1000, 0, 1000], (count, 1, 1)))


def _qp_stacks(grads):
    """The two stacks the field sampler hands the kernel: each slate scaled
    by 2**-e for its largest entry (steepest QP), and its unit rows after
    the power-of-two prescale (central QP)."""
    _, e = np.frexp(np.abs(grads).max(axis=(1, 2)))
    scaled, norms, _ = directions._scaled_row_norms(grads.reshape(-1, grads.shape[2]))
    unit = (scaled / norms[:, None]).reshape(grads.shape)
    return np.ldexp(grads, -e[:, None, None]), unit


def _per_slate(stack):
    x = np.empty((stack.shape[0], stack.shape[2]))
    for k, slate in enumerate(stack):
        x[k] = directions._min_norm_point(slate)[0]
    return x


class TestBatchedKernel:
    """The stack form of the kernel table against its single-slate form."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stacks_match_bit_for_bit(self, monkeypatch, n):
        # planar slates, as the field sampler has, and wider ones, whose
        # Wolfe corrals reach four and more vertices
        rng = np.random.default_rng(41 + n)
        singular = []
        single = directions._affine_minimizer

        def counted(sub):
            singular.append(len(sub))
            return single(sub)

        for m in range(1, 11):
            for stack in _qp_stacks(_corral_stack(rng, m, n, 240)):
                expected = _per_slate(stack)
                before = len(singular)
                with monkeypatch.context() as patch:
                    patch.setattr(directions, "_affine_minimizer", counted)
                    batched = directions._min_norm_points(stack)
                assert same_bits(batched, expected), m
                if m == 3:
                    # only the exactly singular bordered systems leave the
                    # batched triangle solve, not the whole stack
                    kkt = np.ones((len(stack), 4, 4))
                    kkt[:, :3, :3] = stack @ stack.transpose(0, 2, 1)
                    kkt[:, 3, 3] = 0.0
                    exact = np.count_nonzero(np.linalg.det(kkt) == 0.0)
                    assert len(singular) - before == exact < len(stack), n
        # duplicated rows made singular triangle systems, which the batched
        # solve hands to the single one
        assert len(singular) > 0

    @pytest.mark.parametrize("m", [4, 6])
    def test_quadratic_grids_match_bit_for_bit(self, m):
        for p in range(3):
            problem = problem_from_name(f"random-quadratic:{m},2,{p}")
            axis = np.linspace(-1.5, 1.5, 16)
            gx, gy = np.meshgrid(axis, axis)
            nodes = np.stack([gx.ravel(), gy.ravel()], 1)
            grads = gradients_at(problem, nodes, QueryLedger.for_objectives(m))
            for stack in _qp_stacks(grads):
                expected = _per_slate(stack)
                assert same_bits(directions._min_norm_points(stack), expected), p

    def test_empty_stack(self):
        for m in (1, 2, 3, 5):
            x = directions._min_norm_points(np.zeros((0, m, 4)))
            assert x.shape == (0, 4)


def _support(out):
    if out.kind == DIRECTION:
        return out.active_set
    return tuple(int(i) for i in np.flatnonzero(out.certificate))


def _warm_start_slate(rng, m, n, case):
    """Seeded slate; some in a common cone, some with a row duplicated up to
    a positive factor, some with a row and its negative (0 in the hull)."""
    g = rng.normal(size=(m, n))
    if case % 3 == 0:
        g += 2.0 * rng.normal(size=n)
    if case % 4 == 1 and m >= 2:
        g[rng.integers(m)] = g[0] * rng.choice([1.0, 3.0])
    if case % 5 == 2 and m >= 2:
        g[1] = -g[0]
    return g * np.exp(rng.uniform(-3.0, 3.0, (m, 1)))


class TestWarmStart:
    """The cold solve (no ``start``) is the reference for the warm one."""

    def test_warm_solves_match_the_cold_reference(self):
        rng = np.random.default_rng(3)
        kinds = {DIRECTION: 0, INFEASIBLE: 0}
        worst = 0.0
        for case in range(300):
            m, n = int(rng.integers(1, 13)), int(rng.integers(1, 21))
            slate = _warm_start_slate(rng, m, n, case)
            other = _warm_start_slate(rng, m, n, case + 1)
            cold = central_direction(slate)
            kinds[cold.kind] += 1
            subset = rng.permutation(m)[: int(rng.integers(1, m + 1))]
            starts = (subset, range(m), _support(central_direction(other)))
            for start in starts:
                warm = central_direction(slate, start=tuple(start))
                assert warm.kind == cold.kind, (case, tuple(start))
                if cold.kind == DIRECTION:
                    err = np.linalg.norm(warm.vector - cold.vector)
                    worst = max(worst, err / (cold.norm * max(1.0, cold.norm)))
        assert worst <= 1e-12
        assert min(kinds.values()) >= 50  # both verdicts are exercised

    def test_start_holding_a_duplicated_row(self):
        # two copies of a row make the start corral affinely dependent;
        # the solve must neither cycle to its cap nor change the answer
        rng = np.random.default_rng(11)
        for _ in range(40):
            slate = rng.normal(size=(10, 12))
            slate[6] = 3.0 * slate[0]
            cold = central_direction(slate)
            start = tuple(sorted({0, 6, *rng.choice(10, 3, replace=False)}))
            warm = central_direction(slate, start=start)
            assert warm.kind == cold.kind
            if cold.kind == DIRECTION:
                err = np.linalg.norm(warm.vector - cold.vector)
                assert err <= 1e-12 * cold.norm * max(1.0, cold.norm)


def _wolfe_both_ways(pts, start):
    """Wolfe's answer from ``start`` with the whole-slate pass, the generic
    loop's answer with that pass refusing, and the pass's verdicts (True
    when it returned). A DirectionSolverError answers as its message."""
    real, verdicts = directions._whole_corral, []

    def spy(*args):
        out = real(*args)
        verdicts.append(out is not None)
        return out

    def solve():
        try:
            return directions._wolfe_min_norm_point(pts, start)
        except DirectionSolverError as err:
            return str(err)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(directions, "_whole_corral", spy)
        fast = solve()
        mp.setattr(directions, "_whole_corral", lambda *args: None)
        return fast, solve(), verdicts


def _same_answer(fast, loop):
    if isinstance(loop, str):
        return fast == loop
    (x, w, support), (x0, w0, support0) = fast, loop
    return same_bits(x, x0) and same_bits(w, w0) and support == support0


class TestWholeCorral:
    """The warm whole-slate pass is the generic loop's first pass, bit for
    bit, and every other corral goes on to that loop."""

    def test_warm_start_slates_match_the_loop(self):
        rng = np.random.default_rng(3)
        taken = 0
        for case in range(300):
            m, n = int(rng.integers(1, 13)), int(rng.integers(1, 21))
            unit = _unit_rows(_warm_start_slate(rng, m, n, case))
            subset = rng.permutation(m)[: int(rng.integers(1, m + 1))]
            for start in (range(m), tuple(subset)):
                fast, loop, verdicts = _wolfe_both_ways(unit, start)
                assert _same_answer(fast, loop), (case, tuple(start))
                taken += sum(verdicts)
        assert taken >= 100

    def test_a_run_trajectory_matches_the_loop(self, monkeypatch):
        calls = []
        real = directions._wolfe_min_norm_point

        def spy(pts, start=()):
            calls.append((pts.copy(), tuple(start)))
            return real(pts, start)

        monkeypatch.setattr(directions, "_wolfe_min_norm_point", spy)
        problem = problem_from_name("random-quadratic:10,20,0")
        records = solvers.run_incremental_central_armijo(
            problem, np.zeros(20), max_iter=500
        )
        monkeypatch.undo()
        assert len(records) == 501 and len(calls) == 500
        taken = []
        for pts, start in calls:
            fast, loop, verdicts = _wolfe_both_ways(pts, start)
            assert _same_answer(fast, loop)
            taken += verdicts
        # the pass answers most warm solves, and some go on to the loop
        assert len(calls) > sum(taken) > len(calls) // 2

    def test_a_pruned_vertex_skips_the_pass(self):
        rng = np.random.default_rng(5)
        slate = rng.normal(size=(6, 8))
        slate[4] = 3.0 * slate[1]  # the same unit row twice
        fast, loop, verdicts = _wolfe_both_ways(_unit_rows(slate), range(6))
        assert verdicts == [] and _same_answer(fast, loop)
        assert tuple(fast[2]) == central_direction(slate).active_set

    def test_a_negative_affine_weight_leaves_the_pass(self):
        # the origin, the affine hull's min-norm point, is outside the triangle
        pts = np.array([[1.0, 0.0], [2.0, 1.0], [2.0, -1.0]])
        assert directions._affine_minimizer(pts @ pts.T).min() < 0.0
        fast, loop, verdicts = _wolfe_both_ways(pts, range(3))
        assert verdicts == [False] and _same_answer(fast, loop)
        assert fast[2] == [0]

    def test_a_failed_optimality_test_leaves_the_pass(self):
        # points of norm about 300 round the optimality test past its
        # absolute 1e-12 gap; the loop then stalls on a corral vertex
        rng = np.random.default_rng(0)
        while True:
            pts = (rng.normal(size=(3, 5)) + 3.0 * rng.normal(size=5)) * 100.0
            if directions._affine_minimizer(pts @ pts.T).min() >= 0.0:
                fast, loop, verdicts = _wolfe_both_ways(pts, range(3))
                if verdicts == [False]:
                    break
        assert _same_answer(fast, loop) and "stalled" in fast


class TestLapackKernels:
    """``directions._lapack`` runs the gufuncs of ``np.linalg.solve`` and
    ``np.linalg.cholesky`` directly, with their results and errors."""

    @pytest.mark.parametrize("name, types", [("solve1", "dd->d"), ("cholesky_lo", "d->d")])
    def test_numpy_has_the_gufunc(self, name, types):
        from numpy.linalg import _umath_linalg

        assert types in getattr(_umath_linalg, name).types

    def test_same_bits_as_np_linalg(self, rng):
        from numpy.linalg import _umath_linalg

        for _ in range(300):
            k = int(rng.integers(1, 13))
            a = rng.normal(size=(k, k)) * np.exp(rng.uniform(-5.0, 5.0))
            b = rng.normal(size=k)
            got = directions._lapack(_umath_linalg.solve1, "Singular matrix", a, b)
            assert same_bits(got, np.linalg.solve(a, b))
            spd = a @ a.T + 1e-3 * np.eye(k)
            got = directions._lapack(_umath_linalg.cholesky_lo, "not PD", spd)
            assert same_bits(got, np.linalg.cholesky(spd))

    def test_an_exactly_singular_system_reaches_least_squares(self, monkeypatch):
        gram = np.ones((3, 3))  # three equal unit rows: a singular bordered system
        kkt = np.ones((4, 4))
        kkt[3, 3] = 0.0
        rhs = np.array([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(kkt, rhs)
        # the weights as np.linalg.solve's LinAlgError left them
        expected = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:3]
        total = float(expected.sum())
        if abs(total - 1.0) > 1e-8 and abs(total) > 1e-300:
            expected = expected / total
        calls = []
        real = np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta = directions._affine_minimizer(gram)
        assert calls == [1] and same_bits(beta, expected)

    def test_a_lifted_gram_that_is_not_positive_definite_raises(self):
        from numpy.linalg import _umath_linalg

        lifted = np.array([[1.0, 2.0], [2.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                directions._lapack(
                    _umath_linalg.cholesky_lo, "Matrix is not positive definite", lifted
                )


class TestSimplexProjection:
    def test_fixed_points(self):
        assert project_rows_to_simplex(np.array([0.2, 0.3, 0.5])) == pytest.approx(
            [0.2, 0.3, 0.5]
        )
        assert project_rows_to_simplex(np.array([1.0, 0.0])) == pytest.approx([1.0, 0.0])

    def test_worked_example(self):
        assert project_rows_to_simplex(np.array([2.0, 0.0])) == pytest.approx([1.0, 0.0])
        assert project_rows_to_simplex(np.array([0.6, 0.6])) == pytest.approx([0.5, 0.5])

    def test_is_euclidean_projection(self, rng):
        # compare against a dense sample of simplex points
        for _ in range(10):
            v = rng.normal(size=3) * 2.0
            p = project_rows_to_simplex(v)
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0)
            w = rng.dirichlet(np.ones(3), size=500)
            dists = np.linalg.norm(w - v[None, :], axis=1)
            assert np.linalg.norm(p - v) <= dists.min() + 1e-9


class TestDescentMargin:
    def test_worked_values(self):
        slate = np.array([[1.0, 0.0], [0.0, 1.0]])
        u = np.array([-1.0, -1.0]) / SQRT2
        assert descent_margin(slate, u) == pytest.approx(1.0 / SQRT2)
        assert descent_margin(slate, np.array([1.0, 0.0])) == pytest.approx(-1.0)

    def test_central_direction_maximizes_margin(self, rng):
        for _ in range(20):
            slate = random_slate(rng, 3, 3)
            out = central_direction(slate)
            if out.kind != DIRECTION:
                continue
            u_star = out.vector / out.norm
            best = descent_margin(slate, u_star)
            for _ in range(50):
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                assert descent_margin(slate, u) <= best + 1e-9

    def test_rejects_null_gradient(self):
        with pytest.raises(ValueError):
            descent_margin(np.array([[0.0, 0.0]]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            descent_margin(np.array([[np.inf, 0.0]]), np.array([1.0, 0.0]))

    def test_tiny_and_huge_gradients_keep_their_cone(self, rng):
        for _ in range(10):
            slate = random_slate(rng, 3, 3)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            margin = descent_margin(slate, u)
            for k in (-1000, 1000):
                assert descent_margin(np.ldexp(slate, k), u) == margin


class TestGradientSlate:
    def test_random_unit_rows(self):
        slate = GradientSlate.random_unit(5, 3, seed=42)
        assert slate.vectors.shape == (5, 3)
        assert np.linalg.norm(slate.vectors, axis=1) == pytest.approx(np.ones(5))
        assert not slate.refreshed.any()
        again = GradientSlate.random_unit(5, 3, seed=42)
        assert np.array_equal(slate.vectors, again.vectors)
        other = GradientSlate.random_unit(5, 3, seed=43)
        assert not np.array_equal(slate.vectors, other.vectors)

    def test_update_and_nonnull(self):
        slate = GradientSlate.from_gradients(np.eye(3))
        assert slate.all_nonnull
        assert slate.refreshed.all()
        slate.update(1, np.array([2.0, 2.0, 0.0]))
        assert slate.vectors[1] == pytest.approx([2.0, 2.0, 0.0])
        assert directions.row_norms(slate.vectors)[1] == pytest.approx(2.0 * SQRT2)
        slate.update(0, np.zeros(3))
        assert not slate.all_nonnull

    def test_tiny_rows_are_not_null(self):
        # the raw norm of (1e-300, 1e-300) underflows to 0; the row is not zero
        slate = GradientSlate.from_gradients(np.array([[1e-300, 1e-300], [0.0, 1.0]]))
        assert directions.row_norms(slate.vectors)[0] > 0.0
        assert slate.all_nonnull

    def test_from_gradients_copies(self):
        raw = np.eye(2)
        slate = GradientSlate.from_gradients(raw)
        raw[0, 0] = 99.0
        assert slate.vectors[0, 0] == 1.0


class TestRowNorms:
    def test_matches_the_raw_norm_in_the_normal_range(self, rng):
        for _ in range(50):
            rows = random_slate(rng, 5, 7) * np.exp(rng.uniform(-20, 20, (5, 1)))
            assert np.array_equal(
                directions.row_norms(rows), np.linalg.norm(rows, axis=1)
            )

    def test_tiny_and_huge_rows_keep_their_size(self):
        norms = directions.row_norms(
            np.array([[3e-300, 4e-300], [3e300, 4e300], [0.0, 5e-320]])
        )
        assert norms[:2] == pytest.approx([5e-300, 5e300], rel=1e-15)
        assert norms[2] == 5e-320  # subnormal entries, exact
        # the raw norm underflows and overflows on the same rows
        with np.errstate(over="ignore"):
            raw = np.linalg.norm(np.array([[3e-300, 4e-300], [3e300, 4e300]]), axis=1)
        assert raw.tolist() == [0.0, math.inf]

    def test_power_of_two_scaling_is_exact(self, rng):
        rows = random_slate(rng, 4, 3)
        base = directions.row_norms(rows)
        for k in (-1000, -1, 1, 1000):
            assert np.array_equal(
                directions.row_norms(np.ldexp(rows, k)), np.ldexp(base, k)
            )

    def test_zero_row_is_exactly_zero(self):
        norms = directions.row_norms(np.array([[0.0, 0.0], [0.0, -0.0], [1e-310, 0.0]]))
        assert norms.tolist() == [0.0, 0.0, 1e-310]

    def test_non_finite_rows_raise(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                directions.row_norms(np.array([[1.0, bad], [1.0, 0.0]]))

    def test_prescaled_rows_shares_the_norms(self, rng):
        rows = random_slate(rng, 3, 4)
        scaled, norms, exps = directions._prescaled_rows(rows)
        assert np.array_equal(np.ldexp(scaled, exps[:, None]), rows)
        assert np.array_equal(np.ldexp(norms, exps), directions.row_norms(rows))
        with pytest.raises(ValueError, match="null gradient row"):
            directions._prescaled_rows(np.array([[1.0, 2.0], [0.0, 0.0]]))


def eager_certificate(slate, start=(), wolfe=False):
    """(multipliers, kkt_residual) of ``central_direction(slate, start,
    wolfe)`` from the certificate formulas written out, formed at once from
    the slate as given."""
    scaled, norms, exps = directions._prescaled_rows(slate)
    x, mu, _ = directions._min_norm_point(scaled / norms[:, None], start, wolfe)
    delta = math.sqrt(x @ x)
    if delta <= directions.QP_TOL:
        return None, delta
    delta2 = delta * delta
    v = x / -delta2
    active = (mu > 0.0).nonzero()[0]
    a = mu[active] / (delta2 * norms[active])
    slack = scaled @ v + norms
    with np.errstate(over="ignore"):
        lambdas = np.ldexp(a, -exps[active])
        primal = max(float(np.ldexp(slack, exps).max()), 0.0)
    r = v + scaled[active].T @ a
    complementarity = float(np.abs(a * slack[active]).max())
    return lambdas, max(primal, math.sqrt(r @ r), complementarity)


def same_certificate(out, expected):
    lambdas, residual = expected
    if lambdas is None:
        assert out.multipliers is None
    else:
        assert same_bits(out.multipliers, lambdas)
    assert same_bits(np.float64(out.kkt_residual), np.float64(residual))


def slate_norms(out, m):
    return np.array([out.slate_norm(i) for i in range(m)])


class TestDeferredCertificate:
    """``multipliers``, ``kkt_residual`` and ``slate_norm`` are formed on
    first read, from arrays the outcome owns."""

    def test_overwriting_the_slate_changes_nothing(self, rng):
        kinds = set()
        for case in range(120):
            m, n = (3, 5) if case % 2 else (5, 2)
            slate = GradientSlate.from_gradients(random_slate(rng, m, n))
            before = slate.vectors.copy()
            out = central_direction(slate.vectors, start=range(m) if case % 3 else ())
            kinds.add(out.kind)
            # the run loop's in-place refresh of every row, before any read
            for i in range(m):
                slate.update(i, rng.normal(size=n))
            start = range(m) if case % 3 else ()
            same_certificate(out, eager_certificate(before, start))
            assert same_bits(slate_norms(out, m), directions.row_norms(before))
        assert kinds == {DIRECTION, INFEASIBLE}

    def test_every_solve_of_a_run_matches_the_eager_formulas(self, monkeypatch):
        solves = []
        real = solvers.central_direction

        def spy(slate, **kwargs):
            out = real(slate, **kwargs)
            solves.append((np.array(slate), kwargs, out))
            return out

        monkeypatch.setattr(solvers, "central_direction", spy)
        problem = problem_from_name("random-quadratic:10,20,0")
        records = solvers.run_incremental_central_armijo(
            problem, np.zeros(20), max_iter=300
        )
        assert len(records) == 301 and len(solves) == 300
        # read only now, after the run has overwritten its slate 300 times
        for slate, kwargs, out in solves:
            same_certificate(out, eager_certificate(slate, **kwargs))
            assert same_bits(slate_norms(out, len(slate)), directions.row_norms(slate))

    def test_slate_norms_are_row_norms_bit_for_bit(self, rng):
        for _ in range(300):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            slate = np.ldexp(rng.normal(size=(m, n)), rng.integers(-1070, 1021, (m, 1)))
            if not np.abs(slate).max(axis=1).all():
                continue
            with np.errstate(over="ignore"):
                try:
                    out = central_direction(slate)
                except DirectionSolverError:
                    continue
                expected = directions.row_norms(slate)
            assert same_bits(slate_norms(out, m), expected)

    def test_an_overflowing_slate_norm_reads_inf(self):
        slate = np.array([[1.5e308, 1.5e308], [1.0, -1.0]])
        out = central_direction(slate)
        with np.errstate(over="ignore"):
            expected = directions.row_norms(slate)
        assert expected[0] == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bits(slate_norms(out, 2), expected)

    def test_an_outcome_built_without_a_solve_reads_no_certificate(self):
        out = directions.DirectionOutcome(kind=DIRECTION, vector=np.ones(2), norm=1.0)
        assert out.multipliers is None and math.isnan(out.kkt_residual)
