"""Direction solvers: the central QP, the regularized min-max, helpers."""

import math

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
    project_to_simplex,
    steepest_direction,
)
from modescent import QueryLedger, directions, gradients_at, problem_from_name
from modescent.oracle import steepest_dual_reference

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
            central_direction(np.array([[1.0, 0.0]]), tol=0.0)
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

    def test_norm_cap_flags_without_failing(self):
        slate = np.array([[1.0, 0.0], [-1.0, 2e-2]])
        out = central_direction(slate, norm_cap=10.0)
        assert out.kind == DIRECTION
        assert out.norm_capped
        out_loose = central_direction(slate)
        assert not out_loose.norm_capped
        assert out_loose.norm > 10.0


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
            directions._min_norm_point(np.eye(3), (0, 1, 2))


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


def _corral_stack(rng, m, n, count):
    """Seeded (count, m, n) stack of slates: generic, with a duplicated row
    (a singular corral system), an opposed pair, a collinear triple, in a
    common cone, or with the origin inside the hull; each at scale 2**-1000,
    1 or 2**1000."""
    stack = rng.normal(size=(count, m, n))
    stack[1::6, -1] = stack[1::6, 0]
    stack[2::6, 1] = -rng.uniform(0.1, 10.0, (len(stack[2::6]), 1)) * stack[2::6, 0]
    t = rng.uniform(-1.0, 2.0, (len(stack[3::6]), 1))
    stack[3::6, 2] = stack[3::6, 0] + t * (stack[3::6, 1] - stack[3::6, 0])
    stack[4::6] += 3.0 * rng.normal(size=(len(stack[4::6]), 1, n))
    stack[5::6] -= stack[5::6].mean(axis=1, keepdims=True)
    return np.ldexp(stack, rng.choice([-1000, 0, 1000], (count, 1, 1)))


def _qp_stacks(grads):
    """The two stacks the field sampler hands the kernel: each slate scaled
    by 2**-e for its largest entry (steepest QP), and its unit rows after
    the power-of-two prescale (central QP)."""
    _, e = np.frexp(np.abs(grads).max(axis=(1, 2)))
    scaled, norms, _ = directions._scaled_row_norms(grads.reshape(-1, grads.shape[2]))
    unit = (scaled / norms[:, None]).reshape(grads.shape)
    return np.ldexp(grads, -e[:, None, None]), unit


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _per_slate(stack):
    x = np.empty((stack.shape[0], stack.shape[2]))
    for k, slate in enumerate(stack):
        x[k] = directions._wolfe_min_norm_point(slate)[0]
    return x


def _cycling_weights(sub):
    # weights that drop the vertex just added: every major step re-adds it
    beta = np.zeros(sub.shape[-1])
    beta[0] += 2.0
    beta[-1] -= 1.0
    return beta


class TestBatchedCorral:
    """The batched m >= 3 corral against the per-slate Wolfe iteration."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stacks_match_bit_for_bit(self, monkeypatch, n):
        # planar slates, as the field sampler has, and wider ones, whose
        # corrals reach four and more vertices
        rng = np.random.default_rng(41 + n)
        singular = []
        single = directions._affine_minimizer

        def counted(sub):
            singular.append(len(sub))
            return single(sub)

        monkeypatch.setattr(directions, "_affine_minimizer", counted)
        for m in range(3, 11):
            for stack in _qp_stacks(_corral_stack(rng, m, n, 240)):
                expected = _per_slate(stack)
                assert _same_bits(directions._min_norm_points(stack), expected), m
        # duplicated rows made singular systems, solved by the fallback
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
                assert _same_bits(directions._min_norm_points(stack), expected), p

    def test_empty_stack(self):
        for m in (1, 3, 5):
            x = directions._min_norm_points(np.zeros((0, m, 4)))
            assert x.shape == (0, 4)

    @pytest.mark.parametrize(
        "batched, single, match",
        [
            (
                lambda subs: np.full(subs.shape[:2], np.nan),
                lambda sub: np.full(len(sub), np.nan),
                "corral loop",
            ),
            (
                lambda subs: np.tile(np.eye(subs.shape[1])[0], (len(subs), 1)),
                lambda sub: np.eye(len(sub))[0],
                "stalled",
            ),
            (
                lambda subs: np.array([_cycling_weights(sub) for sub in subs]),
                _cycling_weights,
                "cap exceeded",
            ),
        ],
        ids=["corral-loop", "stalled", "cap"],
    )
    def test_fails_by_name_as_the_per_slate_iteration(
        self, monkeypatch, batched, single, match
    ):
        # every slate fails; the lowest one's error is the one raised, as
        # in a slate-by-slate loop (the second slate's gap is 4x larger)
        monkeypatch.setattr(directions, "_affine_minimizers", batched)
        monkeypatch.setattr(directions, "_affine_minimizer", single)
        stack = np.stack([np.eye(3), 2.0 * np.eye(3)])
        with pytest.raises(DirectionSolverError, match=match) as got:
            directions._min_norm_points(stack)
        with pytest.raises(DirectionSolverError, match=match) as want:
            directions._wolfe_min_norm_point(stack[0])
        assert str(got.value) == str(want.value)
        assert got.value.best_residual == want.value.best_residual


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


class TestSimplexProjection:
    def test_fixed_points(self):
        assert project_to_simplex(np.array([0.2, 0.3, 0.5])) == pytest.approx(
            [0.2, 0.3, 0.5]
        )
        assert project_to_simplex(np.array([1.0, 0.0])) == pytest.approx([1.0, 0.0])

    def test_worked_example(self):
        assert project_to_simplex(np.array([2.0, 0.0])) == pytest.approx([1.0, 0.0])
        assert project_to_simplex(np.array([0.6, 0.6])) == pytest.approx([0.5, 0.5])

    def test_is_euclidean_projection(self, rng):
        # compare against a dense sample of simplex points
        for _ in range(10):
            v = rng.normal(size=3) * 2.0
            p = project_to_simplex(v)
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
