"""Problem factories, query accounting, and the validation harness."""

import dataclasses
import math

import numpy as np
import pytest

from modescent import (
    MultiObjectiveProblem,
    QueryLedger,
    evaluate,
    evaluate_all,
    gradient,
    gradient_all,
    gradients_at,
    make_figure1_problem,
    make_random_quadratic_family,
    make_scaled_variant,
    make_unbounded_linear_problem,
    problem_from_name,
    validate_problem,
    values_and_gradients,
)
from modescent import problems
from reference import per_objective, same_bits


class TestFigure1:
    def test_worked_values(self, fig1):
        # f1 = (x+2)^2 + 3 y^2, f2 = 3 x^2 + (y+2)^2
        ledger = QueryLedger.for_objectives(2)
        assert evaluate(fig1, 0, np.zeros(2), ledger) == pytest.approx(4.0)
        assert evaluate(fig1, 1, np.zeros(2), ledger) == pytest.approx(4.0)
        assert evaluate(fig1, 0, np.array([-2.0, 0.0]), ledger) == 0.0
        assert evaluate(fig1, 1, np.array([-2.0, 0.0]), ledger) == pytest.approx(16.0)
        vals = evaluate_all(fig1, np.array([1.0, -1.0]), ledger)
        assert vals == pytest.approx([12.0, 4.0])

    def test_worked_gradients(self, fig1):
        ledger = QueryLedger.for_objectives(2)
        g = gradient_all(fig1, np.zeros(2), ledger)
        assert g[0] == pytest.approx([4.0, 0.0])
        assert g[1] == pytest.approx([0.0, 4.0])
        # each minimizer kills its own gradient only
        assert gradient(fig1, 0, np.array([-2.0, 0.0]), ledger) == pytest.approx(
            [0.0, 0.0]
        )
        assert np.linalg.norm(
            gradient(fig1, 1, np.array([-2.0, 0.0]), ledger)
        ) > 0

    def test_metadata(self, fig1):
        assert fig1.dimension == 2
        assert fig1.num_objectives == 2
        assert fig1.name == "figure1"
        assert fig1.lipschitz == (6.0, 6.0)
        assert fig1.max_lipschitz == 6.0
        assert fig1.lower_bound == 0.0

    def test_gradient_matches_finite_difference(self, fig1, rng):
        for _ in range(5):
            x = rng.uniform(-3.0, 3.0, size=2)
            ledger = QueryLedger.for_objectives(2)
            for i in range(2):
                g = gradient(fig1, i, x, ledger)
                h = 1e-6
                for d in range(2):
                    e = np.zeros(2)
                    e[d] = h
                    fd = (
                        evaluate(fig1, i, x + e, ledger)
                        - evaluate(fig1, i, x - e, ledger)
                    ) / (2 * h)
                    assert g[d] == pytest.approx(fd, abs=1e-5)


class TestScaledVariant:
    def test_scales_values_and_gradients(self, fig1):
        scaled = make_scaled_variant(fig1, (1.0, 10.0))
        ledger = QueryLedger.for_objectives(2)
        assert evaluate(scaled, 0, np.zeros(2), ledger) == pytest.approx(4.0)
        assert evaluate(scaled, 1, np.zeros(2), ledger) == pytest.approx(40.0)
        assert gradient(scaled, 1, np.zeros(2), ledger) == pytest.approx([0.0, 40.0])
        assert scaled.lipschitz == (6.0, 60.0)
        assert scaled.name == "figure1-scaled"

    def test_first_objective_scale(self, fig1):
        scaled = make_scaled_variant(fig1, (2.0, 1.0))
        ledger = QueryLedger.for_objectives(2)
        assert gradient(scaled, 0, np.zeros(2), ledger) == pytest.approx([8.0, 0.0])

    def test_identity_scaling_is_identity(self, fig1, rng):
        scaled = make_scaled_variant(fig1, (1.0, 1.0))
        ledger = QueryLedger.for_objectives(2)
        for _ in range(4):
            x = rng.uniform(-2.0, 2.0, size=2)
            assert evaluate_all(fig1, x, ledger) == pytest.approx(
                evaluate_all(scaled, x, ledger)
            )

    def test_rejects_bad_scales(self, fig1):
        with pytest.raises(ValueError):
            make_scaled_variant(fig1, (1.0,))
        # a NaN factor used to pass a k <= 0 test and build a problem with a
        # NaN Lipschitz constant and lower bound
        for k in (0.0, -2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="scale factors must be finite"):
                make_scaled_variant(fig1, (1.0, k))


class TestRandomQuadraticFamily:
    def test_deterministic_by_seed(self, rng):
        a = make_random_quadratic_family(4, 3, seed=11)
        b = make_random_quadratic_family(4, 3, seed=11)
        c = make_random_quadratic_family(4, 3, seed=12)
        ledger = QueryLedger.for_objectives(4)
        x = rng.uniform(-2.0, 2.0, size=3)
        va = evaluate_all(a, x, ledger)
        assert va == pytest.approx(evaluate_all(b, x, ledger))
        assert not np.allclose(va, evaluate_all(c, x, ledger))

    def test_each_objective_is_a_centered_quadratic(self, quad_family):
        """Recover A and c from gradient probes and check f(c) = 0.

        For f(x) = (x - c)^T A (x - c) the gradient is linear, so A comes
        out of differences of gradient queries and c from solving the
        resulting system. The reconstructed minimum value must be ~0 and
        the declared Lipschitz constant must equal 2 * lambda_max(A).
        """
        prob = quad_family
        n = prob.dimension
        ledger = QueryLedger.for_objectives(prob.num_objectives)
        for i in range(prob.num_objectives):
            g0 = gradient(prob, i, np.zeros(n), ledger)
            cols = []
            for d in range(n):
                e = np.zeros(n)
                e[d] = 1.0
                cols.append(0.5 * (gradient(prob, i, e, ledger) - g0))
            A = np.stack(cols, axis=1)
            assert np.allclose(A, A.T, atol=1e-9)
            eigs = np.linalg.eigvalsh(A)
            assert eigs.min() >= 0.5 - 1e-9
            assert eigs.max() <= 5.0 + 1e-9
            center = -0.5 * np.linalg.solve(A, g0)
            assert evaluate(prob, i, center, ledger) == pytest.approx(0.0, abs=1e-18)
            assert np.linalg.norm(gradient(prob, i, center, ledger)) < 1e-12
            assert prob.lipschitz[i] == pytest.approx(2.0 * eigs.max())

    def test_nonnegative_with_zero_lower_bound(self, quad_family, rng):
        assert quad_family.lower_bound == 0.0
        ledger = QueryLedger.for_objectives(quad_family.num_objectives)
        for _ in range(16):
            x = rng.uniform(-4.0, 4.0, size=quad_family.dimension)
            assert evaluate_all(quad_family, x, ledger).min() >= 0.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            make_random_quadratic_family(0, 3, seed=1)
        with pytest.raises(ValueError):
            make_random_quadratic_family(2, 0, seed=1)


class TestUnboundedLinear:
    def test_constant_gradients_zero_lipschitz(self, rng):
        prob = make_unbounded_linear_problem(3, 4, seed=5)
        assert prob.lower_bound is None
        assert prob.lipschitz == (0.0, 0.0, 0.0)
        ledger = QueryLedger.for_objectives(3)
        x = rng.uniform(-2.0, 2.0, size=4)
        g_at_x = gradient_all(prob, x, ledger)
        g_at_0 = gradient_all(prob, np.zeros(4), ledger)
        assert np.allclose(g_at_x, g_at_0)
        # linearity: f(x) - f(0) = g . x, exactly
        f_x = evaluate_all(prob, x, ledger)
        f_0 = evaluate_all(prob, np.zeros(4), ledger)
        assert f_x - f_0 == pytest.approx(g_at_0 @ x)

    def test_common_descent_direction_exists(self):
        # the slate is built to leave room for joint decline
        prob = make_unbounded_linear_problem(4, 3, seed=9)
        ledger = QueryLedger.for_objectives(4)
        grads = gradient_all(prob, np.zeros(3), ledger)
        mean = grads.mean(axis=0)
        assert (grads @ (-mean)).max() < 0.0


class TestQueryLedger:
    def test_starts_empty_and_ticks_exactly(self, fig1):
        ledger = QueryLedger.for_objectives(2)
        assert ledger.function_evals == 0
        assert ledger.gradient_evals == 0
        evaluate(fig1, 0, np.zeros(2), ledger)
        evaluate(fig1, 0, np.zeros(2), ledger)
        gradient(fig1, 1, np.zeros(2), ledger)
        assert list(ledger.function_counts) == [2, 0]
        assert list(ledger.gradient_counts) == [0, 1]
        assert ledger.function_evals == 2
        assert ledger.gradient_evals == 1

    def test_all_variants_tick_every_objective(self, fig1):
        ledger = QueryLedger.for_objectives(2)
        evaluate_all(fig1, np.zeros(2), ledger)
        gradient_all(fig1, np.zeros(2), ledger)
        assert list(ledger.function_counts) == [1, 1]
        assert list(ledger.gradient_counts) == [1, 1]


    def test_totals_are_the_per_objective_sums(self):
        problem = problem_from_name("random-quadratic:3,2,0")
        pts = np.random.default_rng(7).normal(size=(5, 2))
        ledger = QueryLedger.for_objectives(3)
        evaluate(problem, 2, pts[0], ledger)
        gradient(problem, 0, pts[1], ledger)
        values_and_gradients(problem, pts, ledger)
        values_and_gradients(problem, pts[0], ledger)
        gradients_at(problem, pts, ledger)
        problems.line_query(problem, pts[0], pts[1], ledger)(1, 0.5)
        problems.gradient_rows(problem, (1, 1), pts[2], ledger)
        assert ledger.function_counts.tolist() == [6, 7, 7]
        assert ledger.gradient_counts.tolist() == [12, 13, 11]
        assert ledger.function_evals == sum(ledger.function_counts.tolist()) == 20
        assert ledger.gradient_evals == sum(ledger.gradient_counts.tolist()) == 36

    def test_counts_read_as_int64_arrays(self):
        ledger = QueryLedger(np.array([4, 0]), [1, 2])
        ledger.tick_function(1)
        for counts, expected in ((ledger.function_counts, [4, 1]),
                                 (ledger.gradient_counts, [1, 2])):
            assert counts.dtype == np.int64 and counts.shape == (2,)
            assert counts.tolist() == expected
            assert all(type(c) is int for c in counts.tolist())
        assert (ledger.function_evals, ledger.gradient_evals) == (5, 3)

class TestValidation:
    def test_accepts_stock_problems(self, fig1, quad_family):
        validate_problem(fig1)
        validate_problem(quad_family)
        validate_problem(make_unbounded_linear_problem(2, 2, seed=3))

    def test_catches_lipschitz_violation(self):
        # gradient slope 3 against a declared constant of 2
        bad = MultiObjectiveProblem(
            dimension=1,
            objectives=(lambda x: float(1.5 * x[0] ** 2),),
            gradient_fns=(lambda x: np.array([3.0 * x[0]]),),
            lipschitz=(2.0,),
            name="bad-lipschitz",
        )
        with pytest.raises(ValueError, match="objective 0 violates its Lipschitz"):
            validate_problem(bad)

    def test_catches_lower_bound_violation(self):
        bad = MultiObjectiveProblem(
            dimension=1,
            objectives=(lambda x: float(x[0]),),
            gradient_fns=(lambda x: np.array([1.0]),),
            lower_bound=0.0,
            name="bad-bound",
        )
        with pytest.raises(ValueError, match="objective 0 dips below its stated"):
            validate_problem(bad)

    @pytest.mark.parametrize(
        "data, message",
        [
            (dict(lipschitz=(math.nan,)), "Lipschitz constants must be finite"),
            (dict(lipschitz=(math.inf,)), "Lipschitz constants must be finite"),
            (dict(lower_bound=math.nan), "lower bound must not be NaN"),
        ],
        ids=["nan-lipschitz", "inf-lipschitz", "nan-bound"],
    )
    def test_rejects_bad_numbers_by_name(self, data, message):
        with pytest.raises(ValueError, match=message):
            MultiObjectiveProblem(
                dimension=1,
                objectives=(lambda x: float(x[0] ** 2),),
                gradient_fns=(lambda x: 2.0 * x,),
                **data,
            )

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            MultiObjectiveProblem(dimension=0, objectives=(), gradient_fns=())
        with pytest.raises(ValueError):
            MultiObjectiveProblem(
                dimension=1,
                objectives=(lambda x: 0.0,),
                gradient_fns=(),
            )
        with pytest.raises(ValueError):
            MultiObjectiveProblem(
                dimension=1,
                objectives=(lambda x: 0.0,),
                gradient_fns=(lambda x: np.zeros(1),),
                lipschitz=(1.0, 2.0),
            )
        with pytest.raises(ValueError):
            MultiObjectiveProblem(
                dimension=1,
                objectives=(lambda x: 0.0,),
                gradient_fns=(lambda x: np.zeros(1),),
                lipschitz=(-1.0,),
            )

    def test_query_guards(self, fig1):
        ledger = QueryLedger.for_objectives(2)
        with pytest.raises(IndexError):
            evaluate(fig1, 2, np.zeros(2), ledger)
        with pytest.raises(ValueError):
            evaluate(fig1, 0, np.zeros(3), ledger)
        with pytest.raises(ValueError):
            gradient(fig1, 0, np.array([np.nan, 0.0]), ledger)

    def test_max_lipschitz_requires_data(self):
        prob = MultiObjectiveProblem(
            dimension=1,
            objectives=(lambda x: 0.0,),
            gradient_fns=(lambda x: np.zeros(1),),
        )
        with pytest.raises(ValueError):
            prob.max_lipschitz


class TestProblemFromName:
    @pytest.mark.parametrize(
        "name",
        [
            "figure1",
            "random-quadratic:3,4,11",
            "linear-decline:2,3,7",
        ],
    )
    def test_round_trips_name(self, name):
        assert problem_from_name(name).name == name

    def test_scaled_form(self):
        prob = problem_from_name("figure1-scaled:2,0.5")
        ledger = QueryLedger.for_objectives(2)
        assert evaluate(prob, 0, np.zeros(2), ledger) == pytest.approx(8.0)
        assert evaluate(prob, 1, np.zeros(2), ledger) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "name",
        [
            "unknown",
            "figure1-scaled:1",
            "figure1-scaled:1,x",
            "figure1-scaled:nan,1",
            "figure1-scaled:1,inf",
            "random-quadratic:3,4",
            "random-quadratic:a,b,c",
            "linear-decline:1",
        ],
    )
    def test_rejects_malformed_names(self, name):
        with pytest.raises(ValueError):
            problem_from_name(name)


def extreme_scaled(name):
    """A shipped problem scaled by alternating 1e-300 and 1e300 factors."""
    base = problem_from_name(name)
    kappas = [1e-300 if i % 2 == 0 else 1e300 for i in range(base.num_objectives)]
    return make_scaled_variant(base, kappas)


STACKED_PROBLEMS = [
    problem_from_name(name)
    for name in (
        "figure1",
        "figure1-scaled:1e-300,1e300",
        "figure1-scaled:1e300,1e-300",
        "random-quadratic:10,20,0",
        "random-quadratic:3,2,5",
        "random-quadratic:1,1,9",
        "linear-decline:4,3,2",
        "linear-decline:10,20,1",
    )
] + [extreme_scaled("random-quadratic:10,20,0"), extreme_scaled("linear-decline:4,3,2")]


class TestValuesAndGradients:
    @pytest.mark.parametrize("problem", STACKED_PROBLEMS, ids=lambda p: p.name)
    def test_stacked_equals_the_per_objective_reference(self, problem):
        assert problem.stacked is not None
        rng = np.random.default_rng(314)
        for _ in range(200):
            x = rng.normal(size=problem.dimension) * 10.0 ** rng.uniform(-3, 3)
            ledger = QueryLedger.for_objectives(problem.num_objectives)
            values, grads = values_and_gradients(problem, x, ledger)
            ref_values, ref_grads = per_objective(problem, x)
            assert same_bits(values, ref_values)
            assert same_bits(grads, ref_grads)

    def test_scaled_variant_of_an_unstacked_problem_loops(self):
        loop_only = dataclasses.replace(make_figure1_problem(), stacked=None)
        assert make_scaled_variant(loop_only, [2.0, 3.0]).stacked is None

    def test_problem_without_stacked_takes_the_loop(self):
        calls = []

        def f(i):
            return lambda x: calls.append(("f", i)) or float(i * x[0])

        def g(i):
            return lambda x: calls.append(("g", i)) or np.array([float(i), 0.0])

        problem = MultiObjectiveProblem(
            dimension=2,
            objectives=(f(1), f(2), f(3)),
            gradient_fns=(g(1), g(2), g(3)),
            name="hand-built",
        )
        assert problem.stacked is None
        ledger = QueryLedger.for_objectives(3)
        values, grads = values_and_gradients(problem, np.array([2.0, 5.0]), ledger)
        assert sorted(calls) == [("f", 1), ("f", 2), ("f", 3), ("g", 1), ("g", 2), ("g", 3)]
        assert values.tolist() == [2.0, 4.0, 6.0]
        assert grads.tolist() == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        # a gradient query's loop skips the values it would drop
        calls.clear()
        assert same_bits(gradient_all(problem, np.array([2.0, 5.0]), ledger), grads)
        assert sorted(calls) == [("g", 1), ("g", 2), ("g", 3)]

    def test_ticks_one_query_per_objective(self):
        problem = problem_from_name("random-quadratic:10,20,0")
        ledger = QueryLedger.for_objectives(10)
        evaluate(problem, 3, np.zeros(20), ledger)
        values_and_gradients(problem, np.ones(20), ledger)
        assert ledger.function_counts.tolist() == [1, 1, 1, 2, 1, 1, 1, 1, 1, 1]
        assert ledger.gradient_counts.tolist() == [1] * 10
        assert (ledger.function_evals, ledger.gradient_evals) == (11, 10)

    @pytest.mark.parametrize(
        "output",
        [
            (np.zeros(3), np.zeros((2, 2))),  # one value too many
            (np.zeros(2), np.zeros((2, 3))),  # gradients of the wrong length
            (np.zeros(2), np.zeros(4)),  # gradients not stacked
            (np.float64(0.0), np.zeros((2, 2))),  # a scalar value
        ],
    )
    def test_stacked_output_of_the_wrong_shape_raises(self, fig1, output):
        bad = dataclasses.replace(fig1, stacked=lambda x: output, name="bad")
        with pytest.raises(ValueError, match="'bad' returned values of shape"):
            values_and_gradients(bad, np.zeros(2), QueryLedger.for_objectives(2))

    def test_loop_output_of_the_wrong_shape_raises(self, fig1):
        bad = dataclasses.replace(
            fig1,
            gradient_fns=(fig1.gradient_fns[0], lambda x: np.zeros(3)),
            stacked=None,
        )
        with pytest.raises(ValueError):
            values_and_gradients(bad, np.zeros(2), QueryLedger.for_objectives(2))
        short = dataclasses.replace(
            fig1,
            gradient_fns=(lambda x: np.zeros(1), lambda x: np.zeros(1)),
            stacked=None,
        )
        with pytest.raises(ValueError, match="shape"):
            values_and_gradients(short, np.zeros(2), QueryLedger.for_objectives(2))

    @pytest.mark.parametrize(
        "x",
        [
            [np.nan, 0.0],
            [0.0, np.inf],
            [0.0, 0.0, 0.0],
            [[[0.0, 0.0]]],  # neither one point nor a batch
            [[0.0, 0.0, 0.0]],  # a batch of points of the wrong length
            [[0.0, 0.0], [np.nan, 0.0]],  # one bad point spoils the batch
        ],
    )
    def test_bad_points_raise_before_counting(self, fig1, x):
        ledger = QueryLedger.for_objectives(2)
        with pytest.raises(ValueError, match="point"):
            values_and_gradients(fig1, np.array(x), ledger)
        assert (ledger.function_evals, ledger.gradient_evals) == (0, 0)

    def test_stacked_equals_loop_over_wide_magnitudes(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coordinate = st.floats(
            min_value=-1e100, max_value=1e100, allow_nan=False, allow_infinity=False
        )

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(
            st.sampled_from(STACKED_PROBLEMS).flatmap(
                lambda p: st.tuples(
                    st.just(p),
                    st.lists(coordinate, min_size=p.dimension, max_size=p.dimension),
                )
            )
        )
        def check(case):
            problem, coords = case
            x = np.array(coords)
            ledger = QueryLedger.for_objectives(problem.num_objectives)
            loop = dataclasses.replace(problem, stacked=None)
            # 1e300 factors overflow to inf on both paths alike, and then
            # values_and_gradients refuses the output of either by name
            with np.errstate(over="ignore"):
                values, grads = problem.stacked(x)
                ref_values, ref_grads = per_objective(problem, x)
            assert same_bits(values, ref_values)
            assert same_bits(grads, ref_grads)
            if np.isfinite(values).all() and np.isfinite(grads).all():
                for query in (problem, loop):
                    got_values, got_grads = values_and_gradients(query, x, ledger)
                    assert same_bits(got_values, values)
                    assert same_bits(got_grads, grads)
                return
            for query in (problem, loop):
                with np.errstate(over="ignore"), pytest.raises(
                    ValueError, match=f"{problem.name!r} returned non-finite"
                ):
                    values_and_gradients(query, x, ledger)

        check()


class TestGradientsAt:
    """The batched gradient query of the field sampler."""

    @pytest.mark.parametrize(
        "problem",
        [
            make_figure1_problem(),
            make_scaled_variant(make_figure1_problem(), (1e-300, 1.0)),
            dataclasses.replace(make_figure1_problem(), stacked=None),
            make_random_quadratic_family(3, 2, seed=1),
        ],
        ids=["figure1", "figure1-tiny", "figure1-loop", "quad3"],
    )
    def test_matches_gradient_all_per_point(self, problem):
        points = np.random.default_rng(5).uniform(-3.0, 1.0, size=(50, 2))
        ledger = QueryLedger.for_objectives(problem.num_objectives)
        grads = gradients_at(problem, points, ledger)
        assert grads.shape == (50, problem.num_objectives, 2)
        scratch = QueryLedger.for_objectives(problem.num_objectives)
        for x, g in zip(points, grads):
            assert same_bits(g, gradient_all(problem, x, scratch))
        assert ledger.gradient_counts.tolist() == [50] * problem.num_objectives
        assert ledger.function_evals == 0

    def test_uses_stacked_when_present(self, fig1):
        calls = []

        def stacked(x):
            calls.append(x.shape)
            return fig1.stacked(x)

        problem = dataclasses.replace(fig1, stacked=stacked)
        gx, gy = np.meshgrid(np.linspace(-3, 1, 30), np.linspace(-3, 1, 30))
        ledger = QueryLedger.for_objectives(2)
        gradients_at(problem, np.stack([gx.ravel(), gy.ravel()], 1), ledger)
        assert calls == [(900, 2)]
        # the ledger still counts m gradient queries per point
        assert ledger.gradient_counts.tolist() == [900, 900]
        assert ledger.function_evals == 0
        gradient_all(problem, np.zeros(2), ledger)
        assert calls[-1] == (1, 2)
        assert ledger.gradient_counts.tolist() == [901, 901]

    @pytest.mark.parametrize(
        "points",
        [[[np.nan, 0.0]], [[0.0, 0.0], [0.0, np.inf]], [[0.0, 0.0, 0.0]], [0.0, 0.0]],
    )
    def test_bad_points_raise_before_counting(self, fig1, points):
        ledger = QueryLedger.for_objectives(2)
        with pytest.raises(ValueError, match="point"):
            gradients_at(fig1, np.array(points), ledger)
        assert ledger.gradient_evals == 0

    @pytest.mark.parametrize(
        "x, message",
        [
            ([0.0, 0.0, 0.0], r"point has shape \(3,\), expected \(2,\)"),
            ([[0.0, 0.0]], r"point has shape \(1, 2\), expected \(2,\)"),
            ([np.nan, 0.0], "point has non-finite coordinates"),
            ([0.0, -np.inf], "point has non-finite coordinates"),
        ],
    )
    def test_gradient_all_rejects_bad_points(self, fig1, x, message):
        ledger = QueryLedger.for_objectives(2)
        with pytest.raises(ValueError, match=message):
            gradient_all(fig1, np.array(x), ledger)
        assert ledger.gradient_evals == 0

    def test_gradient_all_checks_its_point_once(self, fig1, monkeypatch):
        # the checked point goes straight to the query, not through the
        # batch checks of gradients_at
        ledger = QueryLedger.for_objectives(2)
        checks = []
        check_point = problems._check_point

        def counted(problem, point):
            checks.append(point)
            return check_point(problem, point)

        def unchecked(*args):
            raise AssertionError("gradients_at re-checks the point")

        monkeypatch.setattr(problems, "_check_point", counted)
        monkeypatch.setattr(problems, "gradients_at", unchecked)
        g = gradient_all(fig1, np.array([1.0, -1.0]), ledger)
        assert g.tolist() == [[6.0, -6.0], [6.0, 2.0]] and len(checks) == 1
        assert ledger.gradient_counts.tolist() == [1, 1]

    def test_bad_gradients_raise_by_name(self, fig1):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        ledger = QueryLedger.for_objectives(2)
        wide = dataclasses.replace(
            fig1, stacked=lambda x: (np.zeros(2), np.zeros((2, 3))), name="wide"
        )
        shapes = r"'wide' returned values of shape \(2,\) and gradients of shape"
        with pytest.raises(ValueError, match=shapes):
            gradients_at(wide, points, ledger)
        # a non-finite gradient at the second node only
        bad = dataclasses.replace(
            fig1,
            stacked=lambda x: (
                np.zeros(x.shape[:-1] + (2,)),
                np.where(x[..., :1, None] != 0.0, np.inf, np.ones((len(x), 2, 2))),
            ),
            name="blowup",
        )
        with pytest.raises(ValueError, match="'blowup' returned non-finite"):
            gradients_at(bad, points, ledger)
        assert ledger.gradient_evals == 0

    def test_gradient_queries_ignore_non_finite_values(self, fig1):
        # a gradient query drops the values, so it keeps the finite
        # gradients of a stacked form whose values are infinite; the query
        # that asks for values refuses them by name
        def stacked(x):
            values, grads = fig1.stacked(x)
            return np.full_like(values, np.inf), grads

        bad = dataclasses.replace(fig1, stacked=stacked, name="inf-values")
        points = np.random.default_rng(2).uniform(-3.0, 1.0, size=(5, 2))
        ledger = QueryLedger.for_objectives(2)
        assert same_bits(gradients_at(bad, points, ledger), fig1.stacked(points)[1])
        for x in points:
            assert same_bits(gradient_all(bad, x, ledger), fig1.stacked(x[None])[1][0])
        assert ledger.gradient_counts.tolist() == [10, 10]
        for x in (points, points[0]):
            with pytest.raises(ValueError, match="'inf-values' returned non-finite values"):
                values_and_gradients(bad, x, ledger)
        assert (ledger.function_evals, ledger.gradient_evals) == (0, 20)

    def test_single_point_stacked_raises_by_name(self, fig1):
        rq = problem_from_name("random-quadratic:3,2,0")
        rows = np.ones((3, 2))

        def figure1_one_point(x):
            # indexes x as one point: on a batch, x[0] is the first point
            u, v = x[0] + 2.0, x[1] + 2.0
            return np.zeros(2), np.array([[2.0 * u, 6.0 * x[1]], [6.0 * x[0], 2.0 * v]])

        def broadcasts_one_point(x):
            # (N, 2) against (3, 2): broadcasts only for N = 1
            return np.zeros(3), x - rows

        points = np.random.default_rng(0).uniform(-1.0, 1.0, size=(7, 2))
        for problem in (
            dataclasses.replace(fig1, stacked=figure1_one_point, name="one-point"),
            dataclasses.replace(rq, stacked=broadcasts_one_point, name="one-point"),
        ):
            ledger = QueryLedger.for_objectives(problem.num_objectives)
            with pytest.raises(ValueError, match="'one-point'"):
                gradients_at(problem, points, ledger)
            with pytest.raises(ValueError, match="'one-point'"):
                gradient_all(problem, points[0], ledger)
            assert ledger.gradient_evals == 0


BATCHED_PROBLEMS = [
    problem_from_name(name)
    for name in (
        "figure1",
        "figure1-scaled:1e-300,1",
        "random-quadratic:3,2,0",
        "random-quadratic:10,20,1",
        "random-quadratic:50,100,2",
        "linear-decline:3,2,0",
        "linear-decline:10,20,1",
    )
]


class TestBatchedStacked:
    """Every shipped ``stacked`` over (..., n) points, bit for bit."""

    @pytest.mark.parametrize("problem", BATCHED_PROBLEMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("count", [0, 1, 60])
    def test_batch_equals_the_per_objective_callables(self, problem, count):
        # the random-quadratic and linear-decline forms batch numpy matmuls
        # over the points and the objectives; each batch element must round
        # like the single product of its per-objective callable
        m, n = problem.num_objectives, problem.dimension
        rng = np.random.default_rng(count + 17 * m + n)
        points = rng.normal(size=(count, n)) * 10.0 ** rng.uniform(-3, 3, (count, 1))
        values, grads = problem.stacked(points)
        assert values.shape == (count, m) and grads.shape == (count, m, n)
        for x, row, g in zip(points, values, grads):
            ref, ref_grads = per_objective(problem, x)
            assert same_bits(row, ref)
            assert same_bits(g, ref_grads)

    def test_figure1_squares_round_like_the_scalar_power(self, fig1):
        # the scalar ``t ** 2`` of f1 and f2 is libm pow, which rounds unlike
        # t * t at about one t in 1200; the batch must round like the scalar
        t = np.random.default_rng(8).normal(size=20000) * 3.0
        odd = t[[np.float64(v) ** 2 != v * v for v in t]]
        assert len(odd) > 5
        points = np.stack([odd, odd], 1)
        values = fig1.stacked(points)[0]
        ref = [[float(f(x)) for f in fig1.objectives] for x in points]
        assert same_bits(values, ref)

    @pytest.mark.parametrize("problem", BATCHED_PROBLEMS, ids=lambda p: p.name)
    def test_grid_batches_and_single_points_agree(self, problem):
        m, n = problem.num_objectives, problem.dimension
        points = np.random.default_rng(3).uniform(-3.0, 1.0, size=(6, 5, n))
        values, grads = problem.stacked(points)
        assert values.shape == (6, 5, m) and grads.shape == (6, 5, m, n)
        flat_values, flat_grads = problem.stacked(points.reshape(30, n))
        assert same_bits(values.reshape(30, m), flat_values)
        assert same_bits(grads.reshape(30, m, n), flat_grads)
        for k, x in enumerate(points.reshape(30, n)):
            one_values, one_grads = problem.stacked(x)
            assert same_bits(one_values, flat_values[k])
            assert same_bits(one_grads, flat_grads[k])

    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "loop"])
    @pytest.mark.parametrize("problem", BATCHED_PROBLEMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("count", [0, 1, 60])
    def test_values_and_gradients_batch_equals_single_points(
        self, problem, count, stacked
    ):
        m, n = problem.num_objectives, problem.dimension
        if not stacked:
            problem = dataclasses.replace(problem, stacked=None)
        points = np.random.default_rng(count + 5).uniform(-3.0, 1.0, size=(count, n))
        ledger = QueryLedger.for_objectives(m)
        values, grads = values_and_gradients(problem, points, ledger)
        assert values.shape == (count, m) and grads.shape == (count, m, n)
        assert ledger.function_counts.tolist() == [count] * m
        assert ledger.gradient_counts.tolist() == [count] * m
        for x, row, g in zip(points, values, grads):
            one_values, one_grads = values_and_gradients(problem, x, ledger)
            assert same_bits(row, one_values)
            assert same_bits(g, one_grads)
            ref_values, ref_grads = per_objective(problem, x)
            assert same_bits(row, ref_values)
            assert same_bits(g, ref_grads)

    def test_values_and_gradients_batch_of_the_wrong_output_shape_raises(self, fig1):
        # the one-point output of a stacked form that ignores the batch
        bad = dataclasses.replace(
            fig1, stacked=lambda x: (np.zeros(2), np.zeros((2, 2))), name="bad"
        )
        points = np.zeros((3, 2))
        with pytest.raises(ValueError, match=r"expected \(3, 2\) and \(3, 2, 2\)"):
            values_and_gradients(bad, points, QueryLedger.for_objectives(2))

    @pytest.mark.parametrize("problem", BATCHED_PROBLEMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("count", [0, 1, 60])
    def test_queries_equal_the_unstacked_loop(self, problem, count):
        m, n = problem.num_objectives, problem.dimension
        loop = dataclasses.replace(problem, stacked=None)
        points = np.random.default_rng(count).uniform(-3.0, 1.0, size=(count, n))
        ledger = QueryLedger.for_objectives(m)
        loop_ledger = QueryLedger.for_objectives(m)
        grads = gradients_at(problem, points, ledger)
        assert same_bits(grads, gradients_at(loop, points, loop_ledger))
        for x, g in zip(points, grads):
            assert same_bits(gradient_all(problem, x, ledger), g)
            assert same_bits(gradient_all(loop, x, loop_ledger), g)
        assert ledger.gradient_counts.tolist() == [2 * count] * m
        assert loop_ledger.gradient_counts.tolist() == [2 * count] * m
        assert ledger.function_evals == loop_ledger.function_evals == 0


class TestLineQuery:
    """The function queries of one line search, checked once."""

    def test_values_and_counts_equal_evaluate_per_trial(self):
        problem = problem_from_name("random-quadratic:10,20,0")
        rng = np.random.default_rng(3)
        x, u = rng.normal(size=20), rng.normal(size=20)
        ledger = QueryLedger.for_objectives(10)
        reference = QueryLedger.for_objectives(10)
        line = problems.line_query(problem, x, u, ledger)
        for i in (0, 3, 3, 9):
            for alpha in (1.0, 0.5, 2.0**-30, 2.0**-60, 0.0):
                got = line(i, alpha)
                expected = evaluate(problem, i, x + alpha * u, reference)
                assert same_bits(np.float64(got), np.float64(expected))
        assert ledger.function_counts.tolist() == reference.function_counts.tolist()
        assert ledger.gradient_evals == 0

    def test_alpha_zero_queries_x_itself(self):
        # atan2 tells -0.0 from 0.0, which x + 0 * u = 0.0 would lose
        problem = MultiObjectiveProblem(
            dimension=1,
            objectives=(lambda x: math.atan2(x[0], -1.0),),
            gradient_fns=(lambda x: np.zeros(1),),
        )
        x = np.array([-0.0])
        ledger = QueryLedger.for_objectives(1)
        value = problems.line_query(problem, x, np.ones(1), ledger)(0, 0.0)
        assert value == evaluate(problem, 0, x, ledger) == -math.pi
        assert ledger.function_counts.tolist() == [2]

    @pytest.mark.parametrize(
        "x, u, message",
        [
            ([np.nan, 0.0], [1.0, 0.0], "point has non-finite coordinates"),
            ([0.0, np.inf], [1.0, 0.0], "point has non-finite coordinates"),
            # x and u are finite, but x + u overflows
            ([1.7e308, 0.0], [1e308, 0.0], r"end point x \+ u is not finite"),
            ([0.0, 0.0], [np.nan, 0.0], r"end point x \+ u is not finite"),
            ([0.0, 0.0], [1.0, 0.0, 0.0], r"direction has shape \(3,\)"),
            ([0.0, 0.0, 0.0], [1.0, 0.0], r"point has shape \(3,\)"),
        ],
    )
    def test_a_bad_line_raises_by_name_before_counting(self, fig1, x, u, message):
        ledger = QueryLedger.for_objectives(2)
        with pytest.raises(ValueError, match=f"'figure1'.*{message}"):
            problems.line_query(fig1, np.array(x), np.array(u), ledger)
        assert ledger.function_evals == 0

    @pytest.mark.parametrize(
        "i, alpha, error",
        [(2, 0.5, IndexError), (-1, 0.5, IndexError), (0, 2.0, ValueError),
         (0, -0.5, ValueError), (0, math.nan, ValueError)],
    )
    def test_a_bad_trial_raises_by_name_before_counting(self, fig1, i, alpha, error):
        ledger = QueryLedger.for_objectives(2)
        line = problems.line_query(fig1, np.zeros(2), np.ones(2), ledger)
        with pytest.raises(error, match="'figure1'"):
            line(i, alpha)
        assert ledger.function_evals == 0


class TestGradientRows:
    def test_checks_indices_and_point_once_before_counting(self, fig1, monkeypatch):
        ledger = QueryLedger.for_objectives(2)
        with pytest.raises(IndexError):
            problems.gradient_rows(fig1, (0, 2), np.zeros(2), ledger)
        with pytest.raises(ValueError, match="non-finite"):
            problems.gradient_rows(fig1, (0, 1), np.array([0.0, np.nan]), ledger)
        assert ledger.gradient_evals == 0
        checks = []
        check_point = problems._check_point

        def counted(problem, point):
            checks.append(point)
            return check_point(problem, point)

        monkeypatch.setattr(problems, "_check_point", counted)
        x = np.array([1.0, -1.0])
        rows = problems.gradient_rows(fig1, (1, 0), x, ledger)
        assert len(checks) == 1 and ledger.gradient_counts.tolist() == [1, 1]
        reference = QueryLedger.for_objectives(2)
        for i, g in zip((1, 0), rows):
            assert same_bits(g, gradient(fig1, i, x, reference))


class TestValuesAndGradientsFailByName:
    @pytest.mark.parametrize("x", [np.zeros(2), np.zeros((3, 2))])
    @pytest.mark.parametrize("what", ["values", "gradients"])
    def test_non_finite_output(self, fig1, x, what):
        def stacked(points):
            values, grads = fig1.stacked(points)
            if what == "values":
                return np.full_like(values, np.nan), grads
            return values, np.where(grads > 0.0, grads, np.inf)

        bad = dataclasses.replace(fig1, stacked=stacked, name="blowup")
        with pytest.raises(ValueError, match=f"'blowup' returned non-finite {what}"):
            values_and_gradients(bad, x, QueryLedger.for_objectives(2))

    @pytest.mark.parametrize("x", [np.zeros(2), np.zeros((3, 2))])
    @pytest.mark.parametrize("stacked", [True, False])
    def test_a_failing_callable(self, fig1, x, stacked):
        def broken(point):
            raise TypeError("unsupported operand")

        bad = dataclasses.replace(
            fig1,
            gradient_fns=(fig1.gradient_fns[0], broken),
            stacked=(lambda points: broken(points)) if stacked else None,
            name="broken",
        )
        with pytest.raises(ValueError, match="problem 'broken' failed on points") as exc:
            values_and_gradients(bad, x, QueryLedger.for_objectives(2))
        assert isinstance(exc.value.__cause__, TypeError)
