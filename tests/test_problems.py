"""Problem factories, query accounting, and the validation harness."""

import dataclasses

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
        with pytest.raises(ValueError):
            make_scaled_variant(fig1, (1.0, 0.0))
        with pytest.raises(ValueError):
            make_scaled_variant(fig1, (1.0, -2.0))


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
        with pytest.raises(AssertionError):
            validate_problem(bad)

    def test_catches_lower_bound_violation(self):
        bad = MultiObjectiveProblem(
            dimension=1,
            objectives=(lambda x: float(x[0]),),
            gradient_fns=(lambda x: np.array([1.0]),),
            lower_bound=0.0,
            name="bad-bound",
        )
        with pytest.raises(AssertionError):
            validate_problem(bad)

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
            "random-quadratic:3,4",
            "random-quadratic:a,b,c",
            "linear-decline:1",
        ],
    )
    def test_rejects_malformed_names(self, name):
        with pytest.raises(ValueError):
            problem_from_name(name)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def per_objective(problem, x):
    """The reference: every objective and gradient through its own callable."""
    ledger = QueryLedger.for_objectives(problem.num_objectives)
    return evaluate_all(problem, x, ledger), gradient_all(problem, x, ledger)


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
        "x", [[np.nan, 0.0], [0.0, np.inf], [0.0, 0.0, 0.0], [[0.0, 0.0]]]
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
            # 1e300 factors overflow to inf on both paths alike
            with np.errstate(over="ignore"):
                values, grads = values_and_gradients(problem, x, ledger)
                ref_values, ref_grads = values_and_gradients(loop, x, ledger)
            assert same_bits(values, ref_values)
            assert same_bits(grads, ref_grads)

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
            calls.append(x)
            return fig1.stacked(x)

        problem = dataclasses.replace(fig1, stacked=stacked)
        gradients_at(problem, np.zeros((7, 2)), QueryLedger.for_objectives(2))
        assert len(calls) == 7

    @pytest.mark.parametrize(
        "points",
        [[[np.nan, 0.0]], [[0.0, 0.0], [0.0, np.inf]], [[0.0, 0.0, 0.0]], [0.0, 0.0]],
    )
    def test_bad_points_raise_before_counting(self, fig1, points):
        ledger = QueryLedger.for_objectives(2)
        with pytest.raises(ValueError, match="point"):
            gradients_at(fig1, np.array(points), ledger)
        assert ledger.gradient_evals == 0

    def test_bad_gradients_raise_by_name(self, fig1):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        ledger = QueryLedger.for_objectives(2)
        wide = dataclasses.replace(
            fig1, stacked=lambda x: (np.zeros(2), np.zeros((2, 3))), name="wide"
        )
        with pytest.raises(ValueError, match="'wide' returned gradients of shape"):
            gradients_at(wide, points, ledger)
        # a non-finite gradient at the second node only
        bad = dataclasses.replace(
            fig1,
            stacked=lambda x: (np.zeros(2), np.full((2, 2), np.inf if x[0] else 1.0)),
            name="blowup",
        )
        with pytest.raises(ValueError, match="'blowup' returned non-finite"):
            gradients_at(bad, points, ledger)
        assert ledger.gradient_evals == 0
