"""Descent loops: schedules, records, both incremental variants, baselines."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from modescent import (
    DIRECTION,
    IterationRecord,
    MultiObjectiveProblem,
    QueryLedger,
    StepSchedule,
    central_direction,
    classify_run,
    figure1_efficient_curve,
    make_figure1_problem,
    make_random_quadratic_family,
    make_unbounded_linear_problem,
    run_full_steepest,
    run_incremental_aggregated,
    run_incremental_central,
    run_incremental_central_armijo,
    run_scalarized,
    sample_field,
    steepest_direction,
    trace_streamline,
    write_trace_csv,
)
from modescent import directions, solvers
from modescent.problems import evaluate, gradient, problem_from_name


def completed(records):
    return [r for r in records if r.stop_reason is None]


def misleading_parabola():
    """f(x) = x^2 whose gradient oracle turns wrong (constant -1) at x <= 1.

    From x0 = 3 one backtracked step lands on x = 0, where the claimed
    descent direction ascends and every trial step fails.
    """
    return MultiObjectiveProblem(
        dimension=1,
        objectives=(lambda x: float(x[0] ** 2),),
        gradient_fns=(
            lambda x: np.array([2.0 * x[0] if x[0] > 1.0 else -1.0]),
        ),
        name="misleading-parabola",
    )


def one_dim_quadratic():
    return MultiObjectiveProblem(
        dimension=1,
        objectives=(lambda x: float(x[0] ** 2),),
        gradient_fns=(lambda x: np.array([2.0 * x[0]]),),
        lipschitz=(2.0,),
        lower_bound=0.0,
        name="parabola",
    )


class TestStepSchedule:
    def test_parse_forms(self):
        s = StepSchedule.parse("harmonic")
        assert (s.c, s.p) == (1.0, 1.0)
        # harmonic is the power law with p = 1, step for step
        assert StepSchedule.harmonic(0.5) == StepSchedule.power_law(0.5, 1.0)
        s = StepSchedule.parse("harmonic:0.5")
        assert s.alpha(1) == 0.5
        assert s.alpha(10) == 0.05
        s = StepSchedule.parse("powerlaw:2,0.5")
        assert s.alpha(4) == pytest.approx(1.0)
        assert StepSchedule.parse("power-law:2,0.5").alpha(4) == pytest.approx(1.0)

    def test_vanishes_but_sums_diverge(self):
        s = StepSchedule.power_law(1.0, 0.6)
        alphas = np.array([s.alpha(k) for k in range(1, 2001)])
        assert alphas[-1] < alphas[0] / 50.0
        assert alphas.sum() > 50.0

    @pytest.mark.parametrize(
        "text", ["bogus", "powerlaw:1", "powerlaw:1,2,3", "harmonic:-1"]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            StepSchedule.parse(text)

    @pytest.mark.parametrize(
        "text", ["harmonic:nan", "harmonic:inf", "powerlaw:nan,0.5"]
    )
    def test_rejects_non_finite_constant(self, text):
        # a NaN c once failed only at the next query, on a NaN point
        with pytest.raises(ValueError, match="constant c"):
            StepSchedule.parse(text)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StepSchedule.power_law(1.0, 0.0)
        with pytest.raises(ValueError):
            StepSchedule.power_law(1.0, 1.5)
        with pytest.raises(ValueError):
            StepSchedule.harmonic(0.0)
        with pytest.raises(ValueError):
            StepSchedule.harmonic(1.0).alpha(0)


@pytest.fixture(scope="module")
def warm_run():
    fig = make_figure1_problem()
    return run_incremental_central(
        fig,
        (1.5, 1.0),
        StepSchedule.harmonic(0.5),
        slate_init="warm-start",
        max_iter=500,
    )


@pytest.fixture(scope="module")
def fig_run():
    fig = make_figure1_problem()
    return run_incremental_central_armijo(fig, (0.5, 0.5), beta=0.5)


def uniform_weights(problem):
    return np.full(problem.num_objectives, 1.0 / problem.num_objectives)


RUNNERS = {
    "icd": lambda p, x0: run_incremental_central(
        p, x0, StepSchedule.harmonic(), max_iter=80
    ),
    "icd-armijo": lambda p, x0: run_incremental_central_armijo(p, x0, max_iter=80),
    "steepest": lambda p, x0: run_full_steepest(p, x0, max_iter=80),
    "scalarized": lambda p, x0: run_scalarized(p, uniform_weights(p), x0, max_iter=80),
    "iag": lambda p, x0: run_incremental_aggregated(
        p, uniform_weights(p), x0, alpha=0.02, window=p.num_objectives, max_iter=80
    ),
}
STOP_REASONS = {
    solvers.STOP_NULL_GRADIENT,
    solvers.STOP_INFEASIBLE,
    solvers.STOP_MAX_ITER,
    solvers.STOP_LINE_SEARCH_STALL,
}


@pytest.mark.parametrize("problem", ["figure1", "random-quadratic:3,4,7"])
@pytest.mark.parametrize("algo", list(RUNNERS))
def test_every_solver_obeys_the_record_contract(algo, problem):
    prob = problem_from_name(problem)
    recs = RUNNERS[algo](prob, np.full(prob.dimension, 1.5))
    assert [r.k for r in recs] == list(range(1, len(recs) + 1))
    *steps, term = recs
    assert term.alpha == 0.0
    assert term.stop_reason in STOP_REASONS
    for r in steps:
        assert r.alpha > 0.0
        assert r.stop_reason is None
    for prev, cur in zip(recs, recs[1:]):
        assert cur.grad_evals >= prev.grad_evals
        assert cur.fn_evals >= prev.fn_evals
    if algo in ("steepest", "scalarized", "iag"):
        assert all(math.isnan(r.ratio_metric) for r in recs)
    else:
        assert not any(math.isnan(r.ratio_metric) for r in steps)


class TestIncrementalCentral:
    def test_warm_fixture(self, warm_run):
        steps = completed(warm_run)
        assert len(steps) == 298
        assert warm_run[-1].stop_reason == "Infeasible"
        assert warm_run[-1].grad_evals == 301
        min_ratio = min(r.ratio_metric for r in steps)
        assert min_ratio == pytest.approx(4.123653629394418e-06, rel=1e-9)
        assert min_ratio <= 0.2

    def test_lands_near_the_efficient_curve(self, warm_run):
        curve = figure1_efficient_curve(4096)
        dist = np.linalg.norm(curve - warm_run[-1].x[None, :], axis=1).min()
        assert dist <= 0.002

    def test_record_invariants(self, warm_run):
        steps = completed(warm_run)
        assert [r.k for r in steps] == list(range(1, len(steps) + 1))
        for prev, cur in zip(steps, steps[1:]):
            # unit direction scaled by the schedule step
            assert np.linalg.norm(cur.x - prev.x) == pytest.approx(
                prev.alpha, abs=1e-12
            )
        for r in steps:
            assert r.alpha == pytest.approx(0.5 / r.k)
            assert r.dir_norm >= 1.0 - 1e-9
        term = warm_run[-1]
        assert term.alpha == 0.0
        assert term.k == len(steps) + 1

    def test_warm_start_counts_m_plus_k(self, warm_run):
        steps = completed(warm_run)
        for r in steps:
            assert r.grad_evals == r.k + 2
        assert all(r.fn_evals == 0 for r in steps)

    def test_random_unit_counts_exactly_k(self, fig1):
        recs = run_incremental_central(
            fig1, (1.5, 1.0), StepSchedule.harmonic(0.5), max_iter=50
        )
        for r in completed(recs):
            assert r.grad_evals == r.k

    def test_diagnostics_do_not_pollute_counts(self, fig1):
        kw = dict(slate_init="warm-start", max_iter=30)
        loud = run_incremental_central(
            fig1, (1.5, 1.0), StepSchedule.harmonic(0.5), **kw
        )
        quiet = run_incremental_central(
            fig1,
            (1.5, 1.0),
            StepSchedule.harmonic(0.5),
            diagnostics=False,
            **kw,
        )
        assert [r.grad_evals for r in loud] == [r.grad_evals for r in quiet]
        assert [r.fn_evals for r in loud] == [r.fn_evals for r in quiet]
        assert np.allclose(loud[-1].x, quiet[-1].x)
        assert np.isnan(quiet[0].min_grad_norm)

    def test_null_gradient_stop(self, fig1):
        # the first refresh lands on objective 0's exact minimizer
        recs = run_incremental_central(fig1, (-2.0, 0.0), StepSchedule.harmonic(1.0))
        assert len(recs) == 1
        assert recs[0].stop_reason == "NullGradient"
        assert recs[0].grad_evals == 1
        assert classify_run(recs) == "vanishing-gradient"

    def test_tiny_gradients_are_not_null(self):
        # every gradient of objective 0 is scaled by 1e-300, so its norm
        # underflows; the run must still follow the figure1 trajectory
        kw = dict(slate_init="warm-start")
        ref = run_incremental_central(
            problem_from_name("figure1"), (1.5, 1.0), StepSchedule.harmonic(), **kw
        )
        tiny = run_incremental_central(
            problem_from_name("figure1-scaled:1e-300,1"),
            (1.5, 1.0),
            StepSchedule.harmonic(),
            **kw,
        )
        assert len(tiny) == len(ref) == 83
        assert tiny[-1].stop_reason == ref[-1].stop_reason == "Infeasible"
        for a, b in zip(tiny, ref):
            assert (a.k, a.grad_evals, a.fn_evals) == (b.k, b.grad_evals, b.fn_evals)
            assert np.linalg.norm(a.x - b.x) <= 1e-12 * np.linalg.norm(b.x)

    def test_same_seed_reproduces(self, fig1):
        a = run_incremental_central(
            fig1, (1.0, 0.5), StepSchedule.harmonic(0.5), seed=3, max_iter=40
        )
        b = run_incremental_central(
            fig1, (1.0, 0.5), StepSchedule.harmonic(0.5), seed=3, max_iter=40
        )
        assert np.array_equal(a[-1].x, b[-1].x)


class TestIncrementalArmijo:
    def test_fixture_values(self, fig_run):
        steps = completed(fig_run)
        term = fig_run[-1]
        assert len(steps) == 10
        assert term.stop_reason == "Infeasible"
        assert term.grad_evals == 22
        assert term.fn_evals == 130
        assert term.x == pytest.approx([-0.5, -0.5], abs=1e-6)
        assert steps[0].alpha == 1.0

    def test_steps_respect_their_floors(self, fig_run):
        for r in completed(fig_run):
            assert r.step_floor is not None
            assert r.alpha >= r.step_floor - 1e-12

    def test_two_gradients_per_iteration(self, fig_run):
        steps = completed(fig_run)
        assert [r.grad_evals for r in steps] == [2 * r.k for r in steps]

    def test_warm_start_large_slate(self):
        """Large random slates start infeasible, so warm-start them."""
        fam = make_random_quadratic_family(10, 5, seed=60)
        recs = run_incremental_central_armijo(
            fam, 6.0 * np.ones(5), beta=0.5, slate_init="warm-start"
        )
        steps = completed(recs)
        assert len(steps) == 30
        assert recs[-1].stop_reason == "Infeasible"
        assert steps[0].grad_evals == 12  # m warm + 2 in the first iteration
        deltas = {
            b.grad_evals - a.grad_evals for a, b in zip(steps, steps[1:])
        }
        assert deltas == {2}

    def test_validation(self, fig1):
        single = MultiObjectiveProblem(
            dimension=2,
            objectives=(fig1.objectives[0],),
            gradient_fns=(fig1.gradient_fns[0],),
            name="single",
        )
        with pytest.raises(ValueError):
            run_incremental_central_armijo(single, (0.0, 0.0))
        with pytest.raises(ValueError):
            run_incremental_central_armijo(fig1, (0.0, 0.0), t_policy="bogus")
        for beta in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                run_incremental_central_armijo(fig1, (0.0, 0.0), beta=beta)

    def test_random_t_policy_runs(self, fig1):
        recs = run_incremental_central_armijo(
            fig1, (0.5, 0.5), t_policy="random", seed=5
        )
        assert recs[-1].stop_reason in ("Infeasible", "NullGradient", "MaxIter")

    def test_line_search_can_exhaust_near_a_minimizer(self):
        # this run drives the iterate onto one objective's exact minimizer,
        # where the required decrease underflows against float noise; the
        # stalled search ends the run by name and keeps the records so far
        fam = make_random_quadratic_family(2, 3, seed=72)
        recs = run_incremental_central_armijo(fam, 0.8 * np.ones(3), beta=0.5)
        assert [r.stop_reason for r in recs] == [None] * 35 + ["LineSearchStall"]
        term = recs[-1]
        assert (term.k, term.alpha, term.grad_evals) == (36, 0.0, 72)
        # baseline + all 61 failed trials after the last completed step
        assert term.fn_evals == recs[-2].fn_evals + 1 + 61
        assert term.dir_norm >= 1.0

    def test_tiny_gradients_are_not_null(self):
        # objective 0's gradient norms underflow to 0; its rows are not zero
        recs = run_incremental_central_armijo(
            problem_from_name("figure1-scaled:1e-300,1"),
            (1.5, 1.0),
            slate_init="warm-start",
        )
        assert len(recs) == 9
        assert recs[-1].stop_reason == "Infeasible"
        # the step floor scales with ||g_j||, taken after the prescale
        assert all(r.step_floor > 0.0 for r in completed(recs))

    def test_unordered_probe_values_fail_by_name(self, fig1):
        # a NaN probe value cannot be ordered against the accepted one
        broken = MultiObjectiveProblem(
            dimension=2,
            objectives=(fig1.objectives[0], lambda x: float("nan")),
            gradient_fns=fig1.gradient_fns,
            name="nan-second-objective",
        )
        with pytest.raises(RuntimeError, match="bookkeeping"):
            run_incremental_central_armijo(broken, (1.5, 1.0), max_iter=5)


class TestWarmStartedQP:
    """Both incremental solvers warm-start the central QP from the previous
    support; wrapping ``central_direction`` to drop ``start`` gives the cold
    reference run."""

    @staticmethod
    def run(monkeypatch, algo, warm):
        counts = {"affine": 0, "central": 0}
        affine, central = directions._affine_minimizer, solvers.central_direction

        def counted_affine(sub):
            counts["affine"] += 1
            return affine(sub)

        def counted_central(*args, start=(), **kwargs):
            counts["central"] += 1
            return central(*args, start=start if warm else (), **kwargs)

        monkeypatch.setattr(directions, "_affine_minimizer", counted_affine)
        monkeypatch.setattr(solvers, "central_direction", counted_central)
        problem = problem_from_name("random-quadratic:10,20,0")
        x0 = np.zeros(problem.dimension)
        if algo == "icd-armijo":
            recs = run_incremental_central_armijo(problem, x0, max_iter=500)
        else:
            recs = run_incremental_central(
                problem, x0, StepSchedule.harmonic(), max_iter=500
            )
        monkeypatch.undo()
        return recs, counts["affine"] / counts["central"]

    @pytest.mark.parametrize("algo", ["icd-armijo", "icd"])
    def test_warm_run_matches_the_cold_reference(self, monkeypatch, algo):
        warm, warm_solves = self.run(monkeypatch, algo, warm=True)
        cold, cold_solves = self.run(monkeypatch, algo, warm=False)
        assert len(warm) == len(cold)
        assert warm[-1].stop_reason == cold[-1].stop_reason
        for a, b in zip(warm, cold):
            assert (a.k, a.stop_reason) == (b.k, b.stop_reason)
            assert (a.grad_evals, a.fn_evals) == (b.grad_evals, b.fn_evals)
            assert np.linalg.norm(a.x - b.x) <= 1e-10 * np.linalg.norm(b.x)
        # the previous support leaves about one affine solve per QP
        assert warm_solves <= 2.0
        assert cold_solves >= 8.0


class TestArmijoBacktrack:
    def test_full_step_accepted(self):
        prob = one_dim_quadratic()
        ledger = QueryLedger.for_objectives(1)
        details = solvers._armijo_details(
            prob, 0, np.array([1.0]), np.array([-1.0]), np.array([2.0]), 0.5, ledger
        )
        assert details == (1.0, 0.0)  # alpha, f at the accepted point
        assert ledger.function_evals == 2  # baseline + one trial

    def test_halves_until_accepted(self):
        prob = one_dim_quadratic()
        ledger = QueryLedger.for_objectives(1)
        details = solvers._armijo_details(
            prob, 0, np.array([1.0]), np.array([-1.0]), np.array([2.0]), 0.9, ledger
        )
        assert details == (0.125, 0.765625)
        assert ledger.function_evals == 5

    def test_rejects_non_descent_direction(self):
        prob = one_dim_quadratic()
        ledger = QueryLedger.for_objectives(1)
        with pytest.raises(ValueError):
            solvers._armijo_details(
                prob, 0, np.array([1.0]), np.array([1.0]), np.array([2.0]), 0.5, ledger
            )

    def test_gives_up_when_nothing_decreases(self):
        flat = MultiObjectiveProblem(
            dimension=1,
            objectives=(lambda x: 1.0,),
            gradient_fns=(lambda x: np.array([1.0]),),  # deliberately wrong
            name="flat",
        )
        ledger = QueryLedger.for_objectives(1)
        details = solvers._armijo_details(
            flat, 0, np.array([0.0]), np.array([-1.0]), np.array([1.0]), 0.5, ledger
        )
        assert details is None
        # the baseline plus alpha = 1, 1/2, ..., 2**-MAX_HALVINGS
        assert ledger.function_evals == solvers.MAX_HALVINGS + 2


class TestFullSteepest:
    def test_fig1_reaches_the_balanced_minimizer_in_one_step(self, fig1):
        recs = run_full_steepest(fig1, (0.5, 0.5), beta=0.5)
        assert len(completed(recs)) == 1
        assert recs[-1].stop_reason == "NullGradient"
        assert recs[-1].grad_evals == 4
        assert np.array_equal(recs[-1].x, np.array([-0.5, -0.5]))

    def test_m_gradients_per_iteration(self):
        fam = make_random_quadratic_family(3, 3, seed=61)
        recs = run_full_steepest(fam, np.ones(3), beta=0.5, max_iter=40)
        assert recs[-1].stop_reason == "LineSearchStall"
        for r in completed(recs):
            assert r.grad_evals == 3 * r.k
        # the stall is float noise in the objective differences, not an
        # inexact direction: at the last completed step and at the stalled
        # one, V still strictly descends every objective and sits at the
        # optimum to far below its own size (||V||^2 is about 4e-14 here)
        for r in (completed(recs)[-1], recs[-1]):
            ledger = QueryLedger.for_objectives(3)
            grads = np.vstack([gradient(fam, i, r.x, ledger) for i in range(3)])
            v, _ = steepest_direction(grads)
            slope = float((grads @ v).max())
            assert slope < 0.0
            assert slope + float(v @ v) <= 1e-6 * float(v @ v)

    def test_beta_guard(self, fig1):
        with pytest.raises(ValueError):
            run_full_steepest(fig1, (0.0, 0.0), beta=2.0)

    def test_stalled_line_search_keeps_the_records(self):
        recs = run_full_steepest(misleading_parabola(), np.array([3.0]), beta=0.25)
        assert [r.stop_reason for r in recs] == [None, "LineSearchStall"]
        assert recs[0].alpha == 0.5
        assert recs[-1].k == 2
        assert np.array_equal(recs[-1].x, np.array([0.0]))
        # baseline + 2 trials, then baseline + all 61 failed trials
        assert (recs[-1].grad_evals, recs[-1].fn_evals) == (2, 3 + 1 + 61)


class TestScalarized:
    def test_equal_weights_fixture(self, fig1):
        recs = run_scalarized(fig1, (0.5, 0.5), (1.5, 1.0), beta=0.5)
        steps = completed(recs)
        assert len(steps) == 1
        assert steps[0].alpha == 0.25
        assert recs[-1].stop_reason == "NullGradient"
        assert np.array_equal(recs[-1].x, np.array([-0.5, -0.5]))

    def test_degenerate_weight_matches_single_objective_descent(self, fig1):
        # pi = (1, 0) is plain descent on f1; its minimizer is (-2, 0)
        recs = run_scalarized(fig1, (1.0, 0.0), (1.0, 1.0), beta=0.5, max_iter=200)
        assert recs[-1].stop_reason == "NullGradient"
        assert recs[-1].x == pytest.approx([-2.0, 0.0], abs=1e-5)

    def test_stalled_line_search_keeps_the_records(self):
        recs = run_scalarized(
            misleading_parabola(), (1.0,), np.array([3.0]), beta=0.25
        )
        assert [r.stop_reason for r in recs] == [None, "LineSearchStall"]
        assert recs[0].alpha == 0.5
        assert np.array_equal(recs[-1].x, np.array([0.0]))
        assert (recs[-1].grad_evals, recs[-1].fn_evals) == (2, 3 + 1 + 61)

    def test_weight_validation(self, fig1):
        for pi in ((-0.5, 1.5), (1.0,), (0.4, 0.4)):
            with pytest.raises(ValueError):
                run_scalarized(fig1, pi, (0.0, 0.0))
        with pytest.raises(ValueError):
            run_scalarized(fig1, (0.5, 0.5), (0.0, 0.0), beta=1.5)


class TestIncrementalAggregated:
    def test_weighted_mean_descends_to_the_scalarized_minimizer(self, fig1):
        recs = run_incremental_aggregated(
            fig1, (0.5, 0.5), (1.5, 1.0), alpha=0.05, window=2, max_iter=500
        )
        steps = completed(recs)
        assert len(steps) == 500
        assert recs[-1].stop_reason == "MaxIter"
        start = float(steps[0].objective_values.mean())
        final = float(recs[-1].objective_values.mean())
        assert start == pytest.approx(15.5)
        assert final == pytest.approx(3.0, abs=1e-6)

    def test_one_gradient_per_iteration(self, fig1):
        recs = run_incremental_aggregated(
            fig1, (0.5, 0.5), (1.0, 1.0), alpha=0.02, window=2, max_iter=60
        )
        for r in completed(recs):
            assert r.grad_evals == r.k

    def test_window_one_matches_a_hand_loop(self, fig1):
        recs = run_incremental_aggregated(
            fig1, (0.3, 0.7), (1.0, -1.0), alpha=0.05, window=1, max_iter=20
        )
        ledger = QueryLedger.for_objectives(2)
        from modescent import gradient

        x = np.array([1.0, -1.0])
        pi = (0.3, 0.7)
        for k in range(1, 21):
            idx = (k - 1) % 2
            assert np.allclose(recs[k - 1].x, x, atol=1e-14)
            x = x - 0.05 * (2.0 * pi[idx]) * gradient(fig1, idx, x, ledger)
        assert np.allclose(recs[-1].x, x, atol=1e-14)

    def test_validation(self, fig1):
        with pytest.raises(ValueError):
            run_incremental_aggregated(fig1, (0.5, 0.5), (0.0, 0.0), alpha=0.0, window=2)
        with pytest.raises(ValueError):
            run_incremental_aggregated(fig1, (0.5, 0.5), (0.0, 0.0), alpha=0.1, window=0)
        with pytest.raises(ValueError):
            run_incremental_aggregated(fig1, (0.7, 0.7), (0.0, 0.0), alpha=0.1, window=2)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.1])
    def test_rejects_bad_alpha_by_name(self, fig1, alpha):
        with pytest.raises(ValueError, match="alpha"):
            run_incremental_aggregated(
                fig1, (0.5, 0.5), (0.0, 0.0), alpha=alpha, window=2
            )


class TestClassifyRun:
    @staticmethod
    def _rec(k, grad, dirn, stop=None, vals=(1.0, 1.0)):
        return IterationRecord(
            k=k,
            x=np.zeros(2),
            alpha=0.1 if stop is None else 0.0,
            dir_norm=dirn,
            objective_values=np.array(vals, dtype=float),
            min_grad_norm=grad,
            ratio_metric=grad / dirn if dirn else float("nan"),
            grad_evals=k,
            fn_evals=0,
            stop_reason=stop,
        )

    def test_hard_triggers(self):
        rec = self._rec
        assert classify_run([rec(1, 1.0, 2.0, stop="NullGradient")]) == (
            "vanishing-gradient"
        )
        assert classify_run([rec(1, 1.0, 2.0, stop="Infeasible")]) == (
            "direction-blowup"
        )
        # crossing the gradient floor wins even on a MaxIter stop
        assert classify_run(
            [rec(1, 1e-7, 2.0), rec(2, 1e-7, 2.0, stop="MaxIter")]
        ) == "vanishing-gradient"
        assert classify_run(
            [rec(1, 1.0, 2e6), rec(2, 1.0, 2e6, stop="MaxIter")]
        ) == "direction-blowup"

    def test_unbounded_requires_crossing_the_floor(self):
        rec = self._rec
        low = [
            rec(1, 1.0, 2.0, vals=(-2e3, -3e3)),
            rec(2, 1.0, 2.0, stop="MaxIter", vals=(-2e3, -3e3)),
        ]
        assert classify_run(low) == "unbounded-decrease"
        mixed = [rec(1, 1.0, 2.0, vals=(-2e3, 5.0), stop="MaxIter")]
        assert classify_run(mixed) != "unbounded-decrease"

    def test_soft_fallback_compares_proximities(self):
        rec = self._rec
        near_vanish = [rec(1, 1e-5, 2.0, stop="MaxIter")]
        assert classify_run(near_vanish) == "vanishing-gradient"
        near_blowup = [rec(1, 0.5, 9e5, stop="MaxIter")]
        assert classify_run(near_blowup) == "direction-blowup"

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            classify_run([])

    def test_duplicated_objective_spikes_the_direction(self, fig1):
        """Stale and fresh copies of one objective straddle its minimizer.

        The two slate entries then nearly oppose, so the central norm
        spikes and the run reads as a direction blow-up.
        """
        dup = MultiObjectiveProblem(
            dimension=2,
            objectives=(fig1.objectives[0], fig1.objectives[0]),
            gradient_fns=(fig1.gradient_fns[0], fig1.gradient_fns[0]),
            lipschitz=(6.0, 6.0),
            lower_bound=0.0,
            name="dup",
        )
        recs = run_incremental_central(
            dup, (1.0, -1.5), StepSchedule.harmonic(1.0), max_iter=400, seed=2
        )
        assert classify_run(recs) == "direction-blowup"
        assert max(r.dir_norm for r in completed(recs)) > 1e4


def opposed_pair(eps):
    """Linear objectives with gradients (1, 0) and (-1, eps) everywhere.

    The unit rows nearly oppose, so the central norm is about 2 / eps at
    every point; the zero Lipschitz constants switch off the field's ratio
    mask and the streamline's margin halt, leaving the norm cap alone.
    """
    rows = np.array([[1.0, 0.0], [-1.0, eps]])
    problem = MultiObjectiveProblem(
        dimension=2,
        objectives=(lambda x: float(rows[0] @ x), lambda x: float(rows[1] @ x)),
        gradient_fns=(lambda x: rows[0].copy(), lambda x: rows[1].copy()),
        lipschitz=(0.0, 0.0),
        name="opposed-pair",
    )
    return problem, rows


@pytest.mark.parametrize("eps, capped", [(1e-6, True), (1e-5, False)])
def test_every_component_caps_the_same_norm(eps, capped):
    """The QP, the field, the streamline, both incremental solvers and
    classify_run agree on which norm is nearly critical: 2e6 is past the
    cap everywhere, 2e5 nowhere."""
    problem, rows = opposed_pair(eps)
    outcome = central_direction(rows)
    assert outcome.kind == DIRECTION
    assert outcome.norm == pytest.approx(2.0 / eps, rel=1e-6)
    assert outcome.norm_capped == capped

    grid = sample_field(problem, ((-1.0, 1.0), (-1.0, 1.0)), 4)
    assert (grid.channels["central_norm"] == outcome.norm).all()
    assert grid.mask.all() if capped else not grid.mask.any()

    points, halt = trace_streamline(problem, (0.0, 0.0), max_steps=3)
    assert (halt, len(points)) == (("norm-cap", 1) if capped else ("max-steps", 4))

    runs = [
        run_incremental_central(
            problem, (0.0, 0.0), StepSchedule.harmonic(),
            slate_init="warm-start", max_iter=3,
        ),
        run_incremental_central_armijo(
            problem, (0.0, 0.0), slate_init="warm-start", max_iter=3
        ),
    ]
    for recs in runs:
        if capped:
            assert [r.stop_reason for r in recs] == ["Infeasible"]
            assert recs[-1].dir_norm == outcome.norm
            assert classify_run(recs) == "direction-blowup"
        else:
            assert recs[-1].stop_reason == "MaxIter"
            assert all(r.dir_norm == outcome.norm for r in completed(recs))

    # classify_run's own cap test ranks before the value floor: a norm past
    # the cap is a blow-up even when every objective has sunk below it
    sinking = dataclasses.replace(
        runs[0][-1], dir_norm=outcome.norm, objective_values=np.full(2, -2e3),
        stop_reason="MaxIter",
    )
    assert classify_run([sinking]) == (
        "direction-blowup" if capped else "unbounded-decrease"
    )


class TestTraceCsv:
    def test_round_trips_a_run(self, fig1, tmp_path):
        recs = run_incremental_central(
            fig1, (1.5, 1.0), StepSchedule.harmonic(0.5), max_iter=20
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(recs, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(recs)
        assert set(rows[0]) == {
            "k", "x0", "x1", "alpha", "dir_norm", "f0", "f1",
            "min_grad_norm", "ratio_metric", "grad_evals", "fn_evals",
            "stop_reason",
        }
        # 17 significant digits round-trip exactly
        assert float(rows[3]["x0"]) == recs[3].x[0]
        assert float(rows[3]["alpha"]) == recs[3].alpha
        assert rows[-1]["stop_reason"] == recs[-1].stop_reason
        assert rows[0]["stop_reason"] == ""

    def test_empty_run_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace_csv([], str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("stop", ["MaxIter", "LineSearchStall", None])
    def test_matches_the_csv_module_byte_for_byte(self, tmp_path, stop):
        rng = np.random.default_rng(5)
        shapes = [(m, int(rng.integers(1, 13))) for m in range(1, 13)]
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        for m, n in shapes + [(12, 12)]:
            recs = synthetic_records(rng, m, n, count=6, stop=stop)
            write_trace_csv(recs, str(fast))
            reference_trace_csv(recs, str(slow))
            assert fast.read_bytes() == slow.read_bytes(), (m, n)


# every float the trace can hold that a formatter could get wrong
SPECIAL_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.5e308,
    -1.5e308, 1e-5, 0.1, 1.0 / 3.0, 1e16, 123456789.0,
)


def synthetic_records(rng, m, n, count, stop):
    """``count`` records of an m-objective, n-dimensional run, with a mix of
    special and random floats, as Python and as numpy floats; the last one
    carries ``stop`` as its stop reason."""

    def floats(size):
        v = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
        pick = rng.random(size) < 0.4
        v[pick] = rng.choice(SPECIAL_FLOATS, size=int(pick.sum()))
        return v

    recs = []
    for k in range(1, count + 1):
        scalars = floats(4)
        recs.append(
            IterationRecord(
                k=k,
                x=floats(n),
                alpha=float(scalars[0]),
                dir_norm=scalars[1],
                objective_values=floats(m),
                min_grad_norm=float(scalars[2]),
                ratio_metric=scalars[3],
                grad_evals=2 * k,
                fn_evals=int(rng.integers(0, 10**6)),
                stop_reason=stop if k == count else None,
            )
        )
    return recs


def reference_trace_csv(records, path):
    """The trace writer as ``csv.writer`` rows of ``format(v, ".17g")``."""

    def fmt(value):
        return format(float(value), ".17g")

    n = records[0].x.size
    m = records[0].objective_values.size
    header = (
        ["k"]
        + [f"x{d}" for d in range(n)]
        + ["alpha", "dir_norm"]
        + [f"f{i}" for i in range(m)]
        + ["min_grad_norm", "ratio_metric", "grad_evals", "fn_evals", "stop_reason"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            writer.writerow(
                [str(r.k)]
                + [fmt(v) for v in r.x]
                + [fmt(r.alpha), fmt(r.dir_norm)]
                + [fmt(v) for v in r.objective_values]
                + [fmt(r.min_grad_norm), fmt(r.ratio_metric)]
                + [str(r.grad_evals), str(r.fn_evals), r.stop_reason or ""]
            )


class TestLedgerProperty:
    """Ledger exactness of both incremental solvers over random problems."""

    def test_queries_per_record(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(
            st.integers(2, 12),
            st.integers(1, 20),
            st.integers(0, 2**16),
            st.sampled_from(["random-unit", "warm-start"]),
        )
        def check(m, n, seed, slate_init):
            problem = make_random_quadratic_family(m, n, seed)
            x0 = np.full(n, 3.0)
            kwargs = dict(seed=seed, slate_init=slate_init, max_iter=25)
            armijo = run_incremental_central_armijo(problem, x0, **kwargs)
            plain = run_incremental_central(
                problem, x0, StepSchedule.harmonic(), **kwargs
            )
            # warm-start queries every gradient once before the first step
            up_front = m if slate_init == "warm-start" else 0
            for records, line_search in ((armijo, True), (plain, False)):
                grads, fns = up_front, 0
                for r in records:
                    new_grads, new_fns = r.grad_evals - grads, r.fn_evals - fns
                    grads, fns = r.grad_evals, r.fn_evals
                    if r.stop_reason is not None:
                        continue
                    if line_search:
                        # the pair (j, t); f_j's baseline, at least one
                        # trial and the probe of the next t
                        assert new_grads == 2
                        assert new_fns >= 3
                    else:
                        assert (new_grads, new_fns) == (1, 0)
                if not line_search:
                    assert fns == 0

        check()


def per_query_diagnostics(problem, x):
    """The per-objective reference for a record's diagnostics: m single
    value queries and m single gradient queries, raw norms."""
    ledger = QueryLedger.for_objectives(problem.num_objectives)
    m = problem.num_objectives
    values = np.array([evaluate(problem, i, x, ledger) for i in range(m)])
    norms = [np.linalg.norm(gradient(problem, i, x, ledger)) for i in range(m)]
    return values, float(min(norms))


class TestStackedDiagnostics:
    @pytest.mark.parametrize("seed", range(8))
    def test_armijo_records_match_the_per_query_diagnostics(self, seed):
        problem = problem_from_name(f"random-quadratic:10,20,{seed}")
        x0 = np.zeros(problem.dimension)
        recs = run_incremental_central_armijo(problem, x0, max_iter=150)
        loop = dataclasses.replace(problem, stacked=None)
        loop_recs = run_incremental_central_armijo(loop, x0, max_iter=150)
        bare = run_incremental_central_armijo(
            problem, x0, max_iter=150, diagnostics=False
        )
        assert len(recs) == len(loop_recs) == len(bare)
        for r, q, b in zip(recs, loop_recs, bare):
            values, min_grad = per_query_diagnostics(problem, r.x)
            assert np.array_equal(r.objective_values, values)
            assert abs(r.min_grad_norm - min_grad) <= 1e-15 * min_grad
            # the stacked path changes neither the run nor its accounting
            assert np.array_equal(r.x, q.x) and np.array_equal(r.x, b.x)
            assert np.array_equal(r.objective_values, q.objective_values)
            assert r.min_grad_norm == q.min_grad_norm
            assert r.stop_reason == q.stop_reason == b.stop_reason
            assert (r.grad_evals, r.fn_evals) == (q.grad_evals, q.fn_evals)
            assert (r.grad_evals, r.fn_evals) == (b.grad_evals, b.fn_evals)

    def test_tiny_gradients_keep_their_norm(self):
        # objective 0 is scaled by 1e-300: its gradient norm is about 1e-300,
        # representable, and must not read as 0
        kw = dict(slate_init="warm-start")
        fig1 = problem_from_name("figure1")
        ref = run_incremental_central(fig1, (1.5, 1.0), StepSchedule.harmonic(), **kw)
        tiny = run_incremental_central(
            problem_from_name("figure1-scaled:1e-300,1"),
            (1.5, 1.0),
            StepSchedule.harmonic(),
            **kw,
        )
        assert len(tiny) == len(ref) == 83
        ledger = QueryLedger.for_objectives(2)
        for a, b in zip(tiny, ref):
            g0, g1 = (gradient(fig1, i, b.x, ledger) for i in range(2))
            expected = min(1e-300 * np.linalg.norm(g0), np.linalg.norm(g1))
            assert a.min_grad_norm > 0.0
            assert abs(a.min_grad_norm - expected) <= 1e-12 * expected
            if a.stop_reason is None:
                assert a.ratio_metric > 0.0

    def test_full_steepest_terminal_record_uses_the_diagnostics(self):
        problem = problem_from_name("random-quadratic:3,3,61")
        recs = run_full_steepest(problem, np.ones(3), max_iter=5)
        term = recs[-1]
        values, min_grad = per_query_diagnostics(problem, term.x)
        assert term.stop_reason == "MaxIter"
        assert np.array_equal(term.objective_values, values)
        assert abs(term.min_grad_norm - min_grad) <= 1e-15 * min_grad
        assert term.grad_evals == 3 * 5



class TestUnqueriedCertificates:
    """A criticality verdict stops a run only when every slate row it gives
    weight to has been queried; the random-unit fill is not a gradient."""

    @staticmethod
    def spy(monkeypatch):
        queried, calls = set(), []
        real_gradient, real_central = solvers.gradient, solvers.central_direction

        def gradient_spy(problem, i, x, ledger):
            queried.add(i)
            return real_gradient(problem, i, x, ledger)

        def central_spy(slate, **kwargs):
            out = real_central(slate, **kwargs)
            calls.append((len(slate), set(queried), out))
            return out

        monkeypatch.setattr(solvers, "gradient", gradient_spy)
        monkeypatch.setattr(solvers, "central_direction", central_spy)
        return calls

    @staticmethod
    def check_run(records, calls, m, per_iter):
        last = records[-1]
        started = last.k - (last.stop_reason == "MaxIter")
        for r in records:
            assert r.grad_evals == per_iter * min(r.k, started)
        if last.stop_reason != "Infeasible":
            return
        rows, queried, out = calls[-1]
        if rows < m:  # the solve over the queried rows alone
            assert rows == len(queried)
        elif out.kind == directions.INFEASIBLE:
            assert set(np.flatnonzero(out.certificate > 0.0)) <= queried
        else:
            assert set(out.active_set) <= queried

    def run(self, algo, problem, x0, max_iter):
        if algo == "icd":
            return run_incremental_central(
                problem, x0, StepSchedule.harmonic(), max_iter=max_iter
            )
        return run_incremental_central_armijo(problem, x0, max_iter=max_iter)

    @pytest.mark.parametrize("algo", ["icd", "icd-armijo"])
    def test_wide_slate_does_not_stop_at_the_first_iteration(self, monkeypatch, algo):
        # the 40 random unit rows put 0 in their hull: the old verdict
        # stopped this run Infeasible at k = 1, far from critical
        problem = problem_from_name("random-quadratic:40,10,0")
        calls = self.spy(monkeypatch)
        records = self.run(algo, problem, np.full(10, 3.0), 300)
        assert records[-1].k > 20
        assert any(rows < 40 for rows, _, _ in calls)
        self.check_run(records, calls, 40, 1 if algo == "icd" else 2)

    @pytest.mark.parametrize("algo", ["icd", "icd-armijo"])
    def test_no_stop_on_unqueried_rows_when_m_exceeds_n(self, monkeypatch, algo):
        partial = 0
        for m, n in ((4, 2), (6, 3), (12, 4), (20, 6)):
            for seed in range(3):
                problem = make_random_quadratic_family(m, n, seed)
                calls = self.spy(monkeypatch)
                records = self.run(algo, problem, np.full(n, 2.0), 150)
                self.check_run(records, calls, m, 1 if algo == "icd" else 2)
                partial += any(rows < m for rows, _, _ in calls)
        assert partial > 0
