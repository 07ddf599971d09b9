"""End-to-end verification battery.

Each test exercises one release gate and reports a single summary line
through the ``acceptance`` fixture (replayed after the session, see
conftest). Lines are recorded before the assertions run so a failing
gate still shows up as FAIL in the summary instead of vanishing.

Randomized gates use fixed generator seeds; thresholds come from the
guarantees the library documents plus a small float allowance.
"""

import math

import numpy as np
import pytest

from modescent import (
    DIRECTION,
    MultiObjectiveProblem,
    QueryLedger,
    alignment_gap,
    brute_force_central,
    central_direction,
    classify_run,
    descent_margin,
    evaluate,
    evaluate_all,
    exterior_perturbation_margin,
    figure1_efficient_curve,
    gradient_all,
    interior_perturbation_margin,
    make_figure1_problem,
    make_random_quadratic_family,
    make_scaled_variant,
    make_unbounded_linear_problem,
    perturbation_margin,
    rate_bound_margins,
    run_full_steepest,
    run_incremental_aggregated,
    run_incremental_central,
    run_incremental_central_armijo,
    sample_field,
    steepest_direction,
    trace_streamline,
)
from modescent.solvers import StepSchedule

BOX = ((-3.0, 1.0), (-3.0, 1.0))


def completed(records):
    return [r for r in records if r.stop_reason is None]


def project_rows_to_simplex(v):
    # rowwise Euclidean projection onto the probability simplex
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, v.shape[1] + 1)
    rho = ((u - css / idx) > 0).sum(axis=1)
    theta = css[np.arange(v.shape[0]), rho - 1] / rho
    return np.maximum(v - theta[:, None], 0.0)


def hull_norm_upper(slates):
    """Batched upper bound on the hull min-norm of each (m, n) slate.

    Projected gradient on the simplex; any feasible iterate gives an
    upper bound, which is the safe side for certifying that the hull
    stays farther than 1/R from the origin.
    """
    bsz, m, _ = slates.shape
    gram = np.einsum("bij,bkj->bik", slates, slates)
    lam = np.full((bsz, m), 1.0 / m)
    step = 1.0 / np.maximum(np.einsum("bii->b", gram), 1e-12)
    for _ in range(400):
        grad = 2.0 * np.einsum("bik,bk->bi", gram, lam)
        lam = project_rows_to_simplex(lam - step[:, None] * grad)
    combo = np.einsum("bi,bij->bj", lam, slates)
    return np.linalg.norm(combo, axis=1)


def armijo_grid_problems(x0_family):
    problems = [(make_figure1_problem(), np.array([1.5, 1.0]))]
    for i in range(20):
        m = (2, 5, 10)[i % 3]
        fam = make_random_quadratic_family(m, 3, seed=900 + i)
        problems.append((fam, x0_family.copy()))
    return problems


def test_criterion_1_direction_solver_matches_oracle(acceptance):
    """QP agrees with the planar brute-force search and satisfies KKT."""
    rng = np.random.default_rng(101)
    kept = mismatches = direction_cases = 0
    max_offset = 0.0
    while kept < 200:
        m = int(rng.integers(1, 7))
        slate = rng.normal(size=(m, 2)) * rng.uniform(0.5, 3.0)
        try:
            ref = brute_force_central(slate)
        except ValueError:
            # near-critical or out-of-box draw; redraw
            continue
        kept += 1
        out = central_direction(slate)
        if out.kind != ref.kind:
            mismatches += 1
            continue
        if out.kind == DIRECTION:
            direction_cases += 1
            off = np.linalg.norm(out.vector - ref.vector) / ref.finest_step
            max_offset = max(max_offset, off)

    rng = np.random.default_rng(202)
    checked = 0
    max_residual = 0.0
    while checked < 200:
        m = int(rng.integers(2, 21))
        n = int(rng.integers(2, 11))
        slate = rng.normal(size=(m, n)) * rng.uniform(0.3, 3.0)
        out = central_direction(slate)
        if out.kind != DIRECTION or out.norm > 30.0:
            continue
        checked += 1
        max_residual = max(max_residual, out.kkt_residual)

    ok = mismatches == 0 and max_offset <= 5.0 and max_residual <= 1e-8
    acceptance(
        1,
        ok,
        "oracle agreement 200/200 planar slates (%d direction cases, max "
        "offset %.2f finest steps); max KKT residual %.2e over 200 slates"
        % (direction_cases, max_offset, max_residual),
    )
    assert mismatches == 0
    assert max_offset <= 5.0
    assert max_residual <= 1e-8


def test_criterion_2_central_direction_maximizes_margin(acceptance):
    """No sampled unit vector in the descent cone beats the QP output."""
    rng = np.random.default_rng(303)
    instances = 0
    min_gap = math.inf
    max_norm_mismatch = 0.0
    while instances < 100:
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        slate = rng.normal(size=(m, n))
        out = central_direction(slate)
        # skip nearly-critical slates whose cone is too thin to sample
        if out.kind != DIRECTION or out.norm > 1.0 / 0.15:
            continue
        instances += 1
        star = descent_margin(slate, out.vector / out.norm)
        max_norm_mismatch = max(max_norm_mismatch, abs(star - 1.0 / out.norm))
        norms = np.linalg.norm(slate, axis=1)
        best = -math.inf
        found = 0
        while found < 1000:
            batch = rng.normal(size=(4000, n))
            batch /= np.linalg.norm(batch, axis=1)[:, None]
            margins = (-(batch @ slate.T) / norms).min(axis=1)
            pos = margins[margins > 0.0]
            take = pos[: 1000 - found]
            found += take.size
            if take.size:
                best = max(best, float(take.max()))
        min_gap = min(min_gap, star - best)

    ok = min_gap >= -1e-9 and max_norm_mismatch <= 1e-9
    acceptance(
        2,
        ok,
        "central margin beats 1000 sampled cone directions on 100 "
        "instances (min lead %.2e); margin equals 1/norm within %.1e"
        % (min_gap, max_norm_mismatch),
    )
    assert min_gap >= -1e-9
    assert max_norm_mismatch <= 1e-9


def test_criterion_3_scale_invariance(acceptance):
    """Per-objective rescaling moves steepest descent but not the QP."""
    rng = np.random.default_rng(404)
    scales = np.array([1e-3, 1.0, 1e3])
    max_central_rel = 0.0
    min_steepest_angle = math.inf
    picked = 0
    for j in range(25):
        m = 2 + (j + 1) % 4
        fam = make_random_quadratic_family(m, 3, seed=1000 + j)
        ledger = QueryLedger.for_objectives(m)
        slate = values = vs = None
        for _ in range(40):
            x = rng.uniform(-1.5, 1.5, 3)
            cand = gradient_all(fam, x, ledger)
            out = central_direction(cand)
            if out.kind != DIRECTION or np.linalg.norm(cand, axis=1).min() <= 1e-6:
                continue
            vs_try, _ = steepest_direction(cand)
            unit = cand / np.linalg.norm(cand, axis=1)[:, None]
            vhat = vs_try / np.linalg.norm(vs_try)
            # a vertex solution (parallel to one -g_i) is robust to
            # rescaling, so it cannot witness the sensitivity half
            if (unit @ -vhat).max() > 1.0 - 1e-6:
                continue
            slate, vs = cand, vs_try
            values = evaluate_all(fam, x, ledger)
            break
        assert slate is not None, "no usable instance for seed %d" % j
        picked += 1
        base = central_direction(slate)
        best_angle = 0.0
        for _ in range(6):
            kappa = rng.choice(scales, size=m)
            if np.all(kappa == kappa[0]):
                kappa[0] = 1e-3 if kappa[0] != 1e-3 else 1e3
            scaled = slate * kappa[:, None]
            out2 = central_direction(scaled)
            rel = np.linalg.norm(out2.vector - base.vector) / base.norm
            max_central_rel = max(max_central_rel, rel)
            vs2, _ = steepest_direction(scaled)
            cosine = np.dot(vs, vs2) / (np.linalg.norm(vs) * np.linalg.norm(vs2))
            best_angle = max(best_angle, math.acos(min(1.0, max(-1.0, cosine))))
        # composing each objective with exp rescales its gradient by
        # the positive factor e^{f_i(x)}
        factors = np.exp(values)
        out3 = central_direction(slate * factors[:, None])
        rel = np.linalg.norm(out3.vector - base.vector) / base.norm
        max_central_rel = max(max_central_rel, rel)
        min_steepest_angle = min(min_steepest_angle, best_angle)

    ok = picked == 25 and max_central_rel <= 1e-9 and min_steepest_angle > 1e-3
    acceptance(
        3,
        ok,
        "central drift <= %.1e under {1e-3,1,1e3} scalings and exp "
        "composition on 25 seeds; steepest turns by >= %.3f rad per seed"
        % (max_central_rel, min_steepest_angle),
    )
    assert picked == 25
    assert max_central_rel <= 1e-9
    assert min_steepest_angle > 1e-3


def test_criterion_4_armijo_respects_step_floor(acceptance):
    """Accepted Armijo steps never fall below the advertised floor."""
    problems = armijo_grid_problems(0.8 * np.ones(3))
    min_margin = math.inf
    total = 0
    for prob, x0 in problems:
        for j, beta in enumerate((0.1, 0.5, 0.9)):
            records = run_incremental_central_armijo(prob, x0, beta=beta, seed=j)
            for rec in completed(records):
                min_margin = min(min_margin, rec.alpha - rec.step_floor)
                total += 1

    ok = total >= 1000 and min_margin >= -1e-12
    acceptance(
        4,
        ok,
        "%d accepted steps across 21 problems x 3 beta values; min "
        "(alpha - floor) = %+.2e" % (total, min_margin),
    )
    assert total >= 1000
    assert min_margin >= -1e-12


def test_criterion_5_running_ratio_obeys_rate_bound(acceptance):
    """The running-min ratio stays under the O(1/sqrt(k)) envelope."""
    problems = armijo_grid_problems(0.8 * np.ones(3))
    min_margin = math.inf
    runs = total = 0
    for prob, x0 in problems:
        # warm start so the first slate holds real gradients and every
        # run completes at least one accepted step
        records = run_incremental_central_armijo(
            prob, x0, beta=0.5, seed=0, slate_init="warm-start", max_iter=2000
        )
        steps = completed(records)
        if not steps:
            continue
        runs += 1
        total += len(steps)
        ledger = QueryLedger.for_objectives(len(prob.objectives))
        f1_start = evaluate(prob, 0, x0, ledger)
        margins = rate_bound_margins(
            [r.ratio_metric for r in steps],
            f1_start,
            prob.lower_bound,
            0.5,
            max(prob.lipschitz),
        )
        min_margin = min(min_margin, min(margins))

    ok = runs == 21 and total >= 200 and min_margin >= -1e-9
    acceptance(
        5,
        ok,
        "rate bound holds at all %d iterations of %d runs; min bound "
        "slack %.3f" % (total, runs, min_margin),
    )
    assert runs == 21
    assert total >= 200
    assert min_margin >= -1e-9


def test_criterion_6_query_ledger_counts(acceptance):
    """Gradient budgets: k incremental, 2k line-searched, m*k full."""
    sched = StepSchedule.parse("harmonic:0.5")
    failures = []

    for m, n, init in ((2, 2, "random-unit"), (5, 5, "random-unit"),
                       (10, 5, "warm-start"), (50, 5, "warm-start")):
        fam = make_random_quadratic_family(m, n, seed=40 + m)
        x0 = np.zeros(n) if init == "random-unit" else 6.0 * np.ones(n)
        records = run_incremental_central(
            fam, x0, sched, slate_init=init, seed=3, max_iter=200
        )
        steps = completed(records)
        warm_extra = m if init == "warm-start" else 0
        if records[-1].stop_reason != "MaxIter" or len(steps) != 200:
            failures.append("icd m=%d run shape" % m)
        if not all(r.grad_evals == r.k + warm_extra for r in steps):
            failures.append("icd m=%d gradient count" % m)
        if not all(r.fn_evals == 0 for r in steps):
            failures.append("icd m=%d function count" % m)

    for m, seed, init in ((2, 67, "random-unit"), (5, 68, "random-unit"),
                          (10, 60, "warm-start"), (50, 60, "warm-start")):
        n = 3 if init == "random-unit" else 5
        fam = make_random_quadratic_family(m, n, seed=seed)
        x0 = 0.8 * np.ones(n) if init == "random-unit" else 6.0 * np.ones(n)
        records = run_incremental_central_armijo(
            fam, x0, beta=0.5, seed=0, slate_init=init
        )
        steps = completed(records)
        warm_extra = m if init == "warm-start" else 0
        if not steps:
            failures.append("armijo m=%d empty" % m)
            continue
        if not all(r.grad_evals == 2 * r.k + warm_extra for r in steps):
            failures.append("armijo m=%d gradient count" % m)
        deltas = {
            b.grad_evals - a.grad_evals for a, b in zip(steps, steps[1:])
        }
        if deltas - {2}:
            failures.append("armijo m=%d per-step delta" % m)

    for m in (2, 5, 10, 50):
        fam = make_random_quadratic_family(m, 5, seed=40 + m)
        records = run_full_steepest(fam, 6.0 * np.ones(5), beta=0.5, max_iter=30)
        steps = completed(records)
        if records[-1].stop_reason != "MaxIter" or len(steps) != 30:
            failures.append("steepest m=%d run shape" % m)
        if not all(r.grad_evals == m * r.k for r in steps):
            failures.append("steepest m=%d gradient count" % m)

    for m in (2, 5, 10, 50):
        fam = make_random_quadratic_family(m, 5, seed=40 + m)
        records = run_incremental_aggregated(
            fam, [1.0 / m] * m, np.zeros(5), alpha=0.02, window=m, max_iter=100
        )
        steps = completed(records)
        if records[-1].stop_reason != "MaxIter" or len(steps) != 100:
            failures.append("aggregated m=%d run shape" % m)
        if not all(r.grad_evals == r.k and r.fn_evals == 0 for r in steps):
            failures.append("aggregated m=%d counts" % m)

    ok = not failures
    acceptance(
        6,
        ok,
        "ledger exact for m in {2,5,10,50}: incremental k (+m warm), "
        "line-searched 2k (+m warm, delta always 2), full m*k, "
        "aggregated k" if ok else "ledger mismatches: " + "; ".join(failures),
    )
    assert not failures


def test_criterion_7_divergence_trichotomy(acceptance):
    """Every divergent run lands in exactly one of the three branches."""
    labels = []

    for seed in (11, 12, 13):
        prob = make_unbounded_linear_problem(3, 4, seed=seed)
        records = run_incremental_central(
            prob, np.zeros(4), StepSchedule.parse("powerlaw:2,0.1"),
            max_iter=2000, seed=0,
        )
        labels.append(("linear", classify_run(records)))

    fig = make_figure1_problem()
    for x0, seed in (((-2.0, 0.0), 0), ((0.0, -2.0), 1)):
        records = run_incremental_central(
            fig, np.array(x0), StepSchedule.parse("harmonic:1"),
            max_iter=2000, seed=seed,
        )
        labels.append(("minimizer", classify_run(records)))

    # two identical objectives keep the bisector QP growing without
    # bound while the iterate slides along the shared valley
    f0, g0 = fig.objectives[0], fig.gradient_fns[0]
    dup = MultiObjectiveProblem(
        dimension=2, objectives=(f0, f0), gradient_fns=(g0, g0),
        lipschitz=(6.0, 6.0), lower_bound=0.0, name="duplicated",
    )
    for seed in (2, 3):
        records = run_incremental_central(
            dup, np.array([1.0, -1.5]), StepSchedule.parse("harmonic:1"),
            max_iter=400, seed=seed,
        )
        labels.append(("duplicated", classify_run(records)))

    rng = np.random.default_rng(777)
    for i in range(43):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        fam = make_random_quadratic_family(m, n, seed=500 + i)
        sched = "harmonic:0.5" if i % 2 == 0 else "powerlaw:1,0.6"
        init = "warm-start" if i % 3 == 0 else "random-unit"
        x0 = rng.uniform(-2.0, 2.0, n)
        records = run_incremental_central(
            fam, x0, StepSchedule.parse(sched), max_iter=300,
            seed=int(rng.integers(0, 1000)), slate_init=init,
        )
        labels.append(("bounded", classify_run(records)))

    known = {"vanishing-gradient", "direction-blowup", "unbounded-decrease"}
    all_known = all(lab in known for _, lab in labels)
    linear_ok = all(lab == "unbounded-decrease" for grp, lab in labels if grp == "linear")
    minim_ok = all(lab == "vanishing-gradient" for grp, lab in labels if grp == "minimizer")
    dup_ok = all(lab == "direction-blowup" for grp, lab in labels if grp == "duplicated")
    bounded_ok = all(
        lab != "unbounded-decrease" for grp, lab in labels if grp == "bounded"
    )

    ok = all_known and linear_ok and minim_ok and dup_ok and bounded_ok
    acceptance(
        7,
        ok,
        "50 runs classified: 3 unbounded-decrease (linear), 2 "
        "vanishing-gradient (individual minimizers), 2 direction-blowup "
        "(duplicated objectives), 43 bounded runs never unbounded",
    )
    assert all_known
    assert linear_ok and minim_ok and dup_ok and bounded_ok


def test_criterion_8_perturbation_margins_are_safe(acceptance):
    """Sub-margin perturbations never flip the certified verdicts."""
    rng = np.random.default_rng(808)
    radii = (0.5, 1.0, 2.0)
    instances = flagged_total = ball_violations = 0
    while instances < 50:
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        slate = rng.normal(size=(m, n)) * rng.uniform(0.3, 2.0)
        radius = radii[instances % 3]
        gap = alignment_gap(slate, radius)
        if gap <= -1.0 + 1e-3:
            continue
        margin = perturbation_margin(slate, radius)
        instances += 1
        deltas = rng.normal(size=(500, m, n))
        deltas /= np.linalg.norm(deltas, axis=2, keepdims=True)
        deltas *= (0.99 * margin * rng.uniform(0.0, 1.0, (500, m)))[:, :, None]
        perturbed = slate[None] + deltas
        unit = perturbed / np.linalg.norm(perturbed, axis=2, keepdims=True)
        # infeasible within radius R iff the normalized hull stays
        # strictly inside distance 1/R of the origin
        upper = hull_norm_upper(unit)
        for b in np.where(upper >= 1.0 / radius)[0]:
            flagged_total += 1
            if alignment_gap(perturbed[b], radius) <= -1.0:
                ball_violations += 1

    rng = np.random.default_rng(909)
    instances = interior_violations = exterior_violations = 0
    while instances < 50:
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        slate = rng.normal(size=(m, n)) * rng.uniform(0.3, 2.0)
        out = central_direction(slate)
        if out.kind != DIRECTION or out.norm > 100.0:
            continue
        instances += 1
        v_int = 1.5 * out.vector
        eps_int = interior_perturbation_margin(slate, v_int)
        deltas = rng.normal(size=(500, m, n))
        deltas /= np.linalg.norm(deltas, axis=2, keepdims=True)
        deltas *= (0.99 * eps_int * rng.uniform(0.0, 1.0, (500, m)))[:, :, None]
        perturbed = slate[None] + deltas
        unit = perturbed / np.linalg.norm(perturbed, axis=2, keepdims=True)
        worst = np.einsum("bij,j->bi", unit, v_int).max(axis=1)
        interior_violations += int((worst > -1.0).sum())

        v_ext = -v_int
        eps_ext, witness = exterior_perturbation_margin(slate, v_ext)
        deltas = rng.normal(size=(500, n))
        deltas /= np.linalg.norm(deltas, axis=1, keepdims=True)
        deltas *= (0.99 * eps_ext * rng.uniform(0.0, 1.0, 500))[:, None]
        pert_w = slate[witness][None] + deltas
        unit_w = pert_w / np.linalg.norm(pert_w, axis=1, keepdims=True)
        exterior_violations += int((unit_w @ v_ext <= -1.0).sum())

    sweep_err = abs(alignment_gap(np.eye(2), 1.0) + 1.0 / math.sqrt(2.0))

    ok = (
        ball_violations == 0
        and interior_violations == 0
        and exterior_violations == 0
        and sweep_err <= 1e-12
    )
    acceptance(
        8,
        ok,
        "0 verdict flips over 3 x 50 x 500 sub-margin perturbations "
        "(%d slates needed the exact fallback); orthonormal gap matches "
        "-1/sqrt(2) to %.1e" % (flagged_total, sweep_err),
    )
    assert ball_violations == 0
    assert interior_violations == 0
    assert exterior_violations == 0
    assert sweep_err <= 1e-12


def test_criterion_9_field_mask_and_streamlines(acceptance):
    """The sampled field localizes the efficient set and flows onto it."""
    fig = make_figure1_problem()
    curve = figure1_efficient_curve(2048)

    grid = sample_field(fig, BOX, 120)
    h = 4.0 / 119.0
    iy, ix = np.where(grid.mask)
    masked = np.stack([grid.xs[ix], grid.ys[iy]], axis=1)
    d_mask_to_curve = np.sqrt(
        ((masked[:, None, :] - curve[None]) ** 2).sum(-1)
    ).min(1).max()
    d_curve_to_mask = np.sqrt(
        ((curve[:, None, :] - masked[None]) ** 2).sum(-1)
    ).min(1).max()

    scaled = make_scaled_variant(fig, (1.0, 10.0))
    g1 = sample_field(fig, BOX, 60)
    g2 = sample_field(scaled, BOX, 60)
    masks_equal = np.array_equal(g1.mask, g2.mask)
    c1, c2 = g1.channels["central_norm"], g2.channels["central_norm"]
    both = np.isfinite(c1) & np.isfinite(c2)
    central_rel = float(
        (np.abs(c1[both] - c2[both]) / np.maximum(1.0, np.abs(c1[both]))).max()
    )
    s1, s2 = g1.channels["steepest_value"], g2.channels["steepest_value"]
    both_s = np.isfinite(s1) & np.isfinite(s2)
    steepest_frac = float(
        (np.abs(s1[both_s] - s2[both_s])
         > 1e-6 * np.maximum(1.0, np.abs(s1[both_s]))).mean()
    )

    p1, halt1 = trace_streamline(fig, np.array([0.5, 0.5]), step=0.01, max_steps=300)
    p2, halt2 = trace_streamline(scaled, np.array([0.5, 0.5]), step=0.01, max_steps=300)
    stream_invariant = (
        halt1 == halt2 and len(p1) == len(p2) and np.abs(p1 - p2).max() <= 1e-9
    )

    rng = np.random.default_rng(20240613)
    max_terminal = 0.0
    halts = []
    for _ in range(10):
        x0 = rng.uniform(-2.8, 0.8, 2)
        points, halt = trace_streamline(fig, x0, step=0.01, max_steps=2000)
        halts.append(halt)
        dist = np.sqrt(((points[-1][None] - curve) ** 2).sum(-1)).min()
        max_terminal = max(max_terminal, dist)
    all_halted = all(h != "max-steps" for h in halts)

    ok = (
        d_mask_to_curve <= math.sqrt(2.0) * h
        and d_curve_to_mask <= math.sqrt(2.0) * h
        and masks_equal
        and central_rel <= 1e-9
        and steepest_frac > 0.5
        and stream_invariant
        and all_halted
        and max_terminal <= 0.05
    )
    acceptance(
        9,
        ok,
        "mask traces the efficient curve within %.2f/%.2f cells both "
        "ways at res 120; scaling leaves mask and central channel fixed "
        "(rel %.1e) while steepest moves on %.0f%% of cells; 10 "
        "streamlines halt within %.4f of the curve"
        % (
            d_mask_to_curve / h,
            d_curve_to_mask / h,
            central_rel,
            100.0 * steepest_frac,
            max_terminal,
        ),
    )
    assert d_mask_to_curve <= math.sqrt(2.0) * h
    assert d_curve_to_mask <= math.sqrt(2.0) * h
    assert masks_equal
    assert central_rel <= 1e-9
    assert steepest_frac > 0.5
    assert stream_invariant
    assert all_halted
    assert max_terminal <= 0.05
