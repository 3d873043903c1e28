import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtr

import cogopt
from cogopt import optimizers as opt
from cogopt.errors import ConfigError, SingularCovariance

UNIT = (0.0, 1.0)
SYM = (-1.0, 1.0)


def sphere(x):
    return float(np.sum(x * x))


def problem(f, bounds, budget):
    return opt.OptProblem(objective=f, bounds=bounds, budget=budget)


class TestMeteredObjective:
    def test_budget_enforced(self):
        p = problem(sphere, UNIT, 3)
        f = opt.MeteredObjective(p)
        for _ in range(3):
            f(0.5)
        with pytest.raises(opt.BudgetExhausted):
            f(0.5)

    @pytest.mark.parametrize("x", [1.5, -0.5, float("nan")])
    def test_bounds_enforced(self, x):
        f = opt.MeteredObjective(problem(sphere, UNIT, 5))
        with pytest.raises(opt.OutOfBounds):
            f(x)
        assert f.evals == 0

    def test_trace_is_best_so_far(self):
        f = opt.MeteredObjective(problem(sphere, SYM, 5))
        for x in (0.9, -0.5, 0.7, 0.1):
            f(x)
        assert f.trace == [pytest.approx(v) for v in (0.81, 0.25, 0.25, 0.01)]


class TestRandomSearch:
    def test_single_sample_matches_seed(self):
        seed = 123
        res = opt.random_search(problem(lambda x: x, UNIT, 1), seed)
        rng = np.random.default_rng(seed)
        expected = rng.uniform(0.0, 1.0)
        assert res.best_y == pytest.approx(expected)

    def test_exhausts_budget(self):
        res = opt.random_search(problem(sphere, UNIT, 17), 0)
        assert res.evals_used == 17
        assert len(res.trace) == 17

    def test_sphere_analytic_bound(self):
        # P(all 100 samples miss [-0.1, 0.1]) = 0.9^100, so ~100% of seeds hit
        hits = sum(
            opt.random_search(problem(sphere, SYM, 100), s).best_y < 0.01
            for s in range(100)
        )
        assert hits >= 95

    def test_memory_constant(self):
        res = opt.random_search(problem(sphere, SYM, 30), 1)
        assert np.all(res.mem_trace == res.mem_trace[0])


class TestHillClimber:
    def test_quadratic_optimum(self):
        res = opt.hill_climber(problem(lambda x: (x - 0.3) ** 2, UNIT, 60), 0)
        assert abs(res.best_x - 0.3) < 1e-3

    def test_start_at_optimum_converges_immediately(self):
        x0 = np.random.default_rng(0).uniform(0, 1)  # seed 0's first start point
        calls = []

        def f(x):
            calls.append(x)
            return (x - x0) ** 2

        opt.hill_climber(problem(f, UNIT, 60), 0)
        # first inner loop: one evaluation plus one gradient stencil, then restart
        assert calls[0] == x0
        restarts = [i for i, x in enumerate(calls) if abs(x - x0) > 1e-3]
        assert restarts and restarts[0] <= 3

    def test_boundary_optimum(self):
        res = opt.hill_climber(problem(lambda x: x, UNIT, 60), 2)
        assert res.best_x <= 1e-6

    def test_nan_region_is_left_for_a_fresh_start(self):
        # NaN on part of the range makes the gradient NaN; the climber must
        # restart instead of stepping to x = NaN
        seen = []

        def f(x):
            seen.append(x)
            return float("nan") if x > 0.5 else (x - 0.3) ** 2

        res = opt.hill_climber(problem(f, UNIT, 60), 1)
        assert res.evals_used == len(seen) == 60
        assert all(0.0 <= x <= 1.0 for x in seen)
        assert abs(res.best_x - 0.3) < 1e-3

    @pytest.mark.parametrize("budget", [13, 16, 20])
    def test_last_evaluation_is_spent_on_a_fresh_point(self, budget):
        # seed 0 on the sphere ends these budgets with one evaluation left,
        # too few for a gradient stencil
        res = opt.hill_climber(problem(sphere, SYM, budget), 0)
        assert res.evals_used == budget

    def test_state_bytes_count_five_curvature_pairs(self):
        res = opt.hill_climber(problem(sphere, UNIT, 10), 0)
        assert set(res.mem_trace.tolist()) == {8 * (2 * 5 + 4)}


class TestGeneralizedSA:
    def test_improving_move_always_accepted(self):
        for delta in (-1.0, -1e-9, 0.0):
            assert opt.gsa_acceptance_probability(delta, 10.0, 1, -1.0) == 1.0

    def test_zero_temperature_is_strict_descent(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            delta = float(rng.uniform(1e-12, 10.0))
            t = int(rng.integers(1, 500))
            p = opt.gsa_acceptance_probability(delta, 1e-9, t, -1.0)
            assert p <= 1e-12
        res = opt.generalized_sa(problem(sphere, SYM, 100), 5, temp=1e-9)
        assert np.all(np.diff(res.trace) <= 0)

    def test_bimodal_global_basin(self):
        def f(x):
            return float(-np.exp(-((x - 0.2) / 0.05) ** 2)
                         - 2.0 * np.exp(-((x - 0.8) / 0.05) ** 2))

        found = sum(
            opt.generalized_sa(problem(f, UNIT, 200), s).best_y < -1.5
            for s in range(50)
        )
        assert found >= 40

    def test_qv_range_validated(self):
        with pytest.raises(ConfigError):
            opt.generalized_sa(problem(sphere, UNIT, 10), 0, qv=3.5)
        with pytest.raises(ConfigError):
            opt.generalized_sa(problem(sphere, UNIT, 10), 0, temp=-1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_visit_too_wide_for_a_float_lands_in_bounds(self, seed):
        # at qv near 3 the visit width tv ** (1 / (3 - qv)) overflows a float
        seen = []

        def f(x):
            seen.append(x)
            return sphere(x)

        res = opt.generalized_sa(problem(f, SYM, 36), seed, temp=1e4, qv=2.99)
        assert res.evals_used == 36
        assert all(-1.0 <= x <= 1.0 for x in seen)

    def test_reflection_stays_in_bounds(self):
        lo, hi = 0.0, 1.0
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(-50, 50)
            z = opt._reflect(x, lo, hi)
            assert lo <= z <= hi


class TestDifferentialEvolution:
    def test_degenerate_operators_freeze_population(self):
        res = opt.differential_evolution(problem(sphere, SYM, 40), 7,
                                         popsize=5, F=0.0, c=0.0)
        # after the 5 initial samples the best never improves
        assert np.all(res.trace[4:] == res.trace[4])

    def test_sphere_reference_oracle(self):
        hits = sum(
            opt.differential_evolution(problem(sphere, SYM, 60), s).best_y < 0.05
            for s in range(50)
        )
        assert hits >= 45

    def test_budget_below_popsize(self):
        res = opt.differential_evolution(problem(sphere, SYM, 3), 0, popsize=5)
        assert res.evals_used == 3

    def test_popsize_validated(self):
        with pytest.raises(ConfigError):
            opt.differential_evolution(problem(sphere, SYM, 20), 0, popsize=3)
        with pytest.raises(ConfigError):
            opt.differential_evolution(problem(sphere, SYM, 20), 0, strategy=7)

    def test_mutants_see_a_better_member_found_in_the_same_generation(self, monkeypatch):
        # responses by call order: slot 1 starts best, then slot 0's trial beats it
        ys, xs = iter([5.0, 1.0, 6.0, 7.0, 0.0, 9.0]), []

        def f(x):
            xs.append(x)
            return next(ys)

        # slot 0's mutant moves by pop[2] - pop[3]; slot 1's is the best member itself
        monkeypatch.setattr(opt, "_distinct",
                            lambda rng, popsize, i, k: [2, 3, 2, 3, 2] if i == 0 else [0] * k)
        opt.differential_evolution(problem(f, SYM, 6), 0, popsize=4, strategy=2,
                                   F=1.0, c=0.0)
        assert xs[4] != xs[1]
        assert xs[5] == xs[4]

    def test_nan_fitness_ranks_worst(self):
        # NaN on part of the range: a NaN member must neither lead the
        # population nor keep its slot against a finite trial
        seen = []

        def f(x):
            seen.append(x)
            return float("nan") if x > 0.5 else (x - 0.3) ** 2

        best = [opt.differential_evolution(problem(f, UNIT, 60), s).best_y for s in range(20)]
        assert all(0.0 <= x <= 1.0 for x in seen)
        assert sum(x > 0.5 for x in seen) < 0.25 * len(seen)
        assert np.median(best) < 1e-6

    @pytest.mark.parametrize("strategy", [1, 2, 3, 4, 5])
    def test_all_strategies_run(self, strategy):
        res = opt.differential_evolution(problem(sphere, SYM, 25), 1, strategy=strategy)
        assert res.evals_used == 25
        assert np.all(np.diff(res.trace) <= 0)


def _distinct_by_list_permutation(rng, popsize, exclude, k):
    """The reference construction: permutations of the list of the other indices."""
    idx = [j for j in range(popsize) if j != exclude]
    picks = list(rng.permutation(idx))
    while len(picks) < k:
        picks += list(rng.permutation(idx))
    return picks[:k]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), popsize=st.integers(4, 12),
       exclude=st.integers(0, 11), k=st.integers(1, 12))
@example(seed=0, popsize=4, exclude=3, k=5)  # k > popsize - 1 takes a second permutation
@example(seed=0, popsize=4, exclude=0, k=5)
def test_distinct_draws_as_the_list_permutation(seed, popsize, exclude, k):
    exclude %= popsize
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = opt._distinct(got_rng, popsize, exclude, k)
    want = _distinct_by_list_permutation(want_rng, popsize, exclude, k)
    assert got == [int(j) for j in want]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestKrigingSBO:
    def test_single_guided_evaluation(self):
        res = opt.kriging_sbo(problem(sphere, SYM, 8), 0, designSize=7)
        assert res.evals_used == 8

    def test_each_guided_iteration_predicts_once_on_every_candidate(self, monkeypatch):
        real_predict, sizes = opt.gp.predict, []

        def predict(model, x):
            sizes.append(np.size(x))
            return real_predict(model, x)

        monkeypatch.setattr(opt.gp, "predict", predict)
        res = opt.kriging_sbo(problem(sphere, SYM, 12), 0, designSize=7)
        assert res.evals_used == 12
        assert sizes == [opt.EI_CANDIDATES + 64] * 5

    def test_lhs_one_point_per_stratum(self):
        rng = np.random.default_rng(4)
        pts = opt.latin_hypercube(rng, UNIT, 7)
        strata = np.floor(pts * 7).astype(int)
        assert sorted(strata) == list(range(7))

    def test_budget_must_exceed_design(self):
        with pytest.raises(ConfigError):
            opt.kriging_sbo(problem(sphere, SYM, 7), 0, designSize=7)
        with pytest.raises(ConfigError):
            opt.kriging_sbo(problem(sphere, SYM, 10), 0, designSize=2)
        with pytest.raises(ConfigError):
            opt.kriging_sbo(problem(sphere, SYM, 10), 0, designType="Grid")

    def test_memory_grows_with_training_set(self):
        res = opt.kriging_sbo(problem(sphere, SYM, 20), 2)
        assert res.mem_trace[-1] > res.mem_trace[0]
        assert np.all(np.diff(res.mem_trace) >= 0)

    def test_beats_random_search_on_smooth_objective(self):
        def f(x):
            return float(np.sin(3 * x) + 0.5 * x ** 2)

        k = np.mean([opt.kriging_sbo(problem(f, SYM, 25), s).best_y for s in range(5)])
        r = np.mean([opt.random_search(problem(f, SYM, 25), s).best_y for s in range(5)])
        assert k <= r

    def test_singular_noise_free_fit_is_refitted_with_noise(self, monkeypatch):
        real_fit, calls = opt.gp.fit, []

        def fit(data, noise=False, start=None):
            calls.append(noise)
            if not noise:
                raise SingularCovariance("forced")
            return real_fit(data, noise=True)

        monkeypatch.setattr(opt.gp, "fit", fit)
        res = opt.kriging_sbo(problem(sphere, SYM, 12), 0, designSize=7)
        assert calls == [False, True] * 5
        assert res.evals_used == 12 and np.all(np.diff(res.trace) <= 0)

    def test_each_fit_starts_from_the_last_no_noise_model(self, monkeypatch):
        real_fit, calls, models = opt.gp.fit, [], []

        def fit(data, noise=False, start=None):
            calls.append((noise, start))
            if start is not None and len(calls) == 3:
                raise SingularCovariance("forced")
            model = real_fit(data, noise=noise, start=start)
            models.append(model)
            return model

        monkeypatch.setattr(opt.gp, "fit", fit)
        res = opt.kriging_sbo(problem(sphere, SYM, 14), 0, designSize=7)
        assert res.evals_used == 14
        # a scan, two warm fits, the second singular, then a noise refit;
        # the next no-noise fit scans the whole grid again
        noise, starts = zip(*calls)
        assert noise == (False, False, False, True, False, False, False, False)
        assert starts[0] is None and starts[4] is None
        assert starts[1] == models[0].lengthscale and starts[2] == models[1].lengthscale
        assert starts[5:] == tuple(m.lengthscale for m in models[3:6])

    def test_no_fit_at_all_proposes_uniformly(self, monkeypatch):
        def fit(data, noise=False, start=None):
            raise SingularCovariance("forced")

        monkeypatch.setattr(opt.gp, "fit", fit)
        seen = []

        def f(x):
            seen.append(x)
            return sphere(x)

        res = opt.kriging_sbo(problem(f, SYM, 12), 3, designSize=7)
        rng = np.random.default_rng(3)
        want = list(opt.latin_hypercube(rng, SYM, 7))
        want += [rng.uniform(*SYM) for _ in range(5)]
        assert np.array_equal(np.array(seen), np.array(want))
        assert res.evals_used == 12 and np.all(np.diff(res.trace) <= 0)

    def test_nan_objective_makes_every_real_fit_singular(self, monkeypatch, caplog):
        # NaN on part of the range reaches the data, and the real gp.fit refuses
        # it: each no-noise fit and its noise refit raise, so every proposal
        # after the design is uniform and the budget is still used up
        caplog.set_level(logging.INFO, logger="cogopt.optimizers")
        real_fit, outcomes = opt.gp.fit, []

        def recorded_fit(data, noise=False, start=None):
            try:
                model = real_fit(data, noise=noise, start=start)
            except SingularCovariance:
                outcomes.append((noise, "singular"))
                raise
            outcomes.append((noise, "fitted"))
            return model

        monkeypatch.setattr(opt.gp, "fit", recorded_fit)
        seen = []

        def f(x):
            seen.append(x)
            return float("nan") if x > 0.5 else (x - 0.3) ** 2

        res = opt.kriging_sbo(problem(f, UNIT, 20), 0, designSize=7)
        assert res.evals_used == 20
        assert outcomes == [(False, "singular"), (True, "singular")] * 13
        rng = np.random.default_rng(0)
        want = list(opt.latin_hypercube(rng, UNIT, 7))
        want += [rng.uniform(*UNIT) for _ in range(13)]
        assert np.array_equal(np.array(seen), np.array(want))
        # each fallback leaves one INFO record, never a WARNING
        records = [r for r in caplog.records if r.name == "cogopt.optimizers"]
        assert {r.levelno for r in records} == {logging.INFO}
        messages = [r.getMessage() for r in records]
        assert sum("refitting with noise" in m for m in messages) == 13
        assert sum("singular too; proposing uniformly" in m for m in messages) == 13
        assert len(messages) == 26

    def test_duplicate_pick_is_replaced_by_a_logged_uniform_proposal(self, caplog):
        # on bounds 1e-6 wide at x = 1, every candidate is within isclose's
        # 1e-5 relative tolerance of every data point
        caplog.set_level(logging.INFO, logger="cogopt.optimizers")
        res = opt.kriging_sbo(problem(sphere, (1.0, 1.0 + 1e-6), 12), 0, designSize=7)
        assert res.evals_used == 12
        records = [r for r in caplog.records if r.name == "cogopt.optimizers"]
        assert [(r.levelno, "duplicates a data point" in r.getMessage())
                for r in records] == [(logging.INFO, True)] * 5


@settings(max_examples=30, deadline=None)
@given(
    algo=st.sampled_from(opt.ALGORITHMS),
    seed=st.integers(0, 2**31 - 1),
    budget=st.integers(10, 40),
)
def test_trace_monotone_and_budget_respected(algo, seed, budget):
    res = opt.run_optimizer(algo, problem(sphere, SYM, budget), seed)
    assert res.evals_used == budget
    assert len(res.trace) == res.evals_used
    assert np.all(np.diff(res.trace) <= 0)
    assert res.best_y == res.trace[-1]


@settings(max_examples=200, deadline=None)
@given(ends=st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2, unique=True).map(sorted),
       seed=st.integers(0, 2**32 - 1),
       size=st.one_of(st.none(), st.integers(0, 70), st.just(2048)))
@example(ends=[0.0, 1.0], seed=0, size=None)  # GeneralizedSA's acceptance draw
def test_uniform_draws_equal_rng_uniform(ends, seed, size):
    got = opt._uniform(np.random.default_rng(seed), tuple(ends), size)
    want = np.random.default_rng(seed).uniform(*ends, size=size)
    assert type(got) is type(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("algo", opt.ALGORITHMS)
def test_bit_identical_reruns(algo):
    p1 = problem(sphere, SYM, 30)
    p2 = problem(sphere, SYM, 30)
    a = opt.run_optimizer(algo, p1, 99)
    b = opt.run_optimizer(algo, p2, 99)
    assert np.array_equal(a.trace, b.trace)
    assert np.array_equal(a.best_x, b.best_x)
    assert np.array_equal(a.mem_trace, b.mem_trace)


def test_maximization_by_negation():
    f = lambda x: float(np.sin(4 * x))
    res_min = opt.random_search(problem(lambda x: -f(x), UNIT, 50), 11)
    res_plain = opt.random_search(problem(f, UNIT, 50), 11)
    # same seed evaluates the same points; the negated run's best maximizes f
    evaluated_best = -res_min.best_y
    assert evaluated_best >= res_plain.trace[-1] or np.isclose(evaluated_best, f(res_plain.best_x))
    assert evaluated_best == pytest.approx(f(res_min.best_x))


@pytest.mark.parametrize("algo", opt.ALGORITHMS)
@pytest.mark.parametrize("bounds", [(-1e308, 1e308), (0.0, float("inf")), (float("nan"), 1.0)])
def test_a_width_that_is_not_finite_is_refused(algo, bounds):
    # at (-1e308, 1e308), hi - lo overflows, and each draw lo + (hi - lo) * u would be inf
    with pytest.raises(ConfigError, match="finite width"):
        opt.run_optimizer(algo, problem(sphere, bounds, 5), 0)


def test_run_optimizer_unknown_algorithm():
    with pytest.raises(ConfigError):
        opt.run_optimizer("GradientDescent", problem(sphere, SYM, 10), 0)


def test_expected_improvement_equals_the_scipy_normal_form():
    from scipy.stats import norm
    rng = np.random.default_rng(0)
    mu = rng.standard_normal(100_000) * 3.0
    var = rng.uniform(0.0, 4.0, mu.size) ** 2
    sd = np.sqrt(np.maximum(var, 1e-18))
    z = (0.5 - mu) / sd
    want = (0.5 - mu) * norm.cdf(z) + sd * norm.pdf(z)
    assert np.array_equal(opt._expected_improvement(mu, var, 0.5), want)


@st.composite
def ei_inputs(draw):
    """Means above and below y_best; variances zero, tiny, negative or moderate."""
    y_best = draw(st.floats(-1e3, 1e3))
    n = draw(st.integers(1, 40))
    offsets = draw(hnp.arrays(float, n, elements=st.floats(-1e3, 1e3)))
    var = draw(hnp.arrays(float, n, elements=st.one_of(
        st.just(0.0), st.floats(1e-300, 1e-15), st.floats(-1e3, -1e-300), st.floats(1e-12, 1e6))))
    return y_best + offsets, var, y_best


@settings(max_examples=100, deadline=None)
@given(inputs=ei_inputs())
def test_expected_improvement_equals_the_plain_expression(inputs):
    mu, var, y_best = inputs
    mu_in, var_in = mu.copy(), var.copy()
    got = opt._expected_improvement(mu, var, y_best)
    assert np.array_equal(mu, mu_in) and np.array_equal(var, var_in)
    sd = np.sqrt(np.maximum(var, 1e-18))
    z = (y_best - mu) / sd
    pdf = np.exp(-z ** 2 / 2.0) / np.sqrt(2 * np.pi)
    assert np.array_equal(got, (y_best - mu) * ndtr(z) + sd * pdf)


def test_cli_import_graph_leaves_out_scipy_stats():
    src = str(Path(cogopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, cogopt.report, cogopt.cognition, cogopt.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
