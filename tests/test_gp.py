import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from cogopt import gp
from cogopt.errors import SchemaError, SingularCovariance

BOUNDS = (0.0, 1.0)


def make_dataset(n=12, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = np.linspace(0.0, 1.0, n)
    y = np.sin(2.0 * np.pi * X) + 0.5 * X
    if noise > 0:
        y = y + noise * rng.standard_normal(n)
    return gp.Dataset(X=X, y=y, bounds=BOUNDS)


class TestDataset:
    def test_shape_mismatch(self):
        with pytest.raises(SchemaError):
            gp.Dataset(X=[0.1, 0.2], y=[1.0], bounds=BOUNDS)

    def test_too_few_points(self):
        with pytest.raises(SchemaError):
            gp.Dataset(X=[0.1], y=[1.0], bounds=BOUNDS)

    def test_points_outside_bounds(self):
        with pytest.raises(SchemaError):
            gp.Dataset(X=[0.1, 1.5], y=[1.0, 2.0], bounds=BOUNDS)

    def test_one_row_of_inputs_is_not_transposed(self):
        # a 2-d X is refused, not read as three settings with three responses
        with pytest.raises(SchemaError):
            gp.Dataset(X=[[0.1, 0.2, 0.3]], y=[1.0, 2.0, 3.0], bounds=BOUNDS)


class TestFit:
    def test_constant_y_degenerates_to_constant_predictions(self):
        ds = gp.Dataset(X=np.linspace(0, 1, 8), y=np.full(8, 3.0), bounds=BOUNDS)
        model = gp.fit(ds)
        mean, var = gp.predict(model, np.linspace(0, 1, 50))
        assert np.allclose(mean, 3.0, atol=1e-4)
        assert np.all(var <= model.signal_var + model.nugget + 1e-12)

    def test_lengthscale_recovery_within_factor_two(self):
        # generate-and-recover: sample a known SE process, refit, compare scales
        true_ls = 0.2
        rng = np.random.default_rng(7)
        X = np.sort(rng.uniform(0, 1, 50))
        K = gp.kernel(X, X, true_ls, 1.0) + 1e-10 * np.eye(50)
        y = np.linalg.cholesky(K) @ rng.standard_normal(50)
        model = gp.fit(gp.Dataset(X=X, y=y, bounds=BOUNDS))
        assert true_ls / 2 <= model.lengthscale <= true_ls * 2

    def test_deterministic(self):
        ds = make_dataset(noise=0.05)
        m1 = gp.fit(ds, noise=True)
        m2 = gp.fit(ds, noise=True)
        assert m1.lengthscale == m2.lengthscale
        assert m1.signal_var == m2.signal_var
        assert np.array_equal(m1.alpha, m2.alpha)

    def test_permutation_invariance(self):
        ds = make_dataset(noise=0.05, seed=3)
        perm = np.random.default_rng(1).permutation(ds.n)
        shuffled = gp.Dataset(X=ds.X[perm], y=ds.y[perm], bounds=BOUNDS)
        m1 = gp.fit(ds, noise=True)
        m2 = gp.fit(shuffled, noise=True)
        assert m1.lengthscale == pytest.approx(m2.lengthscale, rel=1e-6)
        assert m1.signal_var == pytest.approx(m2.signal_var, rel=1e-6)

    def test_state_bytes_accounting(self):
        ds = make_dataset(n=10)
        model = gp.fit(ds)
        assert model.state_bytes() == 8 * 10 * 2 + 8 * 100



@st.composite
def degenerate_datasets(draw):
    """Few distinct sites (so duplicate X is common), constant or free y,
    and bound widths from 1e-6 to 1e6."""
    width = 10.0 ** draw(st.floats(-6.0, 6.0))
    lo = draw(st.floats(-10.0, 10.0))
    n = draw(st.integers(2, 12))
    sites = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=n))
    idx = draw(st.lists(st.integers(0, len(sites) - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        y = np.full(n, draw(st.floats(-1e3, 1e3)))
    else:
        y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    X = lo + width * np.array([sites[i] for i in idx])
    return gp.Dataset(X=X, y=y, bounds=(lo, lo + width))


def grid_loglik(data: gp.Dataset, noise: bool) -> float:
    """Best log likelihood over a 32 x 32 (x 8) log grid of lengthscale,
    signal variance (and noise ratio), with K = sv * (R + max(nr, 1e-10) I)
    and the GLS mean: the earlier grid search's search space."""
    width = data.bounds[1] - data.bounds[0]
    vy = max(float(np.var(data.y)), 1e-12)
    sv = np.geomspace(1e-4 * vy, 4.0 * vy, 32)
    n, y = data.n, data.y
    D2 = np.subtract.outer(data.X, data.X) ** 2
    best = -np.inf
    for ls in np.geomspace(1e-3 * width, 2.0 * width, 32):
        for nr in (np.geomspace(1e-6, 1.0, 8) if noise else [0.0]):
            try:
                L = gp._chol(np.exp(-D2 / (2.0 * ls ** 2)), nr)
            except SingularCovariance:
                continue
            Li_y = solve_triangular(L, y, lower=True)
            Li_1 = solve_triangular(L, np.ones(n), lower=True)
            r = Li_y - (Li_1 @ Li_y) / (Li_1 @ Li_1) * Li_1
            logdet_K = n * np.log(sv) + 2.0 * np.sum(np.log(np.diag(L)))
            ll = -0.5 * (n * np.log(2.0 * np.pi) + logdet_K + (r @ r) / sv)
            best = max(best, float(ll.max()))
    return best


def model_loglik(model: gp.GPModel) -> float:
    r = solve_triangular(model.chol, model.data.y - model.mean, lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(model.chol)))
    return float(-0.5 * (model.data.n * np.log(2.0 * np.pi) + logdet + r @ r))


class TestFitProperties:
    @pytest.mark.parametrize("noise", [False, True])
    @settings(max_examples=30, deadline=None)
    @given(data=degenerate_datasets())
    def test_finite_fit_at_least_as_likely_as_the_full_grid(self, noise, data):
        try:
            model = gp.fit(data, noise=noise)
        except SingularCovariance:
            return
        assert np.isfinite(model.lengthscale)
        assert model.signal_var > 0.0
        assert np.all(np.isfinite(model.alpha))
        # the factor is of the kernel plus `nugget`, with no uncounted diagonal
        sv = model.signal_var
        assert model.nugget >= 1e-10 * sv
        K = gp.kernel(data.X, data.X, model.lengthscale, sv) + model.nugget * np.eye(data.n)
        assert np.max(np.abs(model.chol @ model.chol.T - K)) <= 1e-12 * sv
        # the closed-form signal variance beats every grid value of it
        best = grid_loglik(data, noise)
        assert model_loglik(model) >= best - 1e-9 * max(1.0, abs(best))


@st.composite
def mixed_stacks(draw):
    """A stack of n x n matrices, each positive definite, singular (duplicate
    rows, shifted down by 0 to 3e-7) or indefinite (never factors)."""
    n = draw(st.integers(2, 8))
    kinds = draw(st.lists(st.sampled_from(["pd", "singular", "indefinite"]),
                          min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for kind in kinds:
        x = np.sort(rng.uniform(0.0, 1.0, n))
        if kind == "singular":
            x[-1] = x[0]
        R = np.exp(-(x[:, None] - x[None, :]) ** 2 / (2.0 * rng.uniform(0.05, 2.0) ** 2))
        if kind == "singular":
            R -= rng.choice([0.0, 3e-10, 3e-9, 3e-8, 3e-7]) * np.eye(n)
        elif kind == "pd":
            R += 1e-3 * np.eye(n)
        elif kind == "indefinite":
            R[0, 0] = -1.0
        mats.append(R)
    return np.stack(mats)


class TestOneMatrixFactorization:
    @settings(max_examples=60, deadline=None)
    @given(R=mixed_stacks(), nr=st.sampled_from([0.0, 1e-12, 1e-6]))
    def test_chol_matches_numpy_cholesky_with_the_nugget(self, R, nr):
        for a in R:
            want = a + max(nr, 1e-10) * np.eye(len(a))
            try:
                np.linalg.cholesky(want)
            except np.linalg.LinAlgError:
                with pytest.raises(SingularCovariance):
                    gp._chol(a.copy(), nr)
                continue
            L = gp._chol(a.copy(), nr)
            assert np.array_equal(L, np.tril(L))
            assert np.max(np.abs(L @ L.T - want)) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(data=degenerate_datasets(), frac=st.floats(1e-3, 2.0),
           nr=st.sampled_from([0.0, 1e-6, 1e-2, 1.0]))
    def test_score_matches_the_scalar_arithmetic(self, data, frac, nr):
        n, y = data.n, data.y
        ls = frac * (data.bounds[1] - data.bounds[0])
        vy = max(float(np.var(y)), 1e-12)
        D2 = np.subtract.outer(data.X, data.X) ** 2
        try:
            L = gp._chol(np.exp(-D2 / (2.0 * ls ** 2)), nr)
        except SingularCovariance:
            with pytest.raises(SingularCovariance):
                gp._score(D2, y, ls, nr, (1e-4 * vy, 4.0 * vy))
            return
        scored = gp._score(D2, y, ls, nr, (1e-4 * vy, 4.0 * vy))
        Li_y = solve_triangular(L, y, lower=True)
        Li_1 = solve_triangular(L, np.ones(n), lower=True)
        m = float((Li_1 @ Li_y) / (Li_1 @ Li_1))
        r = Li_y - m * Li_1
        s = min(max((r @ r) / n, 1e-4 * vy), 4.0 * vy)
        want = -0.5 * (n * np.log(2.0 * np.pi * s)
                       + 2.0 * np.sum(np.log(np.diag(L))) + (r @ r) / s)
        assert scored[:3] == (want, s, m)
        assert np.array_equal(scored[3], L)


class TestScoreGrid:
    @pytest.mark.parametrize("noise", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(data=degenerate_datasets())
    def test_each_entry_is_the_score_of_its_candidate(self, noise, data):
        # bit for bit, NaN included: then fit's first maximum is a loop's winner
        width = data.bounds[1] - data.bounds[0]
        vy = max(float(np.var(data.y)), 1e-12)
        sv_range = (1e-4 * vy, 4.0 * vy)
        ls_grid = np.geomspace(1e-3 * width, 2.0 * width, 32)
        noise_grid = np.geomspace(1e-6, 1.0, 8) if noise else np.array([0.0])
        D2 = np.subtract.outer(data.X, data.X) ** 2
        try:
            want = [gp._score(D2, data.y, ls, nr, sv_range)[0]
                    for ls in ls_grid for nr in noise_grid]
        except SingularCovariance:
            with pytest.raises(SingularCovariance):
                gp._score_grid(D2, data.y, ls_grid, noise_grid, sv_range)
            return
        got = gp._score_grid(D2, data.y, ls_grid, noise_grid, sv_range)
        assert np.array_equal(got, want, equal_nan=True)


class TestFitRepeatable:
    @pytest.mark.parametrize("noise", [False, True])
    @settings(max_examples=20, deadline=None)
    @given(data=degenerate_datasets())
    def test_same_data_gives_equal_fields(self, noise, data):
        try:
            a = gp.fit(data, noise=noise)
        except SingularCovariance:
            with pytest.raises(SingularCovariance):
                gp.fit(data, noise=noise)
            return
        b = gp.fit(data, noise=noise)
        for name in ("lengthscale", "signal_var", "nugget", "mean"):
            assert getattr(a, name) == getattr(b, name)
        assert np.array_equal(a.chol, b.chol) and np.array_equal(a.alpha, b.alpha)


class TestPredict:
    def test_interpolates_training_points(self):
        ds = make_dataset()
        model = gp.fit(ds, noise=False)
        mean, _ = gp.predict(model, ds.X)
        tol = 1e-4 * (ds.y.max() - ds.y.min())
        assert np.max(np.abs(mean - ds.y)) <= tol

    def test_prior_reversion_far_from_data(self):
        # data concentrated near 0, query at >= 10 lengthscales away
        X = np.linspace(0.0, 0.05, 6)
        y = np.array([0.0, 0.2, 0.1, 0.3, 0.2, 0.1])
        model = gp.fit(gp.Dataset(X=X, y=y, bounds=BOUNDS))
        far = min(1.0, 0.05 + 12 * model.lengthscale)
        mean, var = gp.predict(model, far)
        assert mean[0] == pytest.approx(model.mean, abs=0.05 * max(1.0, abs(model.mean)))
        assert var[0] == pytest.approx(model.signal_var, rel=0.05)

    def test_variance_bounds(self):
        ds = make_dataset(noise=0.05)
        model = gp.fit(ds, noise=True)
        _, var = gp.predict(model, np.linspace(0, 1, 200))
        assert np.all(var >= 0.0)
        assert np.all(var <= model.signal_var + model.nugget + 1e-9)

    def test_mean_between_equal_observations_not_above_them(self):
        X = np.array([0.4, 0.6])
        y = np.array([1.0, 1.0])
        model = gp.fit(gp.Dataset(X=X, y=y, bounds=BOUNDS))
        grid = np.linspace(0.4, 0.6, 101)
        mean, _ = gp.predict(model, grid)
        assert np.all(mean <= 1.0 + 1e-6)

    def test_points_with_the_wrong_column_count_are_refused(self):
        # a (1, k) array is refused, not read as k settings
        model = gp.fit(make_dataset())
        with pytest.raises(SchemaError):
            gp.predict(model, np.linspace(0, 1, 5).reshape(1, -1))


class TestUnconditional:
    def test_determinism(self):
        model = gp.fit(make_dataset())
        grid = gp.default_grid(BOUNDS, 64)
        a = gp.simulate_unconditional(model, grid, seed=42)
        b = gp.simulate_unconditional(model, grid, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        model = gp.fit(make_dataset())
        grid = gp.default_grid(BOUNDS, 64)
        a = gp.simulate_unconditional(model, grid, seed=1)
        b = gp.simulate_unconditional(model, grid, seed=2)
        assert np.max(np.abs(a.values - b.values)) > 0

    def test_empirical_covariance_matches_kernel(self):
        # the draw count keeps Monte Carlo noise well below the 15% band at
        # the smallest compared covariance entries (0.1 signal variance)
        model = gp.fit(make_dataset())
        grid = np.linspace(0, 1, 15)
        draws = np.stack([
            gp.simulate_unconditional(model, grid, seed=s).values for s in range(40000)
        ])
        emp = np.cov(draws.T, bias=True) + np.outer(
            draws.mean(axis=0) - model.mean, draws.mean(axis=0) - model.mean
        )
        want = gp.kernel(grid, grid, model.lengthscale, model.signal_var)
        mask = want >= 0.1 * model.signal_var
        rel = np.abs(emp[mask] - want[mask]) / want[mask]
        assert np.max(rel) < 0.15

    def test_zero_variance_limit(self):
        # near-constant data drives the fitted signal variance to the floor
        ds = gp.Dataset(X=np.linspace(0, 1, 8), y=np.full(8, 2.0), bounds=BOUNDS)
        model = gp.fit(ds)
        r = gp.simulate_unconditional(model, gp.default_grid(BOUNDS, 64), seed=0)
        assert np.max(np.abs(r.values - model.mean)) <= 1e-4


class TestConditional:
    def test_reproduces_training_observations(self):
        ds = make_dataset()
        model = gp.fit(ds, noise=False)
        grid = gp.default_grid(BOUNDS, 128)
        tol = 1e-3 * (ds.y.max() - ds.y.min())
        for seed in (0, 5, 11):
            r = gp.simulate_conditional(model, grid, seed=seed)
            vals = np.array([r(x) for x in ds.X])
            assert np.max(np.abs(vals - ds.y)) <= tol

    def test_seeds_agree_at_data_and_differ_between(self):
        # sparse data leaves posterior variance between the observations
        ds = make_dataset(n=5)
        model = gp.fit(ds)
        grid = gp.default_grid(BOUNDS, 128)
        a = gp.simulate_conditional(model, grid, seed=1)
        b = gp.simulate_conditional(model, grid, seed=2)
        at_data = np.abs(np.array([a(x) - b(x) for x in ds.X]))
        assert np.max(at_data) <= 1e-6 * max(1.0, np.ptp(ds.y))
        assert np.max(np.abs(a.values - b.values)) > 1e-3

    @pytest.mark.parametrize("noise", [False, True])
    @settings(max_examples=30, deadline=None)
    @given(data=degenerate_datasets())
    def test_degenerate_data_is_reproduced_at_every_site(self, noise, data):
        # duplicate X, constant y and extreme bound widths: at each data site
        # the draw equals the posterior mean there, up to 1e-4 of the scale
        try:
            model = gp.fit(data, noise=noise)
            r = gp.simulate_conditional(model, gp.default_grid(data.bounds, 64), seed=0)
        except SingularCovariance:
            return
        assert np.all(np.isfinite(r.values))
        sites = np.unique(data.X)
        idx = np.searchsorted(r.grid, sites)
        assert np.array_equal(r.grid[idx], sites)
        mean, _ = gp.predict(model, sites)
        scale = np.sqrt(model.signal_var) + np.max(np.abs(data.y))
        assert np.max(np.abs(r.values[idx] - mean)) <= 1e-4 * scale

    def test_mean_of_draws_approaches_posterior_mean(self):
        ds = make_dataset(n=8)
        model = gp.fit(ds)
        grid = np.linspace(0, 1, 30)
        # align: the conditional grid is augmented with training inputs
        full = np.unique(np.concatenate([grid, ds.X]))
        draws = np.stack([
            np.interp(grid, full, gp.simulate_conditional(model, grid, seed=s).values)
            for s in range(500)
        ])
        mu, var = gp.predict(model, grid)
        se = np.sqrt(var / 500)
        assert np.all(np.abs(draws.mean(axis=0) - mu) <= 3 * se + 1e-9)


class TestRealization:
    def test_exact_on_grid_points(self):
        model = gp.fit(make_dataset())
        r = gp.simulate_unconditional(model, gp.default_grid(BOUNDS, 32), seed=0)
        for i in (0, 7, 31):
            assert r(r.grid[i]) == r.values[i]

    def test_linear_between_grid_points(self):
        r = gp.Realization(grid=[0.0, 1.0], values=[0.0, 2.0], seed=0)
        assert r(0.25) == pytest.approx(0.5)

    def test_grid_must_increase(self):
        with pytest.raises(SchemaError):
            gp.Realization(grid=[0.0, 0.0, 1.0], values=[1.0, 2.0, 3.0], seed=0)
