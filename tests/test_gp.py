import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtrs

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
        with pytest.raises(SchemaError, match=r"^bounds: \[0\.0, 1\.0\] do not contain the "
                                              r"settings \[0\.1, 1\.5\]"):
            gp.Dataset(X=[0.1, 1.5], y=[1.0, 2.0], bounds=BOUNDS)

    @pytest.mark.parametrize("bounds", [(1.0, 0.0), (0.0, np.inf), (np.nan, 1.0),
                                        (0.0, 2 * gp.MAX_WIDTH), (-1e308, 1e308)])
    def test_bounds_must_be_ordered_and_at_most_max_width_apart(self, bounds):
        with pytest.raises(SchemaError, match="^bounds: need lo < hi at most"):
            gp.Dataset(X=[0.1, 0.2], y=[1.0, 2.0], bounds=bounds)

    def test_the_widest_bounds_fit_and_simulate_without_overflow(self):
        # past MAX_WIDTH, the top grid lengthscale's 2 ls^2 overflows in `_score_grid`
        data = gp.Dataset(X=[0.0, 1.0, 2.0, 5.0], y=[1.0, 0.0, 2.0, 1.5],
                          bounds=(0.0, gp.MAX_WIDTH))
        for noise in (False, True):
            model = gp.fit(data, noise=noise)
            curve = gp.simulate_conditional(model, gp.default_grid(data.bounds, 64), seed=0)
            assert np.all(np.isfinite(curve.values))

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


def assert_same_fit(first, second):
    """Both calls raise `SingularCovariance`, or both return equal fields."""
    try:
        a = first()
    except SingularCovariance:
        with pytest.raises(SingularCovariance):
            second()
        return
    b = second()
    for name in ("lengthscale", "signal_var", "nugget", "mean"):
        assert getattr(a, name) == getattr(b, name)
    assert np.array_equal(a.chol, b.chol) and np.array_equal(a.alpha, b.alpha)


class TestFitRepeatable:
    @pytest.mark.parametrize("noise", [False, True])
    @settings(max_examples=20, deadline=None)
    @given(data=degenerate_datasets())
    def test_same_data_gives_equal_fields(self, noise, data):
        assert_same_fit(lambda: gp.fit(data, noise=noise), lambda: gp.fit(data, noise=noise))


class TestCachedGrids:
    @pytest.mark.parametrize("noise", [False, True])
    def test_fits_on_other_widths_leave_a_fit_unchanged(self, noise):
        data = make_dataset(noise=0.05)
        gp._ls_grid.cache_clear()
        first = gp.fit(data, noise=noise)
        for hi in (0.5, 3.0, 6500.0):
            other = gp.Dataset(X=np.linspace(0.0, hi, 9), y=np.cos(np.arange(9.0)), bounds=(0.0, hi))
            gp.fit(other, noise=noise)
        assert_same_fit(lambda: first, lambda: gp.fit(data, noise=noise))

    def test_grids_are_built_once_and_read_only(self):
        grid = gp._ls_grid(3.0)
        assert gp._ls_grid(3.0) is grid
        assert np.array_equal(grid, np.geomspace(3e-3, 6.0, 32))
        assert np.array_equal(gp._NOISE_GRID, np.geomspace(1e-6, 1.0, 8))
        for constant in (grid, gp._NOISE_GRID, gp._NO_NOISE):
            with pytest.raises(ValueError):
                constant[0] = 1.0


def clamped_start(data: gp.Dataset, start: float) -> float:
    width = data.bounds[1] - data.bounds[0]
    return min(max(start, 1e-3 * width), 2.0 * width)


def start_lengthscales():
    """Lengthscales from 1e-5 to 10 bound widths: below, inside and above the grid."""
    return st.floats(-5.0, 1.0)


class TestWarmStart:
    @settings(max_examples=30, deadline=None)
    @given(data=degenerate_datasets(), log_frac=start_lengthscales())
    def test_same_data_and_start_give_equal_fields(self, data, log_frac):
        start = 10.0 ** log_frac * (data.bounds[1] - data.bounds[0])
        assert_same_fit(lambda: gp.fit(data, start=start), lambda: gp.fit(data, start=start))

    @settings(max_examples=30, deadline=None)
    @given(data=degenerate_datasets(), log_frac=start_lengthscales())
    def test_warm_fit_is_at_least_as_likely_as_its_clamped_start(self, data, log_frac):
        width = data.bounds[1] - data.bounds[0]
        start = 10.0 ** log_frac * width
        try:
            model = gp.fit(data, start=start)
        except SingularCovariance:
            return
        vy = max(float(np.var(data.y)), 1e-12)
        sv_range = (1e-4 * vy, 4.0 * vy)
        D2 = np.subtract.outer(data.X, data.X) ** 2
        at_start = gp._score(D2, data.y, clamped_start(data, start), 0.0, sv_range)[0]
        fitted = gp._score(D2, data.y, model.lengthscale, 0.0, sv_range)[0]
        assert fitted >= at_start
        assert 1e-3 * width <= model.lengthscale <= 2.0 * width

    @settings(max_examples=30, deadline=None)
    @given(data=degenerate_datasets(), log_frac=st.one_of(st.floats(-12.0, -3.01),
                                                         st.floats(0.31, 12.0)))
    def test_start_outside_the_grid_is_clamped(self, data, log_frac):
        start = 10.0 ** log_frac * (data.bounds[1] - data.bounds[0])
        edge = clamped_start(data, start)
        assert edge != start
        assert_same_fit(lambda: gp.fit(data, start=edge), lambda: gp.fit(data, start=start))

    @settings(max_examples=20, deadline=None)
    @given(data=degenerate_datasets(), log_frac=start_lengthscales())
    def test_start_with_noise_is_refused(self, data, log_frac):
        with pytest.raises(SchemaError):
            gp.fit(data, noise=True, start=10.0 ** log_frac * (data.bounds[1] - data.bounds[0]))


class TestPatternSearch:
    @settings(max_examples=40, deadline=None)
    @given(data=degenerate_datasets(), kind=st.sampled_from(["grid", "warm", "noise"]),
           log_frac=start_lengthscales())
    def test_no_lengthscale_is_scored_twice(self, data, kind, log_frac):
        kwargs = {"grid": {}, "noise": {"noise": True},
                  "warm": {"start": 10.0 ** log_frac * (data.bounds[1] - data.bounds[0])}}[kind]
        real_score, calls = gp._score, []

        def score(D2, y, ls, nr, sv_range):
            calls.append((float(ls), float(nr)))
            return real_score(D2, y, ls, nr, sv_range)

        def spied_fit():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gp, "_score", score)
                return gp.fit(data, **kwargs)

        assert_same_fit(spied_fit, lambda: gp.fit(data, **kwargs))
        assert len(calls) == len(set(calls))


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

    @pytest.mark.parametrize("noise", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(data=degenerate_datasets(),
           fracs=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=40), one=st.booleans())
    def test_mean_and_variance_match_the_left_side_solve(self, noise, data, fracs, one):
        try:
            model = gp.fit(data, noise=noise)
        except SingularCovariance:
            return
        lo, hi = data.bounds
        x = lo + (hi - lo) * np.array(fracs)
        if one:
            x = float(x[0])
        mean, var = gp.predict(model, x)
        sv = model.signal_var
        Ks = gp.kernel(np.atleast_1d(x), data.X, model.lengthscale, sv)
        assert np.array_equal(mean, model.mean + Ks @ model.alpha)
        v = dtrtrs(model.chol, Ks.T, lower=1)[0]
        want = np.maximum(sv - np.sum(v * v, axis=0), 0.0)
        assert var.shape == want.shape
        assert np.max(np.abs(var - want)) <= 1e-10 * sv
        assert np.all((var >= 0.0) & (var <= sv))

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

    def test_empty_grid_is_refused(self):
        with pytest.raises(SchemaError):
            gp.Realization(grid=[], values=[], seed=0)


@st.composite
def curves_and_points(draw):
    """A realization, and points on its grid, next to them, between, outside and NaN."""
    grid = np.sort(draw(hnp.arrays(float, st.integers(1, 10), unique=True,
                                   elements=st.floats(-1e6, 1e6, allow_subnormal=False))))
    # infinite and equal neighbours reach numpy's second-chance slope rules
    values = draw(hnp.arrays(float, grid.size, elements=st.one_of(
        st.floats(-1e6, 1e6), st.sampled_from([-np.inf, np.inf, np.nan, 0.0, 1.0]))))
    x = draw(st.sampled_from(grid))
    points = [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
              grid[0] - draw(st.floats(0.0, 1e6)), grid[-1] + draw(st.floats(0.0, 1e6)),
              draw(st.floats(grid[0], grid[-1])), np.nan, -np.inf, np.inf]
    return gp.Realization(grid=grid, values=values, seed=0), points


@settings(max_examples=300, deadline=None)
@given(case=curves_and_points())
def test_realization_equals_np_interp_bit_for_bit(case):
    r, points = case
    for x in points:
        got, want = r(x), np.interp(float(x), r.grid, r.values)
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes(), (x, got, want)
