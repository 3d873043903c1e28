"""Gaussian process fitting, prediction, and simulation.

A single squared-exponential kernel with constant mean is used throughout.
The signal variance and the mean are solved in closed form; the lengthscale
comes from a deterministic log-space grid search refined by a local pattern
search, so fitting the same data always yields the same model.  The grid is
scored in one pass: one `np.exp` builds every candidate's correlation matrix,
each is still factored on its own, and the winner is re-scored by `_score`,
so the pass picks the model a loop over `_score` would.  Every matrix the
module factors is a correlation matrix R plus a nugget on its diagonal,
max(noise ratio, 1e-10) (Ranjan, Haynes & Karsten 2011), factored once by
LAPACK's `dpotrf` in `_factor`; the 1e-10 floor keeps the near-singular R of
clustered data positive definite, so roundoff never picks the model.
Unconditional draws multiply the Cholesky factor of the grid's prior by
standard normals; conditional draws use conditioning by kriging and therefore
reproduce the training observations up to the nugget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dtrtrs

from .errors import SchemaError, SingularCovariance

GRID_SIZE = 512            # default realization grid resolution
_NUGGET_FLOOR = 1e-10      # least nugget, as a fraction of the signal variance


@dataclass(frozen=True)
class Dataset:
    """Observed settings X (n,) of the one parameter with responses y (n,)
    inside bounds (lo, hi)."""

    X: np.ndarray
    y: np.ndarray
    bounds: tuple[float, float]

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        bounds = np.asarray(self.bounds, dtype=float)
        if X.ndim != 1 or y.ndim != 1 or bounds.shape != (2,):
            raise SchemaError("X and y must be vectors and bounds a (lo, hi) pair")
        lo, hi = map(float, bounds)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "bounds", (lo, hi))
        if X.size != y.size:
            raise SchemaError("X and y must have the same length")
        if y.size < 2:
            raise SchemaError("need at least two observations")
        if not lo < hi:
            raise SchemaError("bounds need lo < hi")
        if np.any(X < lo - 1e-9) or np.any(X > hi + 1e-9):
            raise SchemaError("data points outside declared bounds")

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class GPModel:
    data: Dataset
    lengthscale: float
    signal_var: float
    nugget: float           # the whole diagonal term: max(noise ratio, 1e-10) * signal_var
    mean: float
    chol: np.ndarray        # lower Cholesky factor of K + nugget I
    alpha: np.ndarray       # (K + nugget I)^-1 (y - mean)

    def state_bytes(self) -> int:
        """Deterministic size accounting: training set plus triangular factor."""
        n = self.data.n
        return 16 * n + 8 * n * n


@dataclass(frozen=True)
class Realization:
    """A simulated objective curve, piecewise linear between grid points."""

    grid: np.ndarray        # strictly increasing 1-D grid
    values: np.ndarray
    seed: int

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).ravel()
        values = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.size != values.size:
            raise SchemaError("grid and values must align")
        if np.any(np.diff(grid) <= 0):
            raise SchemaError("grid must be strictly increasing")

    def __call__(self, x: float) -> float:
        return np.interp(float(x), self.grid, self.values)


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.subtract.outer(a, b) ** 2


def kernel(a, b, lengthscale: float, signal_var: float) -> np.ndarray:
    return signal_var * np.exp(-_sqdist(a, b) / (2.0 * lengthscale ** 2))


def _chol(R: np.ndarray, nr: float = 0.0) -> np.ndarray:
    """Lower (Fortran-ordered) Cholesky factor of R + max(nr, 1e-10) I.

    The nugget is added to R's diagonal in place.
    """
    R.flat[::len(R) + 1] += max(nr, _NUGGET_FLOOR)
    return _factor(R)


def _factor(A: np.ndarray) -> np.ndarray:
    """Lower (Fortran-ordered) Cholesky factor of A, or `SingularCovariance`."""
    L, info = dpotrf(A, lower=1, clean=1)
    if info != 0:
        raise SingularCovariance(f"covariance not positive definite (dpotrf info {info})")
    return L


def _score(D2: np.ndarray, y: np.ndarray, ls: float, nr: float,
           sv_range: tuple[float, float]):
    """Factor and score R = exp(-D2 / 2 ls^2) + max(nr, 1e-10) I: (loglik, sv, mean, L).

    K = sv * R, so for a fixed R the log likelihood
    -1/2 (n log(2 pi sv) + log|R| + q / sv) has a single peak at sv = q / n,
    where q = (y - m)^T R^-1 (y - m); clipping it to `sv_range` gives the exact
    optimum within the range.  The constant mean m is estimated by generalized
    least squares.  Raises `SingularCovariance` when R does not factor.
    """
    n = y.size
    L = _chol(np.exp(-D2 / (2.0 * ls ** 2)), nr)
    # the LAPACK call solve_triangular(L, ., lower=True) makes on this factor
    Li_y = dtrtrs(L, y, lower=1)[0]
    Li_1 = dtrtrs(L, np.ones(n), lower=1)[0]
    mean = float((Li_1 @ Li_y) / (Li_1 @ Li_1))
    r = Li_y - mean * Li_1
    quad = r @ r
    sv = min(max(quad / n, sv_range[0]), sv_range[1])
    ll = -0.5 * (n * np.log(2.0 * np.pi * sv) + 2.0 * np.log(L.diagonal()).sum() + quad / sv)
    return ll, sv, mean, L


def _score_grid(D2: np.ndarray, y: np.ndarray, ls_grid: np.ndarray, noise_grid: np.ndarray,
                sv_range: tuple[float, float]) -> np.ndarray:
    """`_score`'s log likelihood of every (lengthscale, noise ratio) pair, lengthscale-major.

    One `np.exp` builds all the correlation matrices.  Each is factored and
    solved on its own with `_score`'s LAPACK calls, and the closed-form terms
    are computed for all candidates at once in `_score`'s order of operations,
    so entry c equals `_score(...)[0]` of candidate c bit for bit.  Raises
    `SingularCovariance` at the first candidate that does not factor.
    """
    n = y.size
    # `2.0 * ls ** 2` per float64 scalar: squaring the array can differ in the last bit
    div = np.array([2.0 * ls ** 2 for ls in ls_grid])
    R = np.repeat(np.exp(-D2 / div[:, None, None]), noise_grid.size, axis=0)
    # each candidate's nugget on its diagonal, as `_chol` adds it
    R.reshape(len(R), -1)[:, ::n + 1] += np.tile(np.maximum(noise_grid, _NUGGET_FLOOR),
                                                 ls_grid.size)[:, None]
    ones = np.ones(n)
    Li_y, Li_1, diag = (np.empty((len(R), n)) for _ in range(3))
    for c in range(len(R)):
        L = _factor(R[c])
        Li_y[c] = dtrtrs(L, y, lower=1)[0]
        Li_1[c] = dtrtrs(L, ones, lower=1)[0]
        diag[c] = L.diagonal()
    # np.vecdot, unlike einsum, sums each pair as `a @ b` does
    mean = np.vecdot(Li_1, Li_y) / np.vecdot(Li_1, Li_1)
    r = Li_y - mean[:, None] * Li_1
    quad = np.vecdot(r, r)
    sv = np.minimum(np.maximum(quad / n, sv_range[0]), sv_range[1])
    return -0.5 * (n * np.log(2.0 * np.pi * sv) + 2.0 * np.log(diag).sum(axis=1) + quad / sv)


def fit(data: Dataset, noise: bool = False) -> GPModel:
    """Deterministic maximum-marginal-likelihood fit of the SE kernel.

    The signal variance and the mean are solved in closed form for each
    correlation matrix (see `_score`), so only the lengthscale is searched:
    a 32-point log grid (times an 8-point noise-ratio grid when `noise` is
    set), scored in one pass by `_score_grid`, where the first maximum wins
    and NaN never does; the winner is re-scored by `_score` for its factor.
    One pattern-search pass over the lengthscale at the winning noise ratio
    follows, trying `+step` before `-step`.  Each candidate's correlation
    matrix is factored on its own, with the nugget max(noise ratio, 1e-10) on
    its diagonal, so a noise-free model still carries a 1e-10 * signal_var
    nugget.  Raises `SingularCovariance` when a candidate does not factor.
    """
    width = data.bounds[1] - data.bounds[0]
    vy = max(float(np.var(data.y)), 1e-12)
    sv_range = (1e-4 * vy, 4.0 * vy)
    ls_grid = np.geomspace(1e-3 * width, 2.0 * width, 32)
    noise_grid = np.geomspace(1e-6, 1.0, 8) if noise else np.array([0.0])

    D2 = _sqdist(data.X, data.X)
    ll = _score_grid(D2, data.y, ls_grid, noise_grid, sv_range)
    ll[np.isnan(ll)] = -np.inf  # NaN never wins
    c = int(np.argmax(ll))      # the first maximum
    if not np.isfinite(ll[c]):
        raise SingularCovariance("no hyperparameter setting has a finite likelihood")
    i, j = divmod(c, noise_grid.size)
    best = _score(D2, data.y, ls_grid[i], noise_grid[j], sv_range)
    ls, nr = float(ls_grid[i]), float(noise_grid[j])

    # one compass pattern-search pass in log-lengthscale, shrinking steps
    steps = [math.log(ls_grid[1] / ls_grid[0]) / 2.0]
    for _ in range(3):
        steps.append(steps[-1] / 2.0)
    for step in steps:
        improved = True
        while improved:
            improved = False
            for d in (step, -step):
                move = min(max(ls * math.exp(d), ls_grid[0]), ls_grid[-1])
                scored = _score(D2, data.y, move, nr, sv_range)
                if scored[0] > best[0] + 1e-12:
                    best, ls, improved = scored, float(move), True
                    break

    _, sv, mean, L_R = best
    sv = float(sv)
    L = L_R * math.sqrt(sv)
    alpha = cho_solve((L, True), data.y - mean)
    return GPModel(
        data=data,
        lengthscale=ls,
        signal_var=sv,
        nugget=max(nr, _NUGGET_FLOOR) * sv,
        mean=mean,
        chol=L,
        alpha=alpha,
    )


def predict(model: GPModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance vectors at one setting or a vector of settings."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise SchemaError(f"predict takes a setting or a vector of settings, got shape {x.shape}")
    Ks = kernel(x, model.data.X, model.lengthscale, model.signal_var)
    mean = model.mean + Ks @ model.alpha
    v = dtrtrs(model.chol, Ks.T, lower=1)[0]
    var = np.maximum(model.signal_var - np.sum(v * v, axis=0), 0.0)
    return mean, var


def default_grid(bounds, size: int = GRID_SIZE) -> np.ndarray:
    lo, hi = bounds
    return np.linspace(lo, hi, size)


def unconditional_sampler(model: GPModel, grid: np.ndarray):
    """A function seed -> Realization drawing zero-data realizations on `grid`.

    The grid's prior correlation matrix (plus the 1e-10 nugget) is factored
    once, when the sampler is made, so every draw from one sampler shares it.
    """
    grid = np.asarray(grid, dtype=float).ravel()
    L = _chol(np.exp(-_sqdist(grid, grid) / (2.0 * model.lengthscale ** 2)))

    def draw(seed: int) -> Realization:
        z = np.random.default_rng(seed).standard_normal(grid.size)
        values = model.mean + math.sqrt(model.signal_var) * (L @ z)
        return Realization(grid=grid, values=values, seed=seed)
    return draw


def simulate_unconditional(model: GPModel, grid: np.ndarray, seed: int = 0) -> Realization:
    """Draw one zero-data realization of the fitted covariance on `grid`."""
    return unconditional_sampler(model, grid)(seed)


def simulate_conditional(model: GPModel, grid: np.ndarray, seed: int = 0) -> Realization:
    """Conditioning by kriging: unconditional draw bent through the data.

    The grid is augmented with the training inputs so the returned curve is
    exact (not merely interpolated) at every observation: there it equals the
    posterior mean, up to the 1e-10 nugget on the training correlation matrix.
    """
    grid = np.asarray(grid, dtype=float).ravel()
    X = model.data.X
    full = np.unique(np.concatenate([grid, X]))
    uncond = simulate_unconditional(model, full, seed=seed)

    # posterior mean from the real observations
    m_data, _ = predict(model, full)

    # posterior mean treating the draw's values at the training inputs as data
    idx = np.searchsorted(full, X)
    y_sim = uncond.values[idx]
    Kxx = kernel(X, X, model.lengthscale, model.signal_var)
    L = _chol(Kxx / model.signal_var) * math.sqrt(model.signal_var)
    Ks = kernel(full, X, model.lengthscale, model.signal_var)
    m_sim = model.mean + Ks @ cho_solve((L, True), y_sim - model.mean)

    values = uncond.values + m_data - m_sim
    return Realization(grid=full, values=values, seed=seed)
