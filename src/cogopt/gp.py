"""Gaussian process fitting, prediction, and simulation.

A single squared-exponential kernel with constant mean is used throughout.
The signal variance and the mean are solved in closed form; the lengthscale
comes from a deterministic log-space grid search refined by a local pattern
search, so fitting the same data always yields the same model.  Every
candidate's correlation matrix is built from one squared-distance matrix and
factored on its own by LAPACK's `dpotrf`, climbing a jitter ladder when it is
not numerically positive definite.
Simulation supports both decomposition (exact joint draw via Cholesky) and a
truncated spectral (random cosine features) expansion; conditional draws use
conditioning by kriging and therefore reproduce the training observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf, dtrtrs

from .errors import SchemaError, SingularCovariance

GRID_SIZE = 512            # default realization grid resolution
SPECTRAL_FEATURES = 256    # cosine features for the spectral method
_JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


@dataclass(frozen=True)
class Dataset:
    """Observed points X (n, dim) with scalar responses y (n,) inside bounds."""

    X: np.ndarray
    y: np.ndarray
    bounds: np.ndarray  # (dim, 2)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if X.shape[0] == 1 and X.shape[1] > 1 and np.asarray(self.y).size == X.shape[1]:
            X = X.T
        y = np.asarray(self.y, dtype=float).ravel()
        bounds = np.atleast_2d(np.asarray(self.bounds, dtype=float))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "bounds", bounds)
        if X.shape[0] != y.size:
            raise SchemaError("X and y must have the same number of rows")
        if y.size < 2:
            raise SchemaError("need at least two observations")
        if bounds.shape != (X.shape[1], 2):
            raise SchemaError("bounds must be (dim, 2)")
        if np.any(bounds[:, 0] >= bounds[:, 1]):
            raise SchemaError("bounds need lo < hi per dimension")
        if np.any(X < bounds[:, 0] - 1e-9) or np.any(X > bounds[:, 1] + 1e-9):
            raise SchemaError("data points outside declared bounds")

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class GPModel:
    data: Dataset
    lengthscale: float
    signal_var: float
    nugget: float           # observation noise variance (0 when noise-free)
    jitter: float           # numerical jitter actually used for the factor
    mean: float
    chol: np.ndarray        # lower Cholesky factor of K + (nugget+jitter) I
    alpha: np.ndarray       # (K + (nugget+jitter) I)^-1 (y - mean)

    def state_bytes(self) -> int:
        """Deterministic size accounting: training set plus triangular factor."""
        n, dim = self.data.n, self.data.dim
        return 8 * n * (dim + 1) + 8 * n * n


@dataclass(frozen=True)
class Realization:
    """A simulated objective curve, piecewise linear between grid points."""

    kind: str               # "conditional" | "unconditional"
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

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x.ravel()[0] if x.ndim else float(x), self.grid, self.values)


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)


def kernel(a, b, lengthscale: float, signal_var: float) -> np.ndarray:
    return signal_var * np.exp(-_sqdist(a, b) / (2.0 * lengthscale ** 2))


def _chol_with_jitter(R: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky of one correlation-scale matrix, climbing the jitter ladder.

    Returns the (Fortran-ordered) factor and the jitter it needed.
    """
    for jit in (0.0,) + _JITTER_LADDER:
        L, info = dpotrf(R + jit * np.eye(len(R)) if jit else R, lower=1, clean=1)
        if info == 0:
            return L, jit
    raise SingularCovariance("covariance not positive definite at max jitter")


def _score(D2: np.ndarray, y: np.ndarray, ls: float, nr: float,
           sv_range: tuple[float, float]):
    """Factor and score R = exp(-D2 / 2 ls^2) + nr I: (loglik, sv, mean, L, jitter).

    K = sv * R, so for a fixed R the log likelihood
    -1/2 (n log(2 pi sv) + log|R| + q / sv) has a single peak at sv = q / n,
    where q = (y - m)^T R^-1 (y - m); clipping it to `sv_range` gives the exact
    optimum within the range.  The constant mean m is estimated by generalized
    least squares.  A matrix that never factors scores (-inf,).
    """
    n = y.size
    try:
        L, jitter = _chol_with_jitter(np.exp(-D2 / (2.0 * ls ** 2)) + nr * np.eye(n))
    except SingularCovariance:
        return (-np.inf,)
    # the LAPACK call solve_triangular(L, ., lower=True) makes on this factor
    Li_y = dtrtrs(L, y, lower=1)[0]
    Li_1 = dtrtrs(L, np.ones(n), lower=1)[0]
    mean = float((Li_1 @ Li_y) / (Li_1 @ Li_1))
    r = Li_y - mean * Li_1
    quad = r @ r
    sv = min(max(quad / n, sv_range[0]), sv_range[1])
    ll = -0.5 * (n * np.log(2.0 * np.pi * sv) + 2.0 * np.log(L.diagonal()).sum() + quad / sv)
    return ll, sv, mean, L, jitter


def fit(data: Dataset, noise: bool = False) -> GPModel:
    """Deterministic maximum-marginal-likelihood fit of the SE kernel.

    The signal variance and the mean are solved in closed form for each
    correlation matrix (see `_score`), so only the lengthscale is searched:
    a 32-point log grid (times an 8-point noise-ratio grid when `noise` is
    set), where the first strict maximum wins, then one pattern-search pass
    over the lengthscale at the winning noise ratio, trying `+step` before
    `-step`.  Each candidate's correlation matrix is factored on its own.
    """
    width = float(np.mean(data.bounds[:, 1] - data.bounds[:, 0]))
    vy = max(float(np.var(data.y)), 1e-12)
    sv_range = (1e-4 * vy, 4.0 * vy)
    ls_grid = np.geomspace(1e-3 * width, 2.0 * width, 32)
    noise_grid = np.geomspace(1e-6, 1.0, 8) if noise else np.array([0.0])

    D2 = _sqdist(data.X, data.X)
    best, ls, nr = (-np.inf,), float(ls_grid[0]), 0.0
    for cand_ls in ls_grid:
        for cand_nr in noise_grid:
            scored = _score(D2, data.y, cand_ls, cand_nr, sv_range)
            if scored[0] > best[0]:
                best, ls, nr = scored, float(cand_ls), float(cand_nr)
    if not np.isfinite(best[0]):
        raise SingularCovariance("no hyperparameter setting factorized")

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

    _, sv, mean, L_R, jit = best
    sv = float(sv)
    L = L_R * math.sqrt(sv)
    alpha = cho_solve((L, True), data.y - mean)
    return GPModel(
        data=data,
        lengthscale=ls,
        signal_var=sv,
        nugget=nr * sv,
        jitter=jit * sv,
        mean=mean,
        chol=L,
        alpha=alpha,
    )


def predict(model: GPModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at one point or an array of points."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.data.dim:
        x = x.reshape(-1, model.data.dim)
    Ks = kernel(x, model.data.X, model.lengthscale, model.signal_var)
    mean = model.mean + Ks @ model.alpha
    v = solve_triangular(model.chol, Ks.T, lower=True)
    var = np.maximum(model.signal_var - np.sum(v * v, axis=0), 0.0)
    return mean, var


def default_grid(bounds, size: int = GRID_SIZE) -> np.ndarray:
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    return np.linspace(bounds[0, 0], bounds[0, 1], size)


def unconditional_sampler(model: GPModel, grid: np.ndarray, method: str = "decomposition"):
    """A function seed -> Realization drawing zero-data realizations on `grid`.

    The decomposition method factors the grid's prior correlation matrix once,
    when the sampler is made, so every draw from one sampler shares it.
    """
    grid = np.asarray(grid, dtype=float).ravel()
    if method == "decomposition":
        pts = grid.reshape(-1, 1)
        L, _ = _chol_with_jitter(np.exp(-_sqdist(pts, pts) / (2.0 * model.lengthscale ** 2)))
    elif method != "spectral":
        raise SchemaError(f"unknown simulation method {method!r}")

    def draw(seed: int) -> Realization:
        rng = np.random.default_rng(seed)
        if method == "decomposition":
            z = rng.standard_normal(grid.size)
            values = model.mean + math.sqrt(model.signal_var) * (L @ z)
        else:
            m = SPECTRAL_FEATURES
            omega = rng.standard_normal(m) / model.lengthscale
            phase = rng.uniform(0.0, 2.0 * np.pi, m)
            amp = math.sqrt(2.0 * model.signal_var / m)
            values = model.mean + amp * np.sum(
                np.cos(np.outer(grid, omega) + phase), axis=1
            )
        return Realization(kind="unconditional", grid=grid, values=values, seed=seed)
    return draw


def simulate_unconditional(
    model: GPModel,
    grid: np.ndarray,
    method: str = "decomposition",
    seed: int = 0,
) -> Realization:
    """Draw one zero-data realization of the fitted covariance on `grid`."""
    return unconditional_sampler(model, grid, method)(seed)


def simulate_conditional(model: GPModel, grid: np.ndarray, seed: int = 0) -> Realization:
    """Conditioning by kriging: unconditional draw bent through the data.

    The grid is augmented with the training inputs so the returned curve is
    exact (not merely interpolated) at every observation.
    """
    grid = np.asarray(grid, dtype=float).ravel()
    X = model.data.X.ravel()
    full = np.unique(np.concatenate([grid, X]))
    uncond = simulate_unconditional(model, full, method="decomposition", seed=seed)

    # posterior mean from the real observations
    m_data, _ = predict(model, full.reshape(-1, 1))

    # posterior mean treating the draw's values at the training inputs as data
    idx = np.searchsorted(full, X)
    y_sim = uncond.values[idx]
    Kxx = kernel(model.data.X, model.data.X, model.lengthscale, model.signal_var)
    L, jit = _chol_with_jitter(Kxx / model.signal_var)
    L = L * math.sqrt(model.signal_var)
    Ks = kernel(full.reshape(-1, 1), model.data.X, model.lengthscale, model.signal_var)
    m_sim = model.mean + Ks @ cho_solve((L, True), y_sim - model.mean)

    values = uncond.values + m_data - m_sim
    return Realization(kind="conditional", grid=full, values=values, seed=seed)
