"""Gaussian process fitting, prediction, and simulation.

A single squared-exponential kernel with constant mean is used throughout.
The signal variance and the mean are solved in closed form; the lengthscale
comes from a deterministic log-space grid search refined by a local pattern
search, so fitting the same data always yields the same model.  The fit
scores a whole stack of correlation matrices at once: the grid's 32 (or, with
a noise term, 256) matrices are built from one squared-distance matrix and
factored by one `np.linalg.cholesky` call, and only the slices that fail climb
the jitter ladder; each pattern-search round factors its two moves together.
Simulation supports both decomposition (exact joint draw via Cholesky) and a
truncated spectral (random cosine features) expansion; conditional draws use
conditioning by kriging and therefore reproduce the training observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dtrtrs

from .errors import SchemaError, SingularCovariance

GRID_SIZE = 512            # default realization grid resolution
SPECTRAL_FEATURES = 256    # cosine features for the spectral method
_JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
# Matrix entries per factored stack (8 MB of float64): bounds the memory of a
# 256-matrix noise fit on a few hundred plant records.
_STACK_ENTRIES = 1 << 20


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

    def to_csv(self, path) -> None:
        np.savetxt(path, np.column_stack([self.grid, self.values]),
                   delimiter=",", header="x,y", comments="")


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)


def kernel(a, b, lengthscale: float, signal_var: float) -> np.ndarray:
    return signal_var * np.exp(-_sqdist(a, b) / (2.0 * lengthscale ** 2))


def _factor(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a (B, n, n) stack; NaN where a slice fails."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        pass
    L = np.full(A.shape, np.nan)
    if len(A) > 1:  # numpy raises for the whole stack: retry slice by slice
        for i, a in enumerate(A):
            try:
                L[i] = np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                pass
    return L


def _chol_stack(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a (B, n, n) stack of correlation-scale matrices.

    The whole stack is factored by one `np.linalg.cholesky` call, and only the
    slices that fail climb the jitter ladder.  Returns the factors and the
    jitter each slice needed; a slice that does not factor even at the top of
    the ladder has a NaN factor and a NaN jitter.
    """
    L = _factor(R)
    jitter = np.where(np.isnan(L[:, 0, 0]), np.nan, 0.0)
    for jit in _JITTER_LADDER:
        todo = np.flatnonzero(np.isnan(jitter))
        if todo.size == 0:
            break
        L[todo] = _factor(R[todo] + jit * np.eye(R.shape[-1]))
        jitter[todo] = np.where(np.isnan(L[todo, 0, 0]), np.nan, jit)
    return L, jitter


def _chol_with_jitter(R: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky of one correlation-scale matrix, climbing the jitter ladder."""
    L, jitter = _chol_stack(R[None])
    if np.isnan(jitter[0]):
        raise SingularCovariance("covariance not positive definite at max jitter")
    return L[0], float(jitter[0])


def _profile(L: np.ndarray, y: np.ndarray, sv_range: tuple[float, float]):
    """Score a stack of factors L of correlation matrices R: (loglik, sv, mean).

    K = sv * R, so for a fixed R the log likelihood
    -1/2 (n log(2 pi sv) + log|R| + q / sv) has a single peak at sv = q / n,
    where q = (y - m)^T R^-1 (y - m); clipping it to `sv_range` gives the exact
    optimum within the range.  The constant mean m is estimated by generalized
    least squares.  Each slice needs two triangular solves; the rest is done
    on the whole stack.  A slice with a NaN factor (it never factored) scores
    -inf.
    """
    n = y.size
    Li_y = np.full(L.shape[:2], np.nan)
    Li_1 = np.full(L.shape[:2], np.nan)
    ones = np.ones(n)
    for b in np.flatnonzero(~np.isnan(L[:, 0, 0])):
        # L[b].T is Fortran-ordered: the same LAPACK call solve_triangular makes
        Li_y[b] = dtrtrs(L[b].T, y, lower=0, trans=1)[0]
        Li_1[b] = dtrtrs(L[b].T, ones, lower=0, trans=1)[0]
    mean = _rowdot(Li_1, Li_y) / _rowdot(Li_1, Li_1)
    r = Li_y - mean[:, None] * Li_1
    quad = _rowdot(r, r)
    sv = np.clip(quad / n, *sv_range)
    logdet_R = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
    ll = -0.5 * (n * np.log(2.0 * np.pi * sv) + logdet_R + quad / sv)
    return np.where(np.isnan(ll), -np.inf, ll), sv, mean


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each the same BLAS dot as a 1-d `a[i] @ b[i]`."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _score(D2: np.ndarray, y: np.ndarray, ls: np.ndarray, nr: np.ndarray,
           sv_range: tuple[float, float]):
    """Factor and profile the stack R_b = exp(-D2 / 2 ls_b^2) + nr_b I.

    Returns (loglik, sv, mean, L, jitter), one entry per (ls_b, nr_b) pair.
    """
    R = -D2 / (2.0 * ls[:, None, None] ** 2)
    np.exp(R, out=R)
    diag = np.arange(y.size)
    R[:, diag, diag] += nr[:, None]
    L, jitter = _chol_stack(R)
    return (*_profile(L, y, sv_range), L, jitter)


def fit(data: Dataset, noise: bool = False) -> GPModel:
    """Deterministic maximum-marginal-likelihood fit of the SE kernel.

    The signal variance and the mean are solved in closed form for each
    correlation matrix (see `_profile`), so only the lengthscale is searched:
    a 32-point log grid (times an 8-point noise-ratio grid when `noise` is
    set), then one pattern-search pass over the lengthscale at the winning
    noise ratio.  The grid's correlation matrices are built from one squared
    distance matrix and factored as one stack (in chunks of at most
    `_STACK_ENTRIES` entries); each pattern-search round factors its two
    moves as one 2-slice stack, and the `+step` move wins when both improve.
    """
    width = float(np.mean(data.bounds[:, 1] - data.bounds[:, 0]))
    vy = max(float(np.var(data.y)), 1e-12)
    sv_range = (1e-4 * vy, 4.0 * vy)
    ls_grid = np.geomspace(1e-3 * width, 2.0 * width, 32)
    noise_grid = np.geomspace(1e-6, 1.0, 8) if noise else np.array([0.0])

    D2 = _sqdist(data.X, data.X)
    cand_ls = np.repeat(ls_grid, noise_grid.size)
    cand_nr = np.tile(noise_grid, ls_grid.size)
    chunk = max(1, _STACK_ENTRIES // data.n ** 2)
    best, ls, nr = (-np.inf,), float(ls_grid[0]), 0.0
    for s in range(0, cand_ls.size, chunk):
        scored = _score(D2, data.y, cand_ls[s:s + chunk], cand_nr[s:s + chunk], sv_range)
        k = int(np.argmax(scored[0]))
        if scored[0][k] > best[0]:
            best = tuple(a[k] for a in scored)
            ls, nr = float(cand_ls[s + k]), float(cand_nr[s + k])
    if not np.isfinite(best[0]):
        raise SingularCovariance("no hyperparameter setting factorized")

    # one compass pattern-search pass in log-lengthscale, shrinking steps
    steps = [math.log(ls_grid[1] / ls_grid[0]) / 2.0]
    for _ in range(3):
        steps.append(steps[-1] / 2.0)
    for step in steps:
        improved = True
        while improved:
            moves = np.array([min(max(ls * math.exp(d), ls_grid[0]), ls_grid[-1])
                              for d in (step, -step)])
            scored = _score(D2, data.y, moves, np.full(2, nr), sv_range)
            better = np.flatnonzero(scored[0] > best[0] + 1e-12)
            improved = better.size > 0
            if improved:
                best = tuple(a[better[0]] for a in scored)
                ls = float(moves[better[0]])

    _, sv, mean, L_R, jit = best
    sv, mean = float(sv), float(mean)
    L = L_R * math.sqrt(sv)
    alpha = cho_solve((L, True), data.y - mean)
    return GPModel(
        data=data,
        lengthscale=ls,
        signal_var=sv,
        nugget=nr * sv,
        jitter=float(jit) * sv,
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
