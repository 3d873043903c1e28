"""The black-box optimizer portfolio behind a single run interface.

Five bounded minimizers of an objective of the plant's one parameter:
uniform random sampling (the baseline), a limited-memory quasi-Newton hill
climber with finite-difference gradients and random restarts, generalized
simulated annealing with a Tsallis visiting distribution, classic
differential evolution with optional self-adaptation, and Kriging-based
surrogate optimization driven by expected improvement.  Every run is a pure function of (problem, seed, params): the
metering wrapper counts evaluations, enforces bounds and budget, and tracks
the best-so-far trace, per-evaluation CPU time, and deterministic
state-size-based memory accounting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import gp
from .errors import BudgetExhausted, ConfigError, OutOfBounds, SingularCovariance

ALGORITHMS = ("RandomSearch", "HillClimber", "GeneralizedSA", "DifferentialEvolution", "KrigingSBO")
BASELINE = "RandomSearch"


@dataclass
class OptProblem:
    objective: callable          # f(float) -> float
    bounds: tuple[float, float]  # (lo, hi)
    budget: int

    def __post_init__(self):
        lo, hi = np.asarray(self.bounds, dtype=float).reshape(2)
        if not lo < hi:
            raise ConfigError("bounds need lo < hi")
        self.bounds = (float(lo), float(hi))
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")


@dataclass(frozen=True)
class OptResult:
    best_x: float
    best_y: float
    trace: np.ndarray            # best-so-far objective per evaluation
    evals_used: int
    cpu_trace: np.ndarray        # cumulative thread CPU seconds per evaluation
    mem_trace: np.ndarray        # peak tracked bytes up to each evaluation


class MeteredObjective:
    """Counts evaluations, enforces bounds/budget, and meters resources."""

    def __init__(self, problem: OptProblem, base_state_bytes: int = 0):
        self._fn = problem.objective
        self.bounds = problem.bounds
        self.budget = problem.budget
        self.trace: list[float] = []
        self.cpu: list[float] = []
        self.mem: list[int] = []
        self.best_x: float | None = None
        self.best_y = math.inf
        self._state_bytes = base_state_bytes
        self._peak = base_state_bytes
        self._t0 = time.thread_time()

    @property
    def evals(self) -> int:
        return len(self.trace)

    @property
    def remaining(self) -> int:
        return self.budget - self.evals

    def set_state_bytes(self, n: int) -> None:
        self._state_bytes = int(n)
        self._peak = max(self._peak, self._state_bytes)

    def __call__(self, x: float) -> float:
        if self.remaining <= 0:
            raise BudgetExhausted(f"budget of {self.budget} evaluations exhausted")
        x = float(x)
        lo, hi = self.bounds
        if x < lo - 1e-12 or x > hi + 1e-12:
            raise OutOfBounds(f"point {x} outside bounds")
        y = float(self._fn(x))
        if y < self.best_y:
            self.best_y = y
            self.best_x = x
        self.trace.append(self.best_y)
        self.cpu.append(time.thread_time() - self._t0)
        self.mem.append(self._peak)
        return y

    def result(self) -> OptResult:
        return OptResult(
            best_x=self.best_x,
            best_y=self.best_y,
            trace=np.asarray(self.trace),
            evals_used=self.evals,
            cpu_trace=np.asarray(self.cpu),
            mem_trace=np.asarray(self.mem, dtype=np.int64),
        )


def _uniform(rng, bounds, n=None):
    lo, hi = bounds
    return rng.uniform(lo, hi, size=n)


# ---------------------------------------------------------------------------
# Baseline


def random_search(problem: OptProblem, seed: int) -> OptResult:
    rng = np.random.default_rng(seed)
    f = MeteredObjective(problem, base_state_bytes=8 * 3)
    while f.remaining > 0:
        f(_uniform(rng, problem.bounds))
    return f.result()


# ---------------------------------------------------------------------------
# Limited-memory quasi-Newton hill climber


def _fd_gradient(f: MeteredObjective, x: float, h: float) -> float:
    """Central difference with the stencil shifted inside the bounds."""
    lo, hi = f.bounds
    a = min(x + h, hi)
    b = max(x - h, lo)
    if a == b:
        return 0.0
    if f.remaining < 2:
        raise BudgetExhausted("not enough budget for a gradient")
    return (f(a) - f(b)) / (a - b)


def hill_climber(problem: OptProblem, seed: int, lmm: int = 5) -> OptResult:
    """Bounded L-BFGS descent with random restarts from uniform points.

    In one dimension the L-BFGS two-loop recursion collapses to a secant
    step over the last `lmm` curvature pairs (see `_secant_direction`).
    """
    if lmm < 1:
        raise ConfigError("lmm must be >= 1")
    rng = np.random.default_rng(seed)
    f = MeteredObjective(problem, base_state_bytes=8 * (2 * lmm + 4))
    lo, hi = problem.bounds
    h = 1e-6 * (hi - lo)
    gtol = 1e-9 * max(1.0, hi - lo)

    try:
        while f.remaining > 0:
            x = _uniform(rng, problem.bounds)
            fx = f(x)
            g = _fd_gradient(f, x, h)
            pairs: list[tuple[float, float]] = []  # the last lmm curvature pairs (s, y)
            while f.remaining > 0:
                # projected gradient: zero where it pushes outside
                pushing_out = (x <= lo + 1e-14 and g > 0) or (x >= hi - 1e-14 and g < 0)
                pg = 0.0 if pushing_out else g
                if abs(pg) < gtol:
                    break  # converged; restart from a fresh point
                d = _secant_direction(g, pairs)
                if d * g >= 0:
                    d = -g
                # backtracking line search on the clipped step
                alpha = 1.0
                accepted = False
                for _ in range(30):
                    if f.remaining < 1:
                        raise BudgetExhausted("line search out of budget")
                    xn = min(max(x + alpha * d, lo), hi)
                    if np.isclose(xn, x):
                        break
                    fn = f(xn)
                    if fn < fx - 1e-4 * abs(alpha) * abs(pg * d):
                        accepted = True
                        break
                    alpha *= 0.5
                if not accepted:
                    break  # no descent step found; restart
                gn = _fd_gradient(f, xn, h)
                pairs.append((xn - x, gn - g))
                del pairs[:-lmm]
                x, fx, g = xn, fn, gn
    except BudgetExhausted:
        pass
    return f.result()


def _secant_direction(g: float, pairs) -> float:
    """The two-loop recursion's direction in one dimension, in closed form.

    The newest pair (s, y) with s * y > 1e-16 gives the secant step -g * s / y.
    With none, -g is scaled by the newest pair's s * y / (y * y), if any.
    """
    for s, y in reversed(pairs):
        if s * y > 1e-16:
            return -g * s / y
    if pairs:
        s, y = pairs[-1]
        if y * y > 0:
            return -((s * y) / (y * y) * g)
    return -g


# ---------------------------------------------------------------------------
# Generalized simulated annealing


def _reflect(x: float, lo: float, hi: float) -> float:
    """Fold an arbitrary proposal back into [lo, hi] (mirror boundaries)."""
    span = hi - lo
    z = (x - lo) % (2.0 * span)
    if z > span:
        z = 2.0 * span - z
    return lo + z


def generalized_sa(problem: OptProblem, seed: int, temp: float = 100.0,
                   qv: float = 2.5, qa: float = -1.0) -> OptResult:
    if not (1.0 < qv < 3.0):
        raise ConfigError("qv must lie in (1, 3)")
    if temp <= 0:
        raise ConfigError("temp must be > 0")
    rng = np.random.default_rng(seed)
    f = MeteredObjective(problem, base_state_bytes=8 * 6)
    lo, hi = problem.bounds
    span = hi - lo

    x = _uniform(rng, problem.bounds)
    fx = f(x)
    df = (3.0 - qv) / (qv - 1.0)  # Student-t dof of the Tsallis visiting law
    t = 1
    c = 2.0 ** (qv - 1.0) - 1.0
    while f.remaining > 0:
        tv = temp * c / ((1.0 + t) ** (qv - 1.0) - 1.0)
        # heavy-tailed q-Gaussian step via the normal/gamma construction
        u = rng.standard_normal()
        g = rng.gamma(df / 2.0, 2.0)
        step = u / math.sqrt(max(g / df, 1e-300))
        width = tv ** (1.0 / (3.0 - qv))
        xn = _reflect(x + step * width * span, lo, hi)
        fn = f(xn)
        if fn <= fx:
            x, fx = xn, fn
        else:
            p = gsa_acceptance_probability(fn - fx, tv, t, qa)
            if p > 0.0 and rng.uniform() < p:
                x, fx = xn, fn
        t += 1
    return f.result()


def gsa_acceptance_probability(delta: float, temp_visit: float, t: int, qa: float) -> float:
    """Generalized acceptance rule for a worsening move (delta > 0)."""
    if delta <= 0:
        return 1.0
    ta = temp_visit / max(t, 1)
    base = 1.0 - (1.0 - qa) * delta / max(ta, 1e-300)
    return base ** (1.0 / (1.0 - qa)) if base > 0.0 else 0.0


# ---------------------------------------------------------------------------
# Differential evolution


def differential_evolution(problem: OptProblem, seed: int, popsize: int = 5,
                           strategy: int = 2, F: float = 0.8, CR: float = 0.5,
                           c: float = 0.5) -> OptResult:
    if popsize < 4:
        raise ConfigError("popsize must be >= 4 (mutation needs 3 distinct others)")
    if strategy not in (1, 2, 3, 4, 5):
        raise ConfigError("strategy must be in {1..5}")
    if not (0.0 <= F <= 2.0) or not (0.0 <= CR <= 1.0) or not (0.0 <= c <= 1.0):
        raise ConfigError("F in [0,2], CR in [0,1], c in [0,1]")
    rng = np.random.default_rng(seed)
    f = MeteredObjective(problem, base_state_bytes=16 * popsize)
    lo, hi = problem.bounds

    pop = _uniform(rng, problem.bounds, popsize)
    fit = np.full(popsize, np.inf)
    for i in range(popsize):
        if f.remaining <= 0:
            return f.result()
        fit[i] = f(pop[i])

    Fm, CRm = F, CR
    ibest = int(np.argmin(fit))  # the running best member's slot
    while f.remaining > 0:
        succ_F: list[float] = []
        succ_CR: list[float] = []
        for i in range(popsize):
            if f.remaining <= 0:
                break
            if c > 0.0:
                Fi = float(np.clip(Fm + 0.1 * rng.standard_normal(), 0.0, 2.0))
                CRi = float(np.clip(CRm + 0.1 * rng.standard_normal(), 0.0, 1.0))
            else:
                Fi, CRi = Fm, CRm
            r = _distinct(rng, popsize, i, 5)
            a, b, cc, d, e = (pop[j] for j in r)
            best = pop[ibest]
            if strategy == 1:
                mutant = a + Fi * (b - cc)
            elif strategy == 2:
                mutant = best + Fi * (a - b)
            elif strategy == 3:
                mutant = pop[i] + Fi * (best - pop[i]) + Fi * (a - b)
            elif strategy == 4:
                mutant = best + Fi * (a - b + cc - d)
            else:
                mutant = a + Fi * (b - cc + d - e)
            # binomial crossover of one coordinate: CR > 0 forces the mutant's;
            # its uniform draw is still made, so seeded runs keep their stream
            rng.uniform()
            trial = min(max(mutant if CRi > 0.0 else pop[i], lo), hi)
            ft = f(trial)
            if ft <= fit[i]:
                pop[i] = trial
                fit[i] = ft
                if ft < fit[ibest]:
                    ibest = i
                succ_F.append(Fi)
                succ_CR.append(CRi)
        if c > 0.0 and succ_F:
            Fm = (1.0 - c) * Fm + c * float(np.mean(succ_F))
            CRm = (1.0 - c) * CRm + c * float(np.mean(succ_CR))
    return f.result()


def _distinct(rng, popsize, exclude, k):
    idx = [j for j in range(popsize) if j != exclude]
    picks = list(rng.permutation(idx))
    while len(picks) < k:  # small populations: reuse indices rather than abort
        picks += list(rng.permutation(idx))
    return picks[:k]


# ---------------------------------------------------------------------------
# Kriging surrogate-based optimization


def latin_hypercube(rng, bounds, n: int) -> np.ndarray:
    """One point per equal-width stratum of (lo, hi), strata permuted."""
    lo, hi = bounds
    u = (rng.uniform(size=n) + rng.permutation(n)) / n
    return lo + u * (hi - lo)


def _expected_improvement(mu, var, y_best):
    sd = np.sqrt(np.maximum(var, 1e-18))
    z = (y_best - mu) / sd
    pdf = np.exp(-z ** 2 / 2.0) / np.sqrt(2 * np.pi)
    return (y_best - mu) * ndtr(z) + sd * pdf


def kriging_sbo(problem: OptProblem, seed: int, designSize: int = 7,
                designType: str = "Lhd") -> OptResult:
    if designSize < 3:
        raise ConfigError("designSize must be >= 3")
    if problem.budget <= designSize:
        raise ConfigError("budget must exceed designSize")
    if designType not in ("Lhd", "Uniform"):
        raise ConfigError("designType must be Lhd or Uniform")
    rng = np.random.default_rng(seed)
    f = MeteredObjective(problem)
    lo, hi = problem.bounds

    if designType == "Lhd":
        design = latin_hypercube(rng, problem.bounds, designSize)
    else:
        design = _uniform(rng, problem.bounds, designSize)
    X: list[float] = []
    y: list[float] = []
    for x in design:
        if f.remaining <= 0:
            break
        y.append(f(x))
        X.append(x)
        f.set_state_bytes(16 * len(X))

    # the last no-noise model's lengthscale starts the next no-noise fit;
    # None (at first, and after a singular fit) scans the whole grid
    start = None
    while f.remaining > 0:
        ds = gp.Dataset(X=np.asarray(X), y=np.asarray(y), bounds=problem.bounds)
        try:
            model = gp.fit(ds, start=start)
            start = model.lengthscale
        except SingularCovariance:
            start = None
            try:  # soft restart: re-fit with a noise term absorbing duplicates
                model = gp.fit(ds, noise=True)
            except SingularCovariance:
                model = None
        if model is None:
            xn = _uniform(rng, problem.bounds)
        else:
            f.set_state_bytes(16 * len(X) + model.state_bytes())
            cand = _uniform(rng, problem.bounds, 2048)
            # local refinement around the incumbent best
            local = f.best_x + 0.01 * (hi - lo) * rng.standard_normal(64)
            cand = np.concatenate([cand, np.clip(local, lo, hi)])
            mu, var = gp.predict(model, cand)
            ei = _expected_improvement(mu, var, f.best_y)
            xn = cand[int(np.argmax(ei))]
            # np.isclose(xn, X, atol=1e-12), without its checks for non-finite input
            if (np.abs(xn - ds.X) <= 1e-12 + 1e-5 * np.abs(ds.X)).any():
                xn = _uniform(rng, problem.bounds)
        yn = f(xn)
        X.append(float(xn))
        y.append(yn)
    return f.result()


# ---------------------------------------------------------------------------
# Dispatch

_RUNNERS = {
    "RandomSearch": random_search,
    "HillClimber": hill_climber,
    "GeneralizedSA": generalized_sa,
    "DifferentialEvolution": differential_evolution,
    "KrigingSBO": kriging_sbo,
}


def run_optimizer(algorithm: str, problem: OptProblem, seed: int,
                  params: dict | None = None) -> OptResult:
    if algorithm not in _RUNNERS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    return _RUNNERS[algorithm](problem, seed, **(params or {}))
