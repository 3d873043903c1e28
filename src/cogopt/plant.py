"""Plant adapter abstraction and the simulated popcorn production plant.

The simulator carries three ground-truth objective curves (energy,
processing time, corn amount per box) built by conditional GP simulation
over a bundled seed dataset of 12 conveyor-runtime settings x 3 repetitions.
Each applied parameter yields one production cycle record whose scalar
objective is the weighted sum of the three normalized objectives.
"""

from __future__ import annotations

import csv
import importlib.resources
import time
from dataclasses import dataclass

import numpy as np

from . import gp
from .benchmark import derive_seed
from .errors import OutOfBounds, SchemaError
from .rating import validate_weights

DEFAULT_BOUNDS = (500.0, 7000.0)  # conveyor runtime in ms
SEED_DATA_RESOURCE = "vps_seed.csv"


@dataclass(frozen=True)
class ProductionCycleRecord:
    x: float
    f1: float  # energy consumption (normalized)
    f2: float  # processing time (normalized)
    f3: float  # corn amount (normalized)
    aggregate: float
    timestamp: float
    cycle: int


class PlantAdapter:
    """Interface every plant implementation provides to the cognition loop."""

    @property
    def bounds(self) -> tuple[float, float]:
        raise NotImplementedError

    def apply(self, x: float) -> ProductionCycleRecord:
        raise NotImplementedError

    def receive_new_data(self, since: int) -> list[ProductionCycleRecord]:
        raise NotImplementedError


def load_seed_dataset(path=None) -> np.ndarray:
    """Rows (x, f1, f2, f3, rep) of the bundled or user-supplied seed CSV."""
    if path is None:
        ref = importlib.resources.files("cogopt.data") / SEED_DATA_RESOURCE
        text = ref.read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    rows = list(csv.reader(text.strip().splitlines()))
    if rows[0] != ["x", "f1", "f2", "f3", "rep"]:
        raise SchemaError("seed dataset must have columns x,f1,f2,f3,rep")
    return np.array([[float(v) for v in row] for row in rows[1:]])


class VpsSimulator(PlantAdapter):
    """Versatile-production-system stand-in with a three-objective trade-off."""

    def __init__(
        self,
        weights=(1.0 / 3, 1.0 / 3, 1.0 / 3),
        noise_sd: float = 0.02,
        seed: int = 0,
        bounds: tuple[float, float] = DEFAULT_BOUNDS,
        seed_data_path=None,
    ):
        validate_weights(weights)
        if noise_sd < 0:
            raise SchemaError("noise_sd must be >= 0")
        self.weights = tuple(float(w) for w in weights)
        self.noise_sd = float(noise_sd)
        self.seed = int(seed)
        self._bounds = (float(bounds[0]), float(bounds[1]))
        self._seed_data = load_seed_dataset(seed_data_path)
        self._rng = np.random.default_rng(self.seed)
        self._records: list[ProductionCycleRecord] = []
        self._curves = self._build_curves()

    @property
    def bounds(self) -> tuple[float, float]:
        return self._bounds

    @property
    def records(self) -> tuple[ProductionCycleRecord, ...]:
        return tuple(self._records)

    def _build_curves(self) -> tuple[gp.Realization, ...]:
        grid = gp.default_grid(self._bounds)
        curves = []
        for k in range(3):
            ds = gp.Dataset(X=self._seed_data[:, 0], y=self._seed_data[:, 1 + k], bounds=self._bounds)
            model = gp.fit(ds, noise=True)
            curves.append(gp.simulate_conditional(model, grid, seed=derive_seed(self.seed, 0, k)))
        return tuple(curves)

    def ground_truth(self, x: float) -> float:
        """Noise-free weighted aggregate; the landscape the optimizers chase."""
        return float(sum(w * c(x) for w, c in zip(self.weights, self._curves)))

    def ground_truth_objective(self):
        return self.ground_truth

    def apply(self, x: float) -> ProductionCycleRecord:
        x = float(x)
        lo, hi = self._bounds
        if not (lo <= x <= hi):
            raise OutOfBounds(f"x={x} outside plant bounds [{lo}, {hi}]")
        fs = [float(c(x)) for c in self._curves]
        if self.noise_sd > 0:
            fs = [f + self.noise_sd * self._rng.standard_normal() for f in fs]
        record = ProductionCycleRecord(
            x=x,
            f1=fs[0], f2=fs[1], f3=fs[2],
            aggregate=float(sum(w * f for w, f in zip(self.weights, fs))),
            timestamp=time.time(),
            cycle=len(self._records) + 1,
        )
        self._records.append(record)
        return record

    def receive_new_data(self, since: int) -> list[ProductionCycleRecord]:
        return [r for r in self._records if r.cycle > since]
