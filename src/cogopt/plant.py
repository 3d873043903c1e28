"""Plant adapter abstraction and the simulated popcorn production plant.

The simulator carries three ground-truth objective curves (energy,
processing time, corn amount per box) built by conditional GP simulation
over a bundled seed dataset of 12 conveyor-runtime settings x 3 repetitions.
Each applied parameter yields one production cycle record whose scalar
objective is the weighted sum of the three normalized objectives.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib.resources
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gp
from .benchmark import derive_seed
from .errors import OutOfBounds, SchemaError
from .rating import validate_weights

SEED_DATA_RESOURCE = "vps_seed.csv"
SEED_COLUMNS = ["x", "f1", "f2", "f3", "rep"]


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
    """Rows (x, f1, f2, f3, rep) of the bundled or user-supplied seed CSV; a SchemaError
    names the file and the line of a missing header, a bad row or too few rows."""
    ref = importlib.resources.files("cogopt.data") / SEED_DATA_RESOURCE if path is None else Path(path)
    rows = list(csv.reader(ref.read_text().rstrip().splitlines()))
    if rows[:1] != [SEED_COLUMNS]:
        raise SchemaError(f"{ref} line 1: need the header {','.join(SEED_COLUMNS)}")
    if len(rows) < 3:
        raise SchemaError(f"{ref} line {len(rows) + 1}: need at least two data rows")
    for n, row in enumerate(rows[1:], start=2):
        try:
            ok = len(row) == len(SEED_COLUMNS) and all(math.isfinite(float(v)) for v in row)
        except ValueError:
            ok = False
        if not ok:
            raise SchemaError(f"{ref} line {n}: need five finite numbers, got {','.join(row)!r}")
    return np.array([[float(v) for v in row] for row in rows[1:]])


@dataclass(frozen=True)
class PlantConfig:
    """The plant's settings with their defaults, each checked when the object is built; a
    message starts with its field, so the config loader can prefix the section.  Building
    also reads the seed data as `curve_data`, a `gp.Dataset` per objective curve, and
    `aggregate_data`, the Dataset of their aggregate."""

    bounds: tuple[float, float] = (500.0, 7000.0)  # conveyor runtime in ms
    noise_sd: float = 0.02
    weights: tuple[float, float, float] = (1.0 / 3, 1.0 / 3, 1.0 / 3)  # one per objective curve
    seed: int = 0
    seed_data: str | None = None  # a CSV with the columns x,f1,f2,f3,rep; None: the bundled one

    def __post_init__(self):
        validate_weights("weights", self.weights)
        if not 0.0 <= self.noise_sd < math.inf:
            raise SchemaError(f"noise_sd: must be a finite number >= 0, got {self.noise_sd}")
        if self.seed < 0:
            raise SchemaError(f"seed: must be >= 0, got {self.seed}")
        try:
            x, *fs = load_seed_dataset(self.seed_data)[:, :4].T
        except SchemaError as exc:
            raise SchemaError(f"seed_data: {exc}") from exc
        # gp.Dataset's bounds checks: finite, lo < hi, not too wide, around the seed settings
        aggregate_data = gp.Dataset(X=x, y=self.aggregate(fs), bounds=self.bounds)
        object.__setattr__(self, "bounds", aggregate_data.bounds)  # as floats
        object.__setattr__(self, "aggregate_data", aggregate_data)
        object.__setattr__(self, "curve_data",
                           tuple(gp.Dataset(X=x, y=f, bounds=self.bounds) for f in fs))

    def aggregate(self, fs):
        """Weighted sum of one value (or array) per curve, left to right, unlike sum()."""
        y = 0.0
        for w, f in zip(self.weights, fs):
            y = y + w * f
        return y


class VpsSimulator(PlantAdapter):
    """Versatile-production-system stand-in with a three-objective trade-off, built from
    `config` (by default `PlantConfig()`, built per call) with `settings` laid over it."""

    def __init__(self, config: PlantConfig | None = None, **settings):
        self.config = PlantConfig(**settings) if config is None else dataclasses.replace(config, **settings)
        self._rng = np.random.default_rng(self.config.seed)
        self._records: list[ProductionCycleRecord] = []
        grid = gp.default_grid(self.bounds)
        self._curves = tuple(gp.simulate_conditional(gp.fit(data, noise=True), grid,
                                                     seed=derive_seed(self.config.seed, 0, k))
                             for k, data in enumerate(self.config.curve_data))

    @property
    def bounds(self) -> tuple[float, float]:
        return self.config.bounds

    @property
    def records(self) -> tuple[ProductionCycleRecord, ...]:
        return tuple(self._records)

    def ground_truth(self, x: float) -> float:
        """Noise-free weighted aggregate; the landscape the optimizers chase."""
        return self.config.aggregate([c(x) for c in self._curves])

    def ground_truth_objective(self):
        return self.ground_truth

    def apply(self, x: float) -> ProductionCycleRecord:
        x = float(x)
        lo, hi = self.bounds
        if not (lo <= x <= hi):
            raise OutOfBounds(f"x={x} outside plant bounds [{lo}, {hi}]")
        fs = [float(c(x)) for c in self._curves]
        if self.config.noise_sd > 0:
            fs = [f + self.config.noise_sd * self._rng.standard_normal() for f in fs]
        record = ProductionCycleRecord(
            x=x,
            f1=fs[0], f2=fs[1], f3=fs[2],
            aggregate=self.config.aggregate(fs),
            timestamp=time.time(),
            cycle=len(self._records) + 1,
        )
        self._records.append(record)
        return record

    def receive_new_data(self, since: int) -> list[ProductionCycleRecord]:
        return [r for r in self._records if r.cycle > since]
