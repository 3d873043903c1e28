"""Plant adapter abstraction and the simulated popcorn production plant.

The simulator carries three ground-truth objective curves (energy,
processing time, corn amount per box) built by conditional GP simulation
over a bundled seed dataset of 12 conveyor-runtime settings x 3 repetitions.
Each applied parameter yields one production cycle record whose scalar
objective is the mean of the three normalized objectives, its `SIGNALS`.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from . import gp
from .benchmark import derive_seed
from .errors import OutOfBounds, SchemaError, read_text

SIGNALS = ("f1", "f2", "f3")  # the record's fields, one per objective curve
SEED_DATA_RESOURCE = "vps_seed.csv"
SEED_COLUMNS = ["x", *SIGNALS, "rep"]
_WEIGHT = 1.0 / len(SIGNALS)


@dataclass(frozen=True)
class ProductionCycleRecord:
    x: float
    f1: float  # energy consumption (normalized)
    f2: float  # processing time (normalized)
    f3: float  # corn amount (normalized)
    aggregate: float
    cycle: int


class PlantAdapter:
    """Interface every plant implementation provides to the cognition loop."""

    @property
    def bounds(self) -> tuple[float, float]:
        raise NotImplementedError

    def apply(self, x: float) -> ProductionCycleRecord:
        raise NotImplementedError

    def receive_new_data(self, since: int) -> list[ProductionCycleRecord]:
        """The records of the cycles after cycle `since`, the last one the caller has seen
        (0 for none), in cycle order."""
        raise NotImplementedError


def load_seed_dataset(path=None) -> np.ndarray:
    """Rows (x, f1, f2, f3, rep) of the bundled or user-supplied seed CSV; a SchemaError
    names the file, and the line of a missing header, a bad row or too few rows."""
    ref = importlib.resources.files("cogopt.data") / SEED_DATA_RESOURCE if path is None else path
    rows = list(csv.reader(read_text(ref).rstrip().splitlines()))
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


def aggregate(fs):
    """The mean of one value (or array) per signal: `w * f` with w = 1/3, added left to
    right.  A plain loop, because sum() compensates rounding from Python 3.12 on."""
    y = 0.0
    for f in fs:
        y = y + _WEIGHT * f
    return y


@dataclass(frozen=True)
class PlantConfig:
    """The plant's settings with their defaults, each checked when the object is built; a
    message starts with its field, so the config loader can prefix the section.  Building
    also reads the seed data as `curve_data`, a `gp.Dataset` per objective curve, and
    `aggregate_data`, the Dataset of their aggregate."""

    bounds: tuple[float, float] = (500.0, 7000.0)  # conveyor runtime in ms
    noise_sd: float = 0.02
    seed: int = 0
    seed_data: str | None = None  # a CSV with the columns x,f1,f2,f3,rep; None: the bundled one

    def __post_init__(self):
        if not 0.0 <= self.noise_sd < math.inf:
            raise SchemaError(f"noise_sd: must be a finite number >= 0, got {self.noise_sd}")
        if self.seed < 0:
            raise SchemaError(f"seed: must be >= 0, got {self.seed}")
        try:
            x, *fs = load_seed_dataset(self.seed_data)[:, :4].T
        except SchemaError as exc:
            raise SchemaError(f"seed_data: {exc}") from exc
        # gp.Dataset's bounds checks: finite, lo < hi, not too wide, around the seed settings
        aggregate_data = gp.Dataset(X=x, y=aggregate(fs), bounds=self.bounds)
        object.__setattr__(self, "bounds", aggregate_data.bounds)  # as floats
        object.__setattr__(self, "aggregate_data", aggregate_data)
        object.__setattr__(self, "curve_data",
                           tuple(gp.Dataset(X=x, y=f, bounds=self.bounds) for f in fs))


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
        """Noise-free aggregate; the landscape the optimizers chase."""
        return aggregate([c(x) for c in self._curves])

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
            aggregate=aggregate(fs),
            cycle=len(self._records) + 1,
        )
        self._records.append(record)
        return record

    def receive_new_data(self, since: int) -> list[ProductionCycleRecord]:
        return [r for r in self._records if r.cycle > since]
