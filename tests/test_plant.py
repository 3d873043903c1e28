import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogopt.errors import OutOfBounds, SchemaError
from cogopt.plant import SIGNALS, PlantConfig, ProductionCycleRecord, VpsSimulator, load_seed_dataset

DEFAULT_BOUNDS = PlantConfig().bounds
W = 1.0 / 3  # each signal's weight in the plant's aggregate, their mean


@pytest.fixture(scope="module")
def plant():
    return VpsSimulator(noise_sd=0.0, seed=4)


class TestSeedDataset:
    def test_bundled_dataset_shape(self):
        data = load_seed_dataset()
        assert data.shape == (36, 5)  # 12 settings x 3 reps
        assert len(np.unique(data[:, 0])) == 12
        lo, hi = DEFAULT_BOUNDS
        assert np.all((data[:, 0] >= lo) & (data[:, 0] <= hi))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "seed.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))} line 1: need the header"):
            load_seed_dataset(path)

    @pytest.mark.parametrize("body, line", [
        ("500,0.6,0.7,0.2,1\n7000,a,0.7,0.2,1\n", 3),      # a cell that is not a number
        ("500,0.6,0.7,0.2,1\n7000,0.6,0.7\n", 3),          # a short row
        ("500,0.6,0.7,0.2,1\n\n7000,0.6,0.7,0.2,1\n", 3),  # a blank row
        ("500,nan,0.7,0.2,1\n7000,0.6,0.7,0.2,1\n", 2),    # a number that is not finite
        ("", 2),                                            # no data rows
        ("500,0.6,0.7,0.2,1\n", 3),                         # one data row
    ])
    def test_malformed_file_names_the_file_and_line(self, tmp_path, body, line):
        path = tmp_path / "seed.csv"
        path.write_text("x,f1,f2,f3,rep\n" + body)
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))} line {line}: "):
            load_seed_dataset(path)

    def test_a_directory_or_a_file_that_is_not_utf8_is_refused(self, tmp_path):
        not_text = tmp_path / "seed.csv"
        not_text.write_bytes(b"\xff\xfe\x00x")
        for path in (tmp_path, not_text):
            with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: cannot read it"):
                load_seed_dataset(path)

    def test_a_copy_of_the_bundled_file_reads_the_same(self, tmp_path):
        path = tmp_path / "seed.csv"
        np.savetxt(path, load_seed_dataset(), delimiter=",", header="x,f1,f2,f3,rep",
                   comments="", fmt="%.17g")
        assert np.array_equal(load_seed_dataset(path), load_seed_dataset())


class TestConstruction:
    @pytest.mark.parametrize("noise_sd", [float("nan"), float("inf")])
    def test_noise_must_be_finite(self, noise_sd):
        with pytest.raises(SchemaError, match="^noise_sd: must be a finite number >= 0"):
            PlantConfig(noise_sd=noise_sd)

    def test_negative_seed(self):
        with pytest.raises(SchemaError, match="^seed: must be >= 0, got -1"):
            PlantConfig(seed=-1)

    @pytest.mark.parametrize("bounds", [
        (7000.0, 500.0), (500.0, float("inf")), (float("-inf"), 7000.0),
        (float("nan"), 7000.0), (-1e200, 1e200), (-1e308, 1e308)])
    def test_bounds_must_be_finite_ordered_and_not_too_wide(self, bounds):
        with pytest.raises(SchemaError, match="^bounds: need lo < hi at most 1e\\+150 apart"):
            PlantConfig(bounds=bounds)

    def test_bounds_must_contain_the_seed_settings(self):
        with pytest.raises(SchemaError, match=re.escape(
                "bounds: [0.0, 100.0] do not contain the settings [500.0, 7000.0]")):
            PlantConfig(bounds=(0, 100))

    def test_a_bad_seed_file_names_the_setting(self, tmp_path):
        path = tmp_path / "seed.csv"
        path.write_text("x,f1,f2,f3,rep\n500,a,0.7,0.2,1\n7000,0.6,0.7,0.2,1\n")
        with pytest.raises(SchemaError, match=f"^seed_data: {re.escape(str(path))} line 2: "):
            PlantConfig(seed_data=str(path))

    def test_settings_are_laid_over_the_config(self):
        config = PlantConfig(seed=3, noise_sd=0.05)
        plant = VpsSimulator(config, noise_sd=0.0)
        assert plant.config == dataclasses.replace(config, noise_sd=0.0)
        assert plant.bounds == (500.0, 7000.0)
        assert all(type(b) is float for b in VpsSimulator(bounds=[500, 7000]).bounds)

    def test_negative_noise(self):
        with pytest.raises(SchemaError, match="^noise_sd: "):
            VpsSimulator(noise_sd=-0.1)

    def test_aggregate_data_is_the_plant_aggregate_of_the_seed_rows(self, plant):
        data = plant.config.aggregate_data
        rows = load_seed_dataset()
        assert np.array_equal(data.X, rows[:, 0]) and data.bounds == plant.bounds
        # bit for bit: the plant's left-to-right sum, not a dot product
        assert data.y.tolist() == [W * r[1] + W * r[2] + W * r[3] for r in rows]


class TestApply:
    def test_aggregate_is_the_mean_of_the_signals(self):
        # with noise too, the noisy objectives are added left to right
        p = VpsSimulator(noise_sd=0.05, seed=1)
        r = p.apply(3000.0)
        assert r.aggregate == W * r.f1 + W * r.f2 + W * r.f3

    def test_each_signal_is_a_record_field(self):
        fields = [f.name for f in dataclasses.fields(ProductionCycleRecord)]
        assert fields[1:4] == list(SIGNALS)

    def test_out_of_bounds(self, plant):
        lo, hi = plant.bounds
        with pytest.raises(OutOfBounds):
            plant.apply(lo - 1.0)
        with pytest.raises(OutOfBounds):
            plant.apply(hi + 1.0)

    def test_noise_free_determinism(self):
        p = VpsSimulator(noise_sd=0.0, seed=2)
        a = p.apply(4000.0)
        b = p.apply(4000.0)
        assert (a.f1, a.f2, a.f3, a.aggregate) == (b.f1, b.f2, b.f3, b.aggregate)
        assert b.cycle == a.cycle + 1

    def test_noise_perturbs_objectives(self):
        p = VpsSimulator(noise_sd=0.05, seed=2)
        a = p.apply(4000.0)
        b = p.apply(4000.0)
        assert a.f1 != b.f1

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(*DEFAULT_BOUNDS))
    def test_matches_ground_truth_without_noise(self, plant, x):
        # bit for bit on every Python version: both add their terms left to right
        assert plant.apply(x).aggregate == plant.ground_truth(x)


class TestReceiveNewData:
    def test_delta_semantics(self):
        p = VpsSimulator(noise_sd=0.0, seed=3)
        for x in (1000.0, 2000.0, 3000.0):
            p.apply(x)
        assert len(p.receive_new_data(0)) == 3
        latest = p.receive_new_data(0)[-1].cycle
        assert p.receive_new_data(latest) == []
        assert len(p.receive_new_data(1)) == 2

    def test_cycles_strictly_increasing(self):
        p = VpsSimulator(noise_sd=0.0, seed=3)
        for x in (1000.0, 2000.0, 3000.0, 4000.0):
            p.apply(x)
        cycles = [r.cycle for r in p.receive_new_data(0)]
        assert cycles == sorted(cycles)
        assert len(set(cycles)) == len(cycles)


class TestGroundTruth:
    def test_deterministic_per_seed(self):
        a = VpsSimulator(noise_sd=0.0, seed=7)
        b = VpsSimulator(noise_sd=0.0, seed=7)
        xs = np.linspace(*DEFAULT_BOUNDS, 20)
        assert [a.ground_truth(x) for x in xs] == [b.ground_truth(x) for x in xs]

    def test_seeds_give_different_landscapes(self):
        a = VpsSimulator(noise_sd=0.0, seed=7)
        b = VpsSimulator(noise_sd=0.0, seed=8)
        xs = np.linspace(*DEFAULT_BOUNDS, 20)
        diff = max(abs(a.ground_truth(x) - b.ground_truth(x)) for x in xs)
        assert diff > 0

    def test_is_the_plain_left_to_right_mean(self, plant):
        # sum() would compensate the rounding of Python floats from 3.12 on
        c0, c1, c2 = plant._curves
        for x in np.linspace(*DEFAULT_BOUNDS, 50):
            assert plant.ground_truth(x) == W * c0(x) + W * c1(x) + W * c2(x)

    def test_objective_callable_is_the_ground_truth(self, plant):
        f = plant.ground_truth_objective()
        assert f(3000.0) == pytest.approx(plant.ground_truth(3000.0))

    def test_curves_interpolate_seed_data_roughly(self, plant):
        # ground truth comes from conditional simulation over the seed data,
        # so at each design setting it should sit near the replicate spread
        data = load_seed_dataset()
        for x in np.unique(data[:, 0])[:4]:
            reps = data[data[:, 0] == x, 1:4]
            agg = reps.mean()
            lo = reps.min() - 0.5
            hi = reps.max() + 0.5
            assert lo <= plant.ground_truth(x) <= hi or abs(plant.ground_truth(x) - agg) < 1.0
