import numpy as np
import pytest

from cogopt.errors import ConstraintViolation, OutOfBounds, SchemaError
from cogopt.plant import DEFAULT_BOUNDS, VpsSimulator, load_seed_dataset


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
        with pytest.raises(SchemaError):
            load_seed_dataset(path)


class TestConstruction:
    def test_invalid_weights(self):
        with pytest.raises(ConstraintViolation):
            VpsSimulator(weights=(1.0, 0.0, 0.0))

    def test_negative_noise(self):
        with pytest.raises(SchemaError):
            VpsSimulator(noise_sd=-0.1)


class TestApply:
    def test_aggregate_is_weighted_sum(self):
        p = VpsSimulator(weights=(0.5, 0.25, 0.25), noise_sd=0.0, seed=1)
        r = p.apply(3000.0)
        assert r.aggregate == pytest.approx(0.5 * r.f1 + 0.25 * r.f2 + 0.25 * r.f3)

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

    def test_matches_ground_truth_without_noise(self, plant):
        x = 2500.0
        r = plant.apply(x)
        assert r.aggregate == pytest.approx(plant.ground_truth(x), abs=1e-12)


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

    def test_objective_callable_is_the_ground_truth(self, plant):
        f = plant.ground_truth_objective()
        assert f(3000.0) == pytest.approx(plant.ground_truth(3000.0))

    def test_curves_interpolate_seed_data_roughly(self, plant):
        # ground truth comes from conditional simulation over the seed data,
        # so at each design setting it should sit near the replicate spread
        data = load_seed_dataset()
        for x in np.unique(data[:, 0])[:4]:
            reps = data[data[:, 0] == x, 1:4]
            agg = reps.mean(axis=0) @ np.array(plant.weights)
            lo = reps.min() - 0.5
            hi = reps.max() + 0.5
            assert lo <= plant.ground_truth(x) <= hi or abs(plant.ground_truth(x) - agg) < 1.0
