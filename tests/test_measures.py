import numpy as np
import pytest
from hypothesis import given, strategies as st

from subcities import (
    AtomicMeasure,
    Domain,
    Grid,
    GridDensity,
    NegativeDensity,
    NonpositiveMass,
    NotProbability,
    WeightedPointCloud,
    ZeroMass,
    make_grid_density,
    normalize,
    to_point_cloud,
)


def box1d(lo=0.0, hi=1.0):
    return Domain.box([(lo, hi)])


class TestDomain:
    def test_dim_is_the_number_of_intervals(self):
        for bounds in ([(0, 1)], [(0, 1), (-2, 3)], [(0, 1)] * 3):
            domain = Domain.box(bounds)
            assert domain.dim == len(domain.bounds) == len(bounds)

    def test_needs_an_axis(self):
        with pytest.raises(ValueError):
            Domain.box([])

    @pytest.mark.parametrize("interval", [(1.0, 1.0), (2.0, 1.0)])
    def test_rejects_an_empty_interval(self, interval):
        with pytest.raises(ValueError, match="empty interval"):
            Domain.box([(0.0, 1.0), interval])


class TestMakeGridDensity:
    def test_uniform_1d(self):
        d = make_grid_density(box1d(), 4, [1, 1, 1, 1])
        assert d.total_mass == pytest.approx(1.0)

    def test_cell_volume_half(self):
        d = make_grid_density(box1d(), 2, [2, 0])
        assert d.cell_volume == 0.5
        assert d.total_mass == pytest.approx(1.0)

    def test_2d_cell_volume(self):
        d = make_grid_density(Domain.box([(0, 1), (0, 1)]), (2, 2), [4, 0, 0, 0])
        assert d.cell_volume == pytest.approx(0.25)
        assert d.total_mass == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(NegativeDensity):
            make_grid_density(box1d(), 2, [1, -0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_rejects_nonfinite(self, bad, at):
        # a NaN passes the sign check, and a NaN or infinite cell would be
        # written as nan/inf to the CSV and as garbage gray levels to the PGM
        values = [0.5, 0.25, 1.0, 0.75]
        values[at] = bad
        with pytest.raises(ValueError, match="finite"):
            make_grid_density(box1d(), 4, values)

    def test_scalar_resolution_covers_every_axis(self):
        square = Domain.box([(0, 1), (0, 2)])
        assert Grid(square, 3).resolution == (3, 3)
        assert Grid(square, [3, 4]).resolution == (3, 4)
        assert Grid(square, np.int64(5)).resolution == (5, 5)
        assert make_grid_density(square, 2, np.ones(4)).resolution == (2, 2)
        with pytest.raises(ValueError):
            Grid(square, (3,))


class TestNormalize:
    def test_scales_to_one(self):
        d = make_grid_density(box1d(), 2, [2, 2])
        assert np.allclose(normalize(d).values, [1, 1])

    def test_pointwise_proportional(self):
        d = make_grid_density(box1d(), 2, [3, 1])
        assert np.allclose(normalize(d).values, [1.5, 0.5])

    def test_zero_mass_raises(self):
        d = make_grid_density(box1d(), 2, [0, 0])
        with pytest.raises(ZeroMass):
            normalize(d)

    @given(
        st.lists(st.floats(0.0, 50.0), min_size=1, max_size=24).filter(
            lambda v: sum(v) > 1e-9
        )
    )
    def test_mass_one_property(self, values):
        d = make_grid_density(box1d(), len(values), values)
        assert abs(normalize(d).total_mass - 1.0) <= 1e-12


class TestToPointCloud:
    def test_uniform_two_cells(self):
        d = make_grid_density(box1d(), 2, [1, 1])
        cloud = to_point_cloud(d)
        assert np.allclose(cloud.points.ravel(), [0.25, 0.75])
        assert np.allclose(cloud.weights, [0.5, 0.5])

    def test_zero_cells_dropped(self):
        d = make_grid_density(box1d(), 2, [2, 0])
        cloud = to_point_cloud(d)
        assert len(cloud) == 1
        assert cloud.points.ravel()[0] == pytest.approx(0.25)
        assert cloud.weights[0] == pytest.approx(1.0)

    def test_2d_uniform_centers(self):
        d = make_grid_density(Domain.box([(0, 1), (0, 1)]), (2, 2), [1, 1, 1, 1])
        cloud = to_point_cloud(d)
        assert len(cloud) == 4
        assert np.allclose(cloud.weights, 0.25)
        assert sorted(map(tuple, cloud.points)) == [
            (0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)
        ]

    def test_mass_preserved(self):
        rng = np.random.default_rng(0)
        vals = rng.random(40)
        d = normalize(make_grid_density(box1d(), 40, vals))
        cloud = to_point_cloud(d)
        assert abs(cloud.weights.sum() - 1.0) <= 1e-10

    def test_not_probability_raises(self):
        d = make_grid_density(box1d(), 2, [2, 2])
        with pytest.raises(NotProbability):
            to_point_cloud(d)


class TestAtomicMeasure:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure([[0.5], [0.5]], [0.5, 0.5])

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(NonpositiveMass):
            AtomicMeasure([[0.2], [0.8]], [1.0, 0.0])

    def test_probability_flag(self):
        nu = AtomicMeasure([[0.2], [0.8]], [0.25, 0.75])
        assert nu.is_probability()
        assert not AtomicMeasure([[0.5]], [0.5]).is_probability()


class TestWeightedPointCloud:
    """Non-finite input is rejected at construction: a NaN weight passes
    both the positivity and the unit-sum check, and a NaN point reaches the
    transport solver's cost matrix."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightedPointCloud([[0.2], [0.5], [0.8]], [0.5, 0.5, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_point_rejected(self, bad):
        points = np.random.default_rng(0).random((256, 3))
        points[17, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            WeightedPointCloud(points, np.full(256, 1 / 256))


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        d = make_grid_density(Domain.box([(0, 1), (-1, 2)]), (3, 4), np.arange(12.0))
        path = tmp_path / "density.csv"
        d.to_csv(path)
        back = GridDensity.from_csv(path)
        assert back.resolution == d.resolution
        assert back.domain.bounds == d.domain.bounds
        assert np.array_equal(back.values, d.values)

    def test_csv_header_lines(self, tmp_path):
        d = make_grid_density(box1d(), 2, [1, 1])
        path = tmp_path / "density.csv"
        d.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dim,1"
        assert lines[1].startswith("bounds,")
        assert lines[2] == "resolution,2"

    def test_csv_rows_are_float_reprs(self, tmp_path):
        # each value is written as repr of its Python float, in row order
        values = np.array(
            [[0.0, -0.0, 5e-324, 1e300], [0.1, 1.0 / 3.0, 2.5e-17, 123456789.0]]
        )
        d = make_grid_density(Domain.box([(0, 1), (0, 1)]), (2, 4), values)
        path = tmp_path / "density.csv"
        d.to_csv(path)
        rows = path.read_text().splitlines()[3:]
        assert rows == [",".join(repr(float(v)) for v in row) for row in values]
        assert rows[0] == "0.0,-0.0,5e-324,1e+300"

    def test_csv_1d_has_one_value_per_row(self, tmp_path):
        values = np.random.default_rng(3).random(7)
        d = make_grid_density(box1d(), 7, values)
        path = tmp_path / "density.csv"
        d.to_csv(path)
        assert path.read_text().splitlines()[3:] == [repr(float(v)) for v in values]

    def test_pgm_scaling(self, tmp_path):
        d = make_grid_density(box1d(), 3, [0.0, 1.0, 2.0])
        path = tmp_path / "density.pgm"
        d.to_pgm(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "3 1"
        assert lines[2] == "255"
        assert lines[3].split() == ["0", "128", "255"]

    @pytest.mark.parametrize(
        "values",
        [np.zeros((3, 5)), np.random.default_rng(7).random((6, 9)), np.arange(7.0)],
        ids=["all-zero", "2-D", "1-D"],
    )
    def test_pgm_bytes_match_per_element_formatting(self, tmp_path, values):
        d = make_grid_density(Domain.box([(0, 1)] * values.ndim), values.shape, values)
        path = tmp_path / "density.pgm"
        d.to_pgm(path)
        img = d.values if values.ndim == 2 else d.values[None, :]
        peak = img.max()
        scaled = np.zeros_like(img, dtype=int) if peak <= 0 else np.rint(img / peak * 255).astype(int)
        lines = ["P2", f"{scaled.shape[1]} {scaled.shape[0]}", "255"]
        lines += [" ".join(str(v) for v in row) for row in scaled]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_grid_cell_centers_row_major():
    g = Grid(Domain.box([(0, 1), (0, 2)]), (2, 2))
    centers = g.cell_centers()
    assert np.allclose(centers[0], [0.25, 0.5])
    assert np.allclose(centers[1], [0.25, 1.5])
    assert np.allclose(centers[2], [0.75, 0.5])


def test_values_immutable():
    d = make_grid_density(box1d(), 2, [1, 1])
    with pytest.raises(ValueError):
        d.values[0] = 5.0
