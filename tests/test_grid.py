import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capeskit.errors import GridFormatError, SpecMismatchError, UnitError
from capeskit.grid import (
    AnomalyField,
    Climatology,
    GridField,
    GridSpec,
    anomaly_percent,
    read_grid,
    write_grid,
    write_text_atomic,
)


def mm(spec, values):
    return GridField(spec, values, units="mm")


SPEC = GridSpec(2, 3, lat0=10.0, dlat=0.5, lon0=100.0, dlon=0.5)


class TestTypes:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 3)
        with pytest.raises(ValueError):
            GridSpec(2, 3, dlat=0.0)

    def test_compatibility_is_exact_equality(self):
        a = mm(SPEC, np.zeros((2, 3)))
        b = mm(GridSpec(2, 3, lat0=10.0, dlat=0.5, lon0=100.0, dlon=0.5), np.ones((2, 3)))
        a.require_compatible(b)
        c = mm(GridSpec(2, 3, lat0=10.5, dlat=0.5, lon0=100.0, dlon=0.5), np.ones((2, 3)))
        with pytest.raises(SpecMismatchError):
            a.require_compatible(c)

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            mm(SPEC, bad)
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            AnomalyField(SPEC, bad)

    def test_values_are_read_only(self):
        f = mm(SPEC, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_climatology_floors_values(self):
        c = Climatology(mm(SPEC, np.array([[0.0, 0.05, 1.0], [300.0, 0.0, 2.0]])), floor=0.1)
        assert (c.values >= 0.1).all()
        assert c.values[1, 0] == 300.0

    def test_climatology_requires_mm_and_positive_floor(self):
        with pytest.raises(UnitError):
            Climatology(GridField(SPEC, np.ones((2, 3)), units="percent"))
        with pytest.raises(ValueError):
            Climatology(mm(SPEC, np.ones((2, 3))), floor=0.0)


class TestAnomalyPercent:
    def test_identity_case(self):
        c = Climatology(mm(SPEC, np.full((2, 3), 250.0)))
        a = anomaly_percent(mm(SPEC, np.full((2, 3), 250.0)), c)
        assert (a.values == 0.0).all()

    def test_fifty_percent(self):
        c = Climatology(mm(SPEC, np.full((2, 3), 250.0)))
        a = anomaly_percent(mm(SPEC, np.full((2, 3), 375.0)), c)
        np.testing.assert_allclose(a.values, 50.0)

    def test_worked_value(self):
        # (360 - 300) / 300 * 100 = +20.0
        spec = GridSpec(1, 1)
        c = Climatology(mm(spec, np.array([[300.0]])), floor=1.0)
        a = anomaly_percent(mm(spec, np.array([[360.0]])), c)
        assert a.values[0, 0] == pytest.approx(20.0, abs=1e-12)

    def test_unit_and_spec_errors(self):
        c = Climatology(mm(SPEC, np.full((2, 3), 100.0)))
        with pytest.raises(UnitError):
            anomaly_percent(GridField(SPEC, np.zeros((2, 3)), units="percent"), c)
        other = mm(GridSpec(3, 2), np.zeros((3, 2)))
        with pytest.raises(SpecMismatchError):
            anomaly_percent(other, c)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_precipitation(self, seed):
        rng = np.random.default_rng(seed)
        c = Climatology(mm(SPEC, rng.uniform(0.0, 400.0, (2, 3))))
        x1 = rng.uniform(0.0, 500.0, (2, 3))
        x2 = x1 + rng.uniform(0.1, 50.0, (2, 3))
        a1 = anomaly_percent(mm(SPEC, x1), c)
        a2 = anomaly_percent(mm(SPEC, x2), c)
        assert (a2.values > a1.values).all()


class TestGrd1:
    def test_round_trip_small(self, tmp_path):
        f = mm(SPEC, np.arange(6.0).reshape(2, 3))
        path = tmp_path / "f.grd"
        write_grid(f, path)
        g = read_grid(path)
        assert g.spec == f.spec
        assert g.units == "mm"
        assert np.array_equal(g.values, f.values)

    def test_round_trip_random_exact(self, tmp_path):
        rng = np.random.default_rng(99)
        for i in range(20):
            f = GridField(GridSpec(4, 5), rng.standard_normal((4, 5)) * 1e3, units="percent")
            path = tmp_path / f"r{i}.grd"
            write_grid(f, path)
            assert np.array_equal(read_grid(path).values, f.values)

    def test_writer_matches_per_value_formatting(self, tmp_path):
        # the reference layout: header, then one line per row of
        # repr(float(v)) values, including -0.0 and extreme magnitudes
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((6, 7)) * 10.0 ** rng.integers(-300, 300, (6, 7))
        vals[0, :3] = (-0.0, 0.0, 1e-320)
        f = GridField(GridSpec(6, 7, lat0=-1.5, dlat=0.25), vals, units="percent")
        path = tmp_path / "f.grd"
        write_grid(f, path)
        expected = "GRD1 6 7 -1.5 0.25 0.0 1.0 percent\n" + "".join(
            " ".join(repr(float(v)) for v in row) + "\n" for row in f.values
        )
        assert path.read_text(encoding="ascii") == expected

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_text("GRD1 2 2 0.0 1.0 0.0 1.0 mm\n1 2 3\n")
        with pytest.raises(GridFormatError, match="count mismatch"):
            read_grid(path)

    def test_too_many_values(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_text("GRD1 1 2 0.0 1.0 0.0 1.0 mm\n1 2 3\n")
        with pytest.raises(GridFormatError, match="more than"):
            read_grid(path)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_text("GRD1 1 2 0.0 1.0 0.0 1.0 mm\n1 NaN\n")
        with pytest.raises(GridFormatError, match="line 2"):
            read_grid(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_text("GRD2 1 2 0.0 1.0 0.0 1.0 mm\n1 2\n")
        with pytest.raises(GridFormatError, match="line 1"):
            read_grid(path)
        path.write_text("GRD1 1 2 0.0 1.0 0.0 1.0 furlongs\n1 2\n")
        with pytest.raises(GridFormatError, match="units"):
            read_grid(path)

    def test_unparseable_value_names_line(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_text("GRD1 2 1 0.0 1.0 0.0 1.0 mm\n1\nzap\n")
        with pytest.raises(GridFormatError, match="line 3"):
            read_grid(path)

    def test_accepts_arbitrary_whitespace(self, tmp_path):
        path = tmp_path / "ws.grd"
        path.write_text("GRD1 2 2 0.0 1.0 0.0 1.0 mm\n 1\t2 \n\n3   4\n")
        assert np.array_equal(read_grid(path).values, [[1.0, 2.0], [3.0, 4.0]])

    def test_anomaly_survives_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        f = mm(SPEC, rng.uniform(1.0, 500.0, (2, 3)))
        c = Climatology(mm(SPEC, rng.uniform(10.0, 400.0, (2, 3))))
        path = tmp_path / "f.grd"
        write_grid(f, path)
        a1 = anomaly_percent(f, c)
        a2 = anomaly_percent(read_grid(path), c)
        assert np.array_equal(a1.values, a2.values)


class TestAtomicWrite:
    def test_failed_write_keeps_target_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.csv"
        write_text_atomic(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(path, "new\n\ud800")  # fails midway through encoding
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_failed_grid_rename_keeps_target_and_leaves_no_temp(self, tmp_path, monkeypatch):
        import capeskit.grid as grid

        path = tmp_path / "f.grd"
        write_grid(mm(SPEC, np.ones((2, 3))), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(grid.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_grid(mm(SPEC, np.zeros((2, 3))), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.grd"]
