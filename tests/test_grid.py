from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capeskit import grid
from capeskit.errors import CapeskitError, GridFormatError, SpecMismatchError, UnitError
from capeskit.grid import (
    AnomalyField,
    Climatology,
    GridField,
    GridSpec,
    anomaly_percent,
    read_anomaly,
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


def reference_read(path):
    """The per-token reader the vectorized one replaced: universal-newline
    ASCII text, ``float`` per token, line numbers of the first bad token.
    Returns the values, or the message of the GridFormatError to expect."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    head = lines[0].split()
    expected = int(head[1]) * int(head[2])
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        for tok in line.split():
            try:
                v = float(tok)
            except ValueError:
                return f"line {lineno}: unparseable value {tok!r}"
            if not np.isfinite(v):
                return f"line {lineno}: non-finite value {tok!r}"
            if len(values) >= expected:
                return f"line {lineno}: more than the declared {expected} values"
            values.append(v)
    if len(values) != expected:
        return (f"line {len(lines)}: value count mismatch: header declares {expected}, "
                f"found {len(values)}")
    return np.array(values)


LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", " \n\t", "\n\n", "\r\r\n"])
SEPARATORS = st.one_of(st.sampled_from([" ", "  ", "\t"]), LINE_ENDS)
# near-float tokens: what float() accepts, rejects, or reads as non-finite
TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-Infinity", "iNf", "1e400", "-1e999",
                     "1_0", "1__0", "_1", "1_", "1e+", ".5", "-0", "+.5e3", "0x10", "1d5",
                     "nan(1)", "--1", "zap", "1.2.3", "e5", "1e-400", "4.9e-324"]),
)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestGrd1Reader:
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_reflowed_round_trip_is_bit_identical(self, tmp_path_factory, nlat, nlon, data):
        vals = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                           min_size=nlat * nlon, max_size=nlat * nlon)))
        f = GridField(GridSpec(nlat, nlon, lat0=-3.5), vals.reshape(nlat, nlon),
                      units="percent")
        path = tmp_path_factory.mktemp("grd") / "f.grd"
        write_grid(f, path)
        header, body = path.read_text(encoding="ascii").split("\n", 1)
        seps = data.draw(st.lists(SEPARATORS, min_size=len(vals), max_size=len(vals)))
        text = header + data.draw(LINE_ENDS) + "".join(t + s for s, t in zip(seps, body.split()))
        path.write_bytes(text.encode("ascii"))
        g = read_grid(path)
        assert g.spec == f.spec and g.units == "percent"
        assert np.array_equal(bits(g.values), bits(f.values))

    @given(st.integers(1, 3), st.integers(1, 3),
           st.lists(st.lists(TOKENS, max_size=5), max_size=5), LINE_ENDS)
    @settings(max_examples=300, deadline=None)
    def test_accepts_and_rejects_like_the_per_token_scan(self, tmp_path_factory, nlat, nlon,
                                                         rows, newline):
        path = tmp_path_factory.mktemp("grd") / "f.grd"
        body = "".join(" ".join(row) + newline for row in rows)
        path.write_bytes(f"GRD1 {nlat} {nlon} 0.0 1.0 0.0 1.0 mm{newline}{body}".encode())
        want = reference_read(path)
        if isinstance(want, str):
            with pytest.raises(GridFormatError) as exc:
                read_grid(path)
            assert str(exc.value) == want
        else:
            assert np.array_equal(bits(read_grid(path).values.ravel()), bits(want))

    @pytest.mark.parametrize("newline,line", [("\n", 3), ("\r\n", 3), ("\r", 3)])
    def test_non_ascii_byte_names_its_line(self, tmp_path, newline, line):
        path = tmp_path / "bad.grd"
        nl = newline.encode()
        path.write_bytes(b"GRD1 2 1 0.0 1.0 0.0 1.0 mm" + nl + b"1.0" + nl + b"2 \xc3\xa9" + nl)
        with pytest.raises(GridFormatError, match=f"line {line}: non-ASCII byte 0xc3"):
            read_grid(path)

    def test_huge_declared_grid_counts_before_allocating(self, tmp_path):
        # 10^10 cells would be a 74.5 GiB array; the error path only counts
        import tracemalloc

        path = tmp_path / "huge.grd"
        path.write_text("GRD1 100000 100000 0.0 1.0 0.0 1.0 mm\n1.0\n")
        tracemalloc.start()
        try:
            with pytest.raises(GridFormatError, match="value count mismatch: header "
                                                      "declares 10000000000, found 1"):
                read_grid(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_read_anomaly_shares_the_frozen_values(self, tmp_path):
        path = tmp_path / "a.grd"
        write_grid(GridField(SPEC, np.arange(6.0).reshape(2, 3), units="percent"), path)
        g = read_grid(path)
        a = AnomalyField.from_grid(g)
        assert a.values is g.values and not a.values.flags.writeable
        assert np.array_equal(read_anomaly(path).values, g.values)
        write_grid(mm(SPEC, np.zeros((2, 3))), path)
        with pytest.raises(UnitError):
            read_anomaly(path)


class TestFreeze:
    def test_non_finite_is_an_input_error(self):
        bad = np.zeros((2, 3))
        bad[1, 2] = np.inf
        with pytest.raises(CapeskitError, match="finite"):
            GridField(SPEC, bad)

    def test_shape_mismatch_stays_an_internal_error(self):
        with pytest.raises(ValueError) as exc:
            GridField(SPEC, np.zeros((4, 4)))
        assert not isinstance(exc.value, CapeskitError)


def repr_body(values):
    """The writer's oracle: ``repr`` of each value, a space between values,
    a newline after each row."""
    rows = np.asarray(values, dtype=np.float64).tolist()
    return "".join(" ".join(map(repr, row)) + "\n" for row in rows).encode()


def body(values):
    """The GRD1 body the writer produces for one 2-D array."""
    return next(grid._bodies([np.asarray(values, dtype=np.float64)]))


def random_finite(rng, n):
    """Finite doubles from uniformly random bit patterns (mostly values that
    repr writes in scientific notation)."""
    x = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True).view(np.float64)
    x = x[np.isfinite(x)]
    return x[:len(x) // 8 * 8].reshape(-1, 8)


def random_positional(rng, n):
    """Doubles with random signs and significands whose binary exponents
    span the positional range 1e-4 <= |x| < 1e16 and a little beyond."""
    bits = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    bits |= rng.integers(1023 - 20, 1023 + 60, n).astype(np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
    return bits.view(np.float64).reshape(-1, 8)


EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-4, 9.999999999999999e-05, 1e16,
         9999999999999998.0, 1e15, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1.7976931348623157e308,
         1e22, 1e23, 0.1, 0.3, 1 / 3, 0.5, 1.0, 9.5, 123.456, 0.00012345678901234567,
         999999999999999.9, 1e-323, 2.2250738585072009e-308, 4.35, 0.001]


class TestBodyWriter:
    """The vectorized body formatter against the ``repr`` join it replaced."""

    def test_edge_values(self):
        edges = np.array(EDGES + [-v for v in EDGES])
        for v in edges:
            assert body([[v]]) == repr_body([[v]])
        assert body(edges.reshape(2, -1)) == repr_body(edges.reshape(2, -1))
        assert body([[-0.0, 0.0]]) == b"-0.0 0.0\n"

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(2018)
        for x in (random_finite(rng, 1 << 18), random_positional(rng, 1 << 18)):
            assert body(x) == repr_body(x)

    @pytest.mark.slow
    def test_ten_million_bit_patterns(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            for x in (random_finite(rng, 1 << 20), random_positional(rng, 1 << 20)):
                assert body(x) == repr_body(x)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
           st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_any_finite_floats(self, values, ncol):
        x = np.array(values * ncol).reshape(-1, ncol)
        assert body(x) == repr_body(x)

    def test_shortest_digits_of_normal_doubles(self):
        # every exponent, including the powers of two whose lower neighbour
        # is twice as close; the writer itself uses repr outside 1e-4..1e16
        rng = np.random.default_rng(5)
        bits = rng.integers(1 << 52, 2047 << 52, 1 << 14, dtype=np.uint64)
        powers = np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)
        bits = np.concatenate([bits, powers, powers + np.uint64(1), powers - np.uint64(1)])
        bits = bits[(bits >> np.uint64(52)) > 0]
        f, e = grid._shortest(bits)
        for b, fi, ei in zip(bits.view(np.float64).tolist(), f.tolist(), e.tolist()):
            sign, digits, exp = Decimal(repr(b)).normalize().as_tuple()
            assert (fi, ei) == (int("".join(map(str, digits))), exp), repr(b)

    def test_rows_wider_than_a_chunk(self):
        x = random_positional(np.random.default_rng(3), 2 * grid._CHUNK + 8).reshape(2, -1)
        assert body(x) == repr_body(x)

    def test_bytes_are_written_as_they_are(self, tmp_path):
        path = tmp_path / "b.bin"
        write_text_atomic(path, b"a\r\nb\n")
        assert path.read_bytes() == b"a\r\nb\n"
