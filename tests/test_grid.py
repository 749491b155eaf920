import errno
import math
import os
import re
import sys
import threading
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capeskit import grid
from capeskit.errors import CapeskitError
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
        with pytest.raises(CapeskitError, match="grid specs differ"):
            a.require_compatible(c)
        with pytest.raises(CapeskitError, match="grid specs differ: GridSpec"):
            AnomalyField(SPEC, np.zeros((2, 3))).require_compatible(c)

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
        with pytest.raises(CapeskitError, match="climatology must be in mm, got 'percent'"):
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
        with pytest.raises(CapeskitError, match="anomaly_percent expects mm input"):
            anomaly_percent(GridField(SPEC, np.zeros((2, 3)), units="percent"), c)
        other = mm(GridSpec(3, 2), np.zeros((3, 2)))
        with pytest.raises(CapeskitError, match="grid specs differ"):
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
        with pytest.raises(CapeskitError, match="count mismatch"):
            read_grid(path)

    def test_too_many_values(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_text("GRD1 1 2 0.0 1.0 0.0 1.0 mm\n1 2 3\n")
        with pytest.raises(CapeskitError, match="more than"):
            read_grid(path)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_text("GRD1 1 2 0.0 1.0 0.0 1.0 mm\n1 NaN\n")
        with pytest.raises(CapeskitError, match="line 2"):
            read_grid(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_text("GRD2 1 2 0.0 1.0 0.0 1.0 mm\n1 2\n")
        with pytest.raises(CapeskitError, match="line 1"):
            read_grid(path)
        path.write_text("GRD1 1 2 0.0 1.0 0.0 1.0 furlongs\n1 2\n")
        with pytest.raises(CapeskitError, match="units"):
            read_grid(path)

    def test_unparseable_value_names_line(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_text("GRD1 2 1 0.0 1.0 0.0 1.0 mm\n1\nzap\n")
        with pytest.raises(CapeskitError, match="line 3"):
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
            raise OSError(errno.EPERM, "rename refused")

        monkeypatch.setattr(grid.os, "replace", refuse)
        with pytest.raises(CapeskitError, match=re.escape(f"cannot write {path}: rename refused")):
            write_grid(mm(SPEC, np.zeros((2, 3))), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.grd"]


class TestWriteBehind:
    """GRD1 files, one or several, are written on one I/O thread behind
    the formatter; the caller sees the bytes, order and errors of a loop."""

    N = 12  # 32 x 32 fields of about 19 kB: two handoffs of about 128 KiB
    SPEC = GridSpec(32, 32)

    def write(self, tmp_path, n=N):
        values = np.random.default_rng(5).uniform(-100, 100, (n, 32, 32))
        paths = [tmp_path / f"m{i:02d}.grd" for i in range(n)]
        return values, paths

    def assert_prefix_written(self, tmp_path, values, paths, k):
        """Members before k hold their fields, no later member and no temp
        file exists, and no writer thread is left."""
        for i, path in enumerate(paths):
            if i < k:
                assert np.array_equal(read_anomaly(path).values, values[i])
            else:
                assert not path.exists(), path
        assert not list(tmp_path.glob(".*.tmp"))
        assert not [t for t in threading.enumerate() if t.name == "capeskit-writer"]

    @pytest.mark.parametrize("handoff", [1, grid._HANDOFF, 1 << 30])
    def test_files_are_those_write_grid_writes(self, tmp_path, monkeypatch, handoff):
        monkeypatch.setattr(grid, "_HANDOFF", handoff)
        values, paths = self.write(tmp_path)
        grid.write_anomalies([(self.SPEC, paths, values)])
        for i, path in enumerate(paths):
            write_grid(GridField(self.SPEC, values[i], units="percent"), tmp_path / "one.grd")
            assert path.read_bytes() == (tmp_path / "one.grd").read_bytes()

    # the interpreter's default thread switch interval, and a short one that
    # interleaves the formatter and the writer between almost every bytecode
    @pytest.mark.parametrize("interval", [None, 1e-6])
    # first, inside the first handoff, last; and the only file
    @pytest.mark.parametrize("n, k", [(N, 0), (N, 3), (N, 11), (1, 0)],
                             ids=["0", "3", "11", "alone"])
    def test_first_failure_stops_the_writer(self, tmp_path, monkeypatch, n, k, interval):
        values, paths = self.write(tmp_path, n)
        replace = os.replace

        def refuse_member_k(src, dst):
            if os.fspath(dst) == os.fspath(paths[k]):
                raise OSError(errno.EACCES, "Permission denied")
            replace(src, dst)

        monkeypatch.setattr(grid.os, "replace", refuse_member_k)
        default = sys.getswitchinterval()
        sys.setswitchinterval(interval or default)
        try:
            with pytest.raises(CapeskitError,
                               match=re.escape(f"cannot write {paths[k]}: Permission denied")):
                grid.write_anomalies([(self.SPEC, paths, values)])
        finally:
            sys.setswitchinterval(default)
        self.assert_prefix_written(tmp_path, values, paths, k)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("n, k", [(N, 0), (N, 9), (1, 0)], ids=["0", "9", "alone"])
    def test_formatter_error_joins_the_writer(self, tmp_path, monkeypatch, error, n, k):
        values, paths = self.write(tmp_path, n)
        bodies = grid._bodies

        def fail_after_k(fields):
            for n, body in enumerate(bodies(fields)):
                if n == k:
                    raise error("formatter failed")
                yield body

        monkeypatch.setattr(grid, "_bodies", fail_after_k)
        with pytest.raises(error, match="formatter failed"):
            grid.write_anomalies([(self.SPEC, paths, values)])
        written = sum(path.exists() for path in paths)
        assert written <= k
        self.assert_prefix_written(tmp_path, values, paths, written)


def reference_read(path):
    """The per-token reader the vectorized one replaced: universal-newline
    ASCII text, ``float`` per token, line numbers of the first bad token.
    Returns the values, or the message of the CapeskitError to expect."""
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
# every separator of str.split on ASCII text; "\x00" and "\x01" are not
SEPARATORS = st.one_of(st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                        "\x1f", "\x1f \x0b"]), LINE_ENDS)
# near-float tokens: what float() accepts, rejects, or reads as non-finite
TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-Infinity", "iNf", "1e400", "-1e999",
                     "1_0", "1__0", "_1", "1_", "1e+", ".5", "-0", "+.5e3", "0x10", "1d5",
                     "nan(1)", "--1", "zap", "1.2.3", "e5", "1e-400", "4.9e-324",
                     "1\x002", "\x001.5", "2.5\x00", "1\x01.5", "\x01", "3.\x7f5", "\x7f",
                     "+1.5", "1.", "-1.", "-.5", "00012.5", "-0.0", "1e5", "1E-5", "-1.5-",
                     "1-.5", "9999999999.9999999999", "-99999999999999999.999",
                     "12345678901234.56789012345", "0.1234567890123456789012345"]),
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
           st.lists(st.lists(st.tuples(TOKENS, SEPARATORS), max_size=5), max_size=5), LINE_ENDS,
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_accepts_and_rejects_like_the_per_token_scan(self, tmp_path_factory, nlat, nlon,
                                                         rows, newline, exact):
        if exact and any(rows):  # declare as many values as there are tokens
            nlat, nlon = 1, sum(map(len, rows))
        path = tmp_path_factory.mktemp("grd") / "f.grd"
        body = "".join("".join(t + sep for t, sep in row) + newline for row in rows)
        path.write_bytes(f"GRD1 {nlat} {nlon} 0.0 1.0 0.0 1.0 mm{newline}{body}".encode())
        want = reference_read(path)
        if isinstance(want, str):
            with pytest.raises(CapeskitError) as exc:
                read_grid(path)
            assert str(exc.value) == want
        else:
            assert np.array_equal(bits(read_grid(path).values.ravel()), bits(want))

    @pytest.mark.parametrize("newline,line", [("\n", 3), ("\r\n", 3), ("\r", 3)])
    def test_non_ascii_byte_names_its_line(self, tmp_path, newline, line):
        path = tmp_path / "bad.grd"
        nl = newline.encode()
        path.write_bytes(b"GRD1 2 1 0.0 1.0 0.0 1.0 mm" + nl + b"1.0" + nl + b"2 \xc3\xa9" + nl)
        with pytest.raises(CapeskitError, match=f"line {line}: non-ASCII byte 0xc3"):
            read_grid(path)

    def test_huge_declared_grid_counts_before_allocating(self, tmp_path):
        # 10^10 cells would be a 74.5 GiB array; the error path only counts
        import tracemalloc

        path = tmp_path / "huge.grd"
        path.write_text("GRD1 100000 100000 0.0 1.0 0.0 1.0 mm\n1.0\n")
        tracemalloc.start()
        try:
            with pytest.raises(CapeskitError, match="value count mismatch: header "
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
        with pytest.raises(CapeskitError, match="anomaly fields carry percent units, got 'mm'"):
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
    return next(grid._bodies([np.asarray(values, dtype=np.float64)[None]]))


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
        f, k = grid._schubfach(bits)
        assert ((f >= 10**15) & (f < 10**17)).all()
        for b, fi, ki in zip(bits.view(np.float64).tolist(), f.tolist(), k.tolist()):
            assert Decimal(fi).scaleb(ki) == Decimal(repr(b)), repr(b)

    def test_rows_wider_than_a_chunk(self):
        x = random_positional(np.random.default_rng(3), 2 * grid._CHUNK + 8).reshape(2, -1)
        assert body(x) == repr_body(x)

    def test_mixed_chunks(self):
        # several fields per chunk; scientific, subnormal, zero and
        # positional values in every chunk,
        # and a chunk with a single positional value among scientific ones
        rng = np.random.default_rng(13)
        x = rng.standard_normal((12, 32, 32)) * 10.0 ** rng.integers(-12, 24, (12, 32, 32))
        x[rng.random(x.shape) < 0.05] = 5e-324
        x[rng.random(x.shape) < 0.05] = -0.0
        x[:4] = rng.standard_normal((4, 32, 32)) * 1e20
        x[2, 5, 7] = 1e-4
        x[3, 0, 0] = -9999999999999998.0
        assert list(grid._bodies([x])) == [repr_body(f) for f in x]

    def test_every_point_position_digit_count_sign_and_column(self):
        # each of the 340 positional layouts: 1 to 17 significant digits,
        # the point after -3 to 16 digits, either sign, and first, middle
        # and last in its row, where the separator is a newline
        rng = np.random.default_rng(17)
        layouts = {}
        for decpt in range(-3, 17):
            for nd in range(1, 16):  # a decimal this short reads back as itself
                inner = rng.integers(0, 10, max(nd - 2, 0)).tolist()
                ends = rng.integers(1, 10, 2).tolist()  # nonzero first and last digits
                digits = "".join(map(str, [ends[0], *inner, ends[1]][:nd]))
                layouts[decpt, nd] = float(f"{digits[0]}.{digits[1:]}e{decpt - 1}")
            # 16 and 17 digits: doubles of the decade, kept by the digits repr writes
            for v in rng.uniform(10.0 ** (decpt - 1), 10.0 ** decpt, 200).tolist():
                sign, digits, exp = Decimal(repr(v)).normalize().as_tuple()
                if len(digits) >= 16:
                    layouts.setdefault((len(digits) + exp, len(digits)), v)
        assert sorted(layouts) == [(d, n) for d in range(-3, 17) for n in range(1, 18)]
        for (decpt, nd), v in layouts.items():
            sign, digits, exp = Decimal(repr(v)).normalize().as_tuple()
            assert (len(digits) + exp, len(digits)) == (decpt, nd), repr(v)
        values = np.array(list(layouts.values()))
        values = np.concatenate([values, -values])
        for col in range(3):
            x = np.full((values.size, 3), 1.5)
            x[:, 1] = -0.25
            x[:, col] = values
            assert body(x) == repr_body(x)

    def test_working_set_of_a_chunk(self):
        # at most 200 B per value, the figure _CHUNK's comment states
        import tracemalloc

        x = np.random.default_rng(3).normal(-60.0, 40.0, (grid._CHUNK // 256, 256))
        grid._format_rows(x, 256)  # the tables are built on first use
        tracemalloc.start()
        try:
            grid._format_rows(x, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 200 * x.size

    @pytest.mark.slow
    def test_digits_of_every_group(self):
        ref = np.empty((10 ** 7, 8), np.uint8)
        for start in range(0, 10 ** 8, 10 ** 7):
            g = np.arange(start, start + 10 ** 7, dtype=np.uint64)
            v = g.copy()
            for j in range(7, -1, -1):
                ref[:, j] = v % 10
                v //= 10
            assert np.array_equal(grid._digits8(g).view(np.uint8).reshape(-1, 8), ref)

    def test_bytes_are_written_as_they_are(self, tmp_path):
        path = tmp_path / "b.bin"
        write_text_atomic(path, b"a\r\nb\n")
        assert path.read_bytes() == b"a\r\nb\n"


def assert_reads_like_float(tokens):
    """The batched parser reads ``tokens``, as one body, as ``float`` does."""
    values = np.empty(len(tokens))
    assert grid.read_bodies([" ".join(tokens).encode()], len(tokens), values)
    wrong = np.flatnonzero(bits(values) != bits([float(t) for t in tokens]))
    assert not wrong.size, [tokens[i] for i in wrong[:5]]


def random_decimals(rng, n):
    """Plain decimals such as '-12.0345': 2 to 19 random digits, the point
    anywhere between them, and a random sign."""
    out = []
    for row, size, cut, sign in zip(rng.integers(0, 10, (n, 19)).tolist(),
                                    rng.integers(2, 20, n).tolist(),
                                    rng.random(n).tolist(), rng.integers(0, 2, n).tolist()):
        digits = "".join(map(str, row[:size]))
        k = 1 + int(cut * (size - 1))
        out.append("-" * sign + digits[:k] + "." + digits[k:])
    return out


class TestBodyReader:
    """The batched body parser against ``float``, bit for bit."""

    FORMATS = (repr, "%.17g".__mod__, "%.19g".__mod__, "%.25g".__mod__)

    def test_separators_are_those_of_str_split(self):
        assert grid._SEPARATORS == bytes(c for c in range(128) if not chr(c).split())

    def test_edge_values(self):
        edges = EDGES + [-v for v in EDGES]
        assert_reads_like_float([fmt(v) for fmt in self.FORMATS for v in edges])

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(1990)
        for x in (random_finite(rng, 1 << 14), random_positional(rng, 1 << 16)):
            for fmt in self.FORMATS:
                assert_reads_like_float([fmt(v) for v in x.ravel().tolist()])

    def test_random_decimals(self):
        # up to 19 digits: Clinger's path below 2^53, Eisel-Lemire's above
        assert_reads_like_float(random_decimals(np.random.default_rng(2021), 1 << 16))

    def test_fast_path_boundaries(self):
        # 2^53 - 1, 2^53 and 2^53 + 1 written out in full with the point
        # anywhere; 19 and 20 digits; just below powers of two, which round
        # up into the next binade
        tokens = []
        for m in (2**53 - 1, 2**53, 2**53 + 1, 10**19 - 1, 2**63, 2**64 - 1, 2**64):
            d = str(m)
            tokens += [d + ".0", "0." + d] + [d[:k] + "." + d[k:] for k in range(1, len(d))]
        tokens += [f"{2**k - 1}.9" for k in range(50, 64)]
        tokens += [f"{2**k - 1}.{'9' * (18 - len(str(2**k)))}" for k in range(40, 60)]
        assert_reads_like_float(tokens + ["-" + t for t in tokens])

    def test_halfway_decimals(self):
        # between adjacent doubles in [2^49, 2^54) the midpoints have at most
        # 4 digits after the point, and most have at most 19 digits: exact
        # ties, which round to even; then decimals one unit of their last
        # digit either side, and one tenth of it
        rng = np.random.default_rng(5)
        x = rng.uniform(2.0**49, 2.0**54, 4000)
        x[:8] = [2.0**49, 2.0**50, 2.0**51, 2.0**52, 2.0**53, 2.0**53 - 1, 2.0**54 - 2, 2.0**52 + 1]
        tokens = []
        for v in x.tolist():
            mid = Decimal(v) + Decimal(math.ulp(v)) / 2
            step = Decimal(1).scaleb(mid.as_tuple().exponent)
            for off in (0, step, -step, step / 10, -step / 10):
                tokens.append(format(mid + off, "f"))
        assert sum(len(t) <= 20 for t in tokens[::5]) > len(x) // 2  # plain ties
        assert_reads_like_float(tokens + ["-" + t for t in tokens])

    def test_bodies_longer_than_a_read_chunk(self, monkeypatch):
        # pieces are cut at separators, never inside a token
        rng = np.random.default_rng(8)
        tokens = [repr(v) for v in random_positional(rng, 512).ravel().tolist()]
        seps = [" ", "\n", "\r\n", "\t\x0b", "\x1c"]
        body = "".join(t + seps[i % 5] for i, t in enumerate(tokens)).encode()
        for size in (1, 7, 64, 1000):
            monkeypatch.setattr(grid, "READ_BYTES", size)
            values = np.empty(len(tokens))
            assert grid.read_bodies([body, body[:0]], len(tokens), np.empty(0)) is False
            assert grid.read_bodies([body], len(tokens), values)
            assert np.array_equal(bits(values), bits([float(t) for t in tokens]))

    def test_working_set_of_a_read_group(self):
        # at most 10 B per byte of text, the figure READ_BYTES's comment states
        import tracemalloc

        x = np.random.default_rng(3).normal(-60.0, 40.0, (6, 32, 32))
        group, _ = next(grid._groups(list(grid._bodies([x]))))
        assert sum(map(len, group)) > grid.READ_BYTES // 2  # three members
        grid._parse(group)  # the tables are built on first use
        tracemalloc.start()
        try:
            grid._parse(group)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * sum(map(len, group))

    @pytest.mark.slow
    def test_ten_million_bit_patterns(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            x = random_positional(rng, 1 << 20).ravel().tolist()
            assert_reads_like_float(list(map(repr, x)))
            assert_reads_like_float(["%.19g" % v for v in x])
        assert_reads_like_float(random_decimals(rng, 1 << 20))
