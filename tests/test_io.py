"""CSV writer and reader: the same bytes as a cell-by-cell writer, and strict rows.

The writer formats whole rows with one ``%`` template per file; the oracle
below is the cell-by-cell loop it replaced, one ``fmt`` call per numeric
cell. Every column kind the writer takes (numeric arrays and lists of str)
is compared byte for byte, at row counts on both sides of the writer's
chunk edges; every other kind is rejected before the file is opened.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gravelast import io
from gravelast.io import read_float_columns, write_csv

SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
            1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e22, 1e-7]
ROW_COUNTS = (0, 1, 1023, 1024, 1025, 8193)


def _cell_by_cell(path, comment, header, columns):
    """Oracle: the writer before row templates, one fmt call per numeric cell."""
    lines = [comment, ",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(x if isinstance(x, str) else io.fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _floats(rng, n):
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[::7] = np.resize(SPECIALS, len(x[::7]))
    return x


def _columns(n, seed=0):
    """One column of each kind the writer must handle, n rows each."""
    rng = np.random.default_rng(seed)
    f32 = rng.standard_normal(n).astype(np.float32)
    f32[::5] = np.resize(np.array([np.nan, np.inf, -np.inf, -0.0], np.float32), len(f32[::5]))
    messages = ["", "ParameterOutOfRange: mu outside proven range; |0.2| > mu0",
                "100% off", "BracketFailure: no sign change"]
    return {
        "float64": _floats(rng, n),
        "float32": f32,
        "int64": rng.integers(-(2**62), 2**62, n),
        "uint8": rng.integers(0, 256, n).astype(np.uint8),
        "bool": rng.random(n) < 0.5,
        "str_list": [messages[k % len(messages)] for k in range(n)],
    }


def _both(tmp_path, header, columns, comment="# units: test"):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(new, comment, header, columns)
    _cell_by_cell(old, comment, header, columns)
    return new.read_bytes(), old.read_bytes()


class TestWriterBytes:
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_every_column_kind(self, tmp_path, n):
        cols = _columns(n)
        new, old = _both(tmp_path, tuple(cols), tuple(cols.values()))
        assert new == old
        assert new.count(b"\n") == 2 + n

    def test_sweep_like_columns(self, tmp_path):
        # float arrays holding nan, an int iters array and a str error column
        nan = float("nan")
        cols = (*map(np.array, ([-1e-3, 0.2], [0.25133573911566326, nan], [1.0001, nan],
                                [0.9999, nan], [3.2e-4, nan], [3, 0], [1.2e-13, nan])),
                ["", "ParameterOutOfRange: mu outside proven range"])
        assert cols[5].dtype.kind == "i"
        new, old = _both(tmp_path, io.SWEEP_COLUMNS, cols, io.SWEEP_UNITS)
        assert new == old

    @settings(max_examples=100, deadline=None)
    @given(x=arrays(np.float64, st.integers(0, 40), elements=st.floats()))
    def test_float_arrays_property(self, tmp_path_factory, x):
        tmp = tmp_path_factory.mktemp("prop")
        new, old = _both(tmp, ("a", "b"), (x, x[::-1]))
        assert new == old

    def test_no_per_cell_fmt(self, tmp_path, monkeypatch):
        # A count, not a timing: the cell-by-cell writer calls fmt 9 x 8193 times
        calls = []
        original = io.fmt
        monkeypatch.setattr(io, "fmt", lambda x: calls.append(1) or original(x))
        rng = np.random.default_rng(2)
        cols = tuple(_floats(rng, 8193) for _ in io.PROFILE_COLUMNS)
        write_csv(tmp_path / "new.csv", io.PROFILE_UNITS, io.PROFILE_COLUMNS, cols)
        assert len(calls) == 0
        _cell_by_cell(tmp_path / "old.csv", io.PROFILE_UNITS, io.PROFILE_COLUMNS, cols)
        assert len(calls) == 9 * 8193
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestWriterChecks:
    @pytest.mark.parametrize(
        "header,columns,match",
        [(("a", "b"), (np.ones(2), np.ones(1)), "differ in length"),
         (("a", "b", "c"), (np.ones(2), np.ones(2)), "3 header names for 2 columns"),
         (("a",), (np.zeros(3), np.zeros(3)), "1 header names for 2 columns")],
        ids=["ragged", "extra-name", "missing-name"],
    )
    def test_rejected_before_open(self, tmp_path, header, columns, match):
        # zip would silently write the shortest column's rows
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=match):
            write_csv(path, "# units: none", header, columns)
        assert not path.exists()

    @pytest.mark.parametrize(
        "column",
        [[1.0, 2.0], [1, 2], [True, False], [np.int64(1), np.int64(2)], [np.float64(0.5)] * 2,
         [1, "x"], ("a", "b"), np.array(["a", "b"]), np.array([1.0, "x"], dtype=object),
         np.array([1 + 2j, 0j])],
        ids=["float-list", "int-list", "bool-list", "np-int-list", "np-float-list",
             "mixed-list", "str-tuple", "str-array", "object-array", "complex-array"],
    )
    def test_other_column_kinds_rejected_before_open(self, tmp_path, column):
        path = tmp_path / "k.csv"
        with pytest.raises(TypeError, match="numeric array or a list of str"):
            write_csv(path, "# units: none", ("a", "b"), (np.zeros(2), column))
        assert not path.exists()


class TestReader:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        cols = {name: _floats(rng, 8193) for name in io.PROFILE_COLUMNS}
        path = tmp_path / "p.csv"
        write_csv(path, io.PROFILE_UNITS, tuple(cols), tuple(cols.values()))
        back = read_float_columns(path, io.PROFILE_COLUMNS)
        for name, col in cols.items():
            assert back[name].dtype == np.float64 and back[name].flags.c_contiguous
            assert back[name].tobytes() == col.tobytes()

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        write_csv(path, "# units: none", ("a", "b"), (np.empty(0), []))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = read_float_columns(path, ("b", "a"))
        assert list(out) == ["b", "a"]
        assert all(v.shape == (0,) and v.dtype == np.float64 for v in out.values())

    def test_no_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("# units: none\n\n")
        with pytest.raises(ValueError, match="no header row"):
            read_float_columns(path, ("a",))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, "# units: none", ("a", "b"), (np.array([1.0]), np.array([2.0])))
        with pytest.raises(ValueError, match="missing column 'c'"):
            read_float_columns(path, ("a", "c"))

    def test_comment_between_rows_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# units: none\na,b\n1,2\n# a note\n\n3,4\n")
        out = read_float_columns(path, ("b",))
        assert out["b"].tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("row", ["1,2,3", "1", "1,2,", ",1,2"])
    def test_field_count_checked(self, tmp_path, row):
        # usecols alone would accept a row with extra fields
        path = tmp_path / "f.csv"
        path.write_text(f"# units: none\na,b\n5,6\n{row}\n")
        with pytest.raises(ValueError, match="malformed row"):
            read_float_columns(path, ("a",))

    @pytest.mark.parametrize("cell", ["", "abc"])
    def test_bad_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "b.csv"
        path.write_text(f"# units: none\na,b\n5,6\n{cell},7\n")
        with pytest.raises(ValueError):
            read_float_columns(path, ("a", "b"))
