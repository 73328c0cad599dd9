"""CSV writer and reader: the bytes of "%.17g", and strict rows.

Two oracles check the writer. The cell-by-cell loop it replaced, one
``fmt`` call per float cell, is compared byte for byte on every column
kind the writer takes (float arrays and lists of str), at row counts on
both sides of the writer's block edges; every other kind is rejected
before the file is opened. The definition itself, ``"%.17g" % float(x)``
per cell, is compared on a million values chosen to reach every rounding
and layout rule of the writer's kernel.
"""

import warnings
from unittest import mock
from decimal import ROUND_DOWN, Context, Decimal

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
    """Oracle: the writer before row templates, one fmt call per float cell."""
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
        "str_list": [messages[k % len(messages)] for k in range(n)],
    }


def _both(tmp_path, header, columns, comment="# units: test"):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(new, comment, header, columns)
    _cell_by_cell(old, comment, header, columns)
    return new.read_bytes(), old.read_bytes()


class TestWriterBytes:
    def test_row_counts_meet_block_edges(self):
        assert {n % io._BLOCK_ROWS for n in ROW_COUNTS} == {0, 1, io._BLOCK_ROWS - 1}

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_every_column_kind(self, tmp_path, n):
        cols = _columns(n)
        new, old = _both(tmp_path, tuple(cols), tuple(cols.values()))
        assert new == old
        assert new.count(b"\n") == 2 + n

    def test_sweep_like_columns(self, tmp_path):
        # float arrays holding nan, a float iters count and a str error column
        nan = float("nan")
        cols = (*map(np.array, ([-1e-3, 0.2], [0.25133573911566326, nan], [1.0001, nan],
                                [0.9999, nan], [3.2e-4, nan], [3.0, 0.0], [1.2e-13, nan])),
                ["", "ParameterOutOfRange: mu outside proven range"])
        assert cols[5].dtype == np.float64
        new, old = _both(tmp_path, io.SWEEP_COLUMNS, cols, io.SWEEP_UNITS)
        assert new == old

    def test_text_only_columns(self, tmp_path):
        # no float cell: the block is as wide as the longest text
        new, old = _both(tmp_path, ("a", "b"), (["x", "yy", ""], ["", "zzz", "w"]))
        assert new == old == b"# units: test\na,b\nx,\nyy,zzz\n,w\n"

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


class TestSmallBlocks:
    """A block of fewer than _KERNEL_MIN_CELLS float cells skips the kernel."""

    K = io._KERNEL_MIN_CELLS

    @pytest.fixture
    def round17_calls(self, monkeypatch):
        calls, inner = [], io._round17
        monkeypatch.setattr(io, "_round17", lambda x: calls.append(x.size) or inner(x))
        return calls

    @pytest.mark.parametrize("columns,rows", [
        (1, K - 1), (1, K), (1, K + 1),
        (7, (K - 1) // 7), (7, -(-K // 7)),  # the row counts either side of K cells
    ])
    def test_bytes_either_side_of_the_constant(self, tmp_path, round17_calls, columns, rows):
        # one block of float cells, each "%.17g" of its value
        rng = np.random.default_rng(33 + rows)
        cols = tuple(_floats(rng, rows) for _ in range(columns))
        header = tuple(f"c{j}" for j in range(columns))
        path = tmp_path / "small.csv"
        write_csv(path, "# units: test", header, cols)
        want = [b",".join(b"%.17g" % v for v in row) for row in zip(*(c.tolist() for c in cols))]
        _assert_cells(path.read_bytes().split(b"\n")[2:-1], want)
        assert round17_calls == ([rows * columns] if rows * columns >= self.K else [])

    def test_sweep_csv_skips_the_kernel(self, tmp_path, round17_calls):
        # 9 rows of 7 float columns and the error text: 63 float cells
        from gravelast.cli import main
        assert main(["sweep", "--steps", "9", "--N", "64", "--mu-min", "-1e-3",
                     "--mu-max", "1e-3", "--out", str(tmp_path / "sw")]) == 0
        assert (tmp_path / "sw" / "sweep.csv").read_bytes().count(b"\n") == 11
        assert round17_calls == []

    def test_profile_goes_through_the_kernel(self, tmp_path, round17_calls):
        # 9 x 8193: 16 blocks of 512 rows through the kernel, and the last
        # row's 9 cells one at a time
        rng = np.random.default_rng(34)
        cols = tuple(_floats(rng, 8193) for _ in io.PROFILE_COLUMNS)
        new, old = _both(tmp_path, io.PROFILE_COLUMNS, cols, io.PROFILE_UNITS)
        assert new == old
        assert round17_calls == [9 * io._BLOCK_ROWS] * 16

    @settings(max_examples=100, deadline=None)
    @given(x=arrays(np.float64, st.integers(0, 40), elements=st.floats()))
    def test_kernel_on_small_blocks(self, tmp_path_factory, x):
        # the kernel itself, forced onto the blocks it now skips
        tmp = tmp_path_factory.mktemp("kernel")
        with mock.patch.object(io, "_KERNEL_MIN_CELLS", 0):
            new, old = _both(tmp, ("a", "b"), (x, x[::-1]))
        assert new == old


def _written(tmp_path, column):
    """The cells write_csv writes for one column."""
    path = tmp_path / "one.csv"
    write_csv(path, "# units: none", ("x",), (column,))
    return path.read_bytes().split(b"\n")[2:-1]


def _assert_cells(got, want):
    assert got == want, [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w][:5]


class TestDefinitionOracle:
    def test_float_cells(self, tmp_path):
        rng = np.random.default_rng(25)
        exponents = range(-95, 96)  # the kernel's range [1e-90, 1e90) and beyond
        powers = np.array([float(f"1e{k}") for k in exponents])
        around = np.stack([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
        # n + 0.25 and n + 0.75 with 16-digit n: 18 digits ending in 5, exact ties
        ties = rng.integers(10**15, 2**50, 2000) + np.repeat([0.25, 0.75], 1000)
        edges = [1e-90, 1e90, 2.0**53 - 1, 2.0**53, 2.2250738585072009e-308]
        x = np.concatenate([
            around.ravel(), -around.ravel(), ties,
            10.0 ** rng.uniform(-13, 18, 10**6) * rng.choice([-1.0, 1.0], 10**6),
            rng.integers(1, 2**53, 20000) * 2.0 ** -rng.integers(0, 80, 20000),
            rng.integers(0, 2**53, 20000).astype(float),
            # short decimals: their 17 digits end in a run of zeros or nines
            rng.integers(1, 10**9, 20000) / 10.0 ** rng.integers(0, 20, 20000),
            10.0 ** rng.uniform(-308, 308, 20000),
            np.nextafter(edges, 0), edges, np.nextafter(edges, np.inf), SPECIALS,
        ])
        want = [b"%.17g" % v for v in x.tolist()]
        _assert_cells(_written(tmp_path, x), want)

        # The set holds values that a wrong rounding rule or exponent gets wrong.
        truncate = Context(prec=17, rounding=ROUND_DOWN)
        start = around.size * 2

        def rounds_up(i):
            return truncate.plus(Decimal(x[i])) != Decimal(want[i].decode())

        tie_up = [rounds_up(i) for i in range(start, start + len(ties))]
        assert 0 < sum(tie_up) < len(ties)  # half-even goes both ways
        assert any(rounds_up(i) for i in range(start + len(ties), start + len(ties) + 100))
        for k, cells in zip(exponents, np.array(want[:around.size]).reshape(3, -1).T):
            # both sides of every exponent switch, the %g layout ones included;
            # 1e-14 and 1e-79 are doubles below 10**k that round up to it
            assert {Decimal(c.decode()).adjusted() for c in cells} == {k - 1, k}

    def test_kernel_certifies_nearly_every_cell(self):
        # The per-cell fallback alone would pass the oracle above. Exact ties,
        # common from about 1e12 up, round half-even in the kernel.
        x = 10.0 ** np.random.default_rng(28).uniform(-80, 80, 10**5)
        assert np.count_nonzero(~io._round17(x)[-1]) <= 1

    def test_float32_cells(self, tmp_path):
        rng = np.random.default_rng(26)
        x = (rng.standard_normal(20000) * 10.0 ** rng.integers(-40, 38, 20000)).astype(np.float32)
        x[:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, np.finfo(np.float32).tiny / 4]
        _assert_cells(_written(tmp_path, x), [b"%.17g" % v for v in x.tolist()])


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

    @pytest.mark.parametrize("cell", ["ok, fine", "two\nlines", "cr\rhere", "nul\0"])
    def test_text_cell_that_breaks_the_csv_rejected_before_open(self, tmp_path, cell):
        # written verbatim, the cell split its row or the file, and the reader failed
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="text cell"):
            write_csv(path, "# units: none", ("a", "msg"), (np.array([1.0, 2.0]), ["", cell]))
        assert not path.exists()

    @pytest.mark.parametrize(
        "column",
        [[1.0, 2.0], [1, 2], [True, False], [np.int64(1), np.int64(2)], [np.float64(0.5)] * 2,
         [1, "x"], ("a", "b"), np.array(["a", "b"]), np.array([1.0, "x"], dtype=object),
         np.array([1 + 2j, 0j]), np.array([3, 0], np.int64), np.array([3, 0], np.uint8),
         np.array([True, False])],
        ids=["float-list", "int-list", "bool-list", "np-int-list", "np-float-list",
             "mixed-list", "str-tuple", "str-array", "object-array", "complex-array",
             "int64-array", "uint8-array", "bool-array"],
    )
    def test_other_column_kinds_rejected_before_open(self, tmp_path, column):
        path = tmp_path / "k.csv"
        with pytest.raises(TypeError, match="float array or a list of str"):
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

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_line_ends(self, tmp_path, end):
        # the reader decodes the bytes it hashes, so it translates line ends as text mode does
        path = tmp_path / "e.csv"
        lines = ["# units: none", "a,b", "1,2", "# note", "", "3,4", ""]
        path.write_bytes(end.join(lines).encode())
        out = read_float_columns(path, ("b", "a"))
        assert out["b"].tolist() == [2.0, 4.0] and out["a"].tolist() == [1.0, 3.0]

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
