"""CSV/manifest serialization and model-spec parsing for the CLI.

Arrays go to CSV with one leading unit-comment line, a header row, and
17-significant-digit decimals so values round-trip bit-exactly.  Each run
directory gets a JSON manifest recording inputs, results and sha256 hashes
of the emitted CSVs; wall time and timestamps live only in the manifest,
so identical reruns produce byte-identical CSVs.

A column is a float array or a list of text.  The writer turns each
block of ``_BLOCK_ROWS`` rows into one NUL-padded byte matrix, a
fixed-width cell per column followed by its "," or newline, and writes
it with the NULs dropped by ``bytes.translate``.  Float cells hold the
bytes ``"%.17g" % x`` would (``fmt``'s), from one vectorized kernel: for
|x| in the certified range [1e-90, 1e90) it rounds |x| * 10**(16 - k),
formed as Dekker's exact two-product against a (hi, lo) table of powers
of ten, to its 17 digits, expands them through a table of 4-digit groups
and lays them out by the %g rules.  The cells it cannot certify are
formatted one at a time by "%.17g": zero, subnormal, non-finite and
out-of-range values, values below 1e-6 (whose product is not exact)
within 1e-9 of a rounding tie, and the rare value whose 17 digits round
up to the next power of ten.  A block of fewer than ``_KERNEL_MIN_CELLS``
float cells, such as a 9-row sweep.csv, is formatted one cell at a time
too: below that count the kernel's fixed cost, and building its tables,
outweighs its per-cell saving.  Text cells are written verbatim, and a
cell holding a comma, a line break or a NUL is refused before the file
is opened.  The reader checks each row's field count against the
header, then parses only the requested columns with ``np.loadtxt``,
which reads a number as ``float`` does.
"""

from __future__ import annotations

import functools
import hashlib
import json
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .constitutive import ConstitutiveModel, make_builtin_model

PROFILE_FILE = "profile.csv"
MANIFEST_FILE = "manifest.json"
REPORT_FILE = "report.txt"

PROFILE_COLUMNS = ("R", "zeta", "f", "fprime", "lambda", "y", "c1", "c2", "rho_t0")
PROFILE_UNITS = (
    "# units: R reference radius and zeta, f, fprime, lambda, y dimensionless; "
    "c1, c2 referential stress (brho^(4/3) scale); rho_t0 mass density at t=0"
)
SWEEP_COLUMNS = (
    "mu", "brho0", "y1", "fprime0", "zeta_norm", "iters", "bc_residual", "error"
)
SWEEP_UNITS = (
    "# units: mu acceleration/length scale; brho0 mass density; "
    "y1, fprime0, zeta_norm, bc_residual dimensionless; iters count"
)
TEMPORAL_COLUMNS = ("t", "q", "qdot", "energy_drift")
TEMPORAL_UNITS = "# units: t time; q dimensionless amplitude; qdot 1/time; energy_drift specific energy"
SNAPSHOT_COLUMNS = ("R", "phi", "u", "rho")
SNAPSHOT_UNITS = "# units: R reference radius; phi current radius; u velocity; rho mass density"

# Rows per written block: every temporary the writer makes spans one block.
_BLOCK_ROWS = 512
# Fewer float cells than this in a block are formatted one at a time. With
# numpy 2.4 on a 2-core x86-64 Xeon the kernel takes about 57 us for 64 cells
# and 62 us for 128 (plus 2.4 ms for its tables on a process's first call);
# one "%.17g" per cell takes 44 and 82 us, and they meet near 90 cells.
_KERNEL_MIN_CELLS = 96

# |x| in [_CERTIFIED_MIN, _CERTIFIED_MAX) gets its digits from the kernel,
# and its decimal exponent k has two digits. The tables cover k in
# [_K_MIN, _K_MAX], which holds every k the kernel tries for such |x|.
_CERTIFIED_MIN, _CERTIFIED_MAX = 1e-90, 1e90
_K_MIN, _K_MAX = -92, 92
# An inexact scaled value this close to a half-integer may be a rounding tie.
_TIE_MARGIN = 1e-9

# A cell is built in 56 bytes. Bytes 8 .. 47 hold 20 digits, the 17
# significant ones last, each twice, from a lookup of 4-digit groups:
# digit j shows at 9 + 2j, and 10 + 2j, which holds digit j + 1, is the
# slot of a point after it. Digits 0 .. 2 are zero, so byte 9 takes the
# sign and bytes 10 .. 14 the "0.000" of 0.000ddd; bytes 48 .. 51 take the
# "e-07" of d.ddde-07. The cell is bytes 9 .. 51, NUL where nothing shows.
_CELL = slice(9, 52)
_CELL_WIDTH = _CELL.stop - _CELL.start


def _pow10(m: int) -> tuple[float, float]:
    """hi + lo = 10**m to about 2**-106 relative: hi is 10**m rounded, lo the rest rounded."""
    num, den = (10**m, 1) if m >= 0 else (1, 10**-m)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


def _split(v):
    """Veltkamp's split: v = high + low, each half of v's significand."""
    c = v * 134217729.0  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


def _bounds(k) -> tuple[np.ndarray, np.ndarray]:
    """The %.17g layout of 17 significant digits for each decimal exponent in k.

    As bounds on the 56 cell bytes: a byte shows max(lower, min(upper, b)).
    Positional for -4 <= k <= 16, d.ddd then "e-XX" otherwise; a digit of
    the integer part shows even when it is zero, a fraction digit and the
    point before the fraction only when a nonzero digit follows.
    """
    k = np.asarray(k)[:, None]
    lower = np.zeros((len(k), 56), np.uint8)
    upper = np.zeros_like(lower)
    exponent = (k < -4) | (k > 16)
    prefix = np.frombuffer(b"0.000", np.uint8) * ((k < 0) & ~exponent & (np.arange(5) < 1 - k))
    suffix = np.concatenate([np.full_like(k, ord("e")), np.where(k < 0, ord("-"), ord("+")),
                             abs(k) // 10 + ord("0"), abs(k) % 10 + ord("0")], axis=1)
    lower[:, 10:15] = upper[:, 10:15] = prefix
    lower[:, 48:52] = upper[:, 48:52] = suffix * exponent
    # significant digit i is digit 3 + i of 20; the integer part ends at
    # digit last_int: none in 0.000ddd, the first in d.ddde-07
    last_int = np.where(exponent, 0, np.maximum(k, -1))
    upper[:, 15:49:2] = 255
    lower[:, 15:49:2] = ord("0") * (np.arange(17) <= last_int)
    point = np.flatnonzero((last_int >= 0) & (last_int < 16))
    upper[point, 16 + 2 * last_int[point, 0]] = ord(".")
    return lower, upper


class _Tables(NamedTuple):
    row_of_e: np.ndarray  # k0 - _K_MIN by biased binary exponent e, k0 = floor((e - 1023) log10 2)
    ten_of_e: np.ndarray  # the least double >= 10**(k0 + 1): |x| >= it just when k = k0 + 1
    pow: np.ndarray  # by row k - _K_MIN: hi, lo with hi + lo = 10**(16 - k), hi's two halves
    lower: np.ndarray  # _bounds(k) by row
    upper: np.ndarray
    groups: np.ndarray  # 0000 .. 9999 each digit twice, then with trailing zeros NUL


@functools.cache
def _tables() -> _Tables:
    """Built on the first write, so that a process that writes no CSV does not hold them."""
    k = range(_K_MIN, _K_MAX + 1)
    pow_hi, pow_lo = np.array([_pow10(16 - e) for e in k]).T
    ten_hi, ten_lo = np.array([_pow10(e + 1) for e in k]).T
    row_of_e = np.clip((((np.arange(2048) - 1023) * 78913) >> 18) - _K_MIN, 0, len(k) - 2)
    ten_up = np.where(ten_lo > 0, np.nextafter(ten_hi, np.inf), ten_hi)
    digits = np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4, indexing="ij")
    shown = [d > ord("0") for d in digits]
    for q in (2, 1, 0):  # a digit shows when it or a later one is nonzero
        shown[q] |= shown[q + 1]
    both = np.stack([np.stack(digits, axis=-1),
                     np.stack([d * s for d, s in zip(digits, shown)], axis=-1)])
    groups = np.stack([both, both], axis=-1).reshape(20000, 8).view(np.uint64).ravel()
    return _Tables(row_of_e, ten_up.take(row_of_e), np.stack([pow_hi, pow_lo, *_split(pow_hi)]),
                   *_bounds(k), groups)


def _group_index(high, low) -> np.ndarray:
    """Rows of the groups table for n = high * 10**8 + low, shaped (len(n), 7).

    high and low are integer-valued floats, low < 10**8 and n <= 10**17.
    Columns 1 .. 5 hold the five 4-digit groups of n; columns 0 and 6 hold
    row 0, whose bytes the bounds overwrite. A group whose later groups are
    all zero takes the row with its trailing zeros NUL.
    """
    groups = np.zeros((7, len(low)))
    np.floor(high / 1e8, out=groups[1])
    middle = high - groups[1] * 1e8
    np.floor(middle / 1e4, out=groups[2])
    np.subtract(middle, groups[2] * 1e4, out=groups[3])
    np.floor(low / 1e4, out=groups[4])
    np.subtract(low, groups[4] * 1e4, out=groups[5])
    later = np.cumsum(groups[5:1:-1], axis=0)[::-1]
    groups[1:5] += 1e4 * (later == 0)
    groups[5] += 1e4
    return groups.T.astype(np.intp)


def _padded(cells, width: int) -> np.ndarray:
    """Byte strings as the rows of a NUL-padded (len(cells), width) matrix."""
    joined = b"".join(c.ljust(width, b"\0") for c in cells)
    return np.frombuffer(joined, np.uint8).reshape(len(cells), width)


def _round17(x):
    """The 17 digits of each x: n = |x| * 10**(16 - k) rounded, k = floor(log10 |x|).

    Returns n // 10**8 and n % 10**8 as floats, k - _K_MIN, and whether n
    is certain. The binary exponent and one compare with the least double
    >= 10**(k + 1) give k exactly. The product is Dekker's two-product
    against the (hi, lo) table, known to about 1e-15 and exactly for
    |x| >= 1e-6. n is not certain within _TIE_MARGIN of a rounding tie
    whose product is not exact, where it rounds up to 10**17, and for zero,
    subnormal, huge and non-finite x.
    """
    tables = _tables()
    a = np.abs(x)
    sure = (a >= _CERTIFIED_MIN) & (a < _CERTIFIED_MAX)
    a = np.where(sure, a, 1.0)
    e = a.view(np.int64) >> 52
    row = tables.row_of_e.take(e) + (a >= tables.ten_of_e.take(e))
    hi, lo, hi_high, hi_low = tables.pow.take(row, axis=1)
    p = a * hi
    a_high, a_low = _split(a)
    t = (((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low) + a * lo
    # Half-even, as %.17g rounds a tie. Where 10**(16 - k) is a double, t is
    # exact; elsewhere a value this close to a tie is not certain.
    r = np.rint(t)
    sure &= (lo == 0) | (np.abs(t - r) < 0.5 - _TIE_MARGIN)
    # n = p + r in 8-digit halves, exactly: p is an integer below 2**57,
    # and a rounded quotient can put high one off
    high = np.floor(p / 1e8)
    low = (p - high * 1e8) + r
    step = np.floor(low / 1e8)
    high += step
    low -= step * 1e8
    # n = 10**17, rounded up to the next power of ten, which the layout of k
    # cannot show; it is rare, and formatted one at a time
    sure &= high < 1e9
    return high, low, row, sure


def _float_cells(x) -> np.ndarray:
    """"%.17g" of each float64 of x as the rows of a NUL-padded byte matrix.

    The kernel lays out the digits of _round17; the cells it cannot
    certify, and all of fewer than _KERNEL_MIN_CELLS, are formatted one at
    a time.
    """
    if x.size < _KERNEL_MIN_CELLS:
        return _padded([b"%.17g" % v for v in x.tolist()], _CELL_WIDTH)
    tables = _tables()
    high, low, row, sure = _round17(x)
    cells = tables.groups.take(_group_index(high, low)).view(np.uint8)
    np.maximum(cells, tables.lower.take(row, axis=0), out=cells)
    np.minimum(cells, tables.upper.take(row, axis=0), out=cells)
    cells[:, 9] = (x < 0) * np.uint8(ord("-"))
    cells = cells[:, _CELL]
    rest = (~sure).nonzero()[0]
    if rest.size:
        cells[rest] = _padded([b"%.17g" % v for v in x[rest].tolist()], _CELL_WIDTH)
    return cells


def fmt(x) -> str:
    return format(float(x), ".17g")


def _column_kind(path: Path, column) -> str:
    """"f" for a float array, "s" for a list of str.

    Anything else raises TypeError, and a text cell that would break the
    CSV (a comma, a line break or a NUL) raises ValueError.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return "f"
    if not (isinstance(column, list) and all(isinstance(x, str) for x in column)):
        raise TypeError(
            f"a CSV column must be a float array or a list of str, got {type(column).__name__}"
        )
    joined = "".join(column)
    for ch in ",\r\n\0":
        if ch in joined:
            cell = next(x for x in column if ch in x)
            raise ValueError(f"{path}: text cell {cell!r} holds {ch!r}")
    return "s"


def write_csv(path: Path, comment: str, header, columns) -> None:
    """Write columns under a comment line and a header row, one cell per column and row.

    Float cells read as ``fmt`` writes them ("%.17g"), text cells verbatim;
    every check runs before the file is opened.
    """
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns differ in length: {sorted(lengths)}")
    if len(header) != len(columns):
        raise ValueError(f"{path}: {len(header)} header names for {len(columns)} columns")
    kinds = [_column_kind(path, c) for c in columns]
    floats = [j for j, kind in enumerate(kinds) if kind == "f"]
    text = {j: [x.encode() for x in c] for j, c in enumerate(columns) if kinds[j] == "s"}
    width = max([_CELL_WIDTH] * bool(floats)
                + [len(x) for cells in text.values() for x in cells], default=0)
    n_rows = max(lengths, default=0)
    with open(path, "wb") as fh:
        fh.write(f"{comment}\n{','.join(header)}\n".encode())
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            block = np.zeros((stop - start, len(columns), width + 1), np.uint8)
            block[:, :, width] = ord(",")
            block[:, -1, width] = ord("\n")
            if floats:
                x = np.array([columns[j][start:stop] for j in floats], dtype=float)
                block[:, floats, :_CELL_WIDTH] = _float_cells(x.ravel()).reshape(
                    len(floats), stop - start, _CELL_WIDTH).transpose(1, 0, 2)
            for j, cells in text.items():
                block[:, j, :width] = _padded(cells[start:stop], width)
            fh.write(block.tobytes().translate(None, b"\0"))


def read_float_columns(path: Path, names, sha256: str | None = None) -> dict[str, np.ndarray]:
    """The named columns of a CSV, parsed from one read of path; with sha256
    given, the bytes parsed must hash to it, else ValueError."""
    raw = path.read_bytes()
    if sha256 is not None and hashlib.sha256(raw).hexdigest() != sha256:
        raise ValueError(f"{path} does not match the sha256 {sha256}")
    text = raw.decode("utf-8")
    del raw  # the text takes its place
    if "\r" in text:  # the line ends that text mode translates
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    del text  # the lines take its place
    lines = [ln for ln in lines if ln and ln[0] != "#"]
    if not lines:
        raise ValueError(f"{path} has no header row")
    header, body = lines[0].split(","), lines[1:]
    for name in names:
        if name not in header:
            raise ValueError(f"{path}: missing column {name!r}")
    commas = list(map(str.count, body, repeat(",")))
    if commas.count(len(header) - 1) != len(body):
        row = next(ln for ln, n in zip(body, commas) if n != len(header) - 1)
        raise ValueError(f"{path}: malformed row {row!r}")
    if not body:
        return {name: np.empty(0) for name in names}
    data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=float,
                      usecols=[header.index(name) for name in names])
    return {name: np.ascontiguousarray(data[:, k]) for k, name in enumerate(names)}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def file_entry(path: Path) -> dict:
    return {"sha256": sha256_of(path), "bytes": path.stat().st_size}


def write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_manifest(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def parse_model_spec(spec: str) -> ConstitutiveModel:
    """Parse "builtin:kappa=<float>" into a model; anything else is a usage error."""
    if not isinstance(spec, str):  # a manifest's JSON value may be any type
        raise ValueError(f"model spec must be a string, got {spec!r}")
    family, _, rest = spec.partition(":")
    if family != "builtin":
        raise ValueError(f"unknown model family {family!r}; supported: builtin")
    key, _, val = rest.partition("=")
    if key != "kappa" or not val:
        raise ValueError(f"builtin model spec must be builtin:kappa=<float>, got {spec!r}")
    try:
        kappa = float(val)
    except ValueError as exc:
        raise ValueError(f"bad kappa in model spec {spec!r}") from exc
    return make_builtin_model(kappa)


def read_config(path: Path) -> dict[str, str]:
    """Flat UTF-8 key = value file; '#' starts a comment."""
    out: dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: expected key = value, got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out
