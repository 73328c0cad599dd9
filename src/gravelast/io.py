"""CSV/manifest serialization and model-spec parsing for the CLI.

Arrays go to CSV with one leading unit-comment line, a header row, and
17-significant-digit decimals so values round-trip bit-exactly.  Each run
directory gets a JSON manifest recording inputs, results and sha256 hashes
of the emitted CSVs; wall time and timestamps live only in the manifest,
so identical reruns produce byte-identical CSVs.

A column is a numeric array or a list of text.  The writer builds one
``%`` row template per file ("%.17g" for a float array, "%d" for an
integer or bool one, "%s" for text; the same bytes as ``fmt`` cell by
cell) and formats rows in bounded chunks of ``_CHUNK_ROWS``, so no whole
numeric column is ever held as a Python list.  The reader checks each row's
field count against the header, then parses only the requested columns
with ``np.loadtxt``, which reads a number as ``float`` does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

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

# Rows formatted per write: bounds the Python lists built from each column slice.
_CHUNK_ROWS = 1024


def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _column_spec(column) -> str:
    """The ``%`` spec under which every cell of ``column`` reads as ``fmt`` writes it.

    A column is a numeric (float, int, uint or bool) array or a list of str;
    anything else raises TypeError.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiub":
        return "%.17g" if column.dtype.kind == "f" else "%d"
    if isinstance(column, list) and all(isinstance(x, str) for x in column):
        return "%s"
    raise TypeError(
        f"a CSV column must be a numeric array or a list of str, got {type(column).__name__}"
    )


def write_csv(path: Path, comment: str, header, columns) -> None:
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns differ in length: {sorted(lengths)}")
    if len(header) != len(columns):
        raise ValueError(f"{path}: {len(header)} header names for {len(columns)} columns")
    template = ",".join(map(_column_spec, columns)) + "\n"
    n_rows = max(lengths, default=0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{comment}\n{','.join(header)}\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            chunk = [c[start:start + _CHUNK_ROWS] for c in columns]
            rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in chunk))
            fh.write("".join(map(template.__mod__, rows)))


def read_float_columns(path: Path, names) -> dict[str, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path} has no header row")
    header, body = lines[0].split(","), lines[1:]
    for name in names:
        if name not in header:
            raise ValueError(f"{path}: missing column {name!r}")
    for ln in body:
        if ln.count(",") != len(header) - 1:
            raise ValueError(f"{path}: malformed row {ln!r}")
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
