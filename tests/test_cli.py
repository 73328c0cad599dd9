import functools
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kepler_oracles import mp_amplitude

from gravelast import cli
from gravelast.cli import main
from gravelast.errors import BracketFailure
from gravelast.io import (
    fmt,
    parse_model_spec,
    read_config,
    read_float_columns,
    sha256_of,
)
from gravelast.parameters import brho_plus
from gravelast.temporal import e_effective


def run(*argv):
    return main([str(a) for a in argv])


def _copy_profile(solved_dir, dest, edit_row=lambda parts: parts, rehash=True):
    """Copy of a solved profile with each CSV data row passed through edit_row.

    With rehash the manifest records the edited file's sha256, as if the
    edited profile had been written that way.
    """
    dest.mkdir()
    lines = (solved_dir / "profile.csv").read_text().splitlines()
    rows = [",".join(edit_row(row.split(","))) for row in lines[2:]]
    (dest / "profile.csv").write_text("\n".join(lines[:2] + rows) + "\n")
    manifest = json.loads((solved_dir / "manifest.json").read_text())
    if rehash:
        manifest["files"]["profile.csv"]["sha256"] = sha256_of(dest / "profile.csv")
    (dest / "manifest.json").write_text(json.dumps(manifest))
    return dest


def _flip_one_digit(solved_dir, dest):
    """Copy of a solved profile with one digit of one f value changed."""
    flipped = []

    def edit(parts):
        if not flipped and parts[0] == fmt(0.5):
            digit = parts[2][-3]
            parts[2] = parts[2][:-3] + str((int(digit) + 1) % 10) + parts[2][-2:]
            flipped.append(parts[2])
        return parts

    _copy_profile(solved_dir, dest, edit, rehash=False)
    assert flipped
    return dest


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solved") / "run"
    code = run("solve", "--model", "builtin:kappa=3100", "--mu", "0",
               "--G", "1", "--N", "128", "--out", out)
    assert code == 0
    return out


class TestSolve:
    def test_happy_path_files(self, solved_dir):
        assert (solved_dir / "profile.csv").exists()
        assert (solved_dir / "manifest.json").exists()
        manifest = json.loads((solved_dir / "manifest.json").read_text())
        assert manifest["model"] == "builtin:kappa=3100"
        assert manifest["files"]["profile.csv"]["sha256"] == sha256_of(
            solved_dir / "profile.csv"
        )
        assert abs(manifest["results"]["boundary_residual"]) <= 1e-10

    def test_profile_columns_and_header(self, solved_dir):
        text = (solved_dir / "profile.csv").read_text().splitlines()
        assert text[0].startswith("# units:")
        assert text[1] == "R,zeta,f,fprime,lambda,y,c1,c2,rho_t0"
        assert len(text) == 2 + 129

    def test_mu_outside_range(self, tmp_path, capsys):
        code = run("solve", "--mu", "1.0", "--N", "64", "--out", tmp_path / "x")
        assert code == 3
        assert "mu outside proven range" in capsys.readouterr().err

    def test_odd_grid_rejected(self, tmp_path):
        assert run("solve", "--N", "15", "--out", tmp_path / "x") == 2

    def test_reproducible_hashes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("solve", "--N", "64", "--out", a) == 0
        assert run("solve", "--N", "64", "--out", b) == 0
        assert sha256_of(a / "profile.csv") == sha256_of(b / "profile.csv")

    def test_round_trip_exact(self, solved_dir):
        cols = read_float_columns(solved_dir / "profile.csv", ("R", "f", "zeta"))
        n = 128
        grid = np.arange(n + 1) / n
        assert np.array_equal(cols["R"], grid)
        assert abs(cols["f"][-1] - 1.0) <= 1e-15

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = builtin:kappa=3100\nN = 64\nG = 1.0\n")
        out = tmp_path / "cfgrun"
        assert run("solve", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["N"] == 64

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 64\n")
        out = tmp_path / "ovr"
        assert run("solve", "--config", cfg, "--N", "96", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["N"] == 96

    def test_config_supplies_mu(self, tmp_path):
        cfg = tmp_path / "mu.cfg"
        cfg.write_text("mu = 5e-4\nN = 64\n")
        out = tmp_path / "cfgmu"
        assert run("solve", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mu"] == 5e-4

    def test_manifest_command_splits_back_into_argv(self, tmp_path):
        argv = ["solve", "--N", "64", "--mu", "-1e-3", "--out", str(tmp_path / "my dir")]
        assert main(argv) == 0
        command = json.loads((tmp_path / "my dir" / "manifest.json").read_text())["command"]
        assert shlex.split(command)[1:] == argv
        # an argv without spaces or quotes is recorded as it was typed
        plain = ["solve", "--N", "64", "--model", "builtin:kappa=3100", "--mu", "-1e-3",
                 "--out", str(tmp_path / "plain")]
        assert main(plain) == 0
        manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
        assert manifest["command"] == "gravelast " + " ".join(plain)

    def test_version_flag(self, capsys):
        assert run("--version") == 0
        assert "gravelast" in capsys.readouterr().out

    def test_nan_mu_is_solver_error(self, tmp_path, capsys):
        assert run("solve", "--mu", "nan", "--N", "64", "--out", tmp_path / "x") == 3
        assert "mu outside proven range" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [["solve"], ["sweep", "--mu-min", "0", "--mu-max", "0", "--steps", "1"],
         ["evolve", "--t-end", "1", "--snapshot-times", "0.5"]],
        ids=["solve", "sweep", "evolve-snapshots"],
    )
    def test_bad_G_exits_2(self, tmp_path, capsys, argv, value):
        assert run(*argv, "--G", value, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "argument --G: G must be finite and positive" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kappa", ["inf", "nan"])
    def test_non_finite_kappa_exits_2(self, tmp_path, capsys, kappa):
        # was HypothesisFailed: normalization: g(1) = nan, exit 3
        assert run("solve", "--model", f"builtin:kappa={kappa}", "--N", "16",
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "argument --model: kappa must be finite and nonnegative" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["1e-250", "1e250"])
    def test_G_beyond_float_range_exits_2(self, tmp_path, capsys, value):
        # was an OverflowError (1e-250) or AssertionError (1e250) traceback, exit 1
        assert run("solve", "--G", value, "--N", "16", "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "argument --G:" in err and "outside the float range" in err
        assert not (tmp_path / "o").exists()


class TestSweep:
    def test_five_rows(self, tmp_path):
        out = tmp_path / "sw"
        code = run("sweep", "--mu-min", "-1e-3", "--mu-max", "1e-3",
                   "--steps", "5", "--N", "64", "--out", out)
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2 + 5
        assert all(row.split(",")[5].isdigit() for row in rows[2:])  # iters as "%d" prints it

    def test_middle_row_matches_solve(self, tmp_path):
        out_sw = tmp_path / "sw"
        out_sv = tmp_path / "sv"
        run("sweep", "--mu-min", "-1e-3", "--mu-max", "1e-3",
            "--steps", "5", "--N", "64", "--out", out_sw)
        run("solve", "--mu", "0", "--N", "64", "--out", out_sv)
        rows = (out_sw / "sweep.csv").read_text().splitlines()
        middle = rows[2 + 2].split(",")
        manifest = json.loads((out_sv / "manifest.json").read_text())
        assert float(middle[0]) == 0.0
        assert float(middle[1]) == manifest["results"]["brho0"]
        assert float(middle[2]) == manifest["results"]["y1"]

    def test_zero_steps(self, tmp_path):
        out = tmp_path / "sw0"
        code = run("sweep", "--mu-min", "0", "--mu-max", "0", "--steps", "0",
                   "--N", "64", "--out", out)
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_all_rows_failing(self, tmp_path):
        code = run("sweep", "--mu-min", "0.1", "--mu-max", "0.2", "--steps", "2",
                   "--N", "64", "--out", tmp_path / "swbad")
        assert code == 4

    def test_error_text_keeps_the_csv_readable(self, tmp_path, monkeypatch):
        # a comma or line break in the text once split the row or the file
        message = "no sign change, twice\nsecond line\r\nthird"
        monkeypatch.setattr(cli, "sweep_rows", lambda model, G, mus, N, **tol: [
            BracketFailure(message) for _ in mus])
        out = tmp_path / "swerr"
        assert run("sweep", "--mu-min", "0", "--mu-max", "1e-4", "--steps", "2",
                   "--N", "16", "--out", out) == 4
        rows = (out / "sweep.csv").read_text().split("\n")
        assert rows[2].endswith(",BracketFailure: no sign change; twice second line  third")
        assert len(rows) == 2 + 2 + 1
        assert read_float_columns(out / "sweep.csv", ("mu",))["mu"].tolist() == [0.0, 1e-4]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["errors"] == [f"BracketFailure: {message}"] * 2

    # were rows mu = [nan, inf, inf], [nan, inf, 1e308] and [nan, nan, 0], exit 4
    @pytest.mark.parametrize("lo,hi", [("-1e-3", "inf"), ("-1e308", "1e308"), ("nan", "0")])
    def test_non_finite_range_exits_2(self, tmp_path, capsys, lo, hi):
        assert run("sweep", "--steps", "3", "--N", "16", "--mu-min", lo, "--mu-max", hi,
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert "Warning" not in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestEvolve:
    def test_stationary(self, tmp_path):
        out = tmp_path / "ev"
        assert run("evolve", "--mu", "0", "--qdot0", "0", "--t-end", "1",
                   "--out", out) == 0
        cols = read_float_columns(out / "temporal.csv", ("t", "q"))
        assert np.all(cols["q"] == 1.0)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["regime"] == "stationary"

    def test_energy_drift_written(self, tmp_path):
        # the drift is formed on first read, and evolve still writes it
        out = tmp_path / "evd"
        assert run("evolve", "--mu", "-0.001", "--qdot0", "0.01", "--t-end", "2",
                   "--out", out) == 0
        cols = read_float_columns(out / "temporal.csv", ("q", "qdot", "energy_drift"))
        drift = 0.5 * cols["qdot"] * cols["qdot"] - 0.001 / cols["q"] - e_effective(-0.001, 0.01)
        assert cols["energy_drift"].size == 2001
        assert np.array_equal(cols["energy_drift"], drift)
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert results["max_energy_drift"] == float(np.max(np.abs(drift)))

    def test_collapsing_manifest(self, tmp_path):
        out = tmp_path / "evc"
        assert run("evolve", "--mu", "-0.0008", "--qdot0", "-0.04",
                   "--t-end", "20", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["regime"] == "collapsing"
        assert manifest["results"]["collapse"]["T"] == pytest.approx(
            50.0 / 3.0, rel=1e-6
        )
        local = manifest["results"]["collapse"]["local_exponents"]
        assert set(local) == {"0.01", "0.001", "0.0001"}
        assert all(a == pytest.approx(2.0 / 3.0, rel=1e-12) for a in local.values())

    def test_negative_t_end(self, tmp_path):
        assert run("evolve", "--mu", "0", "--qdot0", "0", "--t-end", "-1",
                   "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize(
        "times",
        [["--t-end", "nan"], ["--t-end", "inf", "--dt", "1"], ["--t-end", "1", "--dt", "nan"],
         ["--t-end", "1e300", "--dt", "1e-10"]],
        ids=["t_end-nan", "t_end-inf", "dt-nan", "ratio-overflow"],
    )
    def test_non_finite_times_exit_2(self, tmp_path, capsys, times):
        # each was a ValueError or OverflowError traceback from the sampler, exit 1
        assert run("evolve", *times, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "mu,qdot0",
        # the last three leave the float range in e_eff, in v and in A: an
        # OverflowError traceback (exit 1), then numpy warnings and a NaN
        # KeplerNotConverged (exit 3)
        [("inf", "0"), ("0", "nan"), ("0.001", "1e200"), ("-1e308", "0"), ("-0.001", "1e154")],
    )
    def test_non_finite_start_rejected(self, tmp_path, capsys, mu, qdot0):
        assert run("evolve", "--mu", mu, "--qdot0", qdot0, "--t-end", "1",
                   "--out", tmp_path / "x") == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("mu", ["0", "-0.001"])
    @pytest.mark.parametrize("times", ["nan", "0.5,inf"])
    def test_non_finite_snapshot_time_rejected(self, tmp_path, capsys, mu, times):
        # NaN passed the range check: a CSV of NaNs and exit 0 on a free orbit,
        # KeplerNotConverged after temporal.csv was written on a conic one
        assert run("evolve", "--mu", mu, "--qdot0", "0.1", "--t-end", "1", "--N", "16",
                   "--snapshot-times", times, "--out", tmp_path / "x") == 2
        assert "argument --snapshot-times:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("times", [
        ["--qdot0", "0.01", "--t-end", "1", "--dt", "0.01", "--snapshot-times", "0.5,5"],
        ["--qdot0", "-0.3", "--t-end", "10", "--snapshot-times", "5"],
    ], ids=["beyond-t_end", "past-collapse"])
    def test_failing_snapshot_writes_nothing(self, tmp_path, capsys, times):
        # OutOfRange left temporal.csv (and snapshot_000.csv) without a manifest
        out = tmp_path / "x"
        assert run("evolve", "--mu", "-0.001", *times, "--N", "64", "--out", out) == 3
        assert "OutOfRange" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_snapshots_from_profile(self, tmp_path, solved_dir):
        out = tmp_path / "evs"
        code = run("evolve", "--profile", solved_dir, "--qdot0", "0.5",
                   "--t-end", "2", "--dt", "0.01",
                   "--snapshot-times", "0,2", "--out", out)
        assert code == 0
        snap = read_float_columns(out / "snapshot_001.csv", ("R", "phi", "u", "rho"))
        manifest = json.loads((out / "manifest.json").read_text())
        solved = json.loads((solved_dir / "manifest.json").read_text())["results"]
        # rho(0) = brho0 / (q^3 fprime0^3) at q = 2
        expected = solved["brho0"] / (8.0 * solved["fprime0"] ** 3)
        assert snap["rho"][0] == pytest.approx(expected, rel=1e-10)
        assert manifest["results"]["snapshots"]["snapshot_001.csv"][
            "mass"
        ] == pytest.approx(4 * math.pi / 3 * solved["brho0"], rel=1e-9)

    def test_profile_hash_mismatch_rejected(self, tmp_path, solved_dir, capsys):
        broken = _flip_one_digit(solved_dir, tmp_path / "flipped")
        assert run("evolve", "--profile", broken, "--qdot0", "0.5", "--t-end", "1",
                   "--snapshot-times", "0.5", "--out", tmp_path / "ef") == 2
        assert "does not match the sha256" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mu,big_t",
        [("0", 2.0), ("-0.001", float(mp_amplitude(-0.001, -0.5, 0.0)[2]))],
    )
    def test_inward_start_reports_collapse(self, tmp_path, mu, big_t):
        # e_eff > 0, yet an attracting or free inward start reaches q = 0
        out = tmp_path / "evin"
        assert run("evolve", "--mu", mu, "--qdot0", "-0.5", "--t-end", "3",
                   "--out", out) == 0
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert results["regime"] == "collapsing"
        assert results["e_eff"] > 0
        assert results["collapse"]["T"] == pytest.approx(big_t, rel=1e-12)
        assert results["stopped_early"]
        t = read_float_columns(out / "temporal.csv", ("t",))["t"]
        assert big_t - 1e-3 <= t[-1] < big_t

    def test_manifest_records_the_inline_profile(self, tmp_path):
        # the grid comes from the config alone, so only the manifest can say it
        cfg = _config(tmp_path, "N = 64\nmodel = builtin:kappa=3500\n")
        out, solved = tmp_path / "evn", tmp_path / "solved"
        assert run("evolve", "--mu", "0", "--t-end", "1", "--snapshot-times", "0.5",
                   "--config", cfg, "--out", out) == 0
        assert run("solve", "--mu", "0", "--config", cfg, "--out", solved) == 0
        recorded = json.loads((out / "manifest.json").read_text())["profile"]
        reference = json.loads((solved / "manifest.json").read_text())
        assert recorded == {"model": "builtin:kappa=3500", "G": 1.0, "N": 64,
                            "brho0": reference["results"]["brho0"]}

    def test_manifest_records_the_profile_read(self, tmp_path, solved_dir):
        out = tmp_path / "evp"
        assert run("evolve", "--profile", solved_dir, "--t-end", "1",
                   "--snapshot-times", "0.5", "--out", out) == 0
        source = json.loads((solved_dir / "manifest.json").read_text())
        recorded = json.loads((out / "manifest.json").read_text())["profile"]
        assert recorded == {"sha256": source["files"]["profile.csv"]["sha256"]}

    def test_manifest_without_a_profile_records_none(self, tmp_path):
        out = tmp_path / "evq"
        assert run("evolve", "--mu", "0", "--t-end", "1", "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["profile"] is None

    def test_mu_conflict_with_profile(self, tmp_path, solved_dir):
        assert run("evolve", "--profile", solved_dir, "--mu", "1e-4",
                   "--t-end", "1", "--out", tmp_path / "x") == 2

    def test_snapshots_with_inline_solve(self, tmp_path):
        out = tmp_path / "evi"
        code = run("evolve", "--mu", "0", "--qdot0", "0", "--t-end", "1",
                   "--N", "64", "--snapshot-times", "0.5", "--out", out)
        assert code == 0
        assert (out / "snapshot_000.csv").exists()
        snap = read_float_columns(out / "snapshot_000.csv", ("R", "rho"))
        assert np.all(snap["rho"] > 0)


# report.txt of a consistent profile: the column checks, the ResidualReport
# fields, the thresholds, the per-check verdicts, the verdict.
REPORT_KEYS = [
    "f_boundary", "lambda_consistency", "y_consistency",
    "residual_separated", "residual_reformulation", "equivalence_gap",
    "boundary_residual", "grid_n", "stencil_order",
    "max_residual", "max_equivalence", "max_boundary",
    "pass_residual_separated", "pass_residual_reformulation",
    "pass_equivalence_gap", "pass_boundary_residual", "verdict",
]


class TestVerify:
    def test_fresh_solve_passes(self, tmp_path, solved_dir):
        out = tmp_path / "ver"
        assert run("verify", "--profile", solved_dir, "--out", out) == 0
        report = (out / "report.txt").read_text()
        assert "verdict = pass" in report

    def test_scaled_f_column_fails(self, tmp_path, solved_dir):
        def scale_f(parts):
            parts[2] = fmt(1.01 * float(parts[2]))
            return parts

        broken = _copy_profile(solved_dir, tmp_path / "broken", scale_f)
        assert run("verify", "--profile", broken, "--out", tmp_path / "vb") == 5

    def test_hash_mismatch_rejected(self, tmp_path, solved_dir, capsys):
        broken = _flip_one_digit(solved_dir, tmp_path / "flipped")
        assert run("verify", "--profile", broken, "--out", tmp_path / "vf") == 2
        assert "does not match the sha256" in capsys.readouterr().err
        assert not (tmp_path / "vf" / "report.txt").exists()
        intact = _copy_profile(solved_dir, tmp_path / "intact")
        assert run("verify", "--profile", intact, "--out", tmp_path / "vi") == 0

    def test_profile_read_once(self, tmp_path, solved_dir, monkeypatch):
        # the bytes parsed are the bytes hashed: no second read can differ
        reads = []
        for name in ("read_bytes", "read_text"):
            original = getattr(Path, name)

            def counted(path, *args, _original=original, **kwargs):
                reads.append(path.name)
                return _original(path, *args, **kwargs)

            monkeypatch.setattr(Path, name, counted)
        assert run("verify", "--profile", solved_dir, "--out", tmp_path / "v") == 0
        assert reads.count("profile.csv") == 1

    def test_manifest_without_a_hash_rejected(self, tmp_path, solved_dir, capsys):
        unhashed = _copy_profile(solved_dir, tmp_path / "unhashed")
        manifest = json.loads((unhashed / "manifest.json").read_text())
        manifest["files"]["profile.csv"]["sha256"] = None
        (unhashed / "manifest.json").write_text(json.dumps(manifest))
        assert run("verify", "--profile", unhashed, "--out", tmp_path / "vu") == 2
        assert "sha256 must be a string" in capsys.readouterr().err
        assert not (tmp_path / "vu").exists()

    def test_failing_model_in_manifest_exits_3(self, tmp_path, solved_dir, capsys):
        soft = _copy_profile(solved_dir, tmp_path / "soft")
        manifest = json.loads((soft / "manifest.json").read_text())
        manifest["model"] = "builtin:kappa=1"
        (soft / "manifest.json").write_text(json.dumps(manifest))
        assert run("verify", "--profile", soft, "--out", tmp_path / "vs") == 3
        assert "HypothesisFailed: largeness" in capsys.readouterr().err
        assert not (tmp_path / "vs" / "report.txt").exists()

    @pytest.mark.parametrize("G", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_manifest_G_exits_2(self, tmp_path, solved_dir, capsys, G):
        bad = _copy_profile(solved_dir, tmp_path / "badg")
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["G"] = G
        (bad / "manifest.json").write_text(json.dumps(manifest))
        assert run("verify", "--profile", bad, "--out", tmp_path / "vg") == 2
        err = capsys.readouterr().err
        assert "corrupt profile directory" in err and "G must be finite and positive" in err
        assert not (tmp_path / "vg" / "report.txt").exists()

    @pytest.mark.parametrize(
        "field,value,message",
        [("brho0", -1.0, "brho0 must be finite and positive"),
         ("brho0", 0.0, "brho0 must be finite and positive"),
         ("brho0", math.nan, "brho0 must be finite and positive"),
         ("brho0", math.inf, "brho0 must be finite and positive"),
         ("mu", math.nan, "mu must be finite"),
         ("mu", -math.inf, "mu must be finite"),
         ("N", 128.4, "N must be an integer"),
         ("N", "128", "N must be an integer"),
         ("mu", 0.5, "mu outside proven range"),
         ("brho0", 10 * brho_plus(1.0), "outside bracket"),
         ("model", 3100, "model spec must be a string"),
         ("model", None, "model spec must be a string"),
         ("G", True, "G must be a JSON number"),
         ("G", repr, "G must be a JSON number"),
         ("mu", repr, "mu must be a JSON number"),
         ("mu", False, "mu must be a JSON number"),
         ("brho0", repr, "brho0 must be a JSON number"),
         ("brho0", True, "brho0 must be a JSON number"),
         ("N", True, "N must be an integer"),
         ("mu", 10**400, "int too large to convert to float")],
        ids=["brho0-negative", "brho0-zero", "brho0-nan", "brho0-inf", "mu-nan", "mu-inf",
             "N-fraction", "N-string", "mu-outside-box", "brho0-outside-box", "model-int",
             "model-null", "G-true", "G-string", "mu-string", "mu-false", "brho0-string",
             "brho0-true", "N-true", "mu-huge-int"],
    )
    def test_bad_manifest_field_exits_2(self, tmp_path, solved_dir, capsys, field, value,
                                        message):
        # brho0 = -1 made verify trace back and evolve write a negative mass;
        # NaN made verify fail its thresholds (exit 5); N = 128.4 read as 128;
        # a (brho0, mu) outside the box made verify exit 5 and evolve exit 0;
        # a model that is not a string made both trace back (exit 1); G, mu
        # or brho0 as a bool or as its own value in a string (value = repr)
        # passed float() and verified (exit 0)
        bad = _copy_profile(solved_dir, tmp_path / "bad")
        manifest = json.loads((bad / "manifest.json").read_text())
        fields = manifest["results"] if field == "brho0" else manifest
        fields[field] = value(fields[field]) if callable(value) else value
        (bad / "manifest.json").write_text(json.dumps(manifest))
        assert run("verify", "--profile", bad, "--out", tmp_path / "v") == 2
        assert run("evolve", "--profile", bad, "--t-end", "1", "--snapshot-times", "0.5",
                   "--out", tmp_path / "e") == 2
        err = capsys.readouterr().err
        assert err.count("corrupt profile directory") == 2 and err.count(message) == 2
        assert not (tmp_path / "v").exists() and not (tmp_path / "e").exists()

    @pytest.mark.parametrize(
        "extra,code,verdict",
        [([], 0, "pass"), (["--max-residual", "1e-20"], 5, "fail")], ids=["pass", "fail"],
    )
    def test_report_keys_in_order(self, tmp_path, solved_dir, extra, code, verdict):
        out = tmp_path / "v"
        assert run("verify", "--profile", solved_dir, *extra, "--out", out) == code
        lines = (out / "report.txt").read_text().splitlines()
        pairs = dict(line.split(" = ") for line in lines)
        assert list(pairs) == REPORT_KEYS and len(lines) == len(REPORT_KEYS)
        assert pairs["verdict"] == verdict
        assert pairs["pass_residual_separated"] == str(code == 0)
        assert pairs["grid_n"] == "128" and pairs["stencil_order"] == "4"
        assert pairs["max_residual"] == fmt(1e-20 if extra else 1e-6)

    def test_missing_manifest(self, tmp_path, solved_dir, capsys):
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "profile.csv").write_text((solved_dir / "profile.csv").read_text())
        assert run("verify", "--profile", partial, "--out", tmp_path / "vm") == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert not (tmp_path / "vm").exists()

    def test_missing_directory(self, tmp_path):
        assert run("verify", "--profile", tmp_path / "nope",
                   "--out", tmp_path / "vn") == 2

    def test_corrupt_manifest_n(self, tmp_path, solved_dir):
        broken = tmp_path / "badn"
        broken.mkdir()
        manifest = json.loads((solved_dir / "manifest.json").read_text())
        manifest["N"] = 15
        (broken / "manifest.json").write_text(json.dumps(manifest))
        (broken / "profile.csv").write_text((solved_dir / "profile.csv").read_text())
        assert run("verify", "--profile", broken, "--out", tmp_path / "vbn") == 2

    @pytest.mark.parametrize(
        "edit",
        [lambda p: p + ["0"], lambda p: p[:-1], lambda p: p[:2] + [""] + p[3:],
         lambda p: p[:2] + ["abc"] + p[3:]],
        ids=["extra-field", "missing-field", "empty-cell", "non-numeric-cell"],
    )
    def test_malformed_row_rejected(self, tmp_path, solved_dir, edit, capsys):
        # one row edited at R = 0.5, the manifest re-hashed to match
        def edit_row(parts):
            return edit(parts) if parts[0] == fmt(0.5) else parts

        broken = _copy_profile(solved_dir, tmp_path / "malformed", edit_row, rehash=True)
        assert run("verify", "--profile", broken, "--out", tmp_path / "vm") == 2
        assert "corrupt profile directory" in capsys.readouterr().err
        assert not (tmp_path / "vm" / "report.txt").exists()

    @pytest.mark.parametrize("index,name,value", [(2, "f", "nan"), (4, "lambda", "inf")],
                             ids=["f-nan", "lambda-inf"])
    def test_non_finite_cell_exits_2(self, tmp_path, solved_dir, capsys, index, name, value):
        # evolve wrote NaN cells and a manifest "mass": NaN, which is not JSON,
        # and verify failed its thresholds (exit 5)
        def edit_row(parts):
            if parts[0] == fmt(0.5):
                parts[index] = value
            return parts

        bad = _copy_profile(solved_dir, tmp_path / "bad", edit_row)
        assert run("verify", "--profile", bad, "--out", tmp_path / "v") == 2
        assert run("evolve", "--profile", bad, "--t-end", "1", "--snapshot-times", "0.5",
                   "--out", tmp_path / "e") == 2
        err = capsys.readouterr().err
        assert err.count("corrupt profile directory") == 2
        assert err.count(f"column {name} has a non-finite value") == 2
        assert not (tmp_path / "v").exists() and not (tmp_path / "e").exists()

    def test_lambda_off_by_a_millionth_fails_consistency(self, tmp_path, solved_dir):
        # far above the columns' roundoff, far below the residual thresholds' reach
        def scale_lambda(parts):
            parts[4] = fmt((1.0 + 1e-6) * float(parts[4]))
            return parts

        broken = _copy_profile(solved_dir, tmp_path / "lam", scale_lambda)
        assert run("verify", "--profile", broken, "--out", tmp_path / "vl") == 5
        report = (tmp_path / "vl" / "report.txt").read_text().splitlines()
        assert "pass_consistency = False" in report and "verdict = fail" in report

    def test_corrupt_zeta_column_fails(self, tmp_path, solved_dir):
        def shift_zeta(parts):
            parts[1] = fmt(float(parts[1]) + 1e-4)  # columns stay consistent
            return parts

        broken = _copy_profile(solved_dir, tmp_path / "zbroken", shift_zeta)
        assert run("verify", "--profile", broken, "--out", tmp_path / "vz") == 5


# The first file each command writes
FIRST_OUTPUT = {"solve": "profile.csv", "sweep": "sweep.csv", "evolve": "temporal.csv",
                "verify": "report.txt"}


def _command(cmd, profile):
    """A short run of cmd; evolve and verify read the profile directory given."""
    return {
        "solve": ("solve", "--N", "64"),
        "sweep": ("sweep", "--mu-min", "0", "--mu-max", "1e-4", "--steps", "2", "--N", "16"),
        "evolve": ("evolve", "--t-end", "1", "--profile", profile),
        "verify": ("verify", "--profile", profile),
    }[cmd]


class TestFileErrors:
    """An input that cannot be read, an output that cannot be written and a
    size beyond memory exit 2 with a usage error, not a traceback."""

    @pytest.mark.parametrize("cmd", FIRST_OUTPUT)
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_blocked_by_a_file_exits_2_before_any_work(self, tmp_path, solved_dir,
                                                           monkeypatch, capsys, cmd, below):
        # each solved first, then raised FileExistsError or NotADirectoryError (exit 1)
        def work(*args, **kwargs):
            raise AssertionError("the run started")

        for name in ("solve_separable", "sweep_rows", "evolve_q", "_load_profile_dir"):
            monkeypatch.setattr(cli, name, work)
        blocker = tmp_path / "F"
        blocker.write_text("kept\n")
        out = blocker / "sub" if below else blocker
        assert run(*_command(cmd, solved_dir), "--out", out) == 2
        assert f"usage error: --out {out}: {blocker} exists and is not a directory" in (
            capsys.readouterr().err)
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("cmd", FIRST_OUTPUT)
    def test_unwritable_output_exits_2(self, tmp_path, solved_dir, capsys, cmd):
        out = tmp_path / "o"
        (out / FIRST_OUTPUT[cmd]).mkdir(parents=True)
        assert run(*_command(cmd, solved_dir), "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and f"{out / FIRST_OUTPUT[cmd]}" in err

    @pytest.mark.parametrize("cmd", ["solve", "sweep", "evolve"])
    def test_failed_manifest_write_removes_the_run_files(self, tmp_path, solved_dir, capsys,
                                                         cmd):
        # profile.csv, sweep.csv, or temporal.csv and snapshot_000.csv stayed behind
        out = tmp_path / "o"
        (out / "manifest.json").mkdir(parents=True)
        snapshot = ("--snapshot-times", "0.5") if cmd == "evolve" else ()
        assert run(*_command(cmd, solved_dir), *snapshot, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and f"{out / 'manifest.json'}" in err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_failed_write_keeps_only_what_the_run_did_not_write(self, tmp_path, monkeypatch,
                                                                capsys):
        # the half file the failing write left under a free name goes too
        def half_write(path, *args):
            path.write_text("half")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_csv", half_write)
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert run("solve", "--N", "64", "--out", out) == 2
        assert "usage error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    @pytest.mark.parametrize("name", ["manifest.json", "profile.csv"])
    @pytest.mark.parametrize("cmd", ["evolve", "verify"])
    def test_unreadable_profile_exits_2(self, tmp_path, solved_dir, capsys, name, cmd):
        # a directory where the file should be raised IsADirectoryError (exit 1)
        profile = _copy_profile(solved_dir, tmp_path / "p")
        (profile / name).unlink()
        (profile / name).mkdir()
        assert run(*_command(cmd, profile), "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and f"{profile / name}" in err
        assert not (tmp_path / "o").exists()

    # Each asks for more than 2**47 bytes, more than an x86-64 process can
    # map, so the allocation fails at once whatever the overcommit setting.
    @pytest.mark.parametrize("argv", [
        ("evolve", "--t-end", "1e12", "--dt", "1e-3"),  # 10**15 int64 sample indices
        ("sweep", "--mu-min", "0", "--mu-max", "1e-4", "--steps", "100000000000000"),  # float64 mu
        ("solve", "--N", "20000000000000"),  # 2e13 + 1 float64 per profile
    ], ids=["evolve", "sweep", "solve"])
    def test_size_beyond_memory_exits_2(self, tmp_path, capsys, argv):
        # numpy's _ArrayMemoryError traced back (exit 1)
        assert run(*argv, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith("usage error: Unable to allocate")
        assert not (tmp_path / "o").exists()


def _config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return cfg


class TestConfig:
    # Each key under a command that reads it; with the value ignored the run would exit 0.
    @pytest.mark.parametrize(
        "key,value,cmd",
        [("model", "builtin:kappa=x", "solve"), ("G", "abc", "solve"), ("N", "15", "solve"),
         ("mu", "abc", "solve"), ("mu", "abc", "evolve"), ("qdot0", "abc", "evolve"),
         ("dt", "abc", "evolve"), ("max_residual", "abc", "verify"),
         ("max_equivalence", "abc", "verify"), ("max_boundary", "abc", "verify"),
         ("G", "-1", "sweep"), ("G", "inf", "solve"),
         ("max_residual", "nan", "verify"), ("max_residual", "inf", "verify"),
         ("max_boundary", "-1", "verify")],
    )
    def test_bad_value_exits_2(self, tmp_path, solved_dir, capsys, key, value, cmd):
        argv = {
            "solve": [],
            "sweep": ["--mu-min", "0", "--mu-max", "0", "--steps", "1"],
            "evolve": ["--t-end", "1"],
            "verify": ["--profile", solved_dir],
        }[cmd]
        cfg = _config(tmp_path, f"{key} = {value}\n")
        assert run(cmd, *argv, "--config", cfg, "--out", tmp_path / "o") == 2
        option = "--" + key.replace("_", "-")
        assert f"argument {option}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag,key,default,from_config,from_flag,field",
        [("--G", "G", 1.0, "0.5", "2.0", lambda m: m["G"]),
         ("--N", "N", 512, "64", "96", lambda m: m["N"]),
         ("--model", "model", "builtin:kappa=3100", "builtin:kappa=3500",
          "builtin:kappa=4000", lambda m: m["model"])],
        ids=["G", "N", "model"],
    )
    def test_flag_beats_config_beats_default(self, tmp_path, flag, key, default,
                                             from_config, from_flag, field):
        cfg = _config(tmp_path, f"{key} = {from_config}\n")
        seen = []
        for extra in ([], ["--config", cfg], ["--config", cfg, flag, from_flag]):
            out = tmp_path / f"run{len(seen)}"
            assert run("solve", *extra, "--out", out) == 0
            seen.append(field(json.loads((out / "manifest.json").read_text())))
        cast = type(default)
        assert seen == [default, cast(from_config), cast(from_flag)]

    def test_config_does_not_leak_into_next_run(self, tmp_path):
        cfg = _config(tmp_path, "N = 64\nG = 0.5\n")
        assert run("solve", "--config", cfg, "--out", tmp_path / "a") == 0
        assert run("solve", "--out", tmp_path / "b") == 0
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["N"] == 512
        assert manifest["G"] == 1.0

    def test_parser_built_once_per_process(self, tmp_path, monkeypatch):
        builds = []
        build = cli._build_parser.__wrapped__
        monkeypatch.setattr(cli, "_build_parser",
                            functools.cache(lambda: builds.append(1) or build()))
        cfg = _config(tmp_path, "N = 16\n")
        assert run("solve", "--N", "16", "--out", tmp_path / "a") == 0
        assert run("solve", "--config", cfg, "--out", tmp_path / "b") == 0
        assert run("sweep", "--mu-min", "0", "--mu-max", "0", "--steps", "0",
                   "--out", tmp_path / "c") == 0
        assert len(builds) == 1

    def test_mu_conflict_with_profile(self, tmp_path, solved_dir, capsys):
        args = ("evolve", "--profile", solved_dir, "--t-end", "1")
        cfg = _config(tmp_path, "mu = 1e-4\n")
        assert run(*args, "--config", cfg, "--out", tmp_path / "x") == 2
        assert "disagrees with profile mu" in capsys.readouterr().err
        same = _config(tmp_path, "mu = 0\n")
        assert run(*args, "--config", same, "--out", tmp_path / "y") == 0

    def test_unread_keys_ignored(self, tmp_path):
        # qdot0 and dt are config keys but not solve options
        cfg = _config(tmp_path, "qdot0 = abc\ndt = abc\nN = 64\n")
        out = tmp_path / "o"
        assert run("solve", "--config", cfg, "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["N"] == 64

    @pytest.mark.parametrize(
        "key", ["tol-bc", "kapa", "cmd", "out", "tol_picard", "tol_brho", "tol_bc"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, key):
        # tol-bc = 1e-3 was dropped without a word: the run exited 0 with tol_bc = 1e-10;
        # cmd and out are parser dests, not config keys; the Picard and boundary
        # tolerances are fixed, and the brho0 search has no width stop
        cfg = _config(tmp_path, f"N = 64\n{key} = 1e-3\n")
        assert run("solve", "--config", cfg, "--out", tmp_path / "o") == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cmd", FIRST_OUTPUT)
    def test_picard_tolerance_is_not_an_option(self, tmp_path, solved_dir, capsys, cmd):
        # fixed_point.TOL and shooting.TOL_BC are constants, and the brho0
        # search stops on the mismatch and its rounding floor alone
        out = tmp_path / "o"
        for flag in ("--tol-picard", "--tol-brho", "--tol-bc"):
            assert run(*_command(cmd, solved_dir), flag, "1e-12", "--out", out) == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            assert not out.exists()

    def test_brho_tolerance_is_not_an_option(self, tmp_path, capsys):
        # the brho0 search stops on the mismatch and its rounding floor alone
        out = tmp_path / "o"
        assert run("solve", "--N", "64", "--tol-brho", "1e-12", "--out", out) == 2
        assert "unrecognized arguments: --tol-brho" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "N 64\n"], ids=["missing", "malformed"])
    def test_unreadable_config(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        assert run("solve", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--model", "poly:kappa=1"), ("--N", "15")])
    def test_bad_model_or_grid_on_any_command(self, tmp_path, solved_dir, flag, value):
        # verify and a profile-driven evolve read neither, yet reject a malformed one
        assert run("verify", "--profile", solved_dir, flag, value,
                   "--out", tmp_path / "v") == 2
        assert run("evolve", "--profile", solved_dir, "--t-end", "1", flag, value,
                   "--out", tmp_path / "e") == 2

    def test_bad_snapshot_times(self, tmp_path, capsys):
        assert run("evolve", "--t-end", "1", "--snapshot-times", "0.5,x",
                   "--out", tmp_path / "x") == 2
        assert "argument --snapshot-times:" in capsys.readouterr().err


class TestEntryPoint:
    """The real ``python -m gravelast.cli`` process, not main() in-process."""

    @staticmethod
    def _cli(*argv):
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "gravelast.cli", *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_version_and_help(self):
        assert self._cli("--version").returncode == 0
        shown = self._cli("solve", "--help")
        assert shown.returncode == 0
        assert "512" in shown.stdout and "builtin:kappa=3100" in shown.stdout

    def test_bad_config_value_exits_2(self, tmp_path):
        cfg = _config(tmp_path, "mu = abc\n")
        done = self._cli("solve", "--config", cfg, "--out", tmp_path / "o")
        assert done.returncode == 2
        assert "argument --mu:" in done.stderr and "Traceback" not in done.stderr

    def test_bad_G_exits_2(self, tmp_path, solved_dir):
        done = self._cli("solve", "--G", "nan", "--out", tmp_path / "o")
        assert done.returncode == 2
        assert "argument --G:" in done.stderr and "Traceback" not in done.stderr
        bad = _copy_profile(solved_dir, tmp_path / "badg")
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["G"] = -1
        (bad / "manifest.json").write_text(json.dumps(manifest))
        done = self._cli("verify", "--profile", bad, "--out", tmp_path / "v")
        assert done.returncode == 2
        assert "corrupt profile directory" in done.stderr and "Traceback" not in done.stderr

    def test_file_and_memory_errors_exit_2(self, tmp_path, solved_dir):
        profile = _copy_profile(solved_dir, tmp_path / "p")
        (profile / "manifest.json").unlink()
        (profile / "manifest.json").mkdir()
        for argv in (("verify", "--profile", profile),
                     ("evolve", "--t-end", "1e12", "--dt", "1e-3")):
            done = self._cli(*argv, "--out", tmp_path / "o")
            assert done.returncode == 2
            assert done.stderr.startswith("usage error:") and "Traceback" not in done.stderr


class TestIoHelpers:
    def test_parse_model_spec(self):
        m = parse_model_spec("builtin:kappa=3100")
        assert m.kappa == 3100.0
        for bad in ("builtin", "builtin:k=1", "poly:kappa=1", "builtin:kappa=x"):
            with pytest.raises(ValueError):
                parse_model_spec(bad)

    def test_read_config_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nN = 64  # trailing\n\nmodel = builtin:kappa=1\n")
        cfg = read_config(p)
        assert cfg == {"N": "64", "model": "builtin:kappa=1"}

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_fmt_round_trips(self, x):
        assert float(fmt(x)) == x


def _console_script_commands():
    """The commands of the tier-1 workflow's `Console script` step, one argv each."""
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
    lines = workflow.read_text().splitlines()
    start = lines.index("      - name: Console script") + 2
    assert lines[start - 1].strip() == "run: |"
    block = []
    for line in lines[start:]:
        if not line.startswith(" " * 10):
            break
        block.append(shlex.split(line))
    return block


def test_console_script_step_runs_every_command(tmp_path, monkeypatch):
    # CI runs these through the installed entry point; main is that entry point
    commands = _console_script_commands()
    assert all(argv[0] == "gravelast" for argv in commands)
    assert {argv[1] for argv in commands} >= {"solve", "sweep", "evolve", "verify"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    # every manifest written is strict JSON: no NaN or Infinity
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    manifests = sorted(tmp_path.rglob("manifest.json"))
    assert len(manifests) == sum(argv[1] in ("solve", "sweep", "evolve") for argv in commands)
    for path in manifests:
        json.loads(path.read_text(), parse_constant=reject)
