import functools
import json
import math
import os
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
from gravelast.io import (
    fmt,
    parse_model_spec,
    read_config,
    read_float_columns,
    sha256_of,
)


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

    def test_boundary_tolerance_flag(self, tmp_path):
        out = tmp_path / "loose"
        assert run("solve", "--N", "64", "--tol-bc", "1e-6", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tolerances"]["bc"] == 1e-6
        assert abs(manifest["results"]["boundary_residual"]) <= 1e-6

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

    def test_inline_solve_uses_resolved_tolerances(self, tmp_path, monkeypatch):
        seen = {}
        original = cli.solve_separable

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_separable", spy)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tol_bc = 1e-9\ntol_brho = 1e-11\ntol_picard = 1e-12\n")
        assert run("evolve", "--mu", "0", "--t-end", "1", "--N", "64",
                   "--snapshot-times", "0.5", "--config", cfg,
                   "--tol-bc", "2e-9", "--out", tmp_path / "evt") == 0
        assert seen == {"tol_bc": 2e-9, "tol_brho": 1e-11, "tol_picard": 1e-12}

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
         ("N", "128", "N must be an integer")],
        ids=["brho0-negative", "brho0-zero", "brho0-nan", "brho0-inf", "mu-nan", "mu-inf",
             "N-fraction", "N-string"],
    )
    def test_bad_manifest_field_exits_2(self, tmp_path, solved_dir, capsys, field, value,
                                        message):
        # brho0 = -1 made verify trace back and evolve write a negative mass;
        # NaN made verify fail its thresholds (exit 5); N = 128.4 read as 128
        bad = _copy_profile(solved_dir, tmp_path / "bad")
        manifest = json.loads((bad / "manifest.json").read_text())
        (manifest["results"] if field == "brho0" else manifest)[field] = value
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

    def test_missing_manifest(self, tmp_path, solved_dir):
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "profile.csv").write_text((solved_dir / "profile.csv").read_text())
        assert run("verify", "--profile", partial, "--out", tmp_path / "vm") == 2

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

    def test_corrupt_zeta_column_fails(self, tmp_path, solved_dir):
        def shift_zeta(parts):
            parts[1] = fmt(float(parts[1]) + 1e-4)  # columns stay consistent
            return parts

        broken = _copy_profile(solved_dir, tmp_path / "zbroken", shift_zeta)
        assert run("verify", "--profile", broken, "--out", tmp_path / "vz") == 5


def _config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return cfg


class TestConfig:
    # Each key under a command that reads it; with the value ignored the run would exit 0.
    @pytest.mark.parametrize(
        "key,value,cmd",
        [("model", "builtin:kappa=x", "solve"), ("G", "abc", "solve"), ("N", "15", "solve"),
         ("tol_picard", "abc", "sweep"), ("tol_bc", "abc", "sweep"), ("tol_brho", "abc", "solve"),
         ("mu", "abc", "solve"), ("mu", "abc", "evolve"), ("qdot0", "abc", "evolve"),
         ("dt", "abc", "evolve"), ("max_residual", "abc", "verify"),
         ("max_equivalence", "abc", "verify"), ("max_boundary", "abc", "verify"),
         ("G", "-1", "sweep"), ("G", "inf", "solve"), ("tol_brho", "inf", "solve"),
         ("tol_brho", "nan", "solve"), ("tol_bc", "inf", "solve"), ("tol_picard", "-1", "sweep"),
         ("max_residual", "inf", "verify")],
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
        [("--tol-bc", "tol_bc", 1e-10, "1e-9", "2e-9", lambda m: m["tolerances"]["bc"]),
         ("--N", "N", 512, "64", "96", lambda m: m["N"]),
         ("--model", "model", "builtin:kappa=3100", "builtin:kappa=3500",
          "builtin:kappa=4000", lambda m: m["model"])],
        ids=["tol_bc", "N", "model"],
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
        cfg = _config(tmp_path, "N = 64\ntol_bc = 1e-9\n")
        assert run("solve", "--config", cfg, "--out", tmp_path / "a") == 0
        assert run("solve", "--out", tmp_path / "b") == 0
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["N"] == 512
        assert manifest["tolerances"]["bc"] == 1e-10

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
        # qdot0 is not a solve option; cmd and out are parser dests, not config keys
        cfg = _config(tmp_path, "qdot0 = abc\ncmd = sweep\nout = elsewhere\nN = 64\n")
        out = tmp_path / "o"
        assert run("solve", "--config", cfg, "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["N"] == 64

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
