"""Each benchmark oracle accepts a correct result and rejects a corrupted one."""

import math

import mpmath
import numpy as np
import pytest

import oracles
import workloads
from oracles import OracleFailure
from gravelast import temporal


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve") / "op"
    workloads._run_cli(["solve", "--N", "512", "--mu", "-0.001", "--out", str(out)])
    workloads._run_cli(["verify", "--profile", str(out), "--out", str(out / "verify")])
    return out


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "op"
    workloads._run_cli(["sweep", "--steps", "3", "--N", "128", "--mu-min", "-0.001",
                        "--mu-max", "0.002", "--out", str(out)])
    return out


def test_verify_verdict(solved):
    text = (solved / "verify" / "report.txt").read_text()
    oracles.check_verify_verdict(text)
    with pytest.raises(OracleFailure):
        oracles.check_verify_verdict(text.replace("verdict = pass", "verdict = fail"))
    with pytest.raises(OracleFailure):
        oracles.check_verify_verdict(text.replace("verdict = pass\n", ""))


def test_manifest_hash_rejects_one_changed_byte(solved, tmp_path):
    oracles.check_manifest_hash(solved, "profile.csv")
    copy = tmp_path / "op"
    copy.mkdir()
    (copy / "manifest.json").write_bytes((solved / "manifest.json").read_bytes())
    data = bytearray((solved / "profile.csv").read_bytes())
    i = data.rindex(b"1")
    data[i] = ord("2")
    (copy / "profile.csv").write_bytes(bytes(data))
    with pytest.raises(OracleFailure):
        oracles.check_manifest_hash(copy, "profile.csv")


def test_profile_rejects_flipped_sign_and_moved_boundary(solved):
    cols = oracles.read_csv(solved / "profile.csv")
    f = oracles.float_column(cols, "f")
    fprime = oracles.float_column(cols, "fprime")
    oracles.check_profile(f, fprime)
    flipped = list(fprime)
    flipped[len(flipped) // 2] *= -1.0
    with pytest.raises(OracleFailure):
        oracles.check_profile(f, flipped)
    with pytest.raises(OracleFailure):
        oracles.check_profile(f[:-1] + [1.0 + 1e-11], fprime)


def test_sweep_rows(swept):
    cols = oracles.read_csv(swept / "sweep.csv")
    mus = [float(m) for m in np.linspace(-0.001, 0.002, 3)]
    oracles.check_sweep_rows(cols, mus)
    with pytest.raises(OracleFailure):
        oracles.check_sweep_rows(cols, [mus[0], -mus[1], mus[2]])
    bad_bc = dict(cols, bc_residual=["2e-8"] + cols["bc_residual"][1:])
    with pytest.raises(OracleFailure):
        oracles.check_sweep_rows(bad_bc, mus)
    flipped_bc = dict(cols, bc_residual=[str(-float(v)) for v in cols["bc_residual"]])
    oracles.check_sweep_rows(flipped_bc, mus)  # the bound is on |bc_residual|
    failed = dict(cols, error=["", "BracketFailure: x", ""])
    with pytest.raises(OracleFailure):
        oracles.check_sweep_rows(failed, mus)


def _kepler_by_quadrature(mu, qdot0):
    """Collapse time as the time integral dt = dq/|qdot| along the orbit."""
    mp = mpmath.mp.clone()
    mp.dps = 40
    e = mp.mpf(qdot0) ** 2 / 2 + mp.mpf(mu)
    speed = lambda q: mp.sqrt(2 * (e - mp.mpf(mu) / q))  # noqa: E731
    inward = mp.quad(lambda q: 1 / speed(q), [0, 1])
    if qdot0 <= 0:
        return float(inward)
    q_max = mp.mpf(mu) / e
    return float(inward + 2 * mp.quad(lambda q: 1 / speed(q), [1, q_max]))


@pytest.mark.parametrize("mu,qdot0", [
    (-0.001, 0.0), (-0.0015, -0.02), (-0.0015, 0.02), (-0.002, -0.3), (-0.001, -0.1),
])
def test_kepler_collapse_time_matches_quadrature(mu, qdot0):
    assert oracles.kepler_collapse_time(mu, qdot0) == pytest.approx(
        _kepler_by_quadrature(mu, qdot0), rel=1e-12)


def test_kepler_free_fall_closed_form():
    mu = -0.001
    assert oracles.kepler_collapse_time(mu, 0.0) == pytest.approx(
        math.pi / (2.0 * math.sqrt(2.0 * -mu)), rel=1e-14)


def test_kepler_rejects_orbits_that_never_collapse():
    for mu, qdot0 in ((0.001, -0.1), (-0.001, 0.2), (0.0, -0.1)):
        with pytest.raises(ValueError):
            oracles.kepler_collapse_time(mu, qdot0)


def test_collapse_time_oracle():
    mu, qdot0 = -0.0015, 0.01
    est = temporal.collapse_time(mu, qdot0)
    oracles.check_collapse_time(est.time, mu, qdot0)
    with pytest.raises(OracleFailure):
        oracles.check_collapse_time(est.time * (1.0 + 1e-7), mu, qdot0)
    with pytest.raises(OracleFailure):
        oracles.check_collapse_time(-est.time, mu, qdot0)


def test_inward_stop_oracle():
    mu, qdot0 = -0.001, -0.3
    traj = temporal.evolve_q(mu, qdot0, 30.0, 1e-3)
    t_last = float(traj.t[-1])
    oracles.check_inward_stop(traj.stopped_early, t_last, mu, qdot0)
    with pytest.raises(OracleFailure):
        oracles.check_inward_stop(False, t_last, mu, qdot0)
    with pytest.raises(OracleFailure):
        oracles.check_inward_stop(True, oracles.kepler_collapse_time(mu, qdot0), mu, qdot0)


def test_full_span_oracle():
    traj = temporal.evolve_q(0.001, 0.1, 30.0, 1e-3)
    oracles.check_full_span(traj.stopped_early, float(traj.t[-1]), 30.0)
    with pytest.raises(OracleFailure):
        oracles.check_full_span(True, float(traj.t[-1]), 30.0)
    with pytest.raises(OracleFailure):
        oracles.check_full_span(False, 29.0, 30.0)


def test_mass_oracle(tmp_path):
    w = workloads.RegimePortrait(seed=3, scratch=tmp_path)
    res = w.run(w.draw())
    brho0 = w.profile.brho0
    for snap in res["snapshots"]:
        oracles.check_mass(snap.mass, brho0)
    mass = res["snapshots"][0].mass
    with pytest.raises(OracleFailure):
        oracles.check_mass(-mass, brho0)
    with pytest.raises(OracleFailure):
        oracles.check_mass(mass * (1.0 + 1e-11), brho0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_op_passes_its_oracles(name, tmp_path):
    w = workloads.WORKLOADS[name](seed=11, scratch=tmp_path)
    inp = w.draw()
    try:
        first = w.check(inp, w.run(inp))
    finally:
        w.cleanup()
    assert first == w.check(inp, w.run(inp))
