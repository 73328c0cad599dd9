"""The external tracer wraps every named function, times it honestly and changes no result."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gravelast
import tracer as tracing
from gravelast import cli, fixed_point, radial, shooting, temporal, verify
from gravelast.constitutive import ConstitutiveModel, make_builtin_model
from gravelast.errors import ParameterOutOfRange
from gravelast.parameters import build_parameter_box

BENCH_DIR = Path(__file__).resolve().parent


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_aliases_are_wrapped_and_restored():
    originals = (radial.moment_integral, shooting.sweep, ConstitutiveModel.U, cli.main)
    t = tracing.Tracer()
    t.install()
    try:
        wrapped = radial.moment_integral
        assert wrapped is not originals[0]
        # `from .radial import moment_integral` copies in other modules.
        assert temporal.moment_integral is wrapped
        assert verify.moment_integral is wrapped
        assert gravelast.moment_integral is wrapped
        # `from .shooting import sweep as sweep_rows` in the CLI.
        assert cli.sweep_rows is shooting.sweep is not originals[1]
        assert ConstitutiveModel.U is not originals[2]
    finally:
        t.uninstall()
    assert (radial.moment_integral, shooting.sweep, ConstitutiveModel.U, cli.main) == originals
    assert temporal.moment_integral is verify.moment_integral is originals[0]
    assert cli.sweep_rows is originals[1]


def test_missing_function_fails_loudly_and_leaves_nothing_patched():
    before = radial.moment_integral
    t = tracing.Tracer(names=("radial.moment_integral", "radial.no_such_function"))
    with pytest.raises(LookupError):
        t.install()
    assert radial.moment_integral is before
    with pytest.raises(LookupError):
        tracing.Tracer(names=("nomodule.f",)).install()


def _solve(n=64, mu=-0.001):
    model = make_builtin_model(3100.0)
    return shooting.solve_separable(model, mu, 1.0, radial.RadialGrid(n))


def test_traced_results_bit_identical(tracer):
    traced = tracer.run_op(1, _solve)
    traj_traced = tracer.run_op(2, temporal.evolve_q, -0.001, 0.01, 2.0, 1e-3)
    tracer.uninstall()
    plain = _solve()
    traj_plain = temporal.evolve_q(-0.001, 0.01, 2.0, 1e-3)
    assert traced.brho0 == plain.brho0
    assert np.array_equal(traced.zeta, plain.zeta)
    assert np.array_equal(traj_traced.q, traj_plain.q)


def test_self_times_partition_the_op(tracer):
    tracer.run_op(1, _solve)
    spans = tracer.spans
    (op,) = [s for s in spans if s[3] == "op"]
    assert len(spans) > 100
    total_self = sum(s[6] for s in spans)
    assert total_self == pytest.approx(op[5] - op[4], rel=1e-9)
    assert all(s[6] >= 0.0 for s in spans)
    ids = {s[1] for s in spans}
    assert all(s[2] in ids for s in spans if s[3] != "op")
    m = tracer.metrics()
    assert m["shooting.solve_separable.calls"] == 1
    assert m["shooting.mismatch_evals_per_solve"] == m["shooting.boundary_mismatch.calls"]
    assert m["fixed_point.picard_solve.calls"] == m["shooting.boundary_mismatch.calls"]
    assert 2 <= m["fixed_point.iterations_per_picard"] <= 20
    assert m["radial.moment_integral.bytes_computed"] == 16 * 65 * m["radial.moment_integral.calls"]
    assert sum(m[f"{layer}.self_pct"] for layer in tracing.LAYERS) <= 100.0


def test_errors_counted(tracer):
    model = make_builtin_model(3100.0)
    box = build_parameter_box(model, 1.0)
    with pytest.raises(ParameterOutOfRange):
        tracer.run_op(1, fixed_point.picard_solve, model, 10 * box.brho_plus, 0.0, 1.0,
                      radial.RadialGrid(64))
    m = tracer.metrics()
    assert m["fixed_point.picard_solve.errors"] == 1
    assert m["fixed_point.picard_solve.calls"] == 1


def test_calls_outside_an_op_are_not_recorded(tracer):
    _solve()
    assert tracer.spans == []


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    t = tracing.Tracer()
    t.install()
    try:
        t.run_op(1, _solve)
    finally:
        t.uninstall()
    produced = set(t.metrics()) | {"trace.overhead_pct"}
    assert produced == set(declared)
    assert {name: tracing.unit(name) for name in produced} == declared


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_coarse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
