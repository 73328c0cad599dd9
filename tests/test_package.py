import gravelast


def test_every_exported_name_resolves():
    missing = [name for name in gravelast.__all__ if not hasattr(gravelast, name)]
    assert missing == []
    assert len(set(gravelast.__all__)) == len(gravelast.__all__)


def test_exported_set_is_pinned():
    # Adding or dropping a public name shows up as a diff of this list.
    assert set(gravelast.__all__) == {
        "__version__",
        "ConstitutiveModel", "ValidationReport", "make_builtin_model", "validate_model",
        "K", "V",
        "RadialGrid", "GeometryProfile", "moment_integral", "apply_L_inverse",
        "reconstruct_geometry", "y_at_boundary",
        "ParameterBox", "build_parameter_box",
        "PicardDiagnostics", "apply_F", "picard_solve",
        "MismatchResult", "SolutionProfile", "SweepRow", "boundary_mismatch",
        "solve_separable", "sweep",
        "TemporalSolution", "CollapseEstimate", "MotionSnapshot", "classify", "evolve_q",
        "collapse_time", "assemble_motion",
        "ResidualReport", "residual_report", "stress_profiles",
    }
