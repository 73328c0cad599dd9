import inspect

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
        "V",
        "RadialGrid", "GeometryProfile", "moment_integral", "apply_L_inverse",
        "reconstruct_geometry", "y_at_boundary",
        "ParameterBox", "build_parameter_box",
        "PicardDiagnostics", "apply_F", "picard_solve",
        "MismatchResult", "SolutionProfile", "boundary_mismatch",
        "solve_separable", "sweep",
        "TemporalSolution", "CollapseEstimate", "MotionSnapshot", "classify", "evolve_q",
        "collapse_time", "assemble_motion",
        "ResidualReport", "residual_report", "stress_profiles",
    }


def test_signatures_are_pinned():
    # Adding or dropping a parameter or dataclass field, or giving one a
    # default ("name=") or taking it away, shows up as a diff of this dict.
    signatures = {
        name: " ".join(p.name + ("=" if p.default is not p.empty else "")
                       for p in inspect.signature(obj).parameters.values())
        for name in gravelast.__all__ if callable(obj := getattr(gravelast, name))
    }
    assert signatures == {
        "ConstitutiveModel": "g dg d2g d3g E family kappa=",
        "ValidationReport": "g2_at_1 sup_d3g threshold",
        "make_builtin_model": "kappa",
        "validate_model": "model",
        "V": "brho mu G lam",
        "RadialGrid": "n",
        "GeometryProfile": "f fprime lam y moment2",
        "moment_integral": "grid values p",
        "apply_L_inverse": "grid eta",
        "reconstruct_geometry": "grid zeta",
        "y_at_boundary": "grid zeta",
        "ParameterBox": "G mu0 brho_plus",
        "build_parameter_box": "model G",
        "PicardDiagnostics": "updates=",
        "apply_F": "model brho mu G grid zeta",
        "picard_solve": "model brho mu G grid zeta0=",
        "MismatchResult": "value zeta diagnostics",
        "SolutionProfile": "model mu brho0 G grid zeta f fprime lam y boundary_residual "
                           "diagnostics root_evaluations",
        "boundary_mismatch": "model brho mu G grid zeta0=",
        "solve_separable": "model mu G grid box=",
        "sweep": "model G mu_values grid",
        "TemporalSolution": "mu qdot0 e_eff regime t q qdot stopped_early",
        "CollapseEstimate": "time exponent prefactor threshold_times local_exponents",
        "MotionSnapshot": "t q qdot phi u rho mass",
        "classify": "mu qdot0",
        "evolve_q": "mu qdot0 t_end dt",
        "collapse_time": "mu qdot0",
        "assemble_motion": "profile temporal t",
        "ResidualReport": "residual_separated residual_reformulation equivalence_gap "
                          "boundary_residual grid_n stencil_order=",
        "residual_report": "profile",
        "stress_profiles": "profile",
    }
