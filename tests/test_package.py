"""Tests that pin the package's public surface."""

import dataclasses

import mirrorsobol
from mirrorsobol import _quad, bandwidth, baselines, density, domain, estimator, inputs, kernels, testbed


def test_every_exported_name_resolves():
    missing = [name for name in mirrorsobol.__all__ if not hasattr(mirrorsobol, name)]
    assert not missing, f"__all__ names without a binding: {missing}"
    assert len(set(mirrorsobol.__all__)) == len(mirrorsobol.__all__)
    for module in (bandwidth, baselines, density, domain, estimator, inputs, kernels, testbed):
        assert all(hasattr(module, name) for name in module.__all__), module.__name__


def test_removed_names_stay_removed():
    for name in ("select_bandwidth", "estimate_t_with_density_estimate", "brute_force_t", "PilotConfig"):
        assert name not in mirrorsobol.__all__
        assert not hasattr(mirrorsobol, name), f"mirrorsobol.{name} should not exist"
    assert not hasattr(bandwidth, "select_bandwidth")
    assert not hasattr(bandwidth, "PilotConfig")
    assert not hasattr(estimator, "estimate_t_with_density_estimate")
    for name in (
        "OrthonormalBasis",
        "build_orthonormal_basis",
        "monomial_coordinates",
        "solve_kernel_coefficients",
        "tensorize",
        "kernel_to_spec",
        "kernel_from_spec",
        "BaseDensity",
        "uniform_half",
        "custom_base",
        "build_kernel_1d",
        "Kernel1D",
    ):
        assert not hasattr(kernels, name), f"mirrorsobol.kernels.{name} should not exist"
    for name in ("MirrorSigns", "sigma_at", "apply_mirror"):
        assert not hasattr(domain, name), f"mirrorsobol.domain.{name} should not exist"
    assert not hasattr(domain.Domain, "to_json") and not hasattr(domain.Domain, "from_json")
    for name in ("Custom", "density_subset"):
        assert not hasattr(inputs, name), f"mirrorsobol.inputs.{name} should not exist"
    assert "Custom" not in mirrorsobol.__all__ and not hasattr(mirrorsobol, "Custom")
    assert not hasattr(density.DensityEstimate, "eval")
    assert "floor" not in {f.name for f in dataclasses.fields(density.DensityEstimate)}
    for cls in (inputs.Uniform, inputs.Beta, inputs.InputModel):
        assert not hasattr(cls, "to_json"), f"{cls.__name__}.to_json should not exist"
    assert not hasattr(estimator.SubsetSpec, "d")
    # the limiting variances sum the conditional moments from Y on the rule, and the
    # truths follow from the Hoeffding terms
    fields = {f.name for f in dataclasses.fields(testbed.AnalyticModel)}
    assert not {"g1_funcs", "g2_funcs", "true_t", "true_sobol"} & fields
    assert not hasattr(testbed.AnalyticModel, "g1") and not hasattr(testbed.AnalyticModel, "g2")
    for module, name in (
        (estimator, "asymptotic_variance_t"),
        (estimator, "asymptotic_variance_sobol"),
        (estimator, "_sobol_delta_variance"),
        (estimator, "_covariance"),
        (estimator, "estimate_g1_loo"),
        (estimator, "_y_row_sums"),
        (estimator, "default_bandwidth"),
        (density, "plugin_mse_diagnostic"),
        (bandwidth, "compute_beta_single"),
        (baselines, "_limiting_variance_t"),
        (baselines, "efficient_variance_forms"),
        (baselines, "limiting_variance_efficient"),
        (baselines, "limiting_variance_sobol_efficient"),
        (baselines, "limiting_variance_sobol_plugin"),
        (baselines, "limiting_variance_t"),
        (baselines, "limiting_variance_sobol_centered"),
        (baselines, "limiting_variance_nn"),
        (baselines, "_population_covariance"),
        (baselines, "VarianceOracles"),
        (baselines, "_SLAB"),
        (baselines, "_slabs"),
        (baselines, "_population_moments"),
        (baselines, "_covariance"),
        (baselines, "_ratio_rows"),
        (baselines, "_ratio_covariance_at"),
        (baselines, "_mean_y"),
        (baselines, "limiting_variances"),
        (testbed, "variance_oracles"),
        (testbed, "pick_freeze_design"),
        (testbed, "_conditional_moments"),
        (testbed, "_on_tensor_grid"),
        (testbed, "_along"),
        (kernels, "verify_order"),
        (_quad, "multi_indices"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name} should not exist"
        assert not hasattr(mirrorsobol, name), f"mirrorsobol.{name} should not exist"
    # the oracle stays where the tests and studies use it
    assert "brute_force_t" in testbed.__all__
