"""Tests that pin the package's public surface."""

import mirrorsobol
from mirrorsobol import bandwidth, estimator, testbed


def test_every_exported_name_resolves():
    missing = [name for name in mirrorsobol.__all__ if not hasattr(mirrorsobol, name)]
    assert not missing, f"__all__ names without a binding: {missing}"
    assert len(set(mirrorsobol.__all__)) == len(mirrorsobol.__all__)
    for module in (bandwidth, estimator, testbed):
        assert all(hasattr(module, name) for name in module.__all__), module.__name__


def test_removed_names_stay_removed():
    for name in ("select_bandwidth", "estimate_t_with_density_estimate", "brute_force_t"):
        assert name not in mirrorsobol.__all__
        assert not hasattr(mirrorsobol, name), f"mirrorsobol.{name} should not exist"
    assert not hasattr(bandwidth, "select_bandwidth")
    assert not hasattr(estimator, "estimate_t_with_density_estimate")
    # the oracle stays where the tests and studies use it
    assert "brute_force_t" in testbed.__all__
