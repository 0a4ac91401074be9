import importlib

import pytest

import simplexlearn

MODULES = ["geometry", "sampling", "moments", "vertex_finder", "learner", "ica", "evaluation", "diagnostics"]

# names the package does not provide: no command, demo or benchmark used them
DELETED = [
    "simplex_to_json",
    "simplex_from_json",
    "save_simplex",
    "load_simplex",
    "isotropic_vertex_norms",
    "barycentric_coordinates",
    "GammaParams",
    "sample_gamma",
    "sample_cone_measure",
    "save_trace",
    "PowerSums",
    "power_sums",
    "coupon_trials_bound",
]


def test_every_exported_name_resolves():
    for name in simplexlearn.__all__:
        assert hasattr(simplexlearn, name), name


def test_exports_are_the_module_lists():
    expected = ["__version__"]
    for module in MODULES:
        expected += importlib.import_module(f"simplexlearn.{module}").__all__
    assert simplexlearn.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone(name):
    assert not hasattr(simplexlearn, name)
    with pytest.raises(ImportError):
        exec(f"from simplexlearn import {name}", {})
