"""The public surface: a pinned package export list, no stale entries.

``adiakit.__all__`` changes only on purpose, so it is pinned here as a
literal.  Every name a submodule lists in its ``__all__`` must resolve:
a deletion that leaves its export entry behind fails at once.
"""

import importlib
import pkgutil

import pytest

import adiakit

PACKAGE_ALL = [
    "__version__", "AdiakitError", "ShapeError", "InputError",
    "DomainError", "ConfigError", "DegeneracyError", "CrossingError",
    "ConditioningError", "StiffnessError", "ResolutionError",
    "NumericalError", "Envelope", "GeneratorSpec", "MODEL_NAMES",
    "constant", "linear", "polynomial", "cosine_ramp", "sinusoid",
    "envelope_from_json", "make_model", "SpectralTrack", "Trajectory",
    "ConditionRatios", "track_spectrum", "integrate_schrodinger",
    "adiabatic_condition_ratio", "min_time_estimate", "adiabatic_state",
    "berry_phase_curve", "coefficient_dynamics", "wu_expansion",
    "instantaneous_propagator", "fidelity", "JordanTrack",
    "build_supermatrix", "integrate_master", "jordan_track",
    "unitary_embedding_jordan", "expand_jordan_coefficients",
    "open_condition_metric", "condition_term_count",
    "open_time_condition", "time_term_count", "classify_regime",
    "ConsistencyReport", "consistency_report", "illegal_solution",
    "inconsistency_witness", "projector_residual",
]

SUBMODULES = sorted(info.name
                    for info in pkgutil.iter_modules(adiakit.__path__))


def test_package_all_is_pinned():
    assert adiakit.__all__ == PACKAGE_ALL


@pytest.mark.parametrize("name", ["adiakit"]
                         + [f"adiakit.{name}" for name in SUBMODULES])
def test_star_import_resolves(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
