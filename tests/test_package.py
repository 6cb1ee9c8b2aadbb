"""The package namespace is the union of its seven layers' ``__all__`` lists."""

import os
import subprocess
import sys

import sphere_poincare
from sphere_poincare import eigensolver, flow, grid, legendre, sharp, spectral, vsh

LAYERS = (eigensolver, flow, grid, legendre, sharp, spectral, vsh)
LAYER_NAMES = [name for layer in LAYERS for name in layer.__all__]

# The 49 names the package exported when it kept its own copy of the lists.
EXPORTED = """
    SpectralBlock block gamma_numeric min_eigenpair numeric_minimizer
    FlowResult FlowState distance_to_normals el_residual gradient_flow
    project_tangent second_variation_normal
    Grid SampledScalarField SampledVectorField build_grid
    dirichlet_energy_scalar_route inner_product integrate normal_field
    scalar_analyze tangent_frame verification_grid
    assoc_legendre assoc_legendre_dt normalized_legendre scalar_sh
    scalar_sh_grad_components
    MinimizerSpec Regime build_minimizer classify_regime equality_residual
    gamma gamma_plus membership_check shifted_constant
    EnergyBreakdown anisotropy_energy dirichlet_energy energy_report
    g_kappa norm_sq
    CoeffSet ModeIndex analyze eval_vsh random_coeffs synthesize
""".split()


def test_package_all_is_the_version_and_the_layers_lists():
    assert sphere_poincare.__all__ == ["__version__", *LAYER_NAMES]


def test_no_name_is_in_two_layers_lists():
    assert len(LAYER_NAMES) == len(set(LAYER_NAMES))


def test_each_package_name_is_its_layers_object():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(sphere_poincare, name) is getattr(layer, name), f"{layer.__name__}.{name}"
    namespace = {}
    exec("from sphere_poincare import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sphere_poincare.__all__)


def test_every_name_exported_before_is_still_exported():
    assert len(EXPORTED) == 49
    assert set(EXPORTED) <= set(sphere_poincare.__all__)


def test_import_loads_no_thread_pool():
    # concurrent.futures takes a few ms to import; the dense transforms load it at their first split.
    script = "import sys, sphere_poincare.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphere_poincare.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
