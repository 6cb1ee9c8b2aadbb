"""Sharp Poincare-type inequality for vector fields on the 2-sphere.

Builds real vector spherical harmonics, evaluates the penalized surface
energy both by quadrature and in coefficient space, recovers the sharp
constant by block eigenproblems, constructs the exact equality family,
and probes the stability of the normal states by constrained gradient
flow.

The package namespace is the union of the layers' ``__all__`` lists:
each public name is declared once, in its layer.
"""

__version__ = "0.1.0"

from . import eigensolver, flow, grid, legendre, sharp, spectral, vsh
from .eigensolver import *  # noqa: F403
from .flow import *  # noqa: F403
from .grid import *  # noqa: F403
from .legendre import *  # noqa: F403
from .sharp import *  # noqa: F403
from .spectral import *  # noqa: F403
from .vsh import *  # noqa: F403

_LAYERS = (eigensolver, flow, grid, legendre, sharp, spectral, vsh)
__all__ = ["__version__", *(name for layer in _LAYERS for name in layer.__all__)]
