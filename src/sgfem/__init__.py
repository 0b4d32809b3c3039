"""Stochastic Galerkin FEM solver toolkit.

Solves the diffusion equation with a lognormal random coefficient by a
Galerkin projection onto a Hermite polynomial chaos basis, and provides
hierarchical, Gauss-Seidel, Kronecker and mean-based preconditioners for
the resulting coupled linear system.

The package exports the three solve entry points (``build_problem``,
``make_preconditioner``, ``flexible_cg``) and the pipeline steps that
``build_problem`` chains, so the system can be rebuilt by hand.  Every
other name lives in its submodule.
"""

from .chaos import build_c_tensor
from .experiments import build_problem
from .fem import apply_dirichlet, assemble_load, build_mesh
from .galerkin import (
    GalerkinOperator,
    adaptive_truncation,
    standard_truncation,
)
from .krylov import flexible_cg
from .preconditioners import make_preconditioner
from .random_field import (
    ExponentialCovariance,
    discrete_kl,
    field_parameters,
    gpc_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    # the solve entry points
    "build_problem", "make_preconditioner", "flexible_cg",
    # the pipeline build_problem chains
    "build_mesh", "field_parameters", "ExponentialCovariance", "discrete_kl",
    "build_c_tensor", "gpc_coefficients", "GalerkinOperator",
    "assemble_load", "apply_dirichlet", "standard_truncation",
    "adaptive_truncation",
    "__version__",
]
