"""Numerical separation of variables for spectral-curve integrable systems.

From a Lax matrix the package computes spectral curves, Hamiltonians and
Casimirs, separating divisor coordinates, multi-Hamiltonian Poisson brackets,
isospectral flows and linearizing Abelian-integral coordinates, both for
matrix polynomials on the rational base and for quasi-periodic matrices on an
elliptic curve.
"""

from .elliptic import (EllipticDivisor, EllipticLax, assemble_lax, build_basis,
                       elliptic_divisor_coords, slr_reduce, spectral_invariants)
from .numeric import PathSpec, integrate_path, ode_solve
from .rational import (BracketSpec, DivisorCoords, MatPoly, SpectralCurve,
                       bracket, casimir_detect, divisor_coords, flow, genus,
                       random_instance, spectral_curve, structure_tensor,
                       verify_canonical)
from .theta import (SectionTracker, ThetaParams, f_component, f_vector, i_matrices,
                    riemann_theta, theta_kj, xi_kj)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

__all__ = [
    "BracketSpec", "DEFAULT", "DivisorCoords", "EllipticDivisor", "EllipticLax",
    "MatPoly", "PathSpec", "SectionTracker", "SpectralCurve", "ThetaParams",
    "Tolerances", "assemble_lax", "bracket", "build_basis", "casimir_detect",
    "divisor_coords", "elliptic_divisor_coords", "f_component", "f_vector", "flow",
    "genus", "i_matrices", "integrate_path",
    "ode_solve", "random_instance", "riemann_theta", "slr_reduce",
    "spectral_curve", "spectral_invariants", "structure_tensor", "theta_kj",
    "verify_canonical", "xi_kj",
]
