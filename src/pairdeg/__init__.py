"""Degeneracy atlas for complex-coupled multi-level pairing Hamiltonians.

Builds seniority-zero pairing models H(g) = T + g*(P + gamma*Q), locates every
eigenvalue degeneracy in the complex coupling plane through the discriminant
polynomial, classifies each one (exceptional point, diabolic point, or the
double-root degeneracy formed by two merged exceptional points), and
quantifies monodromy, geometric phases and pairing-energy divergences around
them.
"""

from .atlas import (DegeneracyPoint, GammaTrajectory, Kind, MergeEvent,
                    classify, classify_all, pair_truncation_family, sweep_gamma)
from .discriminant import (DegeneracyRoot, DiscriminantPoly, char_poly,
                           discriminant_at, discriminant_grid,
                           discriminant_poly, find_degeneracies)
from .errors import (ConfigError, CutError, EigensolverError, FitRejectedError,
                     InterpolationError, InvalidModelError, LoopError,
                     MatchingAmbiguityError, PairdegError,
                     SelfOrthogonalityError, VanishingDiscriminantError)
from .model import (LevelSpec, MatrixFamily, ModelSpec, OperatorMatrices,
                    build_operator_matrices, enumerate_basis, hamiltonian_at)
from .monodromy import LoopSpec, LoopTrace, RestoreResult, restore_count, trace_loop
from .observables import (CoefficientTable, EigenbasisOperator, PairingCut,
                          PowerLawFit, coefficient_extract, fit_power_law,
                          ladder_spectra, operator_in_eigenbasis,
                          pairing_energy_cut)
from .spectra import (CutTable, Matching, Spectrum, branch_slopes, c_normalize,
                      canonical_order, continue_spectrum, eigendecompose,
                      match_states, spectrum_along)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LevelSpec", "ModelSpec", "OperatorMatrices", "MatrixFamily",
    "enumerate_basis", "build_operator_matrices", "hamiltonian_at",
    "Spectrum", "CutTable", "Matching", "eigendecompose", "c_normalize",
    "match_states", "continue_spectrum", "spectrum_along", "branch_slopes",
    "canonical_order",
    "char_poly", "discriminant_at", "discriminant_poly", "DiscriminantPoly",
    "DegeneracyRoot", "find_degeneracies", "discriminant_grid",
    "Kind", "DegeneracyPoint", "classify", "classify_all", "sweep_gamma",
    "GammaTrajectory", "MergeEvent", "pair_truncation_family",
    "LoopSpec", "LoopTrace", "trace_loop", "restore_count", "RestoreResult",
    "EigenbasisOperator", "operator_in_eigenbasis", "PairingCut",
    "pairing_energy_cut", "PowerLawFit", "fit_power_law", "CoefficientTable",
    "coefficient_extract", "ladder_spectra",
    "PairdegError", "InvalidModelError", "EigensolverError",
    "MatchingAmbiguityError", "InterpolationError", "LoopError",
    "SelfOrthogonalityError", "FitRejectedError", "ConfigError", "CutError",
    "VanishingDiscriminantError",
]
