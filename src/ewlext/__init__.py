"""Quantum extensions of 2x2 games with finite unitary strategy sets:
construction, isomorphism-invariance verification, exact extension
bimatrices for the permissible families, and Nash equilibrium solving.

Every moded function computes in one of two modes: 'exact' (the default)
returns Fraction and Q2 values in Q(sqrt(2)) and raises ExactnessError
where a value would leave it; 'float' computes in doubles.  Any other mode
raises ValueError.  The package uses the standard library only.
"""

from .equivalence import are_equivalent, partition
from .errors import (
    DimensionMismatchError,
    DomainError,
    EwlError,
    ExactnessError,
    InvalidClassParams,
    NotDiscreteError,
    ToleranceError,
)
from .exactnum import Angle, Q2, exact_cos
from .extensions import (
    ClassId,
    ClassParams,
    enumerate_discrete_solutions,
    extension_matrix,
    limit_check,
    strategy_set,
)
from .invariance import (
    ExtendedGame,
    IsoVariant,
    build_extended_game,
    criterion_holds,
    iso_variant,
    block_combination_invariant,
    strongly_isomorphic,
    verify_invariance_end_to_end,
)
from .nash import (
    Equilibrium,
    EquilibriumReport,
    MixedProfile,
    best_response_values,
    mixed_equilibria,
    pure_equilibria,
    verify_equilibrium,
)
from .payoff import (
    Bimatrix2,
    CoefficientVector,
    PayoffPair,
    PRISONERS_DILEMMA,
    coefficients,
    payoff_closed_form,
    payoff_oracle,
)
from .solver import LatticeSpec, SearchResult, check_relations, search_solutions
from .su2 import IDENTITY, IX, StrategyParams, canonicalize, phi

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "Bimatrix2",
    "ClassId",
    "ClassParams",
    "CoefficientVector",
    "DimensionMismatchError",
    "DomainError",
    "Equilibrium",
    "EquilibriumReport",
    "EwlError",
    "ExactnessError",
    "ExtendedGame",
    "IDENTITY",
    "IX",
    "InvalidClassParams",
    "IsoVariant",
    "LatticeSpec",
    "MixedProfile",
    "NotDiscreteError",
    "PRISONERS_DILEMMA",
    "PayoffPair",
    "Q2",
    "SearchResult",
    "StrategyParams",
    "ToleranceError",
    "are_equivalent",
    "best_response_values",
    "build_extended_game",
    "canonicalize",
    "check_relations",
    "coefficients",
    "criterion_holds",
    "enumerate_discrete_solutions",
    "exact_cos",
    "extension_matrix",
    "iso_variant",
    "block_combination_invariant",
    "limit_check",
    "mixed_equilibria",
    "partition",
    "payoff_closed_form",
    "payoff_oracle",
    "phi",
    "pure_equilibria",
    "search_solutions",
    "strategy_set",
    "strongly_isomorphic",
    "verify_equilibrium",
    "verify_invariance_end_to_end",
]
