"""kappahopf: exact symbolic engine for the kappa-deformed Poincare algebra,
its two cross-product phase spaces, and the deformed uncertainty relations."""

from .elements import Gen, Monomial, Element
from .errors import (
    DivisionByZeroError,
    IncompleteStateError,
    KappaHopfError,
    NonTerminationError,
    ParameterError,
    PairingError,
    ParseError,
    ResourceLimitError,
    SectorError,
)
from .hopf import (
    TensorElement,
    antipode,
    casimir,
    check_antipode_axiom,
    check_centrality,
    check_coassociativity,
    check_coproduct_homomorphism,
    check_counit_axiom,
    check_jacobi,
    coproduct,
    counit,
    tensor_multiply,
)
from .crossproduct import (
    Convention,
    PairingContext,
    basis_map_check,
    canonical_limit_table,
    cross_commutator,
    cross_multiply,
    derive_phase_space_relations,
    derived_relation_elements,
    left_action,
    pair,
)
from .grammar import eval_text, evaluate, parse
from .kinematics import (
    BoundSet,
    ExpectationAssignment,
    KinematicParams,
    bounds_bicross,
    bounds_standard,
    check_mass_shell,
    mass_shell_exp,
    modified_bound,
    nonrel_bound,
    nonrel_chain,
    robertson_bound,
    sqrt_bound_estimate,
)
from .presets import (
    AlgebraPreset,
    Basis,
    Sector,
    classical_limit,
    get_preset,
)
from .scalars import GaussianRational, Scalar

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
