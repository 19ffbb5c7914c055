"""Exact workbench for generating functionals of cocycles on finitely
presented group algebras and small star algebras with rewriting rules.

Everything is computed over Gaussian rationals, so every verdict is an
exact equality, never a float comparison.
"""

from .scalars import I, ONE, ZERO, Scalar, ScalarError, sc
from .linalg import (
    DimensionMismatch,
    HermitianForm,
    IndefiniteFormError,
    LinalgError,
    PsdResult,
    psd_check,
    standard_form,
)
from .presentations import (
    GROUP,
    STAR_ALGEBRA,
    AlgebraElement,
    LegNotInKernel,
    Presentation,
    PresentationError,
    ReductionBudgetExceeded,
    Tensor2,
    VanishOutcome,
    element_vanishes,
    k1_elements,
    kn_spanning_set,
)
from .cocycles import (
    Cochain2,
    Cocycle,
    CocycleObstructed,
    PhiV,
    Representation,
    RepresentationError,
    Violation,
    big_K,
    big_L,
    coboundary_cocycle,
    derivation_space,
    exponent_matrix,
    hochschild_boundary,
    hochschild_check_2cocycle,
    trivial_representation,
)
from .functionals import (
    GroupFunctional,
    NoNormalForm,
    OracleReport,
    SolveOutcome,
    StarFunctional,
    VerifyReport,
    brute_force_welldefinedness_oracle,
    build_normal_form,
    forced_real_parts,
    gns_truncated,
    is_gaussian_functional,
    recheck_solve_certificate,
    solve_generating_functional,
    verify_schurmann_triple,
)
from .decompose import (
    CHECKED_TRUE_FINITE,
    IMPLICATIONS,
    PAPER_CLAIM_FALSE,
    PAPER_CLAIM_TRUE,
    PROPERTIES,
    WITNESSED_FALSE,
    LkOutcome,
    PropertyReport,
    SplitResult,
    attempt_lk,
    check_diagram_consistency,
    invariant_closure,
    split,
)
from .scenarios import (
    ParseError,
    ScenarioError,
    SchemaError,
    Scenario,
    load_scenario,
    parse_scenario,
)
from . import catalog

__all__ = [
    "AlgebraElement", "CHECKED_TRUE_FINITE", "Cochain2", "Cocycle",
    "CocycleObstructed", "DimensionMismatch", "GROUP", "GroupFunctional",
    "HermitianForm", "I", "IMPLICATIONS", "IndefiniteFormError",
    "LegNotInKernel", "LinalgError", "LkOutcome", "NoNormalForm", "ONE",
    "OracleReport", "PAPER_CLAIM_FALSE", "PAPER_CLAIM_TRUE", "PROPERTIES",
    "ParseError", "PhiV", "Presentation", "PresentationError",
    "PropertyReport", "PsdResult", "ReductionBudgetExceeded",
    "Representation", "RepresentationError", "STAR_ALGEBRA", "Scalar",
    "ScalarError", "Scenario", "ScenarioError", "SchemaError",
    "SolveOutcome", "SplitResult", "StarFunctional", "Tensor2",
    "VanishOutcome", "VerifyReport", "Violation", "WITNESSED_FALSE",
    "ZERO", "attempt_lk", "big_K", "big_L", "brute_force_welldefinedness_oracle",
    "build_normal_form", "catalog", "check_diagram_consistency",
    "coboundary_cocycle", "derivation_space", "element_vanishes",
    "exponent_matrix", "forced_real_parts", "gns_truncated",
    "hochschild_boundary", "hochschild_check_2cocycle", "invariant_closure",
    "is_gaussian_functional", "k1_elements", "kn_spanning_set",
    "load_scenario", "parse_scenario", "psd_check",
    "recheck_solve_certificate", "sc", "solve_generating_functional",
    "split", "standard_form", "trivial_representation",
    "verify_schurmann_triple",
]
