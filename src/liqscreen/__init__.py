"""Numerical toolkit for liquidity-screening contract design.

Solves optimal advance/contingent-pay contracts for a principal financing
a privately informed counterparty, compares the mixed contract against
pure-instrument benchmarks, propagates contract choices through a
portfolio of counterparties with complementarities, and verifies every
solver against brute-force grid oracles.
"""

from .errors import (
    BracketError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    LiqscreenError,
    SingularityError,
)
from .numerics import Bracket, Tolerance, find_root, fixed_point, integrate
from .economy import (
    EconomyPrimitives,
    FinancingCost,
    TypeDistribution,
    benchmark,
    economy_from_config,
    financing_cost,
    load_config,
    uniform,
    validate_economy,
    with_tightness,
)
from .bilateral import (
    BilateralSolution,
    Contract,
    MixedSolution,
    binding_ir_advance,
    closed_form_ell_star,
    crossing_threshold,
    pure_advance_value,
    pure_contingent_value,
    solve_mixed,
    solve_optimal,
    sweep_R,
)
from .oracle import (
    DiscreteMechanism,
    grid_search_optimal,
    ic_verify,
    mechanism_from_contract,
    rent_identity_check,
)
from .portfolio import (
    PortfolioEconomy,
    PortfolioSolution,
    contagion_derivative,
    contagion_share,
    contagion_threshold,
    hump_scan,
    make_portfolio,
    solve_cutoffs,
    symmetric_cutoff,
    symmetric_portfolio,
    uniform_subsidy_effect,
)
from .extensions import (
    BidFunction,
    MonitoringConfig,
    PosteriorState,
    dynamic_path,
    menu_equivalence_check,
    reduce_2d,
    solve_bid_function,
    solve_monitoring,
    solve_renegotiation,
)

__version__ = "0.1.0"

__all__ = [
    "BidFunction",
    "BilateralSolution",
    "Bracket",
    "BracketError",
    "Contract",
    "ConvergenceError",
    "DegeneracyError",
    "DiscreteMechanism",
    "DomainError",
    "EconomyPrimitives",
    "FinancingCost",
    "LiqscreenError",
    "MixedSolution",
    "MonitoringConfig",
    "PortfolioEconomy",
    "PortfolioSolution",
    "PosteriorState",
    "SingularityError",
    "Tolerance",
    "TypeDistribution",
    "benchmark",
    "binding_ir_advance",
    "closed_form_ell_star",
    "contagion_derivative",
    "contagion_share",
    "contagion_threshold",
    "crossing_threshold",
    "dynamic_path",
    "economy_from_config",
    "financing_cost",
    "find_root",
    "fixed_point",
    "grid_search_optimal",
    "hump_scan",
    "ic_verify",
    "integrate",
    "load_config",
    "make_portfolio",
    "mechanism_from_contract",
    "menu_equivalence_check",
    "pure_advance_value",
    "pure_contingent_value",
    "reduce_2d",
    "rent_identity_check",
    "solve_bid_function",
    "solve_cutoffs",
    "solve_mixed",
    "solve_monitoring",
    "solve_optimal",
    "solve_renegotiation",
    "sweep_R",
    "symmetric_cutoff",
    "symmetric_portfolio",
    "uniform",
    "uniform_subsidy_effect",
    "validate_economy",
    "with_tightness",
    "__version__",
]
