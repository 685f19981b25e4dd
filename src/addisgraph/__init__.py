"""Online multiple testing with conflict-aware recycling graphs.

Error-rate control (FWER / PFER / FDR) for sequential hypothesis streams in
which each test may conflict with — share data or overlap in time with — a
set of earlier tests, so their outcomes cannot inform its level.  Provides
adaptive-discarding spending and graph procedures, their closed and
uniformly improved variants, a correlation-exploiting batch variant, an FDR
variant, independent verification oracles, a simulation harness, and a CLI.
"""

from .core import (
    ConditionReport,
    ConflictStructure,
    HypothesisRecord,
    Indicators,
    LedgerEntry,
    TrajectoryLedger,
    check_corr_condition,
    check_fdr_condition,
    check_fwer_condition,
    compute_indicators,
    validate_conflicts,
)
from .engines import (
    ENGINE_KINDS,
    ClosedGraph,
    ClosedSpending,
    FwerEngine,
    GraphConf,
    GraphConfU,
    SpendingLocal,
    make_engine,
)
from .errors import AddisGraphError
from .extensions import (
    AdaptiveGraphCorr,
    CorrModel,
    FdrGraph,
    alpha_c_gaussian,
    alpha_c_monte_carlo,
    rejection_memory,
)
from .gammas import GammaSpec
from .oracles import (
    BudgetFunction,
    brute_force_budget_check,
    closure_oracle,
    improvement_weight_oracle,
)
from .sim import MetricsRow, SimConfig, expand_grid, parse_grid_file, run_config, run_grid
from .stream import StreamSession
from .study import ReplayReport, ReplayStudy, replay_study
from .weights import (
    Alg1Columns,
    CustomTable,
    IncrementalRenormalizer,
    RenormalizedConflict,
    ShiftedGamma,
    WeightRule,
    algorithm1_weights,
    lemma1_base_weight,
    lemma1_row,
    renormalized_conflict_weights,
    spending_counters,
)

__version__ = "0.1.0"

__all__ = [
    "AddisGraphError",
    "AdaptiveGraphCorr",
    "Alg1Columns",
    "BudgetFunction",
    "ClosedGraph",
    "ClosedSpending",
    "ConditionReport",
    "ConflictStructure",
    "CorrModel",
    "CustomTable",
    "ENGINE_KINDS",
    "FdrGraph",
    "FwerEngine",
    "GammaSpec",
    "GraphConf",
    "GraphConfU",
    "HypothesisRecord",
    "Indicators",
    "IncrementalRenormalizer",
    "LedgerEntry",
    "MetricsRow",
    "RenormalizedConflict",
    "ReplayReport",
    "ReplayStudy",
    "ShiftedGamma",
    "SimConfig",
    "SpendingLocal",
    "StreamSession",
    "TrajectoryLedger",
    "WeightRule",
    "algorithm1_weights",
    "alpha_c_gaussian",
    "alpha_c_monte_carlo",
    "brute_force_budget_check",
    "check_corr_condition",
    "check_fdr_condition",
    "check_fwer_condition",
    "closure_oracle",
    "compute_indicators",
    "expand_grid",
    "improvement_weight_oracle",
    "lemma1_base_weight",
    "lemma1_row",
    "make_engine",
    "parse_grid_file",
    "renormalized_conflict_weights",
    "replay_study",
    "rejection_memory",
    "run_config",
    "run_grid",
    "spending_counters",
    "validate_conflicts",
]
