"""Online multiple testing with conflict-aware recycling graphs.

Error-rate control (FWER / PFER / FDR) for sequential hypothesis streams in
which each test may conflict with — share data or overlap in time with — a
set of earlier tests, so their outcomes cannot inform its level.  Provides
adaptive-discarding spending and graph procedures, their closed and
uniformly improved variants, a correlation-exploiting batch variant, an FDR
variant, independent verification oracles, a simulation harness, and a CLI.
"""

from .core import ConflictStructure, check_corr_condition, check_fdr_condition, check_fwer_condition
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
from .extensions import AdaptiveGraphCorr, CorrModel, FdrGraph
from .gammas import GammaSpec
from .oracles import (
    BudgetFunction,
    brute_force_budget_check,
    closure_oracle,
    improvement_weight_oracle,
)
from .sim import SimConfig, parse_grid_file, run_grid
from .stream import StreamSession
from .study import ReplayStudy, replay_study
from .weights import CustomTable

__version__ = "0.1.0"

# What a user needs; everything else stays importable from its module.
__all__ = [
    "AddisGraphError",
    "AdaptiveGraphCorr",
    "BudgetFunction",
    "ClosedGraph",
    "ClosedSpending",
    "ConflictStructure",
    "CorrModel",
    "CustomTable",
    "ENGINE_KINDS",
    "FdrGraph",
    "FwerEngine",
    "GammaSpec",
    "GraphConf",
    "GraphConfU",
    "ReplayStudy",
    "SimConfig",
    "SpendingLocal",
    "StreamSession",
    "brute_force_budget_check",
    "check_corr_condition",
    "check_fdr_condition",
    "check_fwer_condition",
    "closure_oracle",
    "improvement_weight_oracle",
    "make_engine",
    "parse_grid_file",
    "replay_study",
    "run_grid",
]
