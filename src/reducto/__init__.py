"""reducto: SAT solving as a one-player game over self-reduction moves."""

from .core import (
    LiftIntegrityError,
    Path,
    SelfReduction,
    Setup,
    SolveAnswer,
    UnknownReductionError,
    enumerate_moves,
    lift_solution,
    verify_path,
)
from .dimacs import DimacsError, DimacsWarning, emit_dimacs, parse_dimacs
from .driver import RunReport, SETUP_NAMES, make_setup, random_ksat, solve
from .learner import (
    DeltaStore,
    LinearEvaluator,
    ParamStore,
    ParamVersionError,
    TrainDivergedError,
    featurize,
    init_params,
    load_params,
    save_params,
)
from .portfolio import ExternalMember, MemberFailure, portfolio_setup
from .sat import (
    Assignment,
    BOTTOM,
    Formula,
    OracleLimitError,
    OracleVerdict,
    TOP,
    assignment,
    clause,
    easy_all_positive,
    easy_combined,
    easy_trivial,
    oracle_solve,
    satisfies,
)
from .search import QualityData, SearchConfig, SearchResult, ams_search

__version__ = "0.1.0"
