"""matchbook: matching markets as limit order books.

A deterministic simulation engine for two-sided matching modeled with
market-microstructure primitives: internal bid-ask spreads over candidate
books, clipped-linear compensation, threshold-decay execution, post-match
repricing shocks, population scarcity geometry, and dual-sided clearing
checks.
"""

from .book import (
    BestBid,
    BookMetrics,
    CandidateEntry,
    LiquidityStatus,
    PreferenceBook,
    book_from_csv,
    book_from_json,
    book_to_csv,
    book_to_json,
)
from .dual import (
    Counterparty,
    MatchOutcome,
    MatchResult,
    effective_compensation_cap,
    outcomes_to_csv,
    triple_coincidence,
)
from .dynamics import (
    DecaySchedule,
    Decision,
    DecisionRecord,
    SETTLING_TABLE,
    TableSchedule,
    ThresholdSchedule,
    apply_shock,
    decide,
    impulse_adjust,
    lock_in_threshold,
    records_to_csv,
    reprice,
    step,
)
from .errors import InvalidConfig, NoLiquidity
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    run_appendix_a,
    run_exp1,
    run_exp2,
    run_exp3,
    run_exp4,
    run_exp5,
    run_schedule,
    run_sweep,
)
from .population import (
    BUCKET_PRESSURE,
    Bucket,
    DensityProfile,
    PopulationConfig,
    classify_bucket,
    cone_volume,
    generate,
)
from .valuation import (
    INFEASIBLE,
    CompensationRule,
    Money,
    Valuation,
    compensation_utility,
    effective_utility,
    market_to_book,
    required_transfer,
    slippage,
    spread,
)

__version__ = "0.1.0"
