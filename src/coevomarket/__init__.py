"""Market sessions with minimal-intelligence and coevolving adaptive
traders on a limit order book, plus the analysis toolkit for their
strategy dynamics."""

from .analysis import (RecurrenceMatrix, RqaMetrics, StateSeries,
                       default_epsilon, recurrence_matrix, rqa_metrics,
                       surrogate_shuffle)
from .coevo import (QuiverField, detect_attractors, origin_plateau,
                    quiver_sample)
from .harness import (ConfigError, RosterEntry, Schedule, SessionConfig,
                      SessionResult, assign_customer_orders,
                      equilibrium_surplus, parse_session_config, run_session)
from .lob import (ASK, BID, Order, OrderBook, OrderRejected, PriceBounds,
                  Trade)
from .seeds import derive_seed
from .stgp import (EvalContext, GenParams, GenStats, Individual, Population,
                   canonicalize, crossover, eval_tree, format_tree,
                   parse_tree, point_mutate, quote_from_tree, run_experiment,
                   run_generation, select_parent)
from .traders import (AdaptiveClimber, CustomerOrder, PrziPmf, Strategy,
                      TraderState, format_strategy, gvwy_quote,
                      mutate_strategy, parse_strategy, przi_pmf, przi_quote,
                      shvr_quote, zic_quote)

__version__ = "0.1.0"
