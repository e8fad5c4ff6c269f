"""Performance toolkit for non-beacon IEEE 802.15.4 star networks.

Three independent routes to the same metrics: closed-form fixed-point
analysis, mini-slot Monte Carlo simulation, and a learned inverse predictor.
"""
from .core import (
    CONSTANTS,
    ElementaryProbs,
    NetworkConfig,
    PerformanceReport,
    ProtocolConstants,
    Source,
    T1_SYMBOLS,
    TrafficMode,
    derived_probs,
)
from .analytical import (
    ChannelStationaryDistribution,
    FixedPoint,
    NonConvergenceError,
    SolverSettings,
    a_from_tau,
    channel_stationary,
    solve,
    tau_update,
    throughput,
)
from .metrics import (
    AttemptProbs,
    RetryProbs,
    ServiceTimes,
    attempt_probs,
    delays,
    queue_adjusted,
    reliability,
    report,
    retry_probs,
    service_times,
)
from .queueing import QueueStats, empty_prob, queue_stats, utilization
from .simulator import SimConfig, SimCounters, run, run_replication, trace

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "T1_SYMBOLS",
    "AttemptProbs",
    "ChannelStationaryDistribution",
    "ElementaryProbs",
    "FixedPoint",
    "NetworkConfig",
    "NonConvergenceError",
    "PerformanceReport",
    "ProtocolConstants",
    "QueueStats",
    "RetryProbs",
    "ServiceTimes",
    "SimConfig",
    "SimCounters",
    "SolverSettings",
    "Source",
    "TrafficMode",
    "a_from_tau",
    "attempt_probs",
    "channel_stationary",
    "delays",
    "derived_probs",
    "empty_prob",
    "queue_adjusted",
    "queue_stats",
    "reliability",
    "report",
    "retry_probs",
    "run",
    "run_replication",
    "service_times",
    "solve",
    "tau_update",
    "throughput",
    "trace",
    "utilization",
]
