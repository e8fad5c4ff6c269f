"""Performance toolkit for non-beacon IEEE 802.15.4 star networks.

Three independent routes to the same metrics: closed-form fixed-point
analysis, mini-slot Monte Carlo simulation, and a learned inverse predictor.

Importing the package loads none of its modules: each public name below is
imported from its module on first access (PEP 562).
"""
import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE_OF = {
    **dict.fromkeys((
        "CONSTANTS", "T1_SYMBOLS", "NetworkConfig", "PerformanceReport", "ProtocolConstants",
        "Source", "TrafficMode",
    ), "core"),
    **dict.fromkeys((
        "ChannelStationaryDistribution", "FixedPoint", "NonConvergenceError", "SolverSettings",
        "a_from_tau", "channel_stationary", "solve", "tau_update", "throughput",
    ), "analytical"),
    **dict.fromkeys((
        "attempt_probs", "delays", "queue_adjusted", "reliability", "report", "retry_probs",
        "service_times",
    ), "metrics"),
    **dict.fromkeys(("QueueStats", "empty_prob", "queue_stats", "utilization"), "queueing"),
    **dict.fromkeys(("SimConfig", "SimCounters", "run", "run_replication", "trace"), "simulator"),
}

__all__ = list(_SUBMODULE_OF)


def __getattr__(name: str):
    try:
        module = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
