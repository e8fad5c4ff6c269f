"""The checked public forms of one service's outcomes and delays, and the full report.

A service handles one frame: up to 5 CCAs per channel-access attempt and up
to 3 retransmissions after a collision. attempt_probs(a, k) is (PSuc, PAcc,
PColl): an attempt ends in success (acknowledged), access failure (five busy
CCAs) or collision. retry_probs spreads them over the 12 retry stages,
service_times(a, L) is (T1, T2, T3), and reliability and delays give PS, TS
and TVS. The chain itself lives in core, unchecked, where analytical's map
runs it too; the functions here check their inputs first.
"""
from __future__ import annotations

import math

from . import queueing  # a module, not names: a wrapper put on it counts report's calls
from .analytical import FixedPoint, throughput
from .core import (
    NetworkConfig, PerformanceReport, Source, TrafficMode, attempt_durations, attempt_terms,
    quiet_prob, retry_stages, service_chain, service_delays, stage_mass,
)

# lower bounds of the 12 retry stages: the stage-0 weights carry the paper's
# factor 1 - q - q^2 - q^3, which falls to -2 as PColl = q rises to 1
_STAGE_FLOOR = (-2.0, 0.0, 0.0, 0.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def service_times(a: float, L: int) -> tuple[float, float, float]:
    """(T1, T2, T3) at busy probability a and frame length L."""
    if not 0.0 <= a < 1.0:  # before the powers: a huge |a| would overflow them
        raise ValueError(f"a must be in [0,1): {a}")
    if not L >= 1:
        raise ValueError(f"frame length must be >= 1, got {L}")
    return attempt_durations((a, *attempt_terms(a, 1.0)[:4]), float(2 * L))  # k plays no part


def attempt_probs(a: float, k: float) -> tuple[float, float, float]:
    if not 0.0 <= a <= 1.0 or not 0.0 <= k <= 1.0:
        raise ValueError(f"probabilities out of range: a={a}, k={k}")
    return attempt_terms(a, k)[5:8]


def retry_probs(PSuc: float, PAcc: float, PColl: float) -> tuple[float, ...]:
    if not (0.0 <= PSuc <= 1.0 and 0.0 <= PAcc <= 1.0 and 0.0 <= PColl <= 1.0):
        raise ValueError(f"probabilities out of range: PSuc={PSuc}, PAcc={PAcc}, PColl={PColl}")
    return retry_stages(PSuc, PAcc, PColl, PColl**2, PColl**3)


def _check_stages(stages: tuple[float, ...]) -> None:
    if len(stages) != len(_STAGE_FLOOR):
        raise ValueError(f"need {len(_STAGE_FLOOR)} retry stages, got {len(stages)}")
    if not all(lo <= s <= 1.0 for lo, s in zip(_STAGE_FLOOR, stages)):  # NaN too
        raise ValueError(f"retry stages out of range: {stages}")


def reliability(stages: tuple[float, ...]) -> float:
    """Probability a frame entering service is eventually delivered."""
    _check_stages(stages)
    delivered, total = stage_mass(stages)
    return delivered / total


def delays(stages: tuple[float, ...], T1: float, T2: float, T3: float) -> tuple[float | None, float]:
    """Mean service delay of delivered frames (TS) and of all frames (TVS).

    TS is the conditional mean given delivery; it is None when delivery never
    happens. Both exclude queueing wait.
    """
    _check_stages(stages)
    if not (0.0 < T1 < math.inf and 0.0 < T2 < math.inf and 0.0 < T3 < math.inf):
        raise ValueError(f"durations must be finite and > 0, got T1={T1}, T2={T2}, T3={T3}")
    return service_delays(stages, T1, T2, T3)[1:]


def queue_adjusted(TS: float | None, TVS: float, Wq: float) -> tuple[float | None, float]:
    """Add mean queueing wait to the service delays (TS None when nothing is delivered)."""
    if not 0.0 <= Wq < math.inf:  # NaN too
        raise ValueError(f"wait must be finite and >= 0, got {Wq}")
    if not 0.0 < TVS < math.inf or not (TS is None or 0.0 < TS < math.inf):
        raise ValueError(f"service delays must be finite and > 0, got TS={TS}, TVS={TVS}")
    return (None if TS is None else TS + Wq), TVS + Wq


def report(cfg: NetworkConfig, fp: FixedPoint) -> PerformanceReport:
    """Full metric set for a converged fixed point."""
    if not fp.converged:
        raise ValueError("fixed point did not converge; no report")
    TH = throughput(fp.tau, cfg.N, cfg.L)  # checks tau, so k is in [0, 1]; the chain checks a
    k = quiet_prob(fp.tau, cfg.N)
    PS, TS, TVS = service_chain(fp.a, attempt_terms(fp.a, k), float(2 * cfg.L))
    TSW = TVSW = None
    if cfg.mode is TrafficMode.UNSATM:
        p = queueing.utilization(cfg.r, cfg.L, TVS)
        qs = queueing.queue_stats(p, cfg.M, cfg.r / (2 * cfg.L))
        TSW, TVSW = queue_adjusted(TS, TVS, qs.Wq)
    return PerformanceReport(
        tau=fp.tau, a=fp.a, TH=TH, PS=PS, TS=TS, TVS=TVS,
        TSW=TSW, TVSW=TVSW, source=Source.ANALYTICAL,
    )
