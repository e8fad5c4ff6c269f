"""Per-service outcome probabilities and delay metrics from a converged (tau, a).

A service handles one frame: up to 5 CCAs per channel-access attempt and up
to 3 retransmissions after a collision. attempt_probs(a, k) is (PSuc, PAcc,
PColl): an attempt ends in success (acknowledged), access failure (five busy
CCAs) or collision. retry_probs spreads them over the stage i = 0..3 at which
a service ends, as one flat 12-tuple: PS[0..3] (delivered after i collisions),
PC[0..3] (access drop) and PF[0..3] (still colliding; PF[3] is the retry-limit
drop). service_times(a, L) is (T1, T2, T3), the mean attempt durations in
symbols: all mean backoffs + 5 CCAs, until the ACK ends, until the ACK timeout.
reliability and delays give PS, TS and TVS. The public functions check their
inputs; analytical._map's F and report() run the helpers unchecked.
"""
from __future__ import annotations

import math

from . import analytical, queueing  # modules, not names: analytical imports this one back
from .core import (
    RETRY_LIMIT,
    NetworkConfig,
    PerformanceReport,
    Source,
    T1_SYMBOLS,
    T2_COEFFS,
    T3_PRINTED_COEFFS,
    TrafficMode,
    attempt_terms,
    quiet_prob,
)

_T1 = float(T1_SYMBOLS)
# float copies of core's exact coefficients: a float * float term skips converting an int
_T2_COEFFS, _T3_COEFFS = tuple(map(float, T2_COEFFS)), tuple(map(float, T3_PRINTED_COEFFS))
_RETRY_LIMIT = float(RETRY_LIMIT)
# lower bounds of the 12 retry stages: the stage-0 weights carry the paper's
# factor 1 - q - q^2 - q^3, which falls to -2 as PColl = q rises to 1
_STAGE_FLOOR = (-2.0, 0.0, 0.0, 0.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _terms(a: float, k: float) -> tuple[float, ...]:
    """core.attempt_terms with a and k checked."""
    if not 0.0 <= a <= 1.0 or not 0.0 <= k <= 1.0:
        raise ValueError(f"probabilities out of range: a={a}, k={k}")
    return attempt_terms(a, k)


def _stages(PSuc: float, PAcc: float, q: float, q2: float, q3: float) -> tuple[float, ...]:
    """The flat retry stages from the outcomes and the powers of PColl = q."""
    # stage-0 weight: complement of ending at stages 1..3 instead
    head = 1.0 - q - q2 - q3
    return (
        head * PSuc, q * PSuc, q2 * PSuc, q3 * PSuc,
        head * PAcc, q * PAcc, q2 * PAcc, q3 * PAcc,
        q, q2, q3, q**_RETRY_LIMIT,
    )


def _attempt_duration(c, powers, one: float, frame: float) -> float:
    c0, c1, c2, c3, c4, c5 = c
    a, a2, a3, a4, a5 = powers
    return (c0 + c1 * a + c2 * a2 + c3 * a3 + c4 * a4 - c5 * a5 + frame * one) / one


def _durations(powers: tuple[float, ...], frame: float) -> tuple[float, float, float]:
    """T1, T2 and T3 from the powers (a, a^2, a^3, a^4, a^5) and frame = float(2 * L)."""
    a = powers[0]
    if not 0.0 <= a < 1.0:
        raise ValueError(f"a must be in [0,1): {a}")
    one = 1.0 - powers[4]
    return (
        _T1,
        _attempt_duration(_T2_COEFFS, powers, one, frame),
        _attempt_duration(_T3_COEFFS, powers, one, frame),
    )


def _mass(stages: tuple[float, ...]) -> tuple[float, float]:
    """Probability of delivery and of any service outcome, summed in stage order."""
    s0, s1, s2, s3, c0, c1, c2, c3, _, _, _, drop = stages
    delivered = s0 + s1 + s2 + s3
    total = delivered + (c0 + c1 + c2 + c3) + drop
    if total == 0.0:
        raise ValueError("no service outcome has positive probability")
    return delivered, total


def _delays(
    stages: tuple[float, ...], T1: float, T2: float, T3: float
) -> tuple[float, float | None, float]:
    """PS, TS and TVS from the flat retry stages and the attempt durations.

    A service ending at stage i spent i collided attempts (T3 each) before
    its final attempt; a frame dropped at the retry limit spent RETRY_LIMIT.
    """
    delivered, total = _mass(stages)
    s0, s1, s2, s3, c0, c1, c2, c3, _, _, _, drop = stages
    PS = delivered / total
    # stage i costs i * T3 before its last attempt; summed in stage order
    ts_num = s0 * T2 + s1 * (T3 + T2) + s2 * (2.0 * T3 + T2) + s3 * (3.0 * T3 + T2)
    TS = None if PS == 0.0 else ts_num / delivered
    tvs_num = (
        c0 * T1 + c1 * (T3 + T1) + c2 * (2.0 * T3 + T1) + c3 * (3.0 * T3 + T1)
        + ts_num
        + _RETRY_LIMIT * drop * T3
    )
    return PS, TS, tvs_num / total


def _service_from(
    a: float, terms: tuple[float, ...], frame: float
) -> tuple[float, float | None, float]:
    """PS, TS and TVS at busy probability a and frame = float(2 * L), from attempt_terms(a, k)."""
    a2, a3, a4, a5, _, PSuc, PAcc, q, q2, q3 = terms
    return _delays(_stages(PSuc, PAcc, q, q2, q3), *_durations((a, a2, a3, a4, a5), frame))


def _service(a: float, k: float, L: int) -> tuple[float, float | None, float]:
    """PS, TS and TVS at busy probability a, quiet probability k and frame length L."""
    return _service_from(a, _terms(a, k), float(2 * L))


def service_times(a: float, L: int) -> tuple[float, float, float]:
    """(T1, T2, T3) at busy probability a and frame length L."""
    if not 0.0 <= a < 1.0:  # before the powers: a huge |a| would overflow them
        raise ValueError(f"a must be in [0,1): {a}")
    if not L >= 1:
        raise ValueError(f"frame length must be >= 1, got {L}")
    return _durations((a, *attempt_terms(a, 1.0)[:4]), float(2 * L))  # k plays no part


def attempt_probs(a: float, k: float) -> tuple[float, float, float]:
    return _terms(a, k)[5:8]


def retry_probs(PSuc: float, PAcc: float, PColl: float) -> tuple[float, ...]:
    if not (0.0 <= PSuc <= 1.0 and 0.0 <= PAcc <= 1.0 and 0.0 <= PColl <= 1.0):
        raise ValueError(f"probabilities out of range: PSuc={PSuc}, PAcc={PAcc}, PColl={PColl}")
    return _stages(PSuc, PAcc, PColl, PColl**2, PColl**3)


def _check_stages(stages: tuple[float, ...]) -> None:
    if len(stages) != len(_STAGE_FLOOR):
        raise ValueError(f"need {len(_STAGE_FLOOR)} retry stages, got {len(stages)}")
    if not all(lo <= s <= 1.0 for lo, s in zip(_STAGE_FLOOR, stages)):  # NaN too
        raise ValueError(f"retry stages out of range: {stages}")


def reliability(stages: tuple[float, ...]) -> float:
    """Probability a frame entering service is eventually delivered."""
    _check_stages(stages)
    delivered, total = _mass(stages)
    return delivered / total


def delays(stages: tuple[float, ...], T1: float, T2: float, T3: float) -> tuple[float | None, float]:
    """Mean service delay of delivered frames (TS) and of all frames (TVS).

    TS is the conditional mean given delivery; it is None when delivery never
    happens. Both exclude queueing wait.
    """
    _check_stages(stages)
    if not (0.0 < T1 < math.inf and 0.0 < T2 < math.inf and 0.0 < T3 < math.inf):
        raise ValueError(f"durations must be finite and > 0, got T1={T1}, T2={T2}, T3={T3}")
    return _delays(stages, T1, T2, T3)[1:]


def queue_adjusted(TS: float | None, TVS: float, Wq: float) -> tuple[float | None, float]:
    """Add mean queueing wait to the service delays (TS None when nothing is delivered)."""
    if not 0.0 <= Wq < math.inf:  # NaN too
        raise ValueError(f"wait must be finite and >= 0, got {Wq}")
    if not 0.0 < TVS < math.inf or not (TS is None or 0.0 < TS < math.inf):
        raise ValueError(f"service delays must be finite and > 0, got TS={TS}, TVS={TVS}")
    return (None if TS is None else TS + Wq), TVS + Wq


def report(cfg: NetworkConfig, fp: analytical.FixedPoint) -> PerformanceReport:
    """Full metric set for a converged fixed point."""
    if not fp.converged:
        raise ValueError("fixed point did not converge; no report")
    PS, TS, TVS = _service(fp.a, quiet_prob(fp.tau, cfg.N), cfg.L)
    TH = analytical.throughput(fp.tau, cfg.N, cfg.L)
    TSW = TVSW = None
    if cfg.mode is TrafficMode.UNSATM:
        p = queueing.utilization(cfg.r, cfg.L, TVS)
        qs = queueing.queue_stats(p, cfg.M, cfg.r / (2 * cfg.L))
        TSW, TVSW = queue_adjusted(TS, TVS, qs.Wq)
    return PerformanceReport(
        tau=fp.tau, a=fp.a, TH=TH, PS=PS, TS=TS, TVS=TVS,
        TSW=TSW, TVSW=TVSW, source=Source.ANALYTICAL,
    )
