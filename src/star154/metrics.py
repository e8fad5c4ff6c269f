"""Per-service outcome probabilities and delay metrics from a converged (tau, a).

A service handles one frame: up to 5 CCAs per channel-access attempt and up
to 3 retransmissions after a collision. Each attempt ends one of three ways:
success (acknowledged), access failure (five busy CCAs), or collision.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import analytical, queueing  # modules, not names: analytical imports this one back
from .core import (
    NetworkConfig,
    PerformanceReport,
    Source,
    T1_SYMBOLS,
    T2_COEFFS,
    TrafficMode,
    derived_probs,
)

# T3 with the coefficients the paper prints. They do not telescope like
# T2_COEFFS: at a = 1 the numerator is 48, not 0.
T3_PRINTED_COEFFS = (144, 170, 330, 330, 330, 1256)


@dataclass(frozen=True, slots=True)
class ServiceTimes:
    """Mean duration in symbols of one attempt, by outcome.

    T1: frame discarded after five busy CCAs (all mean backoffs + 5 CCAs).
    T2: successful attempt, ends when the ACK finishes.
    T3: collided attempt, ends when the ACK timeout expires.
    """

    T1: float
    T2: float
    T3: float


@dataclass(frozen=True, slots=True)
class AttemptProbs:
    """Outcome probabilities of a single channel-access attempt."""

    PSuc: float
    PAcc: float  # access failure: five busy CCAs in a row
    PColl: float


@dataclass(frozen=True, slots=True)
class RetryProbs:
    """Joint probabilities over the retry stage i = 0..3 at which a service ends.

    PS[i]: delivered at stage i after i collisions.
    PC[i]: access-failure drop at stage i.
    PF[i]: still colliding at stage i (PF[3] is the retry-limit drop).
    """

    PS: tuple[float, float, float, float]
    PC: tuple[float, float, float, float]
    PF: tuple[float, float, float, float]


def _attempt_duration(c, powers, one: float, L: int) -> float:
    c0, c1, c2, c3, c4, c5 = c
    a, a2, a3, a4, a5 = powers
    return (c0 + c1 * a + c2 * a2 + c3 * a3 + c4 * a4 - c5 * a5 + 2 * L * one) / one


def service_times(a: float, L: int) -> ServiceTimes:
    """Mean attempt durations at busy probability a and frame length L."""
    if not 0.0 <= a < 1.0:
        raise ValueError(f"a must be in [0,1): {a}")
    powers = (a, a**2, a**3, a**4, a**5)
    one = 1.0 - powers[4]
    return ServiceTimes(
        T1=float(T1_SYMBOLS),
        T2=_attempt_duration(T2_COEFFS, powers, one, L),
        T3=_attempt_duration(T3_PRINTED_COEFFS, powers, one, L),
    )


def attempt_probs(a: float, k: float) -> AttemptProbs:
    if not 0.0 <= a <= 1.0 or not 0.0 <= k <= 1.0:
        raise ValueError(f"probabilities out of range: a={a}, k={k}")
    a5 = a**5
    k26 = k**26
    return AttemptProbs(PSuc=(1.0 - a5) * k26, PAcc=a5, PColl=(1.0 - a5) * (1.0 - k26))


def retry_probs(ap: AttemptProbs) -> RetryProbs:
    q = ap.PColl
    q2, q3 = q**2, q**3
    # stage-0 weight: complement of ending at stages 1..3 instead
    head = 1.0 - q - q2 - q3
    return RetryProbs(
        PS=(head * ap.PSuc, q * ap.PSuc, q2 * ap.PSuc, q3 * ap.PSuc),
        PC=(head * ap.PAcc, q * ap.PAcc, q2 * ap.PAcc, q3 * ap.PAcc),
        PF=(q, q2, q3, q**4),
    )


def reliability(rp: RetryProbs) -> float:
    """Probability a frame entering service is eventually delivered."""
    delivered = sum(rp.PS)
    return _delivered_share(delivered, delivered + sum(rp.PC) + rp.PF[3])


def _delivered_share(delivered: float, total: float) -> float:
    if total == 0.0:
        raise ValueError("no service outcome has positive probability")
    return delivered / total


def delays(
    rp: RetryProbs, st: ServiceTimes, PS: float | None = None
) -> tuple[float | None, float]:
    """Mean service delay of delivered frames (TS) and of all frames (TVS).

    A service ending at stage i spent i collided attempts (T3 each) before
    its final attempt; a frame dropped at the retry limit spent 4. TS is the
    conditional mean given delivery; it is None when delivery never happens.
    Both exclude queueing wait.
    """
    ps_total = sum(rp.PS)
    drop = rp.PF[3]
    total = ps_total + sum(rp.PC) + drop
    if PS is None:
        PS = _delivered_share(ps_total, total)
    T1, T2, T3 = st.T1, st.T2, st.T3
    s0, s1, s2, s3 = rp.PS
    c0, c1, c2, c3 = rp.PC
    # stage i costs i * T3 before its last attempt; summed in stage order
    ts_num = s0 * T2 + s1 * (T3 + T2) + s2 * (2 * T3 + T2) + s3 * (3 * T3 + T2)
    TS = None if PS == 0.0 else ts_num / ps_total
    tvs_num = (
        c0 * T1 + c1 * (T3 + T1) + c2 * (2 * T3 + T1) + c3 * (3 * T3 + T1)
        + ts_num
        + 4 * drop * T3
    )
    TVS = tvs_num / total
    return TS, TVS


def queue_adjusted(
    TS: float | None, TVS: float, Wq: float
) -> tuple[float | None, float]:
    """Add mean queueing wait to the service delays."""
    if Wq < 0:
        raise ValueError(f"negative wait: {Wq}")
    return (None if TS is None else TS + Wq), TVS + Wq


def report(cfg: NetworkConfig, fp: analytical.FixedPoint) -> PerformanceReport:
    """Full metric set for a converged fixed point."""
    if not fp.converged:
        raise ValueError("fixed point did not converge; no report")
    probs = derived_probs(fp.tau, fp.a, cfg.N, cfg.L)
    st = service_times(fp.a, cfg.L)
    rp = retry_probs(attempt_probs(fp.a, probs.k))
    PS = reliability(rp)
    TS, TVS = delays(rp, st, PS)
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
