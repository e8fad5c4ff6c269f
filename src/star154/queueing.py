"""Finite-buffer M/M/1/K formulas for the MAC queue.

K equals the buffer capacity M and counts the frame in service. Time unit is
one symbol; arrival rate lambda is frames per symbol. The closed forms in
p**(M+1) are evaluated in three numeric regimes:

- near one: the forms have a removable singularity at utilization 1 where
  float evaluation loses all precision, so a narrow window around 1 is
  computed from the stationary weights directly; both routes agree to
  ~1e-10 at the seam.
- beyond float range: a long buffer under overload takes p**(M+1) past the
  largest float, so there the forms are rewritten in q = 1/p, whose powers
  can only underflow.
- everywhere else: the direct forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

_NEAR_ONE = 1e-6  # half-width of the stable-evaluation window around p = 1


@dataclass(frozen=True, slots=True)
class QueueStats:
    p: float  # utilization r*TVS/2L, may exceed 1
    p0: float  # probability the buffer is empty
    pM: float  # blocking probability (buffer full)
    Lq: float  # mean number of frames waiting (excludes the one in service)
    lambda_e: float  # effective (accepted) arrival rate, frames per symbol
    Wq: float  # mean wait in the queue, symbols


def utilization(r: float, L: int, TVS: float) -> float:
    """Offered load of the MAC queue: arrivals per mean service time."""
    if not 0.0 <= r < math.inf:  # NaN too
        raise ValueError(f"arrival rate must be finite and >= 0, got {r}")
    if not 0.0 < TVS < math.inf:
        raise ValueError(f"service time must be finite and positive, got {TVS}")
    if not L >= 1:
        raise ValueError(f"frame length must be >= 1, got {L}")
    return r * TVS / (2 * L)


def _weights(p: float, M: int) -> list[float]:
    w = [1.0]
    for _ in range(M):
        w.append(w[-1] * p)
    return w


def _direct_power(p: float, M: int) -> float | None:
    """p**(M+1) for the direct forms, or None where they leave float range.

    The largest term they take is (M+1) * p**(M+1), in queue_stats' Lq.
    """
    try:
        pK = p ** (M + 1)
    except OverflowError:
        return None
    return pK if (M + 1) * pK < math.inf else None


def empty_prob(p: float, M: int) -> float:
    if not 0.0 <= p < math.inf:  # NaN too; overload (p > 1) is valid
        raise ValueError(f"utilization must be finite and >= 0, got {p}")
    if M < 1:
        raise ValueError(f"capacity must be >= 1: {M}")
    if abs(p - 1.0) < _NEAR_ONE:
        return 1.0 / math.fsum(_weights(p, M))
    pK = _direct_power(p, M)
    if pK is not None:
        return (1.0 - p) / (1.0 - pK)
    q = 1.0 / p  # beyond float range: p > 1, so q < 1
    return q**M * (1.0 - q) / (1.0 - q ** (M + 1))


def queue_stats(p: float, M: int, lam: float) -> QueueStats:
    """All queue quantities at utilization p, capacity M, arrival rate lam."""
    if not 0.0 <= lam < math.inf:  # NaN too
        raise ValueError(f"arrival rate must be finite and >= 0, got {lam}")
    p0 = empty_prob(p, M)
    if abs(p - 1.0) < _NEAR_ONE:
        w = _weights(p, M)
        tot = math.fsum(w)
        pM = w[M] / tot
        Lq = math.fsum((n - 1) * w[n] for n in range(1, M + 1)) / tot
    elif (pK := _direct_power(p, M)) is not None:
        pM = (1.0 - p) * p**M / (1.0 - pK)
        Lq = p / (1.0 - p) - (M + 1) * pK / (1.0 - pK) - (1.0 - p0)
    else:  # beyond float range: the same forms in q = 1/p
        q = 1.0 / p
        tail = 1.0 - q ** (M + 1)
        pM = (1.0 - q) / tail
        Lq = p / (1.0 - p) + (M + 1) / tail - (1.0 - p0)
    if M == 1:
        # no waiting positions; rounding in the expressions must not leak
        Lq = 0.0
    else:
        Lq = max(Lq, 0.0)  # provably nonnegative; shed float noise near p=0
    lambda_e = lam * (1.0 - pM)
    Wq = 0.0 if lambda_e == 0.0 else Lq / lambda_e
    return QueueStats(p=p, p0=p0, pM=pM, Lq=Lq, lambda_e=lambda_e, Wq=Wq)
