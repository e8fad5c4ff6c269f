"""Domain types and protocol constants shared by every other module, and the
closed forms of one node's attempt and service that the analytical fixed point
and metrics both run.

Time unit everywhere is one symbol (16 us); one mini-slot = 1 symbol, and
one backoff period = 20 symbols. Frame payload of L bytes occupies 2L symbols
on air at 250 kb/s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class TrafficMode(str, Enum):
    """Traffic regime of the network under study."""

    UNSAT1 = "unsat1"  # Bernoulli arrivals, single-frame MAC buffer
    UNSATM = "unsatm"  # Bernoulli arrivals, M-frame MAC buffer
    SATURATED = "sat"  # a frame is always waiting; arrival rate irrelevant

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class ProtocolConstants:
    """Unslotted CSMA/CA constants for non-beacon operation with ACKs.

    The only place protocol timing is written down. Durations are integer
    symbol counts.
    """

    macMinBE: int = 3
    aMaxBE: int = 5
    macMaxCSMABackoffs: int = 4
    aMaxFrameRetries: int = 3
    macAckWaitDuration: int = 54  # symbols from data end to ACK timeout
    aTurnaroundTime: int = 12  # RX->TX switch, symbols
    tAck: int = 20  # gap between data end and ACK start, symbols
    ackFrameSymbols: int = 22
    ccaSymbols: int = 8
    unitBackoffPeriod: int = 20
    symbolDurationMicroseconds: float = 16.0

    @property
    def backoffWindows(self) -> tuple[int, ...]:
        """w_i = 2^min(macMinBE + i, aMaxBE) backoff periods for CCA stage i."""
        return tuple(
            2 ** min(self.macMinBE + i, self.aMaxBE)
            for i in range(self.macMaxCSMABackoffs + 1)
        )

    @property
    def meanBackoffs(self) -> tuple[int, ...]:
        """Mean backoff delay of each stage in symbols: (w_i - 1) / 2 periods.

        Exact integers because w_i - 1 is odd and unitBackoffPeriod is even.
        """
        return tuple((w - 1) * self.unitBackoffPeriod // 2 for w in self.backoffWindows)


CONSTANTS = ProtocolConstants()

# Node-side durations in symbols. CCA stage i costs its mean backoff plus one
# CCA; a clean CCA is followed by the turnaround, the 2L-symbol frame and a
# tail: ACK gap plus ACK on success, the ACK timeout on collision.
ATTEMPT_STEPS = tuple(b + CONSTANTS.ccaSymbols for b in CONSTANTS.meanBackoffs)
T1_SYMBOLS = sum(ATTEMPT_STEPS)  # a frame dropped after five busy CCAs
SUCCESS_TAIL = CONSTANTS.aTurnaroundTime + CONSTANTS.tAck + CONSTANTS.ackFrameSymbols
COLLISION_TAIL = CONSTANTS.aTurnaroundTime + CONSTANTS.macAckWaitDuration
ACK_WAIT_SAVING = COLLISION_TAIL - SUCCESS_TAIL  # what an ACK saves against the timeout
# one attempt whose first CCA is clean, without the 2L frame symbols
CLEAN_SUCCESS_SYMBOLS = ATTEMPT_STEPS[0] + SUCCESS_TAIL
CLEAN_COLLISION_SYMBOLS = ATTEMPT_STEPS[0] + COLLISION_TAIL
# (c0..c5) of the successful-attempt duration
# (c0 + c1 a + c2 a^2 + c3 a^3 + c4 a^4 - c5 a^5 + 2L (1 - a^5)) / (1 - a^5)
T2_COEFFS = (CLEAN_SUCCESS_SYMBOLS, *ATTEMPT_STEPS[1:], T1_SYMBOLS + SUCCESS_TAIL)
# T3's (c0..c5), printed in the paper, not derived: unlike T2's, they leave 48 at a = 1
T3_PRINTED_COEFFS = (144, 170, 330, 330, 330, 1256)
CCA_LIMIT = CONSTANTS.macMaxCSMABackoffs + 1  # CCAs per attempt: PAcc = a**CCA_LIMIT
RETRY_LIMIT = CONSTANTS.aMaxFrameRetries + 1  # attempts per frame: PColl**RETRY_LIMIT
K_POWER = 26  # PSuc = (1 - PAcc) k**K_POWER: printed, not derived
IDLE1_SYMBOLS = 19  # the channel chain's first state (analytical.channel_stationary): printed
FAIL_EXTRA_SYMBOLS = 6  # TxFail and AckFail last 2L + FAIL_EXTRA_SYMBOLS: printed, not derived
WAIT_STATES = CONSTANTS.aTurnaroundTime  # n: CW1..CWn and IW1..IWn, one symbol each
ACK_SUC_SYMBOLS = CONSTANTS.ackFrameSymbols - CONSTANTS.aTurnaroundTime
ACK_FAIL_POWER = WAIT_STATES + 1  # AckFail's weight (1 - z**ACK_FAIL_POWER) y z**n
ACK_SUC_POWER = 2 * WAIT_STATES + 1  # AckSuc's weight y z**ACK_SUC_POWER
CLEAN_CCA_STARTS = IDLE1_SYMBOLS - CONSTANTS.ccaSymbols + 1  # IDLE1 symbols a CCA fits in from
# The cycle length T, durations times weights summed over the states, collected:
# 2L + CYCLE_ONE - (2L + CYCLE_X) x + y (1 + z + ... + z**(ACK_SUC_POWER - 1))
# + (2L + CYCLE_YZN) y z**n - (2L + CYCLE_YZ_ACK) y z**ACK_SUC_POWER
CYCLE_X = IDLE1_SYMBOLS + FAIL_EXTRA_SYMBOLS + CONSTANTS.macAckWaitDuration
CYCLE_ONE = CYCLE_X + 1  # and IDLE2
CYCLE_YZN = CONSTANTS.tAck - CONSTANTS.aTurnaroundTime - 1  # the sum in y holds y z**n once
CYCLE_YZ_ACK = FAIL_EXTRA_SYMBOLS + CONSTANTS.macAckWaitDuration - ACK_SUC_SYMBOLS

L_NOMINAL_RANGE = (30, 127)  # bytes; values outside only draw a warning
# the most frames a MAC buffer may hold: 1.27 MB of 127-byte frames, beyond any
# 802.15.4 node's RAM; queueing's near-one window builds an (M+1)-element list
MAX_BUFFER = 10_000
# frame lengths outside L_NOMINAL_RANGE already warned about in this process:
# each distinct L warns once, so a sweep does not repeat it per grid point
_warned_lengths: set[int] = set()


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """One star-network scenario.

    N sensor nodes contend for a single sink. L is the frame payload in bytes
    (2L symbols on air). r is the arrival rate in frames per frame duration,
    so the per-mini-slot arrival probability is r / 2L. M is the MAC buffer
    capacity in frames, counting the frame in service.
    """

    N: int
    L: int
    mode: TrafficMode
    r: float = 0.0
    M: int = 1

    def __post_init__(self):
        object.__setattr__(self, "mode", TrafficMode(self.mode))  # the enum or its value
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"node count must be a positive integer, got {self.N}")
        if not isinstance(self.L, int) or self.L < 1:
            raise ValueError(f"frame length must be a positive integer, got {self.L}")
        lo, hi = L_NOMINAL_RANGE
        if not lo <= self.L <= hi and self.L not in _warned_lengths:
            _warned_lengths.add(self.L)
            import logging  # only here: most runs never warn

            logging.getLogger(__name__).warning(
                "frame length %d bytes outside nominal [%d, %d]", self.L, lo, hi)
        if self.mode is not TrafficMode.UNSATM and self.M != 1:
            raise ValueError(f"mode {self.mode.value} has one buffer: M must be 1, got {self.M}")
        if self.mode is TrafficMode.UNSATM and self.M <= 1:
            raise ValueError("multi-buffer mode requires M > 1")
        if self.M > MAX_BUFFER:
            raise ValueError(f"buffer M = {self.M} exceeds the cap of {MAX_BUFFER} frames")
        if not (self.r >= 0.0) or not math.isfinite(self.r):
            raise ValueError(f"arrival rate must be finite and >= 0, got {self.r}")
        if self.mode is not TrafficMode.SATURATED and self.r > 2 * self.L:
            raise ValueError(
                f"arrival rate {self.r} exceeds 2L = {2 * self.L}: the per-mini-slot "
                "arrival probability r/2L would exceed 1"
            )

    @property
    def frame_symbols(self) -> int:
        """On-air duration of one data frame in symbols."""
        return 2 * self.L

    @property
    def p_arrival(self) -> float:
        """Per-mini-slot arrival probability (0 in saturated mode)."""
        if self.mode is TrafficMode.SATURATED:
            return 0.0
        return self.r / (2 * self.L)


def quiet_prob(tau: float, N: int) -> float:
    """k = (1 - tau)^(N-1): none of the other N-1 nodes starts a CCA in a mini-slot.

    tau is the per-mini-slot CCA probability of one node. No range check:
    callers validate tau.
    """
    return (1.0 - tau) ** (N - 1)


# float copies of the exact ints: float ** float calls the C library's pow on the same
# doubles as float ** int, and a float * float term skips converting an int
_CCA_LIMIT, _K_POWER, _RETRY_LIMIT, _T1 = map(float, (CCA_LIMIT, K_POWER, RETRY_LIMIT, T1_SYMBOLS))
_T2_COEFFS, _T3_COEFFS = tuple(map(float, T2_COEFFS)), tuple(map(float, T3_PRINTED_COEFFS))


def attempt_terms(a: float, k: float) -> tuple[float, ...]:
    """(a^2, a^3, a^4, a^5, k^26, PSuc, PAcc, D, D^2, D^3): what one attempt's closed forms share.

    PSuc, PAcc and PColl = D = (1 - a^5)(1 - k^26) are the outcomes of one
    service attempt at busy probability a and quiet probability k (quiet_prob).
    No range check: callers validate a and k.
    """
    a5 = a**_CCA_LIMIT
    k26 = k**_K_POWER
    D = (1.0 - a5) * (1.0 - k26)
    return a**2.0, a**3.0, a**4.0, a5, k26, (1.0 - a5) * k26, a5, D, D**2.0, D**3.0


def retry_stages(PSuc: float, PAcc: float, q: float, q2: float, q3: float) -> tuple[float, ...]:
    """The flat 12 retry stages from one attempt's outcomes and the powers of PColl = q.

    A service ends at stage i = 0..3: PS[0..3] (delivered after i collisions),
    PC[0..3] (access drop) and PF[0..3] (still colliding; PF[3] is the
    retry-limit drop). No range check: callers validate the probabilities.
    """
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


def attempt_durations(powers: tuple[float, ...], frame: float) -> tuple[float, float, float]:
    """(T1, T2, T3) from the powers (a, a^2, a^3, a^4, a^5) and frame = float(2 * L).

    The mean attempt durations in symbols: all mean backoffs and five CCAs,
    until the ACK ends, until the ACK timeout. Refuses a outside [0, 1),
    where 1 - a^5 vanishes.
    """
    a = powers[0]
    if not 0.0 <= a < 1.0:
        raise ValueError(f"a must be in [0,1): {a}")
    one = 1.0 - powers[4]
    return (
        _T1,
        _attempt_duration(_T2_COEFFS, powers, one, frame),
        _attempt_duration(_T3_COEFFS, powers, one, frame),
    )


def stage_mass(stages: tuple[float, ...]) -> tuple[float, float]:
    """Probability of delivery and of any service outcome, summed in stage order."""
    s0, s1, s2, s3, c0, c1, c2, c3, _, _, _, drop = stages
    delivered = s0 + s1 + s2 + s3
    total = delivered + (c0 + c1 + c2 + c3) + drop
    if total == 0.0:
        raise ValueError("no service outcome has positive probability")
    return delivered, total


def service_delays(
    stages: tuple[float, ...], T1: float, T2: float, T3: float
) -> tuple[float, float | None, float]:
    """PS, TS and TVS from the flat retry stages and the attempt durations.

    A service ending at stage i spent i collided attempts (T3 each) before
    its final attempt; a frame dropped at the retry limit spent RETRY_LIMIT.
    """
    delivered, total = stage_mass(stages)
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


def service_chain(
    a: float, terms: tuple[float, ...], frame: float
) -> tuple[float, float | None, float]:
    """PS, TS and TVS at busy probability a and frame = float(2 * L), from attempt_terms(a, k)."""
    a2, a3, a4, a5, _, PSuc, PAcc, q, q2, q3 = terms
    return service_delays(
        retry_stages(PSuc, PAcc, q, q2, q3), *attempt_durations((a, a2, a3, a4, a5), frame))


class Source(str, Enum):
    """Where a performance report came from."""

    ANALYTICAL = "analytical"
    SIMULATED = "simulated"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Engine(str, Enum):
    """Which routes a sweep runs at every grid point."""

    ANALYTICAL = "analytical"
    SIMULATED = "sim"
    BOTH = "both"


DELAYS = ("TS", "TVS", "TSW", "TVSW")  # the delay metrics, in report and column order


def parallel_map(fn, items: list, jobs: int) -> list:
    """[fn(item) for item in items], spread over up to `jobs` worker processes."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor  # costs ~18 ms to import

        # four chunks per worker: one item per message costs more than a cheap item
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))
    return [fn(item) for item in items]


# inverse predictor task name -> (feature column names, target column name)
TASKS: dict[str, tuple[tuple[str, str, str, str], str]] = {
    "n": (("r", "L", "PS", "TVS"), "N"),
    "ps": (("r", "L", "N", "TVS"), "PS"),
    "tvs": (("r", "L", "PS", "N"), "TVS"),
}


@dataclass(frozen=True, slots=True)
class PerformanceReport:
    """The eight performance metrics of one scenario.

    Delays are in symbols. None marks an undefined metric: TS when no frame
    is delivered, or any metric no replication of a simulation defines.
    TSW/TVSW are populated only for the multi-buffer mode. ci95 holds
    Student-t 95% half-widths per metric name for simulated reports; a
    metric with fewer than two clean replications has no entry.
    """

    tau: float
    a: float | None
    TH: float
    PS: float | None
    TS: float | None
    TVS: float | None
    source: Source
    TSW: float | None = None
    TVSW: float | None = None
    ci95: dict[str, float] = field(default_factory=dict)
