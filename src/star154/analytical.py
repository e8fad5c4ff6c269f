"""Coupled fixed point of the node and channel models.

The node side gives the per-mini-slot CCA probability tau as a function of the
busy probability a; the channel side gives a as a function of tau. The
multi-buffer mode also weights the arrival term by the queue-empty probability
p0, a closed form of (tau, a) through the mean service time. So every traffic
mode is one scalar equation F(tau) = 0, and one solver serves them all.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from . import queueing  # a module, not names: see _queue
from .core import (
    ACK_FAIL_POWER, ACK_SUC_POWER, ACK_SUC_SYMBOLS, ACK_WAIT_SAVING, ATTEMPT_STEPS,
    CLEAN_CCA_STARTS, CLEAN_COLLISION_SYMBOLS, COLLISION_TAIL, CONSTANTS, CYCLE_ONE, CYCLE_X,
    CYCLE_YZ_ACK, CYCLE_YZN, FAIL_EXTRA_SYMBOLS, IDLE1_SYMBOLS, WAIT_STATES,
    NetworkConfig, TrafficMode, attempt_terms, quiet_prob, service_chain,
)

# float copies of core's exact ints, so F's arithmetic converts none per evaluation;
# every int here is far below 2**53, so each copy and each sum below is exact
_, _STEP1, _STEP2, _STEP3, _STEP4 = map(float, ATTEMPT_STEPS)
_ACK_SUC_POWER, _WAIT_STATES = float(ACK_SUC_POWER), float(WAIT_STATES)
_ACK_WAIT_SAVING, _CLEAN_CCA_STARTS = float(ACK_WAIT_SAVING), float(CLEAN_CCA_STARTS)
_Map = Callable[[float], float]  # F, one traffic mode's map built by _map

# where the damped iteration starts: a rare attempt
_INITIAL_TAU = 1e-4

MIN_NODES = 2  # the fewest nodes the closed forms accept


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted. Carries the last iterate for inspection."""

    def __init__(self, msg, fixed_point):
        super().__init__(msg)
        self.fixed_point = fixed_point


@dataclass(frozen=True, slots=True)
class SolverSettings:
    tolerance: float = 1e-12
    max_iterations: int = 100000
    damping: float = 0.5  # in (0, 1]; 1 = undamped substitution
    use_bisection: bool = False  # skip damped iteration entirely

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:  # NaN too
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class FixedPoint:
    """Solved tau, its busy probability a, multi-buffer auxiliaries and diagnostics."""

    tau: float
    a: float
    iterations: int
    residual: float
    converged: bool
    p: float | None = None  # queue utilization, multi-buffer mode only
    p0: float | None = None  # queue-empty probability, multi-buffer mode only
    TVS: float | None = None  # mean service time, multi-buffer mode only
    evaluations: int = 0  # F evaluations the solve made


# Channel states as (name, duration in symbols, stationary weight / theta).
@dataclass(frozen=True, slots=True)
class ChannelStationaryDistribution:
    states: tuple[tuple[str, int, float], ...]
    total_T: float  # duration-weighted total, closed form

    def weight(self, name: str) -> float:
        """Stationary probability of one state relative to theta."""
        for n, _, w in self.states:
            if n == name:
                return w
        raise KeyError(name)

    def occupancy(self) -> dict[str, float]:
        """Fraction of channel time spent in each state; sums to 1."""
        return {n: d * w / self.total_T for n, d, w in self.states}


def _scenario(N: int, L: int) -> tuple[float, ...]:
    """The floats of N and L that _channel and _update take, exact: bound once per solve.

    (N, N - 1, then 2L plus CYCLE_ONE, CYCLE_X, CYCLE_YZN, CYCLE_YZ_ACK,
    CLEAN_COLLISION_SYMBOLS and COLLISION_TAIL.)
    """
    frame = 2 * L
    return tuple(map(float, (
        N, N - 1, frame + CYCLE_ONE, frame + CYCLE_X, frame + CYCLE_YZN, frame + CYCLE_YZ_ACK,
        frame + CLEAN_COLLISION_SYMBOLS, frame + COLLISION_TAIL,
    )))


def _channel(tau: float, s: tuple[float, ...]) -> tuple[float, float, float, float, float]:
    """x, y, z (= k), the cycle length T and the busy probability a at tau; no range check.

    s is _scenario(N, L). T is the duration-weighted total of the channel
    states, relative to theta. a counts the channel-idle symbols a CCA can
    start from and still finish clean, over T.
    """
    n, n1, c_one, c_x, c_yzn, c_yz_ack, _, _ = s
    silent = 1.0 - tau  # one node starts no CCA in a mini-slot
    x = silent**n
    z = silent**n1  # core.quiet_prob(tau, N)
    y = n * tau * z
    zn, z_ack = z**_WAIT_STATES, z**_ACK_SUC_POWER
    geo = _ACK_SUC_POWER if z == 1.0 else (1.0 - z_ack) / (1.0 - z)
    T = c_one - c_x * x + y * geo + c_yzn * y * zn - c_yz_ack * y * z_ack
    a = 1.0 - (_CLEAN_CCA_STARTS * (1.0 - x) + 1.0) / T
    # every [0, 1] clip in this module is this comparison: the same float as
    # min(max(a, 0.0), 1.0), NaN and -0.0 included, without two builtin calls
    return x, y, z, T, 0.0 if a < 0.0 else 1.0 if a > 1.0 else a


def _check_network(N: int, L: int) -> None:
    """Refuse N < 1 or L < 1 in the public closed forms; _channel and F trust a NetworkConfig."""
    if not (N >= 1 and L >= 1):  # NaN too
        raise ValueError(f"node count and frame length must be >= 1, got N={N}, L={L}")


def a_from_tau(tau: float, N: int, L: int) -> float:
    """Probability a CCA finds the channel busy, given the CCA rate tau."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau out of [0,1]: {tau}")
    _check_network(N, L)
    return _channel(tau, _scenario(N, L))[4]


def channel_stationary(tau: float, N: int, L: int) -> ChannelStationaryDistribution:
    """Stationary weights of every channel state, relative to theta."""
    if tau <= 0.0:
        raise ValueError("tau must be positive; the all-idle channel has no cycle")
    if tau > 1.0:
        raise ValueError(f"tau out of (0,1]: {tau}")
    _check_network(N, L)
    x, y, z, T, _ = _channel(tau, _scenario(N, L))
    n = WAIT_STATES
    states: list[tuple[str, int, float]] = [
        ("IDLE1", IDLE1_SYMBOLS, 1.0 - x),
        ("IDLE2", 1, 1.0),
    ]
    states += [(f"CW{i}", 1, y * z ** (i - 1)) for i in range(1, n + 1)]
    states += [
        ("TxSuc", 2 * L - CONSTANTS.aTurnaroundTime, y * z**n),
        ("IDLE3", CONSTANTS.tAck, y * z**n),
    ]
    states += [(f"IW{i}", 1, y * z ** (n + i)) for i in range(1, n + 1)]
    states += [
        ("AckSuc", ACK_SUC_SYMBOLS, y * z**ACK_SUC_POWER),
        ("TxFail", 2 * L + FAIL_EXTRA_SYMBOLS, 1.0 - x - y * z**n),
        ("AckFail", 2 * L + FAIL_EXTRA_SYMBOLS, (1.0 - z**ACK_FAIL_POWER) * y * z**n),
        ("wack", CONSTANTS.macAckWaitDuration, 1.0 - x - y * z**ACK_SUC_POWER),
    ]
    return ChannelStationaryDistribution(states=tuple(states), total_T=T)


def throughput(tau: float, N: int, L: int) -> float:
    """Normalized throughput: fraction of channel time carrying acknowledged payload."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau out of [0,1]: {tau}")
    _check_network(N, L)
    if tau == 0.0:
        return 0.0
    _, y, z, T, _ = _channel(tau, _scenario(N, L))
    th = 2 * L * y * z**_ACK_SUC_POWER / T
    return 0.0 if th < 0.0 else 1.0 if th > 1.0 else th


def tau_update(
    tau_prev: float, a: float, cfg: NetworkConfig, p0: float | None = None
) -> float:
    """One substitution step for the CCA probability at a given busy probability.

    k (core.quiet_prob) is evaluated at tau_prev. The traffic mode selects
    the arrival term: the single-buffer form adds 2L/r idle symbols per
    frame, the multi-buffer form weights that by the queue-empty probability
    p0 (required there, in [0, 1]), and the saturated form has no idle term.
    """
    if not 0.0 <= tau_prev <= 1.0:
        raise ValueError(f"tau out of [0,1]: {tau_prev}")
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a out of [0,1]: {a}")
    terms, L, r = attempt_terms(a, quiet_prob(tau_prev, cfg.N)), cfg.L, cfg.r
    s = _scenario(cfg.N, L)
    if cfg.mode is TrafficMode.SATURATED:
        return _update(a, terms, s, 0.0)
    if cfg.mode is TrafficMode.UNSAT1:
        return _update(a, terms, s, 2 * L / r) if r else 0.0
    if p0 is None:
        raise ValueError("multi-buffer mode needs the queue-empty probability p0")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 out of [0,1]: {p0}")
    return _update(a, terms, s, p0 * 2 * L / r) if r else 0.0


def _update(a: float, terms: tuple[float, ...], s: tuple[float, ...], idle: float) -> float:
    """tau_update's step from terms = core.attempt_terms(a, k), s = _scenario(N, L) and the
    arrival term idle; unchecked."""
    a2, a3, a4, a5, k26, _, _, D, D2, D3 = terms
    clean, tail = s[6], s[7]  # 2L + CLEAN_COLLISION_SYMBOLS, 2L + COLLISION_TAIL
    saving = _ACK_WAIT_SAVING * k26
    bracket = (
        clean + _STEP1 * a + _STEP2 * a2 + _STEP3 * a3 + _STEP4 * a4 - saving
        - (tail - saving) * a5
    )
    retry_geo = 1.0 + D + D2 + D3
    numerator = retry_geo * (1.0 + a + a2 + a3 + a4)
    # bracket >= 78 symbols for every a, k in [0, 1], so the denominator is too
    tau = numerator / (bracket * retry_geo + idle)
    return 0.0 if tau < 0.0 else 1.0 if tau > 1.0 else tau


def _queue(a: float, terms: tuple[float, ...], cfg: NetworkConfig) -> tuple[float, float, float]:
    """Queue utilization p, empty probability p0 and mean service time TVS at a, from
    terms = core.attempt_terms(a, k); unchecked.

    Multi-buffer mode: the node model's mean service time sets the M/M/1/K
    load, and its empty probability weights the arrival term. The queueing
    functions are looked up on their module at every call, so a wrapper put
    on it counts each one.
    """
    TVS = service_chain(a, terms, float(2 * cfg.L))[2]
    p = queueing.utilization(cfg.r, cfg.L, TVS)
    return p, queueing.empty_prob(p, cfg.M), TVS


def _map(cfg: NetworkConfig) -> _Map:
    """F(tau) = tau_update(tau, a(tau), cfg, p0(tau)) - tau for cfg: the map every route solves.

    The traffic mode is decided here, once per solve: F closes over
    _scenario(N, L), r and the arrival term, 2L/r in unsat1, none in sat,
    and p0 2L/r in unsatm, with p0 from _queue at every evaluation. F checks
    tau once and computes k, the powers of a and D and k**K_POWER once; its
    pieces are the ones a_from_tau, _queue and tau_update call, so the bits
    are theirs.
    """
    r, s, frame = cfg.r, _scenario(cfg.N, cfg.L), float(2 * cfg.L)
    unsatm = cfg.mode is TrafficMode.UNSATM
    # outside unsatm; None without arrivals, where tau_update is 0
    idle = 0.0 if cfg.mode is TrafficMode.SATURATED else frame / r if r else None

    def F(tau: float) -> float:
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau out of [0,1]: {tau}")
        _, _, k, _, a = _channel(tau, s)
        terms = attempt_terms(a, k)
        if unsatm:
            p0 = _queue(a, terms, cfg)[1]
            # p0 * frame is tau_update's p0 * 2 * L: p0 * 2 is exact, so both round p0 2L once
            return (_update(a, terms, s, p0 * frame / r) if r else 0.0) - tau
        return (0.0 if idle is None else _update(a, terms, s, idle)) - tau

    return F


def _damped(F: _Map, settings: SolverSettings) -> tuple[float, int, int, float | None]:
    """tau <- clip(tau + d F(tau)) to tolerance: tau, iterations = evaluations, F(tau) or None."""
    tau, tol, d = _INITIAL_TAU, settings.tolerance, settings.damping
    for it in range(1, settings.max_iterations + 1):
        f = F(tau)
        if abs(f) <= tol:
            return tau, it, it, f
        tau += d * f
        tau = 0.0 if tau < 0.0 else 1.0 if tau > 1.0 else tau
    return tau, settings.max_iterations, settings.max_iterations, None


def _bisect(F: _Map, settings: SolverSettings) -> tuple[float, int, int, float | None]:
    """Root of F on [0, 1]: tau, halvings, F evaluations, and F(tau) or None if unpolishable.

    F(0) >= 0 and F(1) <= 0 for every valid configuration, so the root is
    bracketed from the start. Halving stops once |F| is 1% of tolerance; None
    marks a spent budget (tau is the next midpoint) or a bracket of two
    adjacent floats (tau is the end with the smaller |F|).
    """
    lo, hi, f_hi = 0.0, 1.0, None
    f_lo = F(lo)
    if f_lo == 0.0:
        return 0.0, 1, 1, 0.0
    for it in range(1, settings.max_iterations + 1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: a Newton step lands on lo or hi again
            return (hi if f_hi is not None and abs(f_hi) < abs(f_lo) else lo), it - 1, it, None
        f_mid = F(mid)
        if f_mid == 0.0 or abs(f_mid) < settings.tolerance * 1e-2:
            return mid, it, it + 1, f_mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi), settings.max_iterations, settings.max_iterations + 1, None


def _polish(F: _Map, tau: float, f: float) -> tuple[float, int]:
    """Newton-polish the root of F from tau, where F(tau) = f: best tau and F evaluations.

    A residual stop leaves tau off by about residual / |1 - slope of the
    update map|, which crosses 1e-9 when the map contracts slowly. Two
    guarded Newton steps with a wide finite-difference stencil push that
    error down to evaluation noise, so every route lands on the same root.
    Never moves to a point with a larger |F|.
    """
    h = 1e-7  # far above F's rounding noise, far below its curvature scale
    best_t, best_f = tau, abs(f)
    t, evaluations = tau, 0
    for _ in range(2):
        if f == 0.0:
            return t, evaluations
        lo, hi = t - h, t + h
        lo, hi = 0.0 if lo < 0.0 else lo, 1.0 if hi > 1.0 else hi
        slope = (F(hi) - F(lo)) / (hi - lo)
        evaluations += 2
        if not math.isfinite(slope) or slope == 0.0:
            break
        t_new = t - f / slope
        if not 0.0 <= t_new <= 1.0:
            break
        t = t_new
        f = F(t)
        evaluations += 1
        if abs(f) < best_f:
            best_t, best_f = t, abs(f)
    return best_t, evaluations


def solve(cfg: NetworkConfig, settings: SolverSettings = SolverSettings()) -> FixedPoint:
    """Find the fixed point of the coupled node/channel model for cfg.

    Raises NonConvergenceError, carrying the last iterate, if the iteration
    budget runs out.
    """
    if cfg.N < MIN_NODES:
        raise ValueError(f"the analytical model needs at least {MIN_NODES} nodes, got {cfg.N}")
    F = _map(cfg)
    tau, it, evaluations, f = (_bisect if settings.use_bisection else _damped)(F, settings)
    if f is not None:  # a landed route is polished; otherwise tau is reported as it stands
        tau, polished = _polish(F, tau, f)
        evaluations += polished
    # one more F evaluation, through the public functions: a, p0 and the residual
    # describe the reported tau (and bench/spans.py counts the tau_update call)
    a = a_from_tau(tau, cfg.N, cfg.L)
    unsatm = cfg.mode is TrafficMode.UNSATM
    p, p0, TVS = _queue(a, attempt_terms(a, quiet_prob(tau, cfg.N)), cfg) if unsatm else (None,) * 3
    res = abs(tau_update(tau, a, cfg, p0) - tau)
    ok = res <= settings.tolerance
    fp = FixedPoint(tau=tau, a=a, iterations=it, residual=res, converged=ok, p=p, p0=p0,
                    TVS=TVS, evaluations=evaluations + 1)
    if not ok:
        raise NonConvergenceError(f"no convergence after {it} iterations", fp)
    return fp
