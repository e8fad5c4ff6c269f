"""Independent reference implementations used only by the tests.

Everything here is computed by a different route than the package: exact
rational arithmetic over literal state-by-state sums instead of simplified
closed forms, brute-force enumeration instead of telescoped formulas, and
stationary birth-death solves instead of queueing identities, and a
mini-slot by mini-slot stepper instead of the simulator's event queue.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from star154.core import CONSTANTS, TrafficMode
from star154.simulator import SimCounters, _Node


def channel_state_table(tau: Fraction, N: int, L: int):
    """Duration and weight (relative to the reference state) of every channel state."""
    one = Fraction(1)
    z = (one - tau) ** (N - 1)
    x = (one - tau) * z
    y = N * tau * z
    states = [("IDLE1", 19, one - x), ("IDLE2", 1, one)]
    for i in range(1, 13):
        states.append((f"CW{i}", 1, y * z ** (i - 1)))
    states.append(("TxSuc", 2 * L - 12, y * z**12))
    states.append(("IDLE3", 20, y * z**12))
    for i in range(1, 13):
        states.append((f"IW{i}", 1, y * z ** (12 + i)))
    states.append(("AckSuc", 10, y * z**25))
    states.append(("TxFail", 2 * L + 6, one - x - y * z**12))
    states.append(("AckFail", 2 * L + 6, (one - z**13) * y * z**12))
    states.append(("wack", 54, one - x - y * z**25))
    return states


def exact_total_T(tau: Fraction, N: int, L: int) -> Fraction:
    """Duration-weighted sum over the state table, term by term."""
    return sum(d * w for _, d, w in channel_state_table(tau, N, L))


def exact_a_from_tau(tau: Fraction, N: int, L: int) -> Fraction:
    """Busy probability from the state table: a CCA begins clean only in the
    first 12 symbols of IDLE1 or in IDLE2."""
    table = dict((n, (d, w)) for n, d, w in channel_state_table(tau, N, L))
    num = 12 * table["IDLE1"][1] + table["IDLE2"][1]
    return Fraction(1) - num / exact_total_T(tau, N, L)


def exact_throughput(tau: Fraction, N: int, L: int) -> Fraction:
    table = dict((n, (d, w)) for n, d, w in channel_state_table(tau, N, L))
    return 2 * L * table["AckSuc"][1] / exact_total_T(tau, N, L)


def exact_tau_update(tau_prev, a, N: int, L: int, mode: str, r=None, p0=None) -> Fraction:
    """Substitution step evaluated in exact arithmetic."""
    tau_prev, a = Fraction(tau_prev), Fraction(a)
    one = Fraction(1)
    k = (one - tau_prev) ** (N - 1)
    k26 = k**26
    a5 = a**5
    D = (one - a5) * (one - k26)
    geo = one + D + D**2 + D**3
    B = (
        2 * L + 144 + 158 * a + 318 * a**2 + 318 * a**3 + 318 * a**4
        - 12 * k26 - (2 * L + 66 - 12 * k26) * a5
    )
    num = geo * (one + a + a**2 + a**3 + a**4)
    den = B * geo
    if mode == "unsat1":
        den += Fraction(2 * L) / Fraction(r)
    elif mode == "unsatm":
        den += Fraction(p0) * 2 * L / Fraction(r)
    return num / den


def exact_service_times(a, L: int):
    """T2 and T3 evaluated in exact arithmetic from the printed forms."""
    a = Fraction(a)
    a5 = a**5
    one = Fraction(1) - a5
    T2 = (132 + 158 * a + 318 * a**2 + 318 * a**3 + 318 * a**4 - 1244 * a5 + 2 * L * one) / one
    T3 = (144 + 170 * a + 330 * a**2 + 330 * a**3 + 330 * a**4 - 1256 * a5 + 2 * L * one) / one
    return T2, T3


def outcome_tree(PSuc, PAcc, PColl, T1, T2, T3):
    """Enumerate the per-stage service outcomes and their costs.

    A service ends by delivery or access drop at stage i in 0..3 after i
    collided attempts, or by a fourth collision. Stage-0 terminal weights
    carry the complement factor 1 - PColl - PColl^2 - PColl^3; later stages
    carry PColl^i. Returns (reliability, mean success delay, mean delay).
    """
    head = 1 - PColl - PColl**2 - PColl**3
    leaves = []  # (probability, delivered?, cost)
    for i in range(4):
        stage = head if i == 0 else PColl**i
        leaves.append((stage * PSuc, True, i * T3 + T2))
        leaves.append((stage * PAcc, False, i * T3 + T1))
    leaves.append((PColl**4, False, 4 * T3))
    total = sum(p for p, _, _ in leaves)
    success = sum(p for p, ok, _ in leaves if ok)
    ps = success / total
    ts = sum(p * c for p, ok, c in leaves if ok) / success if success else None
    tvs = sum(p * c for p, _, c in leaves) / total
    return ps, ts, tvs


def birth_death_lq(p: float, M: int):
    """Stationary distribution of the M/M/1/K chain with K = M, by brute force.

    State n = frames in system, pi_n proportional to p^n. Returns
    (p0, pM, Lq) with Lq counting only waiting frames.
    """
    weights = [p**n for n in range(M + 1)]
    total = sum(weights)
    pi = [w / total for w in weights]
    # waiting frames are n - 1 when n >= 1 are in the system
    lq = sum((n - 1) * pi[n] for n in range(1, M + 1))
    return pi[0], pi[M], lq


def exact_birth_death(p: float, M: int) -> tuple[Fraction, Fraction, Fraction]:
    """(p0, pM, Lq) of the M/M/1/K chain with K = M in exact arithmetic.

    p is taken at its exact binary value; weights p^n are scaled to the
    integers num^n * den^(M - n), so no power ever leaves range.
    """
    f = Fraction(p)
    num, den = f.numerator, f.denominator
    w = [num**n * den ** (M - n) for n in range(M + 1)]
    total = sum(w)
    return (Fraction(w[0], total), Fraction(w[M], total),
            Fraction(sum((n - 1) * w[n] for n in range(1, M + 1)), total))


def mm1k_event_sim(lam: float, mu: float, K: int, events: int, reps: int, seed: int):
    """Discrete-event M/M/1/K simulation; returns per-replication estimates.

    Tracks time-averaged state occupancy. Yields tuples (p0, pK, Lq) per
    replication.
    """
    out = []
    for rep in range(reps):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, rep))))
        t = 0.0
        n = 0
        time_in_state = np.zeros(K + 1)
        next_arrival = rng.exponential(1.0 / lam)
        next_departure = math.inf
        for _ in range(events):
            t_next = min(next_arrival, next_departure)
            time_in_state[n] += t_next - t
            t = t_next
            if next_arrival <= next_departure:
                if n < K:
                    n += 1
                    if n == 1:
                        next_departure = t + rng.exponential(1.0 / mu)
                next_arrival = t + rng.exponential(1.0 / lam)
            else:
                n -= 1
                next_departure = t + rng.exponential(1.0 / mu) if n > 0 else math.inf
        occ = time_in_state / time_in_state.sum()
        lq = sum((m - 1) * occ[m] for m in range(1, K + 1))
        out.append((occ[0], occ[K], lq))
    return out


# MAC phases of a node in the reference stepper; each ends at the slot `until`
_IDLE, _BACKOFF, _CCA, _TURN, _TX, _GAP, _ACK, _WAIT = range(8)


class _Station:
    """One node of the reference stepper: its MAC phase and the frame in service."""

    def __init__(self, rng: _Node):
        self.rng = rng  # used only for its draws
        self.phase, self.since, self.until = _IDLE, 0, -1
        self.queue: list[int] = []
        self.next_arrival = None
        self.frame_arrival = self.frame_start = self.data_end = 0
        self.nb = self.be = self.retries = 0
        self.sink_seen = False
        self.span = -1  # index of its transmission in the channel's list


def reference_replication(net, horizon: int, warmup: int, seed: int) -> SimCounters:
    """The counters of simulator.run_replication, one mini-slot at a time.

    The simulator module docstring's rules, applied literally: each node is a
    state machine over its MAC phases, and the channel is the list of every
    transmission ever started, scanned for the overlap rule. Each node draws
    from a `_Node` on the engine's (seed, node) stream, and consumes it only
    at its own transitions, in time order, so a correct engine follows the
    same trajectory. `events` is left 0.

    Phase order within a slot: first every arrival, then every node's MAC
    transitions. One node can pass several phases in one slot (a zero backoff
    starts the CCA in the slot it was drawn). No rule reads the order of two
    nodes within a phase. The window [warmup, warmup + horizon) counts a CCA
    by its start, a busy CCA only when its start lies in the window and its
    end before the window closes, a frame outcome and a duplicate by their
    slot, and channel time by the slots with a transmission on air.
    """
    C = CONSTANTS
    w_start, w_end = warmup, warmup + horizon
    sat = net.mode is TrafficMode.SATURATED
    p = net.p_arrival
    c = SimCounters()
    nodes = [_Station(_Node(np.random.PCG64(np.random.SeedSequence((seed, i)))))
             for i in range(net.N)]
    spans: list[tuple[int, int]] = []  # [start, end) of every transmission, data or ACK

    def overlapped(s: int, e: int, own: int = -1) -> bool:
        return any(s2 < e and e2 > s for k, (s2, e2) in enumerate(spans) if k != own)

    def backoff(nd: _Station, t: int):
        nd.rng.be = nd.be
        nd.phase, nd.until = _BACKOFF, t + nd.rng.draw_backoff()

    def start(nd: _Station, t: int, arrival: int):
        nd.frame_arrival, nd.frame_start = arrival, t
        nd.sink_seen = False
        nd.nb, nd.be, nd.retries = 0, C.macMinBE, 0
        backoff(nd, t)

    def done(nd: _Station, t: int, outcome: str):
        service, wait = t - nd.frame_start, nd.frame_start - nd.frame_arrival
        setattr(c, outcome, getattr(c, outcome) + 1)
        if t >= w_start:
            setattr(c, "w_" + outcome, getattr(c, "w_" + outcome) + 1)
            c.service_sum_all += service
            c.sojourn_sum_all += service + wait
            if outcome == "deliveries":
                c.service_sum_delivered += service
                c.sojourn_sum_delivered += service + wait
        nd.phase, nd.until = _IDLE, -1
        if sat:
            c.arrivals += 1
            start(nd, t, t)
        elif nd.queue:
            start(nd, t, nd.queue.pop(0))

    def transmit(nd: _Station, t: int, phase: int, length: int):
        nd.span = len(spans)
        spans.append((t, t + length))
        nd.phase, nd.since, nd.until = phase, t, t + length

    def step(nd: _Station, t: int):
        if nd.phase == _BACKOFF:
            nd.phase, nd.since, nd.until = _CCA, t, t + C.ccaSymbols
            if t >= w_start:
                c.cca_starts += 1
        elif nd.phase == _CCA:
            if overlapped(nd.since, t):
                if nd.since >= w_start:
                    c.cca_busy += 1
                nd.nb += 1
                nd.be = min(nd.be + 1, C.aMaxBE)
                if nd.nb > C.macMaxCSMABackoffs:
                    done(nd, t, "access_fail_drops")
                else:
                    backoff(nd, t)
            else:
                nd.phase, nd.until = _TURN, t + C.aTurnaroundTime
        elif nd.phase == _TURN:
            transmit(nd, t, _TX, net.frame_symbols)
        elif nd.phase == _TX:
            nd.data_end = t
            if overlapped(nd.since, t, nd.span):
                nd.phase, nd.until = _WAIT, t + C.macAckWaitDuration
            else:
                if nd.sink_seen and t >= w_start:
                    c.duplicate_deliveries += 1
                nd.sink_seen = True
                nd.phase, nd.until = _GAP, t + C.tAck
        elif nd.phase == _GAP:
            transmit(nd, t, _ACK, C.ackFrameSymbols)
        elif nd.phase == _ACK:
            if overlapped(nd.since, t, nd.span):
                nd.phase, nd.until = _WAIT, nd.data_end + C.macAckWaitDuration
            else:
                done(nd, t, "deliveries")
        else:  # _WAIT: the ACK timed out
            nd.retries += 1
            if nd.retries > C.aMaxFrameRetries:
                done(nd, t, "retry_fail_drops")
            else:
                nd.nb, nd.be = 0, C.macMinBE
                backoff(nd, t)

    for nd in nodes:
        if sat:
            c.arrivals += 1
            start(nd, 0, 0)
        else:
            nd.next_arrival = nd.rng.next_arrival(0, p)
    for t in range(w_end):
        for nd in nodes:  # phase 1: arrivals
            if nd.next_arrival == t:
                c.arrivals += 1
                if nd.phase == _IDLE:
                    start(nd, t, t)
                elif 1 + len(nd.queue) < net.M:
                    nd.queue.append(t)
                else:
                    c.blocked_arrivals += 1
                nd.next_arrival = nd.rng.next_arrival(t + 1, p)
        for nd in nodes:  # phase 2: MAC transitions
            while nd.until == t:
                step(nd, t)
        if t >= w_start and any(nd.phase in (_TX, _ACK) for nd in nodes):
            c.channel_busy_symbols += 1
    c.in_system_at_end = sum((nd.phase != _IDLE) + len(nd.queue) for nd in nodes)
    return c
