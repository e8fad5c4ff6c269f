"""Independent reference implementations used only by the tests.

Everything here is computed by a different route than the package: exact
rational arithmetic over literal state-by-state sums instead of simplified
closed forms, brute-force enumeration instead of telescoped formulas, and
stationary birth-death solves instead of queueing identities.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


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
