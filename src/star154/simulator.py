"""Event-driven Monte Carlo simulation of unslotted CSMA/CA on a mini-slot clock.

N nodes contend for one sink. All times are integer mini-slots (1 symbol).
Arrivals are Bernoulli per mini-slot with probability r/2L, realized through
geometric gaps so idle periods cost no work. A CCA lasts 8 symbols and fails
if any transmission (data or ACK) overlaps any of them; a clean CCA is
followed by a 12-symbol turnaround and a 2L-symbol transmission. The sink
ACKs every cleanly received frame with a 22-symbol ACK starting 20 symbols
after the data ends; the sender times out 54 symbols after the data ends.
Busy CCAs escalate NB/BE and drop the frame after five failures; collisions
consume retries and drop the frame after three retransmissions.

The simulation is exact with respect to the per-mini-slot rules: events only
skip over slots in which provably nothing happens.
"""
from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import CONSTANTS, NetworkConfig, PerformanceReport, Source, TrafficMode

# protocol timing in symbols and limits, bound once as plain ints for the event loop
_CCA = CONSTANTS.ccaSymbols
_TURN = CONSTANTS.aTurnaroundTime
_ACK_GAP = CONSTANTS.tAck
_ACK_LEN = CONSTANTS.ackFrameSymbols
_ACK_TIMEOUT = CONSTANTS.macAckWaitDuration  # from data end to giving up
_BACKOFF_PERIOD = CONSTANTS.unitBackoffPeriod
_MAX_NB = CONSTANTS.macMaxCSMABackoffs
_MAX_RETRIES = CONSTANTS.aMaxFrameRetries
_MIN_BE = CONSTANTS.macMinBE
_MAX_BE = CONSTANTS.aMaxBE

# event kinds, in no particular priority: ties are resolved by insertion
# order and the physics below is insensitive to it
_ARRIVAL, _BACKOFF_END, _CCA_END, _TX_START, _TX_END, _ACK_START, _ACK_END, _FAIL = range(8)


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One simulation campaign: a scenario plus measurement parameters."""

    net: NetworkConfig
    horizon_mini_slots: int
    warmup_mini_slots: int | None = None  # None: 10% of the horizon
    replications: int = 50
    base_seed: int = 0

    def __post_init__(self):
        if self.horizon_mini_slots <= 0:
            raise ValueError("horizon must be positive")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.warmup_mini_slots is not None and self.warmup_mini_slots < 0:
            raise ValueError("warmup cannot be negative")

    @property
    def warmup(self) -> int:
        if self.warmup_mini_slots is None:
            return self.horizon_mini_slots // 10
        return self.warmup_mini_slots


@dataclass
class SimCounters:
    """Raw tallies of one replication.

    The first block covers the whole run and satisfies the conservation
    identity arrivals = blocked + deliveries + drops + in_system_at_end.
    The second block covers only the measurement window and feeds the
    estimators.
    """

    arrivals: int = 0
    blocked_arrivals: int = 0
    deliveries: int = 0
    access_fail_drops: int = 0
    retry_fail_drops: int = 0
    in_system_at_end: int = 0

    measured_slots: int = 0
    w_deliveries: int = 0
    w_access_fail_drops: int = 0
    w_retry_fail_drops: int = 0
    cca_starts: int = 0
    cca_busy: int = 0
    channel_busy_symbols: int = 0
    success_payload_symbols: int = 0
    duplicate_deliveries: int = 0
    service_sum_delivered: float = 0.0
    sojourn_sum_delivered: float = 0.0  # wait + service
    service_sum_all: float = 0.0
    sojourn_sum_all: float = 0.0
    serviced: int = 0

    def conservation_ok(self) -> bool:
        completed = self.deliveries + self.access_fail_drops + self.retry_fail_drops
        return self.arrivals == self.blocked_arrivals + completed + self.in_system_at_end


class _Node:
    __slots__ = (
        "rng", "queue", "frame_arrival", "frame_start", "sink_seen", "busy",
        "nb", "be", "retries", "cca_end", "cca_busy", "cca_counted",
        "data_end", "tx_rec", "ack_rec", "forced_backoffs", "forced_arrivals",
    )

    def __init__(self, rng):
        self.rng = rng
        self.queue: list[int] = []
        self.busy = False  # a frame is in service
        self.frame_arrival = 0
        self.frame_start = 0
        self.sink_seen = False
        self.nb = 0
        self.be = _MIN_BE
        self.retries = 0
        self.cca_end = -1
        self.cca_busy = False
        self.cca_counted = False
        self.data_end = -1
        self.tx_rec = None
        self.ack_rec = None
        self.forced_backoffs = None  # test hook: scripted backoff draws
        self.forced_arrivals = None  # test hook: scripted arrival slots

    def draw_backoff(self) -> int:
        if self.forced_backoffs:
            return _BACKOFF_PERIOD * self.forced_backoffs.pop(0)
        return _BACKOFF_PERIOD * int(self.rng.integers(0, 1 << self.be))


def _geometric_gap(rng, p: float) -> int:
    """Failures before the first success of a Bernoulli(p) sequence."""
    if p >= 1.0:
        return 0
    u = 1.0 - rng.random()  # in (0, 1]
    return int(math.log(u) / math.log1p(-p))


def run_replication(
    net: NetworkConfig,
    horizon: int,
    warmup: int,
    seed: int,
    trace_sink: list | None = None,
    max_trace: int = 0,
    arrival_schedule: dict[int, list[int]] | None = None,
    backoff_schedule: dict[int, list[int]] | None = None,
) -> SimCounters:
    """Simulate one replication and return its counters.

    arrival_schedule/backoff_schedule are test hooks: explicit arrival slots
    per node (replacing the Bernoulli process) and explicit backoff draws in
    backoff periods (replacing the uniform draws).
    """
    N = net.N
    two_l = net.frame_symbols
    sat = net.mode is TrafficMode.SATURATED
    p_arr = net.p_arrival
    w_start, w_end = warmup, warmup + horizon

    nodes = [
        _Node(np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i)))))
        for i in range(N)
    ]
    c = SimCounters(measured_slots=horizon)

    heap: list[tuple[int, int, int, int]] = []
    seq = 0

    def push(t: int, kind: int, node: int):
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, node))
        seq += 1

    def emit(t: int, node: int, event: str, detail: str):
        if trace_sink is not None and len(trace_sink) < max_trace:
            trace_sink.append(f"{t}\t{node}\t{event}\t{detail}")

    on_air: dict[int, list] = {}  # id -> [start, end, node, collided, kind]
    next_tx_id = 0
    in_cca: set[int] = set()
    busy_streak_start = -1  # start slot of the current channel-busy interval

    def channel_busy_edge(t: int, now_busy: bool):
        nonlocal busy_streak_start
        if now_busy and busy_streak_start < 0:
            busy_streak_start = t
        elif not now_busy and busy_streak_start >= 0:
            lo = max(busy_streak_start, w_start)
            hi = min(t, w_end)
            if hi > lo:
                c.channel_busy_symbols += hi - lo
            busy_streak_start = -1

    def add_on_air(t: int, end: int, node: int, kind: str) -> list:
        nonlocal next_tx_id
        rec = [t, end, node, False, kind]
        collided = False
        for other in on_air.values():
            if other[1] > t:
                other[3] = True
                collided = True
        rec[3] = collided
        # anyone mid-CCA hears this transmission start
        for j in in_cca:
            if nodes[j].cca_end > t:
                nodes[j].cca_busy = True
        if not on_air:
            channel_busy_edge(t, True)
        on_air[next_tx_id] = rec
        next_tx_id += 1
        return rec

    def drop_on_air(t: int, rec: list):
        for key, val in on_air.items():
            if val is rec:
                del on_air[key]
                break
        if not on_air:
            channel_busy_edge(t, False)

    def start_service(i: int, t: int, arrival: int):
        nd = nodes[i]
        nd.busy = True
        nd.frame_arrival = arrival
        nd.frame_start = t
        nd.sink_seen = False
        nd.nb = 0
        nd.be = _MIN_BE
        nd.retries = 0
        delay = nd.draw_backoff()
        emit(t, i, "backoff", f"delay={delay}")
        push(t + delay, _BACKOFF_END, i)

    def frame_done(i: int, t: int, outcome: str):
        nd = nodes[i]
        in_window = w_start <= t < w_end
        service = t - nd.frame_start
        wait = nd.frame_start - nd.frame_arrival
        if outcome == "deliver":
            c.deliveries += 1
        elif outcome == "access_drop":
            c.access_fail_drops += 1
        else:
            c.retry_fail_drops += 1
        if in_window:
            c.serviced += 1
            c.service_sum_all += service
            c.sojourn_sum_all += service + wait
            if outcome == "deliver":
                c.w_deliveries += 1
                c.success_payload_symbols += two_l
                c.service_sum_delivered += service
                c.sojourn_sum_delivered += service + wait
            elif outcome == "access_drop":
                c.w_access_fail_drops += 1
            else:
                c.w_retry_fail_drops += 1
        emit(t, i, outcome, f"service={service}")
        nd.busy = False
        if sat:
            c.arrivals += 1
            start_service(i, t, t)
        elif nd.queue:
            start_service(i, t, nd.queue.pop(0))

    def schedule_arrival(i: int, after: int, first: bool):
        nd = nodes[i]
        if nd.forced_arrivals is not None:
            if nd.forced_arrivals:
                push(nd.forced_arrivals.pop(0), _ARRIVAL, i)
            return
        if p_arr <= 0.0:
            return
        gap = _geometric_gap(nd.rng, p_arr)
        push(after + gap if first else after + 1 + gap, _ARRIVAL, i)

    for i in range(N):
        if arrival_schedule is not None:
            nodes[i].forced_arrivals = sorted(arrival_schedule.get(i, []))
        if backoff_schedule is not None and i in backoff_schedule:
            nodes[i].forced_backoffs = list(backoff_schedule[i])
        if sat:
            c.arrivals += 1
            start_service(i, 0, 0)
        else:
            schedule_arrival(i, 0, first=True)

    while heap:
        t, _, kind, i = heapq.heappop(heap)
        if t >= w_end:
            break
        nd = nodes[i]

        if kind == _ARRIVAL:
            c.arrivals += 1
            if not nd.busy:
                emit(t, i, "arrive", "queue=0")
                start_service(i, t, t)
            elif 1 + len(nd.queue) < net.M:
                nd.queue.append(t)
                emit(t, i, "arrive", f"queue={len(nd.queue)}")
            else:
                c.blocked_arrivals += 1
                emit(t, i, "blocked", f"queue={len(nd.queue)}")
            schedule_arrival(i, t, first=False)

        elif kind == _BACKOFF_END:
            nd.cca_counted = w_start <= t < w_end
            if nd.cca_counted:
                c.cca_starts += 1
            nd.cca_end = t + _CCA
            nd.cca_busy = any(rec[1] > t for rec in on_air.values())
            in_cca.add(i)
            emit(t, i, "cca_start", f"nb={nd.nb}")
            push(t + _CCA, _CCA_END, i)

        elif kind == _CCA_END:
            in_cca.discard(i)
            if nd.cca_busy:
                if nd.cca_counted:
                    c.cca_busy += 1
                emit(t, i, "cca_result", "busy")
                nd.nb += 1
                nd.be = min(nd.be + 1, _MAX_BE)
                if nd.nb > _MAX_NB:
                    frame_done(i, t, "access_drop")
                else:
                    delay = nd.draw_backoff()
                    emit(t, i, "backoff", f"delay={delay}")
                    push(t + delay, _BACKOFF_END, i)
            else:
                emit(t, i, "cca_result", "idle")
                push(t + _TURN, _TX_START, i)

        elif kind == _TX_START:
            nd.tx_rec = add_on_air(t, t + two_l, i, "data")
            emit(t, i, "tx_start", f"until={t + two_l}")
            push(t + two_l, _TX_END, i)

        elif kind == _TX_END:
            rec = nd.tx_rec
            nd.tx_rec = None
            drop_on_air(t, rec)
            nd.data_end = t
            emit(t, i, "tx_end", f"collided={int(rec[3])}")
            if rec[3]:
                push(t + _ACK_TIMEOUT, _FAIL, i)
            else:
                # sink got the frame; note repeats of one already received
                if nd.sink_seen and w_start <= t < w_end:
                    c.duplicate_deliveries += 1
                nd.sink_seen = True
                push(t + _ACK_GAP, _ACK_START, i)

        elif kind == _ACK_START:
            nd.ack_rec = add_on_air(t, t + _ACK_LEN, i, "ack")
            emit(t, i, "ack_start", f"until={t + _ACK_LEN}")
            push(t + _ACK_LEN, _ACK_END, i)

        elif kind == _ACK_END:
            rec = nd.ack_rec
            nd.ack_rec = None
            drop_on_air(t, rec)
            emit(t, i, "ack_end", f"collided={int(rec[3])}")
            if rec[3]:
                push(nd.data_end + _ACK_TIMEOUT, _FAIL, i)
            else:
                frame_done(i, t, "deliver")

        elif kind == _FAIL:
            nd.retries += 1
            if nd.retries > _MAX_RETRIES:
                frame_done(i, t, "retry_drop")
            else:
                emit(t, i, "retry", f"count={nd.retries}")
                nd.nb = 0
                nd.be = _MIN_BE
                delay = nd.draw_backoff()
                emit(t, i, "backoff", f"delay={delay}")
                push(t + delay, _BACKOFF_END, i)

    channel_busy_edge(w_end, False)  # close any open busy interval
    c.in_system_at_end = sum(int(nd.busy) + len(nd.queue) for nd in nodes)
    return c


def _estimates(c: SimCounters, net: NetworkConfig, horizon: int) -> dict[str, float]:
    """Point estimates of one replication; NaN marks undefined values."""
    nan = math.nan
    completed = c.w_deliveries + c.w_access_fail_drops + c.w_retry_fail_drops
    est = {
        "tau": c.cca_starts / (net.N * horizon),
        "a": c.cca_busy / c.cca_starts if c.cca_starts else nan,
        "TH": c.success_payload_symbols / horizon,
        "PS": c.w_deliveries / completed if completed else nan,
        "TS": c.service_sum_delivered / c.w_deliveries if c.w_deliveries else nan,
        "TVS": c.service_sum_all / c.serviced if c.serviced else nan,
    }
    if net.mode is TrafficMode.UNSATM:
        est["TSW"] = c.sojourn_sum_delivered / c.w_deliveries if c.w_deliveries else nan
        est["TVSW"] = c.sojourn_sum_all / c.serviced if c.serviced else nan
    return est


def _one_replication(args) -> tuple[int, dict[str, float]]:
    net, horizon, warmup, seed, rep = args
    counters = run_replication(net, horizon, warmup, seed)
    if not counters.conservation_ok():  # pragma: no cover - engine invariant
        raise AssertionError(f"frame conservation violated in replication {rep}")
    return rep, _estimates(counters, net, horizon)


def run(cfg: SimConfig, jobs: int = 1) -> PerformanceReport:
    """Run all replications and aggregate: means plus 95% half-widths."""
    work = [
        (cfg.net, cfg.horizon_mini_slots, cfg.warmup, cfg.base_seed + rep, rep)
        for rep in range(cfg.replications)
    ]
    if jobs > 1 and cfg.replications > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = sorted(pool.map(_one_replication, work))
    else:
        results = [_one_replication(w) for w in work]

    per_metric: dict[str, list[float]] = {}
    for _, est in results:
        for name, value in est.items():
            per_metric.setdefault(name, []).append(value)

    means: dict[str, float] = {}
    ci: dict[str, float] = {}
    for name, values in per_metric.items():
        clean = [v for v in values if not math.isnan(v)]
        if not clean:
            means[name] = math.nan
            continue
        means[name] = float(np.mean(clean))
        if len(clean) >= 2:
            ci[name] = float(1.96 * np.std(clean, ddof=1) / math.sqrt(len(clean)))
        else:
            ci[name] = 0.0

    def opt(name):
        v = means.get(name, math.nan)
        return None if math.isnan(v) else v

    return PerformanceReport(
        tau=means["tau"], a=means["a"], TH=means["TH"], PS=means["PS"],
        TS=opt("TS"), TVS=means["TVS"], TSW=opt("TSW"), TVSW=opt("TVSW"),
        source=Source.SIMULATED, ci95=ci,
    )


def trace(cfg: SimConfig, max_events: int = 1000) -> list[str]:
    """Seed-reproducible event log of replication 0, one line per event.

    Line format: mini-slot, node, event, detail, tab-separated.
    """
    lines: list[str] = []
    run_replication(
        cfg.net, cfg.horizon_mini_slots, cfg.warmup, cfg.base_seed,
        trace_sink=lines, max_trace=max_events,
    )
    return lines
