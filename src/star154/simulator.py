"""Event-driven Monte Carlo simulation of unslotted CSMA/CA on a mini-slot clock.

N nodes contend for one sink. All times are integer mini-slots (1 symbol).
Arrivals are Bernoulli per mini-slot with probability r/2L, realized through
geometric gaps so idle periods cost no work. A CCA lasts 8 symbols; a clean
CCA is followed by a 12-symbol turnaround and a 2L-symbol transmission. The
sink ACKs every cleanly received frame with a 22-symbol ACK starting 20
symbols after the data ends; the sender times out 54 symbols after the data
ends. A CCA over the slots [s, e) reads busy, and a transmission (data or
ACK) over [s, e) collides, exactly when another transmission [s2, e2)
overlaps it: s2 < e and e2 > s. The channel is kept as counters, not as a
list of transmissions. Busy CCAs escalate NB/BE and drop the frame after
five failures; collisions consume retries and drop the frame after three
retransmissions.

The simulation is exact with respect to the per-mini-slot rules: events only
skip over slots in which provably nothing happens, and a CCA is one event, at
its end. Events run in time order; in one slot, arrivals run first and the
rest in the order scheduled (no rule reads the order of two nodes' events).
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import CONSTANTS, NetworkConfig, PerformanceReport, Source, TrafficMode, parallel_map

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

# raw PCG64 outputs fetched per refill of a node's buffer; a larger block
# costs light scenarios more than it saves, since they draw little per node
_RAW_BLOCK = 64

_ARRIVAL, _CCA_END, _TX_START, _TX_END, _ACK_START, _ACK_END, _FAIL = range(7)
# taken off an arrival's insertion number, so it runs before any MAC event of its slot
_ARRIVALS_FIRST = 1 << 62


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One simulation campaign: a scenario plus measurement parameters."""

    net: NetworkConfig
    horizon_mini_slots: int
    warmup_mini_slots: int | None = None  # None: 10% of the horizon
    replications: int = 50
    base_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.horizon_mini_slots, int) or self.horizon_mini_slots <= 0:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon_mini_slots}")
        if not isinstance(self.replications, int) or self.replications < 1:
            raise ValueError(f"replications must be a positive integer, got {self.replications}")
        w = self.warmup_mini_slots
        if w is not None and (not isinstance(w, int) or w < 0):
            raise ValueError(f"warmup must be an integer >= 0, got {w}")
        if not isinstance(self.base_seed, int) or self.base_seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.base_seed}")

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
    estimators. Values an identity gives are not stored: the frames
    serviced in the window are the three w_* outcomes summed, and the
    payload delivered is w_deliveries * 2L symbols.
    """

    arrivals: int = 0
    blocked_arrivals: int = 0
    deliveries: int = 0
    access_fail_drops: int = 0
    retry_fail_drops: int = 0
    in_system_at_end: int = 0
    events: int = 0  # events run before the window's end; a CCA is one, at its end

    w_deliveries: int = 0
    w_access_fail_drops: int = 0
    w_retry_fail_drops: int = 0
    cca_starts: int = 0
    cca_busy: int = 0
    channel_busy_symbols: int = 0
    duplicate_deliveries: int = 0
    service_sum_delivered: float = 0.0
    sojourn_sum_delivered: float = 0.0  # wait + service
    service_sum_all: float = 0.0
    sojourn_sum_all: float = 0.0

    def conservation_ok(self) -> bool:
        completed = self.deliveries + self.access_fail_drops + self.retry_fail_drops
        return self.arrivals == self.blocked_arrivals + completed + self.in_system_at_end


class _Node:
    """One node's MAC state and its private random stream.

    Draws are taken from raw PCG64 outputs, fetched in blocks, and reproduce
    numpy's Generator stream exactly: Generator.integers(0, 2**be) is the top
    be bits of the next 32-bit half (the low half of a fresh raw output, then
    its saved high half), and Generator.random() is (raw >> 11) * 2**-53 of a
    fresh raw output, leaving a saved half in place.
    """

    __slots__ = (
        "bitgen", "raw", "half", "queue", "frame_arrival", "frame_start",
        "sink_seen", "busy", "nb", "be", "retries", "mark", "hit",
    )

    def __init__(self, bitgen: np.random.PCG64):
        self.bitgen = bitgen
        self.raw: list[int] = []  # buffered raw outputs, next one last
        self.half = -1  # saved high 32-bit half, -1 when none
        self.queue: list[int] = []
        self.busy = False  # a frame is in service
        self.frame_arrival = 0
        self.frame_start = 0
        self.sink_seen = False
        self.nb = 0
        self.be = _MIN_BE
        self.retries = 0
        # for the current transmission: n_starts just after it began, and
        # whether a transmission already on air overlapped its start
        self.mark = 0
        self.hit = False

    def next_raw(self) -> int:
        raw = self.raw
        if not raw:
            raw = self.raw = self.bitgen.random_raw(_RAW_BLOCK).tolist()
            raw.reverse()
        return raw.pop()

    def draw_backoff(self) -> int:
        """A uniform backoff of 0 .. 2**be - 1 periods, in mini-slots."""
        v = self.half
        if v < 0:
            v = self.next_raw()
            self.half = v >> 32
            v &= 0xFFFFFFFF
        else:
            self.half = -1
        return _BACKOFF_PERIOD * (v >> (32 - self.be))

    def next_arrival(self, after: int, p: float) -> int | None:
        """Slot of the first Bernoulli(p) success at or after `after`; None if p is 0."""
        if p <= 0.0:
            return None
        if p >= 1.0:
            return after
        u = 1.0 - (self.next_raw() >> 11) * 2.0**-53  # in (0, 1]
        gap = math.log(u) / math.log1p(-p)  # infinite when p is subnormal
        return after + int(gap) if gap < math.inf else None


class _ScriptedNode(_Node):
    """A node with given arrival slots and/or backoff draws (test hook).

    arrivals None keeps the Bernoulli process; backoffs fall back to random
    draws once the list runs out.
    """

    __slots__ = ("arrivals", "backoffs")

    def __init__(self, bitgen, arrivals: list[int] | None, backoffs: list[int] | None):
        super().__init__(bitgen)
        self.arrivals = arrivals
        self.backoffs = backoffs

    def draw_backoff(self) -> int:
        if self.backoffs:
            return _BACKOFF_PERIOD * self.backoffs.pop(0)
        return super().draw_backoff()

    def next_arrival(self, after: int, p: float) -> int | None:
        if self.arrivals is None:
            return super().next_arrival(after, p)
        return self.arrivals.pop(0) if self.arrivals else None


class _TraceFull(Exception):
    """A traced replication wrote its last allowed trace line."""


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

    With a trace_sink and max_trace > 0, one line per event (and per backoff
    draw and frame outcome) is appended to trace_sink, and the replication
    stops by raising _TraceFull once trace_sink holds max_trace lines.

    arrival_schedule/backoff_schedule are test hooks: explicit arrival slots
    per node (replacing the Bernoulli process) and explicit backoff draws in
    backoff periods (replacing the uniform draws).
    """
    N = net.N
    M = net.M
    two_l = net.frame_symbols
    sat = net.mode is TrafficMode.SATURATED
    p_arr = net.p_arrival
    w_start, w_end = warmup, warmup + horizon

    streams = [np.random.PCG64(np.random.SeedSequence((seed, i))) for i in range(N)]
    if arrival_schedule is None and backoff_schedule is None:
        nodes = [_Node(bg) for bg in streams]
    else:
        nodes = [
            _ScriptedNode(
                bg,
                None if arrival_schedule is None else sorted(arrival_schedule.get(i, [])),
                None if backoff_schedule is None or i not in backoff_schedule
                else list(backoff_schedule[i]),
            )
            for i, bg in enumerate(streams)
        ]
    c = SimCounters()
    # the hottest window tallies live in locals and are stored in c at the end
    cca_starts = cca_busy = channel_busy_symbols = 0

    # events are (time, insertion number, kind, node): equal times pop in
    # insertion order, arrivals first
    heap: list[tuple[int, int, int, int]] = []
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    seq = itertools.count().__next__

    tracing = trace_sink is not None and max_trace > 0

    def emit(t: int, node: int, event: str, detail: str):
        trace_sink.append(f"{t}\t{node}\t{event}\t{detail}")
        if len(trace_sink) >= max_trace:
            raise _TraceFull

    # The channel. air_end is the latest end of any transmission started so
    # far; one gone from the air ended at or before now, so air_end > t says
    # one on air overlaps slot t. n_air transmissions are on air; n_starts
    # counts the starts, start_slot is the latest's slot, and n_before and
    # air_before are n_starts and air_end just before its first start.
    air_end = air_before = n_air = n_starts = n_before = start_slot = 0
    busy_since = 0  # start slot of the channel-busy interval while n_air > 0

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
        if tracing:
            emit(t, i, "backoff", f"delay={delay}")
        heappush(heap, (t + delay + _CCA, seq(), _CCA_END, i))

    def frame_done(i: int, t: int, outcome: str):
        nd = nodes[i]
        service = t - nd.frame_start
        wait = nd.frame_start - nd.frame_arrival
        if outcome == "deliver":
            c.deliveries += 1
        elif outcome == "access_drop":
            c.access_fail_drops += 1
        else:
            c.retry_fail_drops += 1
        if t >= w_start:  # events run only before w_end
            c.service_sum_all += service
            c.sojourn_sum_all += service + wait
            if outcome == "deliver":
                c.w_deliveries += 1
                c.service_sum_delivered += service
                c.sojourn_sum_delivered += service + wait
            elif outcome == "access_drop":
                c.w_access_fail_drops += 1
            else:
                c.w_retry_fail_drops += 1
        if tracing:
            emit(t, i, outcome, f"service={service}")
        nd.busy = False
        if sat:
            c.arrivals += 1
            start_service(i, t, t)
        elif nd.queue:
            start_service(i, t, nd.queue.pop(0))

    def schedule_arrival(i: int, after: int):
        t_next = nodes[i].next_arrival(after, p_arr)
        if t_next is not None:
            heappush(heap, (t_next, seq() - _ARRIVALS_FIRST, _ARRIVAL, i))

    for i in range(N):
        if sat:
            c.arrivals += 1
            start_service(i, 0, 0)
        else:
            schedule_arrival(i, 0)

    # A handler that ends by scheduling its own node's next event sets held_t
    # and held_kind instead of pushing it, and the held event runs next
    # without a trip through the heap. If the heap holds an event at held_t or
    # earlier, that event must run first (at the same slot it is an arrival or
    # was inserted first), so it swaps places with the held event.
    held_kind = -1  # -1: nothing held
    held_t = n_held = 0
    while True:
        if held_kind >= 0:  # same node i, nd as the event that held it
            t = held_t
            kind = held_kind
            held_kind = -1
            n_held += 1
        elif heap:
            t, _, kind, i = heappop(heap)
            nd = nodes[i]
        else:
            break
        if t >= w_end:  # not run: back among the unrun events
            heap.append((t, 0, kind, i))
            break

        if kind == _CCA_END:
            s = t - _CCA  # the CCA's start
            if s >= w_start:
                cca_starts += 1
            # busy when the latest end among transmissions started before t
            # lies after s; a start at slot t does not overlap [s, t)
            if (air_end if start_slot < t else air_before) > s:
                if s >= w_start:
                    cca_busy += 1
                if tracing:
                    emit(t, i, "cca_result", "busy")
                nd.nb += 1
                if nd.be < _MAX_BE:
                    nd.be += 1
                if nd.nb > _MAX_NB:
                    frame_done(i, t, "access_drop")
                else:
                    delay = nd.draw_backoff()
                    if tracing:
                        emit(t, i, "backoff", f"delay={delay}")
                    held_t = t + delay + _CCA
                    held_kind = _CCA_END
            else:
                held_t = t + _TURN
                held_kind = _TX_START
                if tracing:
                    emit(t, i, "cca_result", "idle")

        elif kind == _TX_START or kind == _ACK_START:
            if kind == _TX_START:
                held_t = t + two_l
                held_kind = _TX_END
            else:
                held_t = t + _ACK_LEN
                held_kind = _ACK_END
            nd.hit = air_end > t
            if t > start_slot:
                start_slot = t
                n_before = n_starts
                air_before = air_end
            if held_t > air_end:
                air_end = held_t
            n_starts += 1
            nd.mark = n_starts
            if not n_air:
                busy_since = t
            n_air += 1
            if tracing:
                emit(t, i, "tx_start" if kind == _TX_START else "ack_start", f"until={held_t}")

        elif kind == _TX_END or kind == _ACK_END:
            n_air -= 1
            if not n_air:  # the channel-busy interval closes
                lo = busy_since if busy_since > w_start else w_start
                if t > lo:
                    channel_busy_symbols += t - lo
            # a start at slot t is not counted: it does not overlap [s, t)
            collided = nd.hit or (n_starts if start_slot < t else n_before) > nd.mark
            if kind == _TX_END:
                if tracing:
                    emit(t, i, "tx_end", f"collided={int(collided)}")
                if collided:
                    held_t = t + _ACK_TIMEOUT
                    held_kind = _FAIL
                else:
                    # sink got the frame; note repeats of one already received
                    if nd.sink_seen and t >= w_start:
                        c.duplicate_deliveries += 1
                    nd.sink_seen = True
                    held_t = t + _ACK_GAP
                    held_kind = _ACK_START
            else:
                if tracing:
                    emit(t, i, "ack_end", f"collided={int(collided)}")
                if collided:
                    # the timeout runs from the data end, _ACK_GAP + _ACK_LEN ago
                    held_t = t - _ACK_GAP - _ACK_LEN + _ACK_TIMEOUT
                    held_kind = _FAIL
                else:
                    frame_done(i, t, "deliver")

        elif kind == _ARRIVAL:
            c.arrivals += 1
            if not nd.busy:
                if tracing:
                    emit(t, i, "arrive", "queue=0")
                start_service(i, t, t)
            elif 1 + len(nd.queue) < M:
                nd.queue.append(t)
                if tracing:
                    emit(t, i, "arrive", f"queue={len(nd.queue)}")
            else:
                c.blocked_arrivals += 1
                if tracing:
                    emit(t, i, "blocked", f"queue={len(nd.queue)}")
            schedule_arrival(i, t + 1)

        else:  # _FAIL
            nd.retries += 1
            if nd.retries > _MAX_RETRIES:
                frame_done(i, t, "retry_drop")
            else:
                if tracing:
                    emit(t, i, "retry", f"count={nd.retries}")
                nd.nb = 0
                nd.be = _MIN_BE
                delay = nd.draw_backoff()
                if tracing:
                    emit(t, i, "backoff", f"delay={delay}")
                held_t = t + delay + _CCA
                held_kind = _CCA_END

        if held_kind >= 0 and heap and heap[0][0] <= held_t:
            held_t, _, held_kind, i = heapreplace(heap, (held_t, seq(), held_kind, i))
            nd = nodes[i]
            n_held -= 1  # counted once already, when it was pushed

    if n_air:  # close the busy interval still open at the end of the window
        lo = busy_since if busy_since > w_start else w_start
        if w_end > lo:
            channel_busy_symbols += w_end - lo
    # a CCA that started in the window and ends at or after its end counts too
    c.cca_starts = cca_starts + sum(
        kind == _CCA_END and w_start <= t - _CCA < w_end for t, _, kind, _ in heap)
    c.cca_busy = cca_busy
    c.channel_busy_symbols = channel_busy_symbols
    c.in_system_at_end = sum(int(nd.busy) + len(nd.queue) for nd in nodes)
    c.events = seq() + n_held - len(heap)  # pushed or held, less unrun
    return c


def _estimates(c: SimCounters, net: NetworkConfig, horizon: int) -> dict[str, float]:
    """Point estimates of one replication; NaN marks undefined values."""
    nan = math.nan
    completed = c.w_deliveries + c.w_access_fail_drops + c.w_retry_fail_drops
    est = {
        "tau": c.cca_starts / (net.N * horizon),
        "a": c.cca_busy / c.cca_starts if c.cca_starts else nan,
        "TH": c.w_deliveries * net.frame_symbols / horizon,
        "PS": c.w_deliveries / completed if completed else nan,
        "TS": c.service_sum_delivered / c.w_deliveries if c.w_deliveries else nan,
        "TVS": c.service_sum_all / completed if completed else nan,
    }
    if net.mode is TrafficMode.UNSATM:
        est["TSW"] = c.sojourn_sum_delivered / c.w_deliveries if c.w_deliveries else nan
        est["TVSW"] = c.sojourn_sum_all / completed if completed else nan
    return est


def _one_replication(args) -> dict[str, float]:
    net, horizon, warmup, seed, rep = args
    counters = run_replication(net, horizon, warmup, seed)
    if not counters.conservation_ok():  # pragma: no cover - engine invariant
        raise AssertionError(f"frame conservation violated in replication {rep}")
    return _estimates(counters, net, horizon)


# t quantile 0.975 for nu = 1..30 degrees of freedom
_T975 = (
    12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912, 2.364624,
    2.306004, 2.262157, 2.228139, 2.200985, 2.178813, 2.160369, 2.144787,
    2.131450, 2.119905, 2.109816, 2.100922, 2.093024, 2.085963, 2.079614,
    2.073873, 2.068658, 2.063899, 2.059539, 2.055529, 2.051831, 2.048407,
    2.045230, 2.042272,
)
_Z975 = 1.959963984540054


def t975(nu: int) -> float:
    """Student-t 0.975 quantile with nu >= 1 degrees of freedom.

    Exact to 1e-6 from a table up to nu = 30; above, the Cornish-Fisher
    expansion about the normal quantile, within 1e-4 of the exact value.
    """
    if nu < 1:
        raise ValueError("need at least one degree of freedom")
    if nu <= len(_T975):
        return _T975[nu - 1]
    z = _Z975
    return z + (z**3 + z) / (4 * nu) + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * nu * nu)


def run(cfg: SimConfig, jobs: int = 1) -> PerformanceReport:
    """Means and Student-t 95% half-widths over all replications; None where none defines one."""
    work = [
        (cfg.net, cfg.horizon_mini_slots, cfg.warmup, cfg.base_seed + rep, rep)
        for rep in range(cfg.replications)
    ]
    per_metric: dict[str, list[float]] = {}
    for est in parallel_map(_one_replication, work, jobs):
        for name, value in est.items():
            per_metric.setdefault(name, []).append(value)

    means: dict[str, float | None] = {}
    ci: dict[str, float] = {}
    for name, values in per_metric.items():
        clean = [v for v in values if not math.isnan(v)]
        means[name] = float(np.mean(clean)) if clean else None
        if len(clean) >= 2:  # one value gives no interval: the name stays out of ci
            t = t975(len(clean) - 1)
            ci[name] = float(t * np.std(clean, ddof=1) / math.sqrt(len(clean)))
    return PerformanceReport(**means, source=Source.SIMULATED, ci95=ci)


def trace(cfg: SimConfig, max_events: int = 1000) -> list[str]:
    """Seed-reproducible event log of replication 0, one line per event.

    Line format: mini-slot, node, event, detail, tab-separated. The
    replication stops at the max_events-th line.
    """
    if max_events < 0:
        raise ValueError(f"trace events must be >= 0, got {max_events}")
    lines: list[str] = []
    if max_events == 0:
        return lines
    try:
        run_replication(
            cfg.net, cfg.horizon_mini_slots, cfg.warmup, cfg.base_seed,
            trace_sink=lines, max_trace=max_events,
        )
    except _TraceFull:
        pass
    return lines
