"""Protocol constants, configuration validation, and elementary probabilities."""
import ast
import dataclasses
import inspect
import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from star154 import analytical, core, metrics
from star154.analytical import _channel, _scenario
from star154.dataset import SweepSpec, generate_grid
from star154.simulator import run_replication
from star154.core import (
    CONSTANTS,
    NetworkConfig,
    T1_SYMBOLS,
    TrafficMode,
    attempt_terms,
    quiet_prob,
)

from oracles import channel_state_table, exact_total_T


def test_backoff_windows_follow_exponent_rule():
    for i, w in enumerate(CONSTANTS.backoffWindows):
        assert w == 2 ** min(3 + i, 5)
    assert CONSTANTS.backoffWindows == (8, 16, 32, 32, 32)


def test_mean_backoffs_are_half_window_spans():
    for w, b in zip(CONSTANTS.backoffWindows, CONSTANTS.meanBackoffs):
        assert b == (w - 1) * CONSTANTS.unitBackoffPeriod // 2
    assert CONSTANTS.meanBackoffs == (70, 150, 310, 310, 310)


def test_discard_path_duration_is_1190():
    assert T1_SYMBOLS == sum((70, 150, 310, 310, 310)) + 5 * 8 == 1190


def test_derived_coefficients_equal_the_printed_integers():
    assert core.ATTEMPT_STEPS == (78, 158, 318, 318, 318)
    assert (core.SUCCESS_TAIL, core.COLLISION_TAIL, core.ACK_WAIT_SAVING) == (54, 66, 12)
    assert (core.CLEAN_SUCCESS_SYMBOLS, core.CLEAN_COLLISION_SYMBOLS) == (132, 144)
    assert core.T2_COEFFS == (132, 158, 318, 318, 318, 1244)
    c = CONSTANTS
    assert (core.CCA_LIMIT, core.RETRY_LIMIT) == (c.macMaxCSMABackoffs + 1,
                                                  c.aMaxFrameRetries + 1) == (5, 4)
    assert core.WAIT_STATES == c.aTurnaroundTime == 12
    assert core.ACK_SUC_SYMBOLS == c.ackFrameSymbols - c.aTurnaroundTime == 10
    assert (core.ACK_FAIL_POWER, core.ACK_SUC_POWER) == (c.aTurnaroundTime + 1,
                                                         2 * c.aTurnaroundTime + 1) == (13, 25)
    assert core.CLEAN_CCA_STARTS == core.IDLE1_SYMBOLS - c.ccaSymbols + 1 == 12
    # printed in the paper, not derived
    assert (core.IDLE1_SYMBOLS, core.FAIL_EXTRA_SYMBOLS, core.K_POWER) == (19, 6, 26)
    assert core.T3_PRINTED_COEFFS == (144, 170, 330, 330, 330, 1256)


def _first_attempt_fails_after_a_clean_cca(L: int, d: int) -> bool:
    """Two nodes: A's CCA starts at t0 and B's at t0 + d. Does A's first attempt, made after
    an idle CCA, fail? B's retries back off 40 periods each, out of A's way."""
    t0, lines = 1000, []
    run_replication(NetworkConfig(N=2, L=L, mode=TrafficMode.UNSAT1, r=1e-9), t0 + 3000, 0,
                    seed=0, trace_sink=lines, max_trace=200,
                    arrival_schedule={0: [t0], 1: [t0 + d]},
                    backoff_schedule={0: [0], 1: [0] + [40] * 8})
    events = [line.split("\t")[2:] for line in lines if line.split("\t")[1] == "0"]
    cca = next(detail for event, detail in events if event == "cca_result")
    outcome = next(event for event, _ in events if event in ("retry", "deliver"))
    return cca == "idle" and outcome == "retry"


@pytest.mark.parametrize("L", [30, 100])
def test_simulated_collision_windows_beside_the_printed_constants(L):
    # the offsets of B's CCA start from A's at which A's attempt collides: B's ACK over
    # A's data, the two frames on air together, B's data over A's ACK
    offsets = [d for d in range(-2 * L - 60, 2 * L + 61)
               if _first_attempt_fails_after_a_clean_cca(L, d)]
    ack = list(range(2 * L + 20, 2 * L + 33))
    assert offsets == [-d for d in reversed(ack)] + list(range(-12, 13)) + ack
    # the simulator's rule spans 13 + 25 + 13 = 51 offsets; the printed power is 26
    assert (len(offsets), core.K_POWER) == (51, 26)
    # T3's printed coefficients are T2's plus ACK_WAIT_SAVING on all six, while the
    # collided attempt's own sum adds it to c0 and c5 only; so at a = 1 the printed
    # numerator exceeds T2's by the four middle additions
    saving, (c0, c1, c2, c3, c4, c5) = core.ACK_WAIT_SAVING, core.T2_COEFFS
    assert core.T3_PRINTED_COEFFS == tuple(c + saving for c in core.T2_COEFFS)
    assert (c0 + saving, c1, c2, c3, c4, c5 + saving) == (core.CLEAN_COLLISION_SYMBOLS,
                                                         *core.ATTEMPT_STEPS[1:],
                                                         core.T1_SYMBOLS + core.COLLISION_TAIL)
    numerator = lambda c: sum(c[:5]) - c[5]
    assert (numerator(core.T2_COEFFS), numerator(core.T3_PRINTED_COEFFS)) == (0, 4 * saving)
    assert 4 * saving == 48


def test_cycle_totals_collect_the_state_table():
    # the chain's durations, named in core, are the oracle's literal ones
    durations = [(name, d) for name, d, _ in channel_state_table(Fraction(1, 10), 5, 30)]
    assert [(name, d) for name, d, _ in analytical.channel_stationary(0.1, 5, 30).states] == durations
    # the named totals reproduce the oracle's state-by-state sum in exact arithmetic
    assert (core.CYCLE_ONE, core.CYCLE_X, core.CYCLE_YZN, core.CYCLE_YZ_ACK) == (80, 79, 7, 50)
    for tau, n, l in ((Fraction(1, 10), 5, 30), (Fraction(3, 7), 2, 127), (Fraction(1, 999), 40, 1)):
        z = (1 - tau) ** (n - 1)
        x, y = (1 - tau) * z, n * tau * z
        T = (2 * l + core.CYCLE_ONE - (2 * l + core.CYCLE_X) * x
             + y * sum(z**j for j in range(core.ACK_SUC_POWER))
             + (2 * l + core.CYCLE_YZN) * y * z**core.WAIT_STATES
             - (2 * l + core.CYCLE_YZ_ACK) * y * z**core.ACK_SUC_POWER)
        assert T == exact_total_T(tau, n, l)


def _protocol_numbers() -> set[int]:
    """Every integer above 3 that CONSTANTS or a constant name in core holds."""
    values = [getattr(CONSTANTS, f.name) for f in dataclasses.fields(CONSTANTS)]
    for name in filter(str.isupper, dir(core)):
        value = getattr(core, name)
        values += value if isinstance(value, tuple) else [value]
    return {v for v in values if type(v) is int and v > 3}


@pytest.mark.parametrize("module", [analytical, metrics], ids=["analytical", "metrics"])
def test_closed_forms_take_their_protocol_numbers_from_core(module):
    # a number of the protocol written as a literal would be a second source;
    # positions in a tuple (subscripts) are not protocol numbers
    tree = ast.parse(inspect.getsource(module))
    positions = {id(n) for s in ast.walk(tree) if isinstance(s, ast.Subscript)
                 for n in ast.walk(s.slice)}
    protocol = _protocol_numbers()
    assert {12, 19, 25, 26, 54, 80} <= protocol
    literals = [(node.lineno, node.value) for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and type(node.value) in (int, float)
                and node.value in protocol and id(node) not in positions]
    assert literals == []


def test_constants_are_immutable():
    with pytest.raises(AttributeError):
        CONSTANTS.macMinBE = 4  # type: ignore[misc]


def test_config_mode_buffer_rules():
    NetworkConfig(N=2, L=100, mode=TrafficMode.UNSAT1, r=0.05, M=1)
    with pytest.raises(ValueError):
        NetworkConfig(N=2, L=100, mode=TrafficMode.UNSAT1, r=0.05, M=2)
    with pytest.raises(ValueError):
        NetworkConfig(N=2, L=100, mode=TrafficMode.UNSATM, r=0.05, M=1)
    NetworkConfig(N=2, L=100, mode=TrafficMode.UNSATM, r=0.05, M=2)
    with pytest.raises(ValueError):
        NetworkConfig(N=0, L=100, mode=TrafficMode.SATURATED)
    with pytest.raises(ValueError):
        NetworkConfig(N=2, L=100, mode=TrafficMode.UNSAT1, r=-0.1)
    # sat keys one row per scenario, as unsat1 does; SweepSpec collapses their M axis
    for mode in (TrafficMode.SATURATED, TrafficMode.UNSAT1):
        for M in (7, 0, -2):
            with pytest.raises(ValueError, match=f"mode {mode.value} has one buffer: M must be 1"):
                NetworkConfig(N=3, L=30, mode=mode, r=0.05, M=M)
    for M in (0, -3):
        with pytest.raises(ValueError, match="multi-buffer mode requires M > 1"):
            NetworkConfig(N=3, L=30, mode=TrafficMode.UNSATM, r=0.05, M=M)
    NetworkConfig(N=3, L=30, mode=TrafficMode.UNSATM, r=0.05, M=core.MAX_BUFFER)
    with pytest.raises(ValueError, match=f"exceeds the cap of {core.MAX_BUFFER} frames"):
        NetworkConfig(N=3, L=30, mode=TrafficMode.UNSATM, r=0.05, M=core.MAX_BUFFER + 1)


@pytest.mark.parametrize("mode", ["sat", TrafficMode.SATURATED, "unsatm", "bogus", 3])
def test_config_and_sweep_store_the_mode_enum_from_the_enum_or_its_value(mode):
    rate, buffer = (0.05, 3) if mode == "unsatm" else (0.0, 1)
    if mode not in {m.value for m in TrafficMode}:
        for make in (lambda: NetworkConfig(N=10, L=50, mode=mode),
                     lambda: SweepSpec(mode=mode, N_values=(10,), L_values=(50,),
                                       r_values=(0.05,), M_values=(1,))):
            with pytest.raises(ValueError, match="is not a valid TrafficMode"):
                make()
        return
    cfg = NetworkConfig(N=10, L=50, mode=mode, r=rate, M=buffer)
    spec = SweepSpec(mode=mode, N_values=(10,), L_values=(50,), r_values=(rate,),
                     M_values=(buffer,))
    assert cfg.mode is spec.mode is TrafficMode(mode)
    assert generate_grid(spec) == [cfg]
    typed = dataclasses.replace(cfg, mode=TrafficMode(mode))
    assert analytical.solve(cfg) == analytical.solve(typed)
    if cfg.mode is TrafficMode.SATURATED:  # a plain "sat" once simulated an idle network
        counters = run_replication(cfg, 4000, 400, seed=1)
        assert counters == run_replication(typed, 4000, 400, seed=1)
        assert counters.cca_starts > 0


def test_config_rejects_arrival_probability_above_one():
    # r = 2L is one arrival per mini-slot; more is not a probability
    NetworkConfig(N=2, L=30, mode=TrafficMode.UNSAT1, r=60.0)
    for mode, M in ((TrafficMode.UNSAT1, 1), (TrafficMode.UNSATM, 3)):
        for r in (60.000001, 1e9):
            with pytest.raises(ValueError, match="exceeds 2L"):
                NetworkConfig(N=2, L=30, mode=mode, r=r, M=M)
    # the saturated mode ignores r's size, not its meaning
    NetworkConfig(N=2, L=30, mode=TrafficMode.SATURATED, r=1e9)


@pytest.mark.parametrize("mode", list(TrafficMode))
@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, -1.0])
def test_config_rejects_a_non_finite_or_negative_rate_in_every_mode(mode, r):
    with pytest.raises(ValueError, match="finite and >= 0"):
        NetworkConfig(N=2, L=30, mode=mode, r=r, M=3 if mode is TrafficMode.UNSATM else 1)


@pytest.fixture
def fresh_length_warnings(monkeypatch):
    """No frame length warned about yet, whatever ran earlier in this process."""
    monkeypatch.setattr(core, "_warned_lengths", set())


def test_frame_length_outside_nominal_warns_but_works(caplog, fresh_length_warnings):
    with caplog.at_level(logging.WARNING):
        cfg = NetworkConfig(N=2, L=200, mode=TrafficMode.SATURATED)
    assert cfg.frame_symbols == 400
    assert any("outside nominal" in rec.message for rec in caplog.records)


def test_frame_length_warns_once_per_distinct_length(caplog, fresh_length_warnings):
    spec = SweepSpec(mode=TrafficMode.UNSATM, N_values=tuple(range(2, 502)),
                     L_values=(20, 50, 100, 200), r_values=(0.1,), M_values=(2,))
    with caplog.at_level(logging.WARNING):
        grid = generate_grid(spec)
    assert len(grid) == 2000
    warned = [rec.getMessage() for rec in caplog.records if "outside nominal" in rec.getMessage()]
    assert warned == ["frame length 20 bytes outside nominal [30, 127]",
                      "frame length 200 bytes outside nominal [30, 127]"]


def test_arrival_probability_per_slot():
    cfg = NetworkConfig(N=10, L=100, mode=TrafficMode.UNSAT1, r=0.01)
    assert cfg.p_arrival == 0.01 / 200
    sat = NetworkConfig(N=10, L=100, mode=TrafficMode.SATURATED)
    assert sat.p_arrival == 0.0


def _D(a, k):
    """The per-attempt collision probability PColl of core.attempt_terms."""
    return attempt_terms(a, k)[7]


def test_probs_at_zero_tau():
    k = quiet_prob(0.0, 10)
    assert (k, _D(0.0, k)) == (1.0, 0.0)


def test_probs_at_certain_sensing():
    # tau=1 kills k, x, y; one attempt then surely collides, so D = 1
    k = quiet_prob(1.0, 2)
    assert k == 0.0
    assert _D(0.0, k) == 1.0


def test_probs_direct_evaluation():
    k = quiet_prob(0.5, 2)
    assert k == 0.5
    assert abs(_D(0.5, k) - (1 - 0.5**5) * (1 - 0.5**26)) < 1e-15


def test_probs_identities_on_random_grid():
    rng = np.random.Generator(np.random.PCG64(20240301))
    for _ in range(2000):
        tau = float(rng.random())
        n = int(rng.integers(1, 40))
        k = quiet_prob(tau, n)
        D = _D(float(rng.random()), k)
        x, y, z, _, _ = _channel(tau, _scenario(n, 30))
        assert abs(x - (1 - tau) * k) < 1e-12
        assert x + y <= 1 + 1e-12
        assert z == k
        assert 0.0 <= D <= 1.0


def test_probs_deterministic():
    assert quiet_prob(0.123, 7) == quiet_prob(0.123, 7)
    assert attempt_terms(0.456, 0.789) == attempt_terms(0.456, 0.789)
