"""Service outcome probabilities and delays vs exact arithmetic and enumeration."""
from fractions import Fraction

import numpy as np
import pytest

from star154.analytical import solve
from star154.core import NetworkConfig, T1_SYMBOLS, TrafficMode, quiet_prob
from star154.metrics import (
    attempt_probs,
    delays,
    queue_adjusted,
    reliability,
    report,
    retry_probs,
    service_times,
)

from oracles import exact_service_times, outcome_tree


# -- service times ------------------------------------------------------------

def test_clean_channel_attempt_durations():
    for L in (30, 50, 100, 127):
        T1, T2, T3 = service_times(0.0, L)
        assert T1 == 1190.0
        assert T2 == 132 + 2 * L
        assert T3 == 144 + 2 * L


def test_service_times_match_exact_arithmetic():
    for a, L in [(Fraction(1, 2), 100), (Fraction(3, 10), 50), (Fraction(9, 10), 30)]:
        t2, t3 = exact_service_times(a, L)
        _, T2, T3 = service_times(float(a), L)
        assert abs(T2 - float(t2)) < 1e-10 * float(t2)
        assert abs(T3 - float(t3)) < 1e-10 * float(t3)


def test_service_times_ordering():
    # a retry cycle costs one extra backoff window and the ACK timeout
    rng = np.random.Generator(np.random.PCG64(88001))
    for _ in range(200):
        a = float(rng.uniform(0.0, 0.999))
        L = int(rng.integers(30, 128))
        _, T2, T3 = service_times(a, L)
        assert T3 > T2 > 0.0


def test_service_times_reject_saturated_busy():
    for a in (1.0, 1.5, -0.25, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="a must be in"):
            service_times(a, 100)
    for L in (0, -3):
        with pytest.raises(ValueError, match="frame length must be"):
            service_times(0.5, L)


# -- single-attempt outcomes --------------------------------------------------

def test_attempt_probs_extremes():
    assert attempt_probs(0.0, 1.0) == (1.0, 0.0, 0.0)
    assert attempt_probs(1.0, 1.0) == (0.0, 1.0, 0.0)
    assert attempt_probs(0.0, 0.0) == (0.0, 0.0, 1.0)


def test_attempt_probs_reject_out_of_range():
    for bad in (1.5, -0.25, float("nan"), float("inf")):
        for a, k in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError, match="probabilities out of range"):
                attempt_probs(a, k)


def test_attempt_probs_sum_to_one_exactly():
    rng = np.random.Generator(np.random.PCG64(88002))
    for _ in range(2000):
        PSuc, PAcc, PColl = attempt_probs(float(rng.random()), float(rng.random()))
        assert abs(PSuc + PAcc + PColl - 1.0) < 1e-15
        assert min(PSuc, PAcc, PColl) >= 0.0


# -- retry-stage decomposition ------------------------------------------------

def test_retry_probs_telescoping():
    rng = np.random.Generator(np.random.PCG64(88003))
    for _ in range(2000):
        PSuc, PAcc, PColl = attempt_probs(float(rng.random()), float(rng.random()))
        rp = retry_probs(PSuc, PAcc, PColl)
        assert abs(sum(rp[:4]) - PSuc) < 1e-15
        assert abs(sum(rp[4:8]) - PAcc) < 1e-15
        assert rp[8:] == (PColl, PColl**2, PColl**3, PColl**4)


def test_retry_probs_collision_free():
    rp = retry_probs(*attempt_probs(0.5, 1.0))
    # no collisions: everything resolves at stage 0
    assert rp[1:4] == (0.0, 0.0, 0.0)
    assert rp[5:8] == (0.0, 0.0, 0.0)
    assert rp[8:] == (0.0, 0.0, 0.0, 0.0)


def test_reliability_closed_form():
    ap = attempt_probs(0.0, 0.0)  # PColl = 1
    with np.errstate(all="ignore"):
        rp = retry_probs(*ap)
    assert reliability(rp) == 0.0
    # hand-built case: PSuc=0.7, PAcc=0.1, PColl=0.2
    rp = retry_probs(0.7, 0.1, 0.2)
    want = 0.7 / (0.7 + 0.1 + 0.2**4)
    assert abs(reliability(rp) - want) < 1e-15


def test_retry_chain_rejects_bad_inputs():
    nan, inf = float("nan"), float("inf")
    for bad in ((2.0, -1.0, 0.0), (nan, 0.5, 0.5), (0.5, 0.5, 1.5), (0.5, nan, 0.5)):
        with pytest.raises(ValueError, match="probabilities out of range"):
            reliability(retry_probs(*bad))
    rp = retry_probs(0.5, 0.3, 0.2)
    for stages in (rp[:11], rp + (0.0,), ()):
        with pytest.raises(ValueError, match="need 12 retry stages"):
            reliability(stages)
        with pytest.raises(ValueError, match="need 12 retry stages"):
            delays(stages, 1190.0, 300.0, 320.0)
    for i, bad in ((0, -2.5), (1, -0.1), (8, 1.5), (4, nan), (11, nan)):
        stages = rp[:i] + (bad,) + rp[i + 1:]
        with pytest.raises(ValueError, match="retry stages out of range"):
            reliability(stages)
        with pytest.raises(ValueError, match="retry stages out of range"):
            delays(stages, 1190.0, 300.0, 320.0)
    for T in ((nan, 300.0, -5.0), (1190.0, inf, 300.0), (1190.0, 300.0, 0.0), (-1.0, 300.0, 320.0),
              (inf, 300.0, 320.0), (1190.0, 300.0, nan)):
        with pytest.raises(ValueError, match="durations must be finite and > 0"):
            delays(rp, *T)


def test_reliability_grid_identity():
    rng = np.random.Generator(np.random.PCG64(88004))
    for _ in range(2000):
        PSuc, PAcc, PColl = attempt_probs(float(rng.random()), float(rng.random()))
        rp = retry_probs(PSuc, PAcc, PColl)
        want = PSuc / (PSuc + PAcc + PColl**4)
        assert abs(reliability(rp) - want) < 1e-12


# -- delays -------------------------------------------------------------------

def test_delays_collision_free_case():
    T1, T2, T3 = service_times(0.3, 100)
    rp = retry_probs(*attempt_probs(0.3, 1.0))
    TS, TVS = delays(rp, T1, T2, T3)
    # with PColl = 0 every delivered frame takes exactly T2, and the mix of
    # deliveries and access drops fixes TVS
    assert abs(TS - T2) < 1e-12
    a5 = 0.3**5
    want = ((1 - a5) * T2 + a5 * T1) / 1.0
    assert abs(TVS - want) < 1e-10


def test_delays_no_delivery_means_no_TS():
    rp = retry_probs(*attempt_probs(0.0, 0.0))  # PColl = 1
    T1, T2, T3 = service_times(0.0, 100)
    TS, TVS = delays(rp, T1, T2, T3)
    assert TS is None
    assert abs(TVS - 4 * T3) < 1e-12


def test_delays_match_outcome_tree_enumeration():
    rng = np.random.Generator(np.random.PCG64(88005))
    drawn = [(float(rng.uniform(0.0, 0.95)), float(rng.random()), int(rng.integers(30, 128)))
             for _ in range(500)]
    # no collision, certain collision, no busy channel, and a just below 1
    edges = [(a, k, L) for a, k in ((0.0, 1.0), (0.0, 0.0), (0.5, 1.0), (1.0 - 2**-53, 0.5),
                                    (0.3, 1e-300)) for L in (1, 30, 127)]
    for a, k, L in drawn + edges:
        ap = attempt_probs(a, k)
        st = service_times(a, L)
        rp = retry_probs(*ap)
        ps_t, ts_t, tvs_t = outcome_tree(*ap, *st)
        TS, TVS = delays(rp, *st)
        assert abs(reliability(rp) - ps_t) < 1e-10 * max(ps_t, 1e-30)
        if ts_t is None:
            assert TS is None
        else:
            assert abs(TS - ts_t) < 1e-10 * ts_t
        assert abs(TVS - tvs_t) < 1e-10 * tvs_t


def test_queue_adjusted_offsets():
    assert queue_adjusted(100.0, 200.0, 50.0) == (150.0, 250.0)
    assert queue_adjusted(None, 200.0, 50.0) == (None, 250.0)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="wait must be"):
            queue_adjusted(10.0, 20.0, bad)
    for TS, TVS in ((float("nan"), 20.0), (float("inf"), 20.0), (-10.0, 20.0), (10.0, float("inf")),
                    (10.0, float("nan")), (10.0, 0.0), (None, float("inf"))):
        with pytest.raises(ValueError, match="service delays must be"):
            queue_adjusted(TS, TVS, 1.0)


# -- full report --------------------------------------------------------------

def test_report_composition_single_buffer():
    cfg = NetworkConfig(N=10, L=100, mode=TrafficMode.UNSAT1, r=0.05)
    fp = solve(cfg)
    rep = report(cfg, fp)
    assert rep.tau == fp.tau and rep.a == fp.a
    assert rep.TSW is None and rep.TVSW is None
    # recompute each metric from the fixed point by hand
    st = service_times(fp.a, cfg.L)
    rp = retry_probs(*attempt_probs(fp.a, quiet_prob(fp.tau, cfg.N)))
    TS, TVS = delays(rp, *st)
    assert rep.PS == reliability(rp)
    assert rep.TS == TS and rep.TVS == TVS
    assert rep.TS < rep.TVS  # drops cost more than deliveries here


def test_report_composition_multibuffer_adds_wait():
    cfg = NetworkConfig(N=10, L=100, mode=TrafficMode.UNSATM, r=0.05, M=5)
    rep = report(cfg, solve(cfg))
    assert rep.TSW is not None and rep.TVSW is not None
    assert rep.TSW > rep.TS and rep.TVSW > rep.TVS
    assert abs((rep.TSW - rep.TS) - (rep.TVSW - rep.TVS)) < 1e-9


def test_report_refuses_unconverged_input():
    from star154.analytical import FixedPoint

    cfg = NetworkConfig(N=10, L=100, mode=TrafficMode.UNSAT1, r=0.05)
    fp = FixedPoint(tau=0.1, a=0.5, iterations=1, residual=1.0, converged=False)
    with pytest.raises(ValueError):
        report(cfg, fp)
