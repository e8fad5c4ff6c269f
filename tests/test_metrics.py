"""Service outcome probabilities and delays vs exact arithmetic and enumeration."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from star154 import metrics
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
        st = service_times(0.0, L)
        assert st.T1 == 1190.0
        assert st.T2 == 132 + 2 * L
        assert st.T3 == 144 + 2 * L


def test_service_times_match_exact_arithmetic():
    for a, L in [(Fraction(1, 2), 100), (Fraction(3, 10), 50), (Fraction(9, 10), 30)]:
        t2, t3 = exact_service_times(a, L)
        st = service_times(float(a), L)
        assert abs(st.T2 - float(t2)) < 1e-10 * float(t2)
        assert abs(st.T3 - float(t3)) < 1e-10 * float(t3)


def test_service_times_ordering():
    # a retry cycle costs one extra backoff window and the ACK timeout
    rng = np.random.Generator(np.random.PCG64(88001))
    for _ in range(200):
        a = float(rng.uniform(0.0, 0.999))
        L = int(rng.integers(30, 128))
        st = service_times(a, L)
        assert st.T3 > st.T2 > 0.0


def test_service_times_reject_saturated_busy():
    with pytest.raises(ValueError):
        service_times(1.0, 100)


# -- single-attempt outcomes --------------------------------------------------

def test_attempt_probs_extremes():
    ap = attempt_probs(0.0, 1.0)
    assert (ap.PSuc, ap.PAcc, ap.PColl) == (1.0, 0.0, 0.0)
    ap = attempt_probs(1.0, 1.0)
    assert (ap.PSuc, ap.PAcc, ap.PColl) == (0.0, 1.0, 0.0)
    ap = attempt_probs(0.0, 0.0)
    assert (ap.PSuc, ap.PAcc, ap.PColl) == (0.0, 0.0, 1.0)


def test_attempt_probs_sum_to_one_exactly():
    rng = np.random.Generator(np.random.PCG64(88002))
    for _ in range(2000):
        ap = attempt_probs(float(rng.random()), float(rng.random()))
        assert abs(ap.PSuc + ap.PAcc + ap.PColl - 1.0) < 1e-15
        assert min(ap.PSuc, ap.PAcc, ap.PColl) >= 0.0


# -- retry-stage decomposition ------------------------------------------------

def test_retry_probs_telescoping():
    rng = np.random.Generator(np.random.PCG64(88003))
    for _ in range(2000):
        ap = attempt_probs(float(rng.random()), float(rng.random()))
        rp = retry_probs(ap)
        assert abs(sum(rp.PS) - ap.PSuc) < 1e-15
        assert abs(sum(rp.PC) - ap.PAcc) < 1e-15
        assert rp.PF == (ap.PColl, ap.PColl**2, ap.PColl**3, ap.PColl**4)


def test_retry_probs_collision_free():
    rp = retry_probs(attempt_probs(0.5, 1.0))
    # no collisions: everything resolves at stage 0
    assert rp.PS[1:] == (0.0, 0.0, 0.0)
    assert rp.PC[1:] == (0.0, 0.0, 0.0)
    assert rp.PF == (0.0, 0.0, 0.0, 0.0)


def test_reliability_closed_form():
    ap = attempt_probs(0.0, 0.0)  # PColl = 1
    with np.errstate(all="ignore"):
        rp = retry_probs(ap)
    assert reliability(rp) == 0.0
    # hand-built case: PSuc=0.7, PAcc=0.1, PColl=0.2
    from star154.metrics import AttemptProbs

    rp = retry_probs(AttemptProbs(PSuc=0.7, PAcc=0.1, PColl=0.2))
    want = 0.7 / (0.7 + 0.1 + 0.2**4)
    assert abs(reliability(rp) - want) < 1e-15


def test_reliability_grid_identity():
    rng = np.random.Generator(np.random.PCG64(88004))
    for _ in range(2000):
        ap = attempt_probs(float(rng.random()), float(rng.random()))
        rp = retry_probs(ap)
        want = ap.PSuc / (ap.PSuc + ap.PAcc + ap.PColl**4)
        assert abs(reliability(rp) - want) < 1e-12


# -- delays -------------------------------------------------------------------

def test_delays_collision_free_case():
    st = service_times(0.3, 100)
    rp = retry_probs(attempt_probs(0.3, 1.0))
    TS, TVS = delays(rp, st)
    # with PColl = 0 every delivered frame takes exactly T2, and the mix of
    # deliveries and access drops fixes TVS
    assert abs(TS - st.T2) < 1e-12
    a5 = 0.3**5
    want = ((1 - a5) * st.T2 + a5 * st.T1) / 1.0
    assert abs(TVS - want) < 1e-10


def test_delays_no_delivery_means_no_TS():
    rp = retry_probs(attempt_probs(0.0, 0.0))  # PColl = 1
    st = service_times(0.0, 100)
    TS, TVS = delays(rp, st)
    assert TS is None
    assert abs(TVS - 4 * st.T3) < 1e-12


def test_delays_match_outcome_tree_enumeration():
    rng = np.random.Generator(np.random.PCG64(88005))
    for _ in range(500):
        a = float(rng.uniform(0.0, 0.95))
        k = float(rng.random())
        L = int(rng.integers(30, 128))
        ap = attempt_probs(a, k)
        st = service_times(a, L)
        rp = retry_probs(ap)
        ps_t, ts_t, tvs_t = outcome_tree(ap.PSuc, ap.PAcc, ap.PColl, st.T1, st.T2, st.T3)
        TS, TVS = delays(rp, st)
        assert abs(reliability(rp) - ps_t) < 1e-10 * max(ps_t, 1e-30)
        if ts_t is None:
            assert TS is None
        else:
            assert abs(TS - ts_t) < 1e-10 * ts_t
        assert abs(TVS - tvs_t) < 1e-10 * tvs_t


def _outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


def _public(a, k, L):
    rp = retry_probs(attempt_probs(a, k))
    TS, TVS = delays(rp, service_times(a, L))
    return reliability(rp), TS, TVS


_unit = st.floats(0.0, 1.0)
_off = st.sampled_from([1.0, 1.5, -0.25, -0.0, float("nan"), float("inf")])


@settings(max_examples=400, deadline=None)
@given(a=st.one_of(st.floats(0.0, 1.0, exclude_max=True), _off), k=st.one_of(_unit, _off),
       L=st.integers(1, 127))
def test_one_pass_chain_is_the_public_chain_bit_for_bit(a, k, L):
    want, got = _outcome(_public, a, k, L), _outcome(metrics._service, a, k, L)
    # repr tells -0.0 from 0.0 and compares nan; a raised ValueError must match too
    assert repr(got) == repr(want)


def test_one_pass_chain_covers_the_edges():
    # no collision, certain collision, no busy channel, and a just below 1
    for a, k in ((0.0, 1.0), (0.0, 0.0), (0.5, 1.0), (1.0 - 2**-53, 0.5), (0.3, 1e-300)):
        for L in (1, 30, 127):
            assert repr(metrics._service(a, k, L)) == repr(_public(a, k, L))
    assert metrics._service(0.0, 0.0, 100)[1] is None  # nothing delivered: TS undefined


def test_queue_adjusted_offsets():
    assert queue_adjusted(100.0, 200.0, 50.0) == (150.0, 250.0)
    assert queue_adjusted(None, 200.0, 50.0) == (None, 250.0)
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            queue_adjusted(10.0, 20.0, bad)


# -- full report --------------------------------------------------------------

def test_report_composition_single_buffer():
    cfg = NetworkConfig(N=10, L=100, mode=TrafficMode.UNSAT1, r=0.05)
    fp = solve(cfg)
    rep = report(cfg, fp)
    assert rep.tau == fp.tau and rep.a == fp.a
    assert rep.TSW is None and rep.TVSW is None
    # recompute each metric from the fixed point by hand
    st = service_times(fp.a, cfg.L)
    rp = retry_probs(attempt_probs(fp.a, quiet_prob(fp.tau, cfg.N)))
    TS, TVS = delays(rp, st)
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
