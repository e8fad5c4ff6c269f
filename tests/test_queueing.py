"""Finite-buffer queue formulas against a brute-force birth-death solve."""
import math

import pytest

from star154.queueing import empty_prob, queue_stats, utilization

from oracles import birth_death_lq, exact_birth_death

PROBE_P = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.2, 2.0]


def test_utilization_example():
    # 0.05 frames per frame-time, 332-symbol service, 200-symbol frames
    assert abs(utilization(0.05, 100, 332.0) - 0.083) < 1e-15


def test_utilization_rejects_bad_inputs():
    with pytest.raises(ValueError):
        utilization(-0.01, 100, 332.0)
    with pytest.raises(ValueError):
        utilization(0.05, 100, 0.0)
    for r, tvs in ((math.nan, 300.0), (0.1, math.nan), (math.inf, 300.0), (0.1, math.inf)):
        with pytest.raises(ValueError):
            utilization(r, 50, tvs)
    for L in (0, -5):
        with pytest.raises(ValueError, match="frame length must be"):
            utilization(0.1, L, 300.0)


def test_queue_forms_reject_nan_and_negative_inputs():
    for p in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="utilization must be"):
            empty_prob(p, 5)
        with pytest.raises(ValueError, match="utilization must be"):
            queue_stats(p, 5, 1e-3)
    for lam in (-1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="arrival rate must be"):
            queue_stats(0.5, 5, lam)


def test_against_birth_death_enumeration():
    for p in PROBE_P:
        for M in range(1, 11):
            want_p0, want_pM, want_lq = birth_death_lq(p, M)
            qs = queue_stats(p, M, lam=1e-4)
            assert abs(qs.p0 - want_p0) < 1e-10 * max(want_p0, 1e-12)
            assert abs(qs.pM - want_pM) < 1e-10 * max(want_pM, 1e-12)
            assert abs(qs.Lq - want_lq) < 1e-10 * max(want_lq, 1e-12)


def test_single_slot_buffer_never_queues():
    for p in PROBE_P + [1.0]:
        qs = queue_stats(p, 1, lam=1e-3)
        assert qs.Lq == 0.0 and qs.Wq == 0.0


def test_balanced_load_limit_and_continuity():
    for M in (2, 5, 10):
        qs = queue_stats(1.0, M, lam=1e-4)
        assert abs(qs.p0 - 1.0 / (M + 1)) < 1e-15
        assert abs(qs.pM - 1.0 / (M + 1)) < 1e-15
        assert abs(qs.Lq - M * (M - 1) / (2.0 * (M + 1))) < 1e-15
        below = queue_stats(1.0 - 1e-9, M, lam=1e-4)
        above = queue_stats(1.0 + 1e-9, M, lam=1e-4)
        for f in ("p0", "pM", "Lq"):
            assert abs(getattr(below, f) - getattr(qs, f)) < 1e-6
            assert abs(getattr(above, f) - getattr(qs, f)) < 1e-6


def test_littles_law_holds():
    for p in PROBE_P:
        for M in (2, 5, 10):
            qs = queue_stats(p, M, lam=3e-4)
            assert abs(qs.Wq * qs.lambda_e - qs.Lq) < 1e-12


def test_half_load_two_slot_example():
    # state weights 1 : 1/2 : 1/4 give p0=4/7, block=1/7, one waiter w.p. 1/7
    qs = queue_stats(0.5, 2, lam=2.5e-4)
    assert abs(qs.p0 - 4 / 7) < 1e-15
    assert abs(qs.pM - 1 / 7) < 1e-15
    assert abs(qs.Lq - 1 / 7) < 1e-15
    assert abs(qs.Wq - (1 / 7) / (2.5e-4 * 6 / 7)) < 1e-9
    assert abs(qs.Wq - 2000 / 3) < 1e-9


def test_zero_arrivals_mean_zero_wait():
    qs = queue_stats(0.0, 5, lam=0.0)
    assert qs.p0 == 1.0 and qs.pM == 0.0 and qs.Lq == 0.0 and qs.Wq == 0.0


def test_empty_prob_monotone_in_load():
    vals = [empty_prob(p, 5) for p in PROBE_P]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_blocking_grows_with_load_shrinks_with_buffer():
    blocks = [queue_stats(p, 5, 1e-4).pM for p in PROBE_P]
    assert all(b > a for a, b in zip(blocks, blocks[1:]))
    by_M = [queue_stats(0.8, M, 1e-4).pM for M in range(1, 11)]
    assert all(b < a for a, b in zip(by_M, by_M[1:]))


@pytest.mark.parametrize("p, M", [
    (8.0, 400), (2.0, 1100), (1.5, 2000),  # p**(M+1) beyond float range
    (5.820154160763799, 400), (1.5, 1748),  # p**(M+1) in range, (M+1) * p**(M+1) not
    (1.5, 1750),  # the first M at which 1.5**(M+1) overflows
])
def test_long_overloaded_buffer_matches_exact_chain(p, M):
    # the direct forms raise OverflowError here, or give an infinite wait
    want_p0, want_pM, want_lq = exact_birth_death(p, M)
    qs = queue_stats(p, M, lam=1e-4)
    assert empty_prob(p, M) == qs.p0
    # p0 is below the smallest normal float: only its order is representable
    assert abs(qs.p0 - float(want_p0)) <= 1e-300
    assert math.isclose(qs.pM, float(want_pM), rel_tol=1e-12)
    assert math.isclose(qs.Lq, float(want_lq), rel_tol=1e-12)
    assert math.isclose(qs.Wq, float(want_lq) / (1e-4 * (1 - float(want_pM))), rel_tol=1e-12)


@pytest.mark.parametrize("p, M", [(1.5, 1700), (0.5, 5000), (3.0, 10), (1.0 + 2e-6, 50)])
def test_in_range_values_keep_the_direct_forms(p, M):
    # the reciprocal forms only take over where the direct ones leave float range
    p0 = (1.0 - p) / (1.0 - p ** (M + 1))
    qs = queue_stats(p, M, lam=1e-4)
    assert empty_prob(p, M) == qs.p0 == p0
    assert qs.pM == (1.0 - p) * p**M / (1.0 - p ** (M + 1))
    lq = p / (1.0 - p) - (M + 1) * p ** (M + 1) / (1.0 - p ** (M + 1)) - (1.0 - p0)
    assert qs.Lq == max(lq, 0.0)
    want_p0, want_pM, want_lq = exact_birth_death(p, M)
    assert math.isclose(qs.pM, float(want_pM), rel_tol=1e-9, abs_tol=1e-300)
