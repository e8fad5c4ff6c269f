"""Fixed-point machinery against exact-arithmetic and bisection oracles."""
import builtins
import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from star154 import analytical, dataset, metrics
from star154.analytical import (
    NonConvergenceError,
    SolverSettings,
    a_from_tau,
    channel_stationary,
    solve,
    tau_update,
    throughput,
)
from star154.core import NetworkConfig, TrafficMode, attempt_terms, quiet_prob
from star154.metrics import attempt_probs, delays, retry_probs, service_times

from oracles import exact_a_from_tau, exact_tau_update, exact_throughput, exact_total_T

UNSAT = lambda n, l, r: NetworkConfig(N=n, L=l, mode=TrafficMode.UNSAT1, r=r)
SAT = lambda n, l: NetworkConfig(N=n, L=l, mode=TrafficMode.SATURATED)
MULTI = NetworkConfig(N=20, L=60, mode=TrafficMode.UNSATM, r=0.08, M=4)


# -- busy probability ---------------------------------------------------------

def test_a_is_zero_on_idle_network():
    assert a_from_tau(0.0, 10, 100) == 0.0


def test_a_frozen_golden_values():
    # evaluated once with exact rational arithmetic and frozen
    assert abs(a_from_tau(0.01, 10, 100) - 0.9341899416933301) < 1e-15
    assert abs(a_from_tau(0.5, 2, 30) - 0.9058895957150981) < 1e-15
    assert abs(a_from_tau(0.05, 5, 100) - 0.945770771291737) < 1e-15
    assert abs(a_from_tau(0.1, 2, 50) - 0.9183715048888669) < 1e-15


def test_a_matches_exact_arithmetic_on_grid():
    rng = np.random.Generator(np.random.PCG64(77001))
    for _ in range(200):
        tau = Fraction(int(rng.integers(1, 1000)), 1000)
        n = int(rng.integers(2, 30))
        l = int(rng.integers(30, 128))
        want = float(exact_a_from_tau(tau, n, l))
        got = a_from_tau(float(tau), n, l)
        assert abs(got - want) < 1e-12


def test_cycle_length_matches_exact_state_sum():
    for tau, n, l in [(0.003, 10, 100), (0.01, 5, 50), (0.25, 3, 30), (0.9, 2, 127)]:
        want = float(exact_total_T(Fraction(tau).limit_denominator(10**9), n, l))
        assert abs(channel_stationary(tau, n, l).total_T - want) < 1e-9 * want


# -- channel stationary distribution ------------------------------------------

def test_stationary_rejects_zero_tau():
    with pytest.raises(ValueError):
        channel_stationary(0.0, 5, 100)


def test_closed_forms_reject_empty_networks():
    for fn in (a_from_tau, throughput, channel_stationary):
        for N, L in ((0, 50), (-1, 50), (10, 0), (10, -5)):
            with pytest.raises(ValueError, match="node count and frame length must be"):
                fn(0.01, N, L)


def test_stationary_wack_identity():
    d = channel_stationary(0.1, 2, 50)
    assert abs(d.weight("wack") - (d.weight("TxFail") + d.weight("AckFail"))) < 1e-15


def test_stationary_success_weight_vanishes_at_low_tau():
    d = channel_stationary(1e-9, 5, 100)
    assert d.weight("AckSuc") < 1e-7


def test_stationary_duration_weighted_sum_matches_total():
    d = channel_stationary(0.05, 5, 100)
    s = sum(dur * w for _, dur, w in d.states)
    assert abs(s - d.total_T) < 1e-12 * d.total_T


def test_occupancy_sums_to_one():
    rng = np.random.Generator(np.random.PCG64(77002))
    for _ in range(50):
        tau = float(rng.uniform(1e-4, 0.9))
        occ = channel_stationary(tau, int(rng.integers(2, 20)), 100).occupancy()
        assert abs(sum(occ.values()) - 1.0) < 1e-12


# -- throughput ---------------------------------------------------------------

def test_throughput_zero_at_idle_and_jammed():
    assert throughput(0.0, 10, 100) == 0.0
    assert throughput(1.0, 2, 100) == 0.0


def test_throughput_frozen_golden_values():
    assert abs(throughput(0.003, 10, 100) - 0.28419367995637973) < 1e-15
    assert abs(throughput(0.5, 2, 30) - 8.414125825604964e-09) < 1e-20


def test_throughput_matches_exact_arithmetic():
    for tau, n, l in [(0.003, 10, 100), (0.02, 5, 50), (0.3, 2, 30)]:
        want = float(exact_throughput(Fraction(tau).limit_denominator(10**9), n, l))
        assert abs(throughput(tau, n, l) - want) < 1e-14


def test_throughput_bounded():
    rng = np.random.Generator(np.random.PCG64(77003))
    for _ in range(500):
        th = throughput(float(rng.random()), int(rng.integers(2, 50)), 100)
        assert 0.0 <= th <= 1.0


# -- substitution step --------------------------------------------------------

def test_tau_update_zero_rate_means_no_ccas():
    assert tau_update(0.3, 0.2, UNSAT(10, 100, 0.0)) == 0.0


def test_tau_update_saturated_frozen_value():
    # exact evaluation gives 1/(2L + 144 - 12) = 1/332 at tau=0, a=0
    got = tau_update(0.0, 0.0, SAT(10, 100))
    assert abs(got - 1 / 332) < 1e-18
    assert abs(got - 0.0030120481927710845) < 1e-18


def test_tau_update_single_buffer_frozen_value():
    # tau=0, a=1 collapses the bracket to 1190 and the numerator to 5
    got = tau_update(0.0, 1.0, UNSAT(2, 100, 0.01))
    assert abs(got - float(Fraction(1, 4238))) < 1e-18
    want = float(exact_tau_update(0, 1, 2, 100, "unsat1", r=Fraction(1, 100)))
    assert abs(got - want) < 1e-18


def test_tau_update_matches_exact_arithmetic_on_grid():
    rng = np.random.Generator(np.random.PCG64(77004))
    for _ in range(200):
        tau = Fraction(int(rng.integers(0, 1000)), 1000)
        a = Fraction(int(rng.integers(0, 1000)), 1000)
        n = int(rng.integers(2, 20))
        l = int(rng.integers(30, 128))
        r = Fraction(int(rng.integers(1, 130)), 1000)
        cfg = UNSAT(n, l, float(r))
        want = float(exact_tau_update(tau, a, n, l, "unsat1", r=r))
        assert abs(tau_update(float(tau), float(a), cfg) - want) < 1e-12
        p0 = Fraction(int(rng.integers(1, 1000)), 1000)
        mcfg = NetworkConfig(N=n, L=l, mode=TrafficMode.UNSATM, r=float(r), M=5)
        want = float(exact_tau_update(tau, a, n, l, "unsatm", r=r, p0=p0))
        assert abs(tau_update(float(tau), float(a), mcfg, float(p0)) - want) < 1e-12


def test_tau_update_requires_p0_for_multibuffer():
    mcfg = NetworkConfig(N=5, L=100, mode=TrafficMode.UNSATM, r=0.05, M=3)
    with pytest.raises(ValueError):
        tau_update(0.01, 0.5, mcfg)


def test_tau_update_rejects_out_of_range_inputs():
    mcfg = NetworkConfig(N=5, L=100, mode=TrafficMode.UNSATM, r=0.05, M=3)
    for cfg in (SAT(10, 100), UNSAT(10, 100, 0.05), mcfg):
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="tau out of"):
                tau_update(bad, 0.5, cfg, 0.5)
            with pytest.raises(ValueError, match="a out of"):
                tau_update(0.01, bad, cfg, 0.5)
    # p0 is a probability where the multi-buffer mode uses it
    for bad in (-5.0, -1e-300, 1.0 + 2**-52, 7.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="p0 out of"):
            tau_update(0.01, 0.3, mcfg, bad)
    for good in (0.0, 1.0):
        assert 0.0 < tau_update(0.01, 0.3, mcfg, good) < 1.0


# -- solver -------------------------------------------------------------------

def _bisect_oracle(cfg, p0=None, lo=0.0, hi=1.0):
    """Plain bisection on the composed residual, written independently."""
    def f(t):
        return tau_update(t, a_from_tau(t, cfg.N, cfg.L), cfg, p0) - t
    flo = f(lo)
    for _ in range(160):
        mid = (lo + hi) / 2
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def test_solver_residual_at_convergence():
    for cfg in [UNSAT(10, 100, 0.05), UNSAT(2, 30, 0.001), SAT(10, 50), SAT(2, 100), MULTI]:
        fp = solve(cfg)
        assert fp.converged
        assert fp.residual <= 1e-12
        assert abs(tau_update(fp.tau, fp.a, cfg, fp.p0) - fp.tau) <= 1e-12
        assert abs(a_from_tau(fp.tau, cfg.N, cfg.L) - fp.a) <= 1e-12


def test_solver_agrees_with_bisection_oracle():
    for cfg in [UNSAT(10, 100, 0.05), UNSAT(5, 50, 0.01), SAT(10, 50)]:
        fp = solve(cfg)
        assert abs(fp.tau - _bisect_oracle(cfg)) < 1e-9


def test_solver_invariant_under_damping_and_bisection():
    settings = SolverSettings()
    for cfg in [UNSAT(10, 100, 0.05), SAT(5, 30), MULTI]:
        base = solve(cfg, settings)
        halved = solve(cfg, replace(settings, damping=0.25))
        bisected = solve(cfg, SolverSettings(use_bisection=True))
        assert abs(base.tau - halved.tau) < 1e-9
        assert abs(base.tau - bisected.tau) < 1e-9
        assert abs(base.a - bisected.a) < 1e-9


def test_solver_no_traffic_fixed_point():
    # true fixed point is (0, 0); a is slaved to tau with slope ~2.5e3
    fp = solve(UNSAT(10, 100, 0.0))
    assert fp.converged
    assert fp.tau <= 1e-12 and fp.a < 1e-8


def test_solver_multibuffer_consistency():
    cfg = NetworkConfig(N=10, L=100, mode=TrafficMode.UNSATM, r=0.05, M=5)
    fp = solve(cfg)
    assert fp.converged
    assert fp.p0 is not None and fp.TVS is not None and fp.p is not None
    # the recorded queue state must reproduce itself through the metrics
    from star154.metrics import attempt_probs, delays, retry_probs, service_times
    from star154.queueing import empty_prob, utilization

    k = quiet_prob(fp.tau, cfg.N)
    _, tvs = delays(retry_probs(*attempt_probs(fp.a, k)), *service_times(fp.a, cfg.L))
    assert abs(tvs - fp.TVS) < 1e-9 * fp.TVS
    assert abs(empty_prob(utilization(cfg.r, cfg.L, tvs), cfg.M) - fp.p0) < 1e-10
    assert abs(tau_update(fp.tau, fp.a, cfg, fp.p0) - fp.tau) <= 1e-11


def test_solver_multibuffer_agrees_with_nested_bisection():
    cfg = NetworkConfig(N=5, L=100, mode=TrafficMode.UNSATM, r=0.03, M=3)
    fp = solve(cfg)
    assert abs(fp.tau - _bisect_oracle(cfg, p0=fp.p0)) < 1e-9


@pytest.mark.parametrize("bad", [
    {"tolerance": math.nan}, {"tolerance": math.inf},
    {"max_iterations": 0}, {"max_iterations": -5},
])
def test_solver_settings_reject_values_no_solve_can_meet(bad):
    # an infinite tolerance would accept the start point as the answer
    with pytest.raises(ValueError):
        SolverSettings(**bad)


def test_solver_reports_nonconvergence_with_partial_state():
    cfg = UNSAT(10, 100, 0.05)
    # the bisection budget counts halvings: F(0), three halvings, then the reported point
    for solver, evaluations in ((SolverSettings(max_iterations=3), 4),
                                (SolverSettings(max_iterations=3, use_bisection=True), 5)):
        with pytest.raises(NonConvergenceError) as err:
            solve(cfg, solver)
        partial = err.value.fixed_point
        assert not partial.converged
        assert partial.iterations == 3 and partial.evaluations == evaluations
        assert 0.0 <= partial.tau <= 1.0
        # residual and a describe the reported iterate, not the one before it
        assert partial.a == a_from_tau(partial.tau, cfg.N, cfg.L)
        assert partial.residual == abs(tau_update(partial.tau, partial.a, cfg) - partial.tau)
        assert partial.residual > 1e-12


_ROUTES = (SolverSettings(), SolverSettings(use_bisection=True))
# a tolerance below F's rounding noise: the bisection halves until its bracket is two
# adjacent floats, and must stop there rather than evaluate lo or hi again
_UNREACHABLE = SolverSettings(tolerance=1e-300, use_bisection=True)


@pytest.mark.parametrize("cfg, solvers", [
    (NetworkConfig(N=10, L=50, mode=TrafficMode.UNSATM, r=0.08, M=5), _ROUTES),
    (UNSAT(10, 100, 0.05), _ROUTES), (SAT(10, 100), _ROUTES), (UNSAT(2, 30, 0.1), (_UNREACHABLE,)),
], ids=["unsatm", "unsat1", "sat", "unreachable"])
def test_solver_evaluates_each_point_once(cfg, solvers, monkeypatch):
    def recording(name, fn):
        def wrapper(tau, *args):
            seen[name].append(tau)
            return fn(tau, *args)
        return wrapper

    real_map = analytical._map
    for solver in solvers:
        seen = {"F": [], "tau_update": []}
        with monkeypatch.context() as patch:
            patch.setattr(analytical, "_map", lambda c: recording("F", real_map(c)))
            patch.setattr(analytical, "tau_update", recording("tau_update", tau_update))
            if solver is _UNREACHABLE:
                with pytest.raises(NonConvergenceError) as err:
                    solve(cfg, solver)
                fp = err.value.fixed_point
            else:
                fp = solve(cfg, solver)
                assert fp.converged
        points = seen["F"]
        assert len(points) == len(set(points))
        # the reported point, once more through the public functions
        assert seen["tau_update"] == [fp.tau]
        assert fp.evaluations == len(points) + 1


def test_warm_multibuffer_solve_and_report_execute_no_import(monkeypatch):
    cfg = NetworkConfig(N=10, L=50, mode=TrafficMode.UNSATM, r=0.08, M=5)
    metrics.report(cfg, solve(cfg))
    imported = []
    real_import = builtins.__import__

    def counting(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting)
    metrics.report(cfg, solve(cfg))
    assert imported == []


def test_F_is_tau_update_at_the_public_queue_chain():
    # _map's F and _queue evaluate the multi-buffer queue in one pass; the public
    # chain builds each dataclass. Both must give the same bits everywhere.
    from star154.queueing import empty_prob, utilization

    rng = np.random.Generator(np.random.PCG64(1717))
    taus = [0.0, 1e-9, 1e-4, 0.5, 1.0, *rng.random(12).tolist()]
    for mode in TrafficMode:
        for _ in range(30):
            n, l = int(rng.integers(2, 60)), int(rng.integers(1, 128))
            r = 0.0 if mode is TrafficMode.SATURATED else float(rng.choice([0.0, 0.02, 0.3, 2.0]))
            m = int(rng.choice([2, 5, 400, 2000])) if mode is TrafficMode.UNSATM else 1
            cfg = NetworkConfig(N=n, L=l, mode=mode, r=r, M=m)
            F = analytical._map(cfg)
            for tau in taus:
                a = a_from_tau(tau, n, l)
                p0 = None
                if mode is TrafficMode.UNSATM:
                    k = quiet_prob(tau, n)
                    _, tvs = delays(retry_probs(*attempt_probs(a, k)), *service_times(a, l))
                    p = utilization(r, l, tvs)
                    p0 = empty_prob(p, m)
                    assert analytical._queue(a, attempt_terms(a, k), cfg) == (p, p0, tvs)
                want = tau_update(tau, a, cfg, p0) - tau
                assert repr(F(tau)) == repr(want), (cfg, tau)


def _outcome(fn):
    """fn(), or the type and message of the ValueError it raises."""
    try:
        return fn()
    except ValueError as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(mode=st.sampled_from(list(TrafficMode)), n=st.integers(2, 60), l=st.integers(1, 127),
       r=st.one_of(st.sampled_from([0.0, 2.0]), st.floats(0.0, 2.0)), m=st.integers(2, 2000),
       tau=st.one_of(st.sampled_from([0.0, 5e-324, 1.0, -5e-324, 1.5, math.nan, math.inf]),
                     st.floats(0.0, 1.0)))
def test_F_is_the_public_composition_property(mode, n, l, r, m, tau):
    from star154.queueing import empty_prob, utilization

    cfg = NetworkConfig(N=n, L=l, mode=mode, r=r, M=m if mode is TrafficMode.UNSATM else 1)

    def public():
        a = a_from_tau(tau, n, l)
        p0 = None
        if mode is TrafficMode.UNSATM:
            _, tvs = delays(retry_probs(*attempt_probs(a, quiet_prob(tau, n))), *service_times(a, l))
            p0 = empty_prob(utilization(r, l, tvs), m)
        return tau_update(tau, a, cfg, p0) - tau

    # repr tells -0.0 from 0.0 and compares nan; a raised ValueError must match too
    assert repr(_outcome(lambda: analytical._map(cfg)(tau))) == repr(_outcome(public))


# 0, 400 points log-spaced from 1e-12 to 1 and 400 evenly spaced on [0, 1]
_ROOT_GRID = sorted({0.0, *(10.0 ** (12 * (i / 399 - 1)) for i in range(400)),
                     *(i / 399 for i in range(400))})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mode=st.sampled_from(list(TrafficMode)), n=st.integers(2, 60), l=st.integers(1, 127),
       share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       m=st.integers(2, 2000))
def test_one_root_per_scenario_property(mode, n, l, share, m):
    # every route assumes one root on [0, 1]. F is not monotone, so count the
    # strict sign changes on the grid, never slopes; r runs up to its bound 2L
    cfg = NetworkConfig(N=n, L=l, mode=mode, r=share * 2 * l,
                        M=m if mode is TrafficMode.UNSATM else 1)
    F = analytical._map(cfg)
    signs = [f > 0.0 for f in map(F, _ROOT_GRID) if f != 0.0]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    assert changes == (0 if F(0.0) == 0.0 else 1), cfg


# sha256 of write_csv(..., ms=True) of each mode's sweep over the grid below:
# a refactor of the solver or the metrics that keeps their arithmetic keeps
# every digest. Each float ** goes through the C library's pow, so a libm that
# rounds pow differently gives other digests.
ANALYTICAL_CSV_SHA256 = {
    "unsat1": "c7c367cce3ca375af14cfedbbd0d766b2c9f919658238cb6e713d6b1fa8c840f",
    "unsatm": "dda37c2cabe060a0b2e744559ccb00b12d973f843dbfff8b359e3a2aff8a1982",
    "sat": "e30344cc16dad40cfdb1c2becaa2cb70745c8c8dc04aaa948ed8e9f03bceb6d7",
}


# sha256 of each mode's solves over the same grid, one line per scenario of
# iterations, evaluations and repr(residual), none of which the CSV holds: a
# rewrite that moves the damped trajectory but lands on the same tau bits
# changes this digest and not the one above
SOLVE_TRAJECTORY_SHA256 = {
    "unsat1": "4765322582217e5530ca6243fb2ba7fb49ee9947776c4c22e613c3fa6b2187c8",
    "unsatm": "114768dc5fa40cb33057fbcabada8f5747353f589763c9b010254096434db1be",
    "sat": "8d2e21428ed6e782700b50b56713c99e088b01c705c83acf24e101a15bcfcb09",
}


# sha256 per mode of repr(F(tau)), a_from_tau, throughput, tau_update at F's a and
# p0, and channel_stationary's total_T and weights, at fixed tau values on a few
# scenarios each, N = 1 included: unlike the pins above, these see the public
# forms and F at tau values no solve visits
MAP_VALUES_SHA256 = {
    "sat": "ad60f02b50aaa6101bf9f59a7594828b2201e31488361ec6e7af94b7889c0b9e",
    "unsat1": "fa9226fa10623c83621d88eefdb1578c05ca8cf3879af5d0c387f36e36a5e36a",
    "unsatm": "b04f5eaf1b637a4b84973fae608e7e149abd8b86acbd574759f797a1acde01dd",
}
_MAP_SCENARIOS = {
    "sat": [(1, 30, 0.0, 1), (2, 127, 0.0, 1), (10, 60, 0.0, 1), (50, 1, 0.0, 1)],
    "unsat1": [(1, 30, 0.05, 1), (5, 30, 0.0, 1), (10, 60, 0.05, 1), (20, 127, 0.2, 1)],
    "unsatm": [(1, 60, 0.05, 2), (3, 30, 0.0, 2), (10, 60, 0.05, 5), (20, 100, 0.2, 4)],
}
_MAP_TAUS = (0.0, 1.0, 5e-324, 1e-12, *(10.0**-e for e in range(1, 12)),
             *(i / 17 for i in range(1, 17)))


def _map_values(cfg: NetworkConfig) -> list[str]:
    taus = list(_MAP_TAUS)
    if cfg.N >= analytical.MIN_NODES:
        root = solve(cfg).tau
        taus += [root, math.nextafter(root, 0.0), math.nextafter(root, 1.0),
                 root * (1.0 - 1e-3), root * (1.0 + 1e-3)]
    F, lines = analytical._map(cfg), []
    for tau in taus:
        a = a_from_tau(tau, cfg.N, cfg.L)
        p0 = None
        if cfg.mode is TrafficMode.UNSATM:
            p0 = analytical._queue(a, attempt_terms(a, quiet_prob(tau, cfg.N)), cfg)[1]
        values = [F(tau), a, throughput(tau, cfg.N, cfg.L), tau_update(tau, a, cfg, p0)]
        if tau > 0.0:
            dist = channel_stationary(tau, cfg.N, cfg.L)
            values += [dist.total_T, *(w for _, _, w in dist.states)]
        lines.append(repr(values))
    return lines


def test_map_values_are_pinned():
    for mode, digest in MAP_VALUES_SHA256.items():
        lines = []
        for n, l, r, m in _MAP_SCENARIOS[mode]:
            lines += _map_values(NetworkConfig(N=n, L=l, mode=TrafficMode(mode), r=r, M=m))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, mode


def _pinned_spec(mode: str) -> dataset.SweepSpec:
    return dataset.SweepSpec(mode=TrafficMode(mode), N_values=(2, 5, 20), L_values=(30, 127),
                             r_values=(0.0, 0.05, 0.2), M_values=(2, 5))


def test_analytical_sweep_csv_is_pinned(tmp_path):
    for mode, digest in ANALYTICAL_CSV_SHA256.items():
        path = tmp_path / f"{mode}.csv"
        dataset.write_csv(dataset.run_sweep(_pinned_spec(mode)), str(path), ms=True)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, mode


def test_solve_trajectories_are_pinned():
    for mode, digest in SOLVE_TRAJECTORY_SHA256.items():
        spec = _pinned_spec(mode)
        fps = [solve(cfg, spec.solver) for cfg in dataset.generate_grid(spec)]
        lines = [f"{fp.iterations} {fp.evaluations} {fp.residual!r}" for fp in fps]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, mode


@st.composite
def _configs(draw):
    mode = draw(st.sampled_from(list(TrafficMode)))
    n, l = draw(st.integers(2, 40)), draw(st.integers(30, 127))
    if mode is TrafficMode.SATURATED:
        return SAT(n, l)
    r = draw(st.floats(0.0, 0.2))
    m = draw(st.integers(2, 8)) if mode is TrafficMode.UNSATM else 1
    return NetworkConfig(N=n, L=l, mode=mode, r=r, M=m)


@settings(max_examples=60, deadline=None)
@given(cfg=_configs())
def test_solver_routes_converge_and_agree_property(cfg):
    base = solve(cfg)
    assert base.converged and base.residual <= 1e-12
    for other in (solve(cfg, SolverSettings(damping=0.25)),
                  solve(cfg, SolverSettings(use_bisection=True))):
        assert abs(other.tau - base.tau) <= 1e-9
        assert abs(other.a - base.a) <= 1e-9


def test_solver_rejects_single_node():
    with pytest.raises(ValueError):
        solve(UNSAT(1, 100, 0.05))


def test_solver_monotone_in_rate_and_nodes():
    taus = [solve(UNSAT(10, 100, r)).tau for r in (0.005, 0.01, 0.02, 0.05)]
    assert all(b >= a for a, b in zip(taus, taus[1:]))
    taus_n = [solve(UNSAT(n, 100, 0.02)).tau for n in (2, 5, 10, 20)]
    assert all(b >= a for a, b in zip(taus_n, taus_n[1:]))
    # longer frames mean fewer CCAs per unit time
    taus_l = [solve(UNSAT(10, l, 0.02)).tau for l in (30, 50, 100)]
    assert all(b <= a for a, b in zip(taus_l, taus_l[1:]))
