"""Grids, CSV persistence, and the analytical-vs-simulated diff pipeline."""
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from star154.analytical import SolverSettings
from star154.core import NetworkConfig, PerformanceReport, Source, TrafficMode
from star154.dataset import (
    DIFF_METRICS,
    Engine,
    HEADER,
    KeyMismatchError,
    MAX_AXIS_VALUES,
    MS_COLUMNS,
    ResultRow,
    SweepSpec,
    analytical_row,
    compare,
    generate_grid,
    parse_range,
    read_csv,
    report_row,
    run_sweep,
    simulated_row,
    training_matrix,
    write_csv,
    write_diff_csv,
)


# -- range parsing ------------------------------------------------------------

def test_parse_range_forms():
    assert parse_range("5") == (5.0,)
    assert parse_range("2,5,10", int) == (2, 5, 10)
    assert parse_range("0.01:0.05:0.02") == (0.01, 0.03, 0.05)
    assert parse_range("2:4:1", int) == (2, 3, 4)
    assert parse_range("0.1:0.1:0.05") == (0.1,)


def test_parse_range_inclusive_end_with_float_drift():
    vals = parse_range("0.001:0.13:0.0129")
    assert len(vals) == 11
    assert vals[0] == 0.001 and vals[-1] == 0.13
    # values step in exact decimals, so a tiny step stops at its stop
    vals = parse_range("0:1e-10:1e-11")
    assert len(vals) == 11
    assert vals[0] == 0.0 and vals[-1] == 1e-10
    # and far from zero, where float stepping drifts, the last value is still the stop
    vals = parse_range("-2609.144:-2609.143832:4e-06")
    assert len(vals) == 43 and vals[-1] == -2609.143832


def test_parse_range_rejects_malformed():
    with pytest.raises(ValueError):
        parse_range("1:2")
    with pytest.raises(ValueError):
        parse_range("1:2:0")
    with pytest.raises(ValueError):
        parse_range("abc")


@pytest.mark.parametrize("text", [
    "2:inf:1", "nan:5:1", "1:2:inf", "-inf:1:1", "1,nan", "inf", "1e400",  # not finite
    "1:1e12:1", "0:100000:1",  # more than MAX_AXIS_VALUES values
    "1.000000001:1:1e-30",  # a step too small to move the value: the count never ends
    "5:2:1", "",  # no values
])
def test_parse_range_rejects_unbounded_and_empty_ranges(text):
    with pytest.raises(ValueError):
        parse_range(text)


@pytest.mark.parametrize("text, kind, problem", [
    # an integer axis would truncate: N = 2, 2, 3, 3, 4 / four rows of L = 30 / N = 2
    ("2:4:0.5", int, "an integer axis needs integral start, stop and step, got '2:4:0.5'"),
    ("30:31:0.3", int, "an integer axis needs integral start, stop and step, got '30:31:0.3'"),
    ("2.5:3:1", int, "an integer axis needs integral start, stop and step, got '2.5:3:1'"),
    # a repeated value would write two rows for one configuration
    ("0.1,0.1", float, "repeated value in '0.1,0.1': one grid row per configuration"),
    ("0.1,1e-1", float, "repeated value in '0.1,1e-1': one grid row per configuration"),
    ("5,2,05", int, "repeated value in '5,2,05': one grid row per configuration"),
    ("1,2,3,1", float, "repeated value in '1,2,3,1': one grid row per configuration"),
    # a range step below the 12-decimal rounding would repeat values the text never named
    ("0:1e-12:1e-13", float, "step finer than 1e-12 in '0:1e-12:1e-13'"),
])
def test_parse_range_refuses_axes_that_change_the_grid(text, kind, problem):
    with pytest.raises(ValueError) as err:
        parse_range(text, kind)
    assert str(err.value).startswith(problem)


def test_parse_range_takes_integral_float_text_for_integer_axes():
    assert parse_range("2.0:4:1e0", int) == (2, 3, 4)
    assert parse_range("0.5:1.5:0.5") == (0.5, 1.0, 1.5)


def test_parse_range_limit_is_inclusive():
    assert len(parse_range("1:100000:1", int)) == MAX_AXIS_VALUES


_range_text = st.builds(
    lambda a, b, c: f"{a}:{b}:{c}",
    *(st.one_of(st.floats(), st.integers(-10**6, 10**6), st.sampled_from(["", "x", "1e400"]))
      for _ in range(3)),
)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), _range_text), kind=st.sampled_from([float, int]))
def test_parse_range_returns_bounded_finite_values_or_raises(text, kind):
    try:
        values = parse_range(text, kind)
    except ValueError:
        return
    assert isinstance(values, tuple) and 0 < len(values) <= MAX_AXIS_VALUES
    assert all(isinstance(v, kind) for v in values)
    assert all(kind is int or math.isfinite(v) for v in values)
    assert len(set(values)) == len(values)


_decimal = st.builds("{}e{}".format, st.integers(-10**15 + 1, 10**15 - 1), st.integers(-20, 6))
# start, stop and step on one scale, with a stop j steps and part of one past the start:
# ranges of a few hundred values at most, since exact arithmetic costs microseconds a value
_scaled_range = st.builds(
    lambda a, j, c, r, e: f"{a}e{e}:{a + j * c + r}e{e}:{c}e{e}",
    st.integers(-10**7, 10**7), st.integers(-2, 300), st.integers(1, 10**4),
    st.integers(-10**4, 10**4), st.integers(-16, 4),
)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_scaled_range, st.builds("{}:{}:{}".format, _decimal, _decimal, _decimal)),
       kind=st.sampled_from([float, int]))
@example("300:300.00000000001296:2e-12", float)  # float drift once added 150 values past the stop
@example("7e-6:6.999999e-06:3.761", float)  # start above stop: no values
@example("533.3:533.3:5e-14", float)  # one value, however fine the step
@example("55:8946.082:493.949", float)  # 7464.235, not 7464.235000000001
@example("0.7:0.8999999999999999:0.1", float)  # a stop typed short of 0.9 ends at 0.8
def test_parse_range_steps_in_exact_decimals(text, kind):
    # decimals of at most 15 significant digits are exactly what their floats print as
    start, stop, step = map(Fraction, text.split(":"))
    n = (stop - start) // step + 1 if step > 0 else None
    if n is None:
        problem = "step must be positive"
    elif kind is int and any(v.denominator != 1 for v in (start, stop, step)):
        problem = "an integer axis needs integral start, stop and step"
    elif n > MAX_AXIS_VALUES:
        problem = f"range {text!r} has more than"
    elif n <= 0:
        problem = "no values"
    else:
        values = tuple(kind(round(start + k * step, 12)) for k in range(n))
        problem = "step finer than 1e-12" if len(set(values)) < n else None
    if problem is not None:
        with pytest.raises(ValueError) as err:
            parse_range(text, kind)
        assert str(err.value).startswith(problem)
        return
    assert start + (n - 1) * step <= stop < start + n * step
    assert parse_range(text, kind) == values


def test_parse_range_reads_huge_exponents_quickly():
    # as floats, so no exact decimal with a 10**999999999 denominator is ever built
    parse_range("0:1:0.5")
    began = time.perf_counter()
    assert parse_range("1e-999999999:1:0.1") == tuple(k / 10 for k in range(11))
    with pytest.raises(ValueError, match="step must be positive"):
        parse_range("0:1:1e-999999999")
    assert time.perf_counter() - began < 0.01


# -- grid generation ----------------------------------------------------------

def test_grid_order_is_lexicographic():
    spec = SweepSpec(
        mode=TrafficMode.UNSATM, N_values=(2, 5), L_values=(30, 100),
        r_values=(0.01, 0.05), M_values=(2, 5),
    )
    grid = generate_grid(spec)
    assert len(grid) == 16
    keys = [(c.N, c.L, c.r, c.M) for c in grid]
    assert keys == sorted(keys)
    assert keys[0] == (2, 30, 0.01, 2) and keys[-1] == (5, 100, 0.05, 5)


def test_grid_collapses_irrelevant_axes():
    sat = SweepSpec(
        mode=TrafficMode.SATURATED, N_values=(2, 5, 10), L_values=(50,),
        r_values=(0.01, 0.05), M_values=(2, 5),
    )
    grid = generate_grid(sat)
    assert len(grid) == 3
    assert all(c.r == 0.0 and c.M == 1 for c in grid)

    one = SweepSpec(
        mode=TrafficMode.UNSAT1, N_values=(2,), L_values=(50, 100),
        r_values=(0.01,), M_values=(2, 5, 10),
    )
    grid = generate_grid(one)
    assert len(grid) == 2
    assert all(c.M == 1 for c in grid)


def test_sweep_spec_rejects_empty_axes():
    with pytest.raises(ValueError):
        SweepSpec(mode=TrafficMode.UNSAT1, N_values=(), L_values=(50,),
                  r_values=(0.01,), M_values=(1,))
    with pytest.raises(ValueError):
        SweepSpec(mode=TrafficMode.UNSAT1, N_values=(2,), L_values=(50,),
                  r_values=(), M_values=(1,))


def test_sweep_spec_needs_two_nodes_only_for_the_analytical_engine():
    def spec(engine):
        return SweepSpec(mode=TrafficMode.SATURATED, N_values=(2, 1), L_values=(50,),
                         r_values=(), M_values=(1,), engine=engine)

    for engine in (Engine.ANALYTICAL, Engine.BOTH):
        with pytest.raises(ValueError, match="at least 2 nodes, got 1"):
            spec(engine)
    assert [cfg.N for cfg in generate_grid(spec(Engine.SIMULATED))] == [2, 1]


def test_sweep_spec_bounds_the_whole_grid():
    axis = tuple(range(2, MAX_AXIS_VALUES + 2))
    with pytest.raises(ValueError, match="grid has 200000 points"):
        SweepSpec(mode=TrafficMode.SATURATED, N_values=axis, L_values=(30, 31),
                  r_values=(), M_values=(1,))
    with pytest.raises(ValueError, match="grid has 100100 points"):
        SweepSpec(mode=TrafficMode.UNSATM, N_values=(2,), L_values=tuple(range(30, 130)),
                  r_values=tuple(i / 1e4 for i in range(1, 1002)), M_values=(2,))
    # the limit is inclusive, and axes the mode ignores do not count
    SweepSpec(mode=TrafficMode.SATURATED, N_values=axis, L_values=(30,),
              r_values=(0.01, 0.02), M_values=(2, 3))
    SweepSpec(mode=TrafficMode.UNSAT1, N_values=axis[:1000], L_values=tuple(range(30, 130)),
              r_values=(0.01,), M_values=(2, 3, 4))


# -- CSV round trip -----------------------------------------------------------

def _sample_rows():
    return [
        ResultRow(
            mode="unsat1", N=10, L=100, r=0.05, M=1, source="analytical",
            tau=0.0005170643534100038, a=0.5617699679089032,
            TH=0.3781215686298731, PS=0.9371634485778051,
            TS_sym=638.557663284589, TVS_sym=678.3260755077755,
        ),
        ResultRow(
            mode="unsat1", N=10, L=100, r=0.05, M=1, source="simulated",
            tau=0.00052, a=0.561, TH=0.378, PS=0.935,
            TS_sym=640.0, TVS_sym=680.0, ci_TH=0.001, ci_PS=0.002,
        ),
        ResultRow(
            mode="unsat1", N=20, L=100, r=0.13, M=1, source="analytical",
            tau=0.002, a=0.9, converged=False,
        ),
    ]


def test_csv_header_is_exact(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(_sample_rows(), str(path))
    first = path.read_text().splitlines()[0]
    assert first == (
        "mode,N,L,r,M,source,tau,a,TH,PS,TS_sym,TVS_sym,TSW_sym,TVSW_sym,"
        "converged,ci_TH,ci_PS"
    )
    assert first == ",".join(HEADER)


def test_csv_round_trip_including_missing_values(tmp_path):
    rows = _sample_rows()
    path = tmp_path / "out.csv"
    write_csv(rows, str(path))
    assert read_csv(str(path)) == rows
    # unconverged row keeps the last iterate but no metrics
    text = path.read_text().splitlines()
    assert text[3].endswith("false,,")
    assert ",,,,,,false,," in text[3]


def test_csv_ms_export(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(_sample_rows(), str(path), ms=True)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(HEADER + MS_COLUMNS)
    rec = lines[1].split(",")
    # TS_ms = TS_sym * 0.016
    assert float(rec[17]) == pytest.approx(638.557663284589 * 0.016, rel=1e-15)
    assert rec[19] == "" and rec[20] == ""  # no queue-adjusted delays here


def test_csv_floats_survive_exactly(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(_sample_rows(), str(path))
    back = read_csv(str(path))
    assert back[0].tau == 0.0005170643534100038
    assert back[0].TVS_sym == 678.3260755077755


_finite = st.floats(allow_nan=False, allow_infinity=False)  # extremes, subnormals, -0.0


@st.composite
def _result_rows(draw):
    return ResultRow(
        mode=draw(st.sampled_from([m.value for m in TrafficMode])),
        N=draw(st.integers(-2**70, 2**70)), L=draw(st.integers(-2**70, 2**70)),
        r=draw(_finite), M=draw(st.integers(-2**70, 2**70)),
        source=draw(st.sampled_from([s.value for s in Source])),
        converged=draw(st.booleans()),
        **{name: draw(st.none() | _finite) for name in HEADER[6:] if name != "converged"},
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(_result_rows(), max_size=3))
def test_csv_round_trip_and_truncation_property(tmp_path, rows):
    path = tmp_path / "rows.csv"
    write_csv(rows, str(path))
    assert repr(read_csv(str(path))) == repr(rows)  # float reprs: bit for bit
    text = path.read_bytes()
    cut = tmp_path / "cut.csv"
    for keep in range(len(text)):
        cut.write_bytes(text[:keep])
        if keep and text[keep - 1:keep] == b"\n":  # a record boundary: the leading rows
            records = text[:keep].count(b"\n") - 1
            assert repr(read_csv(str(cut))) == repr(rows[:records])
        else:
            with pytest.raises(ValueError):
                read_csv(str(cut))


def test_read_csv_error_messages_carry_location(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ValueError, match=r"bad\.csv:1"):
        read_csv(str(bad))

    short = tmp_path / "short.csv"
    short.write_text(",".join(HEADER) + "\nunsat1,2,30\n")
    with pytest.raises(ValueError, match=r"short\.csv:2"):
        read_csv(str(short))

    garbled = tmp_path / "garbled.csv"
    row = "unsat1,2,30,0.01,1,analytical,zzz,,,,,,,,true,,"
    garbled.write_text(",".join(HEADER) + "\n" + row + "\n")
    with pytest.raises(ValueError, match=r"garbled\.csv:2.*zzz"):
        read_csv(str(garbled))

    cut = tmp_path / "cut.csv"
    cut.write_text(",".join(HEADER) + "\nunsat1,2,30,0.01,1,analytical,,,,,,,,,true,,0.00")
    with pytest.raises(ValueError, match=r"cut\.csv:2.*no line end"):
        read_csv(str(cut))

    long = tmp_path / "long.csv"
    row = "unsat1,2,30,0.01,1,analytical,,,,,,,,,true,,"
    long.write_text(",".join(HEADER) + "\n" + row + "\n" + row + ",junk,more\n")
    with pytest.raises(ValueError, match=r"long\.csv:3: expected 17 fields, got 19"):
        read_csv(str(long))

    for column, cell in (("r", "nan"), ("PS", "inf"), ("ci_TH", "-inf"), ("tau", "1e400")):
        record = "unsat1,2,30,0.01,1,analytical,,,,,,,,,true,,".split(",")
        record[HEADER.index(column)] = cell
        odd = tmp_path / "non_finite.csv"
        odd.write_text(",".join(HEADER) + "\n" + ",".join(record) + "\n")
        with pytest.raises(ValueError) as err:
            read_csv(str(odd))
        assert str(err.value) == f"{odd}:2: non-finite value {cell!r} in column {column}"

    flagged = tmp_path / "flagged.csv"
    row = "unsat1,2,30,0.01,1,analytical,,,,,,,,,maybe,,"
    flagged.write_text(",".join(HEADER) + "\n" + row + "\n")
    with pytest.raises(ValueError, match=r"flagged\.csv:2.*converged"):
        read_csv(str(flagged))


# -- row producers ------------------------------------------------------------

def test_compare_and_train_refuse_a_non_finite_rate(tmp_path, capsys):
    # a saturated row whose rate is nan: read as a key, it would never match itself
    from star154.cli import main

    record = ("sat,10,100,nan,1,{},0.003982824997365238,0.8936371298413399,0.2266157514125664,"
              "0.22733165567023256,1170.0631057712694,1501.537875647181,,,true,,")
    paths = {}
    for source in ("analytical", "simulated"):
        paths[source] = tmp_path / f"{source}.csv"
        paths[source].write_text(",".join(HEADER) + "\n" + record.format(source) + "\n")
    problem = f"{paths['analytical']}:2: non-finite value 'nan' in column r"
    for argv in (["compare", "--analytical", str(paths["analytical"]),
                  "--simulated", str(paths["simulated"]), "--out", str(tmp_path / "d.csv")],
                 ["train", "--data", str(paths["analytical"]), "--target", "n",
                  "--out", str(tmp_path / "m.txt")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err == f"star154: error: {problem}\n"


def test_analytical_row_converged():
    cfg = NetworkConfig(N=10, L=100, mode=TrafficMode.UNSAT1, r=0.05)
    row = analytical_row(cfg, SolverSettings())
    assert row.converged and row.source == "analytical"
    assert row.tau == pytest.approx(0.000517064355202135, abs=1e-15)
    assert row.TSW_sym is None


def test_analytical_row_nonconverged_keeps_iterate():
    cfg = NetworkConfig(N=10, L=100, mode=TrafficMode.UNSAT1, r=0.05)
    row = analytical_row(cfg, SolverSettings(max_iterations=3))
    assert not row.converged
    assert row.tau is not None and row.a is not None
    assert row.TH is None and row.PS is None and row.TVS_sym is None


def test_simulated_row_carries_uncertainty():
    cfg = NetworkConfig(N=5, L=100, mode=TrafficMode.UNSAT1, r=0.05)
    spec = SweepSpec(
        mode=TrafficMode.UNSAT1, N_values=(5,), L_values=(100,),
        r_values=(0.05,), M_values=(1,), engine=Engine.SIMULATED,
        horizon=40000, warmup=4000, replications=3, base_seed=5,
    )
    row = simulated_row(cfg, spec)
    assert row.source == "simulated"
    assert row.ci_TH is not None and row.ci_TH > 0.0
    assert row.converged


def test_no_traffic_simulation_reports_none_and_writes_empty_cells(tmp_path):
    # no arrival, so no CCA and no finished service: a, PS, TS and TVS are undefined
    from star154.simulator import SimConfig, run

    cfg = NetworkConfig(N=3, L=50, mode=TrafficMode.UNSAT1, r=0.0)
    rep = run(SimConfig(net=cfg, horizon_mini_slots=5000, replications=2, base_seed=1))
    assert rep.a is rep.PS is rep.TS is rep.TVS is None
    assert (rep.tau, rep.TH, rep.ci95) == (0.0, 0.0, {"tau": 0.0, "TH": 0.0})
    row = report_row(cfg, rep)
    assert row.a is row.PS is row.TS_sym is row.TVS_sym is row.ci_PS is None
    assert row.converged and row.source == "simulated"
    path = tmp_path / "none.csv"
    write_csv([row], str(path), ms=True)
    assert path.read_text().splitlines()[1] == (
        "unsat1,3,50,0.0,1,simulated,0.0,,0.0,,,,,,true,0.0,,,,,")
    assert read_csv(str(path)) == [row]


# -- training matrices --------------------------------------------------------

def test_training_matrix_follows_task_columns_and_skips_unusable_rows():
    base = dict(mode="unsat1", M=1, source="analytical")
    rows = [
        ResultRow(**base, N=4, L=50, r=0.02, PS=0.9, TVS_sym=400.0),
        ResultRow(**base, N=6, L=60, r=0.03, PS=0.8, TVS_sym=500.0, converged=False),
        ResultRow(**base, N=8, L=70, r=0.04, PS=None, TVS_sym=600.0),
        ResultRow(**base, N=10, L=80, r=0.05, PS=0.7, TVS_sym=700.0),
    ]
    X, y = training_matrix(rows, "n")  # (r, L, PS, TVS) -> N
    assert X.tolist() == [[0.02, 50.0, 0.9, 400.0], [0.05, 80.0, 0.7, 700.0]]
    assert y.tolist() == [4.0, 10.0]
    X, y = training_matrix(rows, "tvs")  # (r, L, PS, N) -> TVS
    assert X.tolist() == [[0.02, 50.0, 0.9, 4.0], [0.05, 80.0, 0.7, 10.0]]
    assert y.tolist() == [400.0, 700.0]
    X, y = training_matrix(rows[1:3], "ps")  # (r, L, N, TVS) -> PS
    assert X.shape == (0, 4) and y.shape == (0,)


# -- sweeps -------------------------------------------------------------------

def _tiny_both_spec():
    return SweepSpec(
        mode=TrafficMode.UNSAT1, N_values=(2, 5), L_values=(100,),
        r_values=(0.05,), M_values=(1,), engine=Engine.BOTH,
        horizon=30000, warmup=3000, replications=2, base_seed=1,
    )


def test_run_sweep_deterministic_and_ordered():
    spec = _tiny_both_spec()
    rows = run_sweep(spec)
    assert rows == run_sweep(spec)
    assert len(rows) == 4  # 2 configs x 2 sources
    keys = [(r.N, r.L, r.r, r.M, r.source) for r in rows]
    assert keys == sorted(keys)
    assert [r.source for r in rows] == ["analytical", "simulated"] * 2


def test_run_sweep_parallel_matches_serial():
    spec = _tiny_both_spec()
    assert run_sweep(spec, jobs=1) == run_sweep(spec, jobs=3)


# -- comparison ---------------------------------------------------------------

def test_compare_identical_inputs_yield_zero_diffs():
    spec = _tiny_both_spec()
    rows = run_sweep(spec)
    ana = [r for r in rows if r.source == "analytical"]
    # a fake simulated set that exactly copies the analytical values
    sim = [
        ResultRow(**{**{f: getattr(r, f) for f in r.__dataclass_fields__}, "source": "simulated"})
        for r in ana
    ]
    diffs, summary = compare(ana, sim)
    assert len(diffs) == 2
    for d in diffs:
        for metric in DIFF_METRICS:
            assert d.abs_diff[metric] in (0.0, None)
    assert summary["tau"]["max_abs"] == 0.0
    assert summary["PS"]["median_rel"] == 0.0


def test_compare_keeps_each_side_to_its_own_source():
    base = dict(mode="unsat1", N=2, L=100, r=0.05, M=1)
    a = ResultRow(**base, source="analytical", tau=0.002)
    s = ResultRow(**base, source="simulated", tau=0.001)
    # one mixed list serves both sides, in either order
    for rows in ([a, s], [s, a]):
        diffs, _ = compare(rows, rows)
        assert diffs[0].abs_diff["tau"] == pytest.approx(0.001)
    with pytest.raises(ValueError, match="simulated input has no simulated rows"):
        compare([a], [a])
    with pytest.raises(ValueError, match="analytical input has no analytical rows"):
        compare([s], [s])
    with pytest.raises(ValueError, match="analytical input has two analytical rows"):
        compare([a, a], [s])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=40))
def test_compare_summary_matches_numpy_bit_for_bit(pairs):
    base = dict(mode="unsat1", L=100, r=0.05, M=1)
    ana = [ResultRow(**base, N=n, source="analytical", tau=av) for n, (av, _) in enumerate(pairs)]
    sim = [ResultRow(**base, N=n, source="simulated", tau=sv) for n, (_, sv) in enumerate(pairs)]
    _, summary = compare(ana, sim)
    abs_vals = [abs(av - sv) for av, sv in pairs]
    rel_vals = [abs((av - sv) / abs(av)) for av, sv in pairs if av != 0]
    with np.errstate(all="ignore"):  # inf relative diffs: numpy warns, the values stand
        expected = {"median_abs": np.median(abs_vals), "p90_abs": np.percentile(abs_vals, 90),
                    "max_abs": np.max(abs_vals)}
        if rel_vals:
            expected.update(median_rel=np.median(rel_vals), p90_rel=np.percentile(rel_vals, 90),
                            max_rel=np.max(rel_vals))
    # reprs: bit-identical floats, NaN included (an inf relative diff can make p90 NaN)
    assert {k: repr(v) for k, v in summary["tau"].items()} == {
        k: repr(float(v)) for k, v in expected.items()}


def test_compare_mismatched_keys_lists_orphans():
    a = ResultRow(mode="unsat1", N=2, L=100, r=0.05, M=1, source="analytical")
    b = ResultRow(mode="unsat1", N=5, L=100, r=0.05, M=1, source="simulated")
    with pytest.raises(KeyMismatchError) as err:
        compare([a], [b])
    assert err.value.only_analytical == [a.key]
    assert err.value.only_simulated == [b.key]


def test_compare_direction_and_scaling():
    base = dict(mode="unsat1", N=2, L=100, r=0.05, M=1)
    a = ResultRow(**base, source="analytical", tau=0.002, a=0.5, TH=0.4,
                  PS=0.9, TS_sym=600.0, TVS_sym=700.0)
    s = ResultRow(**base, source="simulated", tau=0.001, a=0.55, TH=0.5,
                  PS=0.8, TS_sym=660.0, TVS_sym=630.0)
    diffs, summary = compare([a], [s])
    d = diffs[0]
    assert d.abs_diff["tau"] == pytest.approx(0.001)
    assert d.rel_diff["tau"] == pytest.approx(0.5)
    assert d.abs_diff["PS"] == pytest.approx(0.1)
    assert d.abs_diff["TVS_sym"] == pytest.approx(70.0)
    assert summary["PS"]["max_abs"] == pytest.approx(0.1)


def test_compare_skips_missing_metrics():
    base = dict(mode="unsat1", N=2, L=100, r=0.05, M=1)
    a = ResultRow(**base, source="analytical", tau=0.002, a=0.5)
    s = ResultRow(**base, source="simulated", tau=0.001, a=0.5, TH=0.5)
    diffs, summary = compare([a], [s])
    assert diffs[0].abs_diff["TH"] is None
    assert "TH" not in summary
    assert "tau" in summary


def test_write_diff_csv_layout(tmp_path):
    base = dict(mode="unsat1", N=2, L=100, r=0.05, M=1)
    a = ResultRow(**base, source="analytical", tau=0.002, a=0.5, TH=0.4,
                  PS=0.9, TS_sym=600.0, TVS_sym=700.0)
    s = ResultRow(**base, source="simulated", tau=0.001, a=0.55, TH=0.5,
                  PS=0.8, TS_sym=660.0, TVS_sym=630.0)
    diffs, _ = compare([a], [s])
    path = tmp_path / "diff.csv"
    write_diff_csv(diffs, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("mode,N,L,r,M,abs_tau,rel_tau,")
    assert len(lines) == 2
    assert lines[1].startswith("unsat1,2,100,0.05,1,")


def test_write_diff_csv_bytes(tmp_path):
    base = dict(mode="unsat1", N=2, L=100, r=0.05, M=1)
    a = ResultRow(**base, source="analytical", tau=0.002, a=0.5, TH=0.4,
                  PS=0.9, TS_sym=600.0, TVS_sym=700.0)
    s = ResultRow(**base, source="simulated", tau=0.001, a=0.55, TH=0.5,
                  PS=0.8, TS_sym=660.0, TVS_sym=630.0)
    # an integer rate, a zero analytical value (no rel) and missing metrics
    other = dict(mode="sat", N=3, L=30, r=0, M=1)
    diffs, _ = compare([a, ResultRow(**other, source="analytical", tau=0.0, a=0.25)],
                       [s, ResultRow(**other, source="simulated", tau=0.5, a=0.25, TH=0.1)])
    path = tmp_path / "diff.csv"
    write_diff_csv(diffs, str(path))
    assert path.read_bytes() == (
        b"mode,N,L,r,M,abs_tau,rel_tau,abs_a,rel_a,abs_TH,rel_TH,abs_PS,rel_PS,"
        b"abs_TS_sym,rel_TS_sym,abs_TVS_sym,rel_TVS_sym\r\n"
        b"sat,3,30,0.0,1,-0.5,,0.0,0.0,,,,,,,,\r\n"
        b"unsat1,2,100,0.05,1,0.001,0.5,-0.050000000000000044,-0.10000000000000009,"
        b"-0.09999999999999998,-0.24999999999999994,0.09999999999999998,0.11111111111111108,"
        b"-60.0,-0.1,70.0,0.1\r\n"
    )
