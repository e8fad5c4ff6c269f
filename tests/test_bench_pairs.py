"""tools/bench_pairs.py: its reading of pytest's output for the tier1 workload and its RSS fit."""
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_OUTPUT = """\
........................................................................ [ 18%]
..............F......................................................... [ 37%]
=================================== FAILURES ===================================
E   FileNotFoundError: [Errno 2] No such file or directory: 'star154'
============================= slowest 10 durations =============================
49.10s call     tests/test_acceptance.py::test_11_inverse_predictor_quality
1.80s call     tests/test_acceptance.py::test_08_simulator_agrees
0.50s setup    tests/test_cli.py::test_usage_errors_exit_2
0.04s call     tests/test_core.py::test_windows[a b-30]
=========================== short test summary info ============================
FAILED tests/test_cli.py::test_console_script_is_installed - FileNotFoundError
1 failed, 379 passed, 1 error, 5 warnings in 64.21s (0:01:04)
"""


def test_pytest_counts_read_the_last_summary_line():
    assert bench_pairs.pytest_counts(_OUTPUT) == {
        "failed": 1, "passed": 379, "errors": 1, "warnings": 5}
    assert bench_pairs.pytest_counts("53 passed in 0.60s\n") == {"passed": 53}
    assert bench_pairs.pytest_counts("==== 2 errors in 1.00s ====\n") == {"errors": 2}
    # no summary line: pytest did not get to run the suite
    assert bench_pairs.pytest_counts("ERROR: file or directory not found: tests\n") == {}


def test_pytest_durations_keep_seconds_phase_and_test_id():
    slowest = bench_pairs.pytest_durations(_OUTPUT)
    assert slowest[:2] == [
        {"seconds": 49.1, "phase": "call",
         "test": "tests/test_acceptance.py::test_11_inverse_predictor_quality"},
        {"seconds": 1.8, "phase": "call",
         "test": "tests/test_acceptance.py::test_08_simulator_agrees"},
    ]
    assert [d["phase"] for d in slowest] == ["call", "call", "setup", "call"]
    assert slowest[-1]["test"] == "tests/test_core.py::test_windows[a b-30]"


def _canned(runs):
    """A stand-in for bench_pairs._run that replays (repetitions, peak_rss_mb) pairs."""
    def run(tree, workload, seed, seconds, trace):
        repetitions, rss = runs.pop(0)
        metrics = {"rate_per_s": {"value": 10.0}, "peak_rss_mb": {"value": rss}}
        return ({"repetitions": repetitions, "checks": {}},
                {"metrics": metrics, "failed": 0, "attempted": 1, "correct": True})
    return run


def test_rss_repetition_headroom_follows_the_parent_slope(monkeypatch):
    spec = {"rate_per_s": {"better": "higher", "bound": 0.25},
            "peak_rss_mb": {"better": "lower", "bound": 0.1}}
    # 0.01 MiB (10.24 KiB) per repetition from 40 MiB; both sides of a pair run the same
    reps = [900, 1000, 1100, 1000]
    runs = [(r, 40.0 + 0.01 * r) for r in reps for _ in range(2)]
    monkeypatch.setattr(bench_pairs, "_run", _canned(runs))
    out = bench_pairs._pairs(dict.fromkeys(bench_pairs.SIDES), "sweep", [1, 2, 3, 4], 1.0, spec)
    assert out["rss_kib_per_repetition"]["parent"] == 10.24
    # 10% of the 50 MiB median is 500 repetitions over the median of 1000
    assert out["rss_repetition_headroom"] == {"repetitions": 500.0, "factor": 1.5}
    # a flat or falling slope sets no bound on repetitions
    runs = [(1000, 50.0)] * 4
    monkeypatch.setattr(bench_pairs, "_run", _canned(runs))
    assert bench_pairs._pairs(dict.fromkeys(bench_pairs.SIDES), "sweep", [1, 2], 1.0, spec)["rss_repetition_headroom"] is None
    assert bench_pairs._rss_headroom(-3.0, 50.0, reps, 0.1) is None
    # BENCH_32's parent fits: sweep, simulate and pipeline
    assert [bench_pairs._rss_headroom(*fit, 0.1) for fit in (
        (18.196, 54.666016, [983]), (4.498, 39.644531, [650]), (90.561, 45.751953, [81, 82]),
    )] == [{"repetitions": 307.6, "factor": 1.313}, {"repetitions": 902.5, "factor": 2.389},
           {"repetitions": 51.7, "factor": 1.635}]
