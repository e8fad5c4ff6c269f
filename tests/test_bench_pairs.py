"""tools/bench_pairs.py's reading of pytest's output for the tier1 workload."""
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
