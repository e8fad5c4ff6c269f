"""What importing the package and starting each command loads, and the public names.

Every import-guard case runs in a fresh interpreter and checks sys.modules
after the command, never the time it took.
"""
import ast
import graphlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import star154
from star154 import core, dataset, predictor
from star154.analytical import SolverSettings
from star154.predictor import MLPArchitecture, init_model, save_model

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the public names of the package, by the module that defines them
PUBLIC = {
    "core": ["CONSTANTS", "T1_SYMBOLS", "NetworkConfig", "PerformanceReport",
             "ProtocolConstants", "Source", "TrafficMode"],
    "analytical": ["ChannelStationaryDistribution", "FixedPoint", "NonConvergenceError",
                   "SolverSettings", "a_from_tau", "channel_stationary", "solve",
                   "tau_update", "throughput"],
    "metrics": ["attempt_probs", "delays", "queue_adjusted", "reliability", "report",
                "retry_probs", "service_times"],
    "queueing": ["QueueStats", "empty_prob", "queue_stats", "utilization"],
    "simulator": ["SimConfig", "SimCounters", "run", "run_replication", "trace"],
}

# runs the CLI with the given arguments, then prints the loaded module names
_RUN_CLI = """
import json, sys
from star154.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:
    code = e.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _fresh(code: str, *args: str) -> dict:
    """The last stdout line of `code` run in a new interpreter, parsed as JSON."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_modules(*argv: str) -> set[str]:
    result = _fresh(_RUN_CLI, *argv)
    assert result["code"] == 0
    return set(result["modules"])


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    loaded = _fresh("import json, sys, star154; print(json.dumps(sorted(sys.modules)))")
    assert "star154" in loaded
    assert [m for m in loaded if m.startswith("star154.")] == []
    assert "numpy" not in loaded


@pytest.mark.parametrize("module", ["metrics", "analytical"])
def test_analytical_and_metrics_each_import_alone_without_numpy(module):
    code = f"import json, sys, star154.{module}; print(json.dumps(sorted(sys.modules)))"
    loaded = set(_fresh(code))
    assert {"star154.analytical", "star154.core", "star154.queueing"} <= loaded
    assert "numpy" not in loaded
    if module == "analytical":  # metrics imports analytical, never the other way round
        assert not {"star154.metrics", "star154.dataset"} & loaded


def _package_imports() -> dict[str, set[str]]:
    """Each module of the package -> the package modules it imports anywhere in its body."""
    package = Path(SRC) / "star154"
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for path in package.glob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):  # function-level imports too
            if isinstance(node, ast.ImportFrom) and node.level == 1:  # from .x import y
                names = [node.module] if node.module else [a.name for a in node.names]
                imported |= {name for name in names if name in modules}  # from . import x
        graph[path.stem] = imported
    return graph


def test_package_imports_form_a_dag():
    graph = _package_imports()
    assert "analytical" in graph["metrics"]  # the parse sees the package's own edges
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as e:
        pytest.fail(f"import cycle: {' -> '.join(e.args[1])}")


@pytest.fixture(scope="module")
def analytical_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "ana.csv"
    rows = [dataset.analytical_row(core.NetworkConfig(N=n, L=100, mode=core.TrafficMode.UNSAT1,
                                                      r=0.05), SolverSettings())
            for n in (3, 5)]
    dataset.write_csv(rows, str(path))
    return path


def test_help_solve_sweep_and_compare_never_import_numpy(analytical_csv, tmp_path):
    simulated = tmp_path / "sim.csv"
    simulated.write_text(analytical_csv.read_text().replace(",analytical,", ",simulated,"))
    commands = [
        ["--help"],
        ["solve", "--mode", "unsatm", "--nodes", "10", "--frame-bytes", "50",
         "--rate", "0.08", "--buffer", "5"],
        ["sweep", "--mode", "unsat1", "--nodes", "3:9:3", "--frame-bytes", "50,100",
         "--rate", "0.05", "--out", str(tmp_path / "sweep.csv")],
        ["compare", "--analytical", str(analytical_csv), "--simulated", str(simulated),
         "--out", str(tmp_path / "diff.csv")],
    ]
    for argv in commands:
        loaded = _cli_modules(*argv)
        assert "numpy" not in loaded, argv[0]
        assert "star154.simulator" not in loaded and "star154.predictor" not in loaded
    assert (tmp_path / "sweep.csv").read_text().count("\n") == 7
    assert (tmp_path / "diff.csv").read_text().count("\n") == 3


def test_predict_loads_neither_the_simulator_nor_the_solver(tmp_path):
    path = tmp_path / "model.txt"
    save_model(init_model(MLPArchitecture(hidden=(3, 3, 2)), seed=5), str(path))
    loaded = _cli_modules("predict", "--model", str(path), "--input", "0.5,0.5,0.5,0.5")
    assert "star154.predictor" in loaded
    assert "star154.simulator" not in loaded and "star154.analytical" not in loaded


def test_every_public_name_resolves_to_its_modules_object():
    assert sorted(star154.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        sub = importlib.import_module(f"star154.{module}")
        for name in names:
            assert getattr(star154, name) is getattr(sub, name), name


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from star154 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(star154.__all__)


def test_dir_lists_the_public_names():
    assert set(star154.__all__) <= set(dir(star154))
    assert "__version__" in dir(star154)


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        star154.no_such_name
    assert not hasattr(star154, "no_such_name")


def test_engine_and_tasks_are_defined_once_in_core():
    assert dataset.Engine is core.Engine
    assert predictor.TASKS is core.TASKS
