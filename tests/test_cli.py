"""End-to-end command-line flows, exit codes, and output determinism."""
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from star154.analytical import SolverSettings
from star154 import dataset
from star154.cli import build_parser, main
from star154.core import NetworkConfig, TrafficMode
from star154.dataset import HEADER, analytical_row, read_csv, write_csv
from star154.predictor import (
    DESK_HIDDEN, MLPArchitecture, forward, init_model, load_model, save_model,
)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


SOLVE = ["solve", "--mode", "unsat1", "--nodes", "10", "--frame-bytes", "100",
         "--rate", "0.05"]
SIM = ["simulate", "--mode", "unsat1", "--nodes", "3", "--frame-bytes", "50",
       "--rate", "0.1", "--horizon", "20000", "--warmup", "2000",
       "--reps", "2", "--seed", "9"]


def test_solve_reports_metrics_and_csv(capsys):
    code, out, err = _run(capsys, SOLVE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# mode=unsat1 N=10 L=100 bytes r=0.05 M=1"
    assert any(ln.startswith("# tau=0.0005170643552020996") for ln in lines)
    idx = lines.index(",".join(HEADER))
    assert lines[idx + 1].startswith("unsat1,10,100,0.05,1,analytical,")
    assert lines[-1].startswith("# converged in ")


def test_solve_takes_the_largest_buffer_and_refuses_a_larger_one(capsys):
    argv = ["solve", "--mode", "unsatm", "--nodes", "10", "--frame-bytes", "50",
            "--rate", "0.08", "--buffer"]
    code, out, _ = _run(capsys, argv + ["10000"])
    assert code == 0 and out.startswith("# mode=unsatm N=10 L=50 bytes r=0.08 M=10000\n")
    with pytest.raises(SystemExit) as e:
        main(argv + ["10001"])
    assert e.value.code == 2
    assert "buffer M = 10001 exceeds the cap of 10000 frames" in capsys.readouterr().err


def test_solve_output_is_byte_identical(capsys):
    _, out1, _ = _run(capsys, SOLVE)
    _, out2, _ = _run(capsys, SOLVE)
    assert out1 == out2


def test_solve_multibuffer_prints_queue_delays(capsys):
    code, out, _ = _run(capsys, [
        "solve", "--mode", "unsatm", "--nodes", "10", "--frame-bytes", "100",
        "--rate", "0.05", "--buffer", "5",
    ])
    assert code == 0
    assert any(ln.startswith("# TSW=") for ln in out.splitlines())


def test_usage_errors_exit_2(tmp_path, capsys, training_csv):
    out_csv = str(tmp_path / "x.csv")
    model = str(tmp_path / "m.txt")
    trace = str(tmp_path / "t.txt")
    train = ["train", "--data", training_csv, "--target", "ps", "--out", model]
    # training data train cannot use: one frame length, one node count, 4 rows
    one_l, one_n, few = (str(tmp_path / f"{name}.csv") for name in ("one_l", "one_n", "few"))
    for path, nodes, frame_bytes, rate in ((one_l, "2:10:2", "50", "0.02:0.12:0.02"),
                                           (one_n, "4", "50,100", "0.02:0.12:0.02"),
                                           (few, "2,4", "50,100", "0.02")):
        assert main(["sweep", "--mode", "unsat1", "--nodes", nodes, "--frame-bytes", frame_bytes,
                     "--rate", rate, "--out", path]) == 0
    capsys.readouterr()
    cases = [
        ["solve", "--mode", "unsat1", "--nodes", "10", "--frame-bytes", "100"],
        ["solve", "--mode", "unsatm", "--nodes", "10", "--frame-bytes", "100",
         "--rate", "0.05", "--buffer", "1"],
        ["solve", "--mode", "unsat1", "--nodes", "10", "--frame-bytes", "100",
         "--rate", "0.05", "--buffer", "5"],
        # --buffer other than 1 outside unsatm, in every command
        ["solve", "--mode", "sat", "--nodes", "10", "--frame-bytes", "100", "--buffer", "7"],
        ["sweep", "--mode", "unsat1", "--nodes", "5", "--frame-bytes", "100",
         "--rate", "0.05", "--buffer", "7", "--out", out_csv],
        ["sweep", "--mode", "unsat1", "--nodes", "abc", "--frame-bytes", "100",
         "--rate", "0.05", "--out", "/tmp/x.csv"],
        [],
        # grid values NetworkConfig rejects
        ["sweep", "--mode", "unsat1", "--nodes", "0", "--frame-bytes", "100",
         "--rate", "0.05", "--out", out_csv],
        ["sweep", "--mode", "unsat1", "--nodes", "5", "--frame-bytes", "100",
         "--rate=-1", "--out", out_csv],
        # r > 2L: an arrival probability above 1 per mini-slot
        ["sweep", "--mode", "unsatm", "--nodes", "5", "--frame-bytes", "100",
         "--rate", "1e9", "--buffer", "3", "--out", out_csv],
        SOLVE[:-1] + ["1e9"],
        # saturated mode ignores the rate but still refuses a meaningless one
        ["solve", "--mode", "sat", "--nodes", "10", "--frame-bytes", "100", "--rate=nan"],
        ["solve", "--mode", "sat", "--nodes", "10", "--frame-bytes", "100", "--rate=-1"],
        ["solve", "--mode", "sat", "--nodes", "10", "--frame-bytes", "100", "--rate=inf"],
        ["simulate", "--mode", "sat", "--nodes", "3", "--frame-bytes", "50", "--rate=nan",
         "--horizon", "2000", "--reps", "1"],
        # ranges that never end or hold too many values
        ["sweep", "--mode", "sat", "--nodes", "2:inf:1", "--frame-bytes", "100",
         "--out", out_csv],
        ["sweep", "--mode", "sat", "--nodes", "1:1e12:1", "--frame-bytes", "100",
         "--out", out_csv],
        # ranges that would truncate an integer axis or repeat a grid point
        ["sweep", "--mode", "sat", "--nodes", "2:4:0.5", "--frame-bytes", "100",
         "--out", out_csv],
        ["sweep", "--mode", "sat", "--nodes", "5", "--frame-bytes", "30:31:0.3",
         "--out", out_csv],
        ["sweep", "--mode", "unsat1", "--nodes", "5", "--frame-bytes", "100",
         "--rate", "0.1,0.1", "--out", out_csv],
        # node counts the analytical model cannot take
        ["solve", "--mode", "sat", "--nodes", "1", "--frame-bytes", "100"],
        SOLVE[:4] + ["1"] + SOLVE[5:],
        ["sweep", "--mode", "sat", "--nodes", "1,2", "--frame-bytes", "100", "--out", out_csv],
        ["sweep", "--mode", "unsat1", "--nodes", "1", "--frame-bytes", "100", "--rate", "0.05",
         "--engine", "both", "--out", out_csv],
        # training settings TrainConfig rejects
        train + ["--batch", "0"],
        train + ["--batch", "-3"],
        train + ["--epochs", "0"],
        # solver settings SolverSettings rejects; an infinite tolerance accepts any start
        SOLVE + ["--tol", "-1"],
        SOLVE + ["--damping", "2"],
        SOLVE + ["--max-iter", "-5"],
        SOLVE + ["--tol", "nan"],
        SOLVE + ["--tol", "inf"],
        ["sweep", "--mode", "sat", "--nodes", "5", "--frame-bytes", "50", "--max-iter", "-1",
         "--out", out_csv],
        # simulation settings SimConfig rejects
        SIM[:9] + ["--horizon", "0"],
        SIM + ["--reps", "0"],
        SIM + ["--warmup", "-5"],
        SIM + ["--seed", "-1"],
        # layer sizes and training settings
        train + ["--hidden", "a,b,c"],
        train + ["--hidden", "0,4,4"],
        train + ["--hidden", "5,5"],
        train + ["--hidden", ""],
        train + ["--lr", "inf"],
        # worker counts and trace lengths the simulator and the sweep reject
        SIM + ["--jobs", "0"],
        SIM + ["--jobs", "-2", "--trace", trace],
        SIM + ["--trace", trace, "--trace-events", "-1"],
        SIM + ["--trace", ""],
        ["sweep", "--mode", "sat", "--nodes", "5", "--frame-bytes", "50", "--jobs", "0",
         "--out", out_csv],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("star154: error: "), argv
        assert "Traceback" not in err
    # an empty output path is refused before any work, naming its flag
    for argv in (["sweep", "--mode", "sat", "--nodes", "5", "--frame-bytes", "50", "--out", ""],
                 ["compare", "--analytical", training_csv, "--simulated", training_csv,
                  "--out", ""],
                 train[:-1] + [""]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.splitlines()[-1] == (
            "star154: error: --out needs a file path"), argv
    # --hidden and --desk-scale both name the sizes: the train parser refuses the pair
    with pytest.raises(SystemExit) as exc:
        main(train + ["--hidden", "8,8,8", "--desk-scale"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "star154 train: error: argument --desk-scale: not allowed with argument --hidden")
    # sat's grid keys r = 0, yet its typed rates get the message of every other mode
    for mode in ("sat", "unsat1"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--mode", mode, "--nodes", "5", "--frame-bytes", "50", "--rate=-1",
                  "--out", out_csv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "star154: error: arrival rate must be finite and >= 0, got -1.0")
    # such data is reported like a malformed data file
    for data, problem in ((one_l, "a feature is constant"), (one_n, "target is constant"),
                          (few, "need at least 10 usable rows, got 4")):
        _exit_2_with_one_line(
            capsys, ["train", "--data", data, "--target", "n", "--out", model], data, problem)
    _exit_2_with_one_line(capsys, train + ["--val-frac", "0.999"], training_csv,
                          "0 training and 60 validation rows")
    _exit_2_with_one_line(capsys, train + ["--val-frac", "0.01"], training_csv,
                          "1 validation row: need 0 or at least 2 to correlate")
    assert not any(map(os.path.exists, (out_csv, model, trace)))


@pytest.mark.parametrize("axis, text, problem", [
    ("--nodes", "2:4:0.5", "an integer axis needs integral start, stop and step, got '2:4:0.5'"),
    ("--nodes", "2.5:3:1", "an integer axis needs integral start, stop and step, got '2.5:3:1'"),
    ("--frame-bytes", "30:31:0.3",
     "an integer axis needs integral start, stop and step, got '30:31:0.3'"),
    ("--buffer", "2:3:0.5", "an integer axis needs integral start, stop and step, got '2:3:0.5'"),
    ("--rate", "0.1,0.1", "repeated value in '0.1,0.1': one grid row per configuration"),
    ("--nodes", "5,5", "repeated value in '5,5': one grid row per configuration"),
    ("--rate", "0:1e-12:1e-13", "step finer than 1e-12 in '0:1e-12:1e-13': range values are "
     "rounded to 12 decimals, so some would repeat"),
])
def test_sweep_refuses_axes_that_change_the_grid(axis, text, problem, tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = {"--nodes": "5", "--frame-bytes": "30", "--rate": "0.1", "--buffer": "3", axis: text}
    code, stdout, err = _outcome(capsys, ["sweep", "--mode", "unsatm", "--out", str(out),
                                          *(s for kv in argv.items() for s in kv)])
    assert code == 2 and stdout == ""
    assert err.splitlines()[-1] == f"star154: error: {problem}"
    assert "Traceback" not in err and not out.exists()


def test_long_buffer_under_overload_solves_and_sweeps(tmp_path, capsys):
    # (M + 1) ln p passes 709 here: p ** (M + 1) used to raise OverflowError
    net = ["--mode", "unsatm", "--nodes", "20", "--frame-bytes", "30", "--rate", "0.5",
           "--buffer", "500"]
    code, out, err = _outcome(capsys, ["solve", *net])
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("# converged in 33 iterations")
    path = tmp_path / "long.csv"
    code, out, err = _outcome(capsys, ["sweep", *net[:-1], "200,500,2000", "--out", str(path)])
    assert code == 0 and out == f"wrote 3 rows to {path}\n"
    rows = read_csv(str(path))
    assert all(row.converged for row in rows)
    # the queue is nearly always full, so a frame waits about M - 1 services
    for row, M in zip(rows, (200, 500, 2000)):
        assert row.M == M and (M - 2) * row.TVS_sym < row.TVSW_sym - row.TVS_sym < M * row.TVS_sym


def test_oversized_sweep_grid_exits_2_before_it_is_built(monkeypatch, tmp_path, capsys):
    # each axis is within its limit, the whole grid (1e10 points) is not
    def no_grid(spec):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(dataset, "generate_grid", no_grid)
    code, _, err = _outcome(capsys, [
        "sweep", "--mode", "sat", "--nodes", "1:100000:1", "--frame-bytes", "1:100000:1",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert err.splitlines()[-1] == "star154: error: grid has 10000000000 points, more than 100000"


@pytest.mark.parametrize("net", [
    ["--mode", "unsat1", "--nodes", "10", "--frame-bytes", "100", "--rate", "0.05"],
    ["--mode", "sat", "--nodes", "10", "--frame-bytes", "100"],
    ["--mode", "sat", "--nodes", "10", "--frame-bytes", "100", "--rate", "0.05"],
    ["--mode", "unsatm", "--nodes", "10", "--frame-bytes", "100", "--rate", "0.05",
     "--buffer", "5"],
])
def test_solve_csv_block_is_the_write_csv_record(net, tmp_path, capsys):
    code, out, _ = _run(capsys, ["solve", *net])
    assert code == 0
    lines = out.splitlines()
    idx = lines.index(",".join(HEADER))
    block = tmp_path / "block.csv"
    block.write_text("\n".join(lines[idx:idx + 2]) + "\n")

    args = dict(zip(net[::2], net[1::2]))
    cfg = NetworkConfig(
        N=int(args["--nodes"]), L=int(args["--frame-bytes"]), mode=TrafficMode(args["--mode"]),
        r=0.0 if args["--mode"] == "sat" else float(args["--rate"]), M=int(args.get("--buffer", 1)),
    )
    row = analytical_row(cfg, SolverSettings())
    swept = tmp_path / "sweep.csv"
    write_csv([row], str(swept))
    assert swept.read_text().splitlines()[1] == lines[idx + 1]
    assert read_csv(str(block)) == read_csv(str(swept)) == [row]


def test_solve_nonconvergence_exits_1(capsys):
    # --max-iter bounds damped iterations, or bisection halvings
    bisection = ["solve", "--mode", "unsatm", "--nodes", "10", "--frame-bytes", "30",
                 "--rate", "0.05", "--buffer", "2", "--bisection", "--max-iter", "1"]
    for argv in (SOLVE + ["--max-iter", "3"], bisection):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert "did not converge" in err
        assert out == ""


def test_simulate_deterministic_with_trace(tmp_path, capsys):
    trace_path = tmp_path / "events.tsv"
    argv = SIM + ["--trace", str(trace_path)]
    _, out1, _ = _run(capsys, argv)
    first = trace_path.read_bytes()
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2
    assert trace_path.read_bytes() == first
    assert first
    assert any(ln.startswith("# ci95 TH:") for ln in out1.splitlines())


def test_simulate_one_replication_reports_no_interval(capsys):
    code, out, _ = _run(capsys, SIM[:-3] + ["1", "--seed", "9"])
    assert code == 0
    lines = out.splitlines()
    assert not any(ln.startswith("# ci95") for ln in lines)
    row = dict(zip(HEADER, lines[lines.index(",".join(HEADER)) + 1].split(",")))
    assert row["ci_TH"] == row["ci_PS"] == ""
    assert float(row["TH"]) > 0.0


def test_simulate_without_traffic_prints_undefined_metrics(capsys):
    code, out, _ = _run(capsys, ["simulate", "--mode", "unsat1", "--nodes", "3",
                                 "--frame-bytes", "50", "--rate", "0", "--horizon", "5000",
                                 "--reps", "2", "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1:4] == ["# tau=0.0 a=undefined", "# TH=0.0 PS=undefined",
                          "# TS=undefined TVS=undefined symbols"]
    assert "nan" not in out
    assert lines[-1] == "unsat1,3,50,0.0,1,simulated,0.0,,0.0,,,,,,true,0.0,"


def test_simulate_multibuffer_prints_tvsw_when_no_frame_is_delivered(capsys):
    code, out, _ = _run(capsys, ["simulate", "--mode", "unsatm", "--nodes", "20",
                                 "--frame-bytes", "30", "--rate", "60", "--buffer", "3",
                                 "--horizon", "400", "--warmup", "0", "--reps", "1",
                                 "--seed", "6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[3:5] == ["# TS=undefined TVS=280.0 symbols",
                          "# TSW=undefined TVSW=280.0 symbols"]
    row = dict(zip(HEADER, lines[-1].split(",")))
    assert (row["TSW_sym"], row["TVSW_sym"]) == ("", "280.0")


def test_simulate_different_seed_changes_output(capsys):
    _, out1, _ = _run(capsys, SIM)
    _, out2, _ = _run(capsys, SIM[:-1] + ["10"])
    assert out1 != out2


def test_sweep_writes_deterministic_csv(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--mode", "unsat1", "--nodes", "2,5", "--frame-bytes", "100",
        "--rate", "0.01:0.05:0.02", "--out", str(out_csv),
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert "wrote 6 rows" in out
    first = out_csv.read_bytes()
    _run(capsys, argv)
    assert out_csv.read_bytes() == first
    rows = read_csv(str(out_csv))
    assert len(rows) == 6 and all(r.converged for r in rows)


def test_sweep_flags_nonconvergence(tmp_path, capsys):
    out_csv = tmp_path / "bad.csv"
    code, out, _ = _run(capsys, [
        "sweep", "--mode", "unsat1", "--nodes", "10", "--frame-bytes", "100",
        "--rate", "0.05", "--max-iter", "3", "--out", str(out_csv),
    ])
    assert code == 1
    assert "not converged" in out
    rows = read_csv(str(out_csv))
    assert len(rows) == 1 and not rows[0].converged


def test_sweep_ms_columns(tmp_path, capsys):
    out_csv = tmp_path / "ms.csv"
    code, _, _ = _run(capsys, [
        "sweep", "--mode", "sat", "--nodes", "5", "--frame-bytes", "50",
        "--ms", "--out", str(out_csv),
    ])
    assert code == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.endswith("ci_TH,ci_PS,TS_ms,TVS_ms,TSW_ms,TVSW_ms")


def test_compare_flow(tmp_path, capsys):
    ana_csv = tmp_path / "ana.csv"
    sim_csv = tmp_path / "sim.csv"
    diff_csv = tmp_path / "diff.csv"
    _run(capsys, [
        "sweep", "--mode", "unsat1", "--nodes", "3", "--frame-bytes", "100",
        "--rate", "0.05", "--out", str(ana_csv),
    ])
    _run(capsys, [
        "sweep", "--mode", "unsat1", "--nodes", "3", "--frame-bytes", "100",
        "--rate", "0.05", "--engine", "sim", "--horizon", "30000",
        "--warmup", "3000", "--reps", "2", "--seed", "4", "--out", str(sim_csv),
    ])
    code, out, _ = _run(capsys, [
        "compare", "--analytical", str(ana_csv), "--simulated", str(sim_csv),
        "--out", str(diff_csv),
    ])
    assert code == 0
    assert "wrote 1 comparisons" in out
    assert any(ln.startswith("# tau:") for ln in out.splitlines())
    assert diff_csv.exists()


def test_saturated_simulate_matches_its_sweep_in_compare(tmp_path, capsys):
    # sat ignores the rate, so both commands key the scenario r = 0
    sim_csv = tmp_path / "sim.csv"
    ana_csv = tmp_path / "ana.csv"
    net = ["--mode", "sat", "--nodes", "5", "--frame-bytes", "50", "--rate", "0.05"]
    code, out, _ = _run(capsys, ["simulate", *net, "--horizon", "20000", "--reps", "2",
                                 "--seed", "3"])
    assert code == 0
    lines = out.splitlines()
    row = lines[lines.index(",".join(HEADER)) + 1]
    assert row.startswith("sat,5,50,0.0,1,simulated,")
    sim_csv.write_text(",".join(HEADER) + "\n" + row + "\n")
    assert main(["sweep", *net, "--out", str(ana_csv)]) == 0
    code, out, err = _run(capsys, ["compare", "--analytical", str(ana_csv),
                                   "--simulated", str(sim_csv), "--out", str(tmp_path / "d.csv")])
    assert (code, err) == (0, "")
    assert "wrote 1 comparisons" in out


def _as_simulated(path, out):
    """A copy of the analytical CSV at path with every row relabelled as simulated."""
    out.write_text(Path(path).read_text().replace(",analytical,", ",simulated,"))
    return out


def test_compare_rejects_mismatched_grids(tmp_path, capsys):
    a_csv = tmp_path / "a.csv"
    b_csv = tmp_path / "b.csv"
    _run(capsys, ["sweep", "--mode", "unsat1", "--nodes", "3",
                  "--frame-bytes", "100", "--rate", "0.05", "--out", str(a_csv)])
    _run(capsys, ["sweep", "--mode", "unsat1", "--nodes", "4",
                  "--frame-bytes", "100", "--rate", "0.05", "--out", str(b_csv)])
    code, _, err = _run(capsys, [
        "compare", "--analytical", str(a_csv),
        "--simulated", str(_as_simulated(b_csv, tmp_path / "b_sim.csv")),
        "--out", str(tmp_path / "d.csv"),
    ])
    assert code == 1
    assert "unmatched" in err


def test_compare_takes_each_side_from_its_own_source(tmp_path, capsys):
    both_csv = tmp_path / "both.csv"
    diff_csv = tmp_path / "diff.csv"
    assert main([
        "sweep", "--mode", "unsat1", "--nodes", "3", "--frame-bytes", "100",
        "--rate", "0.05", "--engine", "both", "--horizon", "30000",
        "--warmup", "3000", "--reps", "2", "--seed", "4", "--out", str(both_csv),
    ]) == 0
    compare = ["compare", "--analytical", str(both_csv), "--simulated", str(both_csv),
               "--out", str(diff_csv)]
    code, out, _ = _run(capsys, compare)
    assert code == 0 and "wrote 1 comparisons" in out
    # one file serves both sides, and the diffs are analytical minus simulated
    ana, sim = read_csv(str(both_csv))
    assert ana.source == "analytical" and sim.source == "simulated"
    abs_tau = float(diff_csv.read_text().splitlines()[1].split(",")[5])
    assert abs_tau == ana.tau - sim.tau and abs_tau != 0.0

    # an analytical-only file is no simulated side
    ana_csv = tmp_path / "ana.csv"
    write_csv([ana], str(ana_csv))
    _exit_2_with_one_line(capsys, compare[:3] + ["--simulated", str(ana_csv)] + compare[5:],
                          "star154: error: simulated input has no simulated rows")


@pytest.fixture(scope="module")
def training_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.csv"
    assert main([
        "sweep", "--mode", "unsat1", "--nodes", "2:10:2",
        "--frame-bytes", "50,100", "--rate", "0.02:0.12:0.02",
        "--out", str(path),
    ]) == 0
    return str(path)


def test_train_then_predict(training_csv, tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    argv = [
        "train", "--data", training_csv, "--target", "ps",
        "--hidden", "6,5,4", "--epochs", "40", "--seed", "3",
        "--out", str(model_path),
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert "# target=ps hidden=[6, 5, 4] samples=60" in out
    assert any(ln.startswith("# held-out R=") for ln in out.splitlines())
    first_model = model_path.read_bytes()
    _run(capsys, argv)
    assert model_path.read_bytes() == first_model

    code, out, _ = _run(capsys, [
        "predict", "--model", str(model_path), "--input", "0.05,100,5,400",
    ])
    assert code == 0
    float(out.strip())  # a single parseable real

    with pytest.raises(SystemExit) as exc:
        main(["predict", "--model", str(model_path), "--input", "1,2,3"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--model", str(model_path), "--input", "1,2,3,x"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_train_desk_scale_flag(training_csv, tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "train", "--data", training_csv, "--target", "tvs", "--desk-scale",
        "--epochs", "5", "--seed", "1", "--out", str(tmp_path / "m.txt"),
    ])
    assert code == 0
    assert "hidden=[32, 24, 16]" in out


@pytest.fixture
def small_model(tmp_path):
    path = tmp_path / "model.txt"
    save_model(init_model(MLPArchitecture(hidden=(3, 3, 2)), seed=5), str(path))
    return path


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _exit_2_with_one_line(capsys, argv, *expected):
    code, out, err = _outcome(capsys, argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("star154: error: ")
    for text in expected:
        assert text in err


def test_predict_warns_on_inputs_outside_the_training_range(tmp_path, capsys):
    model = init_model(MLPArchitecture(hidden=(3, 3, 2)), seed=5)
    model.in_min, model.in_max = np.array([0.02, 30, 0.0, 0.0]), np.array([0.1, 120, 1.0, 5e3])
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    predict = ["predict", "--model", str(path), "--input"]
    code, out, err = _outcome(capsys, predict + ["0.05,100,0.9,400"])
    assert (code, err) == (0, "")
    assert out == repr(forward(model, [0.05, 100, 0.9, 400])) + "\n"

    code, out, err = _outcome(capsys, predict + ["5,100,7,-1e6"])
    assert code == 0
    assert out == repr(forward(model, [5, 100, 7, -1e6])) + "\n"  # answered as before
    assert err.count("\n") == 1 and err.startswith("star154: warning: ")
    for text in ("input 1 = 5.0 outside the training range [0.02, 0.1]",
                 "input 3 = 7.0 outside the training range [0.0, 1.0]",
                 "input 4 = -1000000.0 outside the training range [0.0, 5000.0]"):
        assert text in err
    assert "input 2" not in err

    # input 1 overflows to inf once scaled; the sigmoids saturate, and the
    # answer stays finite, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _outcome(capsys, predict + ["1.7e308,100,0.9,400"])
    assert code == 0 and out == repr(forward(model, [1.7e308, 100, 0.9, 400])) + "\n"
    assert np.isfinite(float(out))
    assert err == ("star154: warning: input 1 = 1.7e+308 outside the training range "
                   "[0.02, 0.1]; the answer is an extrapolation\n")


def test_predict_exits_1_when_the_answer_is_not_finite(tmp_path, capsys):
    model = init_model(MLPArchitecture(hidden=DESK_HIDDEN), seed=5)
    model.in_min, model.in_max = np.zeros(4), np.array([1e-3, 1e-3, 1.0, 1.0])
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    # inputs 1 and 2 scale to +inf and -inf, whose sum in the first layer is nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _outcome(
            capsys, ["predict", "--model", str(path), "--input=1e306,-1e306,0.5,0.5"])
    assert (code, out) == (1, "")
    assert err == ("star154: error: the model's answer is nan, not a finite real; "
                   "input 1 = 1e+306 outside the training range [0.0, 0.001]; "
                   "input 2 = -1e+306 outside the training range [0.0, 0.001]\n")


def test_predict_refuses_a_non_finite_input(capsys, small_model):
    predict = ["predict", "--model", str(small_model), "--input"]
    for text, bad in (("0.05,100,nan,400", "value 3 is nan"), ("inf,100,0.9,400", "value 1 is inf"),
                      ("0.05,100,0.9,-1e400", "value 4 is -inf")):
        code, out, err = _outcome(capsys, predict + [text])
        assert code == 2 and out == ""
        assert err.splitlines()[-1].startswith("star154: error: --input " + bad), text
    code, out, _ = _outcome(capsys, predict + ["0.05,100,0.9,400"])
    assert code == 0 and np.isfinite(float(out))


def test_bad_model_file_exits_2(tmp_path, capsys, small_model):
    truncated = tmp_path / "truncated.txt"
    truncated.write_text("".join(small_model.read_text().splitlines(keepends=True)[:-3]))
    v1 = tmp_path / "v1.txt"
    v1.write_text(small_model.read_text().replace("mlp-v2", "mlp-v1", 1))
    retrain = ":1: model format mlp-v1 is no longer read; retrain with star154 train"
    nan_range = tmp_path / "nan_range.txt"
    lines = small_model.read_text().splitlines(keepends=True)
    nan_range.write_text("".join(lines[:1] + ["nan 120.0\n"] + lines[2:]))
    not_finite = ":2: expected a finite range with low < high, got 'nan 120.0'"
    for path, problem in ((truncated, "truncated"), (tmp_path / "missing.txt", "No such file"),
                          (tmp_path, "Is a directory"), (v1, retrain),
                          (nan_range, not_finite)):
        _exit_2_with_one_line(
            capsys, ["predict", "--model", str(path), "--input", "0.05,100,0.9,400"],
            str(path), problem)


def test_model_files_with_crlf_or_cr_line_ends_load_alike(tmp_path, capsys, small_model):
    text = small_model.read_bytes()
    model = load_model(str(small_model))
    predict = ["predict", "--input", "0.05,100,0.9,400", "--model"]
    outcome = _outcome(capsys, predict + [str(small_model)])
    assert outcome[0] == 0
    for name, line_end in (("crlf.txt", b"\r\n"), ("cr.txt", b"\r")):
        path = tmp_path / name
        path.write_bytes(text.replace(b"\n", line_end))
        back = load_model(str(path))
        assert back.params.tobytes() == model.params.tobytes()
        assert (back.in_min.tobytes(), back.in_max.tobytes()) == (
            model.in_min.tobytes(), model.in_max.tobytes())
        assert (back.out_min, back.out_max) == (model.out_min, model.out_max)
        assert _outcome(capsys, predict + [str(path)]) == outcome


def test_bad_csv_file_exits_2(tmp_path, capsys, training_csv):
    def with_cell(name, column, value):  # the training CSV with one cell of line 6 replaced
        lines = Path(training_csv).read_text().splitlines(keepends=True)
        fields = lines[5].split(",")
        fields[HEADER.index(column)] = value
        lines[5] = ",".join(fields)
        path = tmp_path / name
        path.write_text("".join(lines))
        return path

    garbled = with_cell("garbled.csv", "L", "fifty")
    non_finite = with_cell("non_finite.csv", "PS", "nan")
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe\x00garbage\n")
    missing = str(tmp_path / "missing.csv")
    model = tmp_path / "m.txt"
    for path, target, problem in (
        (garbled, "ps", ":6: bad configuration fields"), (binary, "ps", "can't decode"),
        (missing, "ps", "No such file"), (non_finite, "n", "non-finite value"),
    ):
        _exit_2_with_one_line(
            capsys, ["train", "--data", str(path), "--target", target, "--desk-scale",
                     "--epochs", "1", "--out", str(model)], str(path), problem)
        assert not model.exists()
    _exit_2_with_one_line(
        capsys, ["compare", "--analytical", training_csv, "--simulated", str(garbled),
                 "--out", str(tmp_path / "d.csv")], str(garbled))
    _exit_2_with_one_line(
        capsys, ["compare", "--analytical", missing, "--simulated", training_csv,
                 "--out", str(tmp_path / "d.csv")], missing)


def test_predict_rejects_a_model_of_another_shape(tmp_path, capsys):
    # whole files, ranges and parameters included, of networks with 3 inputs or 2 outputs
    for sizes, shape in (((3, 3, 3, 2, 1), "got 3 and 1"), ((4, 3, 3, 2, 2), "got 4 and 2")):
        n_params = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))
        path = tmp_path / "other.txt"
        path.write_text("\n".join(["mlp-v2 " + " ".join(map(str, sizes)),
                                   *["0.0 1.0"] * (sizes[0] + 1), "00" * 8 * n_params]) + "\n")
        _exit_2_with_one_line(
            capsys, ["predict", "--model", str(path), "--input", "0.05,100,0.9,400"],
            f"{path}:1: expected 4 inputs and 1 output, {shape}")


@pytest.mark.parametrize("command", ["sweep", "train", "compare", "simulate"])
def test_output_path_in_missing_directory_exits_2(command, tmp_path, capsys, training_csv):
    out = str(tmp_path / "missing" / "out.txt")
    sim_csv = str(_as_simulated(training_csv, tmp_path / "sim.csv"))
    argv = {
        "sweep": ["sweep", "--mode", "sat", "--nodes", "5", "--frame-bytes", "50", "--out", out],
        "train": ["train", "--data", training_csv, "--target", "ps", "--hidden", "3,3,2",
                  "--epochs", "1", "--out", out],
        "compare": ["compare", "--analytical", training_csv, "--simulated", sim_csv, "--out", out],
        "simulate": SIM + ["--trace", out],
    }[command]
    _exit_2_with_one_line(capsys, argv, out, "No such file or directory")


def test_shared_parser_carries_no_state_between_calls(capsys, small_model):
    predict = ["predict", "--model", str(small_model), "--input", "0.05,100,0.9,400"]
    sequence = [SOLVE, predict[:-1] + ["1,2,3"], predict, SOLVE]
    isolated = []
    for argv in sequence:
        build_parser.cache_clear()
        isolated.append(_outcome(capsys, argv))
    build_parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in sequence]
    assert [code for code, _, _ in isolated] == [0, 2, 0, 0]
    assert shared == isolated
    assert build_parser() is build_parser()


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_1_without_a_traceback(unbuffered):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:  # each print fails at once; buffered, the final flush fails
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes a byte
    try:
        proc = subprocess.run([sys.executable, "-m", "star154", *SOLVE], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "star154", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: star154 ")
    assert "solve" in proc.stdout and "predict" in proc.stdout


def test_console_script_is_installed():
    proc = subprocess.run(["star154", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "predict" in proc.stdout
