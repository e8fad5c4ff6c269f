"""Command-line entry point: solve, simulate, sweep, compare, train, predict.

Units are symbols (1 symbol = 16 us) for delays and frames per frame duration
for the arrival rate. Exit codes: 0 success, 1 computational failure
(non-convergence, a prediction that is not finite) or a closed stdout, 2
usage error or a missing, unreadable, malformed or untrainable input file.

Each command-line value is checked once, by the config type that holds it or
the function that consumes it; commands build and call those inside
_usage_errors, which makes a rejection exit 2.

Each command imports only the modules it runs, so building the parser and
the analytical commands never load numpy.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import math
import os
import sys

from .core import TASKS, Engine, NetworkConfig, PerformanceReport, TrafficMode

_MODES = {m.value: m for m in TrafficMode}


def _mode(args, parser, M_values: tuple[int, ...]) -> TrafficMode:
    mode = _MODES[args.mode]
    if mode is not TrafficMode.SATURATED and args.rate is None:
        parser.error(f"--rate is required for mode {args.mode}")
    if mode is not TrafficMode.UNSATM and M_values != (1,):
        raise ValueError(f"--buffer applies to mode unsatm only; mode {args.mode} has one buffer")
    return mode


def _net_config(args, parser) -> NetworkConfig:
    M = 1 if args.buffer is None else args.buffer
    mode = _mode(args, parser, (M,))
    cfg = NetworkConfig(
        N=args.nodes, L=args.frame_bytes, mode=mode,
        r=args.rate if args.rate is not None else 0.0, M=M,
    )
    if mode is TrafficMode.SATURATED:
        # NetworkConfig has checked the rate; sat ignores it and keys r = 0, as sweep does
        cfg = dataclasses.replace(cfg, r=0.0)
    return cfg


@contextlib.contextmanager
def _usage_errors(parser):
    """Turn a ValueError raised while a command checks its command-line values into exit 2."""
    try:
        yield
    except ValueError as e:
        parser.error(str(e))


@contextlib.contextmanager
def _file_errors(parser, path: str):
    """Turn a missing, unreadable, unwritable or malformed file at path into exit 2."""
    try:
        yield
    except OSError as e:
        problem = f"{path}: {e.strerror or e}"
    except (UnicodeDecodeError, csv.Error) as e:  # their messages name no file
        problem = f"{path}: {e}"
    except ValueError as e:
        problem = str(e)
    else:
        return
    # no usage line: the command line was well formed, the file was not
    parser.exit(2, f"{parser.prog}: error: {problem}\n")


def _shown(value: float | None) -> str:
    return "undefined" if value is None else repr(value)


def _print_report(cfg: NetworkConfig, rep: PerformanceReport) -> None:
    """Human summary plus a one-row CSV block on stdout; an undefined metric shows as undefined."""
    from . import dataset

    print(f"# mode={cfg.mode.value} N={cfg.N} L={cfg.L} bytes r={cfg.r} M={cfg.M}")
    print(f"# tau={_shown(rep.tau)} a={_shown(rep.a)}")
    print(f"# TH={_shown(rep.TH)} PS={_shown(rep.PS)}")
    print(f"# TS={_shown(rep.TS)} TVS={_shown(rep.TVS)} symbols")
    if cfg.mode is TrafficMode.UNSATM:
        print(f"# TSW={_shown(rep.TSW)} TVSW={_shown(rep.TVSW)} symbols")
    for name in ("TH", "PS"):
        if name in rep.ci95:
            print(f"# ci95 {name}: +/-{rep.ci95[name]!r}")
    dataset.write_rows(sys.stdout, [dataset.report_row(cfg, rep)])


def _add_net_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", required=True, choices=sorted(_MODES),
                   help="traffic mode: unsat1 (single buffer), unsatm (M buffers), sat (saturated)")
    p.add_argument("--nodes", type=int, required=True, help="number of sensor nodes N")
    p.add_argument("--frame-bytes", type=int, required=True,
                   help="frame payload L in bytes (2L symbols on air)")
    p.add_argument("--rate", type=float, default=None,
                   help="arrival rate in frames per frame duration (unsaturated modes)")
    p.add_argument("--buffer", type=int, default=None,
                   help="MAC buffer capacity in frames, counting the one in service")


def _cmd_solve(args, parser) -> int:
    from .analytical import NonConvergenceError, SolverSettings, solve
    from .metrics import report as metrics_report

    with _usage_errors(parser):
        cfg = _net_config(args, parser)
        settings = SolverSettings(
            tolerance=args.tol, max_iterations=args.max_iter,
            damping=args.damping, use_bisection=args.bisection,
        )
        try:
            fp = solve(cfg, settings)
        except NonConvergenceError as e:
            print(f"did not converge: {e} (last tau={e.fixed_point.tau!r})", file=sys.stderr)
            return 1
    _print_report(cfg, metrics_report(cfg, fp))
    print(f"# converged in {fp.iterations} iterations, residual {fp.residual!r}")
    return 0


def _cmd_simulate(args, parser) -> int:
    from . import simulator

    with _usage_errors(parser):
        cfg = _net_config(args, parser)
        sim_cfg = simulator.SimConfig(
            net=cfg, horizon_mini_slots=args.horizon, warmup_mini_slots=args.warmup,
            replications=args.reps, base_seed=args.seed,
        )
        lines = simulator.trace(sim_cfg, max_events=args.trace_events) if args.trace else None
        rep = simulator.run(sim_cfg, jobs=args.jobs)
    if args.trace:
        with _file_errors(parser, args.trace), open(args.trace, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    _print_report(cfg, rep)
    return 0


def _cmd_sweep(args, parser) -> int:
    from . import dataset
    from .analytical import SolverSettings

    with _usage_errors(parser):
        M_values = dataset.parse_range(args.buffer, int) if args.buffer else (1,)
        spec = dataset.SweepSpec(
            mode=_mode(args, parser, M_values),
            N_values=dataset.parse_range(args.nodes, int),
            L_values=dataset.parse_range(args.frame_bytes, int),
            r_values=dataset.parse_range(args.rate, float) if args.rate else (),
            M_values=M_values,
            engine=Engine(args.engine),
            solver=SolverSettings(tolerance=args.tol, max_iterations=args.max_iter),
            horizon=args.horizon, warmup=args.warmup,
            replications=args.reps, base_seed=args.seed,
        )
        if spec.mode is TrafficMode.SATURATED:  # sat's grid keys r = 0, so check the typed rates
            for r in spec.r_values:
                NetworkConfig(N=spec.N_values[0], L=spec.L_values[0], mode=spec.mode, r=r)
        rows = dataset.run_sweep(spec, jobs=args.jobs)  # builds the grid's configs
    with _file_errors(parser, args.out):
        dataset.write_csv(rows, args.out, ms=args.ms)
    bad = sum(not row.converged for row in rows)
    print(f"wrote {len(rows)} rows to {args.out}" + (f" ({bad} not converged)" if bad else ""))
    return 1 if bad else 0


def _cmd_compare(args, parser) -> int:
    from . import dataset

    with _file_errors(parser, args.analytical):
        ana = dataset.read_csv(args.analytical)
    with _file_errors(parser, args.simulated):
        sim = dataset.read_csv(args.simulated)
    try:
        diffs, summary = dataset.compare(ana, sim)
    except dataset.KeyMismatchError as e:
        print(str(e), file=sys.stderr)
        return 1
    except ValueError as e:  # no rows of a side's own source, or two for one configuration
        parser.exit(2, f"{parser.prog}: error: {e}\n")
    with _file_errors(parser, args.out):
        dataset.write_diff_csv(diffs, args.out)
    print(f"wrote {len(diffs)} comparisons to {args.out}")
    for metric, stats in summary.items():
        parts = " ".join(f"{k}={v!r}" for k, v in stats.items())
        print(f"# {metric}: {parts}")
    return 0


def _cmd_train(args, parser) -> int:
    from . import dataset, predictor

    with _usage_errors(parser):
        cfg = predictor.TrainConfig(
            learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch,
            seed=args.seed, validation_fraction=args.val_frac,
        )
        if args.hidden is not None:
            hidden = tuple(int(h) for h in args.hidden.split(","))
        elif args.desk_scale:
            hidden = predictor.DESK_HIDDEN
        else:
            hidden = predictor.DEFAULT_HIDDEN[args.target]
        arch = predictor.MLPArchitecture(hidden=hidden)
    with _file_errors(parser, args.data):
        rows = dataset.read_csv(args.data)
    X, y = dataset.training_matrix(rows, args.target)
    model = predictor.init_model(arch, args.seed)
    try:
        model, rep = predictor.train(model, X, y, cfg)
    except predictor.DivergenceDetected as e:
        print(str(e), file=sys.stderr)
        return 1
    except ValueError as e:  # data train cannot use: non-finite, constant, too few rows
        parser.exit(2, f"{parser.prog}: error: {args.data}: {e}\n")
    with _file_errors(parser, args.out):
        predictor.save_model(model, args.out)
    print(f"# target={args.target} hidden={list(hidden)} samples={len(X)}")
    print(f"# held-out R={rep.R!r} MSE={rep.MSE!r} (normalized units) n={rep.n}")
    print(f"wrote model to {args.out}")
    return 0


def _cmd_predict(args, parser) -> int:
    from . import predictor

    with _usage_errors(parser):
        x = [float(v) for v in args.input.split(",")]
        if len(x) != predictor.INPUTS:
            parser.error(f"--input needs {predictor.INPUTS} comma-separated reals, got {len(x)}")
        for j, v in enumerate(x):
            if not math.isfinite(v):
                raise ValueError(f"--input value {j + 1} is {v!r}; predict needs finite reals")
    with _file_errors(parser, args.model):
        model = predictor.load_model(args.model)
    answer = predictor.forward(model, x)
    outside = "; ".join(f"input {j + 1} = {v!r} outside the training range [{lo!r}, {hi!r}]"
                        for j, v, lo, hi in predictor.outside_training_range(model, x))
    if not math.isfinite(answer):  # the arithmetic overflowed: there is no answer to print
        print(f"{parser.prog}: error: the model's answer is {answer!r}, not a finite real"
              + (f"; {outside}" if outside else ""), file=sys.stderr)
        return 1
    if outside:
        print(f"{parser.prog}: warning: {outside}; the answer is an extrapolation", file=sys.stderr)
    print(repr(answer))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared after that.

    Building it imports nothing beyond core, but costs more than a whole
    predict call; sharing is safe because parse_args returns a fresh
    Namespace and leaves the parser unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="star154",
        description="Performance toolkit for non-beacon IEEE 802.15.4 star networks. "
        "Delays are in symbols (16 us); rates in frames per frame duration (2L symbols).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="closed-form fixed point and metrics")
    _add_net_flags(p)
    p.add_argument("--tol", type=float, default=1e-12, help="fixed-point residual tolerance")
    p.add_argument("--max-iter", type=int, default=100000, help="damped iterations, or bisection halvings")
    p.add_argument("--damping", type=float, default=0.5)
    p.add_argument("--bisection", action="store_true", help="use bisection instead of damped iteration")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo simulation with confidence intervals")
    _add_net_flags(p)
    p.add_argument("--horizon", type=int, required=True, help="measured mini-slots per replication")
    p.add_argument("--warmup", type=int, default=None, help="warmup mini-slots (default: 10%% of horizon)")
    p.add_argument("--reps", type=int, default=50, help="replications (default 50)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="write an event trace of replication 0 to this file")
    p.add_argument("--trace-events", type=int, default=1000, help="max trace lines")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for replications")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter grid and write CSV")
    p.add_argument("--mode", required=True, choices=sorted(_MODES))
    p.add_argument("--nodes", required=True, help="N values: '10', '2,5,10', or start:stop:step")
    p.add_argument("--frame-bytes", required=True, help="L values, same syntax")
    p.add_argument("--rate", default=None, help="r values, same syntax")
    p.add_argument("--buffer", default=None, help="M values, same syntax (unsatm)")
    p.add_argument("--engine", choices=[e.value for e in Engine], default="analytical")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=100000, help="damped iterations per solve")
    p.add_argument("--horizon", type=int, default=1_000_000)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ms", action="store_true", help="append millisecond delay columns")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for grid points")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("compare", help="diff analytical vs simulated CSVs")
    p.add_argument("--analytical", required=True)
    p.add_argument("--simulated", required=True)
    p.add_argument("--out", required=True, help="output diff CSV path")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("train", help="train an inverse predictor on sweep CSV data")
    p.add_argument("--data", required=True, help="training CSV from the sweep subcommand")
    p.add_argument("--target", required=True, choices=sorted(TASKS),
                   help="n: (r,L,PS,TVS)->N; ps: (r,L,N,TVS)->PS; tvs: (r,L,PS,N)->TVS")
    sizes = p.add_mutually_exclusive_group()
    sizes.add_argument("--hidden", default=None, help="three hidden sizes, e.g. 100,80,50")
    sizes.add_argument("--desk-scale", action="store_true",
                       help="use the small 32,24,16 architecture for quick runs")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-frac", type=float, default=0.2)
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("predict", help="one forward pass of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="4 comma-separated reals, e.g. 0.05,100,0.9,400")
    p.set_defaults(fn=_cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("out", "trace"):  # opened only after the work: refuse an empty path first
        if getattr(args, flag, None) == "":
            parser.error(f"--{flag} needs a file path")
    try:
        code = args.fn(args, parser)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout's reader is gone; keep the exit flush from failing too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
