"""Benchmark for star154: one workload, measured for a fixed time, outputs checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sweep,simulate,pipeline} --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout. The job of the chosen
workload is repeated until ``--seconds`` are used up; every repetition of a
run uses the same seeded inputs. ``--trace 0`` prints the end-to-end metrics,
measured with tracing off. ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics, including the tracing overhead.
The last line of standard output is the result as one JSON object; the line
before it is a report with the environment record and the workload's own
metrics. Exits 2 without a result when ``src/star154`` is missing.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_REPETITIONS = 2  # in trace mode: of untraced and of traced repetitions each
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("rate_per_s", "1/s"), ("peak_rss_mb", "MiB")]

# numpy is imported first and untimed: its import is not star154's to change
_IMPORT_PROBE = (
    "import sys, time, numpy; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import star154; print(time.perf_counter() - t)"
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "simulate", "pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_seconds() -> float:
    """Time to import star154 in a fresh interpreter that has numpy loaded."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Stages:
    """Times the stages of one repetition; opens a bench span around each when traced."""

    def __init__(self, rec=None):
        self.rec = rec
        self.seconds: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        span = self.rec.span("bench", name) if self.rec else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            yield
        self.seconds.setdefault(name, []).append(time.perf_counter() - t0)


def fastest_job(logs: list[dict[str, list[float]]]) -> dict[str, float]:
    """Each stage name's calls per repetition times its fastest call in any repetition.

    Interference from other tenants only ever adds time; see README.md.
    """
    return {name: len(calls) * min(t for log in logs for t in log[name])
            for name, calls in logs[0].items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "star154" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'star154'}; run from a full checkout",
              file=sys.stderr)
        return 2
    import_s = [_import_seconds() for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(SRC))
    import star154

    if Path(star154.__file__).resolve().parent != SRC / "star154":
        print(f"bench: star154 resolved to {star154.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from layers import PER_LAYER, UNITS, per_layer
    from measure import environment, median, peak_rss_mb
    from spans import Recorder, instrument
    from workloads import SCENARIOS, WORKLOADS, Tally

    workload = WORKLOADS[args.workload]()
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            build_s = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                inputs = workload.build(args.seed, workdir)
                build_s.append(time.perf_counter() - t0)

            tally = Tally()
            rec = Recorder() if args.trace else None
            scenario_of = {net: label for label, net in SCENARIOS.items()}
            untraced, traced, summaries = [], [], []
            first = None
            start = time.perf_counter()
            while True:
                # one untraced repetition, then (when tracing) one traced one
                t_rep = time.perf_counter()
                for log in (untraced, traced) if rec else (untraced,):
                    stages = Stages(rec if log is traced else None)
                    if log is traced:
                        rec.new_run()
                        with instrument(rec, scenario_of):
                            result = workload.job(inputs, stages)
                    else:
                        result = workload.job(inputs, stages)
                    log.append(stages.seconds)
                    summaries.append(workload.check(inputs, result.output, tally))
                    if first is None:
                        first = result.output
                    work = result.work
                    del result
                per_rep = time.perf_counter() - t_rep
                if (len(untraced) >= MIN_REPETITIONS
                        and time.perf_counter() - start + per_rep > args.seconds):
                    break
            details = workload.final_check(inputs, first, summaries, untraced, tally)
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()

    fastest = fastest_job(untraced)
    wall_s = sum(fastest.values())
    job_walls = [sum(map(sum, log.values())) for log in untraced]
    by_stage: dict[str, float] = {}
    for name, seconds in fastest.items():
        group = name.split("/")[0]
        by_stage[group] = by_stage.get(group, 0.0) + seconds
    rate = work / by_stage[workload.work_stage]
    setup_s = median(import_s) + median(build_s)
    if rec:
        metrics, unstable = per_layer(rec, job_walls)
        for name in unstable:
            tally.check(False, f"exact count {name} differs between repetitions")
        result_metrics = {name: {"value": metrics[name], "unit": UNITS[name]}
                          for name, _, _ in PER_LAYER}
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s, "rate_per_s": rate,
                  "peak_rss_mb": peak_rss_mb()}
        result_metrics = {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(ROOT, str(Path(star154.__file__).relative_to(ROOT))),
        "repetitions": len(untraced),
        "traced_repetitions": len(traced),
        "wall_s": {"value": wall_s, "unit": "s"},
        "wall_s_median": {"value": median(job_walls), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        workload.rate_name: {"value": rate, "unit": workload.rate_unit},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        "error_rate": {"value": tally.failed / tally.attempted, "unit": "failed/attempted"},
        "stage_s": by_stage,
        "checks": details,
        "problems": tally.problems,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
