"""Compare two commits on the benchmark in alternating pairs of runs.

Usage, from anywhere inside a git checkout:

    python3 tools/bench_pairs.py PARENT CHANGE --workload sweep --seeds 101-110,9999 \\
        --out BENCH_N.json [--workload simulate --seeds 301-310 ...] \\
        [--claim sweep:rate_per_s:1.3] [--trace-workloads sweep,pipeline]

PARENT and CHANGE are any commits git can name. Uncommitted work can be
named too: `git add -A && git stash create` prints a commit of the index that
moves no branch and touches no file. Each commit is exported with
`git archive` into a scratch directory, and `bench/run.py` runs there
unchanged, so each side measures exactly its committed files. Every run
lasts BENCHMARK.json's `run_seconds`. Pair i runs both sides on the i-th
seed of its workload; the parent runs first in even pairs and the change in
odd ones, so a drift of the host over time falls on both sides alike. Each
workload needs at least two seeds, so that each side has an IQR: fewer is a
usage error, raised before any run.

For each workload the output holds, per end-to-end metric of BENCHMARK.json,
each side's median, IQR (75th - 25th percentile, linear interpolation) and
runs in pair order, the change/parent ratio of the medians and the number
of pairs the change won, and a verdict against the metric's `bound`:
"regressed" when the change's median is worse than the parent's by more
than that share of the parent's median, "unresolved" when the parent's own
IQR is wider than that share and some parent run beats some change run,
else "within bound". It also holds the repetitions each run fitted, the
attempted and failed checks, and each run's `checks.digest`,
`checks.heldout_R` and `checks.predict_p50_ms` where the workload reports
them: simulate's digest of its estimates, and the pipeline's held-out R
(equal on both sides when training's arithmetic did not move) and median
predict latency.
`rss_kib_per_repetition` holds, per side, the least-squares slope of
`peak_rss_mb` against each run's repetitions, in KiB per repetition: memory
the harness keeps per repetition shows there, apart from the package's own.
`rss_mb_at_zero_repetitions` holds the same fit's intercept, in MiB: the
process's memory before any repetition, where the package's own shows. Both
are null when every run of a side fitted the same number of repetitions.
`rss_repetition_headroom` holds how many repetitions a run may fit beyond
the parent's median before the parent's slope carries the parent's median
`peak_rss_mb` past its bound, and the `factor` of the parent's median
repetitions that leaves: how much faster a change may run before the
harness's own memory alone fails that bound. It is null when the parent's
slope is null or not positive.
`--trace-workloads` adds one `--trace 1` run of each side per named
workload (seed TRACE_SEED, TRACE_SECONDS long) and
records its exact per-layer metrics (unit count or bytes); `differs` names
those whose values differ. One short traced run per side cannot resolve
per-layer timings, so they are left out. `--claim W:METRIC:RATIO` states
whether the change's median is at least RATIO times the parent's, wins at
least 9 of every 10 pairs, and beats the parent's median by more than the
parent's IQR. `src_lines` holds each side's `wc -l` of every
`src/star154/*.py` and their total. The output holds only what these runs
measured. Standard library and git only.

`--workload tier1` is opt-in: it runs no bench/run.py workload but the
Tier-1 test command (TIER1, with `src` first on PYTHONPATH) once per side in
each pair, and its seeds only count the pairs. Per run it records the wall
time, the child's user CPU time, the outcome counts of pytest's summary line
and pytest's 10 slowest durations; per side, the wall and CPU spreads.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
EXACT_UNITS = ("count", "bytes")  # per-layer metrics that must repeat exactly
TRACE_SEED, TRACE_SECONDS = 1, 3.0  # the one traced run per side and workload
RUN_CHECKS = ("digest", "heldout_R", "predict_p50_ms")  # recorded per run where reported
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10")
# pytest's summary and --durations lines: "1 failed, 379 passed in 64.21s", "49.10s call  tests/…"
_SUMMARY = re.compile(r"^=* ?((?:\d+ \w+, )*\d+ \w+) in [\d.]+s")
_DURATION = re.compile(r"^(\d+\.\d+)s (setup|call|teardown) +(\S.*)$")


def _seeds(text: str) -> list[int]:
    """'101-110,9999' -> [101, ..., 110, 9999]; fewer than two seeds is an error."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} gives {len(seeds)} seeds; an IQR needs 2")
    return seeds


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", action="append", required=True,
                   help="a workload of bench/run.py, or tier1; give --seeds after each")
    p.add_argument("--seeds", action="append", type=_seeds, required=True,
                   help="one seed per pair, such as 101-110,9999")
    p.add_argument("--trace-workloads", default="",
                   help="comma-separated workloads to run once per side with --trace 1")
    p.add_argument("--claim", help="WORKLOAD:METRIC:RATIO")
    p.add_argument("--description", default="")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if len(args.workload) != len(args.seeds):
        p.error("give one --seeds after each --workload")
    return args


def _git(*args: str, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], check=True, capture_output=True, **kw)


def _export(commit: str, dest: Path) -> str:
    """Extract commit's tree into dest; return its full hash."""
    sha = _git("rev-parse", "--verify", f"{commit}^{{commit}}", text=True).stdout.strip()
    tar = _git("archive", "--format=tar", sha).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def _src_lines(tree: Path) -> dict:
    """`wc -l` of each package source file in tree, and their total."""
    lines = {p.name: p.read_bytes().count(b"\n") for p in sorted(tree.glob("src/star154/*.py"))}
    return {**lines, "total": sum(lines.values())}


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One bench/run.py run in tree: its report and its result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


def pytest_counts(output: str) -> dict:
    """The outcome counts of pytest's last summary line, such as {"failed": 1, "passed": 379}."""
    lines = [m for m in map(_SUMMARY.match, output.splitlines()) if m]
    if not lines:
        return {}
    plural = {"error": "errors", "warning": "warnings"}
    return {plural.get(word, word): int(n)
            for n, word in (part.split() for part in lines[-1][1].split(", "))}


def pytest_durations(output: str) -> list[dict]:
    """pytest's --durations lines, slowest first: seconds, phase and test id."""
    return [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
            for m in map(_DURATION.match, output.splitlines()) if m]


def _tier1(tree: Path) -> dict:
    """One Tier-1 run in tree: wall and child user CPU seconds, outcome counts, slowest tests."""
    path = os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))
    cpu = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    began = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    wall = time.perf_counter() - began
    counts = pytest_counts(proc.stdout)
    if not counts:
        raise SystemExit(f"bench_pairs: Tier-1 in {tree} printed no summary line "
                         f"(exit {proc.returncode}):\n{proc.stdout[-2000:]}{proc.stderr}")
    return {"wall_s": round(wall, 3),
            "user_cpu_s": round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - cpu, 3),
            "counts": counts, "slowest": pytest_durations(proc.stdout)}


def _spread(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(statistics.median(runs), 6), "iqr": round(q3 - q1, 6),
            "runs": [round(v, 6) for v in runs]}


def _rss_fit(runs: list[tuple[dict, dict]]) -> tuple[float | None, float | None]:
    """Least-squares fit of peak_rss_mb on repetitions: slope in KiB and intercept in MiB.

    (None, None) when the repetitions never vary.
    """
    reps = [report["repetitions"] for report, _ in runs]
    rss = [result["metrics"]["peak_rss_mb"]["value"] for _, result in runs]
    if len(set(reps)) < 2:
        return None, None
    fit = statistics.linear_regression(reps, rss)
    return round(1024 * fit.slope, 3), round(fit.intercept, 3)


def _rss_headroom(slope_kib: float | None, rss_mb: float, repetitions: list[int],
                  bound: float) -> dict | None:
    """Repetitions past the median of repetitions before slope_kib carries rss_mb past bound,
    and the factor of that median they reach; None without a positive slope."""
    if slope_kib is None or slope_kib <= 0:
        return None
    extra = bound * rss_mb * 1024 / slope_kib
    median = statistics.median(repetitions)
    return {"repetitions": round(extra, 1), "factor": round((median + extra) / median, 3)}


def _verdict(parent: dict, change: dict, direction: str, bound: float) -> dict:
    """Whether the change's median is worse than the parent's by more than bound.

    worse_by is the change's shortfall as a share of the parent's median
    (negative when the change is better). A parent IQR wider than bound, as
    a share of its median, makes the comparison unresolved, unless every
    change run beats every parent run.
    """
    sign = 1 if direction == "higher" else -1
    worse_by = sign * (parent["median"] - change["median"]) / parent["median"]
    beats_all = min(sign * c for c in change["runs"]) > max(sign * p for p in parent["runs"])
    if parent["iqr"] > bound * parent["median"] and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "regressed" if worse_by > bound else "within bound"
    return {"bound": bound, "worse_by": round(worse_by, 4), "verdict": verdict}


def _alternate(seeds: list[int], run) -> tuple[dict, list[str]]:
    """run(side, seed) for both sides once per seed, the parent first in even pairs:
    each side's results in pair order, and which side ran first in each pair."""
    runs, first = {side: [] for side in SIDES}, []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(run(side, seed))
    return runs, first


def _compared(values: dict, better: str) -> dict:
    """Each side's spread, the change/parent ratio of the medians and the pairs the change won."""
    entry = {s: _spread(values[s]) for s in SIDES}
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    entry["change_over_parent"] = round(entry["change"]["median"] / entry["parent"]["median"], 4)
    entry["change_wins"] = f"{wins}/{len(values['parent'])}"
    return entry


def _pairs(trees: dict, workload: str, seeds: list[int], seconds: float, spec: dict) -> dict:
    def run(side: str, seed: int) -> tuple[dict, dict]:
        report, result = _run(trees[side], workload, seed, seconds, trace=0)
        rate = result["metrics"]["rate_per_s"]["value"]
        print(f"{workload} seed {seed} {side}: rate_per_s {rate:.6g}, "
              f"{report['repetitions']} repetitions", file=sys.stderr, flush=True)
        return report, result

    runs, first = _alternate(seeds, run)
    fits = {s: _rss_fit(runs[s]) for s in SIDES}
    out = {
        "pairs": len(seeds), "seeds": seeds, "first": first,
        "failed": {s: sum(r["failed"] for _, r in runs[s]) for s in SIDES},
        "attempted": {s: sum(r["attempted"] for _, r in runs[s]) for s in SIDES},
        "correct": {s: all(r["correct"] for _, r in runs[s]) for s in SIDES},
        "repetitions": {s: [rep["repetitions"] for rep, _ in runs[s]] for s in SIDES},
        "rss_kib_per_repetition": {s: fits[s][0] for s in SIDES},
        "rss_mb_at_zero_repetitions": {s: fits[s][1] for s in SIDES},
    }
    for key in RUN_CHECKS:
        if key in runs["parent"][0][0]["checks"]:
            out[key] = {s: [rep["checks"][key] for rep, _ in runs[s]] for s in SIDES}
    for name, metric in spec.items():
        values = {s: [r["metrics"][name]["value"] for _, r in runs[s]] for s in SIDES}
        entry = _compared(values, metric["better"])
        entry.update(_verdict(entry["parent"], entry["change"], metric["better"], metric["bound"]))
        out[name] = entry
    out["rss_repetition_headroom"] = _rss_headroom(
        fits["parent"][0], out["peak_rss_mb"]["parent"]["median"], out["repetitions"]["parent"],
        spec["peak_rss_mb"]["bound"])
    return out


def _tier1_pairs(trees: dict, seeds: list[int]) -> dict:
    def run(side: str, seed: int) -> dict:
        result = _tier1(trees[side])
        print(f"tier1 pair {seed} {side}: {result['wall_s']} s wall, {result['counts']}",
              file=sys.stderr, flush=True)
        return result

    runs, first = _alternate(seeds, run)
    out = {"pairs": len(seeds), "first": first}
    for name in ("wall_s", "user_cpu_s"):
        out[name] = _compared({s: [r[name] for r in runs[s]] for s in SIDES}, "lower")
    for name in ("counts", "slowest"):
        out[name] = {s: [r[name] for r in runs[s]] for s in SIDES}
    return out


def _traces(trees: dict, workload: str) -> dict:
    metrics = {s: _run(trees[s], workload, TRACE_SEED, TRACE_SECONDS, trace=1)[1]["metrics"]
               for s in SIDES}
    out = {name: {s: metrics[s][name]["value"] for s in SIDES}
           for name, m in metrics["parent"].items() if m["unit"] in EXACT_UNITS}
    return {"differs": [name for name, v in out.items() if v["parent"] != v["change"]], **out}


def _claim(text: str, workloads: dict, spec: dict) -> dict:
    workload, metric, ratio = text.split(":")
    entry = workloads[workload][metric]
    parent, change = entry["parent"], entry["change"]
    won, pairs = map(int, entry["change_wins"].split("/"))
    sign = 1 if spec[metric]["better"] == "higher" else -1
    gap = sign * (change["median"] - parent["median"])
    gain = entry["change_over_parent"] if sign > 0 else 1 / entry["change_over_parent"]
    return {
        "workload": workload, "metric": metric,
        "target": f">= {ratio}x parent median, change wins >= 9/10 pairs, median gap > parent IQR",
        "result": {"change_over_parent": entry["change_over_parent"],
                   "change_wins": entry["change_wins"], "median_gap": round(gap, 6),
                   "parent_iqr": parent["iqr"],
                   "met": gain >= float(ratio) and 10 * won >= 9 * pairs and gap > parent["iqr"]},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(_git("rev-parse", "--show-toplevel", text=True).stdout.strip())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees, commits, src_lines = {}, {}, {}
        for side, commit in zip(SIDES, (args.parent, args.change)):
            trees[side] = scratch / side
            commits[side] = _export(commit, trees[side])
            src_lines[side] = _src_lines(trees[side])
        t0 = time.time()
        workloads = {w: _tier1_pairs(trees, seeds) if w == "tier1"
                     else _pairs(trees, w, seeds, seconds, end_to_end)
                     for w, seeds in zip(args.workload, args.seeds)}
        traces = {w: _traces(trees, w)
                  for w in filter(None, args.trace_workloads.split(","))}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = {
        "description": args.description,
        "commits": commits,
        "command": (f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
                    "--trace 0 in git-archive exports of both commits, alternating which side "
                    "runs first in each pair (parent first in even pairs); one seed per pair. "
                    f"Per-layer counts: --seed {TRACE_SEED} --seconds "
                    f"{TRACE_SECONDS:g} --trace 1, once per side"
                    + (f". tier1: PYTHONPATH=src python {' '.join(TIER1)}, one run per side "
                       "in each pair" if "tier1" in workloads else "")),
        "host": f"{os.cpu_count()} cores {platform.machine()}, Python "
                f"{platform.python_version()}, {platform.system()} {platform.release()}",
        "statistic": "median and IQR (75th - 25th percentile, linear interpolation) over the "
                     "runs of each side; change_wins counts pairs where the change is better; "
                     "runs lists each run in pair order; worse_by is the change's shortfall "
                     "as a share of the parent's median, and verdict compares it with the "
                     "metric's BENCHMARK.json bound (unresolved when the parent's IQR exceeds "
                     "that share of its median and some parent run beats some change run); "
                     "first says which side ran first in each pair; repetitions is the number "
                     f"of untraced repetitions each run fitted into {seconds:g} s",
        "wall_clock_s": round(time.time() - t0, 1),
        "src_lines": src_lines,
    }
    if args.claim:
        out["claim"] = _claim(args.claim, workloads, end_to_end)
    out["workloads"] = workloads
    if traces:
        out["per_layer_trace"] = traces
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
