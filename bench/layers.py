"""Per-layer metrics computed from the spans and counts of traced repetitions.

Every workload reports every metric; a layer that does no work on a workload
reports 0. Times of one job are medians over the traced repetitions; per-call
latencies are medians over all calls; counts are per job and must repeat
exactly from one repetition to the next.
"""
from __future__ import annotations

from collections import Counter

from measure import median
from spans import Recorder, self_times
from workloads import SCENARIOS

MODES = ("sat", "unsat1", "unsatm")
QUEUEING = ("utilization", "empty_prob", "queue_stats")
LAYERS = ("analytical", "metrics", "dataset", "simulator", "predictor", "cli", "bench")

# (name, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER: list[tuple[str, str, str]] = [
    ("analytical.solve_calls", "count", "lower"),
    *[(f"analytical.solve_us_p50.{m}", "us", "lower") for m in MODES],
    *[(f"analytical.iterations_p50.{m}", "count", "lower") for m in MODES],
    ("analytical.tau_update_calls", "count", "lower"),
    ("analytical.self_s", "s", "lower"),
    *[(f"queueing.calls.{f}", "count", "lower") for f in QUEUEING],
    ("metrics.report_calls", "count", "lower"),
    ("metrics.report_us_p50", "us", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("dataset.run_sweep_s", "s", "lower"),
    ("dataset.write_csv_s", "s", "lower"),
    ("dataset.read_csv_s", "s", "lower"),
    ("dataset.csv_bytes", "bytes", "lower"),
    ("dataset.rows", "count", "higher"),
    ("dataset.self_s", "s", "lower"),
    *[(f"simulator.replication_s.{s}", "s", "lower") for s in SCENARIOS],
    *[(f"simulator.slots_per_s.{s}", "1/s", "higher") for s in SCENARIOS],
    *[(f"simulator.host_us_per_cca.{s}", "us", "lower") for s in SCENARIOS],
    ("simulator.cca_starts", "count", "higher"),
    ("simulator.arrivals", "count", "higher"),
    ("simulator.conservation_failures", "count", "lower"),
    ("simulator.self_s", "s", "lower"),
    ("predictor.train_s", "s", "lower"),
    ("predictor.train_steps", "count", "lower"),
    ("predictor.step_us", "us", "lower"),
    ("predictor.save_model_s", "s", "lower"),
    ("predictor.load_model_us", "us", "lower"),
    ("predictor.forward_us", "us", "lower"),
    ("predictor.self_s", "s", "lower"),
    ("cli.sweep_s", "s", "lower"),
    ("cli.train_s", "s", "lower"),
    ("cli.predict_us_p50", "us", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.untraced_wall_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.accounted_share", "ratio", "higher"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Counts that must repeat bit for bit between repetitions and between runs.
EXACT = (
    "analytical.solve_calls", *[f"analytical.iterations_p50.{m}" for m in MODES],
    "analytical.tau_update_calls", *[f"queueing.calls.{f}" for f in QUEUEING],
    "metrics.report_calls", "dataset.csv_bytes", "dataset.rows",
    "simulator.cca_starts", "simulator.arrivals", "predictor.train_steps",
)


def _job_metrics(spans, selfs, counts: Counter) -> dict[str, float]:
    """Per-job totals and counts of one repetition."""

    def total(layer, name, **attrs):
        return sum(sp.duration for sp in spans if sp.layer == layer and sp.name == name
                   and all(sp.attrs.get(k) == v for k, v in attrs.items()))

    def attr_sum(name, key):
        return sum(sp.attrs.get(key, 0) for sp in spans if sp.name == name)

    def calls(layer, name):
        return sum(1 for sp in spans if sp.layer == layer and sp.name == name)

    layer_self = Counter()
    for sp, s in zip(spans, selfs):
        layer_self[sp.layer] += s
    wall = sum(sp.duration for sp in spans if sp.parent is None)
    iterations = {m: [sp.attrs["iterations"] for sp in spans
                      if sp.name == "solve" and sp.attrs.get("mode") == m
                      and "iterations" in sp.attrs] for m in MODES}
    train_s = total("predictor", "train")
    steps = counts["predictor.train_steps"]
    out = {
        "analytical.solve_calls": calls("analytical", "solve"),
        **{f"analytical.iterations_p50.{m}": median(iterations[m]) for m in MODES},
        "analytical.tau_update_calls": counts["analytical.tau_update"],
        **{f"queueing.calls.{f}": counts[f"queueing.{f}"] for f in QUEUEING},
        "metrics.report_calls": calls("metrics", "metrics_report"),
        "dataset.run_sweep_s": total("dataset", "run_sweep"),
        "dataset.write_csv_s": total("dataset", "write_csv"),
        "dataset.read_csv_s": total("dataset", "read_csv"),
        "dataset.csv_bytes": attr_sum("write_csv", "bytes"),
        "dataset.rows": attr_sum("run_sweep", "rows"),
        "simulator.cca_starts": attr_sum("run_replication", "cca_starts"),
        "simulator.arrivals": attr_sum("run_replication", "arrivals"),
        "simulator.conservation_failures": sum(
            1 for sp in spans if sp.name == "run_replication" and not sp.attrs.get("conserved", True)),
        "predictor.train_s": train_s,
        "predictor.train_steps": steps,
        "predictor.step_us": 1e6 * train_s / steps if steps else 0.0,
        "predictor.save_model_s": total("predictor", "save_model"),
        "cli.sweep_s": total("cli", "main", command="sweep"),
        "cli.train_s": total("cli", "main", command="train"),
        "bench.traced_wall_s": wall,
        "bench.accounted_share": sum(layer_self.values()) / wall if wall else 0.0,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out


def per_layer(rec: Recorder, untraced_walls: list[float]) -> tuple[dict[str, float], list[str]]:
    """All PER_LAYER metrics, plus the exact counts that did not repeat."""
    selfs = self_times(rec.spans)
    by_run: dict[int, tuple[list, list]] = {}
    for sp, s in zip(rec.spans, selfs):
        spans, ss = by_run.setdefault(sp.run_id, ([], []))
        spans.append(sp)
        ss.append(s)
    jobs = [_job_metrics(spans, ss, rec.counts.get(run, Counter()))
            for run, (spans, ss) in sorted(by_run.items())]
    out = {name: median([job[name] for job in jobs]) for name in jobs[0]}
    unstable = [name for name in EXACT if len({job[name] for job in jobs}) > 1]

    def per_call_us(pred):
        return 1e6 * median([sp.duration for sp in rec.spans if pred(sp)])

    for m in MODES:
        out[f"analytical.solve_us_p50.{m}"] = per_call_us(
            lambda sp: sp.name == "solve" and sp.attrs.get("mode") == m)
    out["metrics.report_us_p50"] = per_call_us(lambda sp: sp.name == "metrics_report")
    out["predictor.load_model_us"] = per_call_us(lambda sp: sp.name == "load_model")
    out["predictor.forward_us"] = per_call_us(lambda sp: sp.name == "forward")
    out["cli.predict_us_p50"] = per_call_us(
        lambda sp: sp.name == "main" and sp.attrs.get("command") == "predict")
    reps = [sp for sp in rec.spans if sp.name == "run_replication"]
    for s in SCENARIOS:
        mine = [sp for sp in reps if sp.attrs["scenario"] == s]
        out[f"simulator.replication_s.{s}"] = median([sp.duration for sp in mine])
        out[f"simulator.slots_per_s.{s}"] = median([sp.attrs["slots"] / sp.duration for sp in mine])
        out[f"simulator.host_us_per_cca.{s}"] = median(
            [1e6 * sp.duration / sp.attrs["cca_starts"] for sp in mine if sp.attrs["cca_starts"]])
    # repetitions alternate untraced, traced: pair them so interference cancels
    out["bench.untraced_wall_s"] = median(untraced_walls)
    out["bench.trace_overhead_s"] = median(
        [job["bench.traced_wall_s"] - wall for job, wall in zip(jobs, untraced_walls)])
    return {name: out[name] for name, _, _ in PER_LAYER}, unstable
