"""The three workloads: a fixed job each, its seeded inputs and its correctness gates.

Every workload is a closed loop: one caller in one process, each call waiting
for the previous one, with jobs=1 wherever the package offers workers.
A job is a sequence of short timed stages. Stages that do different work
have different names; calls that do the same work share one. The runner
takes each name's time as its calls per repetition times its fastest call in
the run, and the job's wall time as the sum over names. Gates run outside the
stages.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

from star154 import analytical, cli, dataset, metrics, simulator
from star154.core import NetworkConfig, TrafficMode

from measure import digest, median, percentile, tail_percentile


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


@dataclass
class JobResult:
    work: float  # units of the workload's headline rate done in work_stage
    output: object


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


class Sweep:
    """run_sweep over all three modes on one N x L x r grid, then a CSV round trip.

    unsatm's nested queue loop makes the analytical, metrics and queueing
    layers nearly all of the work; simulator and predictor do none.
    """

    name = "sweep"
    rate_name, rate_unit = "scenarios_per_s", "scenarios/s"
    work_stage = "run_sweep"
    N_VALUES = (5, 10, 20)
    L_VALUES = (30, 60, 100)
    R_VALUES = (0.02, 0.05, 0.08, 0.11)
    M_VALUES = (2, 5)
    BISECTION_SAMPLE = 12
    TAU_AGREEMENT = 1e-9

    def build(self, seed: int, workdir: str):
        # one run_sweep call per scenario group, so each timed call stays short
        # (sat ignores r, so its groups are per N and L)
        specs = [
            dataset.SweepSpec(mode=mode, N_values=(n,), L_values=(l,), r_values=(r,),
                              M_values=self.M_VALUES)
            for mode in (TrafficMode.UNSAT1, TrafficMode.SATURATED, TrafficMode.UNSATM)
            for n in self.N_VALUES for l in self.L_VALUES
            for r in (self.R_VALUES[:1] if mode is TrafficMode.SATURATED else self.R_VALUES)
        ]
        grid = [cfg for spec in specs for cfg in dataset.generate_grid(spec)]
        picks = _rng(seed, 0).choice(len(grid), size=self.BISECTION_SAMPLE, replace=False)
        return {"specs": specs, "csv": f"{workdir}/sweep.csv",
                "bisection_sample": [grid[i] for i in sorted(picks)]}

    def job(self, inp, stage) -> JobResult:
        rows = []
        for spec in inp["specs"]:
            with stage(f"run_sweep/{spec.mode.value}/N{spec.N_values[0]}/L{spec.L_values[0]}"
                       f"/r{spec.r_values[0]}"):
                rows += dataset.run_sweep(spec, jobs=1)
        with stage("write_csv"):
            dataset.write_csv(rows, inp["csv"])
        with stage("read_csv"):
            back = dataset.read_csv(inp["csv"])
        return JobResult(work=len(rows), output=(rows, back))

    def check(self, inp, output, tally: Tally) -> None:
        """Per-repetition gates; returns what final_check needs of this repetition."""
        rows, back = output
        for row in rows:
            ok = (row.converged and row.TH is not None and row.PS is not None
                  and 0.0 <= row.TH <= 1.0 and 0.0 <= row.PS <= 1.0)
            tally.check(ok, f"bad sweep row {row.key}: converged={row.converged} "
                            f"TH={row.TH} PS={row.PS}")
        tally.check(back == rows, "read_csv round trip differs from the written rows")

    def final_check(self, inp, first, summaries, stage_logs, tally: Tally) -> dict:
        """Once-per-run gates on the first repetition's output; returns report details.

        summaries are check()'s returns for every repetition; stage_logs the
        stage times of the untraced ones.
        """
        rows = {row.key: row for row in first[0]}
        settings = analytical.SolverSettings(use_bisection=True)
        worst = 0.0
        for cfg in inp["bisection_sample"]:
            row = rows[(cfg.mode.value, cfg.N, cfg.L, cfg.r, cfg.M)]
            tau = analytical.solve(cfg, settings).tau
            diff = abs(tau - row.tau) if row.tau is not None else math.inf
            worst = max(worst, diff)
            tally.check(diff <= self.TAU_AGREEMENT,
                        f"bisection tau differs by {diff:.3g} at {row.key}")
        return {"rows": len(rows), "bisection_checked": len(inp["bisection_sample"]),
                "bisection_max_abs_dtau": worst}


SCENARIOS = {
    "u1-light": NetworkConfig(N=10, L=100, mode=TrafficMode.UNSAT1, r=0.05),
    "sat-n10": NetworkConfig(N=10, L=100, mode=TrafficMode.SATURATED),
    "sat-n20-short": NetworkConfig(N=20, L=30, mode=TrafficMode.SATURATED),
    "um-m5": NetworkConfig(N=10, L=50, mode=TrafficMode.UNSATM, r=0.08, M=5),
}


class Simulate:
    """simulator.run with fixed replications of four scenarios.

    The event loop is essentially all the time. u1-light rides geometric
    arrival gaps; sat-n20-short has the most CCAs and on-air overlaps; um-m5
    takes the queue path. Each replication is its own simulator.run call
    (replications=1, base seeds b, b+1, ...), which simulates exactly the
    replications one call with more replications would, in shorter timed units.
    """

    name = "simulate"
    rate_name, rate_unit = "sim_slots_per_s", "mini-slots/s"
    work_stage = "run"
    # (measured horizon, replications) per scenario; u1-light gets the most
    # simulated frames because its TH is checked against the model
    PLAN = {"u1-light": (50_000, 8), "sat-n10": (20_000, 4),
            "sat-n20-short": (20_000, 4), "um-m5": (20_000, 4)}
    TH_TOLERANCE = 0.10

    def build(self, seed: int, workdir: str):
        base_seeds = _rng(seed, 1).integers(0, 2**31, size=len(SCENARIOS))
        return {
            label: [simulator.SimConfig(net=net, horizon_mini_slots=self.PLAN[label][0],
                                        replications=1, base_seed=int(b) + rep)
                    for rep in range(self.PLAN[label][1])]
            for (label, net), b in zip(SCENARIOS.items(), base_seeds)
        }

    def job(self, inp, stage) -> JobResult:
        reports = {}
        slots = 0
        for label, cfgs in inp.items():
            for rep, cfg in enumerate(cfgs):
                with stage(f"run/{label}/{rep}"):
                    try:
                        report = simulator.run(cfg, jobs=1)
                    except AssertionError as e:  # frame conservation violated
                        report = e
                reports[(label, rep)] = report
                slots += cfg.warmup + cfg.horizon_mini_slots
        return JobResult(work=slots, output=reports)

    def check(self, inp, output, tally: Tally) -> str:
        estimates = {}
        for (label, rep), r in output.items():
            tally.check(not isinstance(r, Exception), f"{label} replication {rep}: {r}")
            if not isinstance(r, Exception):
                estimates[f"{label}/{rep}"] = {
                    "tau": r.tau, "a": r.a, "TH": r.TH, "PS": r.PS, "TS": r.TS,
                    "TVS": r.TVS, "TSW": r.TSW, "TVSW": r.TVSW}
        return digest(estimates)

    def final_check(self, inp, first, summaries, stage_logs, tally: Tally) -> dict:
        tally.check(len(set(summaries)) == 1,
                    "simulated estimates differ between repetitions of one seed")
        net = SCENARIOS["u1-light"]
        th_model = metrics.report(net, analytical.solve(net)).TH
        th_reps = [r.TH for (label, _), r in first.items()
                   if label == "u1-light" and not isinstance(r, Exception)]
        th_sim = sum(th_reps) / self.PLAN["u1-light"][1]
        rel = abs(th_sim - th_model) / th_model
        tally.check(rel <= self.TH_TOLERANCE,
                    f"u1-light simulated TH {th_sim} is {rel:.1%} from the model's {th_model}")
        return {"digest": summaries[0], "u1_light_TH_sim": th_sim,
                "u1_light_TH_model": th_model, "u1_light_TH_rel_diff": rel}


_HELD_OUT = re.compile(r"held-out R=(\S+)")


def _call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI invocation in-process; returns the exit code and stdout."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 1
    return code, buf.getvalue()


class Pipeline:
    """The CLI pipeline end to end: sweep to CSV, train an inverse model, many predicts.

    Many cheap unsat1 solves feed a CSV write and read; training is the
    predictor's hot loop; predict is a model load plus one forward pass per call.
    """

    name = "pipeline"
    rate_name, rate_unit = "predictions_per_s", "predictions/s"
    work_stage = "predict"
    SWEEP = ["--mode", "unsat1", "--nodes", "2:50:2", "--frame-bytes", "30:120:30",
             "--rate", "0.02:0.10:0.02"]
    TRAIN = ["--target", "n", "--desk-scale", "--epochs", "20", "--lr", "0.2", "--batch", "8"]
    PREDICTIONS = 1000

    def build(self, seed: int, workdir: str):
        csv_path, model = f"{workdir}/pipeline.csv", f"{workdir}/n.model"
        return {
            "sweep": ["sweep", *self.SWEEP, "--out", csv_path],
            "train": ["train", "--data", csv_path, *self.TRAIN, "--seed", str(seed),
                      "--out", model],
            "csv": csv_path,
            "model": model,
            "rng_seed": seed,
        }

    def queries(self, inp) -> list[str]:
        """Predict inputs (r, L, PS, TVS) sampled from the sweep CSV with the seed."""
        with open(inp["csv"], newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["converged"] == "true"]
        picks = _rng(inp["rng_seed"], 2).integers(0, len(rows), size=self.PREDICTIONS)
        return [",".join((rows[i]["r"], rows[i]["L"], rows[i]["PS"], rows[i]["TVS_sym"]))
                for i in picks]

    def job(self, inp, stage) -> JobResult:
        with stage("sweep"):
            sweep_code, _ = _call_cli(inp["sweep"])
        with stage("train"):
            train_code, train_out = _call_cli(inp["train"])
        queries = self.queries(inp) if sweep_code == 0 else []
        answers = []
        for q in queries:
            # every call does the same work, so they share one stage name
            with stage("predict"):
                answers.append(_call_cli(["predict", "--model", inp["model"], "--input", q]))
        match = _HELD_OUT.search(train_out)
        return JobResult(work=len(queries), output={
            "codes": {"sweep": sweep_code, "train": train_code},
            "heldout_R": float(match.group(1)) if match else math.nan,
            "answers": answers,
        })

    def check(self, inp, output, tally: Tally) -> float:
        for command, code in output["codes"].items():
            tally.check(code == 0, f"{command} exited with {code}")
        tally.check(len(output["answers"]) == self.PREDICTIONS,
                    f"{len(output['answers'])} of {self.PREDICTIONS} predictions ran")
        for code, out in output["answers"]:
            tally.check(code == 0, f"predict exited with {code}")
            try:
                value = float(out.strip())
            except ValueError:
                value = math.nan
            tally.check(math.isfinite(value), f"non-finite prediction {out.strip()!r}")
        return output["heldout_R"]

    def final_check(self, inp, first, summaries, stage_logs, tally: Tally) -> dict:
        r_values = set(summaries)
        tally.check(len(r_values) == 1 and all(math.isfinite(r) for r in r_values),
                    f"held-out R not finite or not repeatable at one seed: {sorted(r_values)}")
        lat_ms = [1e3 * seconds for log in stage_logs for seconds in log["predict"]]
        tail = tail_percentile(len(lat_ms)) or 100.0
        return {
            "heldout_R": first["heldout_R"],
            "predict_p50_ms": median(lat_ms),
            f"predict_p{tail:g}_ms": percentile(lat_ms, tail),
            "predict_samples": len(lat_ms),
        }


WORKLOADS = {w.name: w for w in (Sweep, Simulate, Pipeline)}
