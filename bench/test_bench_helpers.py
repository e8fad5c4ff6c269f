"""Tests for the benchmark's own helpers: percentiles, span arithmetic, digest, patching."""
import json
import math
from pathlib import Path

import pytest

from layers import PER_LAYER
from measure import digest, percentile, tail_percentile
from spans import Recorder, Span, covered, instrument, patched, self_time, self_times

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99), (10**7, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_and_handles_empty_samples():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 99) == pytest.approx(4.96)
    assert percentile([7.0], 99) == 7.0
    assert percentile([], 50) == 0.0


def _span(start, end, parent=None):
    return Span("x", "x", start, end, parent, 0)


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4.0


def test_self_time_subtracts_nested_and_overlapping_children_once():
    parent = _span(0.0, 10.0)
    assert self_time(parent, [_span(2.0, 5.0)]) == 7.0
    # overlapping children cover [1, 6] once, not 3 + 3
    assert self_time(parent, [_span(1.0, 4.0), _span(3.0, 6.0)]) == 5.0
    # a child sticking out of its parent only counts inside it
    assert self_time(parent, [_span(8.0, 12.0), _span(-3.0, 1.0)]) == 7.0
    assert self_time(parent, [_span(11.0, 12.0)]) == 10.0


def test_self_times_of_a_tree_sum_to_the_root():
    spans = [
        _span(0.0, 10.0),
        _span(1.0, 6.0, parent=0),
        _span(2.0, 3.0, parent=1),
        _span(4.0, 5.5, parent=1),
        _span(7.0, 9.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs == [3.0, 2.5, 1.0, 1.5, 2.0]
    assert math.fsum(selfs) == spans[0].duration


def test_recorder_links_parents_and_run_ids():
    rec = Recorder()
    rec.new_run()
    with rec.span("bench", "stage"):
        with rec.span("dataset", "run_sweep"):
            pass
    rec.new_run()
    with rec.span("bench", "stage"):
        rec.counted("k", lambda: None)()
    assert [(sp.parent, sp.run_id) for sp in rec.spans] == [(None, 1), (0, 1), (None, 2)]
    assert rec.counts[1]["k"] == 0 and rec.counts[2]["k"] == 1
    assert all(sp.end >= sp.start for sp in rec.spans)


def test_digest_is_stable_and_bit_sensitive():
    est = {"b": {"TH": 0.25, "PS": 0.5, "ci95": {"TH": 1e-3}}, "a": {"tau": 0.125, "TS": None}}
    reordered = {"a": {"TS": None, "tau": 0.125}, "b": {"ci95": {"TH": 1e-3}, "PS": 0.5, "TH": 0.25}}
    assert digest(est) == digest(reordered) == "d6c9738b893cd6c6"
    nudged = {"a": {"tau": math.nextafter(0.125, 1.0), "TS": None}, "b": est["b"]}
    assert digest(nudged) != digest(est)


def test_patched_restores_attributes_after_an_error():
    class Target:
        value = 1

    with pytest.raises(RuntimeError):
        with patched([(Target, "value", 2)]):
            assert Target.value == 2
            raise RuntimeError
    assert Target.value == 1


def test_instrument_records_layers_and_restores_the_package():
    from star154 import analytical, dataset
    from star154.core import TrafficMode

    originals = (dataset.solve, dataset.run_sweep, analytical.tau_update)
    spec = dataset.SweepSpec(mode=TrafficMode.UNSATM, N_values=(5,), L_values=(50,),
                             r_values=(0.05,), M_values=(2, 3))
    rec = Recorder()
    rec.new_run()
    with instrument(rec, {}):
        with rec.span("bench", "job"):
            rows = dataset.run_sweep(spec)
    assert (dataset.solve, dataset.run_sweep, analytical.tau_update) == originals
    solves = [sp for sp in rec.spans if sp.name == "solve"]
    assert [sp.attrs["mode"] for sp in solves] == ["unsatm", "unsatm"]
    assert [sp.attrs["iterations"] for sp in solves] == [
        analytical.solve(cfg).iterations for cfg in dataset.generate_grid(spec)]
    assert rec.counts[1]["analytical.tau_update"] > 0
    assert rec.counts[1]["queueing.empty_prob"] > 0
    assert len(rows) == 2
    assert math.fsum(self_times(rec.spans)) == pytest.approx(rec.spans[0].duration, abs=1e-12)


def test_fastest_job_takes_each_stage_at_its_fastest_call():
    from run import fastest_job

    logs = [{"solve": [2.0], "predict": [1.0, 3.0, 1.5]},
            {"solve": [1.5], "predict": [0.5, 2.0, 4.0]}]
    assert fastest_job(logs) == {"solve": 1.5, "predict": 1.5}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"sweep", "simulate", "pipeline"}
    from run import END_TO_END

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
