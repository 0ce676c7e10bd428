"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from treecov import cli, experiment  # noqa: E402


def _span(id, parent, start, end, name="x"):
    return spans.Span(id, parent, 0, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, None, 0, 100, "root"),
        _span(1, 0, 10, 30, "a"),
        _span(2, 0, 20, 50, "a"),  # overlaps span 1: 10..50 is covered once
        _span(3, 0, 60, 70, "b"),
        _span(4, 3, 62, 65, "c"),
    ]
    own = spans.self_times_ns(tree)
    assert own == {0: 100 - 40 - 10, 1: 20, 2: 30, 3: 10 - 3, 4: 3}
    totals = spans.totals_ms(tree)
    assert totals["a.ms"] == pytest.approx(50e-6)
    assert totals["b.self_ms"] == pytest.approx(7e-6)
    assert totals["root.self_ms"] == pytest.approx(50e-6)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(40) == 750
    assert run.tail_percentile(39) == 500
    assert run.tail_percentile(66) == 800
    assert run.tail_percentile(70) == 850
    assert run.tail_percentile(499) == 950
    assert run.tail_percentile(500) == 980
    assert run.tail_percentile(10_000) == 980
    with pytest.raises(ValueError):
        run.tail_percentile(19)
    for n in (20, 40, 70, 99, 1500, 2000, 3333):
        q = run.tail_percentile(n)
        value, beyond = run.nearest_rank([float(i) for i in range(n)], q)
        assert beyond >= 10
        assert value == sorted(range(n))[math.ceil(q * n / 1000) - 1]
    assert run.nearest_rank([float(i) for i in range(1, 41)], 750) == (30.0, 10)
    # Ties at the percentile are not beyond it.
    assert run.nearest_rank([1.0] * 35 + [2.0] * 5, 750) == (1.0, 5)


def _tiny_sweep():
    return workloads.SweepWorkload(
        "tiny", p=5, m_values=(3, 4), trials=3, bank_size=2, picks=2, trace_rounds=1
    )


def _sweep_reference(workload, inputs, key):
    outcomes = workload.run_round(inputs, key, None, lambda: None)
    assert all(o.ok for o in outcomes)
    return {
        "kl_prior_tree": outcomes[0].output[5],
        "kl_oracle_tree": outcomes[0].output[6],
        "cells": {str(key): [[*o.output[:4], o.output[4][0]] for o in outcomes]},
    }


def test_failed_frac_counts_mismatching_and_raising_sweep_cells(tmp_path, monkeypatch):
    workload = _tiny_sweep()
    inputs = workload.prepare([0], tmp_path)
    ref = _sweep_reference(workload, inputs, 0)
    assert run.failed_count(workload.run_round(inputs, 0, ref, lambda: None)) == 0

    ref["cells"]["0"][1][2] *= 1.0 + 2.0**-20  # beyond the tolerance
    ref["cells"]["0"][2][2] *= 1.0 + 2.0**-40  # within it
    outcomes = workload.run_round(inputs, 0, ref, lambda: None)
    assert [o.ok for o in outcomes] == [True, False, True, True, True, True]

    original = experiment.run_em

    def flaky(config, model, obs, ground_truth=None):
        if model.m == 4:
            raise experiment.NumericalError("injected")
        return original(config, model, obs, ground_truth=ground_truth)

    monkeypatch.setattr(experiment, "run_em", flaky)
    outcomes = workload.run_round(inputs, 0, ref, lambda: None)
    assert len(outcomes) == 6 and run.failed_count(outcomes) == 4

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(experiment, "run_sweep", broken)
    outcomes = workload.run_round(inputs, 0, ref, lambda: None)
    assert len(outcomes) == 6 and run.failed_count(outcomes) == 6
    assert all(o.latency_s is None for o in outcomes)


def test_failed_frac_counts_a_raising_and_a_mismatching_cli_fit(tmp_path, monkeypatch):
    workload = workloads.CliFitWorkload("tiny_cli", bank_size=1, ops_per_pass=2,
                                         trace_rounds=1)
    workload.p, workload.m, workload.r = 6, 4, 300
    inputs = workload.prepare([0], tmp_path)
    (first,) = workload.run_round(inputs, 0, None, lambda: None)
    code, upper, trace = first.output
    assert code == 0 and first.ok and first.iterations == len(trace)
    rows, start = [], 0
    for i in range(workload.p):
        rows.append(list(upper[start:start + workload.p - i]))
        start += workload.p - i
    ref = {"inputs": {"0": {"sigma_upper_rows": rows, "trace": [list(r) for r in trace]}}}
    assert workload.run_round(inputs, 0, ref, lambda: None)[0].ok

    ref["inputs"]["0"]["sigma_upper_rows"][0][1] += 1e-6
    assert not workload.run_round(inputs, 0, ref, lambda: None)[0].ok

    def broken(argv):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "main", broken)
    outcomes = workload.run_round(inputs, 0, ref, lambda: None)
    assert run.failed_count(outcomes) == 1 and outcomes[0].latency_s is None


def test_tracing_changes_no_output_and_counts_repeat(tmp_path):
    workload = _tiny_sweep()
    inputs = workload.prepare([0, 1], tmp_path)
    ref = _sweep_reference(workload, inputs, 1)
    result = run.traced_run(workload, inputs, [1], ref, tmp_path / "spans.csv")
    assert result["problems"] == []
    assert run.failed_count(result["outcomes"]) == 0
    m = result["metrics"]
    assert m["em.iterations"] == sum(c[3] for c in ref["cells"]["1"])
    # One refit per iteration, plus the prior and oracle fits of the sweep.
    assert m["tree.chow_liu.calls"] == m["em.iterations"] + 2
    assert m["tree.chow_liu.self_ms"] <= m["tree.chow_liu.ms"]
    assert m["linear.read_matrix_csv.bytes"] == sum(
        (tmp_path / f).stat().st_size for f in ("sigma.csv", "sigma0.csv")
    )
    # The wrappers are gone once the traced phases end.
    assert experiment.run_em.__module__ == "treecov.em"
    assert not hasattr(experiment.run_em, "__wrapped__")
    header, *lines = (tmp_path / "spans.csv").read_text().splitlines()
    assert header == "phase,id,parent,op,name,start_ns,end_ns"
    assert {line.split(",")[0] for line in lines} == {"traced_1", "traced_2"}


def test_paper_anchor_is_bank_key_zero():
    ref = workloads.load_reference("paper_sweep")
    cells = ref["cells"]["0"]
    assert len(cells) == 500
    assert sum(c[3] for c in cells) == 2896
    assert round(math.fsum(c[2] for c in cells) / len(cells), 10) == 1.0468114826


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
    layer = [m["name"] for m in spec["per_layer"]]
    assert layer == [*run.PER_LAYER_TIMES, *run.PER_LAYER_COUNTS, "trace.overhead_pct"]
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
