"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = {
    # Same code paths as the real workloads at a few hundred nonzeros:
    # library defaults (BLCO, seed kernels), and the process engine.
    "defaults": Workload("tiny-defaults", (12, 10, 8, 9), 400, 3),
    "processes": Workload("tiny-processes", (20, 16, 12), 500, 3,
                          {"engine": "processes", "mttkrp_format": "coo"}),
}


def _benchmark_spec():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _printed(capsys, result):
    run.report(result)
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_metric_printed_with_its_unit(capsys, kind, trace, section):
    result = run.run(TINY[kind], seed=3, seconds=0, trace=bool(trace), log=lambda *_: None)
    lines, last = _printed(capsys, result)
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in _benchmark_spec()[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.split()[:1] == [name] and line.rstrip().endswith(unit) for line in lines), name
        assert np.isfinite(last["metrics"][name]["value"])


def test_traced_spans_nest_with_nonnegative_self_time():
    rec = tracing.SpanRecorder()

    def leaf():
        time.sleep(0.002)

    def outer():
        leaf()
        time.sleep(0.002)
        leaf()

    leaf, outer = rec.wrap("leaf", leaf), rec.wrap("outer", outer)
    t0 = rec.clock()
    outer()
    stamps = [rec.clock()]
    outer()
    stamps.append(rec.clock())
    iters = tracing.adopt_into_iterations(rec, t0, stamps)
    _assert_nested(rec.to_json())
    by_name = {}
    for s in rec.to_json():
        by_name.setdefault(s["name"], []).append(s)
    assert len(by_name["leaf"]) == 4 and len(by_name["outer"]) == 2
    assert [s["parent"] for s in by_name["outer"]] == [it.id for it in iters]
    for s in by_name["outer"]:
        kids = [k for k in by_name["leaf"] if k["parent"] == s["id"]]
        covered = sum(k["end"] - k["start"] for k in kids)
        assert s["self"] == pytest.approx(s["end"] - s["start"] - covered)


def test_traced_run_spans_nest():
    run.run(TINY["processes"], seed=4, seconds=0, trace=True, log=lambda *_: None)
    path = os.path.join(run._out_dir(), f"trace-{TINY['processes'].name}-s4.json")
    with open(path) as fh:
        spans = json.load(fh)
    names = {s["name"] for s in spans}
    assert {"core.iteration", "engine.mttkrp", "engine.dispatch", "updates.update",
            "machine.record"} <= names
    _assert_nested(spans)


def _assert_nested(spans):
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["self"] >= 0.0, s
        assert s["self"] <= s["end"] - s["start"] + 1e-12
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"], (s, p)


def test_generator_is_deterministic_per_seed():
    dims, nnz = (30, 7, 50, 11), 2000
    a_idx, a_val = gen.generate(dims, nnz, seed=5)
    b_idx, b_val = gen.generate(dims, nnz, seed=5)
    c_idx, c_val = gen.generate(dims, nnz, seed=6)
    assert np.array_equal(a_idx, b_idx) and np.array_equal(a_val, b_val)
    assert gen.checksum(a_idx, a_val) == gen.checksum(b_idx, b_val)
    assert gen.checksum(a_idx, a_val) != gen.checksum(c_idx, c_val)
    assert a_idx.shape == (nnz, len(dims))
    assert len(np.unique(np.ravel_multi_index(a_idx.T, dims))) == nnz
    assert (a_idx >= 0).all() and (a_idx < np.array(dims)).all()
    assert (a_val > 0).all()


def test_generated_file_round_trips(tmp_path):
    path = str(tmp_path / "x.npz")
    digest = gen.write_input(path, (9, 8, 7), 100, seed=2)
    idx, val, shape, stored = gen.load_input(path)
    assert shape == (9, 8, 7) and stored == digest == gen.checksum(idx, val)


def test_benchmark_json_names_the_workloads():
    from workloads import WORKLOADS

    assert [w["name"] for w in _benchmark_spec()["workloads"]] == list(WORKLOADS)
