"""Fast self-test of the benchmark: every workload at tiny N, the oracle
checks on every route, the traced run, and the command line outside a
checkout.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import bench, workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY_N = 16
TINY_STEPS = 4


def tiny(name):
    return dataclasses.replace(wl.WORKLOADS[name], n=TINY_N)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_runs_correct_at_tiny_size(name):
    res = bench.measure(tiny(name), seed=3, seconds=0.0, min_steps=TINY_STEPS,
                        length=TINY_STEPS + bench.WARMUP_STEPS, oracle_n=TINY_N)
    assert res["correct"], res["details"]["checks"]
    assert (res["attempted"], res["failed"]) == (TINY_STEPS, 0)
    assert set(res["metrics"]) | {"peak_rss_mb", "setup_s"} == set(bench.END_TO_END_UNITS)
    assert res["metrics"]["obs_per_s"] > 0 and res["metrics"]["ok_step_frac"] == 1.0


@pytest.mark.parametrize("method", ["full", "categorical", "accept_reject"])
def test_oracle_check_is_exact_on_every_route(method):
    check = bench.oracle_check(method, seed=5, n=TINY_N)
    assert check["passed"], check


def test_inputs_depend_only_on_seed():
    w = wl.WORKLOADS["full_residual_d2"]
    a, b = wl.make_inputs(w, 7, 5), wl.make_inputs(w, 7, 9)
    assert (a.ys == b.ys[:6]).all()
    assert not (wl.make_inputs(w, 8, 5).ys == a.ys).all()


@pytest.mark.parametrize("name", ["full_lgssm_d2", "ar_lgssm_d2"])
def test_traced_run_reproduces_untraced_and_restores(name):
    from streamvi import engine
    step = engine.step
    res, tracer = bench.measure_traced(tiny(name), seed=4, seconds=0.0,
                                       min_steps=TINY_STEPS,
                                       length=TINY_STEPS + bench.WARMUP_STEPS,
                                       oracle_n=TINY_N)
    assert engine.step is step
    assert res["correct"], res["details"]["checks"]
    metrics = res["metrics"]
    assert set(metrics) == set(bench.PER_LAYER_UNITS)
    assert metrics["gradients.marginal_chain.calls"] == 2.0
    if name == "ar_lgssm_d2":
        assert metrics["ar.proposals_per_draw"] >= 1.0
        assert metrics["engine.compute_weights.self_ms"] == 0.0
    else:
        assert metrics["gaussian.log_density_cross.pairs"] == TINY_N * TINY_N + TINY_N
        assert 1.0 <= metrics["weights.ess_min"] <= metrics["weights.ess_p50"] <= TINY_N
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_step_tail_has_ten_steps_beyond():
    steps = [float(i) for i in range(1, 27)]
    value, pct, n = bench.step_tail(steps)
    assert (value, n) == (16.0, 26) and sum(s > value for s in steps) == 10
    assert pct == pytest.approx(100 * 16 / 26)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in wl.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "full_lgssm_d2",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
