"""Tests of the benchmark itself: seeding, oracles, tracing, metric names.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from worker import run_batch

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_seed_gives_one_request_list(name):
    a = workloads.generate(name, 7, 25)
    assert a == workloads.generate(name, 7, 25)
    assert a != workloads.generate(name, 8, 25)
    assert [r["id"] for r in a] == list(range(len(a)))


def test_batches_keep_their_mix_across_seeds():
    for seed in range(5):
        scan = workloads.generate("scan", seed, 25)
        names = [r["argv"][2] for r in scan]
        for stratum in workloads.SCAN_STRATA:
            assert sum(n in stratum for n in names) == len(scan) // 4
        assert sum("--out" in r["argv"] for r in scan) == len(scan) // 2
        mix = workloads.generate("verify-mix", seed, 25)
        ops = sorted(r["argv"][0] if r["op"] == "cli" else "convolve" for r in mix)
        rounds = workloads.batch_size("verify-mix", 25)
        assert ops.count("verify") == 4 * rounds and ops.count("convolve") == rounds


def test_scan_grid_matches_the_cli():
    from floorsums import cli
    assert workloads.scan_grid(workloads.SCAN_GRID) == cli._parse_grid(workloads.SCAN_GRID)


def test_reference_constant_agrees_with_the_telescoped_sum():
    from oracles import reference_constant
    assert reference_constant("one") == pytest.approx(1.0, abs=1e-15)
    # sum mu(n)/(n(n+1)): the series value lies within the cutoff-1e6 tail bound
    from floorsums import arith, floorsum
    c, tail = floorsum.main_term_constant(arith.MOBIUS, 10**6)
    assert abs(c - reference_constant("mu")) <= tail


SMALL = [
    {"id": 0, "op": "cli", "argv": ["sum", "--function", "tau2", "--x", "100000"]},
    {"id": 1, "op": "cli", "argv": ["verify", "vaughan-mu", "--trials", "3", "--seed", "5"]},
    {"id": 2, "op": "convolve", "f": "mu", "g": "tau3", "closed_form": "tau2", "limit": 1000},
    {"id": 3, "op": "cli", "argv": ["pairs", "search", "--target", "tau:3", "--depth", "3",
                                    "--seeds", workloads.PAIR_SEEDS]},
    {"id": 4, "op": "cli", "argv": ["psi", "--H", "50", "--grid", "1000", "--report"]},
]


@pytest.fixture(scope="module")
def small_outputs(tmp_path_factory):
    return run_batch(SMALL, tmp_path_factory.mktemp("run"))


def _failed_ratio(outputs):
    return len(run.check_outputs(SMALL, outputs)) / len(outputs)


def _edit_json(outputs, rid, edit):
    out = [dict(o) for o in outputs]
    payload = json.loads(out[rid]["stdout"])
    edit(payload)
    out[rid]["stdout"] = json.dumps(payload)
    return out


def test_correct_outputs_pass(small_outputs):
    assert run.check_outputs(SMALL, small_outputs) == []


@pytest.mark.parametrize("delta", [1, -1])
def test_sum_off_by_one_fails(small_outputs, delta):
    bad = _edit_json(small_outputs, 0, lambda p: p.update(sum=p["sum"] + delta))
    assert _failed_ratio(bad) > 0


def test_corrupted_residuals_fail(small_outputs):
    def worse(p):
        p["reports"][0]["relative"] = p["max_relative_residual"] = 1e-6
    assert _failed_ratio(_edit_json(small_outputs, 1, worse)) > 0
    assert _failed_ratio(_edit_json(small_outputs, 0,
                                     lambda p: p.update(residual=p["residual"] + 1))) > 0
    assert _failed_ratio(_edit_json(small_outputs, 4,
                                    lambda p: p.update(max_violation=1e-6))) > 0


def test_corrupted_convolution_entry_fails(small_outputs, tmp_path):
    vals = np.load(small_outputs[2]["values"]).copy()
    vals[719] += 1
    path = tmp_path / "bad.npy"
    np.save(path, vals)
    bad = [dict(o) for o in small_outputs]
    bad[2]["values"] = str(path)
    assert _failed_ratio(bad) > 0


def test_wrong_pair_exponent_fails(small_outputs):
    bad = _edit_json(small_outputs, 3, lambda p: p.update(exponent="1/2"))
    assert _failed_ratio(bad) > 0


def test_reference_samples_are_left_out_of_request_times(tmp_path):
    from worker import REF_WARMUP, Speedometer
    reqs = [{"id": 0, "op": "cli", "argv": ["psi", "--H", "3000", "--grid", "10000"]}]
    with Speedometer() as meter:
        out = run_batch(reqs, tmp_path, meter=meter)
    t0, t1 = out[0]["span"]
    inside = meter.spent(t0, t1)
    assert len(meter.ticks) > REF_WARMUP and inside > 0
    assert out[0]["seconds"] == pytest.approx(t1 - t0 - inside)
    assert min(dt for _, dt in meter.ticks) <= meter.local(t0, t1)


def test_traced_worker_counts_layers(tmp_path):
    reqs = [{"id": 0, "op": "cli", "argv": ["sum", "--function", "mu", "--x", "40000"]},
            {"id": 1, "op": "cli", "argv": ["scan", "--function", "mu2", "--grid",
                                            "1000:9000:3", "--cutoff", "2000",
                                            "--out", "@OUT"]}]
    (tmp_path / "requests.json").write_text(json.dumps(reqs))
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--batch",
                    str(tmp_path / "requests.json"), "--results", str(tmp_path / "r.json"),
                    "--spans", str(tmp_path / "spans.npz")], check=True,
                   capture_output=True, timeout=120)
    out = json.loads((tmp_path / "r.json").read_text())
    layers = out["layers"]
    assert layers["cli.main.calls"] == 2 and layers["cli.main.errors"] == 0
    # the head of S_mu(40000) evaluates f at n = 1..200 by factorization
    assert layers["arith.eval_point.calls"] >= 200
    assert layers["floorsum.floor_sum_fast.point_evals"] == layers["arith.eval_point.calls"]
    assert layers["floorsum.main_term_constant.entries"] == 10**7 + 2000
    assert layers["arith.iter_segment_values.entries"] >= 10**7 + 2000
    assert out["fsf_calls"]["0"] == 1 and out["fsf_calls"]["1"] >= 3
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["start"]) == len(spans["parent"]) > 0
    assert (spans["end"] >= spans["start"]).all()
    assert run.check_outputs(reqs, out["results"]) == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_checkout_without_sources(tmp_path):
    import shutil
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
