"""The floorsums benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload sum-large --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (nothing is built: the package is
imported from ``src/``).  The run

1. generates the workload's request batch from the seed (workloads.py);
2. times set-up, from process start to the first possible request, in
   fresh processes (worker.py --setup-only) before and after the batch, and
   keeps the median;
3. runs the batch once in a fresh worker process with tracing off, and with
   ``--trace 1`` once more in another fresh worker with every public
   function of floorsums wrapped (tracer.py);
4. checks every output against an independent oracle (oracles.py), outside
   the timed region;
5. prints a run record line, then the result as the last line:
   ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
   metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

Scratch files, the run record and the span dump go to ``.perfbench_runs/``
in the checkout.  The run exits with status 2, printing no result, when the
checkout holds no floorsums sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4        # fresh set-up-only workers before the batch, and again after it
DEADLINE_S = 170.0

# Times are reported at a fixed host speed: each request's seconds times
# REF_NOMINAL_S over the median time of worker.reference_loop sampled around
# it, and each set-up time over the loop's time measured right after it.  On a
# shared 2-vCPU host the raw batch time of a workload spread by 9-26%
# (IQR / median over five or ten seeds) as the host's speed drifted; the raw
# times stay in the run record.
REF_NOMINAL_S = 0.0027

# (name, unit): the end-to-end metrics of a --trace 0 run.  The median
# request time req_s.p50 is in the run record only: on scan it is the mean
# of two 5-8 s requests, and between sets of runs on a shared 2-vCPU host it
# moved by more than the largest bound a metric may have.
END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

_FN_TIMES = [f"identities.{f}.s" for f in ("vaughan_lambda_sides", "vaughan_mobius_sides",
                                           "hyperbola_sides", "hyperbola_exp_sides",
                                           "vaughan_coeffs")]
_FN_TIMES += [f"psi.{f}.s" for f in ("vaaler_polynomial", "verify_pointwise_bound",
                                     "fejer_envelope")]
_FN_TIMES += [f"expsum.{f}.s" for f in ("check_bound", "exp_sum", "type_II_sum")]

# (name, unit): the per-layer metrics of a --trace 1 run
PER_LAYER = (
    ("arith.eval_point.calls", "count"), ("arith.eval_point.errors", "count"),
    ("arith.eval_point.s", "s"), ("arith.eval_point.us_per_call", "us"),
    ("arith.eval_point.share", "1"),
    ("arith.iter_segment_values.calls", "count"), ("arith.iter_segment_values.errors", "count"),
    ("arith.iter_segment_values.segments", "count"),
    ("arith.iter_segment_values.entries", "count"),
    ("arith.iter_segment_values.s", "s"), ("arith.iter_segment_values.ns_per_entry", "ns"),
    ("arith.iter_segment_values.share", "1"),
    ("arith.build_sieve.calls", "count"), ("arith.build_sieve.errors", "count"),
    ("arith.build_sieve.entries", "count"), ("arith.build_sieve.s", "s"),
    ("arith.build_sieve.self_s", "s"),
    ("arith.dirichlet_convolve.calls", "count"), ("arith.dirichlet_convolve.errors", "count"),
    ("arith.dirichlet_convolve.entries", "count"), ("arith.dirichlet_convolve.s", "s"),
    ("floorsum.floor_sum_fast.calls", "count"), ("floorsum.floor_sum_fast.errors", "count"),
    ("floorsum.floor_sum_fast.s", "s"), ("floorsum.floor_sum_fast.self_s", "s"),
    ("floorsum.floor_sum_fast.point_evals", "count"),
    ("floorsum.floor_sum_fast.block_entries", "count"),
    ("floorsum.floor_sum_fast.calls_per_x", "1"),
    ("floorsum.floor_sum_fast.calls_per_x_out", "1"),
    ("floorsum.main_term_constant.calls", "count"),
    ("floorsum.main_term_constant.errors", "count"),
    ("floorsum.main_term_constant.entries", "count"),
    ("floorsum.main_term_constant.s", "s"), ("floorsum.main_term_constant.self_s", "s"),
    ("identities.run_verification.calls", "count"),
    ("identities.run_verification.errors", "count"),
    ("identities.run_verification.trials", "count"), ("identities.run_verification.s", "s"),
    ("identities.run_verification.share", "1"),
    *((name, "s") for name in _FN_TIMES),
    ("expsum.check_bound.calls", "count"), ("expsum.check_bound.errors", "count"),
    ("pairs.minimize_over_pairs.s", "s"), ("pairs.enumerate_pairs.pairs", "count"),
    ("pairs.theorem_exponent.calls", "count"), ("pairs.theorem_exponent.errors", "count"),
    ("cli.main.calls", "count"), ("cli.main.errors", "count"), ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class RunError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one client, one thread: psi's matrix product is no faster on two BLAS
    # threads of a 2-vCPU host, and it slows by a third whenever the second
    # vCPU is busy, as is set-up (0.29 s against 0.22 s for one thread)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker, time its set-up until it is ready, wait for it; return
    the set-up time and the rest of its stdout.  A worker still running at
    the run's deadline is killed."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
    try:
        started, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if started else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RunError(f"worker did not start: {line!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RunError(f"worker exited with status {proc.returncode}")
        return setup, rest
    except subprocess.TimeoutExpired:
        raise RunError("worker ran past the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _run_pass(run_dir: Path, tag: str, deadline: float, trace: bool):
    results = run_dir / f"results-{tag}.json"
    args = ["--batch", str(run_dir / "requests.json"), "--results", str(results)]
    if trace:
        args += ["--spans", str(run_dir / "spans.npz")]
    _worker(args, deadline)
    return json.loads(results.read_text())


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def _layer_metrics(traced: dict, traced_wall: float, wall: float) -> dict:
    L = traced["layers"]
    calls_by_req = {int(k): v for k, v in traced["fsf_calls"].items()}

    def get(name):
        return float(L.get(name, 0.0))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    def calls_per_x(keep):
        reqs = [r for r in traced["results"] if r["points"] and keep(r)]
        return ratio(sum(calls_by_req.get(r["id"], 0) for r in reqs),
                     sum(r["points"] for r in reqs))

    derived = {
        "arith.eval_point.us_per_call": ratio(get("arith.eval_point.s"),
                                              get("arith.eval_point.calls"), 1e6),
        "arith.iter_segment_values.ns_per_entry": ratio(
            get("arith.iter_segment_values.s"), get("arith.iter_segment_values.entries"), 1e9),
        "floorsum.floor_sum_fast.calls_per_x": calls_per_x(lambda r: True),
        "floorsum.floor_sum_fast.calls_per_x_out": calls_per_x(lambda r: "out" in r),
        "trace.overhead_s": traced_wall - wall,
    }
    for layer in ("arith.eval_point", "arith.iter_segment_values",
                  "identities.run_verification"):
        derived[f"{layer}.share"] = ratio(get(f"{layer}.s"), traced_wall)
    return {name: {"value": derived[name] if name in derived else get(name), "unit": unit}
            for name, unit in PER_LAYER}


def check_outputs(requests: list[dict], outputs: list[dict]) -> list[dict]:
    """Oracle verdicts: one {"id", "why"} per rejected output."""
    from oracles import Oracle

    oracle = Oracle()
    by_id = {r["id"]: r for r in requests}
    failures = []
    # grouped by request, so the oracle builds each 1e7 naive table once
    for res in sorted(outputs, key=lambda r: json.dumps(by_id[r["id"]])):
        why = oracle.check(by_id[res["id"]], res)
        if why is not None:
            failures.append({"id": res["id"], "why": why})
    return failures


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "floorsums" / "cli.py").is_file():
        raise RunError(f"no floorsums sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    requests = workloads.generate(workload, seed, seconds)
    run_dir = ROOT / ".perfbench_runs" / f"{workload}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "requests.json").write_text(json.dumps(requests))

    phases = {}
    clock = time.perf_counter()

    def phase(name):
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    def probe():
        """(set-up time, reference-loop time the probe measured right after it)"""
        setup, rest = _worker(["--setup-only"], deadline)
        return setup, float(rest)

    probes = [probe() for _ in range(SETUP_PROBES)]
    phase("setup_probes")
    plain = _run_pass(run_dir, "plain", deadline, trace=False)
    passes = [plain]
    phase("plain_pass")
    probes += [probe() for _ in range(SETUP_PROBES)]
    phase("setup_probes_after")
    if trace:
        passes.append(_run_pass(run_dir, "traced", deadline, trace=True))
        phase("traced_pass")

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    failures = check_outputs(requests, [r for p in passes for r in p["results"]])
    phase("oracles")

    times = [r["seconds"] for r in plain["results"]]
    wall = sum(times)
    if not plain["reference_s"]:
        raise RunError("the worker took no reference samples")
    wall_ref = sum(r["seconds"] * REF_NOMINAL_S / r["reference_s"] for r in plain["results"])
    attempted = len(requests) * len(passes)
    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "requests": len(requests), "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": plain["blas_threads"], "commit": _commit(),
        "wall_s": wall, "req_s.p50": statistics.median(times), "n": len(times),
        "request_s": times, "reference_s": plain["reference_s"], "wall_ref_s": wall_ref,
        "failed_ratio": len(failures) / attempted, "setup_probes": probes,
        "setup_s_raw": statistics.median(setup for setup, _ in probes),
        "failures": failures[:20], "phase_s": phases,
    }
    if plain["blas_threads"] is not None and plain["blas_threads"] > nproc:
        raise RunError(f"BLAS runs {plain['blas_threads']} threads on {nproc} cores")

    if trace:
        traced_wall = sum(r["seconds"] for r in passes[1]["results"])
        metrics = _layer_metrics(passes[1], traced_wall, wall)
        record["traced_wall_s"] = traced_wall
    else:
        setup = statistics.median(setup * REF_NOMINAL_S / ref for setup, ref in probes)
        metrics = {"wall_ref_s": wall_ref, "setup_s": setup,
                   "peak_rss_mb": plain["peak_rss_mb"]}
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    record["metrics"] = metrics
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    for junk in [*run_dir.glob("conv-*.npy"), *run_dir.glob("scan-*.csv"),
                 *run_dir.glob("results-*.json")]:
        junk.unlink()
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"run_record": {k: v for k, v in record.items() if k != "metrics"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
