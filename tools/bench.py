"""The benchmark trajectory: end-to-end metrics of perfbench, per revision.

Runs the benchmark's command (``perfbench/run.py``, unchanged) as a
subprocess, once per workload and seed, with the workloads, command and
``--seconds`` that ``BENCHMARK.json`` declares, so every BENCH file reads the
same request batches.  It reads each run's last line (its JSON result) and
writes ``BENCH_<label>.json`` at the repo root: for each workload and metric the
median, quartiles, min and max over the runs, and every value, with the run
count, the host and the git revision.  The label is ``git describe --always
--dirty`` of the working tree, which is what is measured.

With ``--against REV`` it also measures REV and compares: REV is exported
with ``git archive`` and the working tree copied (the files git tracks or
would track), each into a fresh temporary directory; both are byte-compiled
there, so neither side pays or saves an import's compile, and the two sides
run in alternating pairs, the side that goes first switching with each
pair.  Each metric then reports in how many pairs the working tree did
better, and each end-to-end metric one verdict per workload (`_verdict`),
recorded and printed.  Each tree first makes one discarded run of the first
workload and seed: a session's first run read up to 1.7x the wall time of
the rest.

    python tools/bench.py                                    # seeds 1-3
    python tools/bench.py --against HEAD --seeds 3-12 --workloads sum-large

A run takes 4-8 s on 2 vCPUs: the batches hold well under a second of work.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _seeds(spec: str) -> list[int]:
    """"1-3,7" as [1, 2, 3, 7]."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _copy_worktree(dest: Path) -> None:
    """The working tree's tracked and untracked, not ignored, files."""
    names = _git("ls-files", "--cached", "--others", "--exclude-standard", "-z").split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def _compile(tree: Path) -> None:
    for sub in ("src", "perfbench"):
        compileall.compile_dir(tree / sub, quiet=1)


def _run(tree: Path, workload: str, seed: int) -> dict:
    """The last line of one `--trace 0` run of the benchmark's command in `tree`."""
    out = subprocess.run([*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
                          "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} ({workload}, seed {seed}):\n"
                         f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "values": values}


def _side(results: list[dict]) -> dict:
    """Per metric, the summary of a workload's runs, with their count and failures."""
    metrics = {name: _summary([r["metrics"][name]["value"] for r in results])
               for name in results[0]["metrics"]}
    return {"runs": len(results), "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "correct": all(r["correct"] for r in results), "metrics": metrics}


def _verdict(ours: list[float], theirs: list[float], wins: int, bound: float,
             lower: bool) -> str:
    """The working tree's runs of one metric against REV's, `wins` the pairs
    it did better in, `bound` BENCHMARK.json's, relative to REV's median:
    "better" if it won at least 9 in 10 pairs and the medians differ by more
    than REV's quartile spread; else "unresolved" if that spread exceeds the
    bound, unless every run of the tree beats every run of REV; else "worse"
    if the tree's median is worse than REV's by more than the bound; else
    "within bound"."""
    a, b = _summary(ours), _summary(theirs)
    sign = 1 if lower else -1                   # sign * (REV - tree) > 0: the tree is better
    gain, spread = sign * (b["median"] - a["median"]), b["q3"] - b["q1"]
    allowed = bound * abs(b["median"])
    if wins >= 0.9 * len(ours) and gain > spread:
        return "better"
    if spread > allowed and not all(sign * (t - o) > 0 for o in ours for t in theirs):
        return "unresolved"
    return "worse" if -gain > allowed else "within bound"


def _host() -> dict:
    import numpy

    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        lines = []
    cpu = next((line.split(":", 1)[1].strip() for line in lines
                if line.startswith("model name")), platform.processor())
    return {"platform": platform.platform(), "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="a comma-separated subset of BENCHMARK.json's workloads")
    ap.add_argument("--seeds", default="1-3", help="e.g. 1-3 or 3-12,15")
    ap.add_argument("--against", metavar="REV", help="also measure REV, in alternating pairs")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    if not set(workloads) <= set(WORKLOADS):
        ap.error(f"workloads are {', '.join(WORKLOADS)}")
    seeds = _seeds(args.seeds)
    label = _git("describe", "--always", "--dirty")
    record = {"label": label, "revision": _git("rev-parse", "HEAD"),
              "dirty": label.endswith("-dirty"), "host": _host(), "seeds": seeds,
              "seconds": BENCHMARK["run_seconds"], "started": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                                time.gmtime())}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {label: Path(tmp) / "tree"}
        trees[label].mkdir()
        _copy_worktree(trees[label])
        if args.against:
            base = _git("rev-parse", args.against)
            record["against"] = {"label": _git("describe", "--always", base), "revision": base}
            trees["against"] = Path(tmp) / "against"
            trees["against"].mkdir()
            _export(base, trees["against"])
        for tree in trees.values():
            _compile(tree)
            _run(tree, workloads[0], seeds[0])      # discarded: a session's first run is cold
        results = {side: {w: [] for w in workloads} for side in trees}
        pair = 0
        for workload in workloads:
            for seed in seeds:
                order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
                for side in order:
                    results[side][workload].append(_run(trees[side], workload, seed))
                pair += 1
                print(workload, seed, *(
                    f"{side} " + " ".join(f"{k} {v['value']:.4g}" for k, v in
                                          results[side][workload][-1]["metrics"].items())
                    for side in trees), sep="  ", file=sys.stderr)
    record["workloads"] = {w: _side(results[label][w]) for w in workloads}
    if args.against:
        record["against"]["workloads"] = {w: _side(results["against"][w]) for w in workloads}
        # per metric, the pairs in which the working tree did better
        lower = {m["name"]: m["better"] == "lower" for m in BENCHMARK["end_to_end"]}

        def better(name, ours, theirs):
            a, b = ours["metrics"][name]["value"], theirs["metrics"][name]["value"]
            return a < b if lower[name] else a > b

        record["pairs_better"] = {
            w: {name: sum(better(name, ours, theirs) for ours, theirs in
                          zip(results[label][w], results["against"][w]))
                for name in results[label][w][0]["metrics"]}
            for w in workloads}
        record["verdicts"] = {w: {} for w in workloads}
        for w in workloads:
            for m in BENCHMARK["end_to_end"]:
                name, wins = m["name"], record["pairs_better"][w][m["name"]]
                ours, theirs = (side["workloads"][w]["metrics"][name]["values"]
                                for side in (record, record["against"]))
                verdict = _verdict(ours, theirs, wins, m["bound"], lower[name])
                record["verdicts"][w][name] = verdict
                print(f"{w} {name}: {verdict} (median {statistics.median(ours):.4g} vs "
                      f"{statistics.median(theirs):.4g}, better in {wins} of {len(ours)} pairs)")
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
