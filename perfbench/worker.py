"""Run one request batch against floorsums in a fresh process.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --batch REQUESTS.json --results RESULTS.json
                                [--spans SPANS.npz]

Set-up (interpreter start, ``import floorsums`` with numpy, warming
``primes_upto``) ends with the line ``ready`` on stdout, so the parent can
time it; a ``--setup-only`` worker then prints the time of `reference_loop`,
the host's speed just after its set-up.  Requests then run one after another
(a closed loop with one client); each is timed from the call into floorsums
to its return, with stdout captured.  Inputs of library requests are built and outputs saved
outside the timed region.  Without ``--spans`` a `Speedometer` samples the
host's speed all through the batch; with ``--spans`` the public API is traced
instead, and the spans and per-layer counts are written at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import floorsums  # noqa: E402
import floorsums.cli  # noqa: E402,F401
from floorsums import arith  # noqa: E402
from workloads import requested_points  # noqa: E402


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS this process loaded, or None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


REF_PERIOD_S = 0.2
REF_WARMUP = 5
REF_WINDOW_S = 0.5      # a request's speed: samples from this long before it to after it


def reference_loop() -> int:
    """Fixed pure-Python work whose time samples the host's speed."""
    s = 0
    for i in range(30_000):
        s += i * i % 7
    return s


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Speedometer:
    """Times `reference_loop` every REF_PERIOD_S seconds of wall time from a
    SIGALRM handler, so samples cover the whole batch, long requests included
    (a handler runs between bytecodes, after any running C call returns).

    On a shared host the speed of a core drifts by a third within minutes,
    and the time of a batch tracks this loop's time (correlation 0.76-0.91
    over 4-5 s windows of identical requests).  `ticks` holds (start,
    seconds) of every sample, so that a request's time can leave them out."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []

    def _tick(self, signum=None, frame=None):
        self.ticks.append((time.perf_counter(), _timed(reference_loop)))

    def spent(self, t0: float, t1: float) -> float:
        """Seconds of samples taken within [t0, t1]."""
        return sum(dt for start, dt in self.ticks if t0 <= start < t1)

    def local(self, t0: float, t1: float) -> float:
        """Median sample time around [t0, t1]: the host's speed while it ran."""
        near = [dt for start, dt in self.ticks
                if t0 - REF_WINDOW_S <= start < t1 + REF_WINDOW_S]
        return statistics.median(near or [dt for _, dt in self.ticks])

    def __enter__(self):
        for _ in range(REF_WARMUP):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = floorsums.cli.main(argv)
        except SystemExit as exc:   # argparse rejects an argv with exit(2)
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": buf.getvalue()}


def _prepare(req: dict, run_dir: Path):
    """The request's call, with its inputs built, and its output record."""
    if req["op"] == "convolve":
        L = req["limit"]
        f = arith.build_sieve(arith.kind_from_name(req["f"]), 1, L)
        g = arith.build_sieve(arith.kind_from_name(req["g"]), 1, L)
        return (lambda: arith.dirichlet_convolve(f, g, L)), {}
    argv = [str(run_dir / f"scan-{req['id']}.csv") if a == "@OUT" else a for a in req["argv"]]
    out = {"out": argv[argv.index("--out") + 1]} if "--out" in argv else {}
    return (lambda: _cli(argv)), out


def run_batch(requests, run_dir: Path, tracer=None, meter=None) -> list[dict]:
    """Execute the batch in order; one result dict per request.  Only the
    call into floorsums is timed (and traced); samples of `meter` taken
    during a call are left out of its time."""
    results = []
    for req in requests:
        call, out = _prepare(req, run_dir)
        if tracer:
            tracer.request = req["id"]
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            value = call()
        except Exception as exc:
            value = exc
        t1 = time.perf_counter()
        dt = t1 - t0 - (meter.spent(t0, t1) if meter else 0.0)
        if tracer:
            tracer.enabled = False
        if isinstance(value, Exception):
            out.update(rc=1, exception=f"{type(value).__name__}: {value}")
        elif req["op"] == "convolve":
            path = run_dir / f"conv-{req['id']}.npy"
            np.save(path, value.values)
            out.update(rc=0, values=str(path))
        else:
            out.update(value)
        out.update(id=req["id"], seconds=dt, points=len(requested_points(req)), span=(t0, t1))
        results.append(out)
    return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--batch")
    ap.add_argument("--results")
    ap.add_argument("--spans")
    args = ap.parse_args()
    arith.primes_upto(10**4)
    print("ready", flush=True)
    if args.setup_only:
        # the host's speed just after set-up, which run.py scales it by
        print(statistics.median(_timed(reference_loop) for _ in range(REF_WARMUP)))
        return 0
    requests = json.loads(Path(args.batch).read_text())
    run_dir = Path(args.results).parent
    if args.spans:
        from tracer import Tracer
        tracer = Tracer.install(floorsums)
        results = run_batch(requests, run_dir, tracer)
        samples = []
    else:
        tracer = None
        with Speedometer() as meter:
            results = run_batch(requests, run_dir, meter=meter)
        for r in results:
            r["reference_s"] = meter.local(*r["span"])
        samples = [dt for _, dt in meter.ticks]
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    payload = {"results": results, "peak_rss_mb": peak_mib,
               "blas_threads": blas_threads(), "reference_s": samples}
    if tracer:
        tracer.dump(args.spans)
        payload["layers"] = tracer.summary()
        payload["fsf_calls"] = {str(k): v for k, v in tracer.fsf_calls.items()}
    Path(args.results).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
