"""Span tracing of the floorsums public API, installed from outside the package.

`Tracer.install` replaces every public function of the traced modules with a
recording wrapper, in the defining module and in every floorsums module that
imported it by name (``floorsum.eval_point`` is the same function as
``arith.eval_point``, and ``floor_sum_fast`` looks it up in ``floorsum``).
A span records its function, start, end, parent span, request id and whether
it raised.  Spans live in flat arrays until `dump` writes them out; counts
(table entries, yielded segments, enumerated pairs, ...) are taken from the
call arguments and results at the same boundaries.  Nothing under ``src/``
changes, and a disabled tracer costs one attribute test per call.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("arith", "floorsum", "psi", "identities", "expsum", "pairs", "cli")

_ERROR = 1
_NESTED = 2     # a span of the same function is already open


class Tracer:
    def __init__(self):
        self.enabled = False
        self.request = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")
        self._stack = [-1]
        self._open: list[int] = []          # open spans per function id
        self.calls: list[int] = []          # invocations per function id
        self.counts: dict[str, float] = defaultdict(float)
        self.fsf_calls: dict[int, int] = defaultdict(int)   # floor_sum_fast calls per request

    # -- span recording ----------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
            self.calls.append(0)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.req.append(self.request)
        self.flags.append(_NESTED if self._open[nid] else 0)
        self.end.append(0.0)
        self._open[nid] += 1
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def exit(self, sid: int, nid: int, error: bool = False) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._open[nid] -= 1
        if error:
            self.flags[sid] |= _ERROR

    def is_open(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self._open[nid] > 0

    # -- installation ------------------------------------------------------

    @classmethod
    def install(cls, package) -> "Tracer":
        """Wrap the public functions of `package`'s traced modules in place."""
        tr = cls()
        modules = [getattr(package, m) for m in TRACED_MODULES]
        namespaces = [package] + modules
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapped = tr._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    if getattr(ns, attr, None) is fn:
                        setattr(ns, attr, wrapped)
        return tr

    def _wrap(self, name: str, fn):
        nid = self.intern(name)
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if name in _ARG_HOOKS else None
        tr = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tr.enabled:
                    yield from fn(*args, **kwargs)
                    return
                tr.calls[nid] += 1
                gen = fn(*args, **kwargs)
                while True:
                    sid = tr.enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tr.exit(sid, nid)
                        return
                    except BaseException:
                        tr.exit(sid, nid, error=True)
                        raise
                    tr.exit(sid, nid)
                    hook(tr, None, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            tr.calls[nid] += 1
            sid = tr.enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.exit(sid, nid, error=True)
                raise
            tr.exit(sid, nid)
            if hook:
                hook(tr, sig.bind(*args, **kwargs).arguments if sig else None, result)
            return result
        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span, compressed, with the function-name table."""
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)),
            function=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.req, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            flags=np.frombuffer(self.flags, dtype=np.int8))

    def summary(self) -> dict[str, float]:
        """Per function: calls, errors, inclusive busy time s, self time
        self_s; plus every count the hooks took."""
        fn = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        flags = np.frombuffer(self.flags, dtype=np.int8)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        outer = (flags & _NESTED) == 0
        incl = np.bincount(fn[outer], weights=dur[outer], minlength=k)
        excl = np.bincount(fn, weights=self_t, minlength=k)
        errs = np.bincount(fn[(flags & _ERROR) != 0], minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(self.calls[i])
            out[f"{name}.errors"] = float(errs[i])
            out[f"{name}.s"] = float(incl[i])
            out[f"{name}.self_s"] = float(excl[i])
        out.update(self.counts)
        return out


# -- count hooks: (tracer, bound arguments or None, result or yielded item) --

def _sieve_entries(tr, a, _res):
    tr.counts["arith.build_sieve.entries"] += a["hi"] - a["lo"] + 1


def _segment(tr, _a, item):
    n = len(item[1])
    tr.counts["arith.iter_segment_values.segments"] += 1
    tr.counts["arith.iter_segment_values.entries"] += n
    if tr.is_open("floorsum.floor_sum_fast"):
        tr.counts["floorsum.floor_sum_fast.block_entries"] += n


def _point(tr, _a, _res):
    if tr.is_open("floorsum.floor_sum_fast"):
        tr.counts["floorsum.floor_sum_fast.point_evals"] += 1


def _convolve(tr, a, _res):
    tr.counts["arith.dirichlet_convolve.entries"] += a["limit"]


def _fast(tr, _a, _res):
    tr.fsf_calls[tr.request] += 1


def _constant(tr, a, _res):
    tr.counts["floorsum.main_term_constant.entries"] += a["cutoff"]


def _trials(tr, a, _res):
    tr.counts["identities.run_verification.trials"] += a["trials"]


def _pairs(tr, _a, res):
    tr.counts["pairs.enumerate_pairs.pairs"] += len(res)


# hooks that read the call's arguments (binding them costs a few microseconds)
_ARG_HOOKS = {"arith.build_sieve", "arith.dirichlet_convolve",
              "floorsum.main_term_constant", "identities.run_verification"}

_HOOKS = {
    "arith.build_sieve": _sieve_entries,
    "arith.iter_segment_values": _segment,
    "arith.eval_point": _point,
    "arith.dirichlet_convolve": _convolve,
    "floorsum.floor_sum_fast": _fast,
    "floorsum.main_term_constant": _constant,
    "identities.run_verification": _trials,
    "pairs.enumerate_pairs": _pairs,
}
