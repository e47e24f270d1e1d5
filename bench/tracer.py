"""Span tracer for the benchmark's traced run.

The tracer wraps public library functions at every place their callers
look them up (module globals and class attributes), records one span per
call, and folds the spans into per-name totals as they close: call
count, total time and self time.  Self time is a span's duration minus
the durations of its direct child spans.  Generator functions get one
span per resumption, so the time a lazy search spends between yields is
counted where it runs, not when the generator is created.

Spans are aggregated in memory and never written out one by one; the
benchmark reads the totals once the traced pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from typing import Callable


class Stat:
    """Totals for one span name; times in clock ticks (nanoseconds)."""

    __slots__ = ("calls", "resumes", "total", "self")

    def __init__(self):
        self.calls = 0
        self.resumes = 0
        self.total = 0
        self.self = 0


class Tracer:
    """Aggregates nested spans on one thread.

    ``split(args, kwargs)`` may return a sub-name for a call; the span is
    then also counted under ``<name>.<sub>``, which is how size buckets
    and cold/warm splits are kept.  ``after(args, result)`` runs after a
    successful call, outside the span, for counts read off the result.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[int]] = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def add_count(self, name: str, n: int):
        self.counts[name] = self.counts.get(name, 0) + n

    def _close(self, frame: list[int], t0: int, stats: tuple[Stat, ...]):
        dur = self.clock() - t0
        self._stack.pop()
        own = dur - frame[0]
        for st in stats:
            st.total += dur
            st.self += own
        if self._stack:
            self._stack[-1][0] += dur

    def wrap(self, name: str, fn: Callable, split=None, after=None) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        base = self.stat(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = (base,)
            if split is not None:
                sub = split(args, kwargs)
                if sub is not None:
                    stats = (base, self.stat(f"{name}.{sub}"))
            for st in stats:
                st.calls += 1
            frame = [0]
            self._stack.append(frame)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, t0, stats)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        st = self.stat(name)
        stats = (st,)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st.calls += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    st.resumes += 1
                    frame = [0]
                    self._stack.append(frame)
                    t0 = self.clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame, t0, stats)
                    yield item
            finally:
                it.close()

        return traced


class Patcher:
    """Installs wrappers where callers look names up, and undoes it.

    A module-level function is replaced in every loaded module of the
    package that binds the same object, so ``distance_oracle``'s own
    ``minimize_convex_pl`` binding is traced as well as the defining one.
    A method is replaced in its class dict.
    """

    def __init__(self, package: str):
        self.package = package
        self.saved: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def resolve(self, module: str, qualname: str) -> tuple[object, list[tuple[object, str]]]:
        """(original object, bindings that hold it)."""
        mod = sys.modules[f"{self.package}.{module}"]
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            return owner.__dict__[attr], [(owner, attr)]
        orig = getattr(mod, attr)
        bindings = [(m, key) for m in self._modules()
                    for key, val in vars(m).items() if val is orig]
        return orig, bindings

    def patch(self, module: str, qualname: str, make: Callable[[Callable], Callable]):
        orig, bindings = self.resolve(module, qualname)
        wrapped = make(orig)
        for owner, attr in bindings:
            self.saved.append((owner, attr, orig))
            setattr(owner, attr, wrapped)

    def restore(self) -> list[str]:
        """Put every original back; returns the bindings that still differ."""
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        bad = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, orig in self.saved
               if vars(owner).get(attr) is not orig]
        self.saved.clear()
        return bad


# -- self-test --------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def selftest() -> list[str]:
    """Checks the tracer's arithmetic and the patcher's restore on
    synthetic code; returns the failures (empty when all hold)."""
    problems = []
    clock = _FakeClock()
    tr = Tracer(clock)

    def leaf(k):
        clock.now += k

    def mid():
        clock.now += 3
        leaf(5)
        clock.now += 1
        leaf(7)

    def gen():
        clock.now += 2
        yield 1
        clock.now += 4
        leaf(6)
        yield 2
        clock.now += 8

    leaf = tr.wrap("leaf", leaf)
    mid = tr.wrap("mid", mid)
    gen = tr.wrap("gen", gen)
    mid()
    for _ in gen():
        clock.now += 100   # consumer time between resumptions is not the generator's
    s = tr.stats
    expect = {
        "leaf": (3, 18, 18),
        "mid": (1, 16, 4),
        "gen": (1, 20, 14),
    }
    for name, (calls, total, own) in expect.items():
        got = (s[name].calls, s[name].total, s[name].self)
        if got != (calls, total, own):
            problems.append(f"{name}: (calls, total, self) = {got}, expected {(calls, total, own)}")
    if s["gen"].resumes != 3:
        problems.append(f"gen: {s['gen'].resumes} resumptions, expected 3")

    # a generator abandoned early is closed; the resumptions it ran still sum
    tr2 = Tracer(clock)
    for _ in tr2.wrap("g", _two_steps)(clock):
        break
    if (tr2.stats["g"].total, tr2.stats["g"].resumes) != (5, 1):
        problems.append("abandoned generator: wrong resumption totals")

    # patching reaches every binding, and restore puts back the same objects
    class Probe:
        def method(self):
            return 1

    def free():
        return 2

    pkg = types.ModuleType("_tracer_probe")
    home = types.ModuleType("_tracer_probe.home")
    user = types.ModuleType("_tracer_probe.user")
    home.Probe = Probe
    home.free = user.free = free
    orig_method = Probe.__dict__["method"]
    names = ("_tracer_probe", "_tracer_probe.home", "_tracer_probe.user")
    sys.modules.update(zip(names, (pkg, home, user)))
    try:
        p = Patcher("_tracer_probe")
        p.patch("home", "free", lambda f: tr.wrap("free", f))
        p.patch("home", "Probe.method", lambda f: tr.wrap("method", f))
        if Probe.__dict__["method"] is orig_method or home.free is free \
                or user.free is free:
            problems.append("patch missed a binding")
        if p.restore() or Probe.__dict__["method"] is not orig_method \
                or home.free is not free or user.free is not free:
            problems.append("restore did not put back the original objects")
    finally:
        for name in names:
            del sys.modules[name]
    return problems


def _two_steps(clock):
    clock.now += 5
    yield 1
    clock.now += 1000
    yield 2


if __name__ == "__main__":
    failures = selftest()
    for line in failures:
        print(line)
    print("tracer self-test:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)
