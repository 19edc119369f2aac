"""Spans, pass logs and summary statistics for the benchmark.

Spans are recorded from outside the package, around each call the benchmark
makes into a public function.  They are kept in memory and written once, when
the run ends.  With tracing off a span costs one attribute test.
"""

from __future__ import annotations

import random
import statistics
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager

# reference_loop's duration that defines reference speed: about its median on
# the host the baseline was measured on
REF_S = 0.007


def reference_loop() -> int:
    """Fixed pure-Python work that shares no code with the package: random
    graph building on sets, sorting, set intersection and integer arithmetic,
    the same kinds of operations as the package's hot loops."""
    rng = random.Random(1)
    adj: list[set[int]] = [set() for _ in range(400)]
    for _ in range(3000):
        u, v = rng.randrange(400), rng.randrange(400)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    acc = 0
    for u in range(400):
        for v in sorted(adj[u]):
            acc += len(adj[u] & adj[v]) ^ (u * v & 0xFF)
    return acc


class HostSpeed:
    """Durations of reference_loop, sampled between instances at most every
    `interval` seconds.

    The host this runs on is shared, and for minutes at a time it runs all
    Python code up to 1.7x slower.  The reference slows with the package, so
    a time multiplied by the scale of the samples taken around it reads the
    same on a slow and a fast host, in seconds at the speed where the
    reference takes REF_S.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def scale(self, first: int = 0) -> float:
        """REF_S over the median of samples[first:], or of all samples when
        none were taken since `first`."""
        return REF_S / statistics.median(self.samples[first:] or self.samples)


class Tracer:
    """In-memory spans: [name, start, end, parent index, instance id]."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, instance: str | None = None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if instance is None and parent is not None:
            instance = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, instance])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named after the layer it belongs to."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self, first: int) -> dict[str, float]:
        """Self time summed by span name over spans[first:]: each span's
        duration minus the part its child spans cover."""
        own: dict[int, float] = {}
        for i in range(first, len(self.spans)):
            _, start, end, parent, _ = self.spans[i]
            own[i] = own.get(i, 0.0) + (end - start)
            if parent is not None and parent >= first:
                own[parent] = own.get(parent, 0.0) - (end - start)
        out: dict[str, float] = defaultdict(float)
        for i, t in own.items():
            out[self.spans[i][0]] += t
        return out


class PassLog:
    """What one pass over a workload did and whether its outputs were right.

    Every checked operation counts once in `attempted`; one that raised or
    failed its check counts in `failed` too.
    """

    def __init__(self, tracer: Tracer, host: HostSpeed) -> None:
        self.tracer = tracer
        self.host = host
        self.first_sample = len(host.samples)
        self.scale = 1.0  # host-speed scale of this pass, set when it ends
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: Counter = Counter()
        self.instance_s: dict[str, float] = {}
        self.units = 0  # vertices or graphs taken to a checked answer
        self.pages = 0  # pages of the answers, summed
        self.answers = 0
        self.decided = 0  # answers that are complete and verified

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    @contextmanager
    def instance(self, name: str):
        """Time one instance end to end; an exception inside counts as one
        failed operation and does not stop the pass.  The host's speed is
        sampled before the clock starts."""
        self.host.maybe_sample()
        start = time.perf_counter()
        try:
            with self.tracer.span("instance", instance=name):
                yield
        except Exception:  # a crash in the package is a failed operation
            self.check(False, f"{name}: raised\n{traceback.format_exc()}")
        self.instance_s[name] = self.instance_s.get(name, 0.0) + time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pass_seconds(logs: list[PassLog]) -> float:
    """Median pass time at reference speed, taken instance by instance: the
    sum over instances of each instance's median scaled time across passes."""
    names = logs[0].instance_s.keys()
    return sum(statistics.median(log.instance_s[n] * log.scale for log in logs) for n in names)
