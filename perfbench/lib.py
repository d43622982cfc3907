"""Helpers of the benchmark: percentiles, capacity search, request
schedules, the process hygiene every run ends with, and the report a
workload fills in.

Nothing here imports ``repro``; the tests in ``perfbench/tests`` exercise
these helpers without building a graph.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Environment variable that marks every process a run starts.  The
#: leak sweep finds leftovers by this mark, so a process that outlived
#: its parent (reparented to init) is still found.
RUN_MARK = "PERFBENCH_RUN"

#: Percentile levels a tail may use, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples a tail percentile must have beyond it.
TAIL_BEYOND = 10

#: ``BENCHMARK.json``: the workloads and the metrics with their units.
SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def benchmark_spec() -> dict:
    """The parsed ``BENCHMARK.json``; the one list of workloads and metrics."""
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------

def nearest_rank(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * n - 1e-9))
    return float(sorted_values[min(rank, n) - 1])


def tail_level(n: int) -> float:
    """The highest level in :data:`TAIL_LEVELS` with >= 10 samples beyond.

    Beyond the nearest-rank percentile at level ``q`` lie
    ``n - ceil(q·n)`` samples.  With fewer than 20 samples no level
    qualifies and the tail is the maximum (level 100).
    """
    for level in TAIL_LEVELS:
        if n - math.ceil(level / 100.0 * n - 1e-9) >= TAIL_BEYOND:
            return level
    return 100.0


def latency_summary(values) -> dict:
    """``{"count", "p50", "tail", "tail_pct"}`` of raw samples."""
    ordered = sorted(values)
    level = tail_level(len(ordered))
    return {
        "count": len(ordered),
        "p50": nearest_rank(ordered, 50.0),
        "tail": nearest_rank(ordered, level),
        "tail_pct": level,
    }


def median(values) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# capacity search
# ----------------------------------------------------------------------

@dataclass
class CapacityResult:
    capacity: float
    steps: list  # (rate, passed) in probe order


def capacity_search(probe, low: float, high: float, resolution: float,
                    max_steps: int = 12) -> CapacityResult:
    """The highest rate for which ``probe(rate)`` holds, to ``resolution``.

    ``probe`` is assumed monotone (passes below capacity, fails above).
    ``low`` should pass and ``high`` fail; the bracket is widened by
    halving or doubling when they do not.  Bisection is geometric and
    stops once ``high / low <= 1 + resolution``, so the answer is within
    ``resolution`` (relative) below the true capacity.  Returns 0 when
    even the smallest rate tried fails.
    """
    if not 0 < low < high:
        raise ValueError(f"need 0 < low < high, got {low}, {high}")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    steps: list = []

    def run(rate: float) -> bool:
        ok = bool(probe(rate))
        steps.append((rate, ok))
        return ok

    while not run(low):
        high, low = low, low / 2.0
        if len(steps) >= max_steps:
            return CapacityResult(0.0, steps)
    while run(high):
        low, high = high, high * 2.0
        if len(steps) >= max_steps:
            return CapacityResult(low, steps)
    while high / low > 1.0 + resolution and len(steps) < max_steps:
        mid = math.sqrt(low * high)
        if run(mid):
            low = mid
        else:
            high = mid
    return CapacityResult(low, steps)


# ----------------------------------------------------------------------
# request schedules
# ----------------------------------------------------------------------

#: The serving op mix (the same fractions as ``benchmarks/workload.py``).
OP_MIX = {
    "reliability": 0.30,
    "degree": 0.25,
    "khop": 0.15,
    "distance": 0.15,
    "knn": 0.15,
}


def zipf_ranks(rng: np.random.Generator, count: int, size: int,
               theta: float = 0.99) -> np.ndarray:
    """``size`` ranks in ``[0, count)`` with P(r) proportional to 1/(r+1)^θ."""
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** theta
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"),
                      count - 1)


def make_request(op: str, source: int, target: int) -> dict:
    request = {"op": op, "source": int(source)}
    if op in ("reliability", "distance"):
        request["target"] = int(target)
    elif op == "khop":
        request["hops"] = 2
    elif op == "knn":
        request["k"] = 10
    return request


def popular_pairs(seed, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` (source, target) pairs with distinct sources, from ``seed``."""
    rng = np.random.default_rng(seed)
    sources = rng.choice(n, size=count, replace=False)
    targets = (sources + 1 + rng.integers(0, n - 1, size=count)) % n
    return sources, targets


def build_schedule(seed, rate: float, duration_s: float,
                   sources: np.ndarray, targets: np.ndarray) -> list:
    """The open-loop schedule ``[(due_s, request), ...]`` of one step.

    Request ``i`` is due at ``i / rate``.  Pairs are drawn zipfian over
    the given (source, target) table in table order, ops from
    :data:`OP_MIX`; everything comes from one generator seeded by
    ``seed``, so a seed names exactly one schedule.
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    count = max(1, int(round(rate * duration_s)))
    ranks = zipf_ranks(rng, len(sources), count)
    ops = list(OP_MIX)
    probs = np.array([OP_MIX[op] for op in ops])
    op_draws = rng.choice(len(ops), size=count, p=probs / probs.sum())
    return [
        (i / rate, make_request(ops[int(o)], sources[int(r)], targets[int(r)]))
        for i, (r, o) in enumerate(zip(ranks, op_draws))
    ]


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------

def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs (the ``steal`` column of ``/proc/stat``), in seconds."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def marked_pids(mark: str, exclude=()) -> list[int]:
    """Live processes whose environment carries ``RUN_MARK=mark``."""
    needle = f"{RUN_MARK}={mark}".encode() + b"\0"
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) in exclude:
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                env = fh.read() + b"\0"
            with open(f"/proc/{entry}/stat", "rb") as fh:
                state = fh.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue
        if state != b"Z" and (b"\0" + needle) in (b"\0" + env):
            found.append(int(entry))
    return found


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid``, zombies included.

    The interpreter's shared-memory resource tracker is skipped: it
    exits together with its parent, which the supervisor's sweep checks.
    """
    ignore = b"multiprocessing.resource_tracker"
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        if int(fields[1]) == pid and ignore not in cmdline:
            found.append(int(entry))
    return found


def listening_ports() -> set[int]:
    """TCP ports in LISTEN state (IPv4 and IPv6) in this network namespace."""
    ports = set()
    for path in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(path) as fh:
                next(fh)
                for line in fh:
                    fields = line.split()
                    if fields[3] == "0A":
                        ports.add(int(fields[1].rsplit(":", 1)[1], 16))
        except OSError:
            continue
    return ports


def shm_segments(prefix: str = "repro-") -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(prefix)}
    except OSError:
        return set()


def kill_pids(pids) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def stop_session(proc: subprocess.Popen, grace_s: float = 5.0) -> None:
    """SIGTERM, bounded wait, SIGKILL the whole session, then ``wait()``.

    ``proc`` must have been started with ``start_new_session=True`` so
    its process group id equals its pid.  Safe to call twice.
    """
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def wait_for_line(path, needle: str, proc: subprocess.Popen,
                  timeout_s: float) -> str:
    """Poll a log file until a line containing ``needle`` appears.

    Raises ``RuntimeError`` if the process exits first or the bounded
    wait runs out.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            with open(path) as fh:
                for line in fh:
                    if needle in line:
                        return line.strip()
        except FileNotFoundError:
            pass
        if proc.poll() is not None:
            raise RuntimeError(f"process exited ({proc.returncode}) before {needle!r}")
        if time.monotonic() > deadline:
            raise RuntimeError(f"no {needle!r} within {timeout_s:g}s")
        time.sleep(0.02)


# ----------------------------------------------------------------------
# reports and resources
# ----------------------------------------------------------------------

def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class Report:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    layers: dict = field(default_factory=dict)  # name -> (value, unit)
    checks: list = field(default_factory=list)  # (name, ok, detail)
    attempted: int = 0
    failed: int = 0

    def metric(self, name, value, unit, note=""):
        self.metrics[name] = (float(value), unit)
        print(f"  {name:<18} {value:12.6g} {unit:<5} {note}", flush=True)

    def layer(self, name, value, unit):
        self.layers[name] = (float(value), unit)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))
        print(f"  check {name}: {'ok' if ok else 'FAILED'} {detail}", flush=True)


class Resources:
    """Everything a workload starts; :meth:`close` runs on every exit path."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self._closers: list = []

    def add(self, closer):
        self._closers.append(closer)
        return closer

    def close(self):
        while self._closers:
            closer = self._closers.pop()
            try:
                closer()
            except Exception as exc:  # teardown keeps going
                print(f"teardown error: {exc!r}", file=sys.stderr)
