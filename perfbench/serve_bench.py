"""The serving workload: ``python -m repro serve`` driven open loop over TCP.

``serve_hot`` asks only for a small popular-pair set that is warmed
before the clock, so every timed request is a ``degree`` lookup or an
answer-cache hit and the server stack (protocol, admission queue,
window, write) is what gets measured.  The engine's BFS and world
layers are timed in the traced run (``uncertain.bfs_s``, distance-cache
ratios of the library replay).

The run is a series of rounds, each a low-rate and a mid-rate step.
Rounds are identical measurements spread across the run, and host
interference only adds latency, so each figure is that of the best
round (as the batch workloads report their best repeat).  A step
sends a fixed-rate schedule (open loop) on two connections; latency is
taken from each request's due time.  The high-rate step and the
capacity search run in the traced run only.  A request answered with
an error (``overloaded``, ``deadline exceeded``, anything else), never
answered, or lost with its connection counts as failed and as missing
the limit.
"""

from __future__ import annotations

import asyncio
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from lib import (
    Report,
    Resources,
    build_schedule,
    capacity_search,
    latency_summary,
    make_request,
    median,
    nearest_rank,
    peak_rss_mib,
    popular_pairs,
    stop_session,
    wait_for_line,
)
from table_bench import SEARCH

from repro.core.search import obfuscate_with_fallback
from repro.experiments.config import scaled_eps
from repro.graphs.datasets import paper_scale_dataset
from repro.obs.metrics import REGISTRY, reset_metrics
from repro.obs.trace import disable_tracing, enable_tracing
from repro.serve.engine import QueryEngine
from repro.serve.protocol import Query
from repro.uncertain import (
    distance_distribution,
    k_hop_reachable_size,
    k_nearest_neighbors,
    majority_distance,
    median_distance,
    reliability,
)
from repro.uncertain.batch_queries import batch_distance_rows
from repro.uncertain.io import write_uncertain_graph
from repro.worlds.batch import WorldBatch

SERVE_SCALE = 0.02  # n = 4,528
SERVER_WORLDS = 64  # the server's default
CONNECTIONS = 2
#: A step keeps pace when completions in its second half reach this
#: share of the sends due in that half.
PACE_FLOOR = 0.9

#: Popular (source, target) pairs; all of them fit the engine caches.
POPULAR = 8
#: Latency limit on the tail, ms; also each request's ``timeout_ms``.
LIMIT_MS = 50.0
#: How far behind schedule (send lag at TAIL_PCT, ms) a step may run.
LAG_LIMIT_MS = 5.0
#: The low, mid and high rates, requests per second: about 1/4, 1/2
#: and 3/4 of the ~10k/s capacity measured on a 2-vCPU machine.
RATES = (1400.0, 2800.0, 4200.0)
#: One round: a low step and a mid step, seconds.  Rounds run until
#: ``--seconds`` have passed, and at least MIN_ROUNDS.
LOW_S, MID_S = 0.5, 1.0
MIN_ROUNDS = 3
#: Seconds per high step and capacity-search step (traced run only).
STEP_S = 1.5
SEARCH_STEP_S = 1.2
#: Capacity-search resolution (relative).
RESOLUTION = 0.04

#: The tail percentile of the serving figures.  On a shared 2-core
#: machine the p99 of one step swings 5-22 ms between steps of the same
#: run, so the figures use p90, which a handful of stalls cannot move;
#: the highest percentile with 10 samples beyond it is printed alongside.
TAIL_PCT = 90.0


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------

class ServerProcess:
    """``python -m repro serve`` in its own session, torn down in order."""

    def __init__(self, release_path, seed, res: Resources, tag: str):
        self.log = res.tmp / f"server-{tag}.log"
        cmd = [sys.executable, "-m", "repro", "serve", "--release", str(release_path),
               "--port", "0", "--seed", str(seed)]
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                         stdin=subprocess.DEVNULL, start_new_session=True)
        res.add(self.stop)
        line = wait_for_line(self.log, "listening on", self.proc, timeout_s=60.0)
        hostport = line.split("listening on", 1)[1].strip()
        self.host, port = hostport.rsplit(":", 1)
        self.port = int(port)
        with open(res.tmp / "ports.txt", "a") as fh:
            fh.write(f"{self.port}\n")

    def stop(self, grace_s: float = 5.0):
        stop_session(self.proc, grace_s)


# ----------------------------------------------------------------------
# open-loop client
# ----------------------------------------------------------------------

@dataclass
class Step:
    rate: float
    latency_ms: np.ndarray  # per request; failed ones at least the limit
    ops: list
    status: list  # "ok" or the failure kind
    lag_ms: np.ndarray
    paced: bool
    samples: list  # (request, result) for the oracle check

    @property
    def failed(self) -> int:
        return sum(s != "ok" for s in self.status)

    def kinds(self) -> dict:
        out: dict = {}
        for s in self.status:
            if s != "ok":
                out[s] = out.get(s, 0) + 1
        return out

    def summary(self) -> dict:
        return latency_summary(self.latency_ms)

    def lag_tail_ms(self) -> float:
        return nearest_rank(np.sort(self.lag_ms), TAIL_PCT)

    def tail_at(self, level: float, op=None) -> float:
        lat = self.latency_ms if op is None else self.latency_ms[
            [i for i, o in enumerate(self.ops) if o == op]]
        return nearest_rank(np.sort(lat), level)

    def valid(self) -> bool:
        """The generator kept to its schedule."""
        return self.lag_tail_ms() <= LAG_LIMIT_MS

    def passes(self) -> bool:
        """Meets the limit at :data:`TAIL_PCT`, with no failures, no
        growing backlog, and the generator on schedule."""
        return (self.failed == 0 and self.paced and self.valid()
                and self.tail_at(TAIL_PCT) <= LIMIT_MS)


def _failure_kind(error: str) -> str:
    if error.startswith("overloaded"):
        return "shed"
    if error.startswith("deadline"):
        return "deadline"
    return "error"


async def _drive(host, port, schedule, keep_samples):
    loop = asyncio.get_running_loop()
    count = len(schedule)
    sent = np.zeros(count)
    done = np.full(count, np.nan)
    status = [None] * count
    samples = []
    wanted = {i for i in range(count) if keep_samples and i % 37 == 5}
    pending = [count]
    t0 = loop.time() + 0.05

    async def reader(stream_reader):
        while True:
            line = await stream_reader.readline()
            if not line:
                return
            obj = json.loads(line)
            i = obj.get("id")
            if not isinstance(i, int) or not 0 <= i < count or status[i] is not None:
                continue
            done[i] = loop.time()
            status[i] = "ok" if obj.get("ok") else _failure_kind(str(obj.get("error")))
            if i in wanted and obj.get("ok"):
                samples.append((schedule[i][1], obj["result"]))
            pending[0] -= 1

    streams, readers = [], []
    try:
        for _ in range(CONNECTIONS):
            streams.append(await asyncio.wait_for(asyncio.open_connection(host, port), 10.0))
            readers.append(asyncio.ensure_future(reader(streams[-1][0])))
        for i, (due, request) in enumerate(schedule):
            delay = t0 + due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[i] = loop.time()
            writer = streams[i % CONNECTIONS][1]
            writer.write((json.dumps({"id": i, "timeout_ms": int(LIMIT_MS), **request},
                                     separators=(",", ":")) + "\n").encode())
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        for _, writer in streams:
            await writer.drain()
        give_up = t0 + schedule[-1][0] + 2.0 * LIMIT_MS / 1e3 + 1.0
        while pending[0] > 0 and loop.time() < give_up:
            if all(r.done() for r in readers):
                break
            await asyncio.sleep(0.005)
        end = loop.time()
        # Every connection hit EOF: unanswered requests were dropped with
        # it; otherwise the server just never answered them.
        eof = all(r.done() for r in readers)
    finally:
        for _, writer in streams:
            writer.close()
        for r in readers:
            r.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in streams:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    dues = t0 + np.array([d for d, _ in schedule])
    for i in range(count):
        if status[i] is None:
            status[i] = "dropped" if eof else "timeout"
            done[i] = end
    latency = (done - dues) * 1e3
    failed = np.array([s != "ok" for s in status])
    latency[failed] = np.maximum(latency[failed], LIMIT_MS)
    duration = schedule[-1][0]
    half = dues[0] + duration / 2.0
    sends_2nd = int(((dues >= half) & (dues <= dues[-1])).sum())
    done_2nd = int(((done >= half) & (done <= dues[-1]) & ~failed).sum())
    paced = sends_2nd == 0 or done_2nd >= PACE_FLOOR * sends_2nd
    return latency, status, (sent - dues) * 1e3, paced, samples


def run_step(server, schedule, rate, keep_samples=False) -> Step:
    latency, status, lag, paced, samples = asyncio.run(
        _drive(server.host, server.port, schedule, keep_samples))
    asyncio.run(_settle(server.host, server.port))
    return Step(rate, latency, [r["op"] for _, r in schedule], status, lag, paced, samples)


async def _settle(host, port, quiet_ms=20.0, timeout_s=10.0):
    """Wait until a queued ``degree`` request round-trips quickly again,
    so one step's backlog does not leak into the next."""
    loop = asyncio.get_running_loop()
    reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), 10.0)
    deadline = loop.time() + timeout_s
    try:
        while loop.time() < deadline:
            t0 = loop.time()
            writer.write(b'{"id":0,"op":"degree","source":0}\n')
            await writer.drain()
            await asyncio.wait_for(reader.readline(), timeout_s)
            if (loop.time() - t0) * 1e3 < quiet_ms:
                return
            await asyncio.sleep(0.05)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _warm(host, port, requests):
    reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), 10.0)
    try:
        for j, request in enumerate(requests):
            writer.write((json.dumps({"id": j, **request}) + "\n").encode())
        await writer.drain()
        for _ in requests:
            line = await asyncio.wait_for(reader.readline(), 60.0)
            if not line or not json.loads(line).get("ok"):
                raise RuntimeError(f"warm-up request failed: {line!r}")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def _build_release(seed):
    graph = paper_scale_dataset("dblp", scale=SERVE_SCALE, seed=seed)
    eps = scaled_eps(1e-3, "dblp", graph.num_vertices)
    result = obfuscate_with_fallback(graph, 20, eps, seed=np.random.default_rng([seed, 20]),
                                     **SEARCH)
    if not result.success:
        raise RuntimeError("serving release: no (k=20, eps=1e-3) obfuscation found")
    return result.uncertain


def _warm_requests(sources, targets):
    return [make_request(op, s, t) for s, t in zip(sources, targets)
            for op in ("degree", "reliability", "khop", "distance", "knn")]


def serve_hot(args, res: Resources) -> Report:
    rep = Report()
    seed = args.seed
    setups = []
    server = release = None
    for rep_i in range(2):
        t0 = time.perf_counter()
        release = _build_release(seed)
        path = res.tmp / f"serve-{rep_i}.release"
        write_uncertain_graph(release, path)
        if server is not None:
            server.stop()
        server = ServerProcess(path, seed, res, f"{rep_i}")
        n = release.num_vertices
        sources, targets = popular_pairs([seed, 1], n, POPULAR)
        asyncio.run(_warm(server.host, server.port, _warm_requests(sources, targets)))
        setups.append(time.perf_counter() - t0)
    print(f"  release n={release.num_vertices} candidates={release.num_candidate_pairs}; "
          f"server on port {server.port}", flush=True)

    def schedule(tag, rate, seconds):
        return build_schedule([seed, 2, tag, int(rate * 1000)], rate, seconds, sources, targets)

    # Rounds of low and mid step spread across the whole run: a burst of
    # host interference spoils some rounds, not the best one.
    lows, mids = [], []
    clock_end = time.perf_counter() + args.seconds
    while len(mids) < MIN_ROUNDS or time.perf_counter() < clock_end:
        r = len(mids)
        lows.append(run_step(server, schedule(100 + r, RATES[0], LOW_S), RATES[0]))
        _print_step(f"low{r}", lows[-1])
        mids.append(run_step(server, schedule(200 + r, RATES[1], MID_S), RATES[1],
                             keep_samples=not mids))
        _print_step(f"mid{r}", mids[-1])
    steps = {f"low{r}": s for r, s in enumerate(lows)}
    steps.update({f"mid{r}": s for r, s in enumerate(mids)})
    capacity = None
    if args.trace:
        steps["high"] = run_step(server, schedule(1, RATES[2], STEP_S), RATES[2])
        _print_step("high", steps["high"])
        capacity = _capacity(server, schedule, steps)
    server.stop()
    _oracle_check(rep, release, mids[0].samples, seed)
    # The low and mid steps must not fail; the high step and the
    # capacity search may shed by design, so they are reported in the
    # traced run's counts, not here.
    fixed = lows + mids
    rep.attempted = sum(len(s.status) for s in fixed)
    rep.failed = sum(s.failed for s in fixed)

    rounds = len(mids)
    count = len(mids[0].status)
    which = f"best of {rounds} mid steps, n={count} each"
    rep.metric("setup_s", median(setups), "s", "release + server ready + warm-up, median of 2")
    rep.metric("peak_rss_mib", peak_rss_mib(), "MiB", "client and server")
    rep.metric("p50_ms", min(m.tail_at(50.0) for m in mids), "ms",
               f"mid ({RATES[1]:g}/s): p50, {which}")
    rep.metric("tail_ms", min(m.tail_at(TAIL_PCT) for m in mids), "ms",
               f"mid: p{TAIL_PCT:g}, {which}")
    details = {
        "serve.tail_ms_low": min(s.tail_at(TAIL_PCT) for s in lows),
        "serve.light_tail_ms": min(m.tail_at(TAIL_PCT, "degree") for m in mids),
    }
    if args.trace:
        details["serve.tail_ms_high"] = steps["high"].tail_at(TAIL_PCT)
    for key, value in details.items():
        print(f"  {key:<22} {value:10.4f} ms", flush=True)

    if args.trace:
        serve_layers(rep, release, seed, steps, schedule, sources, targets,
                     capacity.capacity, details, MID_S)
    return rep


def _capacity(server, schedule, steps):
    """The highest rate meeting the limit at TAIL_PCT with no failures,
    no growing backlog and the generator on schedule.  Adds its steps to
    ``steps``."""
    def probe(rate):
        if rate == RATES[2]:
            return steps["high"].passes()
        step = run_step(server, schedule(8, rate, SEARCH_STEP_S), rate)
        steps[f"search{len(steps)}"] = step
        _print_step(f"search {rate:.1f}/s", step)
        return step.passes()

    capacity = capacity_search(probe, RATES[2], 4.0 * RATES[2], RESOLUTION, max_steps=9)
    print(f"  capacity {capacity.capacity:.1f}/s, steps "
          f"{[(round(r, 1), ok) for r, ok in capacity.steps]}", flush=True)
    return capacity


def _print_step(label, step: Step):
    s = step.summary()
    print(f"  step {label:<16} rate={step.rate:8.1f}/s n={s['count']:5d} "
          f"p50={s['p50']:8.3f}ms p{TAIL_PCT:g}={step.tail_at(TAIL_PCT):8.3f}ms "
          f"p{s['tail_pct']:g}={s['tail']:8.3f}ms "
          f"degree p{TAIL_PCT:g}={step.tail_at(TAIL_PCT, 'degree'):8.3f}ms "
          f"lag p{TAIL_PCT:g}={step.lag_tail_ms():6.2f}ms paced={step.paced} "
          f"failed={step.failed} {step.kinds() or ''} "
          f"{'' if step.valid() else 'INVALID '}"
          f"{'PASS' if step.passes() else 'miss'}", flush=True)


def _wire(value):
    return "inf" if isinstance(value, float) and math.isinf(value) else value


def _oracle_check(rep, release, samples, seed):
    """Re-derive sampled answers from the sequential query oracle."""
    by_op = {}
    for request, result in samples:
        by_op.setdefault(request["op"], (request, result))
    kw = {"worlds": SERVER_WORLDS, "seed": seed}
    mismatches = []
    for request, result in by_op.values():
        op, s = request["op"], request["source"]
        if op == "degree":
            ok = result["value"] == float(release.expected_degrees()[s])
        elif op == "reliability":
            ok = result["value"] == reliability(release, s, request["target"], **kw)
        elif op == "khop":
            ok = result["value"] == k_hop_reachable_size(release, s, request["hops"], **kw)
        elif op == "knn":
            oracle = k_nearest_neighbors(release, s, request["k"], **kw)
            ok = result["neighbors"] == [[v, sup] for v, sup in oracle]
        else:
            t = request["target"]
            dist = {str(_wire(float(d)) if math.isinf(d) else int(d)): p
                    for d, p in distance_distribution(release, s, t, **kw).items()}
            ok = (result["distribution"] == dist
                  and result["median"] == _wire(median_distance(release, s, t, **kw))
                  and result["majority"] == _wire(majority_distance(release, s, t, **kw)))
        if not ok:
            mismatches.append(request)
    rep.check("served_answers_match_oracle", bool(by_op) and not mismatches,
              f"{len(by_op)} ops re-derived" + (f"; mismatches {mismatches}" if mismatches else ""))


def _replay(engine, schedule):
    """The step's schedule through ``QueryEngine.execute``, coalescing due requests."""
    latency, windows, sizes = [], [], []
    i = 0
    t0 = time.perf_counter()
    while i < len(schedule):
        now = time.perf_counter() - t0
        j = i
        while j < len(schedule) and schedule[j][0] <= now:
            j += 1
        if j == i:
            time.sleep(min(schedule[i][0] - now, 0.001))
            continue
        queries = [Query(**request) for _, request in schedule[i:j]]
        w0 = time.perf_counter()
        engine.execute(queries)
        w1 = time.perf_counter()
        windows.append(w1 - w0)
        sizes.append(j - i)
        latency.extend((w1 - t0 - due) * 1e3 for due, _ in schedule[i:j])
        i = j
    return np.array(latency), np.array(windows), np.array(sizes)


def serve_layers(rep, release, seed, steps, schedule, sources, targets,
                 capacity, details, mid_s):
    for key, value in details.items():
        rep.layer(key, value, "ms")
    mid = steps["mid0"]
    rep.layer("serve.capacity_qps", capacity, "1/s")
    rep.layer("serve.client.shed", sum(s.kinds().get("shed", 0) for s in steps.values()), "count")
    rep.layer("serve.client.deadline",
              sum(s.kinds().get("deadline", 0) for s in steps.values()), "count")
    rep.layer("gen.lag_ms", mid.lag_tail_ms(), "ms")
    rep.layer("gen.invalid_steps", sum(not s.valid() for s in steps.values()), "count")

    t0 = time.perf_counter()
    batch = WorldBatch.sample(release, SERVER_WORLDS, seed=seed)
    rep.layer("worlds.sample_s", time.perf_counter() - t0, "s")
    bfs = []
    for s in sources[-3:]:
        t0 = time.perf_counter()
        batch_distance_rows(batch, int(s))
        bfs.append(time.perf_counter() - t0)
    rep.layer("uncertain.bfs_s", median(bfs), "s")

    mid_schedule = schedule(1, RATES[1], mid_s)
    runs = {}
    for traced in (False, True):
        engine = QueryEngine(release, worlds=SERVER_WORLDS, seed=seed)
        engine.execute([Query(**r) for r in _warm_requests(sources, targets)])
        reset_metrics()
        if traced:
            enable_tracing()
        try:
            runs[traced] = (_replay(engine, mid_schedule), REGISTRY.snapshot())
        finally:
            if traced:
                disable_tracing()
    (latency, windows, sizes), counters = runs[False]
    traced_windows = runs[True][0][1]
    queries = counters.get("serve.queries", 0) or 1
    passes = counters.get("serve.bfs.passes", 0)
    dist_hits = counters.get("serve.cache.dist_hits", 0)
    rep.layer("serve.engine.window_s", median(windows), "s")
    rep.layer("serve.engine.window_size", median(sizes), "count")
    rep.layer("serve.cache.answer_hit_ratio", counters.get("serve.cache.answer_hits", 0) / queries,
              "ratio")
    rep.layer("serve.cache.dist_hit_ratio",
              dist_hits / (dist_hits + passes) if dist_hits + passes else 0.0, "ratio")
    rep.layer("serve.bfs.passes_per_query", passes / queries, "ratio")
    rep.layer("serve.stack_ms", mid.tail_at(50.0) - latency_summary(latency)["p50"], "ms")
    rep.layer("trace.overhead_frac", traced_windows.sum() / windows.sum() - 1.0, "ratio")
