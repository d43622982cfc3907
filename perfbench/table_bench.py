"""The batch workload: Table-2 search, with Table-4 world evaluation in
its traced run.

:func:`table2_search` returns a :class:`~lib.Report`: the end-to-end
metrics, the output checks, the ops attempted and failed, and (traced
runs) the per-layer metrics.  Layers are timed from outside, through
their public functions; the ``repro.obs`` tracer is switched on only for
the traced repetition that measures its own overhead.

``--seed`` picks the graph of the array-versus-sequential engine check
and, in the traced run, the possible worlds; the Table-2 cells
themselves are fixed, see below.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from lib import Report, Resources, median, peak_rss_mib

from repro.core.generate import SearchContext, WeightedVertexSampler, generate_obfuscation
from repro.core.obfuscation_check import tolerance_achieved
from repro.core.posterior_batch import degree_posterior_matrix
from repro.core.search import obfuscate, obfuscate_with_fallback
from repro.core.types import ObfuscationParams
from repro.exec.executor import make_executor
from repro.exec.plan import world_eval_chunk_size
from repro.experiments.config import ExperimentConfig, scaled_eps
from repro.experiments.harness import SweepEntry, evaluate_utility
from repro.graphs.datasets import dblp_like, paper_scale_dataset
from repro.obs.metrics import REGISTRY, reset_metrics
from repro.obs.trace import disable_tracing, enable_tracing, span
from repro.stats.sampling import WorldStatisticsEstimator
from repro.uncertain.io import read_uncertain_graph, write_uncertain_graph
from repro.utils.rng import spawn_seed_sequences
from repro.worlds.anf_batch import anf_distance_statistics_batch, hyperanf_batch
from repro.worlds.batch import WorldBatch
from repro.worlds.estimator import BatchStatisticsEngine
from repro.worlds.stats_batch import degree_statistics_batch, triangle_counts_batch

#: The Table-2 graph: ``paper_scale_dataset("dblp", scale=0.1)``,
#: n = 22,641.  The graph and the cells' search streams are fixed: over
#: other graphs or streams the (k=100, ε=1e-4) cell changes path (c = 2
#: succeeds on some streams, c = 5 or no c succeeds on some graphs), so
#: its time to solution would be bimodal rather than a measurement.
TABLE_SCALE = 0.1
TABLE_DATASET_SEED = 0
#: The harness's sweep seed; cells take its SeedSequence children in the
#: harness's grid order (dblp; k = 20, 60, 100; ε = 1e-3, 1e-4).
HARNESS_SEED = 0
HARNESS_GRID = [(k, e) for k in (20, 60, 100) for e in (1e-3, 1e-4)]
TABLE2_CELLS = ((20, 1e-3), (100, 1e-4))
#: Solve order of an untraced run: the escalation cell five times and
#: the fast cell four times, alternating.  A solve is deterministic
#: (fixed graph and stream), so repeats do identical work and differ
#: only by host interference, which can only add time; the figures use
#: the best solve of each cell.  The escalation cell gets the extra
#: repeat because its larger arrays make it the more sensitive to a
#: busy host (two solves of it in one run differed by up to 20 %).  A
#: slow phase of a shared host that lasts the whole run (they last
#: minutes) still shows.  The traced run solves each cell once.
TABLE2_ORDER = (TABLE2_CELLS[1], TABLE2_CELLS[0]) * 4 + (TABLE2_CELLS[1],)
SEARCH = dict(c_values=(2.0, 3.0, 5.0), q=0.01, attempts=3, delta=1e-3)
#: Table 4 (traced run): worlds evaluated, warm-up worlds, and the
#: prefix re-evaluated serially as a check.
TABLE4_WORLDS = 100
TABLE4_WARM_WORLDS = 4
TABLE4_SERIAL_PREFIX = 10
WORKERS = 2


# ----------------------------------------------------------------------
# table2_search
# ----------------------------------------------------------------------

def table_graph():
    return paper_scale_dataset("dblp", scale=TABLE_SCALE, seed=TABLE_DATASET_SEED)


def harness_stream(k, paper_eps):
    child = spawn_seed_sequences(HARNESS_SEED, len(HARNESS_GRID))[
        HARNESS_GRID.index((k, paper_eps))
    ]
    return np.random.default_rng(child)


def solve_cell(graph, k, paper_eps):
    eps = scaled_eps(paper_eps, "dblp", graph.num_vertices)
    t0 = time.perf_counter()
    result = obfuscate_with_fallback(
        graph, k, eps, seed=harness_stream(k, paper_eps), **SEARCH
    )
    return time.perf_counter() - t0, eps, result


def check_release_on_disk(rep, res, tag, graph, k, eps, result):
    """Definition 2 again, on the release as written and read back."""
    if not result.success:
        rep.check(f"{tag}.solved", False, "search found no obfuscation")
        return 0.0
    path = res.tmp / f"{tag}.release"
    write_uncertain_graph(result.uncertain, path)
    back = read_uncertain_graph(path)
    t0 = time.perf_counter()
    eps_tilde = tolerance_achieved(back, graph.degrees(), k, method="exact")
    verify_s = time.perf_counter() - t0
    rep.check(f"{tag}.definition2", eps_tilde <= eps,
              f"eps~={eps_tilde:.4f} <= {eps:.4f} sigma={result.sigma:.5g} c={result.params.c:g}")
    return verify_s


def check_engines_agree(rep, seed):
    """Array and sequential Algorithm-2 engines: same release, edge for edge."""
    graph = dblp_like(scale=0.1, seed=seed)
    releases = []
    for engine in ("array", "sequential"):
        r = obfuscate(graph, 5, 0.1, seed=seed, attempts=2, delta=0.05, engine=engine)
        releases.append(r.uncertain.pair_arrays() if r.success else None)
    a, s = releases
    same = a is not None and s is not None and all(
        np.array_equal(x, y) for x, y in zip(a, s)
    )
    rep.check("engines.array_eq_sequential", same, f"dblp_like(0.1, seed={seed})")


def table2_search(args, res: Resources) -> Report:
    rep = Report()
    setups = []
    for _ in range(3):
        t0 = time.perf_counter()
        graph = table_graph()
        setups.append(time.perf_counter() - t0)
    solves = {cell: [] for cell in TABLE2_CELLS}
    order = TABLE2_CELLS if args.trace else TABLE2_ORDER
    for k, paper_eps in order:
        elapsed, eps, result = solve_cell(graph, k, paper_eps)
        solves[(k, paper_eps)].append((elapsed, eps, result))
        print(f"  cell k={k} eps={paper_eps:g}: {elapsed:.3f}s sigma={result.sigma:.5g} "
              f"c={result.params.c:g} probes={len(result.trace)}", flush=True)
    outcomes = [(k, e, *solves[(k, e)][0][1:]) for k, e in TABLE2_CELLS]
    times = [min(t for t, _, _ in solves[cell]) for cell in TABLE2_CELLS]
    for (k, paper_eps), tag in zip(TABLE2_CELLS, ("fast", "escalate")):
        first, *again = solves[(k, paper_eps)]
        if not again:
            continue
        rep.check(f"{tag}.deterministic", all(
            r.success and all(np.array_equal(a, b) for a, b in
                              zip(r.uncertain.pair_arrays(), first[2].uncertain.pair_arrays()))
            for _, _, r in again), f"{len(again) + 1} solves, same release")
    verify_s = 0.0
    for (k, paper_eps, eps, result), tag in zip(outcomes, ("fast", "escalate")):
        verify_s += check_release_on_disk(rep, res, tag, graph, k, eps, result)
    check_engines_agree(rep, args.seed)
    rep.attempted = len(order)
    rep.failed = sum(not r.success for runs in solves.values() for _, _, r in runs)

    fast, escalate = (len(solves[cell]) for cell in TABLE2_CELLS)
    rep.metric("setup_s", median(setups), "s", "dataset regenerated, median of 3")
    rep.metric("peak_rss_mib", peak_rss_mib(), "MiB")
    rep.metric("p50_ms", times[0] * 1e3, "ms",
               f"fast cell (k=20, eps=1e-3) time to solution, best of {fast}")
    rep.metric("tail_ms", times[1] * 1e3, "ms",
               f"escalation cell (k=100, eps=1e-4) time to solution, best of {escalate}")

    if args.trace:
        table2_layers(rep, graph, times, outcomes, verify_s)
        if outcomes[0][3].success:
            worlds_layers(rep, res, graph, outcomes[0], args.seed)
    return rep


def table2_layers(rep, graph, untraced_times, outcomes, verify_s):
    reset_metrics()
    tracer = enable_tracing()
    traced = []
    try:
        for k, paper_eps in TABLE2_CELLS:
            with span("perfbench.cell", k=k, eps=paper_eps):
                traced.append(solve_cell(graph, k, paper_eps)[0])
        records = tracer.span_tree()
    finally:
        disable_tracing()
    counters = REGISTRY.snapshot()
    rep.layer("table2.fast_s", untraced_times[0], "s")
    rep.layer("table2.escalate_s", untraced_times[1], "s")
    rep.layer("trace.overhead_frac", sum(traced) / sum(untraced_times) - 1.0, "ratio")

    ladders = _ladders(records)
    m = graph.num_edges
    context_s = setup_s = generate_s = sampler_s = posterior_s = 0.0
    probes = 0
    candidates = 0.0
    replay_ok = True
    for (k, paper_eps, eps, result), cell_ladders in zip(outcomes, ladders):
        rng = harness_stream(k, paper_eps)
        t0 = time.perf_counter()
        ctx = SearchContext.for_params(graph, ObfuscationParams(k=k, eps=eps))
        context_s += time.perf_counter() - t0
        for c, ladder in cell_ladders:
            params = ObfuscationParams(k=k, eps=eps, c=c, q=SEARCH["q"],
                                       attempts=SEARCH["attempts"], delta=SEARCH["delta"])
            for sigma, eps_recorded, attempts in ladder:
                t0 = time.perf_counter()
                ctx.sigma_setup(sigma)
                setup_s += time.perf_counter() - t0
                t0 = time.perf_counter()
                outcome = generate_obfuscation(graph, sigma, params, seed=rng, context=ctx)
                generate_s += time.perf_counter() - t0
                replay_ok &= outcome.eps_achieved == eps_recorded
                probes += 1
                candidates += attempts * (c - 1.0) * m
        final = ctx.sigma_setup(result.sigma)
        sampler = WeightedVertexSampler(final.q_probs)
        t0 = time.perf_counter()
        sampler.sample(np.random.default_rng(0), int(round(result.params.c * m)))
        sampler_s += time.perf_counter() - t0
        indptr, data = result.uncertain.incident_probability_csr()
        t0 = time.perf_counter()
        degree_posterior_matrix(indptr, data, width=int(graph.degrees().max()) + 2)
        posterior_s += time.perf_counter() - t0
    rep.check("replay.reproduces_eps", replay_ok, f"{probes} probes replayed")
    rep.layer("core.context_s", context_s, "s")
    rep.layer("core.sigma_setup_s", setup_s, "s")
    rep.layer("core.generate_s", generate_s, "s")
    rep.layer("core.sampler_s", sampler_s, "s")
    rep.layer("core.posterior_s", posterior_s, "s")
    rep.layer("core.verify_s", verify_s, "s")
    rep.layer("core.probes", probes, "count")
    attempts = counters.get("generate.attempts_made", 0)
    rep.layer("core.attempt_pass_ratio",
              counters.get("generate.winners", 0) / attempts if attempts else 0.0, "ratio")
    rep.layer("core.draws_per_candidate",
              counters.get("generate.pairs_drawn", 0) / candidates if candidates else 0.0, "ratio")
    for kernel in ("staircase", "tree", "clt"):
        rep.layer(f"posterior.rows.{kernel}", counters.get(f"posterior.rows.{kernel}", 0), "count")


def _ladders(roots):
    """Per search: ``[(c, [(sigma, eps_achieved, attempts), ...]), ...]``."""
    searches = []

    def walk(node, c):
        if node["name"] == "obfuscate":
            c = node["attrs"]["c"]
            searches[-1].append((c, []))
        if node["name"] == "probe":
            a = node["attrs"]
            searches[-1][-1][1].append((a["sigma"], a["eps_achieved"], a["attempts"]))
        for child in node.get("children", ()):
            walk(child, c)

    for root in roots:
        searches.append([])
        walk(root, None)
    return [s for s in searches if s]


# ----------------------------------------------------------------------
# worlds, anf, stats and exec layers (Table 4), in the traced run
# ----------------------------------------------------------------------

def _paper_stats(config):
    from repro.stats.registry import paper_statistics

    return paper_statistics(distance_backend=config.distance_backend, seed=config.seed)


class TimedExecutor:
    """Executor proxy that times each ``map``."""

    def __init__(self, inner):
        self.inner = inner
        self.backend = inner.backend
        self.workers = inner.workers
        self.maps = []  # (wall_s, task count)

    def map(self, fn, tasks, *, shared=None):
        tasks = list(tasks)
        t0 = time.perf_counter()
        out = self.inner.map(fn, tasks, shared=shared)
        self.maps.append((time.perf_counter() - t0, len(tasks)))
        return out


def worlds_layers(rep, res, graph, outcome, seed):
    """Table 4 on the fast cell's release: 100 worlds and all ten paper
    statistics through ``evaluate_utility`` on WORKERS processes, checked
    against a serial run, then each kernel timed alone."""
    k, paper_eps, eps, result = outcome
    entry = SweepEntry("dblp", k, paper_eps, eps, result, graph)
    config = ExperimentConfig(datasets=("dblp",), worlds=TABLE4_WORLDS, seed=seed)
    inner = make_executor(WORKERS)
    res.add(inner.close)
    executor = TimedExecutor(inner)
    try:
        # Warm the pool: the first evaluation in fresh workers runs ~20 %
        # slower.
        evaluate_utility(entry, replace(config, worlds=TABLE4_WARM_WORLDS), executor=inner)
        retries0 = REGISTRY.get("exec.retries")
        t0 = time.perf_counter()
        summaries = evaluate_utility(entry, config, executor=executor)
        wall = time.perf_counter() - t0
        retries = REGISTRY.get("exec.retries") - retries0
    finally:
        inner.close()
    print(f"  evaluated {TABLE4_WORLDS} worlds in {wall:.3f}s on {WORKERS} workers", flush=True)
    serial = WorldStatisticsEstimator(
        result.uncertain,
        _paper_stats(config),
        backend="batched",
        distance_backend=config.distance_backend,
        distance_seed=config.seed,
    ).run(worlds=TABLE4_SERIAL_PREFIX, seed=(config.seed, entry.k))
    prefix_ok = all(
        np.array_equal(summaries[name].values[:TABLE4_SERIAL_PREFIX], serial[name].values)
        for name in summaries
    )
    rep.check("worlds.sharded_eq_serial_prefix", prefix_ok,
              f"{len(summaries)} statistics, first {TABLE4_SERIAL_PREFIX} worlds")
    rep.check("worlds.statistics_finite",
              all(np.isfinite(v.values).all() for v in summaries.values()),
              f"{TABLE4_WORLDS} worlds")

    map_s, tasks = executor.maps[-1]
    rep.layer("table4.worlds_per_s", TABLE4_WORLDS / wall, "1/s")
    rep.layer("exec.map_s", map_s, "s")
    rep.layer("exec.tasks", tasks, "count")
    rep.layer("exec.retries", retries, "count")
    rep.layer("worlds.eval.chunk_size", TABLE4_WORLDS / tasks, "count")

    release = result.uncertain
    rng = np.random.default_rng([config.seed, entry.k])
    t0 = time.perf_counter()
    batch = WorldBatch.sample(release, TABLE4_WORLDS, seed=rng)
    rep.layer("worlds.sample_s", time.perf_counter() - t0, "s")
    t0 = time.perf_counter()
    batch.union_incidence()
    rep.layer("worlds.union_s", time.perf_counter() - t0, "s")
    # Kernels run on a prefix of the worlds, scaled to 100 (worlds are
    # independent, so cost is linear in their number).
    prefix = 20
    scale = TABLE4_WORLDS / prefix
    sub = batch.slice(0, prefix)
    chunk = world_eval_chunk_size(sub.num_vertices, sub.num_candidate_pairs, anf=True)
    anf_s = tri_s = deg_s = 0.0
    for lo in range(0, prefix, chunk):
        part = sub.slice(lo, min(lo + chunk, prefix))
        t0 = time.perf_counter()
        anf_distance_statistics_batch(part, seed=config.seed)
        anf_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        triangle_counts_batch(part)
        tri_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        degree_statistics_batch(part)
        deg_s += time.perf_counter() - t0
    rep.layer("anf.hyperanf_s", anf_s * scale, "s")
    rep.layer("stats.triangles_s", tri_s * scale, "s")
    rep.layer("stats.degree_s", deg_s * scale, "s")
    nfs = hyperanf_batch(sub.slice(0, 1), seed=config.seed)
    rep.layer("anf.iterations", len(nfs[0].values) - 1, "count")
    engine = BatchStatisticsEngine(_paper_stats(config))
    t0 = time.perf_counter()
    engine.evaluate(sub)
    serial_s = (time.perf_counter() - t0) * scale
    rep.layer("worlds.eval_serial_s", serial_s, "s")
    rep.layer("exec.efficiency", serial_s / (WORKERS * map_s), "ratio")


