"""One benchmark workload in a fresh process; started by ``run.py``.

Writes the run's result (``correct``, ``attempted``, ``failed``,
``metrics``) as JSON to ``--result``.  With ``--trace 0`` the metrics are
the end-to-end ones, with ``--trace 1`` the per-layer ones, both as
``BENCHMARK.json`` lists them; every workload reports every per-layer
metric, and a layer the workload does not exercise reports 0.

``correct`` says whether every output check passed.  Requests the
server shed, timed out or dropped are not wrong output: they count in
``failed`` (and so in the failed fraction), not against ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

from lib import Resources, benchmark_spec, child_pids, host_steal_s


def _workloads():
    from serve_bench import serve_hot
    from table_bench import table2_search

    return {
        "table2_search": table2_search,
        "serve_hot": serve_hot,
    }


def _sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so every ``finally`` tears down.
    signal.signal(signal.SIGTERM, _sigterm)
    res = Resources(Path(args.tmp))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}", flush=True)
    t0, steal0 = time.perf_counter(), host_steal_s()
    try:
        rep = _workloads()[args.workload](args, res)
    finally:
        res.close()
    # CPU time the hypervisor gave to other machines during the run: the
    # main source of run-to-run noise on a shared virtual machine.
    steal = (host_steal_s() - steal0) / ((time.perf_counter() - t0) * (os.cpu_count() or 1))
    rep.layer("host.steal_frac", steal, "ratio")
    print(f"  host steal: {steal:.1%} of CPU time", flush=True)
    left = child_pids(os.getpid())
    rep.check("no_child_processes", not left, f"{left}" if left else "")
    spec = benchmark_spec()
    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        undeclared = sorted(set(rep.layers) - set(declared))
        rep.check("layers_declared", not undeclared,
                  f"not in BENCHMARK.json: {undeclared}" if undeclared else "")
        metrics = {name: (rep.layers.get(name, (0.0, unit))[0], unit)
                   for name, unit in declared.items()}
    else:
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in rep.metrics]
        rep.check("metrics_reported", not missing, f"missing: {missing}" if missing else "")
        metrics = {m["name"]: rep.metrics[m["name"]]
                   for m in spec["end_to_end"] if m["name"] in rep.metrics}
    failed_checks = sum(not ok for _, ok, _ in rep.checks)
    out = {
        "correct": failed_checks == 0,
        "attempted": int(rep.attempted + len(rep.checks)),
        "failed": int(rep.failed + failed_checks),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
