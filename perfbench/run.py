"""The repository benchmark: Table-2 search, Table-4 worlds and TCP serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2_search --seed 1 --seconds 16 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``table2_search`` — Algorithm 1 on the paper-scale dblp graph
  (n = 22,641): the c = 2 fast cell and the c-escalation cell.  Its
  traced run also evaluates Table 4 (100 possible worlds, all ten paper
  statistics, sharded over two processes) for the worlds, anf, stats
  and exec layers.
* ``serve_hot`` — ``python -m repro serve`` driven open loop over TCP;
  every request hits the engine caches, so the server stack is measured.

Every workload reports the same end-to-end metrics, each defined on the
workload's own operations (Table-2 cells, served requests):
``setup_s``, ``peak_rss_mib``, ``p50_ms`` and ``tail_ms``.  Rates (worlds
per second, serving capacity) depend on how much CPU the host leaves
free, which drifts by 20-40 % over minutes on a shared machine, so they
are per-layer figures rather than gated ones.  ``--trace 1`` runs the
workload with the ``repro.obs`` tracer switched on for a repetition,
times each layer through its public functions, and reports the
per-layer metrics plus the tracing overhead.

``--seconds`` sets how long the serving rounds run; table2_search times
fixed work (nine solves, 65-80 s on a 2-core machine).

This file only supervises.  The workload runs in a fresh process (its
own session, marked through the environment) under a hard wall-clock
cap; afterwards the supervisor kills and reports anything the run left
behind: processes, listening ports, ``/dev/shm`` segments.  The last
line of standard output is the JSON result.  Exit status 0 means the
run finished within the cap and left nothing behind; the result's
``correct`` field says whether every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from lib import (  # noqa: E402
    RUN_MARK,
    SPEC_PATH,
    benchmark_spec,
    kill_pids,
    listening_ports,
    marked_pids,
    shm_segments,
    stop_session,
)

#: Hard cap on one workload process, seconds (the run must end in 180).
CAP_S = 165.0


class _Interrupted(Exception):
    pass


def _interrupt(signum, frame):
    raise _Interrupted(signal.Signals(signum).name)


def _failure(result: dict | None) -> dict:
    """A failed run's result: every op counts as failed."""
    attempted = max(1, int(result["attempted"])) if result else 1
    return {"correct": False, "attempted": attempted, "failed": attempted,
            "metrics": result["metrics"] if result else {}}


def supervise(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    mark = f"{os.getpid()}-{secrets.token_hex(4)}"
    tmp = ROOT / ".perfbench_run" / mark
    tmp.mkdir(parents=True)
    result_path = tmp / "result.json"
    shm_before = shm_segments()
    env = dict(os.environ)
    env[RUN_MARK] = mark
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_DATASET_CACHE", None)  # datasets are regenerated, never cached
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(tmp), "--result", str(result_path)]
    old = {s: signal.signal(s, _interrupt) for s in (signal.SIGTERM, signal.SIGINT)}
    child = None
    problems: list[str] = []
    interrupted = None
    try:
        child = subprocess.Popen(cmd, env=env, cwd=str(ROOT), start_new_session=True)
        try:
            child.wait(timeout=CAP_S)
        except subprocess.TimeoutExpired:
            problems.append(f"workload exceeded the {CAP_S:g}s cap")
    except _Interrupted as exc:
        interrupted = str(exc)
    finally:
        # Cleanup must not be cut short by a second signal.
        for s in old:
            signal.signal(s, signal.SIG_IGN)
        if child is not None:
            stop_session(child)
        ports = _read_ports(tmp / "ports.txt")
        leftovers = marked_pids(mark, exclude={os.getpid()})
        if leftovers:
            problems.append(f"processes left behind: {leftovers}")
            kill_pids(leftovers)
            _reap(mark)
        left_ports = sorted(ports & listening_ports())
        if left_ports:
            problems.append(f"ports still listening: {left_ports}")
        left_shm = sorted(shm_segments() - shm_before)
        if left_shm:
            problems.append(f"shared-memory segments left behind: {left_shm}")
            for name in left_shm:
                try:
                    os.unlink(f"/dev/shm/{name}")
                except OSError:
                    pass
        result = _read_result(result_path)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_run").rmdir()
        except OSError:
            pass
        for s, handler in old.items():
            signal.signal(s, handler)
    if interrupted:
        print(f"perfbench: interrupted by {interrupted}; cleaned up", file=sys.stderr)
        return 130
    if child.returncode != 0 and not problems:
        problems.append(f"workload exited with status {child.returncode}")
    if result is None and not problems:
        problems.append("workload wrote no result")
    if problems:
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        print(json.dumps(_failure(result)))
        return 1
    print(json.dumps(result))
    return 0


def _read_ports(path: Path) -> set[int]:
    try:
        return {int(line) for line in path.read_text().split()}
    except (OSError, ValueError):
        return set()


def _read_result(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _reap(mark: str, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while marked_pids(mark, exclude={os.getpid()}) and time.monotonic() < deadline:
        time.sleep(0.05)


def main(argv=None) -> int:
    try:
        workloads = [w["name"] for w in benchmark_spec()["workloads"]]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read {SPEC_PATH}: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return supervise(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
