"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from lib import (  # noqa: E402
    RUN_MARK,
    SPEC_PATH,
    benchmark_spec,
    build_schedule,
    capacity_search,
    child_pids,
    host_steal_s,
    latency_summary,
    marked_pids,
    nearest_rank,
    popular_pairs,
    stop_session,
    tail_level,
)


# ---------------------------------------------------------------- percentiles

def test_tail_level_keeps_ten_samples_beyond():
    assert tail_level(10) == 100.0
    assert tail_level(19) == 100.0
    assert tail_level(20) == 50.0
    assert tail_level(40) == 75.0
    assert tail_level(100) == 90.0
    assert tail_level(200) == 95.0
    assert tail_level(1000) == 99.0
    assert tail_level(9999) == 99.0
    assert tail_level(10000) == 99.9
    for n in range(20, 3000, 7):
        level = tail_level(n)
        values = list(range(n))
        beyond = sum(v > nearest_rank(values, level) for v in values)
        assert beyond >= 10


def test_nearest_rank_and_summary():
    values = list(range(1, 101))
    assert nearest_rank(values, 50.0) == 50
    assert nearest_rank(values, 90.0) == 90
    assert nearest_rank(values, 100.0) == 100
    summary = latency_summary(reversed(values))
    assert summary == {"count": 100, "p50": 50.0, "tail": 90.0, "tail_pct": 90.0}
    assert latency_summary([3.0, 1.0]) == {"count": 2, "p50": 1.0, "tail": 3.0,
                                           "tail_pct": 100.0}


# ------------------------------------------------------------ capacity search

def _model(capacity):
    """Synthetic server: passes strictly below ``capacity``."""
    calls = []

    def probe(rate):
        calls.append(rate)
        return rate < capacity

    return probe, calls


@pytest.mark.parametrize("capacity", [7.0, 100.0, 2500.0, 9000.0, 40000.0])
def test_capacity_search_finds_capacity_within_resolution(capacity):
    probe, calls = _model(capacity)
    result = capacity_search(probe, 1000.0, 2000.0, 0.05, max_steps=30)
    assert result.capacity < capacity
    assert result.capacity >= capacity / 1.05 - 1e-9
    assert [r for r, _ in result.steps] == calls


def test_capacity_search_against_latency_model():
    # M/M/1-like tail: latency grows without bound as the rate nears 5000/s.
    def tail_ms(rate):
        return float("inf") if rate >= 5000 else 1.0 / (5000 - rate) * 1e4

    limit = 25.0  # met while rate <= 4600
    result = capacity_search(lambda r: tail_ms(r) <= limit, 3000.0, 6000.0, 0.04)
    assert 4600 / 1.04 <= result.capacity <= 4600
    assert len(result.steps) <= 8


def test_capacity_search_gives_zero_when_nothing_passes():
    result = capacity_search(lambda r: False, 10.0, 20.0, 0.1, max_steps=5)
    assert result.capacity == 0.0
    assert len(result.steps) == 5


# ------------------------------------------------------------------ schedules

def test_schedule_is_deterministic_per_seed():
    sources, targets = popular_pairs([4, 1], 500, 8)
    again = popular_pairs([4, 1], 500, 8)
    assert (sources == again[0]).all() and (targets == again[1]).all()
    assert len(set(sources.tolist())) == 8
    assert all(s != t for s, t in zip(sources, targets))
    a = build_schedule([4, 2], 200.0, 1.5, sources, targets)
    b = build_schedule([4, 2], 200.0, 1.5, sources, targets)
    c = build_schedule([5, 2], 200.0, 1.5, sources, targets)
    assert a == b
    assert a != c
    assert len(a) == 300
    assert [due for due, _ in a] == [i / 200.0 for i in range(300)]
    assert {r["op"] for _, r in a} == {"reliability", "degree", "khop", "distance", "knn"}
    assert {r["source"] for _, r in a} <= set(sources.tolist())


# ------------------------------------------------------------------- teardown

def _spawn_tree(mark, tmp_path):
    """A session leader that ignores SIGTERM and has a grandchild."""
    script = (
        "import signal, subprocess, sys, time\n"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(tmp_path / 'ready')!r}, 'w').close()\n"
        "time.sleep(60)\n"
    )
    env = dict(os.environ, **{RUN_MARK: mark})
    proc = subprocess.Popen([sys.executable, "-c", script], env=env, start_new_session=True)
    deadline = time.monotonic() + 20
    while not (tmp_path / "ready").exists():
        assert time.monotonic() < deadline, "tree did not start"
        time.sleep(0.02)
    return proc


def test_stop_session_kills_a_stubborn_tree(tmp_path):
    mark = f"test-{os.getpid()}-stop"
    proc = _spawn_tree(mark, tmp_path)
    assert len(marked_pids(mark)) == 2
    stop_session(proc, grace_s=0.5)
    assert proc.returncode is not None
    deadline = time.monotonic() + 5
    while marked_pids(mark) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert marked_pids(mark) == []
    assert proc.pid not in child_pids(os.getpid())


def test_forced_failure_leaves_no_child_process(tmp_path):
    """A workload whose check fails still tears everything down."""
    root = HERE.parent
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import subprocess, time\n"
        "from lib import Resources, stop_session\n"
        "res = Resources(None)\n"
        "try:\n"
        "    p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'],\n"
        "                         start_new_session=True)\n"
        "    res.add(lambda: stop_session(p, 1.0))\n"
        "    raise AssertionError('forced check failure')\n"
        "finally:\n"
        "    res.close()\n"
    )
    mark = f"test-{os.getpid()}-forced"
    env = dict(os.environ, **{RUN_MARK: mark})
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "forced check failure" in out.stderr
    assert marked_pids(mark) == []


@pytest.mark.parametrize("with_spec", [True, False])
def test_supervisor_refuses_a_directory_without_the_program(tmp_path, with_spec):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "lib.py"):
        (bench / name).write_text((HERE / name).read_text())
    if with_spec:
        (tmp_path / "BENCHMARK.json").write_text(SPEC_PATH.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2_search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout.strip() == ""


def test_spec_workloads_are_the_dispatched_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    from workloads import _workloads

    spec = benchmark_spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(_workloads())


def test_host_steal_is_a_monotone_counter():
    first = host_steal_s()
    second = host_steal_s()
    assert 0.0 <= first <= second
