"""Child processes of the benchmark: ``repro`` CLI invocations.

Every invocation is a fresh interpreter started from the checkout root with
``src`` on ``PYTHONPATH``; its wall time runs from spawn to exit and its
CPU time and peak RSS come from ``wait4``.  A traced invocation runs
through ``traced_cli.py`` and merges the child's counters into a tracer.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (``run.py`` exits 2)."""


@dataclass
class Exit:
    """How one child process ended."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


def run_child(argv, env: dict, capture: bool = False, timeout: float = 170.0) -> Exit:
    """Run ``argv`` to completion; wall from spawn to exit, rusage via wait4.

    A child still running after ``timeout`` seconds is killed (it then
    reports a non-zero code); a child is never left running.
    """
    start = time.perf_counter()
    child = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
    )
    watchdog = threading.Timer(timeout, child.kill)
    watchdog.start()
    try:
        stdout = child.stdout.read().decode() if capture else ""
        _pid, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        child.kill()
        child.wait()
        raise
    finally:
        watchdog.cancel()
        if capture:
            child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        code=child.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
    )


def run_repro(args, env: dict, tracer=None, trace_file: Path | None = None) -> Exit:
    """``python -m repro <args>``, or its traced twin when ``tracer`` is set."""
    if tracer is None:
        return run_child([sys.executable, "-m", "repro", *args], env)
    done = run_child(
        [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *args], env
    )
    if done.code == 0:
        tracer.merge(trace_file)
    return done


def ingest(csv_dir: Path, out: Path, env: dict, tracer=None) -> float:
    """``repro ingest`` of a CSV directory; returns its wall time."""
    done = run_repro(
        ["ingest", "--data", str(csv_dir), "--out", str(out)],
        env,
        tracer,
        out.with_suffix(".trace.json"),
    )
    if done.code != 0:
        raise BenchmarkError(f"repro ingest exited with {done.code}")
    return done.wall_s
