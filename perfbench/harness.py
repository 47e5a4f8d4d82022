"""Child processes, statistics and machine facts shared by the benchmark."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent

#: Keep numeric libraries on one thread, so every workload is the
#: single-threaded baseline and the second core stays free for the harness.
_ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in _ONE_THREAD:
        env[var] = "1"
    return env


@dataclass
class ChildRun:
    code: int
    spawned: float       # time.monotonic() just before the spawn
    wall_s: float        # spawn to reap
    peak_rss_mb: float   # this child's own ru_maxrss, not the RUSAGE_CHILDREN max


def run_child(argv: list[str], stdout_path: Path | None = None,
              timeout: float = 170.0) -> ChildRun:
    """Run one child to completion and reap it with os.wait4.

    The child's stdout goes to ``stdout_path`` (or is discarded); stderr is
    passed through.  A child still running after ``timeout`` seconds is killed,
    which shows as exit code -9.
    """
    out = open(stdout_path, "wb") if stdout_path is not None else subprocess.DEVNULL
    try:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        reaped = time.monotonic()
    finally:
        if stdout_path is not None:
            out.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(code=proc.returncode, spawned=spawned, wall_s=reaped - spawned,
                    peak_rss_mb=usage.ru_maxrss / 1024.0)


def python_child(*args: str) -> list[str]:
    """argv for a benchmark child script under perfbench/."""
    return [sys.executable, str(BENCH / args[0]), *args[1:]]


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With twenty samples or
    fewer that percentile would not lie above the median, so the maximum is
    returned instead, as p100 with zero samples beyond.
    """
    ordered = sorted(values)
    if len(ordered) <= 20:
        return ordered[-1], 100.0, 0
    idx = len(ordered) - 11
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), 10


def _read_first(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def src_digest() -> str:
    """sha256 over the package sources, naming the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mpsmat").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def machine_info() -> dict:
    import numpy

    mem_kb = _read_first("/proc/meminfo", "MemTotal")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total_gb": round(int(mem_kb.split()[0]) / 2**20, 2) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }
