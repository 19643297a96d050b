"""Child processes: the same environment for every child, stdout read on a
thread so no read can block past a deadline, and a stop that always reaps."""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# one BLAS thread on both commits of a comparison: with the default two on a
# 2-core machine, planning a 35-waypoint drawing takes ~4.5 s instead of ~1.3 s
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONUNBUFFERED"] = "1"
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


class Child:
    """A Python child process whose stdout lines arrive on a queue."""

    def __init__(self, args: list[str]):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str, deadline: float) -> str:
        """The first stdout line starting with prefix; raises on EOF or when
        the deadline (a time.perf_counter value) passes."""
        while True:
            try:
                line = self.lines.get(timeout=max(deadline - time.perf_counter(), 0.0))
            except queue.Empty:
                raise TimeoutError(f"no '{prefix}' line from {self.proc.args[1]} in time") from None
            if line is None:
                raise RuntimeError(f"{self.proc.args[1]} exited ({self.proc.wait()}) before '{prefix}'")
            if line.startswith(prefix):
                return line

    def stop(self, timeout: float = 5.0) -> int:
        """Give it `timeout` seconds to exit by itself, then kill it; always
        reaps."""
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=timeout)
        self.proc.stdout.close()
        return code
