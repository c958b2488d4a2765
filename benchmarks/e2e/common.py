"""Helpers shared by the benchmark's parent (``run.py``) and its children.

Standard library only: ``run.py`` imports this module before it knows
whether the source tree it is meant to build on is present.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
EXPECTED = HERE / "expected"

#: The workloads, in the order a full run executes them.
WORKLOADS = ("serve-hot", "serve-miss", "polls-batch", "stream-refresh")
#: The seed ``expected/`` holds golden answers for.
DEFAULT_SEED = 7


def child_env() -> dict[str, str]:
    """The environment of every child: the source tree on ``PYTHONPATH``."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def wait_for_line(
    process: subprocess.Popen, prefix: str, timeout: float
) -> str:
    """Read ``process`` stdout until a line starting with ``prefix``.

    Raises ``RuntimeError`` if the process exits or ``timeout`` passes
    first, so a child that never becomes ready cannot hang the run.
    """
    deadline = time.monotonic() + timeout
    fd = process.stdout.fileno()
    pending = b""
    with selectors.DefaultSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"no {prefix!r} line within {timeout:g} s")
            if not selector.select(remaining):
                continue
            # Raw reads: a buffered readline could strand the wanted line
            # in its buffer while select() waits on an empty pipe.
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(
                    f"process exited with code {process.wait()} before "
                    f"printing {prefix!r}"
                )
            pending += chunk
            *lines, pending = pending.split(b"\n")
            for line in lines:
                text = line.decode("utf-8", "replace").strip()
                if text.startswith(prefix):
                    return text


def stop_process(process: subprocess.Popen, timeout: float = 20.0) -> None:
    """Terminate ``process`` if it still runs, then wait until it has ended."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    for stream in (process.stdout, process.stderr):
        if stream is not None:
            stream.close()
