"""Host speed: a fixed reference kernel, and the host's steal share.

The kernel touches nothing of the program: a pure-Python integer loop and
a chain of small-array numpy operations, the two kinds of work the
program's hot paths are made of.  It is timed in *thread CPU time*, so
waiting for the interpreter lock, for a CPU or for the hypervisor does not
count: a sample says how fast the CPU it ran on executes code right now.
Workloads take samples on the thread that does the measured work or, for
the service, in a sampler process pinned to the service's CPU;
``cpu_per_op_ms`` is scaled by :func:`factor`.

Run as a script (``python3 hostref.py OUT CPU``) it pins itself to ``CPU``
and appends one ``<perf_counter> <seconds>`` line to ``OUT`` every
:data:`INTERVAL_S` seconds until SIGTERM.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: The kernel's typical CPU time on the host the benchmark was tuned on.
#: Normalised metrics read "on a host where the kernel takes this long";
#: the constant only sets their scale.
NOMINAL_S = 0.005
INTERVAL_S = 0.25

_A = np.linspace(0.0, 1.0, 600)
_IDX = np.arange(600)[::-1].copy()


def sample() -> float:
    """Thread CPU seconds the reference kernel takes right now."""
    t0 = time.thread_time()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    x = _A
    for _ in range(200):
        x = np.where(x > 0.5, x * 0.99, x + 0.01)[_IDX]
        np.minimum(x, _A).sum()
    return time.thread_time() - t0


def factor(samples: list[float]) -> float:
    """Scale that maps this run's CPU times to the nominal host speed.

    The host switches between a fast and a slow state within seconds, so
    the samples are bimodal; their mean follows the share of time spent in
    each state smoothly, where a median jumps from one mode to the other.
    """
    return NOMINAL_S / statistics.fmean(samples)


def steal_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, from ``/proc/stat``."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    values = [int(v) for v in fields[:8]]
    return values[7], sum(values)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time the hypervisor gave to others between two reads."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


class Sampler:
    """This module as a script, in its own process pinned to ``cpu``."""

    def __init__(self, path: Path, cpu: int, env: dict[str, str]) -> None:
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(path), str(cpu)], env=env)

    def stop(self) -> list[float]:
        """Stop sampling (the process is reaped); every sample taken."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if not self.path.exists():
            return []
        return [float(line.split()[1]) for line in self.path.read_text().splitlines()]


def _main(out_path: str, cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    stop: list[bool] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    with open(out_path, "w") as out:
        while not stop:
            out.write(f"{time.perf_counter()} {sample()}\n")
            out.flush()
            time.sleep(INTERVAL_S)
    return 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1], int(sys.argv[2])))
