"""Shared plumbing for the benchmark workloads: paths, statistics, results.

Every workload module exposes ``run(seed, seconds, trace, scratch)`` and
returns a :class:`Outcome`; mc-grid and ckpt-cycle also expose
``setup(seed, scratch)``, which :func:`fresh_setups` times in fresh
processes.  ``run.py`` turns outcomes into the result line; nothing here
knows about a particular workload.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh set-up processes per mc-grid or ckpt-cycle run; ``setup_s`` is
#: their median, so one slow start does not move the metric.
SETUP_REPEATS = 7
RUN_PY = Path(__file__).resolve().parent / "run.py"


def require_program() -> None:
    """Put the program's sources on ``sys.path`` or exit non-zero.

    The benchmark measures the repository it sits in; without ``src/repro``
    there is nothing to measure and no result may be printed.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env(scratch: Path) -> dict[str, str]:
    """Environment for a child process running the program from ``src``.

    Temporary files and the result cache stay under ``scratch`` (inside the
    checkout), never in the user's home or the system temp directory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(scratch)
    env.pop("REPRO_TRACE", None)
    return env


def fresh_setups(workload: str, seed: int, scratch: Path) -> tuple[list[float], list[float]]:
    """CPU and wall seconds of :data:`SETUP_REPEATS` fresh set-ups.

    Each is a new interpreter (``run.py --setup-only``) that imports the
    program and runs the workload's set-up, warm-up included, then exits:
    import-time and first-call work is charged to set-up, where a median of
    in-process repeats would drop it.  CPU comes from the kernel's
    accounting of the reaped child.
    """
    cpus, walls = [], []
    for k in range(SETUP_REPEATS):
        where = scratch / f"setup-{k}"
        where.mkdir()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
             "--setup-only", str(where)],
            env=program_env(scratch), check=True, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpus.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    return cpus, walls


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); NaN when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[k]


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (all its threads)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3 of stat); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class Metric:
    """One reported number: value, unit and how many samples made it."""

    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``e2e`` holds the end-to-end metrics the result line reports with
    tracing off; ``layers`` the per-layer metrics of a traced run;
    ``detail`` the workload's own named figures, printed for people (the
    names the workload's documentation uses) but not part of the result
    line.  ``attempted``/``failed`` count operations: a refused, failed or
    wrong operation is failed.
    """

    attempted: int = 0
    failed: int = 0
    e2e: dict[str, Metric] = field(default_factory=dict)
    layers: dict[str, Metric] = field(default_factory=dict)
    detail: dict[str, Metric] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def ok_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0

    def fail(self, note: str, count: int = 1) -> None:
        """Record ``count`` failed operations with a reason."""
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)
