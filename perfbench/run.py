#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads, named metrics.

::

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke            # short run of every workload

Each run prints every metric by name with its unit and sample count, the
workload's own named figures, generator lateness and the correctness
result, then — as the last line of standard output — one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (measured with no
wrappers installed); with ``--trace 1`` they are the per-layer ones,
from a run that first repeats the workload untraced for half the time and
then traced for the other half, so the tracing overhead is reported too.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, Metric, Outcome, require_program  # noqa: E402

WORKLOADS = ("serve-zipf", "mc-grid", "ckpt-cycle")
E2E_UNITS = {"setup_s": "s", "cpu_per_op_ms": "ms"}
SMOKE_SECONDS = 6.0


def _module(workload: str):
    if workload == "serve-zipf":
        import serve_zipf as mod
    elif workload == "mc-grid":
        import mc_grid as mod
    else:
        import ckpt_cycle as mod
    return mod


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """One run in a private scratch directory inside the checkout."""
    scratch = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        return _module(workload).run(seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _fmt(name: str, m: Metric) -> str:
    return f"  {name:36s} {m.value:14.4f} {m.unit:6s} (n={m.samples})"


def report(workload: str, out: Outcome, trace: bool) -> dict:
    """Print the human-readable report; return the result-line object."""
    print(f"workload {workload}: {out.attempted} operations attempted, "
          f"{out.failed} failed, ok_share {out.ok_share:.4f}")
    for note in out.notes:
        print(f"  note: {note}")
    print("end-to-end metrics:" if not trace else "per-layer metrics:")
    metrics = out.layers if trace else out.e2e
    for name, m in metrics.items():
        print(_fmt(name, m))
    print("workload figures (named as in perfbench/README.md):")
    for name, m in out.detail.items():
        print(_fmt(name, m))
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in metrics.items()},
    }


def smoke() -> int:
    """Every workload, briefly, both modes: every metric present, all ok."""
    from layers import LAYER_UNITS

    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            out = run_workload(workload, 1, SMOKE_SECONDS, trace)
            result = report(workload, out, trace)
            want = LAYER_UNITS if trace else E2E_UNITS
            missing = sorted(set(want) - set(result["metrics"]))
            extra = sorted(set(result["metrics"]) - set(want))
            if missing or extra:
                problems.append(f"{workload} trace={int(trace)}: missing {missing}, "
                                f"unexpected {extra}")
            if out.ok_share != 1.0:
                problems.append(f"{workload} trace={int(trace)}: ok_share "
                                f"{out.ok_share:.4f}")
            bad = [n for n, m in result["metrics"].items()
                   if not math.isfinite(m["value"]) or (not trace and m["value"] <= 0)]
            if bad:
                problems.append(f"{workload} trace={int(trace)}: bad values {bad}")
    for p in problems:
        print(f"SMOKE FAIL: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED", file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", type=Path,
                    help="run one set-up of --workload in DIR and exit (each "
                         "run times several of these as fresh processes)")
    ap.add_argument("--smoke", action="store_true",
                    help="short run of every workload in both modes; asserts "
                         "every metric is present and ok_share == 1")
    args = ap.parse_args(argv)
    require_program()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required (or --smoke)")
    if args.setup_only is not None:
        if args.workload == "serve-zipf":
            ap.error("serve-zipf sets up its servers inside the run; "
                     "--setup-only is for mc-grid and ckpt-cycle")
        _module(args.workload).setup(args.seed, args.setup_only)
        return 0
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(args.workload, out, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
