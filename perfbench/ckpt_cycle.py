"""``ckpt-cycle``: the paper's checkpoint data path, live.

Two ranks — the miniSMAC2D and miniAero proxies at their calibrated
compressibility, about 1.7 MB of state together — each advance
:data:`STEPS` timesteps per iteration and then checkpoint through
:class:`repro.ckpt.MultilevelCheckpointer` in ndp mode: a local commit
every iteration, a partner copy every second one, and the NDP drain
daemon compressing with ``fast_lz4_codec()`` into an I/O store throttled
to :data:`IO_BPS`.  The drain runs in this process, so it competes with
the application for the interpreter the way the paper's host-side drain
competes for the host; the iteration time shows how much.

After the cycle the workload flushes to I/O, then treats the local and
partner copies as lost and recovers from the I/O level alone, repeatedly.
Every restored payload must equal the committed bytes.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import fmean

import hostref
from common import Metric, Outcome, fresh_setups, median

APP_ID = "perfbench"
APPS = ("miniSMAC2D", "miniAero")
STEPS = 8
IO_BPS = 16e6
PARTNER_EVERY = 2
#: Iterations timed in set-up with no drain running (the idle baseline).
IDLE_ITERS = 4
#: Share of the run spent in the checkpoint cycle; the rest restarts.
CYCLE_SHARE = 0.7


class _Rig:
    """Apps, stores and a started checkpointer in a fresh directory."""

    def __init__(self, root: Path, seed: int, codec) -> None:
        from repro.ckpt import IOStore, LocalStore, MultilevelCheckpointer, PartnerStore
        from repro.workloads import calibrated_app

        self.apps = [calibrated_app(name, seed=seed + k) for k, name in enumerate(APPS)]
        self.idle_windows: list[tuple[float, float]] = []
        for _ in range(IDLE_ITERS):
            t0 = time.perf_counter()
            for app in self.apps:
                app.run(STEPS)
            self.idle_windows.append((t0, time.perf_counter()))
        self.io = IOStore(root / "io", throttle_bps=IO_BPS)
        self.cr = MultilevelCheckpointer(
            APP_ID, LocalStore(root / "local"), self.io,
            partner=PartnerStore(root / "partner"), mode="ndp", codec=codec,
            partner_every=PARTNER_EVERY,
        ).start()

    def close(self) -> None:
        self.cr.close(flush=False)


def setup(seed: int, scratch: Path) -> None:
    """One set-up as a run makes it (apps, idle baseline, stores, drain), closed."""
    from repro.compression.codecs import fast_lz4_codec

    _Rig(scratch, seed, fast_lz4_codec()).close()


def _cycle(rig: _Rig, seconds: float, out: Outcome, refs: list[float]) -> dict:
    """Compute + checkpoint iterations, then flush, then I/O-only restarts.

    A host-speed sample is taken on the application thread after every
    commit, outside the iteration's timing; its CPU is excluded from the
    process CPU charged to the iterations.
    """
    from repro.ckpt import restart

    steps, commits, computes, ages, windows = [], [], [], [], []
    commit_at: dict[int, float] = {}
    last: tuple[int, dict[int, bytes]] | None = None
    start = time.perf_counter()
    cpu0, ref_cpu = time.process_time(), 0.0
    cycle_end = start + seconds * CYCLE_SHARE
    while not steps or time.perf_counter() < cycle_end:
        t0 = time.perf_counter()
        for app in rig.apps:
            app.run(STEPS)
        t_compute = time.perf_counter()
        payloads = {rank: app.checkpoint_bytes() for rank, app in enumerate(rig.apps)}
        t1 = time.perf_counter()
        out.attempted += 1
        try:
            ckpt_id = rig.cr.checkpoint(payloads, position=float(len(steps)))
        except OSError as exc:
            out.fail(f"checkpoint failed: {exc}")
            continue
        t2 = time.perf_counter()
        steps.append(t2 - t0)
        commits.append(t2 - t1)
        computes.append(t_compute - t0)
        windows.append((t0, t_compute))
        commit_at[ckpt_id] = t2
        last = (ckpt_id, payloads)
        durable = rig.io.latest(APP_ID)
        if durable is not None:
            ages.append(time.perf_counter() - commit_at[durable])
        refs.append(hostref.sample())
        ref_cpu += refs[-1]
    cpu_s = time.process_time() - cpu0 - ref_cpu
    drained, committed = rig.cr.daemon.stats.checkpoints_drained, len(steps)

    out.attempted += 1
    if not rig.cr.flush_to_io(timeout=60.0):
        out.fail("drain did not reach the I/O level within 60 s")
    restarts = []
    restart_end = max(time.perf_counter(), start + seconds)
    while not restarts or time.perf_counter() < restart_end:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            res = restart.recover(APP_ID, [rig.io], decompress_workers=1)
        except (OSError, ValueError, RuntimeError) as exc:
            out.fail(f"recover from I/O failed: {exc}")
            continue
        restarts.append(time.perf_counter() - t0)
        if last is None or res.ckpt_id != last[0] or res.payloads != last[1]:
            out.fail(f"restored checkpoint {res.ckpt_id} does not equal the last "
                     "committed bytes")
    return {
        "steps": steps, "commits": commits, "computes": computes, "ages": ages,
        "restarts": restarts, "windows": windows, "cpu_per_step_s": cpu_s / len(steps),
        "drained": drained, "committed": committed,
    }


def run(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    from repro.compression.codecs import fast_lz4_codec

    out = Outcome()
    codec = fast_lz4_codec()
    refs: list[float] = []
    steal0 = hostref.steal_ticks()
    setup_cpu, setup_wall = ([], []) if trace else fresh_setups("ckpt-cycle", seed, scratch)
    refs.append(hostref.sample())
    rig = _Rig(scratch / "plain", seed, codec)
    try:
        plain = _cycle(rig, seconds / 2 if trace else seconds, out, refs)
    finally:
        rig.close()
    steal = hostref.steal_share(steal0, hostref.steal_ticks())
    scale = hostref.factor(refs)
    steps = plain["steps"]
    idle = [hi - lo for lo, hi in rig.idle_windows]
    out.e2e = {
        "setup_s": Metric(median(setup_cpu), "s", len(setup_cpu)),
        "cpu_per_op_ms": Metric(plain["cpu_per_step_s"] * scale * 1e3, "ms", len(steps)),
    }
    out.detail = {
        "step_p50_ms": Metric(median(steps) * 1e3, "ms", len(steps)),
        "commit_p50_ms": Metric(median(plain["commits"]) * 1e3, "ms", len(steps)),
        "durable_age_p50_ms": Metric(median(plain["ages"]) * 1e3, "ms", len(plain["ages"])),
        "restart_p50_ms": Metric(median(plain["restarts"]) * 1e3, "ms",
                                 len(plain["restarts"])),
        "compute_p50_ms": Metric(median(plain["computes"]) * 1e3, "ms", len(steps)),
        "compute_idle_p50_ms": Metric(median(idle) * 1e3, "ms", len(idle)),
        "drained_share": Metric(plain["drained"] / plain["committed"], "share",
                                plain["committed"]),
        "process_cpu_per_step_ms": Metric(plain["cpu_per_step_s"] * 1e3, "ms", len(steps)),
        "setup_wall_s": Metric(median(setup_wall), "s", len(setup_wall)),
        "host_ref_ms": Metric(fmean(refs) * 1e3, "ms", len(refs)),
        "host_steal_share": Metric(steal, "share", len(steps)),
    }
    if trace:
        from layers import install_ckpt, layer_metrics, traced_codec
        from spans import Tracer, load

        tracer = Tracer()
        install_ckpt(tracer)
        try:
            t_rig = _Rig(scratch / "traced", seed, traced_codec(tracer, codec))
            try:
                traced = _cycle(t_rig, seconds / 2, out, refs)
            finally:
                t_rig.close()
        finally:
            tracer.uninstall()
        path = scratch / "spans-ckpt-cycle.jsonl"
        tracer.dump(path)
        counters = {
            "cycle_windows": traced["windows"],
            "idle_windows": t_rig.idle_windows,
            "drained": traced["drained"], "committed": traced["committed"],
            "trace.overhead_op_p50_ms": (
                (median(traced["steps"]) - median(steps)) * 1e3, len(traced["steps"])),
            "trace.overhead_cpu_per_op_ms": (
                (traced["cpu_per_step_s"] - plain["cpu_per_step_s"]) * scale * 1e3,
                len(traced["steps"])),
        }
        out.layers = layer_metrics(load(path), counters)
    return out
