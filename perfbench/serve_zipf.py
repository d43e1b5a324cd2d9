"""``serve-zipf``: the capacity-planning service as users hit it.

``python -m repro serve`` runs in its own process with a fresh result
cache.  An open-loop generator sends ``POST /v1/simulate`` at Poisson
arrivals of :data:`RATE` per second over at most :data:`CONNECTIONS`
keep-alive connections; configs are drawn zipfian (:data:`ZIPF_S`) from a
corpus of :data:`CORPUS` ten-MTTI scenarios.  Set-up is the server boot
plus a warm prefix of the schedule (:data:`WARM` requests, sent back to
back), so the measured phase sees a running cache: about three quarters
of its requests hit, the rest run the engine at narrow width.

Every request is timed from its *due* time, so a stall that delays later
sends is charged to them.  Afterwards every distinct config's response
bytes must be the same across the run and equal to a serial in-process
``simulate`` + ``canonical_dumps``.
"""

from __future__ import annotations

import copy
import http.client
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import fmean

from common import Metric, Outcome, ROOT, median, percentile
from common import proc_cpu_seconds, program_env
from hostref import Sampler, factor, steal_share, steal_ticks

#: Offered load, requests per second: about a quarter of one core at the
#: service's few milliseconds of CPU per request, far from saturation.
RATE = 60.0
#: Load-generator concurrency (threads and connections), at most ``nproc``.
CONNECTIONS = 2
ZIPF_S = 1.1
#: Corpus size and warm prefix chosen so the measured phase runs near the
#: service's recorded operating point (about 74% cache hits, mean fused
#: batch about 2).
CORPUS = 750
WARM = 400
WORK_MTTIS = 10.0
#: Server set-ups (boot + warm prefix) per run; ``setup_s`` is their median.
BOOTS = 3

_STRATEGIES = ("ndp", "host", "io-only", "local-only")


def build_corpus(rng: random.Random) -> list[dict]:
    """:data:`CORPUS` distinct simulate bodies in a seed-dependent rank order.

    Shaped like the service recorder's corpus: short MTTIs, small
    checkpoints, ten MTTIs of work, so the service's own overheads are a
    visible share of a request.
    """
    corpus = []
    for i in range(CORPUS):
        strategy = _STRATEGIES[i % len(_STRATEGIES)]
        corpus.append({
            "params": {
                "mtti": 600.0 + 60.0 * (i % 7),
                "checkpoint_size": 1e9 * (1 + i % 5),
                "local_interval": 100.0 + 10.0 * (i % 3),
            },
            "strategy": strategy,
            "ratio": 1 + (i % 4) if strategy == "host" else 1,
            "compression": ("ndp-gzip1", "host-gzip1", "none")[i % 3],
            "work_mttis": WORK_MTTIS,
            "seed": i % 11,
        })
    rng.shuffle(corpus)
    return corpus


def zipf_draws(rng: random.Random, n_items: int, n_draws: int) -> list[int]:
    """``n_draws`` ranks in ``range(n_items)`` with weight ``1 / (rank+1)**s``."""
    import bisect

    cdf, acc = [], 0.0
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n_items)]
    total = sum(weights)
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return [min(bisect.bisect_left(cdf, rng.random()), n_items - 1)
            for _ in range(n_draws)]


def poisson_offsets(rng: random.Random, seconds: float) -> list[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    out, t = [], rng.expovariate(RATE)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(RATE)
    return out


class Server:
    """One service process, pinned to ``cpu``: ``repro serve`` or, with
    ``spans_path``, the traced launcher."""

    def __init__(self, scratch: Path, tag: str, spans_path: Path | None, cpu: int) -> None:
        cache = scratch / f"cache-{tag}"
        cache.mkdir(parents=True)
        env = program_env(scratch)
        env["REPRO_CACHE_DIR"] = str(cache)
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"),
                   str(spans_path)]
        self.log = open(scratch / f"server-{tag}.log", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + ["--host", "127.0.0.1", "--port", "0"], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=self.log,
        )
        try:
            os.sched_setaffinity(self.proc.pid, {cpu})
            self.port = self._await_port(deadline=t0 + 60.0)
            from repro.service import ServiceClient

            with ServiceClient("127.0.0.1", self.port, timeout=30.0) as client:
                client.healthz()
        except BaseException:
            self.stop()
            raise
        self.boot_wall_s = time.perf_counter() - t0

    def _await_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("service did not start; see its log")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("service closed stdout before listening")
                line += chunk
        return int(line.decode().strip().rsplit(":", 1)[1])

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it lingers; always reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.log.close()


class _Load:
    """Responses and timings of one load phase, shared by the sender threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latency: dict[int, float] = {}
        self.late: list[float] = []
        self.bodies: dict[int, bytes] = {}
        self.answered: dict[int, int] = {}
        self.errors: list[tuple[int, str]] = []
        self.mismatched: list[int] = []


def _send_all(port: int, corpus: list[dict], draws: list[int], positions: list[int],
              due: list[float] | None, load: _Load) -> None:
    """Send ``draws[p]`` for each ``p`` in ``positions`` over the connections.

    With ``due`` (absolute ``perf_counter`` times) the phase is open-loop:
    each request waits for its due time and is timed from it.  Without, the
    requests go back to back (the warm prefix).
    """
    from repro.service import ServiceClient, ServiceError

    order = iter(range(len(positions)))
    order_lock = threading.Lock()

    def sender() -> None:
        with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
            while True:
                with order_lock:
                    j = next(order, None)
                if j is None:
                    return
                pos = positions[j]
                if due is not None:
                    wait = due[j] - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                sent = time.perf_counter()
                idx = draws[pos]
                try:
                    raw = client.post_raw("/v1/simulate", corpus[idx])
                except (ServiceError, OSError, http.client.HTTPException) as exc:
                    with load.lock:
                        load.errors.append((pos, f"{type(exc).__name__}: {exc}"))
                    continue
                done = time.perf_counter()
                with load.lock:
                    if due is not None:
                        load.latency[pos] = done - due[j]
                        load.late.append(sent - due[j])
                    load.answered[idx] = load.answered.get(idx, 0) + 1
                    if load.bodies.setdefault(idx, raw) != raw:
                        load.mismatched.append(pos)

    threads = [threading.Thread(target=sender, name=f"sender-{i}")
               for i in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _stats(port: int) -> dict:
    from repro.service import ServiceClient

    with ServiceClient("127.0.0.1", port, timeout=30.0) as client:
        return client.stats()


def _counter_delta(before: dict, after: dict) -> dict:
    """Program counters over the measured phase (``/stats`` after - before)."""
    def fast(stats: dict, key: str) -> int:
        return int(stats["batch"][key].get("fast", 0))

    batches = fast(after, "batches") - fast(before, "batches")
    jobs = fast(after, "batched_jobs") - fast(before, "batched_jobs")
    primary = after["coalesce"]["primary"] - before["coalesce"]["primary"]
    coalesced = after["coalesce"]["coalesced"] - before["coalesce"]["coalesced"]
    return {
        "coalesced": coalesced,
        "coalesce_served": primary + coalesced,
        "fast_batches": batches,
        "mean_fast_batch": jobs / batches if batches else 0.0,
        "cache_hits": after["cache"]["hits"] - before["cache"]["hits"],
        "cache_misses": after["cache"]["misses"] - before["cache"]["misses"],
    }


class _Schedule:
    """One phase's inputs: arrival offsets and the zipfian config draws."""

    def __init__(self, rng: random.Random, seconds: float) -> None:
        self.offsets = poisson_offsets(rng, seconds)
        self.draws = zipf_draws(rng, CORPUS, WARM + len(self.offsets))
        seen: set[int] = set()
        self.first_pos: set[int] = set()
        for pos, idx in enumerate(self.draws):
            if idx not in seen:
                seen.add(idx)
                self.first_pos.add(pos)


def _warm(server: Server, corpus: list[dict], sched: _Schedule) -> tuple[_Load, float, float]:
    """Send the warm prefix back to back.

    Returns its responses and the set-up's cost: the server's CPU and wall
    seconds from process start to the end of the prefix.
    """
    warm = _Load()
    t0 = time.perf_counter()
    _send_all(server.port, corpus, sched.draws, list(range(WARM)), None, warm)
    return warm, server.cpu_seconds(), server.boot_wall_s + time.perf_counter() - t0


def _phase(server: Server, corpus: list[dict], sched: _Schedule) -> dict:
    """The timed open-loop phase against a warmed server."""
    measured = list(range(WARM, WARM + len(sched.offsets)))
    load = _Load()
    before = _stats(server.port)
    steal0, cpu0 = steal_ticks(), server.cpu_seconds()
    start = time.perf_counter() + 0.05
    _send_all(server.port, corpus, sched.draws, measured,
              [start + o for o in sched.offsets], load)
    cpu_s = server.cpu_seconds() - cpu0
    steal = steal_share(steal0, steal_ticks())
    window = (start, time.perf_counter())
    after = _stats(server.port)

    lat = [load.latency[p] for p in measured if p in load.latency]
    cold = [load.latency[p] for p in measured
            if p in load.latency and p in sched.first_pos]
    return {
        "load": load, "lat": lat, "cold": cold, "cpu_per_req_s": cpu_s / max(1, len(lat)),
        "steal": steal, "counters": _counter_delta(before, after), "window": window,
    }


def _verify(corpus: list[dict], draws: list[int], loads: list[_Load],
            out: Outcome) -> int:
    """Byte identity: across the run, and against serial in-process evaluation."""
    from repro.service.protocol import canonical_dumps, config_from_json, result_to_json
    from repro.simulation import simulate

    answered: dict[int, int] = {}
    bodies: dict[int, bytes] = {}
    for load in loads:
        for pos, msg in load.errors:
            out.fail(f"request {pos} (config {draws[pos]}): {msg}")
        for pos in load.mismatched:
            out.fail(f"request {pos}: response bytes differ from an earlier response")
        for idx, raw in load.bodies.items():
            answered[idx] = answered.get(idx, 0) + load.answered[idx]
            if bodies.setdefault(idx, raw) != raw:
                out.fail(f"config {idx}: response bytes differ between servers")
    for idx, raw in sorted(bodies.items()):
        cfg = config_from_json(copy.deepcopy(corpus[idx]))
        expected = canonical_dumps({"result": result_to_json(simulate(cfg))})
        if raw != expected:
            out.fail(f"config {idx}: response differs from serial simulate()",
                     count=answered[idx])
    return len(bodies)


def _serve_phase(scratch: Path, name: str, corpus: list[dict], sched: _Schedule,
                 cpu: int, probes: int, out: Outcome) -> dict:
    """Set up ``probes`` + 1 servers (boot + warm prefix; the set-up median),
    measure on the last, stop, verify every response."""
    setup_cpu, setup_wall, warms = [], [], []
    for k in range(probes):
        probe = Server(scratch, f"{name}-probe{k}", None, cpu)
        try:
            warm, cpu_s, wall_s = _warm(probe, corpus, sched)
        finally:
            probe.stop()
        warms.append(warm)
        setup_cpu.append(cpu_s)
        setup_wall.append(wall_s)
    spans_path = scratch / "spans-serve.jsonl" if name == "traced" else None
    server = Server(scratch, name, spans_path, cpu)
    try:
        warm, cpu_s, wall_s = _warm(server, corpus, sched)
        warms.append(warm)
        setup_cpu.append(cpu_s)
        setup_wall.append(wall_s)
        res = _phase(server, corpus, sched)
    finally:
        server.stop()
    res["setup_cpu_s"] = median(setup_cpu)
    res["setup_wall_s"] = median(setup_wall)
    res["boots"] = len(setup_cpu)
    out.attempted += len(warms) * WARM + len(sched.offsets)
    distinct = _verify(corpus, sched.draws, warms + [res["load"]], out)
    out.notes.append(f"{name}: byte identity checked on {distinct} distinct configs")
    return res


def run(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    from repro.service import ServiceClient  # noqa: F401  (import cost outside timing)

    # The client (this process and its sender threads) on one CPU; the
    # service and the host-speed sampler on another, so the sampler's CPU
    # is the service's.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[-1]
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[0]})
    sampler = Sampler(scratch / "hostref.txt", server_cpu, program_env(scratch))

    rng = random.Random(seed)
    corpus = build_corpus(rng)
    out = Outcome()
    try:
        if not trace:
            plain = _serve_phase(scratch, "plain", corpus, _Schedule(rng, seconds),
                                 server_cpu, BOOTS - 1, out)
        else:
            plain = _serve_phase(scratch, "plain", corpus, _Schedule(rng, seconds / 2),
                                 server_cpu, 0, out)
            traced = _serve_phase(scratch, "traced", corpus, _Schedule(rng, seconds / 2),
                                  server_cpu, 0, out)
    finally:
        refs = sampler.stop()
    scale = factor(refs)

    lat, cold = plain["lat"], plain["cold"]
    out.e2e = {
        "setup_s": Metric(plain["setup_cpu_s"], "s", plain["boots"]),
        "cpu_per_op_ms": Metric(plain["cpu_per_req_s"] * scale * 1e3, "ms", len(lat)),
    }
    c = plain["counters"]
    probes = c["cache_hits"] + c["cache_misses"]
    out.detail = {
        "req_p50_ms": Metric(median(lat) * 1e3, "ms", len(lat)),
        "req_p99_ms": Metric(percentile(lat, 0.99) * 1e3, "ms", len(lat)),
        "cold_p50_ms": Metric(median(cold) * 1e3, "ms", len(cold)),
        "server_cpu_ms": Metric(plain["cpu_per_req_s"] * 1e3, "ms", len(lat)),
        "setup_wall_s": Metric(plain["setup_wall_s"], "s", plain["boots"]),
        "gen_late_p99_ms": Metric(percentile(plain["load"].late, 0.99) * 1e3, "ms",
                                  len(plain["load"].late)),
        "cache_hit_share": Metric(c["cache_hits"] / probes if probes else 0.0, "share",
                                  probes),
        "fused_width": Metric(c["mean_fast_batch"], "count", c["fast_batches"]),
        "host_ref_ms": Metric(fmean(refs) * 1e3, "ms", len(refs)),
        "host_steal_share": Metric(plain["steal"], "share", len(lat)),
    }
    if trace:
        from layers import layer_metrics
        from spans import load

        counters = dict(traced["counters"])
        counters["late_s"] = traced["load"].late
        t_lat = traced["lat"]
        counters["trace.overhead_op_p50_ms"] = (
            (median(t_lat) - median(lat)) * 1e3, len(t_lat))
        counters["trace.overhead_cpu_per_op_ms"] = (
            (traced["cpu_per_req_s"] - plain["cpu_per_req_s"]) * scale * 1e3, len(t_lat))
        lo, hi = traced["window"]
        spans = [s for s in load(scratch / "spans-serve.jsonl")
                 if s["start"] >= lo and s["end"] <= hi]
        out.layers = layer_metrics(spans, counters)
    return out
