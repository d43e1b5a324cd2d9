"""Which program entry points the traced run wraps, and the per-layer metrics.

Each ``install_*`` function patches the public entry points one workload
calls through (see :class:`spans.Tracer`); :func:`layer_metrics` turns the
written spans plus the program's own counters into the ``per_layer``
metrics of ``BENCHMARK.json``.  Every workload reports every per-layer
metric: a layer the workload does not run reads 0 with 0 samples.
"""

from __future__ import annotations

import math
import time
from typing import Any

from common import Metric, median, percentile
from spans import Tracer, self_times

#: Per-layer metric name -> unit, in the order ``BENCHMARK.json`` lists them.
LAYER_UNITS: dict[str, str] = {
    "service.protocol.parse_us": "us",
    "service.protocol.render_us": "us",
    "service.coalescer.attach_share": "share",
    "service.batcher.fused_width": "count",
    "service.batcher.wait_ms": "ms",
    "simulation.pool.cache_hit_share": "share",
    "simulation.pool.cache_get_us": "us",
    "simulation.pool.cache_put_us": "us",
    "simulation.pool.run_self_ms": "ms",
    "simulation.fastpath.ms_per_row": "ms",
    "simulation.fastpath.width_mean": "count",
    "simulation.fastpath.des_fallbacks": "count",
    "gen.late_p99_ms": "ms",
    "workloads.miniapps.compute_ms": "ms",
    "workloads.miniapps.compute_idle_ms": "ms",
    "ckpt.backends.local_write_ms": "ms",
    "ckpt.backends.partner_write_ms": "ms",
    "ckpt.backends.io_write_mb_s": "MB/s",
    "ckpt.ndp_daemon.drained_share": "share",
    "compression.lz4.compress_mb_s": "MB/s",
    "compression.lz4.decompress_mb_s": "MB/s",
    "compression.lz4.factor": "share",
    "ckpt.restart.recover_self_ms": "ms",
    "trace.overhead_op_p50_ms": "ms",
    "trace.overhead_cpu_per_op_ms": "ms",
}


def _keys_of_configs(args: tuple, kwargs: dict) -> dict:
    from repro.simulation.pool import config_key

    configs = list(kwargs["configs"] if "configs" in kwargs else args[0])
    return {
        "keys": [config_key(c) for c in configs],
        "rows": len(configs),
        "_args": (configs,) + tuple(args[1:]),
    }


def _keys_of_get_many(args: tuple, kwargs: dict) -> dict:
    keys = list(args[1])
    return {"keys": keys, "_args": (args[0], keys)}


def _submit_key(args: tuple, kwargs: dict) -> dict:
    from repro.simulation.pool import config_key

    return {"keys": [config_key(args[1])], "served": True}


def _rows(args: tuple, kwargs: dict) -> dict:
    configs = list(args[0])
    return {"rows": len(configs), "_args": (configs,) + tuple(args[1:])}


def install_engine(tracer: Tracer) -> None:
    """The Monte-Carlo layers: pool runner, result cache, fast engine."""
    from repro.simulation import fastpath, grid, pool

    tracer.patch(grid, "run_simulations", "simulation.pool.run_simulations", _rows)
    tracer.patch(pool.ResultCache, "get", "simulation.pool.ResultCache.get")
    tracer.patch(pool.ResultCache, "put", "simulation.pool.ResultCache.put")
    tracer.patch(pool.ResultCache, "get_many", "simulation.pool.ResultCache.get_many",
                 _keys_of_get_many)
    tracer.patch(pool.ResultCache, "put_many", "simulation.pool.ResultCache.put_many")
    tracer.patch(fastpath, "simulate_batch", "simulation.fastpath.simulate_batch", _rows)


def install_service(tracer: Tracer) -> None:
    """The service layers on top of the engine layers (server process).

    Here the runner's span also carries the config keys of its batch, so a
    ``Batcher.submit`` span can subtract the work done for its own config.
    """
    from repro.service import batcher, server

    install_engine(tracer)
    tracer.patch(server, "run_simulations", "simulation.pool.run_simulations",
                 _keys_of_configs)
    tracer.patch(server, "config_from_json", "service.protocol.config_from_json")
    tracer.patch(server, "canonical_dumps", "service.protocol.canonical_dumps")
    tracer.patch(batcher.Batcher, "submit", "service.batcher.Batcher.submit",
                 _submit_key, is_async=True)


def install_ckpt(tracer: Tracer) -> None:
    """The checkpoint data path: compute, stores, restore, lz4 decode.

    The compress side is wrapped on the codec the workload builds (see
    :func:`traced_codec`); decode goes through ``codec_from_name``, which
    reads ``lz4.decompress`` at call time, so the module attribute is
    patched.
    """
    from repro.ckpt import backends, restart
    from repro.compression import lz4
    from repro.workloads.base import MiniApp

    tracer.patch(MiniApp, "run", "workloads.miniapps.MiniApp.run")
    tracer.patch(backends.DirectoryStore, "write_checkpoint",
                 lambda args: f"ckpt.backends.{args[0].level}.write_checkpoint")
    tracer.patch(backends.IOStore, "stage_rank_frames",
                 "ckpt.backends.io.stage_rank_frames", _frames_net_of_waiting)
    tracer.patch(restart, "recover", "ckpt.restart.recover")
    tracer.patch(lz4, "decompress", "compression.lz4.decompress",
                 lambda a, k: {"_result": lambda out: {"bytes_out": len(out)}})


def _frames_net_of_waiting(args: tuple, kwargs: dict) -> dict:
    """Time the pipelined I/O write apart from waiting for the compressor.

    ``stage_rank_frames`` consumes frames as the drain produces them; the
    wrapper times each ``next()`` on the frame iterator and records the
    total as ``wait``, so ``duration - wait`` is the store's own write time.
    """
    waited = [0.0]

    def timed(frames):
        it = iter(frames)
        while True:
            t0 = time.perf_counter()
            frame = next(it, None)
            waited[0] += time.perf_counter() - t0
            if frame is None:
                return
            yield frame

    return {
        "_args": args[:4] + (timed(args[4]),) + args[5:],
        "_result": lambda header: {"bytes": header.payload_size, "wait": waited[0]},
    }


def traced_codec(tracer: Tracer, codec):
    """A copy of ``codec`` whose ``compress`` records spans with byte counts."""
    from repro.compression.codecs import Codec

    compress = tracer.wrap(
        "compression.lz4.compress", codec._compress,
        lambda a, k: {"bytes_in": len(a[0]),
                      "_result": lambda out: {"bytes_out": len(out)}},
    )
    return Codec(codec.utility, codec.level, compress, codec._decompress)


def _durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def _metric(name: str, value: float, samples: int) -> tuple[str, Metric]:
    if samples == 0 or math.isnan(value):
        value = 0.0
    return name, Metric(value, LAYER_UNITS[name], samples)


def layer_metrics(spans: list[dict], counters: dict[str, Any]) -> dict[str, Metric]:
    """Every per-layer metric from the spans and the program's counters.

    ``counters`` carries what the program itself counts (service ``/stats``,
    drain-daemon stats, fallback counter) and what the workload measured
    around the calls (generator lateness, per-iteration compute windows,
    tracing overhead); absent keys mean the workload does not run that
    layer.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    out: dict[str, Metric] = {}

    def put(name: str, value: float, samples: int) -> None:
        k, m = _metric(name, value, samples)
        out[k] = m

    parse = _durations(spans, "service.protocol.config_from_json")
    render = _durations(spans, "service.protocol.canonical_dumps")
    put("service.protocol.parse_us", median(parse) * 1e6, len(parse))
    put("service.protocol.render_us", median(render) * 1e6, len(render))

    served = counters.get("coalesce_served", 0)
    put("service.coalescer.attach_share",
        counters.get("coalesced", 0) / served if served else 0.0, served)
    put("service.batcher.fused_width", counters.get("mean_fast_batch", 0.0),
        counters.get("fast_batches", 0))
    submits = by_name.get("service.batcher.Batcher.submit", [])
    put("service.batcher.wait_ms", median([selfs[s["id"]] for s in submits]) * 1e3,
        len(submits))

    probes = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    put("simulation.pool.cache_hit_share",
        counters.get("cache_hits", 0) / probes if probes else 0.0, probes)
    gets = _durations(spans, "simulation.pool.ResultCache.get")
    puts = _durations(spans, "simulation.pool.ResultCache.put")
    put("simulation.pool.cache_get_us", median(gets) * 1e6, len(gets))
    put("simulation.pool.cache_put_us", median(puts) * 1e6, len(puts))
    runs = by_name.get("simulation.pool.run_simulations", [])
    put("simulation.pool.run_self_ms", median([selfs[s["id"]] for s in runs]) * 1e3,
        len(runs))

    batches = by_name.get("simulation.fastpath.simulate_batch", [])
    rows = sum(s["rows"] for s in batches)
    put("simulation.fastpath.ms_per_row",
        sum(s["end"] - s["start"] for s in batches) * 1e3 / rows if rows else 0.0, rows)
    put("simulation.fastpath.width_mean", rows / len(batches) if batches else 0.0,
        len(batches))
    put("simulation.fastpath.des_fallbacks", counters.get("des_fallbacks", 0.0),
        len(batches))

    late = counters.get("late_s", [])
    put("gen.late_p99_ms", percentile(late, 0.99) * 1e3, len(late))

    compute = _window_sums(by_name.get("workloads.miniapps.MiniApp.run", []),
                           counters.get("cycle_windows", []))
    idle = _window_sums(by_name.get("workloads.miniapps.MiniApp.run", []),
                        counters.get("idle_windows", []))
    put("workloads.miniapps.compute_ms", median(compute) * 1e3, len(compute))
    put("workloads.miniapps.compute_idle_ms", median(idle) * 1e3, len(idle))
    local = _durations(spans, "ckpt.backends.local.write_checkpoint")
    partner = _durations(spans, "ckpt.backends.partner.write_checkpoint")
    put("ckpt.backends.local_write_ms", median(local) * 1e3, len(local))
    put("ckpt.backends.partner_write_ms", median(partner) * 1e3, len(partner))
    io = by_name.get("ckpt.backends.io.stage_rank_frames", [])
    io_s = sum(s["end"] - s["start"] - s["wait"] for s in io)
    put("ckpt.backends.io_write_mb_s",
        sum(s["bytes"] for s in io) / io_s / 1e6 if io_s > 0 else 0.0, len(io))
    committed = counters.get("committed", 0)
    put("ckpt.ndp_daemon.drained_share",
        counters.get("drained", 0) / committed if committed else 0.0, committed)

    comp = by_name.get("compression.lz4.compress", [])
    comp_s = sum(s["end"] - s["start"] for s in comp)
    comp_in = sum(s["bytes_in"] for s in comp)
    comp_out = sum(s.get("bytes_out", 0) for s in comp)
    put("compression.lz4.compress_mb_s", comp_in / comp_s / 1e6 if comp_s else 0.0,
        len(comp))
    put("compression.lz4.factor", 1.0 - comp_out / comp_in if comp_in else 0.0, len(comp))
    dec = by_name.get("compression.lz4.decompress", [])
    dec_s = sum(s["end"] - s["start"] for s in dec)
    put("compression.lz4.decompress_mb_s",
        sum(s.get("bytes_out", 0) for s in dec) / dec_s / 1e6 if dec_s else 0.0, len(dec))
    recs = by_name.get("ckpt.restart.recover", [])
    put("ckpt.restart.recover_self_ms", median([selfs[s["id"]] for s in recs]) * 1e3,
        len(recs))

    for name in ("trace.overhead_op_p50_ms", "trace.overhead_cpu_per_op_ms"):
        value, samples = counters.get(name, (0.0, 0))
        put(name, value, samples)
    return out


def _window_sums(spans: list[dict], windows: list[tuple[float, float]]) -> list[float]:
    """Per window, the summed duration of the spans that start inside it."""
    if not windows:
        return []
    starts = sorted((s["start"], s["end"] - s["start"]) for s in spans)
    out = []
    i = 0
    for lo, hi in windows:
        while i < len(starts) and starts[i][0] < lo:
            i += 1
        total = 0.0
        j = i
        while j < len(starts) and starts[j][0] <= hi:
            total += starts[j][1]
            j += 1
        out.append(total)
    return out
