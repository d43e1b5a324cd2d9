"""``mc-grid``: offline figure regeneration through the Monte-Carlo engine.

Each timed pass runs :func:`repro.simulation.simulate_grid` over the
fig6-fig9 config set (141 configs, ten MTTIs of work each) with a
:data:`SEEDS`-seed axis drawn fresh from the workload seed: 564 rows at
wide fused width, in process, ``jobs=1``, no result cache.  After each
pass (outside the timing) :data:`SPOT_CHECKS` sampled rows are re-run
through the event-driven simulator, the reference engine, and must agree
on every field the two engines share exactly.
"""

from __future__ import annotations

import random
import time
from statistics import fmean
from dataclasses import replace
from pathlib import Path

import hostref
from common import Metric, Outcome, fresh_setups, median

MTTIS = 10.0
SEEDS = 4
SPOT_CHECKS = 2

#: Counters both engines must agree on exactly for the exact strategies;
#: ndp's drain clock can move the run's end across one failure time, so
#: for ndp only the failure count is checked, to within one.
_EXACT_FIELDS = ("failures", "recoveries_local", "recoveries_partner", "recoveries_io",
                 "io_checkpoints", "local_checkpoints", "partner_checkpoints")


def grid_configs() -> list:
    """The fig6-fig9 experiment grids, flattened to one config list.

    The set ``benchmarks/record_fastpath.py`` times, built here so the
    workload does not change when that recorder does.
    """
    from repro.experiments import fig6, fig7, fig8, fig9

    flat: list = []

    def walk(item) -> None:
        if isinstance(item, list):
            for sub in item:
                walk(sub)
        else:
            flat.append(item)

    for module in (fig6, fig7, fig8, fig9):
        walk(module.sim_configs(mttis=MTTIS))
    return flat


def _draw_seeds(rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randrange(1 << 30) for _ in range(SEEDS))


def _spot_check(configs: list, grid, seeds: tuple[int, ...], rng: random.Random) -> list[str]:
    """Re-run sampled rows on the DES; return the disagreements found."""
    from repro.simulation import simulate

    problems = []
    for _ in range(SPOT_CHECKS):
        i, j = rng.randrange(len(configs)), rng.randrange(len(seeds))
        cfg = replace(configs[i], seed=seeds[j], engine="des")
        want, got = simulate(cfg), grid.results[i, j]
        if cfg.strategy == "ndp":
            bad = [] if abs(got.failures - want.failures) <= 1 else ["failures"]
        else:
            bad = [f for f in _EXACT_FIELDS if getattr(got, f) != getattr(want, f)]
        if bad:
            problems.append(f"config {i} seed {seeds[j]} ({cfg.strategy}): "
                            f"fast and DES differ on {bad}")
    return problems


def _passes(configs: list, seconds: float, rng: random.Random, out: Outcome,
            refs: list[float]) -> dict:
    """Timed grid passes until ``seconds`` of wall time are used.

    A host-speed sample is taken on this thread before every pass.
    """
    from repro.simulation import simulate_grid

    walls, cpus = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        refs.append(hostref.sample())
        seeds = _draw_seeds(rng)
        c0, t0 = time.process_time(), time.perf_counter()
        grid = simulate_grid(configs, seeds=seeds, jobs=1, cache=None)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        out.attempted += 1
        problems = _spot_check(configs, grid, seeds, rng)
        if problems:
            out.fail("; ".join(problems))
    return {"walls": walls, "cpus": cpus}


def setup(seed: int, scratch: Path) -> list:
    """Build the config set and run one warm pass (seeds fixed by ``seed``)."""
    from repro.simulation import simulate_grid

    configs = grid_configs()
    simulate_grid(configs, seeds=_draw_seeds(random.Random(f"warm-{seed}")), jobs=1,
                  cache=None)
    return configs


def run(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    rng = random.Random(seed)
    out = Outcome()
    refs: list[float] = []
    steal0 = hostref.steal_ticks()
    setup_cpu, setup_wall = ([], []) if trace else fresh_setups("mc-grid", seed, scratch)
    refs.append(hostref.sample())
    configs = setup(seed, scratch)

    plain = _passes(configs, seconds / 2 if trace else seconds, rng, out, refs)
    steal = hostref.steal_share(steal0, hostref.steal_ticks())
    scale = hostref.factor(refs)
    walls, cpus = plain["walls"], plain["cpus"]
    out.e2e = {
        "setup_s": Metric(median(setup_cpu), "s", len(setup_cpu)),
        "cpu_per_op_ms": Metric(fmean(cpus) * scale * 1e3, "ms", len(cpus)),
    }
    out.detail = {
        "grid_p50_s": Metric(median(walls), "s", len(walls)),
        "grid_cpu_p50_s": Metric(median(cpus), "s", len(cpus)),
        "setup_wall_s": Metric(median(setup_wall), "s", len(setup_wall)),
        "rows_per_pass": Metric(len(configs) * SEEDS, "count", len(walls)),
        "spot_checks": Metric(SPOT_CHECKS * len(walls), "count", len(walls)),
        "host_ref_ms": Metric(fmean(refs) * 1e3, "ms", len(refs)),
        "host_steal_share": Metric(steal, "share", len(walls)),
    }
    if trace:
        from layers import install_engine, layer_metrics
        from spans import Tracer, load

        from repro.simulation.fastpath import fallback_total

        tracer = Tracer()
        install_engine(tracer)
        fallbacks = fallback_total()
        try:
            traced = _passes(configs, seconds / 2, rng, out, refs)
        finally:
            tracer.uninstall()
        path = scratch / "spans-mc-grid.jsonl"
        tracer.dump(path)
        t_walls = traced["walls"]
        counters = {
            "des_fallbacks": fallback_total() - fallbacks,
            "trace.overhead_op_p50_ms": ((median(t_walls) - median(walls)) * 1e3,
                                         len(t_walls)),
            "trace.overhead_cpu_per_op_ms": (
                (fmean(traced["cpus"]) - fmean(cpus)) * scale * 1e3, len(t_walls)),
        }
        out.layers = layer_metrics(load(path), counters)
    return out
