"""The in-process response tier: warm ``/v1/simulate`` answers at admission.

Most service traffic repeats a question already answered.  The on-disk
:class:`~repro.simulation.pool.ResultCache` makes such a repeat cheap to
*compute*, but reaching it still costs a batch window, a dispatch slot,
an executor hop, a JSON read and parse, and a fresh render.  This tier
sits in front of all of that: a bounded LRU in the server process, keyed
by :func:`~repro.simulation.pool.config_key`, whose entries hold the
:class:`~repro.simulation.stats.SimulationResult` together with its
rendered ``/v1/simulate`` body.  The server looks a request up
synchronously, before the coalescer; a hit is answered without an await,
so it can never be shed or expired behind running batches.

The bytes are the response by construction: ``canonical_dumps`` is
deterministic and the key already folds in ``CACHE_SCHEMA``, so an entry
can only be served for the exact config (and simulator semantics) that
produced it.  The tier is bounded by rendered bytes, not entry count, and
evicts least recently used entries first.  It is per process: prefork
workers each keep their own, and the shared disk tier stays the
cross-worker and cross-restart layer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

from ..simulation.pool import TIER_EVICTED, TIER_HITS, TIER_MISSES
from ..simulation.stats import SimulationResult

__all__ = ["RESPONSE_TIER_BYTES", "ResponseTier", "TierEntry"]

#: Rendered bytes the tier may hold: about 70k responses of ~460 B each.
RESPONSE_TIER_BYTES = 32 * 1024 * 1024


class TierEntry(NamedTuple):
    """One cached answer: the result and its rendered response body."""

    result: SimulationResult
    body: bytes


class ResponseTier:
    """Bounded LRU of :class:`TierEntry` keyed by config hash.

    Every method is synchronous and touches no I/O; the server calls it
    from the event loop only, so no lock is needed.
    """

    def __init__(self, max_bytes: int = RESPONSE_TIER_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1: {max_bytes}")
        self.max_bytes = max_bytes
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evicted = 0
        self._entries: OrderedDict[str, TierEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> TierEntry | None:
        """The entry for ``key`` (now most recently used), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            TIER_MISSES.inc(tier="memory")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        TIER_HITS.inc(tier="memory")
        return entry

    def put(self, key: str, result: SimulationResult, body: bytes) -> None:
        """Insert (or refresh) ``key``, evicting the least recently used
        entries until the rendered bytes fit the bound.  A body larger
        than the whole bound is not kept."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= len(old.body)
        if len(body) > self.max_bytes:
            return
        self._entries[key] = TierEntry(result, body)
        self.bytes += len(body)
        while self.bytes > self.max_bytes:
            _, dropped = self._entries.popitem(last=False)
            self.bytes -= len(dropped.body)
            self.evicted += 1
            TIER_EVICTED.inc(tier="memory")

    def stats(self) -> dict:
        """Counters and occupancy for ``/stats``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": 0,
            "evicted": self.evicted,
            "entries": len(self._entries),
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
        }
