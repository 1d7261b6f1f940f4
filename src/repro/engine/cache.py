"""Bounded-memory LRU caches for the serving engine.

PR 1's ``QueryEngine`` caches (per-``(PF, τ)`` object tables, candidate
arrays, R-trees, PIN-VO pruning output) were unbounded — the right call
for a session seeing a small recurring workload, but a memory leak for
the ROADMAP's "heavy traffic" north star: every distinct tenant grows
the resident set forever.  :class:`LRUCache` converts each of them to a
least-recently-used structure with configurable entry and byte budgets,
and :class:`CacheBudget` groups the per-cache knobs (plus the cap on
the in-memory metrics record list) into one engine-level config.

Eviction is by recency: a ``get`` hit refreshes an entry, a ``put``
beyond budget evicts from the cold end.  Evictions are counted per
cache and surfaced through :class:`~repro.engine.session.EngineStats`,
``cache_info()``, ``health()``, and the JSONL metrics, so an operator
can see cache pressure instead of discovering it as an OOM kill.  A
single entry larger than the byte budget is kept (a cache of one) —
evicting it would only force the next query to rebuild it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable


@dataclass(frozen=True)
class CacheBudget:
    """Entry/byte budgets for the engine's caches and record log.

    Defaults are sized for a serving session with a handful of
    recurring ``(PF, τ)`` tenants; shrink them to run under memory
    pressure (every cache stays correct at any budget — a miss only
    costs recomputation, never a wrong answer).
    """

    #: per-(PF, τ) object tables — the big entries (positions + memos)
    max_tables: int = 8
    #: candidate coordinate arrays, keyed by the coordinate bytes
    max_candidate_sets: int = 256
    #: bulk-loaded candidate R-trees
    max_rtrees: int = 64
    #: PIN-VO pruning outputs (minInf + verification sets)
    max_prunings: int = 128
    #: byte ceiling across all cached pruning outputs
    max_pruning_bytes: int = 64 * 2**20
    #: per-(PF, τ) influence sketches serving the approximate tier
    max_sketches: int = 16
    #: byte ceiling across all cached sketches (position blocks
    #: dominate; ~k x ~12 positions x 16 bytes each)
    max_sketch_bytes: int = 32 * 2**20
    #: in-memory JSONL record copies kept on the engine (the JSONL
    #: *file* stays append-only and is never truncated)
    max_records: int = 10_000

    def __post_init__(self):
        for name in (
            "max_tables", "max_candidate_sets", "max_rtrees",
            "max_prunings", "max_pruning_bytes", "max_sketches",
            "max_sketch_bytes", "max_records",
        ):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )


class LRUCache:
    """A dict-like mapping with entry/byte budgets and LRU eviction.

    Supports the mapping operations the engine uses (``get``, ``[]``,
    ``in``, ``len``) so converting an unbounded ``dict`` cache is a
    drop-in change.  ``sizeof`` (when given) prices each value for the
    byte budget; ``evictions`` counts entries dropped over the cache's
    lifetime.
    """

    def __init__(
        self,
        name: str,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        sizeof: Callable[[Any], int] | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_bytes is not None and sizeof is None:
            raise ValueError("a byte budget needs a sizeof callback")
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._sizeof = sizeof
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self.current_bytes = 0
        self.evictions = 0
        #: lifetime ``get`` outcomes, feeding the per-cache hit-ratio
        #: metrics (``pinls_cache_hits_total``/``..._misses_total``)
        self.hits = 0
        self.misses = 0

    # -- mapping protocol ----------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value (refreshing its recency), or ``default``."""
        if key not in self._data:
            self.misses += 1
            return default
        self.hits += 1
        self._data.move_to_end(key)
        return self._data[key]

    def __getitem__(self, key: Hashable) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def put(self, key: Hashable, value: Any) -> int:
        """Insert/replace ``key`` and evict to budget; evictions made."""
        if key in self._data:
            self.current_bytes -= self._sizes.pop(key, 0)
            del self._data[key]
        self._data[key] = value
        if self._sizeof is not None:
            size = int(self._sizeof(value))
            self._sizes[key] = size
            self.current_bytes += size
        return self._evict_to_budget()

    def keys(self):
        """The cached keys, coldest first (no recency refresh)."""
        return self._data.keys()

    # -- eviction ------------------------------------------------------
    def _exceeds_budget(self) -> bool:
        if self.max_entries is not None and len(self._data) > self.max_entries:
            return True
        if self.max_bytes is not None and self.current_bytes > self.max_bytes:
            return True
        return False

    def _evict_to_budget(self) -> int:
        evicted = 0
        # Never evict the sole remaining entry: an oversized single
        # value is cheaper to keep than to rebuild on every query.
        while len(self._data) > 1 and self._exceeds_budget():
            key, _value = self._data.popitem(last=False)
            self.current_bytes -= self._sizes.pop(key, 0)
            evicted += 1
        self.evictions += evicted
        return evicted

    def trim(self, max_entries: int = 1) -> int:
        """Evict down to ``max_entries`` (memory-pressure response)."""
        evicted = 0
        while len(self._data) > max(1, max_entries):
            key, _value = self._data.popitem(last=False)
            self.current_bytes -= self._sizes.pop(key, 0)
            evicted += 1
        self.evictions += evicted
        return evicted

    # -- observability -------------------------------------------------
    def occupancy(self) -> dict:
        """One cache's health-probe snapshot: fill, budgets, evictions."""
        out: dict = {
            "entries": len(self._data),
            "max_entries": self.max_entries,
            "evictions": self.evictions,
            "hits": self.hits,
            "misses": self.misses,
        }
        if self.max_bytes is not None:
            out["bytes"] = self.current_bytes
            out["max_bytes"] = self.max_bytes
        return out


#: sentinel distinguishing "missing" from a cached ``None``
_MISSING = object()
