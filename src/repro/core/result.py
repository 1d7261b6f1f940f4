"""Results and instrumentation shared by every algorithm."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from repro.model.candidate import Candidate


@dataclass
class Instrumentation:
    """Work counters, independent of Python/NumPy execution speed.

    These make the pruning claims of the paper checkable without
    trusting wall-clock numbers: ``pairs_pruned_ia`` and
    ``pairs_pruned_nib`` quantify Fig 10; ``positions_evaluated``
    versus ``positions_total`` quantifies Strategy 2 (the "67 percent
    unnecessary position validation" claim).
    """

    #: object-candidate pairs considered in total (live objects × candidates)
    pairs_total: int = 0
    #: pairs resolved by the influence-arcs rule (certainly influenced)
    pairs_pruned_ia: int = 0
    #: pairs resolved by the non-influence boundary (certainly not)
    pairs_pruned_nib: int = 0
    #: pairs that entered exact validation
    pairs_validated: int = 0
    #: objects discarded up front because minMaxRadius is undefined
    dead_objects: int = 0
    #: positions a full validation of all validated pairs would touch
    positions_total: int = 0
    #: positions actually evaluated (Strategy 2 stops early)
    positions_evaluated: int = 0
    #: validations ended early by Lemma 4
    early_stops: int = 0
    #: validations ended early by the fail-fast bound (extension)
    fail_fast_stops: int = 0
    #: candidates whose validation ran to completion (PIN-VO)
    candidates_fully_validated: int = 0
    #: candidates never popped, or abandoned mid-validation (Strategy 1)
    candidates_skipped_strategy1: int = 0
    #: heap pops performed by PIN-VO
    heap_pops: int = 0
    #: wall-clock seconds spent in the pruning phase (IA/NIB
    #: classification, including index construction/queries); when a
    #: query is split across pool workers this is the *sum* of
    #: per-span phase times, i.e. aggregate work, not wall time
    pruning_seconds: float = 0.0
    #: wall-clock seconds spent in exact validation (same sharding caveat)
    validation_seconds: float = 0.0
    #: pool span dispatches that died or raised while answering
    #: (only the serving engine's supervised path ever sets these)
    worker_failures: int = 0
    #: span re-dispatches performed after a worker failure
    retries: int = 0
    #: 1 when the query fell back to in-parent serial execution after
    #: exhausting its retry budget (kept as an int so merge() stays
    #: uniformly additive; any nonzero value means "degraded")
    degraded: int = 0
    #: span tasks this query handed to the persistent worker pool,
    #: including re-dispatches after failures (0 on the serial tier)
    spans_dispatched: int = 0
    #: pool workers killed and replaced while this query (or the batch
    #: round serving it) ran (0 on the serial tier)
    pool_respawns: int = 0
    #: engine cache entries evicted while this query was served (the
    #: serving engine's bounded LRU caches; 0 outside the engine)
    cache_evictions: int = 0
    #: position updates absorbed by a safe region with zero candidate
    #: work (subscription maintenance only; 0 for one-shot)
    safe_region_hits: int = 0

    def merge(self, other: "Instrumentation") -> None:
        """Accumulate another shard's (or phase's) counters into this one.

        Every field is additive — integer work counters and the
        per-phase second accumulators alike — so merging worker-process
        shards reproduces the serial counters exactly.
        """
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @contextmanager
    def phase(self, name: str):
        """Time a ``with`` block into ``pruning_seconds``/``validation_seconds``."""
        attr = f"{name}_seconds"
        if not hasattr(self, attr):
            raise ValueError(f"unknown phase {name!r}")
        started = time.perf_counter()
        try:
            yield
        finally:
            setattr(self, attr, getattr(self, attr) + time.perf_counter() - started)

    def pruned_fraction(self) -> float:
        """Fraction of object-candidate pairs resolved without validation."""
        if self.pairs_total == 0:
            return 0.0
        return (self.pairs_pruned_ia + self.pairs_pruned_nib) / self.pairs_total

    def position_savings(self) -> float:
        """Fraction of validation positions skipped by early stopping."""
        if self.positions_total == 0:
            return 0.0
        return 1.0 - self.positions_evaluated / self.positions_total


def full_table_result(
    algorithm: str,
    candidates,
    influence,
    counters: "Instrumentation",
) -> "LSResult":
    """Build an :class:`LSResult` from a full influence table.

    ``influence`` is indexable by candidate position (an array or a
    dict).  The winner is the highest influence, ties broken by the
    lowest candidate index — every full-table path (NA, PIN, and the
    engine's sharded merges) goes through here so the tie-break is a
    single piece of code.
    """
    influences = {j: int(influence[j]) for j in range(len(influence))}
    best_idx = max(influences, key=lambda idx: (influences[idx], -idx))
    return LSResult(
        algorithm=algorithm,
        best_candidate=candidates[best_idx],
        best_influence=influences[best_idx],
        influences=influences,
        elapsed_seconds=0.0,
        instrumentation=counters,
    )


@dataclass
class LSResult:
    """The outcome of one location-selection run.

    ``influences`` maps candidate index (position in the input list) to
    the exact influence value, for algorithms that compute the full
    table (NA, PIN).  PIN-VO terminates as soon as the winner is
    certified, so it reports exact influence only for candidates it
    fully validated (others are absent).
    """

    algorithm: str
    best_candidate: Candidate
    best_influence: int
    influences: dict[int, int]
    elapsed_seconds: float
    instrumentation: Instrumentation = field(default_factory=Instrumentation)
    #: "exact" for every algorithm result; "approx" when the serving
    #: engine answered from an influence sketch (the influences are
    #: then estimates, not exact counts)
    quality: str = "exact"
    #: absolute error bound advertised with an approximate answer
    #: (``|estimate - inf(c)| <= error_bound`` for every candidate,
    #: with the sketch's confidence); ``None`` on exact results
    error_bound: float | None = None

    def ranking(self) -> list[tuple[int, int]]:
        """Candidate indexes sorted by influence (descending), ties by index."""
        return sorted(self.influences.items(), key=lambda kv: (-kv[1], kv[0]))

    def top_k(self, k: int) -> list[int]:
        """Indexes of the ``k`` most influential candidates."""
        return [idx for idx, _ in self.ranking()[:k]]

    def to_dict(self) -> dict:
        """A JSON-serialisable summary of the run."""
        from dataclasses import asdict

        return {
            "algorithm": self.algorithm,
            "best_candidate": {
                "candidate_id": self.best_candidate.candidate_id,
                "x": self.best_candidate.x,
                "y": self.best_candidate.y,
                "label": self.best_candidate.label,
            },
            "best_influence": self.best_influence,
            "influences": {str(k): v for k, v in self.influences.items()},
            "elapsed_seconds": self.elapsed_seconds,
            "quality": self.quality,
            "error_bound": self.error_bound,
            "instrumentation": asdict(self.instrumentation),
        }

    def save_json(self, path) -> None:
        """Write :meth:`to_dict` to ``path`` as indented JSON."""
        import json
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
