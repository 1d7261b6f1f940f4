"""Per-candidate influence sketches: sublinear approximate ``inf(c)``.

The exact algorithms answer ``inf(c) = |{O : Pr_c(O) >= tau}|`` by
touching every live object (and, inside the validation band, every
position).  At the scale ladder's 10^5-object rung that is seconds per
query — far too slow to serve as an overload escape hatch.  This module
trades a bounded amount of accuracy for a few orders of magnitude of
work, following the influence-oracle construction of Cohen et al.
("Distance-Based Influence in Networks"): a *distance sketch* built
once per ``(fleet, PF, tau)`` answers influence queries in time
sublinear in the object count with a provable (epsilon, delta) bound.

**Sketch.** A bottom-k/KMV-style sample of the live objects: each
object id is hashed through a seeded ``splitmix64`` and the ``k``
smallest hashes are kept — a uniform sample without replacement that is
deterministic under a fixed seed, independent of the geometry, and
mergeable across fleets (the bottom-k of a union is the bottom-k of the
per-fleet bottom-k unions).  For every sampled object the sketch
gathers its MBR and ``minMaxRadius`` from the table and its positions
from the fleet's columnar export (:attr:`ObjectTable.fleet`), so an
estimate runs the exact IA/NIB classification and the Strategy-2
``log_non_influence`` partial-sum validation — the same kernels as the
exact path — restricted to the ``k`` sampled objects.

**Estimator.** With ``h`` of the ``k`` sampled objects influenced by a
candidate, ``inf(c)`` is estimated as ``N * h / k`` (``N`` live
objects).  The estimator is unbiased, and exact whenever ``k >= N``
(the sample is the whole fleet).

**Bound.** Hoeffding's inequality holds for sampling without
replacement (Hoeffding 1963, section 6), so for a single candidate,
with probability at least ``1 - delta``::

    |estimate - inf(c)| <= N * sqrt(ln(2 / delta) / (2 k))

:meth:`InfluenceSketch.error_bound` generalises the bound to a query of
``m`` candidates by a union bound (``delta / m`` per candidate), which
is what the serving engine advertises on an approximate response.  The
bound is 0 when the sample is exhaustive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.influence import (
    batch_validate_spans,
    influence_threshold_log,
    span_index,
)
from repro.core.object_table import ObjectTable
from repro.core.pruning import classify_span
from repro.core.result import Instrumentation

#: default sample size — at the 10^5 rung this is a 100x reduction in
#: objects touched while keeping the advertised bound ~6% of N
DEFAULT_SKETCH_K = 1024
#: default per-estimate failure probability (the bound holds with
#: probability >= 1 - delta); small enough that the hypothesis suite's
#: random fleets cannot realistically produce a violation
DEFAULT_SKETCH_DELTA = 1e-4
#: default hash seed — fixed so sketches are reproducible run-to-run
DEFAULT_SKETCH_SEED = 0x5EED

_U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(values: np.ndarray, seed: int) -> np.ndarray:
    """Vectorised splitmix64 of ``values`` offset by a seeded stream.

    A bijection on uint64, so distinct object ids always hash
    distinctly — bottom-k selection never ties.
    """
    z = values.astype(_U64, copy=True)
    z += _U64((seed * _GOLDEN) & 0xFFFFFFFFFFFFFFFF)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


@dataclass(frozen=True)
class InfluenceEstimate:
    """One candidate's estimated influence with its advertised bound."""

    #: the estimate ``N * h / k`` (an exact integer count when
    #: :attr:`exact` is true)
    estimate: float
    #: absolute error bound: ``|estimate - inf(c)| <= bound`` with
    #: probability >= ``1 - delta`` (0.0 when :attr:`exact`)
    bound: float
    #: influenced objects among the sampled ``k``
    sample_hits: int
    #: effective sample size (``min(k, N)``)
    sample_size: int
    #: live objects in the sketched fleet
    population: int
    #: the sample is exhaustive — the estimate *is* ``inf(c)``
    exact: bool


class InfluenceSketch:
    """A bottom-k influence sketch of one ``(fleet, PF, tau)`` table.

    Build once with :meth:`build`, then ask :meth:`estimate` (one
    candidate) or :meth:`estimate_many` (a query's candidate array) —
    each estimate touches only the ``k`` sampled objects, so the cost
    per candidate is O(k) instead of O(total positions).
    """

    def __init__(
        self,
        *,
        pf,
        tau: float,
        population: int,
        k: int,
        seed: int,
        delta: float,
        sampled_ids: np.ndarray,
        xy: np.ndarray,
        offsets: np.ndarray,
        mbrs: np.ndarray,
        radii: np.ndarray,
    ):
        self.pf = pf
        self.tau = float(tau)
        self.log_threshold = influence_threshold_log(tau)
        self.population = int(population)
        self.k = int(k)
        self.seed = int(seed)
        self.delta = float(delta)
        self.sampled_ids = sampled_ids
        #: the sampled objects' ``(2, Σn)`` x/y block (object ``i``
        #: owns columns ``offsets[i]:offsets[i+1]``)
        self.xy = xy
        self.offsets = offsets
        self.mbrs = mbrs
        self.radii = radii
        #: scale from sample hits to the population estimate
        self.scale = (
            self.population / self.k if self.k else 0.0
        )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        table: ObjectTable,
        k: int = DEFAULT_SKETCH_K,
        seed: int = DEFAULT_SKETCH_SEED,
        delta: float = DEFAULT_SKETCH_DELTA,
    ) -> "InfluenceSketch":
        """Sketch ``table``'s live objects (bottom-k of hashed ids).

        Reads only the table's columns and its fleet export.
        Deterministic: same table contents, same ``seed`` — same
        sketch.
        """
        if k < 1:
            raise ValueError(f"sketch k must be >= 1, got {k}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        fleet = table.fleet
        object_ids = fleet.object_ids[table.rows]
        n = table.live_count
        k_eff = min(int(k), n)
        if k_eff == 0:
            sel = np.empty(0, dtype=np.int64)
        else:
            hashes = _splitmix64(object_ids, seed)
            # stable sort so duplicate ids (hash ties) keep row order
            sel = np.sort(np.argsort(hashes, kind="stable")[:k_eff])
        rows = table.rows[sel]
        starts = fleet.offsets[rows]
        lengths = fleet.offsets[rows + 1] - starts
        index, prefix = span_index(starts, lengths)
        return cls(
            pf=table.pf,
            tau=table.tau,
            population=n,
            k=k_eff,
            seed=seed,
            delta=delta,
            sampled_ids=object_ids[sel],
            xy=np.take(fleet.xy, index, axis=1),
            offsets=np.append(prefix, index.size),
            mbrs=table.mbrs[sel],
            radii=table.radii[sel],
        )

    @property
    def exact(self) -> bool:
        """Whether the sample covers every live object."""
        return self.k >= self.population

    @property
    def nbytes(self) -> int:
        """Bytes held by the sketch arrays (prices LRU cache entries)."""
        return int(
            self.xy.nbytes + self.offsets.nbytes
            + self.mbrs.nbytes + self.radii.nbytes
            + self.sampled_ids.nbytes
        )

    def error_bound(self, m: int = 1) -> float:
        """Absolute error bound advertised for an ``m``-candidate query.

        Holds simultaneously for every one of the ``m`` estimates with
        probability at least ``1 - delta`` (Hoeffding for sampling
        without replacement, union-bounded across candidates).  0.0
        when the sample is exhaustive — the estimates are exact counts.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if self.exact or self.k == 0:
            return 0.0
        eps = math.sqrt(math.log(2.0 * m / self.delta) / (2.0 * self.k))
        return min(float(self.population), self.population * eps)

    # ------------------------------------------------------------------
    def estimate_many(
        self,
        cand_xy: np.ndarray,
        counters: Instrumentation | None = None,
    ) -> np.ndarray:
        """Estimated influence for every row of ``cand_xy``.

        Runs the exact IA/NIB classification over the ``(k, m)`` sample
        x candidate grid, then the Strategy-2 partial-sum validation
        for the band pairs only — the same kernels as the exact path,
        so an exhaustive sample reproduces exact influence bit-for-bit.
        Returns a float array of ``N * h / k`` estimates.
        """
        m = int(cand_xy.shape[0])
        if self.k == 0 or m == 0:
            return np.zeros(m, dtype=float)
        ia, band = classify_span(self.mbrs, self.radii, cand_xy)
        counts = ia.sum(axis=0).astype(np.int64)
        if counters is not None:
            counters.pairs_pruned_ia += int(counts.sum())
            band_total = int(band.sum())
            counters.pairs_pruned_nib += self.k * m - band_total - int(
                counts.sum()
            )
        for j in range(m):
            idx = np.nonzero(band[:, j])[0]
            if idx.size == 0:
                continue
            influenced = batch_validate_spans(
                self.pf, self.xy, self.offsets, idx,
                float(cand_xy[j, 0]), float(cand_xy[j, 1]),
                self.log_threshold, counters,
            )
            counts[j] += int(np.count_nonzero(influenced))
        return counts * self.scale

    def estimate(self, x: float, y: float) -> InfluenceEstimate:
        """Estimate one candidate location's influence."""
        cand_xy = np.array([[float(x), float(y)]])
        estimate = float(self.estimate_many(cand_xy)[0])
        hits = (
            int(round(estimate / self.scale)) if self.scale else 0
        )
        return InfluenceEstimate(
            estimate=estimate,
            bound=self.error_bound(1),
            sample_hits=hits,
            sample_size=self.k,
            population=self.population,
            exact=self.exact,
        )
