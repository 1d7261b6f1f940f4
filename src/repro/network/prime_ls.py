"""Exact PRIME-LS under shortest-path (road-network) distances.

Objects' positions and candidate locations are snapped to network
nodes; the influence probability of candidate ``c`` on a position at
node ``v`` is ``PF(spdist(c, v))``.  Unreachable nodes contribute
probability zero.

Pruning: network distance dominates Euclidean distance
(``spdist ≥ dist``), so ``PF(spdist) ≤ PF(dist)`` and Theorem 2 applied
with *Euclidean* ``minDist(c, MBR(O))`` remains sound — a candidate
outside the Euclidean non-influence boundary cannot influence the
object under any road network either.  The split is the guarded
:func:`repro.core.pruning.classify_span` of every other exact solver.
The influence-arcs rule (Theorem 1) does **not** survive the metric
change, so IA pairs are validated like band pairs.

Per candidate, one Dijkstra resolves every surviving pair.  In exact
mode the Dijkstra is unbounded; the optional bounded mode cuts it at
the largest surviving ``minMaxRadius`` and treats beyond-cutoff
positions as probability zero — a *conservative approximation* that
can only under-count influence (their true contributions are small but
positive), useful on large networks with heavy-tailed PFs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.base import LocationSelector, candidates_to_array
from repro.core.influence import influence_threshold_log
from repro.core.object_table import ObjectTable
from repro.core.pruning import classify_span
from repro.core.result import Instrumentation, LSResult
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.network.graph import RoadNetwork
from repro.prob.base import ProbabilityFunction


class NetworkPrimeLS(LocationSelector):
    """PRIME-LS with shortest-path distances over a road network."""

    name = "NET"

    def __init__(self, network: RoadNetwork, exact: bool = True):
        """``exact=True`` runs unbounded Dijkstra per candidate;
        ``exact=False`` bounds it by the per-instance maximum
        ``minMaxRadius``, dropping the (small, positive) contributions
        of beyond-cutoff positions — influence counts can only be
        under-estimated, never over-estimated."""
        self.network = network
        self.exact = exact

    def _run(
        self,
        objects: list[MovingObject],
        candidates: list[Candidate],
        pf: ProbabilityFunction,
        tau: float,
    ) -> LSResult:
        counters = Instrumentation()
        table = ObjectTable(objects, pf, tau)
        counters.dead_objects = table.dead_objects
        m = len(candidates)
        counters.pairs_total = table.live_count * m
        log_threshold = influence_threshold_log(tau)
        mbrs, radii = table.mbr_radius_arrays()

        # Snap everything to network nodes once.
        object_nodes = [
            [
                self.network.snap(float(x), float(y))
                for x, y in table.positions(i)
            ]
            for i in range(table.live_count)
        ]
        candidate_nodes = [self.network.snap(c.x, c.y) for c in candidates]

        cutoff = None if self.exact else float(radii.max(initial=0.0))

        # Euclidean NIB pruning, sound because spdist >= dist: only the
        # pairs the guarded split does not NIB-prune are validated,
        # IA pairs included (Theorem 1 does not hold on the network).
        ia, band = classify_span(mbrs, radii, candidates_to_array(candidates))
        survivors = ia | band
        influence = np.zeros(m, dtype=int)
        for j in range(m):
            dists = self.network.shortest_path_lengths(
                candidate_nodes[j], cutoff=cutoff
            )
            rows = np.flatnonzero(survivors[:, j])
            counters.pairs_pruned_nib += table.live_count - rows.size
            for i in rows.tolist():
                counters.pairs_validated += 1
                counters.positions_total += len(object_nodes[i])
                s = self._log_non_influence(
                    object_nodes[i], dists, pf, counters
                )
                if s <= log_threshold:
                    influence[j] += 1
        influences = {j: int(influence[j]) for j in range(m)}
        best_idx = max(influences, key=lambda idx: (influences[idx], -idx))
        return LSResult(
            algorithm=self.name,
            best_candidate=candidates[best_idx],
            best_influence=influences[best_idx],
            influences=influences,
            elapsed_seconds=0.0,
            instrumentation=counters,
        )

    @staticmethod
    def _log_non_influence(
        nodes: list[int],
        dists: dict[int, float],
        pf: ProbabilityFunction,
        counters: Instrumentation,
    ) -> float:
        """``Σ log(1 − PF(spdist))`` with unreachable nodes as zero
        probability (they only make influence *less* likely)."""
        s = 0.0
        for node in nodes:
            counters.positions_evaluated += 1
            d = dists.get(node)
            if d is None:
                continue  # unreachable or beyond cutoff: p = 0
            p = float(pf(d))
            s += math.log1p(-p) if p < 1.0 else -math.inf
        return s


def network_influence_of(
    network: RoadNetwork,
    obj: MovingObject,
    candidate: Candidate,
    pf: ProbabilityFunction,
) -> float:
    """Reference: exact cumulative probability via per-pair Dijkstra.

    Used by tests; O(positions) shortest-path queries, no pruning.
    """
    cand_node = network.snap(candidate.x, candidate.y)
    s = 0.0
    for x, y in obj.positions:
        node = network.snap(float(x), float(y))
        d = network.network_distance(cand_node, node)
        if math.isinf(d):
            continue
        p = float(pf(d))
        s += math.log1p(-p) if p < 1.0 else -math.inf
    return -math.expm1(s)
