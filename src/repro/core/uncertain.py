"""PRIME-LS over uncertain positions (possible-worlds semantics).

The related work the paper contrasts against ([5] Cheema et al.,
[13] Zhan et al., [15] Zheng et al.) studies location selection over
*uncertain* objects under possible-worlds semantics.  This module
brings that setting to PRIME-LS: each recorded position carries
Gaussian measurement noise, a *possible world* is one realisation of
every position, and an object counts for a candidate in a world when
its realised cumulative probability reaches ``τ``.  The quantity of
interest is

``P_influenced(c, O) = Pr_world[ Pr_c(O | world) ≥ τ ]``

estimated by Monte Carlo over shared worlds (common random numbers
across candidates, which both reduces comparison variance and keeps
results deterministic given a seed).  A candidate's *expected
influence* is the sum of these probabilities over objects.

With ``sigma_km = 0`` every world coincides with the recorded data and
the solver reduces exactly to PRIME-LS (asserted in tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.base import candidates_to_array
from repro.core.influence import (
    distances,
    influence_threshold_log,
    log1m_safe,
)
from repro.core.result import Instrumentation
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob.base import ProbabilityFunction


@dataclass
class UncertainResult:
    """Monte-Carlo estimates of influence under positional uncertainty."""

    expected_influence: dict[int, float]
    influence_probability: list[np.ndarray]  # per candidate: (r,) array
    worlds: int
    best_index: int
    instrumentation: Instrumentation = field(default_factory=Instrumentation)

    def confidence_halfwidth(self, candidate_index: int, z: float = 1.96) -> float:
        """Normal-approximation CI half-width of the expected influence.

        Sums the per-object Bernoulli variances from the estimated
        probabilities; for ``worlds`` shared samples the variance of
        the total is the variance of the per-world influence count —
        approximated here by independent-object Bernoullis, which
        upper-bounds nothing in general but matches closely when
        objects' noise is independent (as generated).
        """
        p = self.influence_probability[candidate_index]
        var = float(np.sum(p * (1.0 - p))) / self.worlds
        return z * math.sqrt(var)


class UncertainPrimeLS:
    """Monte-Carlo PRIME-LS over Gaussian positional uncertainty."""

    def __init__(self, sigma_km: float, worlds: int = 64, seed: int = 0):
        if sigma_km < 0:
            raise ValueError(f"sigma_km must be non-negative, got {sigma_km}")
        if worlds < 1:
            raise ValueError(f"worlds must be >= 1, got {worlds}")
        self.sigma_km = sigma_km
        self.worlds = worlds
        self.seed = seed

    def select(
        self,
        objects: Sequence[MovingObject],
        candidates: Sequence[Candidate],
        pf: ProbabilityFunction,
        tau: float,
    ) -> UncertainResult:
        """Estimate every candidate's expected influence; pick the best."""
        if not objects or not candidates:
            raise ValueError("need at least one object and one candidate")
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        counters = Instrumentation()
        cand_xy = candidates_to_array(list(candidates))
        m = cand_xy.shape[0]
        r = len(objects)
        log_threshold = influence_threshold_log(tau)
        rng = np.random.default_rng(self.seed)

        # Pre-draw the shared worlds: per object, (worlds, n, 2) noise.
        hits = np.zeros((m, r), dtype=np.int32)
        for i, obj in enumerate(objects):
            base = obj.positions
            if self.sigma_km > 0:
                noise = rng.normal(
                    0.0, self.sigma_km, size=(self.worlds, *base.shape)
                )
                worlds = base[None, :, :] + noise
            else:
                worlds = np.broadcast_to(base, (self.worlds, *base.shape))
            # For each candidate: log non-influence per world.
            flat = worlds.reshape(-1, 2)
            for j in range(m):
                d = distances(flat[:, 0], flat[:, 1], cand_xy[j, 0], cand_xy[j, 1])
                logs = log1m_safe(pf(d)).reshape(self.worlds, -1).sum(axis=1)
                hits[j, i] = int(np.count_nonzero(logs <= log_threshold))
                counters.positions_evaluated += flat.shape[0]
            counters.pairs_validated += m
        probabilities = hits.astype(float) / self.worlds
        expected = {j: float(probabilities[j].sum()) for j in range(m)}
        best_index = max(expected, key=lambda j: (expected[j], -j))
        return UncertainResult(
            expected_influence=expected,
            influence_probability=[probabilities[j] for j in range(m)],
            worlds=self.worlds,
            best_index=best_index,
            instrumentation=counters,
        )
