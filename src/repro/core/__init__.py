"""The paper's contribution: PRIME-LS and the PINOCCHIO algorithms.

Contents map directly onto the paper:

* :mod:`repro.core.minmax_radius` — Definition 5 and its per-``n``
  memo (the HashMap ``HM`` of Algorithm 1),
* :mod:`repro.core.influence` — cumulative influence probability
  (Definition 1), partial non-influence (Definition 4) and the
  validation kernels (including Strategy 2 early stopping, Lemma 4),
* :mod:`repro.core.object_table` — the moving-object 2-D array
  ``A2D`` (Algorithm 1),
* :mod:`repro.core.pruning` — the IA and NIB pruning rules
  (Lemmas 2-3) applied through the candidate R-tree,
* :mod:`repro.core.naive` — the exhaustive baseline NA,
* :mod:`repro.core.pinocchio` — Algorithm 2 (PINOCCHIO),
* :mod:`repro.core.pinocchio_vo` — Algorithm 3 (PINOCCHIO-VO) and the
  PIN-VO* variant without the pruning phase,
* :mod:`repro.core.safe_region` — safe-region margins over the
  IA/NIB geometry: the deformation budget within which a position
  update cannot flip any candidate's verdict (the §7 dynamic
  scenarios are served by
  :class:`repro.engine.subscriptions.SubscriptionEngine`),
* :mod:`repro.core.sketch` — bottom-k influence sketches: sublinear
  approximate ``inf(c)`` with a provable error bound (the serving
  engine's approximate tier).
"""

from repro.core.minmax_radius import MinMaxRadiusCache, min_max_radius
from repro.core.influence import (
    cumulative_probability,
    log_non_influence,
    validate_pair,
)
from repro.core.object_table import ObjectTable
from repro.core.safe_region import margins_span
from repro.core.result import Instrumentation, LSResult
from repro.core.naive import NaiveAlgorithm
from repro.core.pinocchio import Pinocchio
from repro.core.pinocchio_vo import PinocchioVO, PinocchioVOStar
from repro.core.topk import TopKPrimeLS, top_k_locations
from repro.core.grid_ls import GridPartitionLS
from repro.core.competitive import CompetitivePrimeLS
from repro.core.weighted import WeightedPrimeLS
from repro.core.portfolio import (
    exact_portfolio,
    greedy_portfolio,
    influence_bitsets,
)
from repro.core.uncertain import UncertainPrimeLS, UncertainResult
from repro.core.sketch import (
    DEFAULT_SKETCH_DELTA,
    DEFAULT_SKETCH_K,
    DEFAULT_SKETCH_SEED,
    InfluenceEstimate,
    InfluenceSketch,
)

__all__ = [
    "WeightedPrimeLS",
    "greedy_portfolio",
    "exact_portfolio",
    "influence_bitsets",
    "UncertainPrimeLS",
    "UncertainResult",
    "GridPartitionLS",
    "CompetitivePrimeLS",
    "TopKPrimeLS",
    "top_k_locations",
    "MinMaxRadiusCache",
    "min_max_radius",
    "cumulative_probability",
    "log_non_influence",
    "validate_pair",
    "ObjectTable",
    "margins_span",
    "Instrumentation",
    "LSResult",
    "NaiveAlgorithm",
    "Pinocchio",
    "PinocchioVO",
    "PinocchioVOStar",
    "InfluenceSketch",
    "InfluenceEstimate",
    "DEFAULT_SKETCH_K",
    "DEFAULT_SKETCH_DELTA",
    "DEFAULT_SKETCH_SEED",
]
