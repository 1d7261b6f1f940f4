"""Cumulative influence probability and the validation kernels.

Definition 1: ``Pr_c(O) = 1 − Π_i (1 − Pr_c(p_i))`` with
``Pr_c(p_i) = PF(dist(c, p_i))``.

All kernels work in log space — ``S = Σ log(1 − p_i)`` — so that
objects with hundreds of positions cannot underflow the product, and
the influence test ``Pr_c(O) ≥ τ`` becomes ``S ≤ log(1 − τ)``.

Two execution styles are provided and cross-checked by the tests:

* ``scalar`` — a faithful position-by-position loop, matching the
  paper's Algorithm 3 lines 19-23 exactly (Strategy 2 stops after the
  precise position where Lemma 4 first holds), and
* ``vector`` — NumPy evaluation in chunks, stopping at chunk
  granularity (the default; same answers, much faster in CPython).

The optional *fail-fast* bound is an extension beyond the paper
(DESIGN.md §5): with ``p_ub = PF(minDist(c, MBR(O)))`` an upper bound
on every remaining position's probability, the final log non-influence
is at least ``S + remaining · log(1 − p_ub)``; if that bound already
exceeds ``log(1 − τ)`` the object can be rejected without evaluating
the remaining positions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import Instrumentation
from repro.prob.base import ProbabilityFunction

#: Chunk size for the vector kernel; small enough that Strategy 2
#: savings survive, large enough to amortise NumPy call overhead.
DEFAULT_CHUNK = 32


def log1m_safe(p: np.ndarray | float):
    """``log(1 − p)`` that maps ``p ≥ 1`` to ``−inf`` without warnings."""
    with np.errstate(divide="ignore"):
        return np.log1p(-np.minimum(p, 1.0))


def distances(x, y, cx, cy) -> np.ndarray:
    """``dist(c, p_i) = sqrt(dx² + dy²)`` for position columns ``x``, ``y``.

    The one distance formula of every ``Pr_c(O)`` evaluation, so every
    path (NA, PIN, PIN-VO, top-k, sketch, subscriptions) rounds a
    distance the same way.  Broadcasts: column vectors of candidates
    against row vectors of positions give a ``(k, n)`` matrix.  The
    scalar kernel writes the same expression with :mod:`math`, which
    rounds identically.
    """
    dx = x - cx
    dy = y - cy
    return np.sqrt(dx * dx + dy * dy)


def log_non_influence(
    pf: ProbabilityFunction, positions: np.ndarray, cx: float, cy: float
) -> float:
    """``Σ log(1 − PF(dist(c, p_i)))`` over all positions (may be −inf)."""
    d = distances(positions[:, 0], positions[:, 1], cx, cy)
    return float(np.sum(log1m_safe(pf(d))))


def cumulative_probability(
    pf: ProbabilityFunction, positions: np.ndarray, cx: float, cy: float
) -> float:
    """``Pr_c(O)`` of Definition 1, evaluated in log space."""
    return -math.expm1(log_non_influence(pf, positions, cx, cy))


def influence_threshold_log(tau: float) -> float:
    """``log(1 − τ)`` — the log-space influence test constant."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    return math.log1p(-tau)


def validate_pair(
    pf: ProbabilityFunction,
    positions: np.ndarray,
    cx: float,
    cy: float,
    log_threshold: float,
    counters: Instrumentation | None = None,
    kernel: str = "vector",
    early_stop: bool = True,
    chunk: int = DEFAULT_CHUNK,
    fail_fast_log_bound: float | None = None,
) -> bool:
    """Exact influence test for one (candidate, object) pair.

    ``log_threshold`` is ``log(1 − τ)``.  ``fail_fast_log_bound`` is
    ``log(1 − PF(minDist(c, MBR(O))))`` when the fail-fast extension is
    enabled, else ``None``.  Returns whether ``Pr_c(O) ≥ τ``.
    """
    n = positions.shape[0]
    if counters is not None:
        counters.pairs_validated += 1
        counters.positions_total += n
    if kernel == "scalar":
        return _validate_scalar(
            pf, positions, cx, cy, log_threshold, counters,
            early_stop, fail_fast_log_bound,
        )
    if kernel == "vector":
        return _validate_vector(
            pf, positions, cx, cy, log_threshold, counters,
            early_stop, chunk, fail_fast_log_bound,
        )
    raise ValueError(f"unknown kernel {kernel!r}; use 'scalar' or 'vector'")


def _validate_scalar(
    pf: ProbabilityFunction,
    positions: np.ndarray,
    cx: float,
    cy: float,
    log_threshold: float,
    counters: Instrumentation | None,
    early_stop: bool,
    fail_fast_log_bound: float | None,
) -> bool:
    n = positions.shape[0]
    s = 0.0
    for i in range(n):
        dx = positions[i, 0] - cx
        dy = positions[i, 1] - cy
        p = float(pf(math.sqrt(dx * dx + dy * dy)))
        s += math.log1p(-p) if p < 1.0 else -math.inf
        if counters is not None:
            counters.positions_evaluated += 1
        if early_stop and s <= log_threshold:
            if counters is not None and i + 1 < n:
                counters.early_stops += 1
            return True
        if fail_fast_log_bound is not None:
            remaining = n - (i + 1)
            if remaining and s + remaining * fail_fast_log_bound > log_threshold:
                if counters is not None:
                    counters.fail_fast_stops += 1
                return False
    return s <= log_threshold


def _validate_vector(
    pf: ProbabilityFunction,
    positions: np.ndarray,
    cx: float,
    cy: float,
    log_threshold: float,
    counters: Instrumentation | None,
    early_stop: bool,
    chunk: int,
    fail_fast_log_bound: float | None,
) -> bool:
    n = positions.shape[0]
    if not early_stop and fail_fast_log_bound is None:
        # One shot over all positions.
        s = log_non_influence(pf, positions, cx, cy)
        if counters is not None:
            counters.positions_evaluated += n
        return s <= log_threshold
    s = 0.0
    for start in range(0, n, chunk):
        seg = positions[start : start + chunk]
        d = distances(seg[:, 0], seg[:, 1], cx, cy)
        s += float(np.sum(log1m_safe(pf(d))))
        if counters is not None:
            counters.positions_evaluated += seg.shape[0]
        done = start + seg.shape[0]
        if early_stop and s <= log_threshold:
            if counters is not None and done < n:
                counters.early_stops += 1
            return True
        if fail_fast_log_bound is not None:
            remaining = n - done
            if remaining and s + remaining * fail_fast_log_bound > log_threshold:
                if counters is not None:
                    counters.fail_fast_stops += 1
                return False
    return s <= log_threshold


def batch_validate_objects(
    pf: ProbabilityFunction,
    positions_list: list[np.ndarray],
    cx: float,
    cy: float,
    log_threshold: float,
    counters: Instrumentation | None = None,
    head: int = 16,
) -> np.ndarray:
    """Strategy-2 validation of many objects against one candidate.

    Vectorised two-phase evaluation: first the leading ``head``
    positions of every object in one concatenated kernel — objects
    whose partial non-influence probability already satisfies Lemma 4
    are decided; only the undecided objects' remaining positions are
    evaluated in a second kernel.  Exact, and the position counters
    reflect the early-stopping savings.

    Returns a boolean array aligned with ``positions_list``.
    """
    k = len(positions_list)
    lengths = np.array([p.shape[0] for p in positions_list])
    if counters is not None:
        counters.pairs_validated += k
        counters.positions_total += int(lengths.sum())

    heads = [p[:head] for p in positions_list]
    head_lengths = np.minimum(lengths, head)
    head_xy = np.concatenate(heads, axis=0)
    offsets = np.concatenate([[0], np.cumsum(head_lengths)[:-1]])
    d = distances(head_xy[:, 0], head_xy[:, 1], cx, cy)
    s_head = np.add.reduceat(log1m_safe(pf(d)), offsets)
    if counters is not None:
        counters.positions_evaluated += int(head_lengths.sum())

    influenced = s_head <= log_threshold
    undecided = ~influenced & (lengths > head)
    if counters is not None:
        counters.early_stops += int(np.count_nonzero(influenced & (lengths > head)))
    if np.any(undecided):
        idx = np.nonzero(undecided)[0]
        tails = [positions_list[i][head:] for i in idx]
        tail_lengths = lengths[idx] - head
        tail_xy = np.concatenate(tails, axis=0)
        tail_offsets = np.concatenate([[0], np.cumsum(tail_lengths)[:-1]])
        d = distances(tail_xy[:, 0], tail_xy[:, 1], cx, cy)
        s_tail = np.add.reduceat(log1m_safe(pf(d)), tail_offsets)
        if counters is not None:
            counters.positions_evaluated += int(tail_lengths.sum())
        influenced[idx] = (s_head[idx] + s_tail) <= log_threshold
    return influenced


def span_index(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and segment offsets of concatenated column spans.

    Span ``i`` is columns ``starts[i] : starts[i] + counts[i]`` of a
    ``(2, Σn)`` position block.  Returns the concatenated column
    indexes — one ``repeat`` plus one ``arange`` instead of a list of
    slices, in span order — and each span's offset in the gathered
    result, as ``np.add.reduceat`` wants them.
    """
    prefix = np.cumsum(counts) - counts
    index = np.repeat(starts - prefix, counts) + np.arange(int(counts.sum()))
    return index, prefix


def batch_validate_spans(
    pf: ProbabilityFunction,
    xy: np.ndarray,
    offsets: np.ndarray,
    idx: np.ndarray,
    cx: float,
    cy: float,
    log_threshold: float,
    counters: Instrumentation | None = None,
    head: int = 16,
) -> np.ndarray:
    """Columnar :func:`batch_validate_objects` over an x/y position block.

    ``xy``/``offsets`` are a table's columnar export: ``xy`` is the
    ``(2, Σn)`` block whose rows are the x and y columns, and object
    ``i`` owns columns ``offsets[i]:offsets[i+1]``.  ``idx`` selects
    the objects to validate — the verification-set span of one
    candidate.  Runs the same two-phase Strategy-2 evaluation without
    ever materialising per-object arrays or entry wrappers, so pool
    workers validate directly against the attached shared segment.
    Bit-identical to the list-based kernel: the gathered position
    order, the reduceat segmentation, and every counter match exactly.

    Returns a boolean array aligned with ``idx``.
    """
    k = int(idx.shape[0])
    if k == 0:
        return np.zeros(0, dtype=bool)
    x, y = xy
    starts = offsets[idx]
    lengths = offsets[idx + 1] - starts
    if counters is not None:
        counters.pairs_validated += k
        counters.positions_total += int(lengths.sum())

    head_lengths = np.minimum(lengths, head)
    cols, seg_offsets = span_index(starts, head_lengths)
    d = distances(np.take(x, cols), np.take(y, cols), cx, cy)
    s_head = np.add.reduceat(log1m_safe(pf(d)), seg_offsets)
    if counters is not None:
        counters.positions_evaluated += cols.size

    influenced = s_head <= log_threshold
    undecided = ~influenced & (lengths > head)
    if counters is not None:
        counters.early_stops += int(
            np.count_nonzero(influenced & (lengths > head))
        )
    if np.any(undecided):
        u = np.nonzero(undecided)[0]
        cols, tail_offsets = span_index(starts[u] + head, lengths[u] - head)
        d = distances(np.take(x, cols), np.take(y, cols), cx, cy)
        s_tail = np.add.reduceat(log1m_safe(pf(d)), tail_offsets)
        if counters is not None:
            counters.positions_evaluated += cols.size
        influenced[u] = (s_head[u] + s_tail) <= log_threshold
    return influenced


def batch_log_non_influence(
    pf: ProbabilityFunction,
    positions: np.ndarray,
    cand_xy: np.ndarray,
) -> np.ndarray:
    """``Σ_i log(1 − PF(dist(c_j, p_i)))`` for many candidates at once.

    ``positions`` is ``(n, 2)``, ``cand_xy`` is ``(k, 2)``; the result
    is ``(k,)``.  Used by PINOCCHIO's validation phase, which resolves
    all surviving candidates of one object in a single matrix kernel.
    """
    d = distances(
        positions[:, 0][None, :], positions[:, 1][None, :],
        cand_xy[:, 0][:, None], cand_xy[:, 1][:, None],
    )
    return np.sum(log1m_safe(pf(d)), axis=1)
