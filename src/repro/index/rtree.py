"""An R-tree (Guttman [26]) for point data, written from scratch.

Supports dynamic insertion with quadratic node splitting, deletion
with tree condensation and orphan re-insertion, Sort-Tile-Recursive
(STR) bulk loading, rectangle and circle range queries, and best-first
nearest-neighbour search.  The paper stores candidate locations in an
R-tree with node capacity 8 (§6.1); that is the default here too.

Statistics counters (``stats``) record node accesses so ablation
benches can compare index strategies by work done, not only wall time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.geo.mbr import MBR


def str_groups(xy: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort-Tile-Recursive grouping of ``k`` points into runs of ``cap``.

    Sorts by x, slices the order into ``ceil(sqrt(ceil(k / cap)))``
    vertical strips, sorts each strip by y and cuts it into runs of at
    most ``cap`` points.  Returns ``(order, starts)``: ``order`` is a
    permutation of ``range(k)`` and group ``g`` is
    ``order[starts[g]:starts[g + 1]]``.  The groups are the leaves of
    :meth:`RTree.bulk_load` and the object chunks of the blocked IA/NIB
    scan (:func:`repro.core.pruning.classify_table_chunks`).
    """
    k = xy.shape[0]
    order = np.argsort(xy[:, 0], kind="stable")
    starts = [0]
    if k:
        strip_count = max(1, math.ceil(math.sqrt(math.ceil(k / cap))))
        strip_size = math.ceil(k / strip_count)
        for s in range(0, k, strip_size):
            strip = order[s : s + strip_size]
            order[s : s + strip_size] = strip[
                np.argsort(xy[strip, 1], kind="stable")
            ]
            starts.extend(range(s + cap, s + strip.size, cap))
            starts.append(s + strip.size)
    return order, np.array(starts, dtype=np.intp)


@dataclass
class IndexStats:
    """Node/leaf access counters, reset with :meth:`reset`."""

    node_accesses: int = 0
    leaf_accesses: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.node_accesses = 0
        self.leaf_accesses = 0


@dataclass
class _Node:
    """An R-tree node; ``children`` for internal nodes, ``entries`` for leaves."""

    is_leaf: bool
    mbr: MBR | None = None
    children: list["_Node"] = field(default_factory=list)
    entries: list[tuple[int, float, float]] = field(default_factory=list)

    def recompute_mbr(self) -> None:
        if self.is_leaf:
            if not self.entries:
                self.mbr = None
                return
            xs = [x for _, x, _ in self.entries]
            ys = [y for _, _, y in self.entries]
            self.mbr = MBR(min(xs), min(ys), max(xs), max(ys))
        else:
            mbr = self.children[0].mbr
            for child in self.children[1:]:
                mbr = mbr.union(child.mbr)
            self.mbr = mbr


class RTree:
    """An R-tree over 2-D points identified by integer ids."""

    def __init__(self, max_entries: int = 8):
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = max(1, max_entries // 2)
        self._root = _Node(is_leaf=True)
        self._count = 0
        self.stats = IndexStats()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls, xy: np.ndarray, ids: np.ndarray | None = None, max_entries: int = 8
    ) -> "RTree":
        """Build a packed tree with Sort-Tile-Recursive loading.

        ``xy`` is ``(k, 2)``; ``ids`` defaults to ``0..k-1``.
        """
        xy = np.asarray(xy, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"xy must be (k, 2), got {xy.shape}")
        tree = cls(max_entries=max_entries)
        k = xy.shape[0]
        if ids is None:
            ids = np.arange(k)
        else:
            ids = np.asarray(ids)
            if ids.shape != (k,):
                raise ValueError("ids must align with xy")
        if k == 0:
            return tree
        cap = max_entries
        order, starts = str_groups(xy, cap)
        leaves: list[_Node] = []
        for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
            leaf = _Node(
                is_leaf=True,
                entries=[
                    (int(ids[i]), float(xy[i, 0]), float(xy[i, 1]))
                    for i in order[lo:hi]
                ],
            )
            leaf.recompute_mbr()
            leaves.append(leaf)
        # Pack upper levels until a single root remains.
        level = leaves
        while len(level) > 1:
            parents: list[_Node] = []
            for t in range(0, len(level), cap):
                parent = _Node(is_leaf=False, children=level[t : t + cap])
                parent.recompute_mbr()
                parents.append(parent)
            level = parents
        tree._root = level[0]
        tree._count = k
        return tree

    def insert(self, item_id: int, x: float, y: float) -> None:
        """Insert a point, splitting overflowing nodes quadratically."""
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"coordinates must be finite, got ({x}, {y})")
        split = self._insert(self._root, item_id, x, y)
        if split is not None:
            old_root = self._root
            self._root = _Node(is_leaf=False, children=[old_root, split])
            self._root.recompute_mbr()
        self._count += 1

    def _insert(self, node: _Node, item_id: int, x: float, y: float) -> _Node | None:
        point_mbr = MBR(x, y, x, y)
        if node.is_leaf:
            node.entries.append((item_id, x, y))
            node.recompute_mbr()
            if len(node.entries) > self.max_entries:
                return self._split_leaf(node)
            return None
        child = self._choose_subtree(node, point_mbr)
        split = self._insert(child, item_id, x, y)
        if split is not None:
            node.children.append(split)
        node.recompute_mbr()
        if len(node.children) > self.max_entries:
            return self._split_internal(node)
        return None

    @staticmethod
    def _choose_subtree(node: _Node, point_mbr: MBR) -> _Node:
        """Least-enlargement child, ties broken by smaller area."""
        return min(
            node.children,
            key=lambda c: (c.mbr.enlargement(point_mbr), c.mbr.area),
        )

    def _split_leaf(self, node: _Node) -> _Node:
        groups = self._quadratic_split(
            node.entries, lambda e: MBR(e[1], e[2], e[1], e[2])
        )
        node.entries = groups[0]
        node.recompute_mbr()
        sibling = _Node(is_leaf=True, entries=groups[1])
        sibling.recompute_mbr()
        return sibling

    def _split_internal(self, node: _Node) -> _Node:
        groups = self._quadratic_split(node.children, lambda c: c.mbr)
        node.children = groups[0]
        node.recompute_mbr()
        sibling = _Node(is_leaf=False, children=groups[1])
        sibling.recompute_mbr()
        return sibling

    def _quadratic_split(self, items: list, mbr_of) -> tuple[list, list]:
        """Guttman's quadratic split: seed with the worst pair, then
        assign each item to the group whose MBR grows least."""
        worst_waste = -1.0
        seeds = (0, 1)
        for i, j in itertools.combinations(range(len(items)), 2):
            a, b = mbr_of(items[i]), mbr_of(items[j])
            waste = a.union(b).area - a.area - b.area
            if waste > worst_waste:
                worst_waste = waste
                seeds = (i, j)
        group_a = [items[seeds[0]]]
        group_b = [items[seeds[1]]]
        mbr_a = mbr_of(items[seeds[0]])
        mbr_b = mbr_of(items[seeds[1]])
        rest = [it for k, it in enumerate(items) if k not in seeds]
        for k, item in enumerate(rest):
            remaining = len(rest) - k
            # Honour the minimum fill factor.
            if len(group_a) + remaining <= self.min_entries:
                group_a.extend(rest[k:])
                for it in rest[k:]:
                    mbr_a = mbr_a.union(mbr_of(it))
                break
            if len(group_b) + remaining <= self.min_entries:
                group_b.extend(rest[k:])
                for it in rest[k:]:
                    mbr_b = mbr_b.union(mbr_of(it))
                break
            m = mbr_of(item)
            grow_a = mbr_a.enlargement(m)
            grow_b = mbr_b.enlargement(m)
            if grow_a < grow_b or (grow_a == grow_b and mbr_a.area <= mbr_b.area):
                group_a.append(item)
                mbr_a = mbr_a.union(m)
            else:
                group_b.append(item)
                mbr_b = mbr_b.union(m)
        return group_a, group_b

    # ------------------------------------------------------------------
    # Deletion (Guttman's Delete with CondenseTree)
    # ------------------------------------------------------------------
    def delete(self, item_id: int, x: float, y: float) -> None:
        """Remove the entry ``(item_id, x, y)``.

        Raises ``KeyError`` when no such entry exists.  Underfull nodes
        on the path are dissolved and their remaining entries
        re-inserted (Guttman's CondenseTree).
        """
        leaf_path = self._find_leaf(self._root, item_id, x, y, [])
        if leaf_path is None:
            raise KeyError(f"entry ({item_id}, {x}, {y}) not in the tree")
        leaf = leaf_path[-1]
        leaf.entries = [
            e for e in leaf.entries if not (e[0] == item_id and e[1] == x and e[2] == y)
        ]
        self._count -= 1
        self._condense(leaf_path)

    def _find_leaf(
        self, node: _Node, item_id: int, x: float, y: float, path: list
    ) -> list | None:
        """The root-to-leaf path of the entry, or ``None``."""
        path = path + [node]
        if node.is_leaf:
            for eid, ex, ey in node.entries:
                if eid == item_id and ex == x and ey == y:
                    return path
            return None
        for child in node.children:
            if child.mbr is not None and child.mbr.contains_point(x, y):
                found = self._find_leaf(child, item_id, x, y, path)
                if found is not None:
                    return found
        return None

    def _condense(self, path: list) -> None:
        """Dissolve underfull nodes bottom-up and re-insert orphans."""
        orphans: list[tuple[int, float, float]] = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            size = len(node.entries) if node.is_leaf else len(node.children)
            if size < self.min_entries:
                parent.children.remove(node)
                orphans.extend(self._collect_entries(node))
            else:
                node.recompute_mbr()
        root = path[0]
        root.recompute_mbr()
        # Shrink a root with a single internal child.
        while not root.is_leaf and len(root.children) == 1:
            root = root.children[0]
        if not root.is_leaf and not root.children:
            root = _Node(is_leaf=True)
        self._root = root
        self._count -= len(orphans)  # insert() re-adds them below
        for item_id, x, y in orphans:
            self.insert(item_id, x, y)

    @staticmethod
    def _collect_entries(node: _Node) -> list[tuple[int, float, float]]:
        out: list[tuple[int, float, float]] = []
        stack = [node]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                out.extend(n.entries)
            else:
                stack.extend(n.children)
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_rect(self, rect: MBR) -> list[int]:
        """Ids of points inside the closed rectangle."""
        out: list[int] = []
        if self._count == 0:
            return out
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not node.mbr.intersects(rect):
                continue
            self.stats.node_accesses += 1
            if node.is_leaf:
                self.stats.leaf_accesses += 1
                out.extend(
                    item_id
                    for item_id, x, y in node.entries
                    if rect.contains_point(x, y)
                )
            else:
                stack.extend(node.children)
        return out

    def query_circle(self, x: float, y: float, radius: float) -> list[int]:
        """Ids of points within ``radius`` of ``(x, y)``."""
        if radius < 0:
            return []
        out: list[int] = []
        if self._count == 0:
            return out
        r2 = radius * radius
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.mbr is None or node.mbr.min_dist(x, y) > radius:
                continue
            self.stats.node_accesses += 1
            if node.is_leaf:
                self.stats.leaf_accesses += 1
                for item_id, ex, ey in node.entries:
                    if (ex - x) ** 2 + (ey - y) ** 2 <= r2:
                        out.append(item_id)
            else:
                stack.extend(node.children)
        return out

    def nearest(self, x: float, y: float) -> tuple[int, float]:
        """Best-first nearest-neighbour search."""
        if self._count == 0:
            raise ValueError("nearest() on an empty index")
        counter = itertools.count()  # tie-breaker: heap never compares nodes
        heap: list[tuple[float, int, object]] = [(0.0, next(counter), self._root)]
        best: tuple[int, float] | None = None
        while heap:
            dist, _, node = heapq.heappop(heap)
            if best is not None and dist > best[1]:
                break
            if isinstance(node, _Node):
                self.stats.node_accesses += 1
                if node.is_leaf:
                    self.stats.leaf_accesses += 1
                    for item_id, ex, ey in node.entries:
                        d = math.hypot(ex - x, ey - y)
                        heapq.heappush(heap, (d, next(counter), ("item", item_id)))
                else:
                    for child in node.children:
                        if child.mbr is not None:
                            heapq.heappush(
                                heap,
                                (child.mbr.min_dist(x, y), next(counter), child),
                            )
            else:
                __, item_id = node
                if best is None or dist < best[1]:
                    best = (item_id, dist)
                break  # first popped item is the nearest
        if best is None:
            raise ValueError("nearest() found no items")
        return best

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def height(self) -> int:
        """Tree height (1 for a lone leaf root)."""
        h = 1
        node = self._root
        while not node.is_leaf:
            h += 1
            node = node.children[0]
        return h

    def all_ids(self) -> list[int]:
        """Every indexed id (mainly for tests)."""
        out: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.extend(item_id for item_id, _, _ in node.entries)
            else:
                stack.extend(node.children)
        return out

    def check_invariants(self) -> None:
        """Verify MBR containment and fill factors; raises on violation."""
        self._check_node(self._root, is_root=True)

    def _check_node(self, node: _Node, is_root: bool = False) -> None:
        if node.is_leaf:
            if node.entries:
                node_mbr = node.mbr
                for _, x, y in node.entries:
                    if not node_mbr.contains_point(x, y):
                        raise AssertionError("leaf MBR does not cover entry")
            if not is_root and len(node.entries) > self.max_entries:
                raise AssertionError("leaf overflow")
            return
        if not node.children:
            raise AssertionError("internal node without children")
        for child in node.children:
            if not node.mbr.contains_mbr(child.mbr):
                raise AssertionError("parent MBR does not cover child")
            self._check_node(child)
        if len(node.children) > self.max_entries:
            raise AssertionError("internal overflow")
