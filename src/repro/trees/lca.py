"""Sequential lowest-common-ancestor references (paper §VI).

Two independent classical implementations cross-check each other and the
spatial algorithm:

* :class:`BinaryLiftingLCA` — O(n log n) preprocessing, O(log n) per query,
  online;
* :func:`offline_tarjan_lca` — Tarjan's offline union–find algorithm,
  O((n + q) α(n)) for a whole batch.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.trees.tree import Tree
from repro.utils import as_index_array, ceil_log2, check_in_range


class BinaryLiftingLCA:
    """Classic binary-lifting (sparse table over ancestors) LCA oracle."""

    def __init__(self, tree: Tree):
        self.tree = tree
        n = tree.n
        levels = max(1, ceil_log2(max(2, n)))
        up = np.empty((levels, n), dtype=np.int64)
        # level 0: direct parents, with the root looping to itself so lifts
        # saturate instead of going out of range
        up[0] = np.where(tree.parents >= 0, tree.parents, tree.root)
        for k in range(1, levels):
            up[k] = up[k - 1][up[k - 1]]
        self._up = up
        self._depths = tree.depths()

    def query(self, u: int, v: int) -> int:
        """The lowest common ancestor of ``u`` and ``v``."""
        n = self.tree.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"query vertices must lie in [0, {n})")
        depths = self._depths
        up = self._up
        if depths[u] < depths[v]:
            u, v = v, u
        # lift u to v's depth
        diff = int(depths[u] - depths[v])
        k = 0
        while diff:
            if diff & 1:
                u = int(up[k, u])
            diff >>= 1
            k += 1
        if u == v:
            return u
        for k in range(len(up) - 1, -1, -1):
            if up[k, u] != up[k, v]:
                u = int(up[k, u])
                v = int(up[k, v])
        return int(up[0, u])

    def query_batch(self, us, vs) -> np.ndarray:
        """Vectorized-ish batch interface (loops in Python, used for testing)."""
        us = as_index_array(us, name="us")
        vs = as_index_array(vs, name="vs")
        if us.shape != vs.shape:
            raise ValidationError("us and vs must have the same shape")
        return np.array([self.query(int(a), int(b)) for a, b in zip(us, vs)], dtype=np.int64)


def offline_tarjan_lca(tree: Tree, queries) -> np.ndarray:
    """Tarjan's offline LCA over a batch of ``(u, v)`` pairs.

    Single DFS with a union–find; answers all queries in near-linear time.
    """
    if not isinstance(queries, np.ndarray):
        queries = list(queries)
    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    if queries.size:
        check_in_range(queries.ravel(), 0, tree.n, name="queries")
    n = tree.n
    q = len(queries)
    answers = np.full(q, -1, dtype=np.int64)

    # per-vertex query adjacency as CSR arrays, ~48 bytes per query: slot j
    # of the flattened queries is query j // 2 at endpoint j % 2, and its
    # partner sits in slot j ^ 1
    ends = queries.ravel()
    slots = np.argsort(ends, kind="stable")
    pending_offsets = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))])
    pending_other = ends[slots ^ 1]
    pending_query = slots >> 1

    parent_dsu = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent_dsu[root] != root:
            root = int(parent_dsu[root])
        while parent_dsu[x] != root:  # path compression
            parent_dsu[x], x = root, int(parent_dsu[x])
        return root

    ancestor = np.arange(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    offsets, targets = tree.children_csr()

    # iterative post-order DFS with explicit child cursors
    cursor = offsets[:-1].copy()
    stack = [tree.root]
    while stack:
        v = stack[-1]
        if cursor[v] < offsets[v + 1]:
            c = int(targets[cursor[v]])
            cursor[v] += 1
            stack.append(c)
            continue
        stack.pop()
        visited[v] = True
        a, b = pending_offsets[v], pending_offsets[v + 1]
        for other, qi in zip(pending_other[a:b].tolist(), pending_query[a:b].tolist()):
            if visited[other]:
                answers[qi] = ancestor[find(other)]
        if stack:
            p = stack[-1]
            parent_dsu[find(v)] = find(p)
            ancestor[find(p)] = p
    return answers
