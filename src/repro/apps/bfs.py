"""Level-synchronous breadth-first search (Rodinia's BFS).

Frontier expansion over a random sparse graph in CSR form: each level
gathers neighbour lists (GLD), masks already-visited vertices with ISET
flags and logic ops, and writes the new depths.  Irregular, memory- and
control-dominated — the opposite end of the profile spectrum from MxM.
"""

from __future__ import annotations

import numpy as np

from ..rng import make_rng
from ..swfi.ops import SassOps
from .base import GPUApplication

__all__ = ["BreadthFirstSearch"]


class BreadthFirstSearch(GPUApplication):
    """BFS depths from vertex 0; output is the int32 depth array."""

    name = "BFS"
    domain = "Graph traversal"

    def __init__(self, n_vertices: int = 512, avg_degree: int = 4,
                 seed: int = 0) -> None:
        self.n = n_vertices
        self.size_label = f"{n_vertices} vertices"
        rng = make_rng(seed)
        # random graph with a guaranteed spanning backbone so every
        # vertex is reachable and the depth array is fully populated
        edges = set()
        for v in range(1, n_vertices):
            parent = int(rng.integers(0, v))
            edges.add((parent, v))
            edges.add((v, parent))
        n_extra = n_vertices * max(avg_degree - 2, 0)
        for _ in range(n_extra):
            a = int(rng.integers(n_vertices))
            b = int(rng.integers(n_vertices))
            if a != b:
                edges.add((a, b))
                edges.add((b, a))
        adjacency = [[] for _ in range(n_vertices)]
        for a, b in sorted(edges):
            adjacency[a].append(b)
        counts = np.array([len(neighbors) for neighbors in adjacency],
                          dtype=np.int32)
        self.row_offsets = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int32)
        self.column_indices = np.array(
            [b for neighbors in adjacency for b in neighbors],
            dtype=np.int32)

    def run(self, ops: SassOps) -> np.ndarray:
        offsets = ops.gld(self.row_offsets)
        columns = ops.gld(self.column_indices)
        depth = np.full(self.n, -1, dtype=np.int32)
        depth[0] = 0
        frontier = np.array([0], dtype=np.int32)
        level = np.int32(0)
        while frontier.size:
            level = ops.iadd(level, np.int32(1))
            neighbor_lists = []
            for vertex in frontier:
                start = int(offsets[vertex])
                end = int(offsets[vertex + 1])
                if end > start:
                    neighbor_lists.append(columns[start:end])
            if not neighbor_lists:
                break
            neighbors = np.unique(np.concatenate(neighbor_lists))
            neighbors = neighbors[(neighbors >= 0)
                                  & (neighbors < self.n)]
            unvisited = ops.iset(depth[neighbors], np.int32(-1), "eq")
            frontier = neighbors[unvisited == 1].astype(np.int32)
            if frontier.size:
                depth[frontier] = ops.gst(
                    np.full(frontier.size, level, dtype=np.int32))
        return ops.gst(depth)

    def reference(self) -> np.ndarray:
        """Plain BFS oracle."""
        from collections import deque

        depth = np.full(self.n, -1, dtype=np.int32)
        depth[0] = 0
        queue = deque([0])
        while queue:
            vertex = queue.popleft()
            start, end = self.row_offsets[vertex], self.row_offsets[
                vertex + 1]
            for neighbor in self.column_indices[start:end]:
                if depth[neighbor] < 0:
                    depth[neighbor] = depth[vertex] + 1
                    queue.append(int(neighbor))
        return depth
