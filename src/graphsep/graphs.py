"""Simple graphs on vertices 1..n: complete, chain and star.  No numpy, so `graph` loads none."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GraphSpec:
    """Simple undirected graph on vertices 1..n (no loops, no multi-edges)."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("graph needs at least 2 vertices")
        seen = set()
        normalized = []
        for edge in self.edges:
            a, b = edge
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge {edge} outside 1..{self.n}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    def adjacency_masks(self) -> list[int]:
        """Neighbor bitmask per vertex, qubit 1 at the top bit."""
        masks = [0] * (self.n + 1)
        for a, b in self.edges:
            masks[a] |= 1 << (self.n - b)
            masks[b] |= 1 << (self.n - a)
        return masks[1:]


def complete_graph(n: int) -> GraphSpec:
    """All n(n-1)/2 edges between n vertices."""
    return GraphSpec(n, tuple((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)))


def chain_graph(n: int) -> GraphSpec:
    """Linear chain 1-2-...-n."""
    return GraphSpec(n, tuple((a, a + 1) for a in range(1, n)))


def star_graph(n: int) -> GraphSpec:
    """Vertex 1 connected to all others."""
    return GraphSpec(n, tuple((1, b) for b in range(2, n + 1)))
