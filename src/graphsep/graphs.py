"""Simple graphs on vertices 1..n: complete, chain and star.  No numpy, so `graph` loads none."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, init=False)
class GraphSpec:
    """Simple undirected graph on vertices 1..n (no loops, no multi-edges).

    Built from any iterable of (a, b) edges and kept as one neighbour
    bitmask per vertex (qubit 1 at the top bit): n ints of n bits however
    many edges there are, so the complete graph on 1000 vertices takes
    about 150 kB where its edge tuples would take about 40 MB.
    """

    n: int
    masks: tuple

    def __init__(self, n: int, edges):
        if n < 2:
            raise ValueError("graph needs at least 2 vertices")
        masks = [0] * (n + 1)
        for edge in edges:
            a, b = edge
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge {edge} outside 1..{n}")
            if masks[a] >> (n - b) & 1:
                raise ValueError(f"duplicate edge {(min(a, b), max(a, b))}")
            masks[a] |= 1 << (n - b)
            masks[b] |= 1 << (n - a)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", tuple(masks[1:]))

    @property
    def edges(self) -> tuple:
        """The edges (a, b), a < b, in ascending order."""
        n = self.n
        return tuple((a, b) for a in range(1, n) for b in range(a + 1, n + 1) if self.masks[a - 1] >> (n - b) & 1)

    def adjacency_masks(self) -> list[int]:
        """Neighbor bitmask per vertex, qubit 1 at the top bit."""
        return list(self.masks)


def complete_graph(n: int) -> GraphSpec:
    """All n(n-1)/2 edges between n vertices."""
    return GraphSpec(n, ((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)))


def chain_graph(n: int) -> GraphSpec:
    """Linear chain 1-2-...-n."""
    return GraphSpec(n, ((a, a + 1) for a in range(1, n)))


def star_graph(n: int) -> GraphSpec:
    """Vertex 1 connected to all others."""
    return GraphSpec(n, ((1, b) for b in range(2, n + 1)))
