"""Weighted hypergraph data structure for the partitioner.

Vertices are integers ``0 .. n-1`` with positive integer weights; hyperedges
are sets of at least two distinct vertices with positive integer weights.
In the SI-compaction use case vertices are cores (weight = wrapper output
cell count) and hyperedges are distinct care-core sets (weight = number of
patterns with that care set), following Fig. 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Hypergraph:
    """An immutable-by-convention weighted hypergraph.

    Attributes:
        vertex_weights: Weight of each vertex; defines the vertex count.
        edges: Pin lists, each a sorted tuple of distinct vertex indices.
        edge_weights: Weight of each edge, parallel to ``edges``.
    """

    vertex_weights: list[int]
    edges: list[tuple[int, ...]] = field(default_factory=list)
    edge_weights: list[int] = field(default_factory=list)
    _incidence: list[list[int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.edge_weights):
            raise ValueError("edges and edge_weights must have equal length")
        if any(weight <= 0 for weight in self.vertex_weights):
            raise ValueError("vertex weights must be positive")
        if any(weight <= 0 for weight in self.edge_weights):
            raise ValueError("edge weights must be positive")
        n = len(self.vertex_weights)
        for pins in self.edges:
            if len(pins) < 2:
                raise ValueError(f"hyperedge {pins} has fewer than two pins")
            if len(set(pins)) != len(pins):
                raise ValueError(f"hyperedge {pins} has duplicate pins")
            if any(not 0 <= pin < n for pin in pins):
                raise ValueError(f"hyperedge {pins} references unknown vertex")

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_weights)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def total_vertex_weight(self) -> int:
        return sum(self.vertex_weights)

    def incidence(self) -> list[list[int]]:
        """Edge indices incident to each vertex.

        Built once per graph and shared by every caller, which must treat
        it as read-only.
        """
        if self._incidence is None:
            incident: list[list[int]] = [[] for _ in range(self.vertex_count)]
            for edge_index, pins in enumerate(self.edges):
                for pin in pins:
                    incident[pin].append(edge_index)
            self._incidence = incident
        return self._incidence


def build_hypergraph(
    vertex_weights: list[int],
    weighted_edges: dict[frozenset[int], int],
) -> Hypergraph:
    """Build a hypergraph from a ``{pin set: weight}`` mapping.

    Pin sets with fewer than two vertices are dropped (they can never be
    cut), matching how care-core sets of single-core patterns behave.
    """
    edges = []
    edge_weights = []
    for pins in sorted(weighted_edges, key=sorted):
        if len(pins) < 2:
            continue
        edges.append(tuple(sorted(pins)))
        edge_weights.append(weighted_edges[pins])
    return Hypergraph(
        vertex_weights=list(vertex_weights),
        edges=edges,
        edge_weights=edge_weights,
    )


def cut_weight(graph: Hypergraph, assignment: list[int]) -> int:
    """Total weight of hyperedges spanning more than one part."""
    if len(assignment) != graph.vertex_count:
        raise ValueError("assignment length must equal vertex count")
    total = 0
    for pins, weight in zip(graph.edges, graph.edge_weights):
        first = assignment[pins[0]]
        if any(assignment[pin] != first for pin in pins[1:]):
            total += weight
    return total


def part_weights(graph: Hypergraph, assignment: list[int], parts: int) -> list[int]:
    """Sum of vertex weights per part."""
    weights = [0] * parts
    for vertex, part in enumerate(assignment):
        weights[part] += graph.vertex_weights[vertex]
    return weights
