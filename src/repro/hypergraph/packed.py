"""Hypergraphs of at most 64 vertices as one pin mask per edge.

Bit ``v`` of an edge's mask is set when vertex ``v`` is a pin, so pin
counts on either side of a bisection are a popcount of ``mask & side``.
:func:`repro.hypergraph.multilevel.partition` (recursive bisection:
multi-start greedy growth plus FM) runs such graphs through the C
bisection kernel of :mod:`repro.compaction._cscan` (restrict, grow,
refine, cut), which replays the Python code of
:mod:`repro.hypergraph.multilevel` and :mod:`repro.hypergraph.fm`
exactly, whenever that engine is available.
"""

from __future__ import annotations

from array import array

from repro.compaction import _cscan
from repro.hypergraph.hypergraph import Hypergraph

#: Vertex count up to which a graph fits one mask per edge.
MAX_VERTICES = 64

_FLIP = str.maketrans("01", "10")


def _masks_of(edges) -> array:
    """One pin mask per edge of ``edges`` (pin tuples of vertices < 64)."""
    bits = [1 << v for v in range(MAX_VERTICES)]
    masks = array("Q")
    for pins in edges:
        mask = 0
        for pin in pins:
            mask |= bits[pin]
        masks.append(mask)
    return masks


def _pin_order(mask: int) -> str:
    """Sort key putting masks in the order of their sorted pin tuples.

    The key reads pins ``0 .. max`` as a string with ``0`` for a pin that
    is present and ``1`` for one that is absent.  At the first pin where
    two sets differ, the set holding it sorts first unless the other set
    has already ended, in which case the shorter one (a prefix) does:
    exactly how tuples compare.
    """
    return format(mask, "b")[::-1].translate(_FLIP)


def build_packed_hypergraph(
    vertex_weights: list[int], weighted_masks: dict[int, int]
) -> "PackedHypergraph":
    """:func:`~repro.hypergraph.hypergraph.build_hypergraph` over pin
    masks: the same edges, in the same order, with the same weights.

    Masks with fewer than two pins are dropped.
    """
    order = sorted(
        (mask for mask in weighted_masks if mask & (mask - 1)),
        key=_pin_order,
    )
    return PackedHypergraph(
        vertex_weights,
        array("Q", order),
        array("q", [weighted_masks[mask] for mask in order]),
    )


class PackedHypergraph:
    """A weighted hypergraph of at most :data:`MAX_VERTICES` vertices.

    Attributes:
        vertex_weights: Weight of each vertex; defines the vertex count.
        masks: Pin mask per edge, in the edge order of the
            :class:`~repro.hypergraph.hypergraph.Hypergraph` it stands for.
        edge_weights: Weight of each edge, parallel to ``masks``.
        weights: ``vertex_weights`` as the ``array("q")`` the kernel reads.
    """

    __slots__ = ("vertex_weights", "masks", "edge_weights", "weights")

    def __init__(self, vertex_weights, masks: array,
                 edge_weights: array) -> None:
        if len(vertex_weights) > MAX_VERTICES:
            raise ValueError(
                f"{len(vertex_weights)} vertices do not fit one "
                f"{MAX_VERTICES}-bit mask per edge"
            )
        self.vertex_weights = list(vertex_weights)
        self.masks = masks
        self.edge_weights = edge_weights
        self.weights = array("q", self.vertex_weights)

    @classmethod
    def of(cls, graph: Hypergraph) -> "PackedHypergraph":
        """``graph`` with one pin mask per edge, in its edge order."""
        return cls(graph.vertex_weights, _masks_of(graph.edges),
                   array("q", graph.edge_weights))

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_weights)

    @property
    def total_vertex_weight(self) -> int:
        return sum(self.vertex_weights)

    def hypergraph(self) -> Hypergraph:
        """The same graph with pin tuples (for the Python partitioner)."""
        n = self.vertex_count
        return Hypergraph(
            vertex_weights=list(self.vertex_weights),
            edges=[tuple(v for v in range(n) if mask >> v & 1)
                   for mask in self.masks],
            edge_weights=self.edge_weights.tolist(),
        )

    def restrict(self, vertices: list[int]) -> "PackedHypergraph":
        """The subgraph on ``vertices`` (local vertex ``j`` is
        ``vertices[j]``); edges keep their order and lose the pins outside
        the set, and those left with fewer than two pins are dropped."""
        masks, edge_weights = _cscan.restrict(self, vertices)
        return PackedHypergraph(
            [self.vertex_weights[v] for v in vertices], masks, edge_weights
        )
