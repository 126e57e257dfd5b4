"""Hypergraph partitioning by recursive bisection (the hMetis substitute).

`partition` produces a k-way partition by recursive bisection.  Each
bisection grows several initial bisections greedily from random seed
vertices, refines each with FM (:mod:`repro.hypergraph.fm`), keeps the
one with the smallest cut and refines it once more.  The random draws
come from one seeded generator, so results are deterministic for a
fixed seed.

A graph of at most 64 vertices runs on one pin mask per edge
(:class:`~repro.hypergraph.packed.PackedHypergraph`) when the C engine of
:mod:`repro.compaction._cscan` is available: restriction, initial growth,
FM refinement and cut pricing then run in C, while the random draws
stay here.  The kernel replays the Python steps exactly, so both paths
return the same partition; the Python one is the fallback when there is
no compiler or ``REPRO_COMPACTION_CSCAN=0``, and the kernel's test
oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.compaction import _cscan
from repro.hypergraph.fm import BalanceEnvelope, fm_refine
from repro.hypergraph.hypergraph import Hypergraph, cut_weight
from repro.hypergraph.packed import MAX_VERTICES, PackedHypergraph

_RANDOM_STARTS = 4


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of :func:`partition`.

    Attributes:
        assignment: Part index (``0 .. parts-1``) per vertex.
        cut: Total weight of hyperedges spanning more than one part.
    """

    assignment: tuple[int, ...]
    cut: int


def partition(
    graph: Hypergraph | PackedHypergraph,
    parts: int,
    epsilon: float = 0.10,
    seed: int = 0,
) -> PartitionResult:
    """Partition ``graph`` into ``parts`` parts minimizing hyperedge cut.

    Args:
        graph: The hypergraph to partition, with pin tuples or pin masks;
            either form gives the same result.
        parts: Number of parts (>= 1).
        epsilon: Allowed relative part-weight imbalance.
        seed: RNG seed for the randomized starts.

    Raises:
        ValueError: If ``parts`` is not positive or exceeds the vertex count.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if parts > graph.vertex_count:
        raise ValueError(
            f"cannot split {graph.vertex_count} vertices into {parts} parts"
        )
    assignment = [0] * graph.vertex_count
    rng = random.Random(seed)
    graph = _engine_graph(graph)
    _recursive_bisect(
        graph,
        vertices=list(range(graph.vertex_count)),
        parts=parts,
        first_part=0,
        assignment=assignment,
        epsilon=epsilon,
        rng=rng,
    )
    return PartitionResult(
        assignment=tuple(assignment),
        cut=_cut(graph, assignment),
    )


def _engine_graph(
    graph: Hypergraph | PackedHypergraph,
) -> Hypergraph | PackedHypergraph:
    """``graph`` in the form the partition runs on: packed for the C
    kernel when it is available and the graph fits a mask, with pin
    tuples otherwise."""
    packed = isinstance(graph, PackedHypergraph)
    if graph.vertex_count <= MAX_VERTICES and _cscan.available():
        return graph if packed else PackedHypergraph.of(graph)
    return graph.hypergraph() if packed else graph


def _refine(
    graph: Hypergraph | PackedHypergraph,
    assignment: list[int],
    envelope: BalanceEnvelope,
) -> None:
    if isinstance(graph, PackedHypergraph):
        _cscan.refine(graph, assignment, envelope.lower, envelope.upper)
    else:
        fm_refine(graph, assignment, envelope)


def _cut(graph: Hypergraph | PackedHypergraph, assignment: list[int]) -> int:
    if isinstance(graph, PackedHypergraph):
        return _cscan.cut(graph, assignment)
    return cut_weight(graph, assignment)


def _recursive_bisect(
    graph: Hypergraph | PackedHypergraph,
    vertices: list[int],
    parts: int,
    first_part: int,
    assignment: list[int],
    epsilon: float,
    rng: random.Random,
) -> None:
    if parts == 1:
        for vertex in vertices:
            assignment[vertex] = first_part
        return

    left_parts = (parts + 1) // 2
    right_parts = parts - left_parts
    if isinstance(graph, PackedHypergraph):
        sub = graph.restrict(vertices)
    else:
        sub = _subgraph(graph, vertices)
    fraction = left_parts / parts
    local_assignment = _bisect(sub, fraction, epsilon, rng)

    left = [vertices[v] for v in range(len(vertices)) if local_assignment[v] == 0]
    right = [vertices[v] for v in range(len(vertices)) if local_assignment[v] == 1]
    # Every side must receive at least as many vertices as the parts it has
    # to host, or the recursion would starve a part.  Move the lightest
    # vertices from the surplus side when the bisection was too lopsided.
    left.sort(key=lambda v: graph.vertex_weights[v])
    right.sort(key=lambda v: graph.vertex_weights[v])
    while len(left) < left_parts:
        left.append(right.pop(0))
    while len(right) < right_parts:
        right.append(left.pop(0))
    _recursive_bisect(graph, left, left_parts, first_part, assignment, epsilon, rng)
    if right:
        _recursive_bisect(
            graph, right, right_parts, first_part + left_parts,
            assignment, epsilon, rng,
        )


def _subgraph(graph: Hypergraph, vertices: list[int]) -> Hypergraph:
    """Restrict ``graph`` to ``vertices``; edges lose pins outside the set."""
    local_of = {vertex: index for index, vertex in enumerate(vertices)}
    edges = []
    edge_weights = []
    for pins, weight in zip(graph.edges, graph.edge_weights):
        local_pins = tuple(sorted(local_of[p] for p in pins if p in local_of))
        if len(local_pins) >= 2:
            edges.append(local_pins)
            edge_weights.append(weight)
    return Hypergraph(
        vertex_weights=[graph.vertex_weights[v] for v in vertices],
        edges=edges,
        edge_weights=edge_weights,
    )


def _bisect(
    graph: Hypergraph | PackedHypergraph,
    fraction: float,
    epsilon: float,
    rng: random.Random,
) -> list[int]:
    """Bisection of ``graph``; part 0 targets ``fraction`` of the total
    weight."""
    total = graph.total_vertex_weight
    target0 = int(round(total * fraction))
    slack = max(graph.vertex_weights, default=1)
    envelope = BalanceEnvelope(target0, total, epsilon, slack)
    candidates = []
    for _ in range(_RANDOM_STARTS):
        candidate = _initial_bisection(graph, target0, rng)
        _refine(graph, candidate, envelope)
        candidates.append(candidate)
    best = min(candidates, key=lambda candidate: _cut(graph, candidate))
    _refine(graph, best, envelope)
    return best


def _initial_bisection(
    graph: Hypergraph | PackedHypergraph, target0: int, rng: random.Random
) -> list[int]:
    """Greedy region growth: seed part 0 from a random vertex and keep
    absorbing the most strongly attached outside vertex until part 0
    reaches its target weight.  Everything else lands in part 1."""
    n = graph.vertex_count
    assignment = [1] * n
    if n == 0:
        return assignment
    seed_vertex = rng.randrange(n)
    if isinstance(graph, PackedHypergraph):
        return _cscan.grow(graph, seed_vertex, target0)
    incident = graph.incidence()
    assignment[seed_vertex] = 0
    weight0 = graph.vertex_weights[seed_vertex]
    attachment = [0.0] * n
    in_part0 = [False] * n
    in_part0[seed_vertex] = True

    def absorb(vertex: int) -> None:
        for edge_index in incident[vertex]:
            pins = graph.edges[edge_index]
            share = graph.edge_weights[edge_index] / (len(pins) - 1)
            for pin in pins:
                if not in_part0[pin]:
                    attachment[pin] += share

    absorb(seed_vertex)
    while weight0 < target0:
        best = -1
        best_score = (-1.0, 0)
        for vertex in range(n):
            if in_part0[vertex]:
                continue
            score = (attachment[vertex], -graph.vertex_weights[vertex])
            if score > best_score:
                best_score = score
                best = vertex
        if best == -1:
            break
        in_part0[best] = True
        assignment[best] = 0
        weight0 += graph.vertex_weights[best]
        absorb(best)
    return assignment
