"""Multilevel hypergraph partitioning (the hMetis substitute).

`partition` produces a k-way partition by recursive bisection.  Each
bisection is multilevel: the hypergraph is coarsened with heavy-edge
matching, an initial bisection is grown greedily at the coarsest level, and
the solution is projected back level by level with FM refinement
(:mod:`repro.hypergraph.fm`) after every projection.  Several random starts
are tried and the best cut kept, so results are deterministic for a fixed
seed.

A graph of at most 64 vertices runs on one pin mask per edge
(:class:`~repro.hypergraph.packed.PackedHypergraph`) when the C engine of
:mod:`repro.compaction._cscan` is available: restriction, initial growth,
FM refinement and cut pricing then run in C, while the random draws and
coarsening stay here.  The kernel replays the Python steps exactly, so
both paths return the same partition; the Python one is the fallback
when there is no compiler or ``REPRO_COMPACTION_CSCAN=0``, and the
kernel's test oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.compaction import _cscan
from repro.hypergraph.fm import BalanceEnvelope, fm_refine
from repro.hypergraph.hypergraph import Hypergraph, cut_weight
from repro.hypergraph.packed import MAX_VERTICES, PackedHypergraph

_COARSEST_SIZE = 32
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
        sub, _ = _subgraph(graph, vertices)
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


def _subgraph(
    graph: Hypergraph, vertices: list[int]
) -> tuple[Hypergraph, dict[int, int]]:
    """Restrict ``graph`` to ``vertices``; edges lose pins outside the set."""
    local_of = {vertex: index for index, vertex in enumerate(vertices)}
    edges = []
    edge_weights = []
    for pins, weight in zip(graph.edges, graph.edge_weights):
        local_pins = tuple(sorted(local_of[p] for p in pins if p in local_of))
        if len(local_pins) >= 2:
            edges.append(local_pins)
            edge_weights.append(weight)
    sub = Hypergraph(
        vertex_weights=[graph.vertex_weights[v] for v in vertices],
        edges=edges,
        edge_weights=edge_weights,
    )
    return sub, local_of


def _bisect(
    graph: Hypergraph | PackedHypergraph,
    fraction: float,
    epsilon: float,
    rng: random.Random,
) -> list[int]:
    """Multilevel bisection of ``graph``; part 0 targets ``fraction`` of
    the total weight."""
    total = graph.total_vertex_weight
    target0 = int(round(total * fraction))
    slack = max(graph.vertex_weights, default=1)
    envelope = BalanceEnvelope(target0, total, epsilon, slack)

    levels = _coarsen(graph, rng)
    coarsest = levels[-1][0]

    best_assignment: list[int] | None = None
    best_cut = None
    for _ in range(_RANDOM_STARTS):
        candidate = _initial_bisection(coarsest, target0, rng)
        coarse_envelope = BalanceEnvelope(
            target0, total, epsilon, max(coarsest.vertex_weights, default=1)
        )
        _refine(coarsest, candidate, coarse_envelope)
        cut = _cut(coarsest, candidate)
        if best_cut is None or cut < best_cut:
            best_cut = cut
            best_assignment = candidate
    assert best_assignment is not None

    # Project back through the levels, refining at each.
    assignment = best_assignment
    for level_index in range(len(levels) - 1, 0, -1):
        _, mapping = levels[level_index]
        finer_graph = levels[level_index - 1][0]
        finer_assignment = [0] * finer_graph.vertex_count
        for fine_vertex, coarse_vertex in enumerate(mapping):
            finer_assignment[fine_vertex] = assignment[coarse_vertex]
        level_envelope = BalanceEnvelope(
            target0, total, epsilon, max(finer_graph.vertex_weights, default=1)
        )
        _refine(finer_graph, finer_assignment, level_envelope)
        assignment = finer_assignment

    if len(levels) == 1:
        _refine(graph, assignment, envelope)
    return assignment


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


def _coarsen(
    graph: Hypergraph | PackedHypergraph, rng: random.Random
) -> list[tuple[Hypergraph | PackedHypergraph, list[int] | None]]:
    """Build the coarsening hierarchy.

    Returns ``[(graph_0, None), (graph_1, map_0to1), ...]`` where
    ``map_ito(i+1)[v]`` is the coarse vertex containing fine vertex ``v``.
    Coarsening runs on pin tuples; the coarse levels of a packed graph
    are packed again for the kernel.
    """
    levels: list[tuple[Hypergraph | PackedHypergraph, list[int] | None]] = [
        (graph, None)
    ]
    if graph.vertex_count <= _COARSEST_SIZE:
        return levels
    packed = isinstance(graph, PackedHypergraph)
    current = graph.hypergraph() if packed else graph
    while current.vertex_count > _COARSEST_SIZE:
        mapping = _heavy_edge_matching(current, rng)
        coarse_count = max(mapping) + 1
        if coarse_count >= current.vertex_count:
            break  # no progress; stop coarsening
        current = _contract(current, mapping, coarse_count)
        levels.append(
            (PackedHypergraph.of(current) if packed else current, mapping)
        )
    return levels


def _heavy_edge_matching(graph: Hypergraph, rng: random.Random) -> list[int]:
    """Match each vertex with its most strongly connected unmatched
    neighbor; connectivity of a shared edge counts ``w(e) / (|e| - 1)``."""
    incident = graph.incidence()
    order = list(range(graph.vertex_count))
    rng.shuffle(order)
    mate = [-1] * graph.vertex_count
    for vertex in order:
        if mate[vertex] != -1:
            continue
        scores: dict[int, float] = {}
        for edge_index in incident[vertex]:
            weight = graph.edge_weights[edge_index]
            pins = graph.edges[edge_index]
            share = weight / (len(pins) - 1)
            for pin in pins:
                if pin != vertex and mate[pin] == -1:
                    scores[pin] = scores.get(pin, 0.0) + share
        if scores:
            partner = max(scores, key=lambda p: (scores[p], -p))
            mate[vertex] = partner
            mate[partner] = vertex
        else:
            mate[vertex] = vertex

    mapping = [-1] * graph.vertex_count
    next_id = 0
    for vertex in range(graph.vertex_count):
        if mapping[vertex] != -1:
            continue
        mapping[vertex] = next_id
        partner = mate[vertex]
        if partner != vertex and partner != -1:
            mapping[partner] = next_id
        next_id += 1
    return mapping


def _contract(graph: Hypergraph, mapping: list[int], coarse_count: int) -> Hypergraph:
    vertex_weights = [0] * coarse_count
    for vertex, coarse in enumerate(mapping):
        vertex_weights[coarse] += graph.vertex_weights[vertex]

    merged: dict[tuple[int, ...], int] = {}
    for pins, weight in zip(graph.edges, graph.edge_weights):
        coarse_pins = tuple(sorted({mapping[p] for p in pins}))
        if len(coarse_pins) < 2:
            continue
        merged[coarse_pins] = merged.get(coarse_pins, 0) + weight
    return Hypergraph(
        vertex_weights=vertex_weights,
        edges=list(merged),
        edge_weights=[merged[pins] for pins in merged],
    )
