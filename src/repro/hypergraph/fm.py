"""Fiduccia–Mattheyses (FM) refinement for hypergraph bisection.

Standard pass-based FM: every vertex may move once per pass; the move with
the highest cut gain that keeps the bisection within the balance envelope is
applied; at the end of a pass the best prefix of moves is kept.  Gains use
the usual hyperedge pin-count rule — moving ``v`` from part ``a`` to part
``b`` removes edge ``e`` from the cut when ``v`` is the only pin of ``e`` in
``a`` and adds ``e`` to the cut when no pin of ``e`` was in ``b``.
"""

from __future__ import annotations

import heapq

from repro.hypergraph.hypergraph import Hypergraph


class BalanceEnvelope:
    """Admissible weight range for part 0 of a bisection.

    Args:
        target0: Ideal weight of part 0.
        total: Total vertex weight.
        epsilon: Allowed relative deviation from the target.
        slack: Absolute slack added on both sides; callers set this to the
            maximum vertex weight so that lumpy weights never make the
            envelope infeasible.
    """

    def __init__(self, target0: int, total: int, epsilon: float, slack: int) -> None:
        margin = max(int(target0 * epsilon), slack)
        self.lower = max(0, target0 - margin)
        self.upper = min(total, target0 + margin)

    def admits(self, weight0: int) -> bool:
        return self.lower <= weight0 <= self.upper


def _pin_counts(
    graph: Hypergraph, assignment: list[int]
) -> tuple[list[int], list[int]]:
    """Pins of each edge in part 0 and part 1."""
    in0 = [0] * graph.edge_count
    in1 = [0] * graph.edge_count
    for edge_index, pins in enumerate(graph.edges):
        for pin in pins:
            if assignment[pin] == 0:
                in0[edge_index] += 1
            else:
                in1[edge_index] += 1
    return in0, in1


def _gain(
    graph: Hypergraph,
    incident: list[list[int]],
    in0: list[int],
    in1: list[int],
    vertex: int,
    part: int,
) -> int:
    gain = 0
    for edge_index in incident[vertex]:
        weight = graph.edge_weights[edge_index]
        same = in0[edge_index] if part == 0 else in1[edge_index]
        other = in1[edge_index] if part == 0 else in0[edge_index]
        if same == 1:
            gain += weight
        if other == 0:
            gain -= weight
    return gain


def _move_vertex(
    graph: Hypergraph,
    incident: list[list[int]],
    in0: list[int],
    in1: list[int],
    assignment: list[int],
    locked: list[bool],
    gains: list[int],
    vertex: int,
) -> list[int]:
    """Move ``vertex`` to the other part, updating the pin counts and
    patching the gain of every unlocked pin on an incident edge by that
    edge's change in contribution.  Returns the pins whose gain changed,
    sorted."""
    part = assignment[vertex]
    assignment[vertex] = 1 - part
    deltas: dict[int, int] = {}
    edge_weights = graph.edge_weights
    for edge_index in incident[vertex]:
        old0, old1 = in0[edge_index], in1[edge_index]
        if part == 0:
            new0, new1 = old0 - 1, old1 + 1
        else:
            new0, new1 = old0 + 1, old1 - 1
        in0[edge_index], in1[edge_index] = new0, new1
        if old0 > 1 and new0 > 1 and old1 > 1 and new1 > 1:
            continue  # no count is or becomes 0 or 1: no gain changes
        # An edge adds its weight to a pin's gain when the pin is alone
        # in its part, and subtracts it when the other part is empty.
        weight = edge_weights[edge_index]
        delta0 = weight * (
            (new0 == 1) - (old0 == 1) - (new1 == 0) + (old1 == 0)
        )
        delta1 = weight * (
            (new1 == 1) - (old1 == 1) - (new0 == 0) + (old0 == 0)
        )
        if not delta0 and not delta1:
            continue
        for pin in graph.edges[edge_index]:
            if not locked[pin]:
                delta = delta0 if assignment[pin] == 0 else delta1
                if delta:
                    deltas[pin] = deltas.get(pin, 0) + delta
    changed = []
    for pin in sorted(deltas):
        if deltas[pin]:
            gains[pin] += deltas[pin]
            changed.append(pin)
    return changed


def fm_refine(
    graph: Hypergraph,
    assignment: list[int],
    envelope: BalanceEnvelope,
    max_passes: int = 10,
) -> list[int]:
    """Refine a bisection in place over up to ``max_passes`` FM passes.

    Returns the refined assignment (the same list object).
    """
    incident = graph.incidence()
    for _ in range(max_passes):
        improved = _fm_pass(graph, assignment, envelope, incident)
        if not improved:
            break
    return assignment


def _fm_pass(
    graph: Hypergraph,
    assignment: list[int],
    envelope: BalanceEnvelope,
    incident: list[list[int]],
) -> bool:
    """One FM pass; returns True when the cut strictly improved."""
    in0, in1 = _pin_counts(graph, assignment)
    weight0 = sum(
        graph.vertex_weights[v] for v in range(graph.vertex_count)
        if assignment[v] == 0
    )
    locked = [False] * graph.vertex_count

    # Lazy max-heap of (-gain, vertex); stale entries are skipped on pop.
    heap: list[tuple[int, int]] = []
    current_gain = [0] * graph.vertex_count
    for vertex in range(graph.vertex_count):
        gain = _gain(graph, incident, in0, in1, vertex, assignment[vertex])
        current_gain[vertex] = gain
        heapq.heappush(heap, (-gain, vertex))

    moves: list[int] = []
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0

    while heap:
        neg_gain, vertex = heapq.heappop(heap)
        if locked[vertex] or -neg_gain != current_gain[vertex]:
            continue
        part = assignment[vertex]
        vertex_weight = graph.vertex_weights[vertex]
        new_weight0 = weight0 - vertex_weight if part == 0 else weight0 + vertex_weight
        if not envelope.admits(new_weight0):
            locked[vertex] = True  # cannot move this pass
            continue

        # Record the move; _move_vertex below applies it.
        locked[vertex] = True
        weight0 = new_weight0
        cumulative += current_gain[vertex]
        moves.append(vertex)
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(moves)

        # Pushed in sorted pin order, independent of dict iteration;
        # (-gain, pin) entries are totally ordered anyway, but this keeps
        # the pass bit-reproducible under any hash seed.
        for pin in _move_vertex(
            graph, incident, in0, in1, assignment, locked, current_gain,
            vertex,
        ):
            heapq.heappush(heap, (-current_gain[pin], pin))

    # Roll back moves past the best prefix.
    for vertex in moves[best_prefix:]:
        assignment[vertex] = 1 - assignment[vertex]
    return best_cumulative > 0
