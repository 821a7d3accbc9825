"""Two-body probability bounds by exact integer min-cost flow.

A second route to `probability_bounds` for two bodies that shares no code
with `dsaudit.lp`.  A distribution P is allowed by both bodies iff the mass
of every focal set of the first body can be routed through its own elements
into focal sets of the second body that contain them, filling each exactly:
a transportation network

    source -> focal set A of body 1 -> element w in A -> focal set B of body 2 -> sink

with capacity D*m1(A) out of the source and D*m2(B) into the sink, where D
is the lcm of every mass denominator.  Both bodies allow some P iff the
maximum flow is D, and P(w) is the flow through w over D.  Cost +1 (or -1)
on the arcs into the elements of S makes the minimum cost of a flow of value
D equal to D*min P(S) (or -D*max P(S)).  Everything is `int` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _min_cost_flow(
    n_nodes: int, arcs: list[tuple[int, int, int, int]], source: int, sink: int, demand: int
) -> tuple[int, int]:
    """(flow, cost) of a cheapest flow of at most ``demand`` units.

    Successive shortest paths, each found by Bellman-Ford on the residual
    network, so the negative arc costs need no potentials.  Arcs are
    (tail, head, capacity, cost); the network must hold no negative cycle.
    """
    # graph[u] holds [head, residual capacity, cost, index of the reverse arc]
    graph: list[list[list[int]]] = [[] for _ in range(n_nodes)]
    for u, v, cap, cost in arcs:
        graph[u].append([v, cap, cost, len(graph[v])])
        graph[v].append([u, 0, -cost, len(graph[u]) - 1])
    flow = total = 0
    while flow < demand:
        dist: list[int | None] = [None] * n_nodes
        dist[source] = 0
        via: list[tuple[int, int] | None] = [None] * n_nodes
        for _ in range(n_nodes - 1):
            changed = False
            for u in range(n_nodes):
                du = dist[u]
                if du is None:
                    continue
                for i, (v, cap, cost, _) in enumerate(graph[u]):
                    dv = dist[v]
                    if cap > 0 and (dv is None or du + cost < dv):
                        dist[v] = du + cost
                        via[v] = (u, i)
                        changed = True
            if not changed:
                break
        if dist[sink] is None:
            break
        path = []
        v = sink
        while v != source:
            u, i = via[v]
            path.append(graph[u][i])
            v = u
        push = min([demand - flow] + [arc[1] for arc in path])
        for arc in path:
            arc[1] -= push
            graph[arc[0]][arc[3]][1] += push
        flow += push
        total += push * dist[sink]
    return flow, total


def two_body_bounds(first, second, target_bits: int) -> tuple[Fraction, Fraction] | None:
    """(min, max) of P(target) over the distributions both bodies allow;
    None when no distribution is allowed by both."""
    n = first.frame.size
    den = lcm(*(m.denominator for body in (first, second) for _, m in body.focal))
    source, sink = 0, 1
    element = 2
    a_node = element + n
    b_node = a_node + len(first.focal)

    def cheapest(sign: int) -> tuple[int, int]:
        arcs = []
        for i, (s, m) in enumerate(first.focal):
            arcs.append((source, a_node + i, int(m * den), 0))
            arcs.extend(
                (a_node + i, element + w, den, sign if target_bits >> w & 1 else 0)
                for w in range(n)
                if s.bits >> w & 1
            )
        for j, (t, m) in enumerate(second.focal):
            arcs.append((b_node + j, sink, int(m * den), 0))
            arcs.extend((element + w, b_node + j, den, 0) for w in range(n) if t.bits >> w & 1)
        return _min_cost_flow(b_node + len(second.focal), arcs, source, sink, den)

    flow, low = cheapest(1)
    if flow < den:
        return None
    _, high = cheapest(-1)
    return Fraction(low, den), Fraction(-high, den)
