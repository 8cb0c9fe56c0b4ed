"""Pure-Python residual-flow kernel for vertex-disjoint path packing.

This is the reference implementation of the kernel interface; the
compiled twin in ``_flowcore.pyx`` must produce bit-identical results.

Model: each vertex v of the input graph becomes an in-node 2v and an
out-node 2v+1 joined by an internal arc of capacity 1 (unlimited when v
is forced out of every cut). Every graph arc u->w becomes an unlimited
arc from out(u) to in(w). A super-source 2n feeds every in-node of X and
every out-node of Y feeds a super-sink 2n+1, so cuts may contain
vertices of X and of Y. Max flow then equals the maximum number of
vertex-disjoint X->Y paths (disjoint except at forced-out vertices), and
the set {v : in(v) residual-reachable, out(v) not} is the minimum cut
pushed as far toward X as possible. Only active vertices, and the graph
arcs between them, are in the network.

Representation: the network is never built. The residual state is a
flow count per arc: per vertex for its internal arc, per X vertex for
its source arc, per Y vertex for its sink arc and per CSR position for
its graph arc, plus, per vertex w, the in-arcs of w that carry flow.
Every unlimited arc keeps a positive residual, so the arcs of a node
with positive residual follow from these counts:

- src: in(x) for x in ``xs``, in the order given;
- in(v): out(v) over the internal arc if it is unsaturated, then
  out(u) over the reverse of every graph arc u->v that carries flow,
  by ascending CSR position (the reverse source arc leads back to src,
  which is always visited first);
- out(v): the sink if v is a Y vertex, then in(v) over the reverse
  internal arc if flow passes through v, then in(w) over the graph arcs
  v->w to active heads, in CSR order.

An explicit network lists the arcs of every node in this order when it
adds, for each active vertex in ascending order, its sink arc and its
internal arc, then every graph arc in CSR order, then the source arcs,
each arc followed by its reverse; ``_flowcore`` builds that network.
So the path sets, residual reachability and the extracted cut are
those of that network. Residuals change only when an augmenting path
is applied, which ends the search, so skipping the arcs with zero
residual leaves the order of the visits unchanged.

All vertex ids in this module are 0-based; callers translate.
"""

from __future__ import annotations

from bisect import insort

# Arc labels on a search path: a graph arc is labelled by its CSR
# position, an internal arc (either way) by INTERNAL.
INTERNAL = -1


def solve(
    n: int,
    nbr_flat: list[int],
    nbr_off: list[int],
    xs: list[int],
    ys: list[int],
    forced: list[int],
    active: list[int],
    cap: int,
    warm_paths: list[list[int]],
):
    """Augment a path packing up to ``cap`` and report the residual state.

    Returns (flow, paths, reach_in, reach_out). The reachability masks
    describe the final residual network; they identify the leftmost
    minimum cut only when flow < cap (i.e. augmentation stalled rather
    than hitting the budget).

    Raises ValueError when a warm path steps along an edge that is not
    in the network. Warm paths are not checked otherwise: each must run
    from a vertex of ``xs`` to an active vertex of ``ys`` over active
    vertices.
    """
    src = 2 * n
    snk = src + 1
    through = [0] * n  # flow on the internal arc in(v) -> out(v)
    fed = [0] * n  # flow on the source arc src -> in(x)
    drained = [0] * n  # flow on the sink arc out(y) -> snk
    carried = [0] * len(nbr_flat)  # flow on the graph arc of each CSR position
    inflow: dict[int, list[tuple[int, int]]] = {}  # w -> [(position, tail)] with flow
    is_y = bytearray(n)
    for y in ys:
        if active[y]:
            is_y[y] = 1

    def push_edge(j: int, v: int, w: int) -> None:
        carried[j] += 1
        if carried[j] == 1:
            insort(inflow.setdefault(w, []), (j, v))

    flow = 0
    for path in warm_paths:
        fed[path[0]] += 1
        for v, w in zip(path, path[1:]):
            through[v] += 1
            lo, hi = nbr_off[v], nbr_off[v + 1]
            if not active[w] or w not in nbr_flat[lo:hi]:
                raise ValueError("warm path uses a missing edge")
            push_edge(nbr_flat.index(w, lo, hi), v, w)
        through[path[-1]] += 1
        drained[path[-1]] += 1
        flow += 1

    seen = bytearray(snk + 1)
    # Per node on the search path: the next arc to scan (-1 for the
    # internal arc, then a CSR position at an out-node or an index into
    # ``inflow`` at an in-node), and the arc the path entered it by.
    cursor = [0] * (snk + 1)
    via = [0] * (snk + 1)

    def search(roots: list[int], to_sink: bool) -> bool:
        """Depth-first search of the residual network from each unseen
        root in turn, scanning every node's arcs in the network's order.
        With ``to_sink`` it applies the first path that reaches the sink
        and returns True. Otherwise, or when no path is found, it marks
        in ``seen`` every node the roots reach."""
        for root in roots:
            if seen[root]:
                continue
            seen[root] = 1
            cursor[root] = -1
            stack = [root]  # the nodes of the current path from the root
            while stack:
                node = stack[-1]
                c = cursor[node]
                v = node >> 1
                head = -1
                if node & 1:
                    if c < 0:
                        c = nbr_off[v]
                        if through[v] and not seen[node - 1]:
                            head, arc = node - 1, INTERNAL
                    if head < 0:
                        end = nbr_off[v + 1]
                        while c < end:
                            w = nbr_flat[c]
                            c += 1
                            if active[w] and not seen[2 * w]:
                                head, arc = 2 * w, c - 1
                                break
                else:
                    if c < 0:
                        c = 0
                        if active[v] and (forced[v] or not through[v]) and not seen[node + 1]:
                            head, arc = node + 1, INTERNAL
                    if head < 0:
                        for j, u in inflow.get(v, ())[c:]:
                            c += 1
                            if not seen[2 * u + 1]:
                                head, arc = 2 * u + 1, j
                                break
                if head < 0:
                    stack.pop()
                    continue
                cursor[node] = c
                seen[head] = 1
                cursor[head] = -1
                via[head] = arc
                stack.append(head)
                if not (head & 1 and is_y[head >> 1]):
                    continue
                # The sink arc is the first arc of out(y).
                seen[snk] = 1
                if not to_sink:
                    continue
                fed[root >> 1] += 1
                drained[head >> 1] += 1
                for node, nxt in zip(stack, stack[1:]):
                    v = node >> 1
                    arc = via[nxt]
                    if arc == INTERNAL:
                        through[v] += -1 if node & 1 else 1
                    elif node & 1:
                        push_edge(arc, v, nxt >> 1)
                    else:
                        carried[arc] -= 1
                        if not carried[arc]:
                            inflow[v].remove((arc, nxt >> 1))
                return True
        return False

    in_nodes = [2 * x for x in xs]
    while flow < cap:
        seen[:] = bytes(snk + 1)
        if not search(in_nodes, True):
            break
        flow += 1
    if flow >= cap:
        # The packing hit the budget, so no search has failed on the
        # final network: mark the residual-reachable nodes anew, across
        # the sink's reverse arcs too.
        seen[:] = bytes(snk + 1)
        search(in_nodes, False)
        if seen[snk]:
            search([2 * y + 1 for y in ys if drained[y]], False)
    reach_in = seen[0:src:2]
    reach_out = seen[1:src:2]

    # Decompose the flow into vertex paths, lowest start / lowest
    # continuation first. Stray circulations (possible after
    # cancellations) are excised so every reported path is simple.
    paths: list[list[int]] = []
    for x in xs:
        while fed[x] > 0:
            fed[x] -= 1
            path = [x]
            pos = {x: 0}
            v = x
            while not drained[v]:
                for j in range(nbr_off[v], nbr_off[v + 1]):
                    if carried[j]:
                        break
                else:
                    raise AssertionError("flow decomposition stalled")
                carried[j] -= 1
                nxt = nbr_flat[j]
                if nxt in pos:
                    for u in path[pos[nxt] + 1 :]:
                        del pos[u]
                    del path[pos[nxt] + 1 :]
                else:
                    pos[nxt] = len(path)
                    path.append(nxt)
                v = nxt
            drained[v] -= 1
            paths.append(path)

    return flow, paths, reach_in, reach_out
