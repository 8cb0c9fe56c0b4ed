"""The pure kernel against the explicit-network kernel it replaced.

``_explicit_solve`` below is the earlier ``_flowpure.solve``, kept
verbatim as a test-only reference: it builds the residual network as
arc lists (``arc_to``/``res``/``adj``) on every call. The implicit
kernel derives each node's residual arcs from flow counts and must scan
them in the same order, so on every input both return the same flow,
the same paths and the same reachability masks.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepkit import _flowpure
from sepkit.flow import _csr
from sepkit.graph import Graph

BIG = 1 << 30


def _explicit_solve(
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
    """
    src = 2 * n
    snk = 2 * n + 1
    nodes = 2 * n + 2

    arc_to: list[int] = []
    res: list[int] = []
    adj: list[list[int]] = [[] for _ in range(nodes)]

    def add_arc(a: int, b: int, capacity: int) -> int:
        i = len(arc_to)
        arc_to.append(b)
        res.append(capacity)
        arc_to.append(a)
        res.append(0)
        adj[a].append(i)
        adj[b].append(i + 1)
        return i

    internal_arc = [-1] * n
    sink_arc = [-1] * n
    src_arc = [-1] * n
    edge_arc: dict[tuple[int, int], int] = {}

    in_y = bytearray(n)
    for y in ys:
        in_y[y] = 1
    for v in range(n):
        if not active[v]:
            continue
        if in_y[v]:
            sink_arc[v] = add_arc(2 * v + 1, snk, BIG)
        internal_arc[v] = add_arc(2 * v, 2 * v + 1, BIG if forced[v] else 1)
    for v in range(n):
        if not active[v]:
            continue
        base = nbr_off[v]
        for j in range(base, nbr_off[v + 1]):
            w = nbr_flat[j]
            if active[w]:
                edge_arc[(v, w)] = add_arc(2 * v + 1, 2 * w, BIG)
    for x in xs:
        src_arc[x] = add_arc(src, 2 * x, BIG)

    def push_unit(i: int) -> None:
        res[i] -= 1
        res[i ^ 1] += 1

    flow = 0
    for path in warm_paths:
        push_unit(src_arc[path[0]])
        for idx, v in enumerate(path):
            push_unit(internal_arc[v])
            if idx + 1 < len(path):
                push_unit(edge_arc[(v, path[idx + 1])])
        push_unit(sink_arc[path[-1]])
        flow += 1

    # Iterative DFS for one augmenting path; visited is timestamped so
    # repeated attempts reuse the arrays.
    visited = [0] * nodes
    stamp = 0
    parent_arc = [0] * nodes

    def augment() -> bool:
        nonlocal stamp
        stamp += 1
        visited[src] = stamp
        stack = [(src, 0)]
        while stack:
            node, it = stack[-1]
            arcs = adj[node]
            advanced = False
            while it < len(arcs):
                i = arcs[it]
                it += 1
                if res[i] > 0:
                    b = arc_to[i]
                    if visited[b] != stamp:
                        visited[b] = stamp
                        parent_arc[b] = i
                        if b == snk:
                            node2 = snk
                            while node2 != src:
                                i2 = parent_arc[node2]
                                res[i2] -= 1
                                res[i2 ^ 1] += 1
                                node2 = arc_to[i2 ^ 1]
                            return True
                        stack[-1] = (node, it)
                        stack.append((b, 0))
                        advanced = True
                        break
            if not advanced:
                stack.pop()
        return False

    while flow < cap and augment():
        flow += 1

    # Residual reachability from the super-source.
    reach = bytearray(nodes)
    reach[src] = 1
    stack = [src]
    while stack:
        node = stack.pop()
        for i in adj[node]:
            if res[i] > 0:
                b = arc_to[i]
                if not reach[b]:
                    reach[b] = 1
                    stack.append(b)
    reach_in = bytearray(n)
    reach_out = bytearray(n)
    for v in range(n):
        reach_in[v] = reach[2 * v]
        reach_out[v] = reach[2 * v + 1]

    # Decompose the flow into vertex paths, lowest start / lowest
    # continuation first. Stray circulations (possible after
    # cancellations) are excised so every reported path is simple.
    remaining = [0] * len(arc_to)
    for i in range(0, len(arc_to), 2):
        remaining[i] = res[i ^ 1]
    paths: list[list[int]] = []
    for x in xs:
        i = src_arc[x]
        while remaining[i] > 0:
            remaining[i] -= 1
            remaining[internal_arc[x]] -= 1
            path = [x]
            pos = {x: 0}
            v = x
            while not (sink_arc[v] >= 0 and remaining[sink_arc[v]] > 0):
                nxt = -1
                for j in range(nbr_off[v], nbr_off[v + 1]):
                    w = nbr_flat[j]
                    if active[w] and remaining[edge_arc[(v, w)]] > 0:
                        nxt = w
                        remaining[edge_arc[(v, w)]] -= 1
                        break
                if nxt < 0:
                    raise AssertionError("flow decomposition stalled")
                remaining[internal_arc[nxt]] -= 1
                if nxt in pos:
                    for u in path[pos[nxt] + 1 :]:
                        del pos[u]
                    del path[pos[nxt] + 1 :]
                else:
                    pos[nxt] = len(path)
                    path.append(nxt)
                v = nxt
            remaining[sink_arc[v]] -= 1
            paths.append(path)

    return flow, paths, reach_in, reach_out


def _result(solve, args):
    flow, paths, reach_in, reach_out = solve(*args)
    return flow, paths, bytes(reach_in), bytes(reach_out)


def _subset(draw, items):
    keep = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    return [v for v, k in zip(items, keep) if k]


@st.composite
def kernel_inputs(draw):
    """A kernel call on a random simple graph: forced and inactive
    vertices (X and Y ids among them), xs and ys in any order, cap from
    0 to n+1, and a warm packing that is a prefix of the paths of an
    earlier call from a subset of xs to a subset of ys (so warm paths
    may pass through other Y vertices), possibly already at cap."""
    n = draw(st.integers(1, 14))
    directed, density = draw(st.booleans()), draw(st.integers(1, 4))
    bits = draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n))
    edges = [(u + 1, w + 1) for u in range(n) for w in range(n) if bits[u * n + w] < density]
    flat, off = _csr(Graph(n, edges, directed=directed))
    odds = st.lists(st.integers(0, 5), min_size=n, max_size=n)
    inactive, forcing = draw(st.integers(0, 2)), draw(st.integers(0, 4))
    active = [int(r >= inactive) for r in draw(odds)]
    forced = [int(r < forcing) for r in draw(odds)]
    ids = st.integers(0, n - 1)
    xs = draw(st.lists(ids, unique=True, max_size=n))
    ys = draw(st.lists(ids, unique=True, max_size=n))
    cap = draw(st.integers(0, n + 1))
    earlier_cap = draw(st.integers(0, n + 1))
    earlier = _explicit_solve(n, flat, off, _subset(draw, xs), _subset(draw, ys), forced, active, earlier_cap, [])
    warm = earlier[1][: draw(st.integers(0, len(earlier[1])))]
    return n, flat, off, xs, ys, forced, active, cap, warm


def _call(n, edges, xs, ys, forced, cap, warm=(), directed=False):
    """Kernel input on a graph given by 1-based edges, every vertex active."""
    flat, off = _csr(Graph(n, edges, directed=directed))
    return n, flat, off, xs, ys, [int(v in forced) for v in range(n)], [1] * n, cap, list(warm)


# Each example is a small input on which a kernel with the fault named
# beside it differs from the explicit network.
@example(  # reach at cap read off the last successful search, or found without crossing a sink arc backwards
    _call(2, [], [0, 1], [0, 1], (), 1)
)
@example(  # the reverse graph arcs of in(v) before its internal arc
    _call(8, [(2, 3), (6, 3), (6, 4)], [5, 1], [2, 3], {2}, 2, directed=True)
)
@example(  # the in-arcs that carry flow kept in push order
    _call(7, [(2, 1), (3, 2), (5, 3), (6, 2), (6, 3), (7, 2), (7, 3), (7, 6)], [5, 1, 0, 4], [6, 4, 0], {2, 6}, 4)
)
@example(  # the reverse internal arc of out(y) before its sink arc
    _call(9, [(1, 4), (2, 7), (3, 2), (5, 7), (7, 1)], [4, 2], [2, 3], (), 0, [[2, 1, 6, 0, 3]], directed=True)
)
@settings(max_examples=400, deadline=None)
@given(kernel_inputs())
def test_implicit_kernel_matches_explicit_network(args):
    assert _result(_flowpure.solve, args) == _result(_explicit_solve, args)

