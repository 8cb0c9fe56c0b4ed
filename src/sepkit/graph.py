"""Graph representation, reachability, and separator predicates.

Vertices are the integers 1..n. Graphs are simple (self-loops and
parallel edges are dropped on construction) and immutable once built.
Directed graphs are supported everywhere: an (X, Y)-separator then cuts
all directed X->Y paths, and the Y-side of a separation is computed by
reverse reachability.

Vertex sets are plain frozensets throughout.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .errors import NotASeparator, PreconditionViolated

VertexSet = frozenset  # vertices of the owning Graph


def _sorted_tuples(sets: dict, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(sets[v])) if v in sets else () for v in range(n + 1))


class Graph:
    """Immutable simple graph on vertices 1..n."""

    __slots__ = ("n", "directed", "adj", "radj", "_edge_list", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], directed: bool = False):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.directed = directed
        # Sets only for vertices that an edge touches, so a large header
        # with few edges costs one shared empty tuple per vertex. An
        # undirected graph's in-neighbours are its neighbours: the two maps
        # are one, and so are `adj` and `radj`.
        out: defaultdict[int, set[int]] = defaultdict(set)
        rin = defaultdict(set) if directed else out
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                continue
            out[u].add(v)
            rin[v].add(u)
        self.adj: tuple[tuple[int, ...], ...] = _sorted_tuples(out, n)
        self.radj: tuple[tuple[int, ...], ...] = _sorted_tuples(rin, n) if directed else self.adj
        self._edge_list: tuple[tuple[int, int], ...] | None = None
        self._csr = None

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Out-neighbors if directed, all neighbors otherwise."""
        return self.adj[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self.radj[v]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Canonical edge list: ordered pairs if directed, u<v pairs otherwise."""
        if self._edge_list is None:
            if self.directed:
                es = tuple((u, v) for u in self.vertices for v in self.adj[u])
            else:
                es = tuple((u, v) for u in self.vertices for v in self.adj[u] if u < v)
            self._edge_list = es
        return self._edge_list

    @property
    def m(self) -> int:
        return len(self.edges())

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.directed, self.adj) == (other.n, other.directed, other.adj)

    def __hash__(self):
        return hash((self.n, self.directed, self.adj))

    def __repr__(self):
        kind = "digraph" if self.directed else "graph"
        return f"Graph({kind}, n={self.n}, m={self.m})"


def canon(vs: Iterable[int]) -> list[int]:
    """Canonical (sorted, deduplicated) serialization of a vertex set."""
    return sorted(set(vs))


@dataclass(frozen=True)
class SeparationParts:
    """The three parts a separator S induces on G - S.

    v_xs: reachable from X\\S, v_sy: reachable from (backwards to, if
    directed) Y\\S, v_z: reachable from neither.
    """

    v_xs: VertexSet
    v_sy: VertexSet
    v_z: VertexSet


class Leftness(enum.Enum):
    LEFT_OF = "LeftOf"
    RIGHT_OF = "RightOf"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


def _check_subset(g: Graph, vs: Iterable[int], name: str) -> frozenset:
    vs = frozenset(vs)
    for v in vs:
        if not (1 <= v <= g.n):
            raise PreconditionViolated(f"{name} contains {v}, outside 1..{g.n}")
    return vs


def reachable_from(
    g: Graph,
    sources: Iterable[int],
    removed: frozenset = frozenset(),
    reverse: bool = False,
    within: frozenset | None = None,
) -> frozenset:
    """Vertices reachable from sources\\removed in G - removed.

    `within`, when given, restricts the walk to an induced vertex subset.
    Sources inside `removed` (or outside `within`) contribute nothing.
    """
    adj = g.radj if reverse else g.adj
    seen = set()
    stack = []
    for s in sources:
        if s not in removed and (within is None or s in within) and s not in seen:
            seen.add(s)
            stack.append(s)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in seen or w in removed:
                continue
            if within is not None and w not in within:
                continue
            seen.add(w)
            stack.append(w)
    return frozenset(seen)


def connected_components(g: Graph, within: frozenset | None = None) -> list[VertexSet]:
    """Partition of the vertex set into maximal connected sets.

    Directed graphs use weak connectivity. Components are sorted by their
    smallest vertex; `within` restricts to an induced subgraph.
    """
    universe = sorted(within) if within is not None else list(g.vertices)
    seen: set[int] = set()
    comps: list[VertexSet] = []
    inside = set(universe)
    for s in universe:
        if s in seen:
            continue
        comp = set()
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            comp.add(u)
            nbrs = g.adj[u] + g.radj[u] if g.directed else g.adj[u]
            for w in nbrs:
                if w not in seen and w in inside:
                    seen.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def separation_parts(g: Graph, x: Iterable[int], y: Iterable[int], s: Iterable[int]) -> SeparationParts:
    """Split G - S into the X-side, the Y-side, and the rest.

    Raises NotASeparator if some vertex of G - S is reachable from both
    X\\S and Y\\S (equivalently, s fails to separate).
    """
    x = _check_subset(g, x, "x")
    y = _check_subset(g, y, "y")
    s = _check_subset(g, s, "s")
    v_xs = reachable_from(g, x, removed=s)
    v_sy = reachable_from(g, y, removed=s, reverse=g.directed)
    both = v_xs & v_sy
    if both:
        raise NotASeparator(f"vertices {canon(both)} reachable from both sides")
    rest = frozenset(v for v in g.vertices if v not in s and v not in v_xs and v not in v_sy)
    return SeparationParts(v_xs=v_xs, v_sy=v_sy, v_z=rest)


def is_separator(g: Graph, x: Iterable[int], y: Iterable[int], s: Iterable[int]) -> bool:
    """True iff there is no path from X\\S to Y\\S in G - S."""
    x = _check_subset(g, x, "x")
    y = _check_subset(g, y, "y")
    s = _check_subset(g, s, "s")
    reach = reachable_from(g, x, removed=s)
    return not any(v in reach for v in y if v not in s)


def is_minimal_separator(g: Graph, x: Iterable[int], y: Iterable[int], s: Iterable[int]) -> bool:
    """True iff s separates and no proper subset of s does."""
    s = frozenset(s)
    if not is_separator(g, x, y, s):
        raise PreconditionViolated("s is not an (X,Y)-separator")
    return all(not is_separator(g, x, y, s - {v}) for v in s)


def left_part(g: Graph, x: Iterable[int], s: Iterable[int]) -> VertexSet:
    """V_{X,S}: vertices of G - S reachable from X\\S."""
    return reachable_from(g, frozenset(x), removed=frozenset(s))


def compare_leftness(g: Graph, x: Iterable[int], s1: Iterable[int], s2: Iterable[int]) -> Leftness:
    """Compare two separators for the same (X, Y) under the left-part order.

    LeftOf iff V_{X,S1} is a strict subset of V_{X,S2}; Equal iff the left
    parts coincide; Incomparable iff neither inclusion holds. Both
    arguments are assumed to be (X, Y)-separators.
    """
    x = _check_subset(g, x, "x")
    l1 = left_part(g, x, _check_subset(g, s1, "s1"))
    l2 = left_part(g, x, _check_subset(g, s2, "s2"))
    if l1 == l2:
        return Leftness.EQUAL
    if l1 < l2:
        return Leftness.LEFT_OF
    if l2 < l1:
        return Leftness.RIGHT_OF
    return Leftness.INCOMPARABLE
