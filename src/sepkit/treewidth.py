"""Tree decompositions and the 5-approximation treewidth decomposer.

Width convention: the width of a tree decomposition is the size of its
largest bag, one more than the classical minus-one convention. In that
convention the decomposer either returns a valid decomposition of width
at most 5(k-1), or rejects, certifying that the treewidth exceeds k-1.

The recursion keeps a boundary set W of at most 3k-2 vertices (3 at
k=2, see `decompose`). Each step splits the current region with a
separator S of size at most k: the bag is W∪S and every component
recurses with its share of W plus its interface into S, both taken from
the same W. A volume split (below) uses W as it came in. Only when the
step falls back to a weakly balanced separation of W is W first padded
up to that cap with the region's lowest free ids.
The separation is searched over the 3^|W| ways to send each W-vertex
left, into the separator, or right, in a fixed base-3 Gray-code order;
a rejection exhausts that search, which is what bounds the decomposer
by 3^{O(k)} per step (Reed 1992; Bodlaender et al., "A c^k n
5-approximation algorithm for treewidth", SICOMP 2016). The order is
walked as a depth-first search over the most significant digit first,
which visits the assignments in exactly the counting order, and it cuts
every subtree whose prefix already puts more than k vertices in the
separator, more than 2|W|/3 on one side, or an edge between the sides.
Those tests can only fail more as the prefix grows, so the search finds
the same first separation as trying every assignment in turn.

Periodically, when the region is still large, a split by volume is
attempted first: representatives of DFS subtrees are partitioned into
left/right/separator by the same search (cut only on the separator
size), all leftmost separators of each placement are enumerated, and
the first one splitting the volume evenly enough is used, provided every
component's share of the unpadded W plus its interface still fits the
cap. Such splits shrink the region by a constant factor, which is what
keeps long thin graphs near n log n; a W padded first would fail that
check, and the search would peel a few vertices per level instead.
Volume splits are opportunistic; rejection rests solely on the
exhaustion of the weakly-balanced search over the padded W.

Directed input graphs are decomposed on their underlying undirected
graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyDecomposition, InvalidBudget, InvalidInput, PreconditionViolated, TooLarge
from .flow import leftmost_cut
from .graph import Graph, canon, connected_components, reachable_from
from .leftmost import enumerate_leftmost


@dataclass(frozen=True)
class TreeDecomposition:
    """Tree of bags; `bags` maps node id to a frozenset of graph vertices."""

    nodes: tuple
    bags: dict
    tree_edges: tuple
    root: int | None = None

    def neighbors_map(self) -> dict:
        nbrs: dict = {x: [] for x in self.nodes}
        for a, b in self.tree_edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return nbrs


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class RepSet:
    """DFS-subtree representatives with their pruned-subtree weights."""

    reps: tuple

    def vertices(self) -> list[int]:
        return [v for v, _ in self.reps]


@dataclass(frozen=True)
class Rejection:
    """Certificate that no weakly balanced separation of witness_w exists
    within budget, hence the treewidth exceeds the budget minus one."""

    witness_w: frozenset
    budget: int


def validate_td(g: Graph, td: TreeDecomposition) -> list[Violation]:
    """All violations of the three decomposition conditions (empty = valid)."""
    out: list[Violation] = []
    nodes = list(td.nodes)
    if len(set(nodes)) != len(nodes):
        out.append(Violation("structure", "duplicate node ids"))
        return out
    node_set = set(nodes)
    if set(td.bags) != node_set:
        out.append(Violation("structure", "bags and node ids disagree"))
        return out
    for a, b in td.tree_edges:
        if a not in node_set or b not in node_set:
            out.append(Violation("structure", f"edge ({a},{b}) references unknown node"))
            return out
    nbrs = td.neighbors_map()
    if nodes:
        if len(td.tree_edges) != len(nodes) - 1:
            out.append(Violation("structure", "edge count is not |nodes|-1"))
            return out
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(nodes):
            out.append(Violation("structure", "tree edges do not connect all nodes"))
            return out
    holding: list[list] = [[] for _ in range(g.n + 1)]  # vertex -> its nodes, in node order
    for x in nodes:
        bad = []
        for v in td.bags[x]:
            if 1 <= v <= g.n:
                holding[v].append(x)
            else:
                bad.append(v)
        if bad:
            out.append(Violation("bag-range", f"bag {x} contains non-vertices {canon(bad)}"))
    for v in g.vertices:
        if not holding[v]:
            out.append(Violation("vertex-coverage", f"vertex {v} in no bag"))
    for u, v in g.edges():
        if not any(v in td.bags[x] for x in holding[u]):
            out.append(Violation("edge-coverage", f"edge ({u},{v}) in no bag"))
    for v in g.vertices:
        held = holding[v]
        if len(held) <= 1:
            continue
        hold_set = set(held)
        seen = {held[0]}
        stack = [held[0]]
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if w in hold_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(held):
            out.append(Violation("running-intersection", f"bags holding {v} are disconnected"))
    return out


def td_width(td: TreeDecomposition) -> int:
    """Largest bag size."""
    if not td.nodes:
        raise EmptyDecomposition("no bags")
    return max(len(td.bags[x]) for x in td.nodes)


def is_balanced_w_separator(g: Graph, w, s) -> bool:
    """No component of G - S holds more than half of W."""
    w, s = frozenset(w), frozenset(s)
    within = frozenset(g.vertices) - s
    return all(len(c & w) <= len(w) / 2 for c in connected_components(g, within=within))


def is_strong_centroid(g: Graph, td: TreeDecomposition, w, node) -> bool:
    """No component of G - B_node holds more than half of W \\ B_node."""
    w = frozenset(w)
    bag = td.bags[node]
    within = frozenset(g.vertices) - bag
    half = len(w - bag) / 2
    return all(len(c & w) <= half for c in connected_components(g, within=within))


def compute_representatives(g: Graph, t: int, within: frozenset | None = None) -> RepSet:
    """Greedy DFS-subtree representatives.

    DFS from the lowest vertex, ascending neighbors. Whenever a finished
    vertex's pruned subtree size reaches t it becomes a representative of
    that weight and the subtree is pruned; the root is always emitted
    last with whatever weight is left. Weights therefore sum to n.
    """
    if t < 1:
        raise PreconditionViolated("threshold must be >= 1")
    universe = within if within is not None else frozenset(g.vertices)
    if not universe:
        raise PreconditionViolated("empty graph")
    root = min(universe)
    parent: dict[int, int] = {root: 0}
    post: list[int] = []
    stack: list[tuple[int, int]] = [(root, 0)]
    while stack:
        v, i = stack.pop()
        advanced = False
        nb = g.adj[v] + g.radj[v] if g.directed else g.adj[v]
        while i < len(nb):
            w = nb[i]
            i += 1
            if w in universe and w not in parent:
                parent[w] = v
                stack.append((v, i))
                stack.append((w, 0))
                advanced = True
                break
        if not advanced:
            post.append(v)
    if len(parent) != len(universe):
        raise PreconditionViolated("graph is not connected")
    size = {v: 1 for v in universe}
    reps: list[tuple[int, int]] = []
    for v in post:
        if v == root:
            reps.append((v, size[v]))
        elif size[v] >= t:
            reps.append((v, size[v]))
        else:
            size[parent[v]] += size[v]
    return RepSet(tuple(reps))


def _placements(verts: list, k: int, side_cap: float | None = None, g: Graph | None = None):
    """Surviving placements (X, S, Y) of ``verts``, in base-3 Gray-code order.

    Placement number ``num`` has base-3 digits d_0..d_{m-1} (d_m = 0) and
    sends verts[i] left (0), into the separator (1) or right (2) as
    t_i = (d_i - d_{i+1}) mod 3. Counting ``num`` upward is a depth-first
    search that fixes the most significant digit first and tries 0, 1, 2:
    the digits d_{m-1..i} fix t_{m-1..i}, so verts[m-1] is placed first
    and each subtree is one prefix. A subtree is cut as soon as its prefix
    puts more than ``k`` vertices in S, more than ``side_cap`` on one side,
    or (when ``g`` is given) an arc of ``g`` from X to Y. Each test only
    tightens as the prefix grows, so every placement cut off would have
    failed it, and the survivors come in the order a full count gives.
    """
    if k < 0:
        return  # even the empty separator is over budget
    m = len(verts)
    side_cap = m if side_cap is None else side_cap
    cap = (side_cap, k, side_cap)
    out_mask = [0] * m  # positions j with an arc verts[i] -> verts[j]
    in_mask = [0] * m  # positions j with an arc verts[j] -> verts[i]
    if g is not None:
        pos = {v: i for i, v in enumerate(verts)}
        for i, v in enumerate(verts):
            for u in g.adj[v]:
                j = pos.get(u)
                if j is not None:
                    out_mask[i] |= 1 << j
                    in_mask[j] |= 1 << i
    count = [0, 0, 0]
    mask = [0, 0, 0]
    side = [-1] * m  # current placement of each position, -1 while open
    digit = [0] * (m + 1)  # d_i of the current prefix; digit[m] stays 0
    nxt = [0] * m  # next digit to try at each position
    i = m - 1
    while i < m:
        if i < 0:
            yield (
                frozenset(verts[j] for j in range(m) if side[j] == 0),
                frozenset(verts[j] for j in range(m) if side[j] == 1),
                frozenset(verts[j] for j in range(m) if side[j] == 2),
            )
            i = 0
            continue
        t = side[i]
        if t >= 0:
            count[t] -= 1
            mask[t] ^= 1 << i
            side[i] = -1
        d = nxt[i]
        if d == 3:
            nxt[i] = 0
            i += 1
            continue
        nxt[i] = d + 1
        t = (d - digit[i + 1]) % 3
        if count[t] + 1 > cap[t]:
            continue
        if (t == 0 and out_mask[i] & mask[2]) or (t == 2 and in_mask[i] & mask[0]):
            continue  # an X->Y arc can never be cut by a set avoiding both
        count[t] += 1
        mask[t] |= 1 << i
        side[i] = t
        digit[i] = d
        i -= 1


def is_weak_separation(g: Graph, w, x, s, y, within: frozenset | None = None) -> bool:
    """Definition-level check of a weakly balanced separation of W."""
    w, x, s, y = frozenset(w), frozenset(x), frozenset(s), frozenset(y)
    if (x & s) or (x & y) or (s & y):
        return False
    if not (x <= w and y <= w):
        return False
    if (x | y | (s & w)) != w:
        return False
    if not x or not y:
        return False
    bound = 2 * len(w) / 3
    if len(x) > bound or len(y) > bound:
        return False
    universe = within if within is not None else frozenset(g.vertices)
    reach = reachable_from(g, x, removed=s, within=universe)
    return not (reach & y)


def _iter_weak_separations(g: Graph, w: frozenset, k: int, within: frozenset | None):
    """Valid separations in canonical (Gray-code) assignment order.

    Each assignment sends a W-vertex left, into the separator, or right;
    the separator is completed by a minimum cut that avoids both sides.
    The assignments come from the pruned depth-first search of
    ``_placements``, which skips every assignment with more than k
    W-vertices in S, a side over 2|W|/3, or an X->Y arc, and yields the
    rest in the order of a plain base-3 count; so the first separation
    found, and the exhaustion behind a rejection, are those of trying all
    3^|W| assignments in turn.
    """
    w_list = sorted(w)
    for xs, ss, ys in _placements(w_list, k, 2 * len(w_list) / 3, g):
        if not xs or not ys:
            continue
        region = (within if within is not None else frozenset(g.vertices)) - ss
        try:
            cut, _ = leftmost_cut(g, xs, ys, k - len(ss), forced=xs | ys, active=region)
        except TooLarge:
            continue
        s = ss | cut
        if is_weak_separation(g, w, xs, s, ys, within=within):
            yield xs, s, ys


def weakly_balanced_separation(g: Graph, w, k: int, within: frozenset | None = None):
    """First weakly balanced separation (X, S, Y) of W with |S| <= k, or None."""
    w = frozenset(w)
    if len(w) < 2:
        raise PreconditionViolated("|W| must be at least 2")
    return next(_iter_weak_separations(g, w, k, within), None)


def _group_components(comps: list, right_terms: frozenset):
    """Volumes of the left/right component groups; untouched components go left."""
    vol_left = 0
    vol_right = 0
    for c in comps:
        if c & right_terms:
            vol_right += len(c)
        else:
            vol_left += len(c)
    return vol_left, vol_right


def _split_by_volume(g: Graph, region: frozenset, k: int, epsilon: float):
    n = len(region)
    if n <= 4 * k:
        return None
    t = max(1, math.ceil((0.5 - epsilon) * n / k))
    reps = compute_representatives(g, t, within=region)
    rep_list = sorted(reps.vertices())
    for left, sep, right in _placements(rep_list, k):
        if not left or not right:
            continue
        sub_region = region - sep
        budget = k - len(sep)
        if budget == 0:
            reach = reachable_from(g, left, within=sub_region)
            cut_sets = [frozenset()] if not (reach & right) else []
        else:
            res = enumerate_leftmost(g, left, right, budget, within=sub_region)
            if res.too_large:
                continue
            cut_sets = [sp.members for sp in res.separators]
        for cut in cut_sets:
            s = sep | cut
            comps = connected_components(g, within=region - s)
            vol_left, vol_right = _group_components(comps, right - s)
            small, large = sorted((vol_left, vol_right))
            if small >= epsilon * n / 2 and large <= (1 - epsilon / 2) * n:
                return s, tuple(comps)
    return None


def split_by_volume(g: Graph, k: int, epsilon: float):
    """A separator of <= k vertices splitting the graph volume roughly
    epsilon/2 : 1-epsilon/2 via representative placement, or None."""
    if not (0 < epsilon <= 0.25):
        raise InvalidInput("epsilon must lie in (0, 1/4]")
    return _split_by_volume(g, frozenset(g.vertices), k, epsilon)


def _interface(g: Graph, s: frozenset, comp: frozenset) -> frozenset:
    return frozenset(u for u in s if any(nb in comp for nb in g.adj[u]))


class _TdBuilder:
    def __init__(self):
        self.bags: dict[int, frozenset] = {}
        self.edges: list[tuple[int, int]] = []

    def add(self, bag: frozenset, children: list[int]) -> int:
        node = len(self.bags) + 1
        self.bags[node] = frozenset(bag)
        for c in children:
            self.edges.append((node, c))
        return node

    def build(self, root: int | None) -> TreeDecomposition:
        return TreeDecomposition(
            nodes=tuple(sorted(self.bags)),
            bags=dict(self.bags),
            tree_edges=tuple(self.edges),
            root=root,
        )


def decompose(g: Graph, k: int, *, epsilon: float | None = None, volume_splits: bool = True):
    """Width-<=5(k-1) tree decomposition, or a Rejection proving tw > k-1.

    k=2 uses a slightly smaller boundary cap (3 instead of 3k-2) so that
    every bag fits the 5(k-1)=5 budget; rejections there are still sound
    because only edgeless graphs have bag-size treewidth 1 and those
    always split.

    Each region first tries a volume split with its boundary W unpadded;
    W is padded to the cap only for the weak-separation search. Either
    way the bag W∪S and every child's boundary come from the same W, so a
    bag holds at most cap + k <= 5(k-1) vertices.
    """
    if k < 2:
        raise InvalidBudget("decompose requires k >= 2")
    if epsilon is None:
        epsilon = min(1 / 6, 1 / k)
    if not (0 < epsilon <= 0.25):
        raise InvalidInput("epsilon must lie in (0, 1/4]")
    if g.directed:
        g = Graph(g.n, g.edges(), directed=False)
    wcap = 3 * k - 2 if k >= 3 else 3
    leafcap = 4 * k - 2 if k >= 3 else 5
    volume_period = math.ceil(math.log2(k)) + 1
    builder = _TdBuilder()

    open_splits: list = []  # (W, S, components, depth, child nodes so far), innermost last

    def enter(region: frozenset, w: frozenset, depth: int):
        """A leaf's node, or a Rejection, or None once the region's split is open."""
        if len(region) <= leafcap:
            return builder.add(region, [])
        split = None
        if volume_splits and depth % volume_period == 0 and len(region) > 8 * k:
            vol = _split_by_volume(g, region, k, epsilon)
            if vol is not None:
                s, comps = vol
                if all(len((w & c) | _interface(g, s, c)) <= wcap for c in comps):
                    split = (s, comps)
        if split is None:
            need = min(len(region), wcap) - len(w)
            if need > 0:
                w = w | frozenset(sorted(region - w)[:need])
            for xs, s, ys in _iter_weak_separations(g, w, k, within=region):
                comps = tuple(connected_components(g, within=region - s))
                if all(len((w & c) | _interface(g, s, c)) <= wcap for c in comps):
                    split = (s, comps)
                    break
            if split is None:
                return Rejection(witness_w=w, budget=k)
        open_splits.append((w, *split, depth, []))
        return None

    def rec(region: frozenset):
        """Decompose one connected region: its root node, or a Rejection.

        ``open_splits`` stands in for the call stack, so deep trees need
        no deep recursion. Components are entered in order and a node is
        numbered after all its children, as in a recursive post-order.
        """
        done = enter(region, frozenset(), 0)
        while not isinstance(done, Rejection):
            if done is not None:
                if not open_splits:
                    return done
                open_splits[-1][4].append(done)
            w, s, comps, depth, children = open_splits[-1]
            if len(children) < len(comps):
                c = comps[len(children)]
                iface = _interface(g, s, c)
                done = enter(c | iface, (w & c) | iface, depth + 1)
            else:
                open_splits.pop()
                done = builder.add(w | s, children)
        return done

    roots = []
    for comp in connected_components(g):
        res = rec(comp)
        if isinstance(res, Rejection):
            return res
        roots.append(res)
    if not roots:
        roots.append(builder.add(frozenset(), []))
    for extra in roots[1:]:
        builder.edges.append((roots[0], extra))
    return builder.build(root=roots[0])


def to_nice(td: TreeDecomposition, root: int | None = None) -> TreeDecomposition:
    """Equivalent nice decomposition: rooted, every node a leaf (empty bag),
    forget, introduce, or join; same width, O(width * nodes) size."""
    if not td.nodes:
        raise InvalidInput("cannot normalize an empty decomposition")
    if root is None:
        root = td.root if td.root is not None else min(td.nodes)
    if root not in set(td.nodes):
        raise InvalidInput(f"unknown root {root}")
    if td.tree_edges and len(td.tree_edges) != len(td.nodes) - 1:
        raise InvalidInput("tree_edges do not form a tree")
    nbrs = td.neighbors_map()
    builder = _TdBuilder()

    def chain_to(node_id: int, have: frozenset, want: frozenset) -> int:
        cur = node_id
        bag = have
        for v in sorted(have - want):
            bag = bag - {v}
            cur = builder.add(bag, [cur])
        for v in sorted(want - have):
            bag = bag | {v}
            cur = builder.add(bag, [cur])
        return cur

    def finish(x: int, tops: list) -> int:
        bag = td.bags[x]
        if not tops:
            leaf = builder.add(frozenset(), [])
            return chain_to(leaf, frozenset(), bag)
        acc = tops[0]
        for other in tops[1:]:
            acc = builder.add(bag, [acc, other])
        return acc

    # Depth-first over the tree with a stack of (node, children, their tops
    # so far) in place of recursion, so a long path needs no deep calls.
    seen = {root}
    stack = [(root, nbrs[root], [])]
    while True:
        x, kids, tops = stack[-1]
        if len(tops) < len(kids):
            c = kids[len(tops)]
            if c in seen:
                raise InvalidInput("tree_edges do not form a tree")
            seen.add(c)
            stack.append((c, [d for d in nbrs[c] if d != x], []))
            continue
        stack.pop()
        sub = finish(x, tops)
        if not stack:
            return builder.build(root=sub)
        stack[-1][2].append(chain_to(sub, td.bags[x], td.bags[stack[-1][0]]))


def nice_node_types(td: TreeDecomposition) -> dict[int, str]:
    """Classify every node of a rooted nice decomposition; raises
    InvalidInput at the first node fitting none of the four types."""
    if td.root is None:
        raise InvalidInput("nice decompositions must be rooted")
    nbrs = td.neighbors_map()
    types: dict[int, str] = {}
    stack = [(td.root, None)]
    while stack:
        x, parent = stack.pop()
        kids = [c for c in nbrs[x] if c != parent]
        bag = td.bags[x]
        if not kids:
            types[x] = "leaf"
        elif len(kids) == 1:
            child_bag = td.bags[kids[0]]
            if len(bag) + 1 == len(child_bag) and bag < child_bag:
                types[x] = "forget"
            elif len(bag) == len(child_bag) + 1 and child_bag < bag:
                types[x] = "introduce"
            else:
                raise InvalidInput(f"node {x} is neither forget nor introduce")
        elif len(kids) == 2:
            if td.bags[kids[0]] == bag and td.bags[kids[1]] == bag:
                types[x] = "join"
            else:
                raise InvalidInput(f"node {x} is not a join (child bags differ)")
        else:
            raise InvalidInput(f"node {x} has {len(kids)} children")
        for c in kids:
            stack.append((c, x))
    return types
