"""Independent checks of sepkit's outputs.

Nothing here imports sepkit. Each check recomputes what it needs from
the input edge list with its own breadth-first search, subset
enumeration, Catalan numbers (from ``math.comb``), ``.td`` reader and
degeneracy count, and raises ``CheckFailed`` on the first violation.

Vertex ids are 1..n. Graphs are undirected and given as an adjacency
list ``adj`` of sets, built by ``adjacency``.
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import combinations


class CheckFailed(Exception):
    """An output violates a property the checker verified."""


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def reach(adj, sources, removed=frozenset()) -> frozenset:
    """Vertices reachable from sources minus removed, in G - removed."""
    seen = {s for s in sources if s not in removed}
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen and w not in removed:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def separates(adj, x, y, s) -> bool:
    left = reach(adj, x, s)
    return not any(v in left for v in y if v not in s)


def catalan(i: int) -> int:
    return math.comb(2 * i, i) // (i + 1)


# -- separators --------------------------------------------------------------


def check_separator(adj, x, y, s, k: int) -> None:
    """S cuts X from Y, is minimal, and has at most k vertices."""
    s = frozenset(s)
    if len(s) > k:
        raise CheckFailed(f"separator {sorted(s)} has {len(s)} > k={k} vertices")
    if not separates(adj, x, y, s):
        raise CheckFailed(f"{sorted(s)} does not separate X from Y")
    for v in s:
        if separates(adj, x, y, s - {v}):
            raise CheckFailed(f"{sorted(s)} is not minimal: {v} is redundant")


def check_leftmost_family(adj, x, y, family, k: int) -> None:
    """Valid separators whose left parts are pairwise not strictly nested."""
    family = [frozenset(s) for s in family]
    if len(set(family)) != len(family):
        raise CheckFailed("leftmost family repeats a separator")
    for s in family:
        check_separator(adj, x, y, s, k)
    lefts = [reach(adj, x, s) for s in family]
    for i, a in enumerate(lefts):
        for j, b in enumerate(lefts):
            if i != j and b < a:
                raise CheckFailed(
                    f"left part of {sorted(family[j])} lies strictly inside that of {sorted(family[i])}"
                )


def check_important_family(adj, x, y, family, k: int) -> None:
    """Valid separators none of which is dominated by another one: no
    member of equal or smaller size has a strictly larger right part."""
    family = [frozenset(s) for s in family]
    if len(set(family)) != len(family):
        raise CheckFailed("important family repeats a separator")
    for s in family:
        check_separator(adj, x, y, s, k)
    rights = [reach(adj, y, s) for s in family]
    for i, a in enumerate(rights):
        for j, b in enumerate(rights):
            if i != j and len(family[j]) <= len(family[i]) and b > a:
                raise CheckFailed(f"{sorted(family[i])} is dominated by {sorted(family[j])}")


def brute_families(adj, n: int, x, y, k: int) -> tuple[set, set]:
    """(leftmost, important) families by enumerating every vertex subset
    of size <= k; meant for n <= 16."""
    minimal = []
    for size in range(min(k, n) + 1):
        for comb in combinations(range(1, n + 1), size):
            s = frozenset(comb)
            if separates(adj, x, y, s) and all(not separates(adj, x, y, s - {v}) for v in s):
                minimal.append(s)
    lefts = {s: reach(adj, x, s) for s in minimal}
    rights = {s: reach(adj, y, s) for s in minimal}
    leftmost = {s for s in minimal if not any(lefts[t] < lefts[s] for t in minimal)}
    important = {
        s
        for s in minimal
        if not any(len(t) <= len(s) and rights[t] > rights[s] for t in minimal)
    }
    return leftmost, important


def check_family_equals(got, want, what: str) -> None:
    got = {frozenset(s) for s in got}
    if got != want:
        missing = sorted(sorted(s) for s in want - got)
        extra = sorted(sorted(s) for s in got - want)
        raise CheckFailed(f"{what} differs from brute force: missing {missing}, extra {extra}")


def check_min_separator(adj, x, y, s, paths, k: int) -> None:
    """S separates with |S| <= k, and |S| vertex-disjoint X->Y walks
    along edges exist (Menger), so S is a minimum separator."""
    s = frozenset(s)
    if len(s) > k:
        raise CheckFailed(f"separator has {len(s)} > k={k} vertices")
    if not separates(adj, x, y, s):
        raise CheckFailed(f"{sorted(s)} does not separate X from Y")
    if len(paths) != len(s):
        raise CheckFailed(f"{len(paths)} paths but |S| = {len(s)}")
    used: set[int] = set()
    for p in paths:
        if not p or p[0] not in x or p[-1] not in y:
            raise CheckFailed(f"path {list(p)[:5]}... does not run from X to Y")
        for u, w in zip(p, p[1:]):
            if w not in adj[u]:
                raise CheckFailed(f"path steps along a non-edge ({u},{w})")
        for v in p:
            if v in used:
                raise CheckFailed(f"paths share vertex {v}")
            used.add(v)


# -- tree decompositions -----------------------------------------------------


def read_td(text: str) -> tuple[dict, list, int]:
    """Read a PACE ``.td`` text into (bags, tree edges, n)."""
    header = None
    bags: dict[int, frozenset] = {}
    edges: list[tuple[int, int]] = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "s":
            if header is not None or len(parts) != 5 or parts[1] != "td":
                raise CheckFailed(f"bad solution line {line!r}")
            header = tuple(int(t) for t in parts[2:])
        elif header is None:
            raise CheckFailed("content before the solution line")
        elif parts[0] == "b":
            bag_id = int(parts[1])
            if bag_id in bags:
                raise CheckFailed(f"bag {bag_id} given twice")
            bags[bag_id] = frozenset(int(t) for t in parts[2:])
        elif len(parts) == 2:
            edges.append((int(parts[0]), int(parts[1])))
        else:
            raise CheckFailed(f"bad line {line!r}")
    if header is None:
        raise CheckFailed("no solution line")
    n_bags, width, n = header
    if len(bags) != n_bags:
        raise CheckFailed(f"header says {n_bags} bags, file has {len(bags)}")
    if bags and max(len(b) for b in bags.values()) != width:
        raise CheckFailed("header width differs from the largest bag")
    return bags, edges, n


def check_td(adj, n: int, bags: dict, edges, k: int) -> int:
    """A tree of bags covering every vertex and edge, with connected
    holders for every vertex and width (largest bag) <= 5(k-1). Returns
    the width."""
    if not bags:
        raise CheckFailed("no bags")
    if len(edges) != len(bags) - 1:
        raise CheckFailed(f"{len(edges)} tree edges for {len(bags)} bags")
    tree: dict[int, list[int]] = {b: [] for b in bags}
    for a, b in edges:
        if a not in tree or b not in tree:
            raise CheckFailed(f"tree edge ({a},{b}) names an unknown bag")
        tree[a].append(b)
        tree[b].append(a)
    start = next(iter(bags))
    if len(_component(tree, start, tree)) != len(bags):
        raise CheckFailed("tree edges do not connect all bags")
    holders: list[list[int]] = [[] for _ in range(n + 1)]
    for b, members in bags.items():
        for v in members:
            if not 1 <= v <= n:
                raise CheckFailed(f"bag {b} holds non-vertex {v}")
            holders[v].append(b)
    for v in range(1, n + 1):
        if not holders[v]:
            raise CheckFailed(f"vertex {v} is in no bag")
        hold = set(holders[v])
        if len(_component(tree, holders[v][0], hold)) != len(hold):
            raise CheckFailed(f"bags holding {v} are not connected")
        for w in adj[v]:
            if v < w and not any(w in bags[b] for b in holders[v]):
                raise CheckFailed(f"edge ({v},{w}) is in no bag")
    width = max(len(b) for b in bags.values())
    if width > 5 * (k - 1):
        raise CheckFailed(f"width {width} exceeds 5(k-1) = {5 * (k - 1)}")
    return width


def _component(tree, start, allowed) -> set:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in tree[u]:
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def degeneracy(adj, n: int) -> int:
    """Largest minimum degree met while peeling minimum-degree vertices."""
    deg = [len(adj[v]) for v in range(n + 1)]
    buckets: dict[int, set[int]] = {}
    for v in range(1, n + 1):
        buckets.setdefault(deg[v], set()).add(v)
    removed = [False] * (n + 1)
    best = 0
    d = 0
    for _ in range(n):
        d = max(0, d - 1)
        while not buckets.get(d):
            d += 1
        v = buckets[d].pop()
        removed[v] = True
        best = max(best, d)
        for w in adj[v]:
            if not removed[w]:
                buckets[deg[w]].discard(w)
                deg[w] -= 1
                buckets.setdefault(deg[w], set()).add(w)
    return best


def check_rejection(adj, n: int, k: int, known_tw: int | None = None) -> None:
    """A rejection at k claims bag-size treewidth >= k, i.e. classic
    treewidth >= k-1. The claim must follow from a lower bound: the
    degeneracy, or a family's known classic treewidth."""
    bound = degeneracy(adj, n)
    if known_tw is not None:
        bound = max(bound, known_tw)
    if bound < k - 1:
        raise CheckFailed(
            f"rejected at k={k}, but the treewidth lower bound is only {bound} < k-1"
        )


def check_cli_tw(stdout: str, code: int, td_text: str | None, adj, n: int, k: int, known_tw) -> None:
    """``tw -o`` then ``validate``: stdout, exit codes and the written file
    agree with each other and with the checker's own validation."""
    lines = stdout.splitlines()
    if not lines:
        raise CheckFailed("the CLI printed nothing")
    tw = json.loads(lines[0])
    if tw.get("status") == "reject":
        if code != 2 or len(lines) != 1:
            raise CheckFailed(f"rejection with exit code {code} and {len(lines)} lines")
        check_rejection(adj, n, k, known_tw)
        return
    if tw.get("status") != "accept" or code != 0 or len(lines) != 2 or td_text is None:
        raise CheckFailed(f"unexpected CLI result {lines!r} (exit {code})")
    bags, edges, td_n = read_td(td_text)
    if td_n != n:
        raise CheckFailed(f".td is for {td_n} vertices, the graph has {n}")
    width = check_td(adj, n, bags, edges, k)
    valid = json.loads(lines[1])
    if (tw["width"], tw["bags"]) != (width, len(bags)):
        raise CheckFailed(f"tw reports {tw}, the file has width {width} and {len(bags)} bags")
    if valid != {"status": "valid", "width": width, "bags": len(bags)}:
        raise CheckFailed(f"validate reports {valid}")
