"""Brute-force ground truth and deterministic fixture generators.

Everything here trades time for obviousness: separator sets by subset
enumeration, exact treewidth by dynamic programming over vertex
subsets, graphs from closed-form constructions or a fixed 64-bit LCG.
Hard size guards keep the oracles honest; they never silently truncate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import InvalidInput, TooBig
from .flow import Separator
from .graph import Graph, is_minimal_separator, is_separator, left_part, reachable_from

BRUTE_N_LIMIT = 16
TREEWIDTH_N_LIMIT = 18


class Lcg:
    """64-bit linear congruential generator with fixed constants.

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    seeded directly with the given integer. ``below(r)`` advances once and
    returns (state' >> 33) % r. Any implementation following this recipe
    reproduces the same corpora bit for bit.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_state(self) -> int:
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return self.state

    def below(self, r: int) -> int:
        if r <= 0:
            raise ValueError("r must be positive")
        return (self.next_state() >> 33) % r


def brute_minimal_separators(g: Graph, x, y, k: int) -> set:
    """All minimal (X, Y)-separators of size <= k, by subset enumeration."""
    if g.n > BRUTE_N_LIMIT:
        raise TooBig(f"brute-force separator oracle is limited to n <= {BRUTE_N_LIMIT}")
    x, y = frozenset(x), frozenset(y)
    out = set()
    verts = sorted(g.vertices)
    for size in range(min(k, g.n) + 1):
        for comb in combinations(verts, size):
            s = frozenset(comb)
            if is_separator(g, x, y, s) and is_minimal_separator(g, x, y, s):
                out.add(Separator(s))
    return out


def filter_leftmost(g: Graph, x, candidates: Iterable[Separator]) -> set:
    """Members with no strictly-more-left competitor among the candidates."""
    x = frozenset(x)
    cands = list(candidates)
    lefts = [left_part(g, x, c.members) for c in cands]
    keep = set()
    for i, c in enumerate(cands):
        if not any(lefts[j] < lefts[i] for j in range(len(cands)) if j != i):
            keep.add(c)
    return keep


def filter_important(g: Graph, x, y, candidates: Iterable[Separator]) -> set:
    """Members not dominated (smaller-or-equal size, strictly larger Y-side)."""
    y = frozenset(y)
    cands = list(candidates)
    rights = [reachable_from(g, y, removed=c.members, reverse=g.directed) for c in cands]
    keep = set()
    for i, c in enumerate(cands):
        dominated = any(
            len(cands[j].members) <= len(c.members) and rights[j] > rights[i]
            for j in range(len(cands))
            if j != i
        )
        if not dominated:
            keep.add(c)
    return keep


def exact_treewidth(g: Graph) -> int:
    """Exact treewidth in the bag-size convention (classical width + 1).

    Dynamic program over elimination orderings: f(S) is the best possible
    largest elimination degree when the vertices of S are eliminated
    first, where eliminating v next costs the number of vertices outside
    S reachable from v through S. Directed graphs are measured on their
    underlying undirected graph.
    """
    n = g.n
    if n == 0:
        raise InvalidInput("treewidth of the empty graph is undefined")
    if n > TREEWIDTH_N_LIMIT:
        raise TooBig(f"exact treewidth oracle is limited to n <= {TREEWIDTH_N_LIMIT}")
    adj = [0] * n
    for v in g.vertices:
        for w in g.adj[v]:
            adj[v - 1] |= 1 << (w - 1)
            adj[w - 1] |= 1 << (v - 1)

    full = (1 << n) - 1
    f = [0] * (1 << n)
    for s in range(1, 1 << n):
        best = n
        rest = s
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            prev = f[s ^ bit]
            if prev >= best:
                continue
            through = s ^ bit
            comp = bit
            nb = adj[v]
            grow = nb & through & ~comp
            while grow:
                comp |= grow
                m = grow
                while m:
                    b = m & -m
                    m ^= b
                    nb |= adj[b.bit_length() - 1]
                grow = nb & through & ~comp
            degree = (nb & ~through & ~bit & full).bit_count()
            cost = prev if prev > degree else degree
            if cost < best:
                best = cost
        f[s] = best
    return f[full] + 1


def _bt(levels: int) -> Graph:
    if levels < 1:
        raise InvalidInput("BT needs levels >= 1")
    n = (1 << levels) - 1
    edges = [(i, 2 * i) for i in range(1, n + 1) if 2 * i <= n]
    edges += [(i, 2 * i + 1) for i in range(1, n + 1) if 2 * i + 1 <= n]
    return Graph(n, edges)


def bt_leaves(levels: int) -> frozenset:
    """Leaf ids of the heap-numbered complete binary tree."""
    return frozenset(range(1 << (levels - 1), 1 << levels))


BT_ROOT = 1


def _gnm(n: int, m: int, seed: int) -> Graph:
    total = n * (n - 1) // 2
    if m > total:
        raise InvalidInput(f"GNM({n},{m}): at most {total} edges exist")
    pairs = list(combinations(range(1, n + 1), 2))
    rng = Lcg(seed)
    chosen: set[int] = set()
    while len(chosen) < m:
        chosen.add(rng.below(total))
    return Graph(n, [pairs[i] for i in sorted(chosen)])


def _tree(n: int, seed: int) -> Graph:
    rng = Lcg(seed)
    edges = [(1 + rng.below(v - 1), v) for v in range(2, n + 1)]
    return Graph(n, edges)


def fixtures(name: str, *params: int) -> Graph:
    """Deterministic graph generators (BT, PATH, CYCLE, COMPLETE, GRID,
    STAR4, DIAMOND, TREE, GNM)."""
    name = name.upper()
    try:
        if name == "BT":
            (levels,) = params
            return _bt(levels)
        if name in ("PATH", "P"):
            (n,) = params
            return Graph(n, [(i, i + 1) for i in range(1, n)])
        if name in ("CYCLE", "C"):
            (n,) = params
            if n < 3:
                raise InvalidInput("CYCLE needs n >= 3")
            return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])
        if name in ("COMPLETE", "K"):
            (n,) = params
            return Graph(n, list(combinations(range(1, n + 1), 2)))
        if name == "GRID":
            r, c = params
            edges = []
            for i in range(r):
                for j in range(c):
                    v = i * c + j + 1
                    if j + 1 < c:
                        edges.append((v, v + 1))
                    if i + 1 < r:
                        edges.append((v, v + c))
            return Graph(r * c, edges)
        if name == "STAR4":
            if params:
                raise InvalidInput("STAR4 takes no parameters")
            return Graph(4, [(1, 3), (2, 3), (3, 4)])
        if name == "DIAMOND":
            if params:
                raise InvalidInput("DIAMOND takes no parameters")
            return Graph(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
        if name == "TREE":
            n, seed = params
            return _tree(n, seed)
        if name == "GNM":
            n, m, seed = params
            return _gnm(n, m, seed)
    except ValueError as exc:
        raise InvalidInput(f"bad parameters for fixture {name}: {params}") from exc
    raise InvalidInput(f"unknown fixture {name!r}")


@dataclass(frozen=True)
class CorpusInstance:
    """One (graph, X, Y, k) test record, reconstructible from the manifest."""

    fixture: str
    params: tuple
    x: tuple
    y: tuple
    k: int

    def graph(self) -> Graph:
        return fixtures(self.fixture, *self.params)

    def to_record(self) -> dict:
        return {
            "fixture": self.fixture,
            "params": list(self.params),
            "X": list(self.x),
            "Y": list(self.y),
            "k": self.k,
        }


def random_separator_corpus(count: int, seed: int = 1, n_max: int = 10, m_max: int = 20, k_max: int = 4) -> list[CorpusInstance]:
    """Seeded GNM instances with random terminals, for oracle cross-checks."""
    rng = Lcg(seed)
    out = []
    for i in range(count):
        n = 4 + rng.below(n_max - 3)
        m = rng.below(min(m_max, n * (n - 1) // 2) + 1)
        gseed = seed * 1_000_003 + i
        size_x = 1 + rng.below(3)
        size_y = 1 + rng.below(2)
        x = frozenset(1 + rng.below(n) for _ in range(size_x))
        y = frozenset(1 + rng.below(n) for _ in range(size_y))
        k = 1 + rng.below(k_max)
        out.append(CorpusInstance("GNM", (n, m, gseed), tuple(sorted(x)), tuple(sorted(y)), k))
    return out


def named_separator_corpus() -> list[CorpusInstance]:
    """The named fixtures with their natural terminal choices."""
    out = [
        CorpusInstance("PATH", (3,), (1,), (3,), 2),
        CorpusInstance("PATH", (5,), (1,), (5,), 3),
        CorpusInstance("DIAMOND", (), (1,), (4,), 2),
        CorpusInstance("STAR4", (), (1, 2), (4,), 2),
        CorpusInstance("COMPLETE", (4,), (1,), (2,), 3),
        CorpusInstance("CYCLE", (6,), (1,), (4,), 3),
        CorpusInstance("GRID", (3, 3), (1,), (9,), 4),
    ]
    for levels, k in ((3, 2), (3, 3), (4, 3), (4, 4)):
        leaves = tuple(sorted(bt_leaves(levels)))
        out.append(CorpusInstance("BT", (levels,), leaves, (BT_ROOT,), k))
    return out


def write_manifest(instances: Iterable[CorpusInstance], path: str) -> None:
    payload = {"instances": [inst.to_record() for inst in instances]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_manifest(path: str) -> list[CorpusInstance]:
    with open(path) as fh:
        payload = json.load(fh)
    return [
        CorpusInstance(
            rec["fixture"], tuple(rec["params"]), tuple(rec["X"]), tuple(rec["Y"]), rec["k"]
        )
        for rec in payload["instances"]
    ]

