"""Enumeration of minimal leftmost and important (X, Y, <=k)-separators.

A minimal separator S of size <= k is *leftmost* when no other minimal
separator of size <= k has a strictly smaller left part V_{X,S}.
*Important* separators are the ones not dominated at equal-or-smaller
size by a strictly larger right part; they are exactly the union of the
leftmost families over budgets 1..k, which is how ``enumerate_important``
computes them.

The enumerator branches from the leftmost minimum cut. At each node it
holds the current cut S with the search re-targeted onto S inside the
region left of S (candidates further left all live there). For a pivot
v of S it explores two futures: v excluded from the final separator
(recompute the leftmost minimum cut with v forced out, which lands
strictly further left, shrink the region, warm-starting the packing
with the clipped paths) and v included (committed to the output).
A cut is emitted once fully committed and no strictly-left competitor
containing the committed vertices was ever seen on its branch.

The number of leftmost separators is at most the Catalan number
C_{k-1}, important ones at most sum_{i<k} C_i, and the branch tree
stays Catalan-bounded; all three are asserted on every run. The
explored-node count is the number of two-fold branch points (nodes
whose exclude and include children both ran): forced chains collapse,
matching the compact bracket-tree accounting, whose k=1 bound is
clamped at zero since a two-fold branch needs two uncommitted cut
vertices and hence k >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TooLarge
from .flow import Separator, check_ids, left_region, leftmost_cut, truncate_at_cut
from .graph import Graph, canon, reachable_from


def catalan(n: int) -> int:
    """The n-th Catalan number, exactly."""
    if n < 0:
        raise ValueError("catalan is defined for n >= 0")
    return math.comb(2 * n, n) // (n + 1)


def count_bounds(k: int) -> tuple[int, int]:
    """(C_{k-1}, sum_{i=0}^{k-1} C_i): tight caps on the two families."""
    if k < 1:
        raise ValueError("count_bounds requires k >= 1")
    return catalan(k - 1), sum(catalan(i) for i in range(k))


def node_count_bound(k: int) -> int:
    """Cap on explored branch nodes, clamped at 0 (the k=1 sum is empty)."""
    return max(0, 2 * sum(catalan(i) for i in range(1, k)) - 1)


@dataclass(frozen=True)
class EnumerationResult:
    separators: tuple
    k: int
    too_large: bool
    explored_nodes: int
    invocations: int
    emitted_raw: int

    @property
    def count(self) -> int:
        return len(self.separators)

    def member_lists(self) -> list[list[int]]:
        return [canon(s.members) for s in self.separators]


def _branch_enumerate(g: Graph, x: frozenset, y: frozenset, k: int, within: frozenset | None):
    """Run the branching; returns (emitted set, explored, invocations) or None
    when even the minimum admissible cut exceeds k."""
    try:
        cut0, paths0 = leftmost_cut(g, x, y, k, active=within)
    except TooLarge:
        return None
    emitted: set = set()
    explored = 0
    invocations = 0

    active0 = left_region(g, x, cut0, within)
    root = (
        active0,
        cut0,  # target: the search is re-aimed at the current cut
        cut0,  # current separator
        frozenset(),  # included
        frozenset(),  # excluded
        tuple(sorted(cut0, reverse=True)),  # pending pivots, popped ascending
        True,  # leftmost flag
        truncate_at_cut(paths0, cut0),
    )
    work = [root]
    while work:
        active, target, sep, included, excluded, pending, leftflag, paths = work.pop()
        invocations += 1
        if not pending:
            if leftflag:
                emitted.add(sep)
            continue
        pending = list(pending)
        v = pending.pop()

        children = 0
        new_excluded = excluded | {v}
        if not (new_excluded & x & target):
            try:
                cut, flow_paths = leftmost_cut(
                    g, x, target, k, forced=new_excluded, active=active, warm=paths
                )
            except TooLarge:
                pass
            else:
                if included <= cut:
                    leftflag = False
                    children += 1
                    work.append(
                        (
                            left_region(g, x, cut, active),
                            cut,
                            cut,
                            included,
                            new_excluded,
                            tuple(sorted(cut - included, reverse=True)),
                            True,
                            truncate_at_cut(flow_paths, cut),
                        )
                    )

        if len(sep - included) >= 2 or leftflag:
            children += 1
            work.append(
                (active, target, sep, included | {v}, excluded, tuple(pending), leftflag, paths)
            )
        if children == 2:
            explored += 1
    return emitted, explored, invocations


def _keep_leftmost(g: Graph, x: frozenset, cands: set, within: frozenset | None) -> set:
    """Drop candidates with a strictly-left competitor among the candidates."""
    lefts = {s: reachable_from(g, x, removed=s, within=within) for s in cands}
    return {s for s in cands if not any(lefts[t] < lefts[s] for t in cands if t != s)}


def enumerate_leftmost(g: Graph, x, y, k: int, within: frozenset | None = None) -> EnumerationResult:
    """All minimal leftmost (X, Y, <=k)-separators, canonically ordered.

    Returns an empty result flagged ``too_large`` when every admissible
    separator exceeds k (including k <= 0 and |X∩Y| > k). ``within``
    restricts the search to an induced subgraph. Raises
    PreconditionViolated when an id lies outside 1..n.
    """
    x, y = frozenset(x), frozenset(y)
    check_ids(g.n, [("X", x), ("Y", y), ("within", within or ())])
    if k <= 0 or len(x & y) > k:
        return EnumerationResult((), k, True, 0, 0, 0)
    run = _branch_enumerate(g, x, y, k, within)
    if run is None:
        return EnumerationResult((), k, True, 0, 0, 0)
    emitted, explored, invocations = run
    final = _keep_leftmost(g, x, emitted, within)
    assert len(final) <= catalan(k - 1), "leftmost count exceeds C_{k-1}"
    assert explored <= node_count_bound(k), "branch tree exceeds bracket-tree size"
    seps = tuple(Separator(s) for s in sorted(final, key=lambda s: canon(s)))
    return EnumerationResult(seps, k, False, explored, invocations, len(emitted))


def enumerate_important(g: Graph, x, y, k: int, within: frozenset | None = None) -> EnumerationResult:
    """All important (X, Y, <=k)-separators: the union of leftmost families
    over budgets 1..k."""
    x, y = frozenset(x), frozenset(y)
    check_ids(g.n, [("X", x), ("Y", y), ("within", within or ())])
    union: set = set()
    explored = 0
    invocations = 0
    emitted_raw = 0
    too_large = True
    for i in range(1, k + 1):
        res = enumerate_leftmost(g, x, y, i, within)
        explored += res.explored_nodes
        invocations += res.invocations
        emitted_raw += res.emitted_raw
        if not res.too_large:
            too_large = False
            union.update(s.members for s in res.separators)
    if k >= 1:
        assert len(union) <= count_bounds(k)[1], "important count exceeds sum C_i"
    seps = tuple(Separator(s) for s in sorted(union, key=lambda s: canon(s)))
    return EnumerationResult(seps, k, too_large, explored, invocations, emitted_raw)
