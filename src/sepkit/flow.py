"""Vertex-disjoint path packing and the leftmost minimum separator.

The augmenting-walk machinery runs in a residual network with unit
vertex capacities (see ``_flowpure`` for the exact model). Saturating
the packing and reading off the first residual-unreachable vertex of
each path yields the unique minimum-size (X, Y)-separator that lies at
least as far left (toward X) as every other minimum one.

Constraints: vertices in ``forced_out`` may never enter a cut; they are
modelled with unlimited vertex capacity, so they can only raise the
min-cut value, never block a path. Packings may be reused across calls
(warm start): the stored paths are exactly the state needed to resume
augmentation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ._backend import kernel
from .errors import Infeasible, InvalidPathSet, PreconditionViolated, TooLarge
from .graph import Graph, canon, reachable_from


class Provenance(enum.Enum):
    FLOW_CUT = "FlowCut"
    ENUMERATED = "Enumerated"
    ORACLE = "Oracle"


@dataclass(frozen=True)
class Separator:
    """A vertex separator; equality and hashing ignore provenance."""

    members: frozenset
    provenance: Provenance = Provenance.FLOW_CUT

    @property
    def size(self) -> int:
        return len(self.members)

    def __eq__(self, other):
        if isinstance(other, Separator):
            return self.members == other.members
        return NotImplemented

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"Separator({canon(self.members)})"


@dataclass(frozen=True)
class CutConstraints:
    """Side constraints for cut searches.

    forced_out: vertices that must not appear in the cut.
    budget: optional bookkeeping copy of k (operations take k explicitly).
    """

    forced_out: frozenset = frozenset()
    budget: int | None = None


@dataclass(frozen=True)
class DisjointPathSet:
    """A family of pairwise vertex-disjoint X->Y paths.

    Paths may share only forced-out vertices. The paths themselves are
    the resumable residual state: a warm-started search rebuilds arc
    flows from them and continues augmenting.
    """

    paths: tuple = field(default_factory=tuple)

    @property
    def flow_value(self) -> int:
        return len(self.paths)

    @staticmethod
    def of(paths: Iterable[Sequence[int]]) -> "DisjointPathSet":
        return DisjointPathSet(tuple(tuple(p) for p in paths))


def _csr(g: Graph) -> tuple[list[int], list[int]]:
    if g._csr is None:
        off = [0] * (g.n + 1)
        flat: list[int] = []
        for v in g.vertices:
            off[v - 1] = len(flat)
            flat.extend(w - 1 for w in g.adj[v])
        off[g.n] = len(flat)
        g._csr = (flat, off)
    return g._csr


def _validate_paths(
    g: Graph,
    x: frozenset,
    y: frozenset,
    paths: Sequence[Sequence[int]],
    shareable: frozenset = frozenset(),
    within: frozenset | None = None,
) -> None:
    used: dict[int, int] = {}
    for p in paths:
        if not p:
            raise InvalidPathSet("empty path")
        bad = [v for v in p if not (1 <= v <= g.n)]
        if bad:
            raise InvalidPathSet(f"path vertices {canon(bad)} outside 1..{g.n}")
        if p[0] not in x:
            raise InvalidPathSet(f"path {list(p)} does not start in X")
        if p[-1] not in y:
            raise InvalidPathSet(f"path {list(p)} does not end in Y")
        if len(set(p)) != len(p):
            raise InvalidPathSet(f"path {list(p)} repeats a vertex")
        for u, w in zip(p, p[1:]):
            if not g.has_edge(u, w):
                raise InvalidPathSet(f"missing edge ({u},{w})")
        for v in p:
            if within is not None and v not in within:
                raise InvalidPathSet(f"path vertex {v} outside the working region")
            used[v] = used.get(v, 0) + 1
    clashes = [v for v, c in used.items() if c > 1 and v not in shareable]
    if clashes:
        raise InvalidPathSet(f"paths share vertices {canon(clashes)}")


def _run(
    g: Graph,
    x: frozenset,
    y: frozenset,
    cap: int,
    forced: frozenset = frozenset(),
    active: frozenset | None = None,
    warm: Sequence[Sequence[int]] = (),
):
    """Kernel call with 1-based <-> 0-based translation.

    Returns (flow, paths, reach_in, reach_out) in 1-based terms (masks
    stay 0-based bytearrays indexed by v-1). Raises PreconditionViolated
    when an id lies outside 1..n: no bad id may reach the kernel, whose
    compiled build does not check its bounds.
    """
    n = g.n
    named = [("X", x), ("Y", y), ("forced", forced), ("active", active or ())]
    named.extend(("warm path", p) for p in warm)
    for name, vs in named:
        if vs and (min(vs) < 1 or max(vs) > n):
            bad = canon(v for v in vs if not (1 <= v <= n))
            raise PreconditionViolated(f"{name} holds {bad}, outside 1..{n}")
    flat, off = _csr(g)
    if active is None:
        active_mask = [1] * n
        xs = sorted(v - 1 for v in x)
        ys = sorted(v - 1 for v in y)
    else:
        active_mask = [0] * n
        for v in active:
            active_mask[v - 1] = 1
        xs = sorted(v - 1 for v in x if v in active)
        ys = sorted(v - 1 for v in y if v in active)
    forced_mask = [0] * n
    for v in forced:
        forced_mask[v - 1] = 1
    warm0 = [[v - 1 for v in p] for p in warm]
    flow, paths0, reach_in, reach_out = kernel.solve(
        n, flat, off, xs, ys, forced_mask, active_mask, cap, warm0
    )
    paths = tuple(tuple(v + 1 for v in p) for p in paths0)
    return flow, paths, reach_in, reach_out


def _cut_from_masks(n: int, reach_in, reach_out) -> frozenset:
    return frozenset(v + 1 for v in range(n) if reach_in[v] and not reach_out[v])


def leftmost_cut(
    g: Graph,
    x: frozenset,
    y: frozenset,
    k: int,
    forced: frozenset = frozenset(),
    active: frozenset | None = None,
    warm: Sequence[Sequence[int]] = (),
):
    """Core search shared by the public API and the enumerators.

    Returns (cut, paths). Raises TooLarge when the minimum admissible
    cut exceeds k, with the k+1 packing attached as witness.
    """
    flow, paths, reach_in, reach_out = _run(g, x, y, k + 1, forced, active, warm)
    if flow > k:
        raise TooLarge(DisjointPathSet.of(paths))
    return _cut_from_masks(g.n, reach_in, reach_out), paths


def augment_paths(g: Graph, x: Iterable[int], y: Iterable[int], p: DisjointPathSet) -> DisjointPathSet | None:
    """One augmentation step: a packing of size |p|+1, or None if maximal."""
    x, y = frozenset(x), frozenset(y)
    _validate_paths(g, x, y, p.paths)
    flow, paths, _, _ = _run(g, x, y, cap=p.flow_value + 1, warm=p.paths)
    if flow == p.flow_value + 1:
        return DisjointPathSet.of(paths)
    return None


def max_disjoint_paths(
    g: Graph,
    x: Iterable[int],
    y: Iterable[int],
    cap: int,
    constraints: CutConstraints | None = None,
) -> DisjointPathSet:
    """Augment until no walk remains or the packing reaches ``cap``."""
    x, y = frozenset(x), frozenset(y)
    forced = constraints.forced_out if constraints else frozenset()
    flow, paths, _, _ = _run(g, x, y, cap=cap, forced=forced)
    return DisjointPathSet.of(paths)


def leftmost_min_separator(
    g: Graph,
    x: Iterable[int],
    y: Iterable[int],
    k: int,
    constraints: CutConstraints | None = None,
    warm: DisjointPathSet | None = None,
) -> tuple[Separator, DisjointPathSet]:
    """The minimum-size (X, Y)-separator lying left of all other minimum ones.

    Respects ``constraints.forced_out``; warm-starting from any valid
    partial packing yields the same separator. Raises TooLarge when the
    minimum admissible cut exceeds k, Infeasible when X∩Y meets
    forced_out (no separator can exist at all).
    """
    x, y = frozenset(x), frozenset(y)
    forced = constraints.forced_out if constraints else frozenset()
    if forced & x & y:
        raise Infeasible(f"forced-out vertices {canon(forced & x & y)} lie in X∩Y")
    warm_paths: tuple = warm.paths if warm else ()
    if warm_paths:
        _validate_paths(g, x, y, warm_paths, shareable=forced)
    cut, paths = leftmost_cut(g, x, y, k, forced=forced, warm=warm_paths)
    return Separator(cut, Provenance.FLOW_CUT), DisjointPathSet.of(paths)


def truncate_at_cut(paths: Sequence[Sequence[int]], cut: frozenset) -> tuple:
    """Clip each path at its first cut vertex.

    Every path of a saturating packing meets the cut exactly once, so
    the prefixes form a valid packing from X to the cut.
    """
    out = []
    for p in paths:
        for i, v in enumerate(p):
            if v in cut:
                out.append(tuple(p[: i + 1]))
                break
        else:
            raise InvalidPathSet(f"path {list(p)} misses the cut {canon(cut)}")
    return tuple(out)


def left_region(g: Graph, x: frozenset, cut: frozenset, active: frozenset | None = None) -> frozenset:
    """V_{X,S} ∪ S restricted to the working region."""
    reach = reachable_from(g, x, removed=cut, within=active)
    if active is None:
        return reach | cut
    return reach | (cut & active)
