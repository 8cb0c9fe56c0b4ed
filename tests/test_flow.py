from __future__ import annotations

import types
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import flow
from sepkit import (
    CutConstraints,
    DisjointPathSet,
    Graph,
    Leftness,
    augment_paths,
    compare_leftness,
    enumerate_important,
    enumerate_leftmost,
    leftmost_min_separator,
    max_disjoint_paths,
)
from sepkit.errors import Infeasible, InvalidPathSet, PreconditionViolated, TooLarge
from sepkit.flow import leftmost_cut, left_region, truncate_at_cut
from sepkit.graph import is_minimal_separator, is_separator
from sepkit.oracle import brute_minimal_separators, bt_leaves, fixtures

P3 = fixtures("PATH", 3)
BT3 = fixtures("BT", 3)
STAR4 = fixtures("STAR4")
DIAMOND = fixtures("DIAMOND")
P6 = fixtures("PATH", 6)


class TestAugmentPaths:
    def test_first_path(self):
        got = augment_paths(P3, {1}, {3}, DisjointPathSet())
        assert got is not None and got.paths == ((1, 2, 3),)

    def test_saturated(self):
        assert augment_paths(P3, {1}, {3}, DisjointPathSet(((1, 2, 3),))) is None

    def test_shared_sink_vertex_blocks(self):
        assert augment_paths(DIAMOND, {2, 3}, {4}, DisjointPathSet(((2, 4),))) is None

    def test_invalid_input_rejected(self):
        with pytest.raises(InvalidPathSet):
            augment_paths(P3, {1}, {3}, DisjointPathSet(((1, 3),)))
        with pytest.raises(InvalidPathSet):
            augment_paths(DIAMOND, {1}, {4}, DisjointPathSet(((1, 2, 4), (1, 3, 4))))


class TestMaxDisjointPaths:
    def test_p3_cap_ignored_above_max(self):
        assert max_disjoint_paths(P3, {1}, {3}, 5).flow_value == 1

    def test_bt3_shared_root(self):
        assert max_disjoint_paths(BT3, bt_leaves(3), {1}, 5).flow_value == 1

    def test_bt3_forced_out_root(self):
        dps = max_disjoint_paths(
            BT3, bt_leaves(3), {1}, 5, CutConstraints(forced_out=frozenset({1}))
        )
        assert dps.flow_value == 2

    def test_cap_stops_augmentation(self):
        g = fixtures("COMPLETE", 6)
        assert max_disjoint_paths(g, {1, 2, 3}, {4, 5, 6}, 5).flow_value == 3
        assert max_disjoint_paths(g, {1, 2, 3}, {4, 5, 6}, 2).flow_value == 2


class TestLeftmostMinSeparator:
    def test_p3(self):
        sep, dps = leftmost_min_separator(P3, {1}, {3}, 2)
        assert sorted(sep.members) == [1]
        assert dps.flow_value == 1

    def test_star4(self):
        sep, _ = leftmost_min_separator(STAR4, {1, 2}, {4}, 2)
        assert sorted(sep.members) == [3]

    def test_bt3_forced_out_root(self):
        sep, _ = leftmost_min_separator(
            BT3, bt_leaves(3), {1}, 2, CutConstraints(forced_out=frozenset({1}))
        )
        assert sorted(sep.members) == [2, 3]

    def test_too_large_carries_witness(self):
        g = fixtures("COMPLETE", 5)
        with pytest.raises(TooLarge) as exc:
            leftmost_min_separator(g, {1, 2}, {3, 4}, 1)
        assert exc.value.witness.flow_value == 2

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            leftmost_min_separator(
                P3, {1}, {1, 3}, 2, CutConstraints(forced_out=frozenset({1}))
            )

    def test_disconnected_pair_gives_empty(self):
        g = Graph(4, [(1, 2), (3, 4)])
        sep, dps = leftmost_min_separator(g, {1}, {3}, 2)
        assert sep.members == frozenset() and dps.flow_value == 0

    def test_determinism(self):
        for _ in range(3):
            a = leftmost_min_separator(BT3, bt_leaves(3), {1}, 3)
            b = leftmost_min_separator(BT3, bt_leaves(3), {1}, 3)
            assert a[0].members == b[0].members and a[1].paths == b[1].paths


def test_menger_and_leftness_on_corpus(small_corpus):
    for inst in small_corpus:
        g = inst.graph()
        x, y = frozenset(inst.x), frozenset(inst.y)
        all_min = brute_minimal_separators(g, x, y, g.n)
        best = min((len(s.members) for s in all_min), default=None)
        flow = max_disjoint_paths(g, x, y, g.n + 1).flow_value
        assert best is not None, "a separator always exists without constraints"
        assert flow == best, f"Menger violated on {inst.to_record()}"

        try:
            sep, packing = leftmost_min_separator(g, x, y, inst.k)
        except TooLarge:
            assert best > inst.k
            continue
        assert len(sep.members) == best
        assert is_separator(g, x, y, sep.members)
        assert is_minimal_separator(g, x, y, sep.members)
        for other in all_min:
            if len(other.members) == best:
                assert compare_leftness(g, x, sep.members, other.members) in (
                    Leftness.LEFT_OF,
                    Leftness.EQUAL,
                )
        # warm-start equivalence over partial packings of every size
        for j in range(packing.flow_value + 1):
            warm = max_disjoint_paths(g, x, y, j) if j else DisjointPathSet()
            again, _ = leftmost_min_separator(g, x, y, inst.k, warm=warm)
            assert again.members == sep.members


@pytest.mark.parametrize(
    "call",
    [
        lambda: leftmost_min_separator(P3, {0}, {3}, 2),
        lambda: leftmost_min_separator(P3, {9}, {3}, 2),
        lambda: leftmost_min_separator(P3, {1}, {3}, 2, CutConstraints(forced_out=frozenset({4}))),
        lambda: enumerate_leftmost(P3, {7}, {3}, 2),
        lambda: enumerate_leftmost(P3, {1}, {3}, 2, within=frozenset({1, 2, 3, 4})),
        lambda: max_disjoint_paths(P3, {1}, {-1}, 2),
        lambda: enumerate_leftmost(P3, {7}, {3}, 0),
        lambda: enumerate_leftmost(P3, {0, 9}, {0, 9}, 1),
        lambda: enumerate_important(P3, {7}, {3}, 0),
        lambda: enumerate_important(P3, {0, 9}, {0, 9}, 1),
        # warm paths that leave the region (whole-graph and relabelled
        # kernel input), start outside X, end outside Y, or are empty
        lambda: leftmost_cut(P6, {1}, {6}, 2, active=frozenset({1, 2, 4, 5, 6}), warm=[(1, 2, 3, 4, 5, 6)]),
        lambda: leftmost_cut(P6, {1}, {6}, 2, active=frozenset({1, 2, 6}), warm=[(1, 2, 3, 4, 5, 6)]),
        lambda: leftmost_cut(P6, {1}, {6}, 2, warm=[(2, 3, 4, 5, 6)]),
        lambda: leftmost_cut(P6, {1}, {6}, 2, warm=[(1, 2, 3)]),
        lambda: leftmost_cut(P6, {1}, {6}, 2, warm=[()]),
    ],
)
def test_out_of_range_ids_rejected(call):
    with pytest.raises(PreconditionViolated):
        call()


# -- region-local kernel input ------------------------------------------------


def _whole_graph_run(g, x, y, cap, forced=frozenset(), active=None, warm=()):
    """Reference for ``flow._run``: the kernel gets the whole graph's CSR
    with n-long active and forced masks, whatever the size of the region,
    and the cut (None once the packing reaches cap) is read off the
    n-long reachability masks."""
    n = g.n
    flat, off = flow._csr(g)
    active_mask = [1 if active is None or v in active else 0 for v in g.vertices]
    forced_mask = [1 if v in forced else 0 for v in g.vertices]
    xs = sorted(v - 1 for v in x if active_mask[v - 1])
    ys = sorted(v - 1 for v in y if active_mask[v - 1])
    warm0 = [[v - 1 for v in p] for p in warm]
    fl, paths0, rin, rout = _KERNEL.solve(n, flat, off, xs, ys, forced_mask, active_mask, cap, warm0)
    paths = tuple(tuple(v + 1 for v in p) for p in paths0)
    if fl >= cap:
        return fl, paths, None
    return fl, paths, frozenset(v + 1 for v in range(n) if rin[v] and not rout[v])


_KERNEL = flow.kernel


@contextmanager
def _bounds_checked_kernel():
    """Route ``flow.kernel.solve`` through a check that every id it gets
    lies in 0..r-1 (the compiled kernel does not check); yields the list
    of the r of every call."""
    sizes = []

    def solve(n, flat, off, xs, ys, forced, active, cap, warm):
        assert len(off) == n + 1 and off[0] == 0 and off[-1] == len(flat)
        assert all(off[i] <= off[i + 1] for i in range(n))
        assert len(forced) == n and len(active) == n
        for ids in (flat, xs, ys, *warm):
            assert all(0 <= v < n for v in ids), ids
        sizes.append(n)
        return _KERNEL.solve(n, flat, off, xs, ys, forced, active, cap, warm)

    flow.kernel = types.SimpleNamespace(solve=solve)
    try:
        yield sizes
    finally:
        flow.kernel = _KERNEL


@st.composite
def _region_cases(draw):
    n = draw(st.integers(1, 20))
    g = fixtures("GNM", n, draw(st.integers(0, n * (n - 1) // 2)), draw(st.integers(0, 999)))
    if draw(st.booleans()):
        g = Graph(n, g.edges(), directed=True)
    order = draw(st.permutations(range(1, n + 1)))
    # regions on both sides of the half-graph split, and no region at all
    size = draw(st.one_of(st.integers(1, max(1, n // 2)), st.integers(n // 2 + 1, n), st.none()))
    active = None if size is None else frozenset(order[:size])
    inside = st.sampled_from(order[: size or n])
    anywhere = st.frozensets(st.integers(1, n), max_size=2)
    # X and Y mostly inside the region, sometimes partly outside it
    x = draw(st.frozensets(inside, min_size=1, max_size=4)) | draw(anywhere)
    y = draw(st.frozensets(inside, min_size=1, max_size=4)) | draw(anywhere)
    forced = draw(st.frozensets(st.integers(1, n), max_size=n))
    return g, x, y, forced, active, draw(st.integers(0, 5))


def _matches_reference(g, x, y, k, forced, active, warm):
    """``_run`` and ``leftmost_cut`` against the reference; returns the
    reference's (flow, paths, cut)."""
    want = _whole_graph_run(g, x, y, k + 1, forced, active, warm)
    with _bounds_checked_kernel() as sizes:
        got = flow._run(g, x, y, k + 1, forced, active, warm)
        try:
            outcome = leftmost_cut(g, x, y, k, forced, active, warm)
        except TooLarge as exc:
            outcome = exc.witness
    relabelled = active is not None and 2 * len(active) <= g.n
    assert sizes == [len(active) if relabelled else g.n] * 2
    assert got == want
    if want[0] > k:
        assert outcome == DisjointPathSet.of(want[1])
    else:
        assert outcome == (want[2], want[1])
    return want


@settings(max_examples=300, deadline=None)
@given(_region_cases(), st.data())
def test_region_input_matches_whole_graph(case, data):
    g, x, y, forced, active, k = case
    fl, paths, cut = _matches_reference(g, x, y, k, forced, active, ())
    # warm starts: a prefix of the packing; a packing the cold search
    # would not find (one from a single X vertex); and the enumeration's
    # step (re-aim at the cut, shrink to the left region, forbid a cut
    # vertex, warm-start from the packing truncated at the cut)
    j = data.draw(st.integers(0, len(paths)))
    _matches_reference(g, x, y, k, forced, active, paths[:j])
    start = frozenset([data.draw(st.sampled_from(sorted(x)))])
    single = _whole_graph_run(g, start, y, k + 1, forced, active)[1]
    _matches_reference(g, x, y, k, forced, active, single)
    if cut:
        v = data.draw(st.sampled_from(sorted(cut)))
        if not (forced | {v}) & x & cut:
            region = left_region(g, x, cut, active)
            _matches_reference(g, x, cut, k, forced | {v}, region, truncate_at_cut(paths, cut))
    with _bounds_checked_kernel():
        packing = max_disjoint_paths(g, x, y, k + 1, CutConstraints(forced_out=forced))
    assert packing.paths == _whole_graph_run(g, x, y, k + 1, forced)[1]
