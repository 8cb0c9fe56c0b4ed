from __future__ import annotations

import pytest

from sepkit import (
    CutConstraints,
    DisjointPathSet,
    Graph,
    Leftness,
    augment_paths,
    compare_leftness,
    enumerate_leftmost,
    leftmost_min_separator,
    max_disjoint_paths,
)
from sepkit.errors import Infeasible, InvalidPathSet, PreconditionViolated, TooLarge
from sepkit.graph import is_minimal_separator, is_separator
from sepkit.oracle import brute_minimal_separators, bt_leaves, fixtures

P3 = fixtures("PATH", 3)
BT3 = fixtures("BT", 3)
STAR4 = fixtures("STAR4")
DIAMOND = fixtures("DIAMOND")


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
    ],
)
def test_out_of_range_ids_rejected(call):
    with pytest.raises(PreconditionViolated):
        call()
