from __future__ import annotations

import pytest

from sepkit import Graph
from sepkit.errors import InvalidInput, TooBig
from sepkit.oracle import (
    Lcg,
    brute_minimal_separators,
    bt_leaves,
    exact_treewidth,
    filter_important,
    filter_leftmost,
    fixtures,
    read_manifest,
    write_manifest,
    named_separator_corpus,
    random_separator_corpus,
)


def members(seps):
    return sorted(sorted(s.members) for s in seps)


class TestBruteMinimalSeparators:
    def test_p3_all_singletons(self):
        got = brute_minimal_separators(fixtures("PATH", 3), {1}, {3}, 1)
        assert members(got) == [[1], [2], [3]]

    def test_diamond(self):
        got = brute_minimal_separators(fixtures("DIAMOND"), {1}, {4}, 2)
        assert members(got) == [[1], [2, 3], [4]]

    def test_k4_adjacent_terminals(self):
        got = brute_minimal_separators(fixtures("COMPLETE", 4), {1}, {2}, 1)
        assert members(got) == [[1], [2]]

    def test_guard(self):
        with pytest.raises(TooBig):
            brute_minimal_separators(fixtures("PATH", 17), {1}, {17}, 1)


class TestFilters:
    def test_filter_leftmost_p3(self):
        g = fixtures("PATH", 3)
        cands = brute_minimal_separators(g, {1}, {3}, 1)
        assert members(filter_leftmost(g, {1}, cands)) == [[1]]

    def test_filter_leftmost_bt3(self):
        g = fixtures("BT", 3)
        cands = brute_minimal_separators(g, bt_leaves(3), {1}, 2)
        assert members(filter_leftmost(g, bt_leaves(3), cands)) == [[2, 3]]

    def test_filter_leftmost_singleton(self):
        g = fixtures("PATH", 3)
        only = brute_minimal_separators(g, {1}, {3}, 0)
        assert filter_leftmost(g, {1}, only) == only == set()
        one = {next(iter(brute_minimal_separators(g, {1}, {3}, 1)))}
        assert filter_leftmost(g, {1}, one) == one

    def test_filter_important_p3(self):
        g = fixtures("PATH", 3)
        cands = brute_minimal_separators(g, {1}, {3}, 1)
        assert members(filter_important(g, {1}, {3}, cands)) == [[1]]

    def test_filter_important_bt3(self):
        g = fixtures("BT", 3)
        cands = brute_minimal_separators(g, bt_leaves(3), {1}, 2)
        # the minimum cut alone is undominated: size 1 and nothing of
        # size <= 1 has a larger Y-side
        assert members(filter_important(g, bt_leaves(3), {1}, cands)) == [[1], [2, 3]]

    def test_filter_important_empty(self):
        assert filter_important(fixtures("PATH", 3), {1}, {3}, set()) == set()

    def test_lemma_identities_on_corpus(self, small_corpus):
        for inst in small_corpus:
            g = inst.graph()
            x, y, k = frozenset(inst.x), frozenset(inst.y), inst.k
            cands = brute_minimal_separators(g, x, y, k)
            leftmost = filter_leftmost(g, x, cands)
            important = filter_important(g, x, y, cands)
            assert leftmost <= important
            union = set()
            for i in range(1, k + 1):
                ci = brute_minimal_separators(g, x, y, i)
                union |= filter_leftmost(g, x, ci)
            assert union == important


class TestExactTreewidth:
    @pytest.mark.parametrize(
        "name,params,expect",
        [
            ("PATH", (5,), 2),
            ("COMPLETE", (5,), 5),
            ("GRID", (3, 3), 4),
            ("CYCLE", (4,), 3),
            ("CYCLE", (9,), 3),
            ("BT", (3,), 2),
            ("TREE", (12, 5), 2),
            ("GRID", (4, 4), 5),
        ],
    )
    def test_known(self, name, params, expect):
        assert exact_treewidth(fixtures(name, *params)) == expect

    def test_single_vertex_and_disconnected(self):
        assert exact_treewidth(Graph(1, [])) == 1
        assert exact_treewidth(Graph(5, [(1, 2), (4, 5)])) == 2

    def test_guard(self):
        with pytest.raises(TooBig):
            exact_treewidth(fixtures("PATH", 19))


class TestFixtures:
    def test_bt_sizes(self):
        assert fixtures("BT", 3).n == 7
        assert fixtures("BT", 3).m == 6
        assert fixtures("BT", 8).n == 255
        assert bt_leaves(3) == frozenset({4, 5, 6, 7})

    def test_gnm_deterministic(self):
        a = fixtures("GNM", 8, 12, 1)
        b = fixtures("GNM", 8, 12, 1)
        assert a.edges() == b.edges()
        assert a.m == 12
        assert fixtures("GNM", 8, 12, 2).edges() != a.edges()

    def test_grid_shape(self):
        g = fixtures("GRID", 2, 3)
        assert g.n == 6 and g.m == 7

    def test_tree_is_tree(self):
        g = fixtures("TREE", 9, 4)
        assert g.m == 8 and exact_treewidth(g) == 2

    def test_bad_params(self):
        with pytest.raises(InvalidInput):
            fixtures("GNM", 4, 99, 1)
        with pytest.raises(InvalidInput):
            fixtures("NOPE", 3)
        with pytest.raises(InvalidInput):
            fixtures("BT")  # missing parameter

    def test_lcg_recipe(self):
        rng = Lcg(1)
        first = (6364136223846793005 * 1 + 1442695040888963407) % (1 << 64)
        assert rng.below(1 << 40) == (first >> 33) % (1 << 40)


def test_manifest_round_trip(tmp_path):
    insts = random_separator_corpus(5, seed=3) + named_separator_corpus()[:2]
    path = tmp_path / "corpus.json"
    write_manifest(insts, str(path))
    back = read_manifest(str(path))
    assert back == insts
    g = back[0].graph()
    assert g.n == back[0].params[0]
