from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import Graph, Rejection, TreeDecomposition, decompose, td_width, to_nice, validate_td
from sepkit.errors import EmptyDecomposition, InvalidBudget, InvalidInput, PreconditionViolated
from sepkit.oracle import Lcg, bt_leaves, exact_treewidth, fixtures
from sepkit.treewidth import (
    _placements,
    compute_representatives,
    is_balanced_w_separator,
    is_strong_centroid,
    is_weak_separation,
    nice_node_types,
    split_by_volume,
    weakly_balanced_separation,
)

P3 = fixtures("PATH", 3)
BT3 = fixtures("BT", 3)


def td_of(bags, edges, root=None):
    return TreeDecomposition(
        nodes=tuple(sorted(bags)),
        bags={i: frozenset(b) for i, b in bags.items()},
        tree_edges=tuple(edges),
        root=root,
    )


class TestValidateTd:
    def test_single_bag_valid(self):
        td = td_of({1: {1, 2, 3}}, [])
        assert validate_td(P3, td) == []

    def test_p3_two_bags_valid(self):
        td = td_of({1: {1, 2}, 2: {2, 3}}, [(1, 2)])
        assert validate_td(P3, td) == []

    def test_uncovered_edge(self):
        td = td_of({1: {1, 2}, 2: {3}}, [(1, 2)])
        problems = validate_td(P3, td)
        assert any(p.kind == "edge-coverage" and "(2,3)" in p.detail for p in problems)

    def test_missing_vertex(self):
        td = td_of({1: {1, 2}}, [])
        assert any(p.kind == "vertex-coverage" for p in validate_td(P3, td))

    def test_running_intersection(self):
        td = td_of({1: {1, 2}, 2: {2, 3}, 3: {1, 3}}, [(1, 2), (2, 3)])
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        assert any(p.kind == "running-intersection" for p in validate_td(g, td))

    def test_not_a_tree(self):
        td = td_of({1: {1, 2}, 2: {2, 3}}, [])
        assert any(p.kind == "structure" for p in validate_td(P3, td))


class TestTdWidth:
    def test_two_bags(self):
        assert td_width(td_of({1: {1, 2}, 2: {2, 3}}, [(1, 2)])) == 2

    def test_single_k5_bag(self):
        assert td_width(td_of({1: set(range(1, 6))}, [])) == 5

    def test_edgeless_bags(self):
        assert td_width(td_of({1: {1}, 2: {2}, 3: {3}}, [(1, 2), (2, 3)])) == 1

    def test_empty(self):
        with pytest.raises(EmptyDecomposition):
            td_width(td_of({}, []))


class TestBalancedWSeparator:
    def test_bt3_root(self):
        assert is_balanced_w_separator(BT3, bt_leaves(3), {1})

    def test_p3_empty_separator(self):
        assert not is_balanced_w_separator(P3, {1, 3}, set())

    def test_vacuous_empty_w(self):
        assert is_balanced_w_separator(P3, set(), {2})


class TestStrongCentroid:
    def test_p3_counterexample(self):
        td = td_of({1: {1, 2}, 2: {2, 3}}, [(1, 2)], root=1)
        assert is_strong_centroid(P3, td, {1, 3}, 1) is False

    def test_single_bag(self):
        td = td_of({1: {1, 2, 3}}, [], root=1)
        assert is_strong_centroid(P3, td, {1, 3}, 1)

    def test_exists_on_bt3(self):
        td = decompose(BT3, 3)
        nice = to_nice(td)
        w = bt_leaves(3)
        assert any(is_strong_centroid(BT3, nice, w, x) for x in nice.nodes)

    def test_exists_for_random_w_on_corpus(self):
        # every nice decomposition admits a strong centroid w.r.t. any W
        rng = Lcg(7)
        for name, params in [("GRID", (3, 4)), ("CYCLE", (11,)), ("GNM", (12, 20, 4))]:
            g = fixtures(name, *params)
            td = decompose(g, 5)
            assert not isinstance(td, Rejection)
            nice = to_nice(td)
            for _ in range(5):
                w = frozenset(1 + rng.below(g.n) for _ in range(2 + rng.below(6)))
                assert any(is_strong_centroid(g, nice, w, x) for x in nice.nodes)


class TestRepresentatives:
    def test_p9(self):
        assert compute_representatives(fixtures("PATH", 9), 3).reps == ((7, 3), (4, 3), (1, 3))

    def test_threshold_above_n(self):
        assert compute_representatives(fixtures("PATH", 9), 99).reps == ((1, 9),)

    def test_bt3(self):
        assert compute_representatives(BT3, 3).reps == ((2, 3), (3, 3), (1, 1))

    def test_invariants(self):
        for name, params, t in [("PATH", (13,), 4), ("GRID", (3, 4), 3), ("TREE", (14, 2), 5)]:
            g = fixtures(name, *params)
            rs = compute_representatives(g, t)
            weights = [w for _, w in rs.reps]
            assert sum(weights) == g.n
            assert all(w >= t for _, w in rs.reps[:-1])
            assert len(rs.reps) <= g.n // t + 1

    def test_requires_connected(self):
        with pytest.raises(PreconditionViolated):
            compute_representatives(Graph(4, [(1, 2), (3, 4)]), 2)


class TestWeaklyBalancedSeparation:
    def test_bt3_leaves(self):
        w = bt_leaves(3)
        trip = weakly_balanced_separation(BT3, w, 2)
        assert trip is not None
        assert is_weak_separation(BT3, w, *trip)

    def test_clique_has_none(self):
        g = fixtures("COMPLETE", 7)
        assert weakly_balanced_separation(g, frozenset(g.vertices), 2) is None

    def test_p3_k1(self):
        trip = weakly_balanced_separation(P3, {1, 3}, 1)
        assert trip is not None
        x, s, y = trip
        assert s == frozenset({2}) and {x, y} == {frozenset({1}), frozenset({3})}
        assert is_weak_separation(P3, {1, 3}, x, s, y)

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            weakly_balanced_separation(P3, {1}, 1)


class TestSplitByVolume:
    def test_p20(self):
        g = fixtures("PATH", 20)
        got = split_by_volume(g, 2, 0.1)
        assert got is not None
        s, comps = got
        assert len(s) <= 2
        sizes = sorted(len(c) for c in comps)
        assert sizes[0] >= 1 and max(sizes) <= 19

    def test_k9_none(self):
        assert split_by_volume(fixtures("COMPLETE", 9), 2, 0.1) is None

    def test_bt5(self):
        g = fixtures("BT", 5)
        got = split_by_volume(g, 3, 0.1)
        assert got is not None
        s, comps = got
        assert len(s) <= 3
        assert max(len(c) for c in comps) <= round(0.95 * 31)

    def test_epsilon_validated(self):
        with pytest.raises(InvalidInput):
            split_by_volume(fixtures("PATH", 20), 2, 0.7)

    def test_separator_splits_the_groups(self):
        # the returned set genuinely separates the two component groups
        g = fixtures("TREE", 25, 6)
        got = split_by_volume(g, 3, 1 / 6)
        assert got is not None
        s, comps = got
        for a in comps:
            for b in comps:
                if a is not b:
                    assert not any(nb in b for u in a for nb in g.adj[u])


def _corpus():
    out = []
    for n in (5, 9, 12):
        out.append(fixtures("PATH", n))
    for n in (4, 8):
        out.append(fixtures("CYCLE", n))
    for n in range(3, 9):
        out.append(fixtures("COMPLETE", n))
    out += [fixtures("GRID", 2, 3), fixtures("GRID", 3, 3), fixtures("GRID", 4, 4)]
    out += [fixtures("TREE", 12, 9)]
    rng = Lcg(99)
    for i in range(12):
        n = 6 + rng.below(9)
        out.append(fixtures("GNM", n, rng.below(2 * n + 1), 500 + i))
    return out


class TestDecompose:
    def test_p10(self):
        td = decompose(fixtures("PATH", 10), 3)
        assert isinstance(td, TreeDecomposition)
        assert validate_td(fixtures("PATH", 10), td) == []
        assert td_width(td) <= 10

    def test_k12_rejects(self):
        r = decompose(fixtures("COMPLETE", 12), 3)
        assert isinstance(r, Rejection)
        assert r.budget == 3 and len(r.witness_w) == 3 * 3 - 2

    def test_grid33(self):
        g = fixtures("GRID", 3, 3)
        td = decompose(g, 5)
        assert validate_td(g, td) == []
        assert exact_treewidth(g) <= td_width(td) <= 20

    def test_budget_validated(self):
        with pytest.raises(InvalidBudget):
            decompose(P3, 1)

    def test_disconnected(self):
        g = Graph(6, [(1, 2), (4, 5), (5, 6)])
        td = decompose(g, 2)
        assert validate_td(g, td) == []

    def test_directed_uses_underlying(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4)], directed=True)
        td = decompose(g, 2)
        assert validate_td(Graph(4, g.edges()), td) == []

    def test_soundness_on_corpus(self):
        for g in _corpus():
            exact = exact_treewidth(g)
            for k in (2, 3, 4, 6):
                for vol in (True, False):
                    res = decompose(g, k, volume_splits=vol)
                    if isinstance(res, Rejection):
                        assert exact > k - 1, f"false reject n={g.n} k={k}"
                    else:
                        assert validate_td(g, res) == []
                        w = td_width(res)
                        assert w <= 5 * (k - 1)
                        if not vol:
                            assert w <= 4 * k - 2


class TestToNice:
    def test_single_bag(self):
        td = td_of({1: {1, 2}}, [], root=1)
        nice = to_nice(td)
        assert td_width(nice) == 2
        types = nice_node_types(nice)
        assert sorted(types.values()) == ["introduce", "introduce", "leaf"]

    def test_p3_chain(self):
        td = td_of({1: {1, 2}, 2: {2, 3}}, [(1, 2)], root=1)
        nice = to_nice(td)
        assert td_width(nice) == 2
        assert validate_td(P3, nice) == []
        nice_node_types(nice)

    def test_decomposition_output(self):
        g = fixtures("GRID", 3, 3)
        td = decompose(g, 5)
        nice = to_nice(td)
        assert td_width(nice) == td_width(td)
        assert validate_td(g, nice) == []
        types = nice_node_types(nice)
        assert set(types.values()) <= {"leaf", "forget", "introduce", "join"}
        assert len(nice.nodes) <= 4 * td_width(td) * g.n + 4

    def test_join_heavy_tree(self):
        bags = {1: {1}, 2: {1, 2}, 3: {1, 3}, 4: {1, 4}}
        g = Graph(4, [(1, 2), (1, 3), (1, 4)])
        td = td_of(bags, [(1, 2), (1, 3), (1, 4)], root=1)
        nice = to_nice(td)
        assert validate_td(g, nice) == []
        assert "join" in nice_node_types(nice).values()

    def test_invalid_input(self):
        with pytest.raises(InvalidInput):
            to_nice(td_of({}, []))
        with pytest.raises(InvalidInput):
            to_nice(td_of({1: {1}}, []), root=9)


def _gray3_reference(m):
    """The plain base-3 count the pruned search must reproduce."""
    for num in range(3**m):
        digits = []
        x = num
        for _ in range(m):
            digits.append(x % 3)
            x //= 3
        yield tuple((digits[i] - (digits[i + 1] if i + 1 < m else 0)) % 3 for i in range(m))


def _filtered_reference(triples, k, g=None):
    """Every placement, then the after-the-fact filter: |S| <= k, and with
    a graph also both sides <= 2m/3 and no X->Y arc."""
    out = []
    for xs, ss, ys in triples:
        if len(ss) > k:
            continue
        if g is not None:
            bound = 2 * (len(xs) + len(ss) + len(ys)) / 3
            if len(xs) > bound or len(ys) > bound:
                continue
            if any(nb in ys for u in xs for nb in g.adj[u]):
                continue
        out.append((xs, ss, ys))
    return out


class TestPlacements:
    def test_matches_full_count_then_filter(self):
        rng = random.Random(2024)
        for m in range(11):
            n = m + 3
            verts = sorted(rng.sample(range(1, n + 1), m))
            triples = [
                tuple(frozenset(verts[i] for i in range(m) if a[i] == t) for t in range(3))
                for a in _gray3_reference(m)
            ]
            pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(2 * n)]
            graphs = [Graph(n, pairs), Graph(n, pairs, directed=True)]
            assert list(_placements(verts, -1)) == []  # even S = {} is over budget
            for k in sorted({0, 1, m // 3, m}):
                assert list(_placements(verts, k)) == _filtered_reference(triples, k), (m, k)
                for g in graphs:
                    got = list(_placements(verts, k, 2 * m / 3, g))
                    assert got == _filtered_reference(triples, k, g), (m, k, g.directed)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10_000), st.integers(2, 5), st.data())
def test_decompose_agrees_with_exact_treewidth(n, seed, k, data):
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    g = fixtures("GNM", n, m, seed)
    res = decompose(g, k)
    if isinstance(res, Rejection):
        assert exact_treewidth(g) > k - 1
    else:
        assert validate_td(g, res) == []
        assert td_width(res) <= 5 * (k - 1)
