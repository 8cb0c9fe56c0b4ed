"""Tests of the independent checker: it accepts correct outputs and
rejects corrupted ones. Run with ``python3 -m pytest sepbench``."""

import pytest

import check
import workloads


def bt(levels):
    n, edges, _ = workloads.bt(levels)
    return n, check.adjacency(n, edges)


def test_binary_tree_families_match_catalan_and_brute_force():
    n, adj = bt(5)
    leaves, root = set(range(16, 32)), {1}
    leftmost, important = check.brute_families(adj, n, leaves, root, 3)
    assert len(leftmost) == check.catalan(2) == 2
    assert len(important) == sum(check.catalan(i) for i in range(3)) == 4
    check.check_leftmost_family(adj, leaves, root, leftmost, 3)
    check.check_important_family(adj, leaves, root, important, 3)


def test_separator_with_a_vertex_removed_is_rejected():
    n, adj = bt(3)
    leaves, root = {4, 5, 6, 7}, {1}
    check.check_separator(adj, leaves, root, {2, 3}, 2)
    with pytest.raises(check.CheckFailed, match="does not separate"):
        check.check_separator(adj, leaves, root, {2}, 2)
    with pytest.raises(check.CheckFailed, match="not minimal"):
        check.check_separator(adj, leaves, root, {2, 3, 4}, 3)
    with pytest.raises(check.CheckFailed, match="> k"):
        check.check_separator(adj, leaves, root, {2, 3}, 1)


def test_nested_left_parts_and_dominated_right_parts_are_rejected():
    # Path 1-2-3-4: {2} lies left of {3} and dominates it.
    adj = check.adjacency(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(check.CheckFailed, match="strictly inside"):
        check.check_leftmost_family(adj, {1}, {4}, [{2}, {3}], 1)
    with pytest.raises(check.CheckFailed, match="dominated"):
        check.check_important_family(adj, {1}, {4}, [{2}, {3}], 1)
    with pytest.raises(check.CheckFailed, match="brute force"):
        check.check_family_equals([{3}], check.brute_families(adj, 4, {1}, {4}, 1)[0], "leftmost")


def test_min_separator_paths_must_be_disjoint_walks_as_many_as_the_cut():
    n, edges, _ = workloads.grid(2, 3)  # 1 2 3 / 4 5 6
    adj = check.adjacency(n, edges)
    x, y = {1, 4}, {3, 6}
    check.check_min_separator(adj, x, y, {2, 5}, [(1, 2, 3), (4, 5, 6)], 2)
    with pytest.raises(check.CheckFailed, match="paths but"):
        check.check_min_separator(adj, x, y, {2, 5}, [(1, 2, 3)], 2)
    with pytest.raises(check.CheckFailed, match="share"):
        check.check_min_separator(adj, x, y, {2, 5}, [(1, 2, 3), (4, 5, 2, 3)], 2)
    with pytest.raises(check.CheckFailed, match="non-edge"):
        check.check_min_separator(adj, x, y, {2, 5}, [(1, 2, 3), (4, 6)], 2)


PATH4_TD = "s td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n"


def test_td_with_one_edge_uncovered_is_rejected():
    adj = check.adjacency(4, [(1, 2), (2, 3), (3, 4)])
    bags, edges, n = check.read_td(PATH4_TD)
    assert check.check_td(adj, n, bags, edges, 2) == 2
    bags, edges, n = check.read_td(PATH4_TD.replace("b 2 2 3", "b 2 2"))
    with pytest.raises(check.CheckFailed, match=r"edge \(2,3\) is in no bag|header width"):
        check.check_td(adj, n, bags, edges, 2)
    bags, edges, n = check.read_td("s td 3 2 4\nb 1 1 2\nb 2 2 4\nb 3 3 4\n1 2\n2 3\n")
    with pytest.raises(check.CheckFailed, match=r"edge \(2,3\) is in no bag"):
        check.check_td(adj, n, bags, edges, 2)


def test_td_structure_faults_are_rejected():
    adj = check.adjacency(4, [(1, 2), (2, 3), (3, 4)])
    broken_tree = "s td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n1 2\n"
    with pytest.raises(check.CheckFailed, match="connect"):
        check.check_td(adj, *_td(broken_tree), 2)
    split_holders = "s td 3 2 4\nb 1 1 2\nb 2 3 4\nb 3 2 3\n1 2\n2 3\n"
    with pytest.raises(check.CheckFailed, match="holding 2"):
        check.check_td(adj, *_td(split_holders), 2)
    with pytest.raises(check.CheckFailed, match="exceeds"):
        check.check_td(adj, *_td("s td 1 4 4\nb 1 1 2 3 4\n"), 1)


def _td(text):
    bags, edges, n = check.read_td(text)
    return n, bags, edges


def test_rejection_below_the_degeneracy_bound_is_rejected():
    n, edges, tw = workloads.grid(3, 5)
    adj = check.adjacency(n, edges)
    assert check.degeneracy(adj, n) == 2
    check.check_rejection(adj, n, 3)  # degeneracy 2 >= k-1
    with pytest.raises(check.CheckFailed, match="lower bound"):
        check.check_rejection(adj, n, 4)
    check.check_rejection(adj, n, 4, known_tw=tw)  # classic treewidth 3
    k5 = check.adjacency(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    assert check.degeneracy(k5, 5) == 4


def test_cli_output_must_agree_with_the_file():
    adj = check.adjacency(4, [(1, 2), (2, 3), (3, 4)])
    tw = '{"bags":3,"k":2,"output":"p.td","status":"accept","width":2,"width_convention":"bag-size"}'
    valid = '{"bags":3,"status":"valid","width":2}'
    check.check_cli_tw(f"{tw}\n{valid}\n", 0, PATH4_TD, adj, 4, 2, 1)
    with pytest.raises(check.CheckFailed, match="validate reports"):
        check.check_cli_tw(f"{tw}\n{valid.replace('3', '4')}\n", 0, PATH4_TD, adj, 4, 2, 1)
    with pytest.raises(check.CheckFailed, match="lower bound"):
        check.check_cli_tw('{"k":3,"status":"reject","witness_w":[1]}\n', 2, None, adj, 4, 3, 1)
