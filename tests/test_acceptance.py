"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line with its measured numbers."""

from __future__ import annotations

import json
import time

import pytest

from sepkit import (
    DisjointPathSet,
    Leftness,
    catalan,
    compare_leftness,
    decompose,
    enumerate_important,
    enumerate_leftmost,
    leftmost_min_separator,
    max_disjoint_paths,
    td_width,
    to_nice,
    validate_td,
)
from sepkit.cli import cli
from sepkit.errors import TooLarge
from sepkit.graph import is_minimal_separator, is_separator
from sepkit.leftmost import node_count_bound
from sepkit.oracle import (
    Lcg,
    brute_minimal_separators,
    bt_leaves,
    exact_treewidth,
    filter_important,
    filter_leftmost,
    fixtures,
    named_separator_corpus,
    random_separator_corpus,
    read_manifest,
    write_manifest,
)
from sepkit.pace import emit_graph, emit_td, parse_graph, parse_td
from sepkit.treewidth import Rejection


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sep_corpus(tmp_path_factory):
    insts = random_separator_corpus(500, seed=1, n_max=10, m_max=20, k_max=4)
    insts += named_separator_corpus()
    insts = [inst for inst in insts if inst.graph().n <= 16]
    # round-trip through the manifest file format the harness consumes
    manifest = tmp_path_factory.mktemp("corpus") / "manifest.json"
    write_manifest(insts, str(manifest))
    return read_manifest(str(manifest))


@pytest.fixture(scope="module")
def enum_results(sep_corpus):
    def run(inst):
        g = inst.graph()
        x, y, k = frozenset(inst.x), frozenset(inst.y), inst.k
        return inst, g, enumerate_leftmost(g, x, y, k), enumerate_important(g, x, y, k)

    return [run(inst) for inst in sep_corpus]


def test_criterion_1_catalan_tightness():
    t0 = time.monotonic()
    leftmost_counts = []
    important_counts = []
    for k in range(2, 7):
        g = fixtures("BT", k + 2)
        x, y = bt_leaves(k + 2), frozenset({1})
        leftmost_counts.append(enumerate_leftmost(g, x, y, k).count)
        important_counts.append(enumerate_important(g, x, y, k).count)
    elapsed = time.monotonic() - t0
    want_left = [catalan(k - 1) for k in range(2, 7)]
    want_imp = [sum(catalan(i) for i in range(k)) for k in range(2, 7)]
    ok = (
        leftmost_counts == want_left == [1, 2, 5, 14, 42]
        and important_counts == want_imp
        and elapsed < 60
    )
    _report(
        1,
        ok,
        f"BT(k+2) k=2..6 leftmost={leftmost_counts} important={important_counts} "
        f"({elapsed:.1f}s < 60s)",
    )


def test_criterion_2_oracle_equivalence(sep_corpus, enum_results):
    mismatches = 0
    for inst, g, left_res, imp_res in enum_results:
        x, y, k = frozenset(inst.x), frozenset(inst.y), inst.k
        cands = brute_minimal_separators(g, x, y, k)
        want_left = {s.members for s in filter_leftmost(g, x, cands)}
        want_imp = {s.members for s in filter_important(g, x, y, cands)}
        if {s.members for s in left_res.separators} != want_left:
            mismatches += 1
        if {s.members for s in imp_res.separators} != want_imp:
            mismatches += 1
    _report(
        2,
        mismatches == 0 and len(sep_corpus) >= 500,
        f"{len(sep_corpus)} instances, {mismatches} mismatches",
    )


def test_criterion_3_menger_equality(sep_corpus):
    mismatches = 0
    for inst in sep_corpus:
        g = inst.graph()
        x, y = frozenset(inst.x), frozenset(inst.y)
        best = min(
            (len(s.members) for s in brute_minimal_separators(g, x, y, g.n)), default=None
        )
        flow = max_disjoint_paths(g, x, y, g.n + 1).flow_value
        if best is None or flow != best:
            mismatches += 1
    _report(3, mismatches == 0, f"{len(sep_corpus)} instances, {mismatches} mismatches")


def test_criterion_4_leftmost_minimum_property(sep_corpus):
    mismatches = 0
    for inst in sep_corpus:
        g = inst.graph()
        x, y, k = frozenset(inst.x), frozenset(inst.y), inst.k
        all_min = brute_minimal_separators(g, x, y, g.n)
        best = min(len(s.members) for s in all_min)
        try:
            sep, packing = leftmost_min_separator(g, x, y, k)
        except TooLarge:
            if best <= k:
                mismatches += 1
            continue
        ok = (
            len(sep.members) == best
            and is_separator(g, x, y, sep.members)
            and is_minimal_separator(g, x, y, sep.members)
            and all(
                compare_leftness(g, x, sep.members, other.members)
                in (Leftness.LEFT_OF, Leftness.EQUAL)
                for other in all_min
                if len(other.members) == best
            )
        )
        for j in range(packing.flow_value + 1):
            warm = max_disjoint_paths(g, x, y, j) if j else DisjointPathSet()
            again, _ = leftmost_min_separator(g, x, y, k, warm=warm)
            ok = ok and again.members == sep.members
        if not ok:
            mismatches += 1
    _report(4, mismatches == 0, f"{len(sep_corpus)} instances, {mismatches} mismatches")


def test_criterion_5_branching_bounds(enum_results):
    violations = 0
    runs = 0
    for inst, _, left_res, imp_res in enum_results:
        k = inst.k
        runs += 1
        if left_res.count > catalan(k - 1):
            violations += 1
        if left_res.explored_nodes > node_count_bound(k):
            violations += 1
        if imp_res.count > sum(catalan(i) for i in range(k)):
            violations += 1
    # the binary-tree witness is the extremal family; include it explicitly
    for k in range(2, 7):
        g = fixtures("BT", k + 2)
        res = enumerate_leftmost(g, bt_leaves(k + 2), {1}, k)
        runs += 1
        if res.count > catalan(k - 1) or res.explored_nodes > node_count_bound(k):
            violations += 1
    _report(5, violations == 0, f"{runs} enumeration runs, {violations} bound violations")


@pytest.fixture(scope="module")
def tw_corpus():
    graphs = []
    for n in (5, 10, 20, 30):
        graphs.append(fixtures("PATH", n))
    for n in (4, 9, 17, 24):
        graphs.append(fixtures("CYCLE", n))
    for n, seed in ((10, 2), (18, 4), (27, 6)):
        graphs.append(fixtures("TREE", n, seed))
    for n in range(3, 9):
        graphs.append(fixtures("COMPLETE", n))
    for r, c in ((2, 2), (2, 4), (3, 3), (3, 4), (4, 4)):
        graphs.append(fixtures("GRID", r, c))
    rng = Lcg(2024)
    for i in range(100):
        n = 6 + rng.below(9)  # 6..14
        m = rng.below(2 * n + 1)
        graphs.append(fixtures("GNM", n, m, 77_000 + i))
    return graphs


def test_criterion_6_treewidth_contract(tw_corpus):
    t0 = time.monotonic()
    violations = 0
    accepts = rejects = 0
    for g in tw_corpus:
        exact = exact_treewidth(g) if g.n <= 18 else None
        for k in range(2, 7):
            for vol in (True, False):
                res = decompose(g, k, volume_splits=vol)
                if isinstance(res, Rejection):
                    rejects += 1
                    if exact is not None and exact <= k - 1:
                        violations += 1  # false rejection
                else:
                    accepts += 1
                    w = td_width(res)
                    if validate_td(g, res) or w > 5 * (k - 1):
                        violations += 1
                    if not vol and w > 4 * k - 2:
                        violations += 1
    elapsed = time.monotonic() - t0
    _report(
        6,
        violations == 0 and elapsed < 600,
        f"{len(tw_corpus)} graphs x k=2..6 x 2 modes: {accepts} accepts, "
        f"{rejects} rejects, {violations} violations ({elapsed:.1f}s < 600s)",
    )


def test_criterion_7_lemma_identities(enum_results):
    failures = 0
    for inst, g, left_res, imp_res in enum_results:
        x, y, k = frozenset(inst.x), frozenset(inst.y), inst.k
        left_sets = {s.members for s in left_res.separators}
        imp_sets = {s.members for s in imp_res.separators}
        if not left_sets <= imp_sets:
            failures += 1
        union = set()
        for i in range(1, k + 1):
            union |= {s.members for s in enumerate_leftmost(g, x, y, i).separators}
        if union != imp_sets:
            failures += 1
    _report(7, failures == 0, f"{len(enum_results)} instances, {failures} identity failures")


def test_criterion_8_format_stability(tmp_path, capsys):
    failures = []
    fixture_list = [
        ("PATH", (6,)),
        ("CYCLE", (5,)),
        ("COMPLETE", (4,)),
        ("BT", (4,)),
        ("GRID", (3, 3)),
        ("STAR4", ()),
        ("DIAMOND", ()),
        ("TREE", (9, 4)),
        ("GNM", (8, 12, 1)),
    ]
    for name, params in fixture_list:
        g = fixtures(name, *params)
        data = emit_graph(g)
        g2, _ = parse_graph(data)
        if emit_graph(g2) != data or g2 != g:
            failures.append(f".gr round-trip {name}")
        td = decompose(g, 4)
        if isinstance(td, Rejection):
            continue
        blob = emit_td(td, g)
        if emit_td(parse_td(blob, g), g) != blob:
            failures.append(f".td round-trip {name}")
        nice = to_nice(td)
        blob = emit_td(nice, g)
        if emit_td(parse_td(blob, g), g) != blob:
            failures.append(f"nice .td round-trip {name}")

    gr = tmp_path / "p10.gr"
    gr.write_bytes(emit_graph(fixtures("PATH", 10)))
    td_path = tmp_path / "p10.td"
    if cli(["tw", "--graph", str(gr), "-k", "3", "-o", str(td_path)]) != 0:
        failures.append("tw accept exit code")
    if cli(["validate", "--graph", str(gr), "--td", str(td_path)]) != 0:
        failures.append("validate exit code")
    k12 = tmp_path / "k12.gr"
    k12.write_bytes(emit_graph(fixtures("COMPLETE", 12)))
    if cli(["tw", "--graph", str(k12), "-k", "3"]) != 2:
        failures.append("reject exit code")
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    if out.get("status") != "reject" or "witness_w" not in out:
        failures.append("reject witness payload")
    if cli(["minsep", "--graph", str(tmp_path / "absent.gr"), "--source", "1", "--target", "2", "-k", "1"]) != 1:
        failures.append("missing-file exit code")
    capsys.readouterr()
    with capsys.disabled():
        pass
    _report(8, not failures, f"round-trips + exit codes ({failures or 'all stable'})")
