"""The benchmark's workloads: inputs made from a seed, and the operations
timed on them.

Every operation is one call into sepkit's public names, looked up on its
module at call time so that the tracer's wrappers apply. ``run`` is the
timed call; ``collect`` (untimed) turns its raw result into the output
that ``check`` verifies with the independent checker and that ``digest``
writes canonically, so that traced and untraced outputs can be compared.

Inputs:

- enum: a random relabelling of every graph, drawn from the seed. The
  enumerations visit the same branch tree shape under any relabelling,
  so the seed changes the input without changing the work much.
- tw-search: the fixed GRID(8,8) at k=9 and GNM(30,120,2) at k=4, plus
  three GNM(30,360) graphs whose generator seeds come from the seed.
  These dense graphs are rejected at k=4 after the exhaustive search of
  all 3^10 assignments, where almost no assignment survives the filters
  to a flow call, so their cost does not depend on the seed. (Sparser
  GNM(30,200) graphs send 18 to 814 assignments to a flow call,
  depending on the seed.)
- tw-long: fixed PATH, CYCLE and GRID(3,120) (a relabelling changes the
  decomposer's cost by orders of magnitude) and two TREE(1200) graphs
  whose generator seeds come from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import check

WORKLOADS = ("enum", "tw-search", "tw-long")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], str]
    collect: Callable[[object], object] = lambda raw: raw


@dataclass
class Input:
    """A graph as the benchmark made it, written to a .gr file and read
    back through sepkit.pace."""

    name: str
    n: int
    edges: list
    path: str
    graph: object  # the sepkit Graph parsed from ``path``
    known_tw: int | None = None  # classic treewidth of the family, if known

    @cached_property
    def adj(self):
        return check.adjacency(self.n, self.edges)


# -- graph families (classic treewidth in the last field) ----------------


def bt(levels: int):
    n = (1 << levels) - 1
    return n, [(v // 2, v) for v in range(2, n + 1)], 1


def grid(r: int, c: int):
    edges = []
    for i in range(r):
        for j in range(c):
            v = i * c + j + 1
            if j + 1 < c:
                edges.append((v, v + 1))
            if i + 1 < r:
                edges.append((v, v + c))
    return r * c, edges, min(r, c)


def path(n: int):
    return n, [(i, i + 1) for i in range(1, n)], 1


def cycle(n: int):
    return n, [(i, i + 1) for i in range(1, n)] + [(n, 1)], 2


def fixture(sepkit, name: str, *params):
    g = sepkit["sepkit.oracle"].fixtures(name, *params)
    return g.n, list(g.edges()), (1 if name == "TREE" else None)


class Maker:
    """Writes inputs under ``rundir`` and parses them back with sepkit."""

    def __init__(self, sepkit: dict, rundir: str):
        self.sepkit = sepkit
        self.rundir = rundir

    def make(self, name: str, family, perm: list[int] | None = None) -> Input:
        n, edges, known_tw = family
        if perm is not None:
            edges = [(perm[u - 1], perm[v - 1]) for u, v in edges]
        file = os.path.join(self.rundir, name + ".gr")
        text = f"p tw {n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        with open(file, "w") as fh:
            fh.write(text)
        with open(file, "rb") as fh:
            graph, _ = self.sepkit["sepkit.pace"].parse_graph(fh.read())
        return Input(name, n, edges, file, graph, known_tw)


def permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


# -- enum ----------------------------------------------------------------


def _enum_op(sepkit, inp: Input, kind: str, x, y, k: int, brute: bool, tight: bool) -> Op:
    """``tight``: BT(k+2) with X = leaves and Y = root, where the family
    sizes reach their Catalan caps."""
    mod = sepkit["sepkit.leftmost"]
    fn_name = "enumerate_leftmost" if kind == "leftmost" else "enumerate_important"
    x, y = frozenset(x), frozenset(y)

    def run():
        return getattr(mod, fn_name)(inp.graph, x, y, k)

    def verify(res):
        family = [s.members for s in res.separators]
        if kind == "leftmost":
            check.check_leftmost_family(inp.adj, x, y, family, k)
        else:
            check.check_important_family(inp.adj, x, y, family, k)
        if tight:
            want = check.catalan(k - 1) if kind == "leftmost" else sum(check.catalan(i) for i in range(k))
            if len(family) != want:
                raise check.CheckFailed(f"{inp.name}: {len(family)} {kind} separators, expected {want}")
        if brute:
            leftmost, important = check.brute_families(inp.adj, inp.n, x, y, k)
            check.check_family_equals(family, leftmost if kind == "leftmost" else important, kind)

    def digest(res):
        return json.dumps(sorted(sorted(s.members) for s in res.separators))

    return Op(f"{kind} {inp.name} k={k}", run, verify, digest)


def _minsep_op(sepkit, inp: Input, x, y, k: int) -> Op:
    mod = sepkit["sepkit.flow"]
    x, y = frozenset(x), frozenset(y)

    def run():
        return mod.leftmost_min_separator(inp.graph, x, y, k)

    def verify(res):
        sep, packing = res
        check.check_min_separator(inp.adj, x, y, sep.members, packing.paths, k)

    def digest(res):
        sep, packing = res
        return json.dumps([sorted(sep.members), [list(p) for p in packing.paths]])

    return Op(f"minsep {inp.name} k={k}", run, verify, digest)


def _bt_terms(levels: int, perm):
    return [perm[v - 1] for v in range(1 << (levels - 1), 1 << levels)], [perm[0]]


def _grid_terms(r: int, c: int, perm):
    """X = bottom row, Y = the middle vertex of the top row."""
    return [perm[(r - 1) * c + j] for j in range(c)], [perm[c // 2]]


def _columns(r: int, c: int, perm):
    """X = left column, Y = right column."""
    return [perm[i * c] for i in range(r)], [perm[i * c + c - 1] for i in range(r)]


def enum_ops(sepkit, maker: Maker, seed: int):
    rng = random.Random(f"enum-{seed}")
    ops, warm = [], []

    def add(into, name, family, levels_or_rc, kinds, k, brute=False):
        perm = permutation(family[0], rng)
        inp = maker.make(name, family, perm)
        if name.startswith("BT"):
            x, y = _bt_terms(levels_or_rc, perm)
        else:
            x, y = _grid_terms(*levels_or_rc, perm)
        tight = name.startswith("BT") and levels_or_rc == k + 2
        for kind in kinds:
            into.append(_enum_op(sepkit, inp, kind, x, y, k, brute, tight))

    # Warm-up, one per kind, small enough (n <= 16) for brute force.
    add(warm, "BT4", bt(4), 4, ["leftmost"], 2, brute=True)
    add(warm, "GRID3x5", grid(3, 5), (3, 5), ["important"], 3, brute=True)
    perm = permutation(16, rng)
    small = maker.make("GRID4x4", grid(4, 4), perm)
    warm.append(_minsep_op(sepkit, small, *_columns(4, 4, perm), 4))

    # BT(9) at k=7 has C_6 = 132 leftmost separators (the tight case).
    add(ops, "BT9", bt(9), 9, ["leftmost"], 7)
    # Three relabellings of BT(8), the middle operation by time, so that
    # op_p50_s is the median of many samples of one kind of operation.
    for name in ("BT8a", "BT8b", "BT8c"):
        add(ops, name, bt(8), 8, ["important"], 6)
    add(ops, "GRID12x14", grid(12, 14), (12, 14), ["leftmost", "important"], 8)
    # GRID(80,80) keeps the minimum separator above the BT(8) enumerations in time.
    perm = permutation(6400, rng)
    big = maker.make("GRID80x80", grid(80, 80), perm)
    ops.append(_minsep_op(sepkit, big, *_columns(80, 80, perm), 80))
    return ops, warm


# -- tw-search -----------------------------------------------------------


def _tree_decomposition_text(td) -> str:
    bags = {str(b): sorted(td.bags[b]) for b in td.nodes}
    return json.dumps({"bags": bags, "edges": [list(e) for e in td.tree_edges]}, sort_keys=True)


def _decompose_op(sepkit, inp: Input, k: int) -> Op:
    mod = sepkit["sepkit.treewidth"]

    def run():
        return mod.decompose(inp.graph, k)

    def verify(res):
        if isinstance(res, mod.Rejection):
            check.check_rejection(inp.adj, inp.n, k, inp.known_tw)
        else:
            check.check_td(inp.adj, inp.n, dict(res.bags), list(res.tree_edges), k)

    def digest(res):
        if isinstance(res, mod.Rejection):
            return json.dumps({"reject": sorted(res.witness_w), "budget": res.budget})
        return _tree_decomposition_text(res)

    return Op(f"decompose {inp.name} k={k}", run, verify, digest)


def tw_search_ops(sepkit, maker: Maker, seed: int):
    warm = [
        _decompose_op(sepkit, maker.make("GRID4x4", grid(4, 4)), 5),
        _decompose_op(sepkit, maker.make("GNM12", fixture(sepkit, "GNM", 12, 40, seed)), 3),
    ]
    ops = [
        _decompose_op(sepkit, maker.make("GRID8x8", grid(8, 8)), 9),
        _decompose_op(sepkit, maker.make("GNM30-120-2", fixture(sepkit, "GNM", 30, 120, 2)), 4),
    ]
    for i in range(3):
        sub = 3 * seed + i
        ops.append(_decompose_op(sepkit, maker.make(f"GNM30-360-{sub}", fixture(sepkit, "GNM", 30, 360, sub)), 4))
    return ops, warm


# -- tw-long -------------------------------------------------------------


def _cli_op(sepkit, inp: Input, k: int) -> Op:
    mod = sepkit["sepkit.cli"]
    td_path = inp.path[: -len(".gr")] + ".td"

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mod.cli(["tw", "--graph", inp.path, "-k", str(k), "-o", td_path])
            if code == 0:
                code = mod.cli(["validate", "--graph", inp.path, "--td", td_path])
        return code, out.getvalue()

    def collect(raw):
        code, stdout = raw
        td_text = None
        if os.path.exists(td_path):
            with open(td_path) as fh:
                td_text = fh.read()
            os.remove(td_path)
        return code, stdout, td_text

    def verify(res):
        code, stdout, td_text = res
        check.check_cli_tw(stdout, code, td_text, inp.adj, inp.n, k, inp.known_tw)

    def digest(res):
        code, stdout, td_text = res
        # The .td path in stdout names the run's directory, which differs
        # between runs.
        return json.dumps([code, stdout.replace(td_path, "<td>"), td_text])

    return Op(f"cli tw+validate {inp.name} k={k}", run, verify, digest, collect)


def tw_long_ops(sepkit, maker: Maker, seed: int):
    warm = [_cli_op(sepkit, maker.make("PATH12", path(12)), 3)]
    # Three copies of one cycle between two faster trees and two slower
    # graphs, so that op_p50_s is the median of many samples of one
    # operation. (CYCLE(998), CYCLE(1000) and CYCLE(1002) differ by 15%.)
    ops = [
        _cli_op(sepkit, maker.make("PATH800", path(800)), 3),
        _cli_op(sepkit, maker.make("GRID3x120", grid(3, 120)), 4),
    ]
    for copy in "abc":
        ops.append(_cli_op(sepkit, maker.make(f"CYCLE1000{copy}", cycle(1000)), 3))
    for i in range(2):
        sub = 2 * seed + i
        ops.append(_cli_op(sepkit, maker.make(f"TREE1200-{sub}", fixture(sepkit, "TREE", 1200, sub)), 3))
    return ops, warm


BUILDERS = {"enum": enum_ops, "tw-search": tw_search_ops, "tw-long": tw_long_ops}
