from __future__ import annotations

import hashlib
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import DisjointPathSet, Graph, _flowpure, augment_paths, backend_name, decompose
from sepkit import enumerate_leftmost, flow, max_disjoint_paths
from sepkit.flow import CutConstraints, _csr, leftmost_cut
from sepkit.oracle import fixtures, named_separator_corpus, random_separator_corpus

try:
    from sepkit import _flowcore as compiled
except ImportError:
    compiled = None

# SHA-256 of the _flowcore.pyx that the shipped _flowcore.c was generated from.
PYX_SHA256 = "bd7ad1afe79436715098d9eed3d342843286ef47a072caae364f0f71a3d99128"


def _run_all(kernel, inst, trial):
    g = inst.graph()
    flat, off = _csr(g)
    n = g.n
    forced = [0] * n
    active = [1] * n
    if trial >= 1:
        forced[(inst.k + trial) % n] = 1
    if trial == 2:
        active[(inst.k * 5 + 2) % n] = 0
    xs = sorted(v - 1 for v in inst.x if active[v - 1])
    ys = sorted(v - 1 for v in inst.y if active[v - 1])
    return _solved(kernel, (n, flat, off, xs, ys, forced, active, inst.k + 1, []))


def _solved(kernel, args):
    flow, paths, rin, rout = kernel.solve(*args)
    return flow, paths, bytes(rin), bytes(rout)


def _at_cap_inputs():
    """Kernel inputs that end with the packing at cap: cap one below the
    maximum flow, so the sink is still reachable, and a warm packing of
    exactly cap paths, so no search runs at all."""
    for inst in random_separator_corpus(60, seed=37) + named_separator_corpus():
        g = inst.graph()
        flat, off = _csr(g)
        n = g.n
        forced = [0] * n
        forced[inst.k % n] = 1
        common = (n, flat, off, sorted(v - 1 for v in inst.x), sorted(v - 1 for v in inst.y), forced, [1] * n)
        top = _flowpure.solve(*common, n + 1, [])
        if top[0] >= 1:
            yield common + (top[0] - 1, [])
        yield common + (top[0] // 2, top[1][: top[0] // 2])


@pytest.mark.skipif(compiled is None, reason="compiled kernel not built")
def test_backends_bit_identical():
    insts = random_separator_corpus(150, seed=23) + named_separator_corpus()
    for inst in insts:
        for trial in range(3):
            assert _run_all(_flowpure, inst, trial) == _run_all(compiled, inst, trial)
    at_cap = list(_at_cap_inputs())
    assert sum(1 for args in at_cap if not args[8]) > 100
    for args in at_cap:
        a = _solved(_flowpure, args)
        assert a == _solved(compiled, args)
        assert a[0] == args[7]


@pytest.mark.skipif(compiled is None, reason="compiled kernel not built")
def test_warm_start_identical():
    insts = random_separator_corpus(60, seed=31)
    for inst in insts:
        g = inst.graph()
        flat, off = _csr(g)
        n = g.n
        xs = sorted(v - 1 for v in inst.x)
        ys = sorted(v - 1 for v in inst.y)
        base = _flowpure.solve(n, flat, off, xs, ys, [0] * n, [1] * n, inst.k + 1, [])
        if not base[1]:
            continue
        warm = base[1][: (len(base[1]) + 1) // 2]
        a = _flowpure.solve(n, flat, off, xs, ys, [0] * n, [1] * n, inst.k + 1, warm)
        b = compiled.solve(n, flat, off, xs, ys, [0] * n, [1] * n, inst.k + 1, warm)
        assert (a[0], a[1], bytes(a[2]), bytes(a[3])) == (b[0], b[1], bytes(b[2]), bytes(b[3]))


def _kernel_inputs_from_run():
    """The kernel input that ``flow._run`` builds on region-local calls
    (decompositions of long thin graphs, enumerations inside a region of
    half the graph), with the vertex count of the graph each came from."""
    seen = []
    kernel = flow.kernel
    graph_n = 0

    def record(*args):
        seen.append((graph_n, args))
        return kernel.solve(*args)

    flow.kernel = types.SimpleNamespace(solve=record)
    try:
        for g, k in ((fixtures("PATH", 150), 3), (fixtures("GRID", 3, 30), 4), (fixtures("CYCLE", 80), 3)):
            graph_n = g.n
            decompose(g, k)
        for inst in random_separator_corpus(150, seed=41, n_max=16, m_max=40, k_max=6):
            g = inst.graph()
            graph_n = g.n
            half = frozenset(sorted(set(inst.x) | set(inst.y) | set(g.vertices[::2]))[: g.n // 2])
            enumerate_leftmost(g, inst.x, inst.y, inst.k, within=half)
    finally:
        flow.kernel = kernel
    return seen


@pytest.mark.skipif(compiled is None, reason="compiled kernel not built")
def test_relabelled_inputs_identical():
    inputs = _kernel_inputs_from_run()
    assert sum(1 for n, args in inputs if args[0] < n) > 100
    for _, args in inputs:
        a = _flowpure.solve(*args)
        b = compiled.solve(*args)
        assert (a[0], a[1], bytes(a[2]), bytes(a[3])) == (b[0], b[1], bytes(b[2]), bytes(b[3]))


@pytest.mark.parametrize("active, warm", [([1, 1, 1], [0, 2]), ([1, 1, 0], [0, 1, 2])])
def test_warm_path_over_missing_edge_same_exception(active, warm):
    """A warm path along a non-edge, or into an inactive vertex, raises
    the same ValueError on both kernels."""
    flat, off = _csr(Graph(3, [(1, 2), (2, 3)]))
    for kernel in (_flowpure, compiled):
        if kernel is None:
            continue
        with pytest.raises(ValueError) as raised:
            kernel.solve(3, flat, off, [0], [2], [0] * 3, active, 2, [warm])
        assert type(raised.value) is ValueError
        assert str(raised.value) == "warm path uses a missing edge"


def _outcome(call):
    """The result of ``call``, or the type, args and witness of what it raised."""
    try:
        return "ok", call()
    except Exception as e:  # whatever one backend raises, the other must raise too
        return "raised", type(e), e.args, getattr(e, "witness", None)


@st.composite
def _public_calls(draw):
    """A random graph with X, Y, forced and k; ids up to n+1 (so some
    calls go out of range), an optional region and an optional warm
    packing taken from an earlier call."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    g = Graph(n, draw(st.lists(pairs, max_size=3 * n)), directed=draw(st.booleans()))
    ids = st.integers(0, n + 1) if draw(st.integers(0, 4)) == 0 else st.integers(1, n)
    x = frozenset(draw(st.lists(ids, min_size=1, max_size=4)))
    y = frozenset(draw(st.lists(ids, min_size=1, max_size=4)))
    forced = frozenset(draw(st.lists(ids, max_size=3)))
    k = draw(st.integers(0, n))
    active = None
    if draw(st.booleans()):
        active = frozenset(draw(st.lists(st.integers(1, n), max_size=n))) | x | y
    warm = ()
    if draw(st.booleans()):
        packed = _outcome(lambda: max_disjoint_paths(g, x, y, n + 1, CutConstraints(forced)))
        if packed[0] == "ok":
            warm = packed[1].paths[: draw(st.integers(0, len(packed[1].paths)))]
    return g, x, y, forced, k, active, warm


@pytest.mark.skipif(compiled is None, reason="compiled kernel not built")
@settings(max_examples=300, deadline=None)
@given(_public_calls())
def test_backends_agree_on_public_calls(call):
    g, x, y, forced, k, active, warm = call
    calls = (
        lambda: leftmost_cut(g, x, y, k, forced, active, warm),
        lambda: max_disjoint_paths(g, x, y, k + 1, CutConstraints(forced)),
        lambda: augment_paths(g, x, y, DisjointPathSet.of(warm)),
    )
    chosen = flow.kernel
    try:
        results = []
        for kernel in (_flowpure, compiled):
            flow.kernel = kernel
            results.append([_outcome(c) for c in calls])
    finally:
        flow.kernel = chosen
    assert results[0] == results[1]


def test_backend_selection_reports():
    assert backend_name() == ("pure" if compiled is None else "compiled")


def test_shipped_c_matches_pyx():
    pyx = Path(__file__).resolve().parents[1] / "src" / "sepkit" / "_flowcore.pyx"
    digest = hashlib.sha256(pyx.read_bytes()).hexdigest()
    assert digest == PYX_SHA256, (
        "_flowcore.pyx changed: regenerate _flowcore.c from it with Cython "
        f"and set PYX_SHA256 to {digest}"
    )
